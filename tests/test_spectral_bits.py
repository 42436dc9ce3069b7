"""Pinned spectra and the SVD oracle for the watched eigenvalue.

The digest pins the exact bits (``float.hex``) of every root, every
residual and ``ell`` that ``solomon_verdict`` reports for each coprime
ratio n/m with n <= 40 and each three-loop rule with n <= 12.  Any
change to the root finder that moves one bit changes the digest.

The SVD null vector of M - lambda2 I is the independent oracle for the
closed form in ``spectral``: the right eigenvector of a flower, scaled
to 1 at the hub, sums to (p - 1) / (lambda2 - 1) for p loops.
"""
import hashlib

import pytest

from kakutani.cover import build_rho, build_three_interval_rule, substitution_matrix
from kakutani.spectral import eigenspace_not_perp, solomon_verdict

from conftest import coprime_pairs, coprime_triples

#: sha256 of the spectra below, recorded before the fused Aberth sweep.
SPECTRA_DIGEST = "fb5c99f450b6f4ac5d9dde899a39c13f88fd1a13e46f06dcc49d8c7b7f7657f5"


def pinned_rules():
    for n, m in coprime_pairs(40):
        yield (n, m), build_rho(n, m)
    for loops in coprime_triples(12):
        yield loops, build_three_interval_rule(*loops)


@pytest.fixture(scope="module")
def spectra():
    out = []
    for loops, rule in pinned_rules():
        matrix = substitution_matrix(rule)
        out.append((loops, matrix, solomon_verdict(matrix)))
    return out


def test_spectra_digest(spectra):
    digest = hashlib.sha256()
    for _loops, _matrix, report in spectra:
        record = (
            [(z.real.hex(), z.imag.hex()) for z in report.roots],
            [r.hex() for r in report.residuals],
            report.ell,
        )
        digest.update(repr(record).encode())
    assert len(spectra) == 775
    assert digest.hexdigest() == SPECTRA_DIGEST


def test_watched_eigenvalue_is_not_perpendicular(spectra):
    for loops, matrix, report in spectra:
        assert report.ell == 2, loops
        assert eigenspace_not_perp(matrix, report.roots[1]), loops


def test_eigenvector_sum_closed_form(spectra):
    import numpy as np

    for loops, matrix, report in spectra:
        lam = report.roots[1]
        work = np.array(matrix.entries, dtype=complex) - lam * np.eye(matrix.size)
        _u, sing, vh = np.linalg.svd(work)
        assert sing[-1] <= 1e-6 * max(1.0, sing[0]), loops
        assert sing[-2] > 1e-6 * max(1.0, sing[0]), loops  # the eigenspace is a line
        v = vh[-1].conj()
        v = v / v[0]  # 1 at the hub
        p = len(loops)
        closed = (p - 1) / (lam - 1)
        assert abs(v.sum() - closed) <= 1e-7 * max(1.0, abs(closed)), loops

"""Simultaneous polynomial root finding.

Aberth-Ehrlich iteration with a deterministic start: the initial guesses
sit equally spaced on the circle of the Cauchy root bound, rotated by a
fixed offset so no guess lands on a symmetry axis.  Every root is then
polished independently by a few Newton steps and checked against a
residual bound that scales with the root's magnitude.  The whole
procedure is deterministic: identical inputs give bit-identical output.
"""
from __future__ import annotations

import cmath
import math
from typing import Sequence

from .errors import NumericError, ParameterError
from .polynomials import IntPolynomial, poly_gcd

__all__ = ["find_roots", "residual_bound", "root_residual"]

_ABERTH_MAX_ITER = 400
_ABERTH_STEP_TOL = 1e-14
_NEWTON_STEPS = 6
_RESIDUAL_SCALE = 1e-12


def residual_bound(degree: int, z: complex) -> float:
    """Acceptance threshold for |p(z)| at a claimed root z."""
    return _RESIDUAL_SCALE * (1.0 + abs(z)) ** degree


def _horner(coeffs_desc: Sequence[float], z: complex) -> complex:
    acc = 0j
    for c in coeffs_desc:
        acc = acc * z + c
    return acc


def root_residual(poly: IntPolynomial, z: complex) -> float:
    return abs(_horner([float(c) for c in reversed(poly.coeffs)], z))


def _sort_key(z: complex):
    return (-abs(z), round(z.real, 12), round(z.imag, 12))


def find_roots(poly: IntPolynomial) -> tuple[complex, ...]:
    """All complex roots of an integer polynomial, multiplicity included.

    Roots are returned sorted by decreasing modulus (ties by real part,
    then imaginary part).  Zero roots are split off exactly beforehand.
    Raises NumericError if the iteration fails to meet the residual
    bound ``1e-12 * (1 + |z|)**degree``.
    """
    return _roots_and_residuals(poly)[0]


def _roots_and_residuals(poly: IntPolynomial) -> tuple[tuple[complex, ...], tuple[float, ...]]:
    """``find_roots`` together with the residual ``root_residual(poly, z)``
    of each root, which the bound check has already computed."""
    if poly.is_zero:
        raise ParameterError("the zero polynomial has no well-defined roots")
    reduced, zero_mult = poly.strip_zero_roots()
    degree = reduced.degree
    roots: list[complex] = [0j] * zero_mult
    if degree >= 1:
        roots.extend(_split_roots(reduced))
    roots.sort(key=_sort_key)
    full_degree = poly.degree
    coeffs = [float(c) for c in reversed(poly.coeffs)]
    residuals = []
    for z in roots:
        res = abs(_horner(coeffs, z))
        if res > residual_bound(full_degree, z):
            raise NumericError(
                f"root residual {res:.3e} exceeds bound at z={z!r} "
                f"for {poly!r}"
            )
        residuals.append(res)
    return tuple(roots), tuple(residuals)


def _split_roots(poly: IntPolynomial) -> list[complex]:
    """The roots of ``_aberth``; where its sweep stalls, as it can at a
    repeated root, those of p / gcd(p, p') and of gcd(p, p'), each split
    the same way.  A squarefree p that stalls still raises."""
    try:
        return _aberth(poly)
    except NumericError:
        common = poly_gcd(poly, poly.derivative())
        if common.degree < 1:
            raise
        return _split_roots(divmod(poly, common)[0]) + _split_roots(common)


def _horner_pair(steps: list[tuple[float, float]], last: float, z: complex):
    """p(z) and p'(z) in one loop.

    ``steps`` pairs each descending coefficient of p but the constant
    with the aligned coefficient of p', and ``last`` is the constant.
    Each value follows its own Horner recurrence in ``_horner``'s order.
    A zero coefficient adds nothing: adding an exact 0.0 could only
    flip the sign of a zero part, never a nonzero bit.
    """
    p = dp = 0j
    for c, d in steps:
        if c:
            p = p * z + c
            dp = dp * z + d
        else:
            p = p * z
            dp = dp * z
    return p * z + last, dp


def _aberth(poly: IntPolynomial) -> list[complex]:
    degree = poly.degree
    coeffs = [float(c) for c in reversed(poly.coeffs)]  # descending
    dcoeffs = [float(c) for c in reversed(poly.derivative().coeffs)]
    steps = list(zip(coeffs, dcoeffs))
    last = coeffs[-1]
    lead = coeffs[0]
    radius = 1.0 + max(abs(c / lead) for c in coeffs[1:]) if degree else 1.0
    offset = math.pi / (2.0 * degree)
    z = [
        radius * cmath.exp(1j * (2.0 * math.pi * k / degree + offset))
        for k in range(degree)
    ]
    converged = False
    for _ in range(_ABERTH_MAX_ITER):
        biggest = 0.0
        for i in range(degree):
            zi = z[i]
            p, dp = _horner_pair(steps, last, zi)
            if p == 0:
                continue
            if dp == 0:
                # nudge off a critical point, deterministically
                z[i] = zi + 1e-8 * (1 + 1j)
                biggest = math.inf
                continue
            ratio = p / dp
            # Gauss-Seidel: z[:i] already holds this sweep's updates;
            # one running sum from int 0, in index order
            rep = sum(
                [1.0 / (zi - w) for w in z[i + 1:]],
                sum([1.0 / (zi - w) for w in z[:i]]),
            )
            denom = 1.0 - ratio * rep
            step = ratio if denom == 0 else ratio / denom
            z[i] = zi - step
            biggest = max(biggest, abs(step) / (1.0 + abs(z[i])))
        if biggest < _ABERTH_STEP_TOL:
            converged = True
            break
    if not converged:
        raise NumericError(
            f"Aberth iteration did not converge in {_ABERTH_MAX_ITER} steps "
            f"for {poly!r} (last relative step {biggest:.3e})"
        )
    # independent Newton polish per root
    for i in range(degree):
        zi = z[i]
        for _ in range(_NEWTON_STEPS):
            p, dp = _horner_pair(steps, last, zi)
            if p == 0 or dp == 0:
                break
            nxt = zi - p / dp
            if abs(nxt - zi) <= 1e-16 * (1.0 + abs(zi)):
                zi = nxt
                break
            zi = nxt
        z[i] = zi
    # snap conjugate-symmetric output: pair each root with its mirror
    return _conjugate_clean(z)


def _conjugate_clean(roots: list[complex]) -> list[complex]:
    """Make near-real roots real and average conjugate pairs.

    Real coefficients force a conjugate-closed root multiset; roundoff
    breaks the symmetry at the last digit, which would leak into sorted
    output order.  Pair mirror roots greedily and symmetrize them.
    """
    out: list[complex] = []
    pool = list(roots)
    while pool:
        z = pool.pop()
        if abs(z.imag) <= 1e-10 * (1.0 + abs(z.real)):
            out.append(complex(z.real, 0.0))
            continue
        mirror = min(
            range(len(pool)),
            key=lambda j: abs(pool[j] - z.conjugate()),
            default=None,
        )
        if mirror is not None and abs(pool[mirror] - z.conjugate()) <= 1e-8 * (1.0 + abs(z)):
            w = pool.pop(mirror)
            re = 0.5 * (z.real + w.real)
            im = 0.5 * (abs(z.imag) + abs(w.imag))
            out.append(complex(re, im))
            out.append(complex(re, -im))
        else:
            out.append(z)
    return out

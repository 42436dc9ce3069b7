"""Simultaneous polynomial root finding.

Aberth-Ehrlich iteration with a deterministic start: the initial guesses
sit equally spaced on the circle of the Cauchy root bound, rotated by a
fixed offset so no guess lands on a symmetry axis.  A sweep is
Gauss-Seidel: root i moves by the Newton ratio p/p' corrected by its
repulsion sum over the other roots, one pass over them in index order
that already reads this sweep's updates of the roots before i.  Every
root is then polished independently by a few Newton steps and checked
against a residual bound that scales with the root's magnitude.

p and p' are evaluated by Horner's rule over the polynomial's run
table, built once and read by the sweep, the polish, the residual check
and the Cauchy bound: each nonzero coefficient of p with the aligned
coefficient of p' and the number of zero coefficients after it, for
which only the multiply by z runs.  A flower polynomial has three or
four terms, so an evaluation tests no coefficient.  Skipping the add of
an exact 0.0 could flip only the sign of a zero part, never a nonzero
bit, and a residual's modulus ignores that sign.

The finder takes squarefree polynomials, as the verdicts give it: at a
repeated root the sweep stalls, runs to its cap of 400 sweeps and
raises NumericError.  Two coprime loops give x^n - x^(n-k) - 1, whose
discriminant (Swan, Pacific J. Math. 12, 1962) is +-n^n +- (n-k)^(n-k)
k^k, never 0 as (n-k)^(n-k) k^k < n^n; every three-loop flower with
n <= 60 has gcd(p, p') = 1 exactly.  The whole procedure is
deterministic: identical inputs give bit-identical output.
"""
from __future__ import annotations

import cmath
import math
from itertools import repeat

from .errors import NumericError, ParameterError
from .polynomials import IntPolynomial

__all__ = ["find_roots", "residual_bound", "root_residual"]

_ABERTH_MAX_ITER = 400
_ABERTH_STEP_TOL = 1e-14
_NEWTON_STEPS = 6
_RESIDUAL_SCALE = 1e-12
# complex / complex runs the same quotient as float / complex, without
# first trying float's slot
_ONE = complex(1.0, 0.0)


def residual_bound(degree: int, z: complex) -> float:
    """Acceptance threshold for |p(z)| at a claimed root z."""
    return _RESIDUAL_SCALE * (1.0 + abs(z)) ** degree


#: A run table of p (see ``_run_table``) and its constant term.
_RunTable = tuple[list[tuple[float, float, int]], float]


def _run_table(poly: IntPolynomial) -> _RunTable:
    """The run table of p, and its constant term.

    Each run is a nonzero coefficient of p but the constant, descending,
    the aligned coefficient of p', and the number of zero coefficients
    between it and the next nonzero one or the constant.
    """
    coeffs = poly.coeffs[::-1]
    degree = len(coeffs) - 1
    starts = [k for k, c in enumerate(coeffs[:-1]) if c]
    ends = starts[1:] + [degree]
    # the coefficient at power degree - k, times that power, is p' there
    runs = [
        (float(coeffs[k]), float((degree - k) * coeffs[k]), end - k - 1)
        for k, end in zip(starts, ends)
    ]
    return runs, float(coeffs[-1]) if coeffs else 0.0


def _horner_pair(runs: list[tuple[float, float, int]], last: float, z: complex):
    """p(z) and p'(z) in one loop over the run table ``runs`` of p.

    Each value follows its own Horner recurrence; a zero coefficient
    only multiplies by z, and ``last``, the constant, is added at the
    end.
    """
    p = dp = 0j
    for c, d, zeros in runs:
        p = p * z + c
        dp = dp * z + d
        for _ in repeat(None, zeros):
            p = p * z
            dp = dp * z
    return p * z + last, dp


def root_residual(poly: IntPolynomial, z: complex) -> float:
    return abs(_horner_pair(*_run_table(poly), z)[0])


def _sort_key(z: complex):
    return (-abs(z), round(z.real, 12), round(z.imag, 12))


def find_roots(poly: IntPolynomial) -> tuple[complex, ...]:
    """All complex roots of an integer polynomial whose nonzero roots
    are simple (module docstring).

    Roots are returned sorted by decreasing modulus (ties by real part,
    then imaginary part).  Zero roots are split off exactly beforehand,
    with their multiplicity.  Raises NumericError if the iteration does
    not converge or fails to meet the residual bound
    ``1e-12 * (1 + |z|)**degree``.
    """
    return _roots_and_residuals(poly)[0]


def _roots_and_residuals(poly: IntPolynomial) -> tuple[tuple[complex, ...], tuple[float, ...]]:
    """``find_roots`` together with the residual ``root_residual(poly, z)``
    of each root, which the bound check has already computed."""
    if poly.is_zero:
        raise ParameterError("the zero polynomial has no well-defined roots")
    reduced, zero_mult = poly.strip_zero_roots()
    table = _run_table(poly)
    roots: list[complex] = [0j] * zero_mult
    if reduced.degree >= 1:
        roots.extend(_aberth(reduced, _run_table(reduced) if zero_mult else table))
    roots.sort(key=_sort_key)
    full_degree = poly.degree
    runs, last = table
    residuals = []
    for z in roots:
        res = abs(_horner_pair(runs, last, z)[0])
        if res > residual_bound(full_degree, z):
            raise NumericError(
                f"root residual {res:.3e} exceeds bound at z={z!r} "
                f"for {poly!r}"
            )
        residuals.append(res)
    return tuple(roots), tuple(residuals)


def _aberth(poly: IntPolynomial, table: _RunTable) -> list[complex]:
    """The roots of a squarefree p of degree >= 1, from its run table
    ``table``."""
    degree = poly.degree
    runs, last = table
    lead = runs[0][0]
    # the Cauchy bound: the zero coefficients, absent from the table, add nothing
    radius = 1.0 + max([abs(c / lead) for c, _, _ in runs[1:]] + [abs(last / lead)])
    offset = math.pi / (2.0 * degree)
    z = [
        radius * cmath.exp(1j * (2.0 * math.pi * k / degree + offset))
        for k in range(degree)
    ]
    one = _ONE
    for _ in range(_ABERTH_MAX_ITER):
        biggest = 0.0
        for i in range(degree):
            zi = z[i]
            p, dp = _horner_pair(runs, last, zi)
            if p == 0:
                continue
            if dp == 0:
                # nudge off a critical point, deterministically
                z[i] = zi + 1e-8 * (1 + 1j)
                biggest = math.inf
                continue
            ratio = p / dp
            # Gauss-Seidel: z[:i] already holds this sweep's updates.  One
            # running sum from int 0 in index order; every entry of z is
            # its own object, so the identity test skips entry i alone
            rep = 0
            for w in z:
                if w is not zi:
                    rep += one / (zi - w)
            denom = 1.0 - ratio * rep
            step = ratio if denom == 0 else ratio / denom
            zi = z[i] = zi - step
            rel = abs(step) / (1.0 + abs(zi))
            if rel > biggest:
                biggest = rel
        if biggest < _ABERTH_STEP_TOL:
            break
    else:
        raise NumericError(
            f"Aberth iteration did not converge in {_ABERTH_MAX_ITER} steps "
            f"for {poly!r} (last relative step {biggest:.3e})"
        )
    # independent Newton polish per root
    for i in range(degree):
        zi = z[i]
        for _ in range(_NEWTON_STEPS):
            p, dp = _horner_pair(runs, last, zi)
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
    output order.  Pair mirror roots greedily, each with the first of
    the nearest, and symmetrize them.
    """
    out: list[complex] = []
    pool = list(roots)
    while pool:
        z = pool.pop()
        if abs(z.imag) <= 1e-10 * (1.0 + abs(z.real)):
            out.append(complex(z.real, 0.0))
            continue
        mirror = z.conjugate()
        gaps = [abs(w - mirror) for w in pool]
        gap = min(gaps, default=math.inf)
        if gap <= 1e-8 * (1.0 + abs(z)):
            w = pool.pop(gaps.index(gap))
            re = 0.5 * (z.real + w.real)
            im = 0.5 * (abs(z.imag) + abs(w.imag))
            out.append(complex(re, im))
            out.append(complex(re, -im))
        else:
            out.append(z)
    return out

"""Acceptance gate: ten headline behaviors, one printed verdict each.

Every test prints a single PASS or FAIL line directly on the terminal
(bypassing capture), so a full run ends with a ten-line scoreboard.
The checks pin the classification surveys, the exact covering identity,
the Pisot constants, the boundary case, the counting consistency, the
discrepancy growth dichotomy, the eigenvector criterion, the
three-interval families and the point-set metric axioms, with explicit
tolerances and runtime budgets.
"""
import math
import random
import time

import numpy as np
import pytest

from kakutani import (
    Commensurable,
    build_rho,
    classify_spreadness,
    discrepancy_scan,
    dyadic_windows,
    generate_patch,
    growth_fit,
    solve_alpha,
)
from kakutani.cover import (
    build_three_interval_rule,
    char_poly,
    iterate_primitive,
    substitution_matrix,
    verify_cover,
)
from kakutani.engine import count_tiles, delone_points
from kakutani.geometry import PointSet
from kakutani.polynomials import IntPolynomial
from kakutani.rootfind import find_roots
from kakutani.spectral import (
    SpreadClass,
    classify_three_interval,
    eigenspace_not_perp,
    f_alpha_poly,
    solomon_verdict,
    survey,
)

from conftest import bisect_root, chabauty_fell_distance, coprime_pairs, tile_counts

SPREAD_PAIRS = {(1, 1), (2, 1), (3, 1), (3, 2), (4, 1)}


@pytest.fixture
def announce(capfd):
    """Print one scoreboard line on the real terminal, past the capture."""

    def emit(index: int, ok: bool, detail: str) -> None:
        status = "PASS" if ok else "FAIL"
        with capfd.disabled():
            print(f"[acceptance {index:2d}] {status} {detail}", flush=True)

    return emit


def test_01_survey_recovers_the_five_spread_ratios(announce):
    start = time.perf_counter()
    rows = survey(12)
    elapsed = time.perf_counter() - start
    spread = {(r.n, r.m) for r in rows if r.solomon is SpreadClass.SPREAD}
    ok = spread == SPREAD_PAIRS and len(rows) == 46 and elapsed < 10.0
    announce(
        1,
        ok,
        f"survey(12): spread set {sorted(spread)} in {elapsed:.2f}s",
    )
    assert spread == SPREAD_PAIRS
    assert len(rows) == 46
    assert elapsed < 10.0


def test_02_characteristic_polynomial_closed_form(announce):
    failures = []
    for n, m in coprime_pairs(10):
        got = char_poly(substitution_matrix(build_rho(n, m)))
        want = IntPolynomial.from_terms({n + m - 1: 1, m - 1: -1, n - 1: -1})
        if got != want:
            failures.append((n, m))
    ok = not failures
    announce(
        2,
        ok,
        f"char poly x^(n+m-1) - x^(m-1) - x^(n-1) exact for "
        f"{len(coprime_pairs(10))} pairs",
    )
    assert not failures


def test_03_cover_identity_exact(announce):
    start = time.perf_counter()
    failures = []
    for n, m in coprime_pairs(6):
        for ell in range(0, 13):
            report = verify_cover(n, m, ell)
            if not report.ok:
                failures.append((n, m, ell))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    announce(
        3,
        ok,
        f"fixed-scale patch equals multiscale patch, all coprime n <= 6, "
        f"ell <= 12, in {elapsed:.2f}s",
    )
    assert not failures
    assert elapsed < 60.0


def test_04_pisot_constants_and_alphas(announce):
    oracles = {
        (2, 1): bisect_root(lambda x: x * x - x - 1, 1.0, 2.0),
        (3, 2): bisect_root(lambda x: x**3 - x - 1, 1.0, 2.0),
        (3, 1): bisect_root(lambda x: x**3 - x * x - 1, 1.0, 2.0),
        (4, 1): bisect_root(lambda x: x**4 - x**3 - 1, 1.0, 2.0),
    }
    printed = {
        (3, 2): 0.43016,
        (2, 1): 0.38196,
        (3, 1): 0.31767,
        (4, 1): 0.27551,
    }
    worst_lambda = 0.0
    worst_alpha = 0.0
    for pair, oracle in oracles.items():
        verdict = classify_spreadness(Commensurable(*pair))
        assert verdict.spectral is not None
        worst_lambda = max(worst_lambda, abs(verdict.spectral.lambda1 - oracle))
        worst_alpha = max(worst_alpha, abs(verdict.alpha - printed[pair]))
    ok = worst_lambda <= 1e-9 and worst_alpha <= 1e-5
    announce(
        4,
        ok,
        f"Pisot lambda1 within {worst_lambda:.1e} of bisection, "
        f"alpha within {worst_alpha:.1e} of the five-digit values",
    )
    assert worst_lambda <= 1e-9
    assert worst_alpha <= 1e-5


def test_05_boundary_ratio_five(announce):
    f = f_alpha_poly(5, 1)
    quotient, remainder = divmod(f, IntPolynomial((1, -1, 1)))
    division_ok = remainder.is_zero and quotient == IntPolynomial((-1, -1, 0, 1))
    verdict = classify_spreadness(Commensurable(5, 1))
    verdict_ok = (
        verdict.spread_class is SpreadClass.BOUNDARY
        and verdict.spread_class is not SpreadClass.SPREAD
    )
    ok = division_ok and verdict_ok
    announce(
        5,
        ok,
        "x^5 - x^4 - 1 = (x^2 - x + 1)(x^3 - x - 1) exactly, "
        f"ratio 5 classified {verdict.spread_class}",
    )
    assert division_ok
    assert verdict_ok


def test_06_counting_consistency(announce):
    failures = []
    for n, m in coprime_pairs(5):
        rule = build_rho(n, m)
        matrix = substitution_matrix(rule)
        alpha = solve_alpha(n, m)
        g = math.log(1.0 / alpha) / n
        for ell in range(0, 16):
            by_matrix = sum(tile_counts(matrix, ell))
            by_engine = count_tiles(alpha, ell * g)
            by_patch = len(iterate_primitive(rule, ell))
            if not (by_matrix == by_engine == by_patch):
                failures.append((n, m, ell, by_matrix, by_engine, by_patch))
    ok = not failures
    announce(
        6,
        ok,
        "matrix powers, the counting engine and materialized patches "
        "agree, all coprime n <= 5, ell <= 15",
    )
    assert not failures


def test_07_discrepancy_growth_dichotomy(announce):
    start = time.perf_counter()
    windows = dyadic_windows(4, 24)

    # bounded deviation for two spread ratios, with frozen maxima; the
    # creeping maximum can make a near-zero power exponent fit a hair
    # better than a constant, so bounded means "not W/logW and flat"
    spread_golden = {(2, 1): (35, 1.2763932106319247), (3, 2): (60, 1.621657537232739)}
    bounded_ok = True
    for (n, m), (ell, golden) in spread_golden.items():
        alpha = solve_alpha(n, m)
        t = ell * math.log(1.0 / alpha) / n
        series = discrepancy_scan(alpha, t, windows, ratio=Commensurable(n, m))
        fit = growth_fit(series)
        bounded_ok = (
            bounded_ok
            and abs(series.max_disc[-1] - golden) <= 1e-9
            and fit.best != "w_over_log_w"
            and abs(fit.exponent) < 0.05
        )

    # power-law growth for a ratio outside the five, exponent matching
    # the eigenvalue prediction log|lambda2| / log(lambda1)
    alpha = solve_alpha(7, 3)
    t = 114 * math.log(1.0 / alpha) / 7
    series = discrepancy_scan(alpha, t, windows, ratio=Commensurable(7, 3))
    growth_ratio = series.max_disc[-1] / series.max_disc[8]  # 2^24 over 2^12
    fit = growth_fit(series)
    report = solomon_verdict(build_rho(7, 3).loops)
    predicted = math.log(report.lambda2_modulus) / math.log(report.lambda1)
    power_ok = (
        growth_ratio > 10.0
        and fit.best == "power"
        and fit.exponent is not None
        and abs(fit.exponent - predicted) <= 0.1
    )

    # window/log(window) growth for an incommensurable parameter: the
    # fixed W/logW shape must beat even the two-parameter power law,
    # and beat the bounded model by an order of magnitude
    series = discrepancy_scan(1.0 / 3.0, 24.0 * math.log(2.0), windows)
    fit = growth_fit(series)
    margin = fit.residuals["constant"] / fit.residuals["w_over_log_w"]
    unbounded_ok = fit.best == "w_over_log_w" and margin > 10.0

    elapsed = time.perf_counter() - start
    ok = bounded_ok and power_ok and unbounded_ok and elapsed < 300.0
    announce(
        7,
        ok,
        f"dichotomy: spread bounded, ratio 7/3 power growth "
        f"(x{growth_ratio:.0f}), alpha=1/3 W/logW (margin {margin:.0f}), "
        f"in {elapsed:.2f}s",
    )
    assert bounded_ok
    assert power_ok
    assert unbounded_ok
    assert elapsed < 300.0


def test_08_eigenvector_criterion_never_degenerate(announce):
    failures = []
    for n, m in coprime_pairs(10):
        matrix = substitution_matrix(build_rho(n, m))
        for z in find_roots(f_alpha_poly(n, m)):
            if not eigenspace_not_perp(matrix, z):
                failures.append((n, m, z))
    ok = not failures
    announce(
        8,
        ok,
        "every nonzero eigenvalue sees the all-ones vector, "
        "all coprime n <= 10",
    )
    assert not failures


def test_09_three_interval_pisot_families(announce):
    silver = classify_three_interval(2, 1, 1)
    tribonacci = classify_three_interval(3, 2, 1)
    member_ok = (
        silver.pv_member
        and silver.spread_class is SpreadClass.SPREAD
        and tribonacci.pv_member
        and tribonacci.spread_class is SpreadClass.SPREAD
    )

    def spectra_match(report, coeffs):
        oracle = sorted(np.roots(coeffs), key=lambda z: (-abs(z), z.real, z.imag))
        got = sorted(report.roots, key=lambda z: (-abs(z), z.real, z.imag))
        if len(oracle) != len(got):
            return False
        return all(abs(a - b) <= 1e-9 for a, b in zip(got, oracle))

    # numpy's companion-matrix roots are the independent oracle here
    silver_ok = spectra_match(silver.spectral, [1, -2, -1])
    tribonacci_ok = spectra_match(tribonacci.spectral, [1, -1, -1, -1])
    ok = member_ok and silver_ok and tribonacci_ok
    announce(
        9,
        ok,
        "loops (2,1,1) and (3,2,1) in the Pisot families with spectra "
        "matching x^2 - 2x - 1 and x^3 - x^2 - x - 1 to 1e-9",
    )
    assert member_ok
    assert silver_ok
    assert tribonacci_ok


def test_10_point_set_metric_axioms(announce):
    rng = random.Random(20250817)

    def random_set():
        size = rng.randint(1, 18)
        pts = (rng.uniform(-5.0, 5.0) for _ in range(size))
        return PointSet.from_iterable(pts, window=(-6.0, 6.0))

    pool = [random_set() for _ in range(80)]
    for t in (1.5, 2.2, 3.0):
        patch = generate_patch(0.4, t)
        pool.append(delone_points(patch))

    identity_ok = all(chabauty_fell_distance(s, s) == 0.0 for s in pool)
    worst_triangle = 0.0
    symmetry_ok = True
    for _ in range(1000):
        a, b, c = (rng.choice(pool) for _ in range(3))
        dab = chabauty_fell_distance(a, b)
        dbc = chabauty_fell_distance(b, c)
        dac = chabauty_fell_distance(a, c)
        symmetry_ok = symmetry_ok and dab == chabauty_fell_distance(b, a)
        worst_triangle = max(worst_triangle, dac - (dab + dbc))
    triangle_ok = worst_triangle <= 1e-12
    ok = identity_ok and symmetry_ok and triangle_ok
    announce(
        10,
        ok,
        f"metric axioms on 1000 random triples, worst triangle slack "
        f"{worst_triangle:.1e}",
    )
    assert identity_ok
    assert symmetry_ok
    assert triangle_ok

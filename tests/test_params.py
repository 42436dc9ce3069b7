import hashlib
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kakutani import Commensurable, ParameterError, params, solve_alpha
from kakutani.cover import build_rho
from kakutani.engine import count_tiles_commensurable
from kakutani.params import (
    Incommensurable,
    check_alpha,
    detect_commensurability,
    r_of_alpha,
)

from conftest import alpha_oracle, coprime_pairs, coprime_triples

#: sha256 of ``solve_alpha(n, m).hex()``, one per line, over every coprime
#: pair 1 <= m <= n <= 100 in (n, m) order, recorded before the two-loop
#: and the three-loop bisections were merged into one.
ALPHA_DIGEST = "b5a7fedf3571e48ba26f9914b1f4de14b4b2f95229d7237ea84c8ff87f667b22"


#: sha256 of ``_loop_alpha(loops).hex()``, one per line, recorded before
#: the bisection skipped its far steps: over every three-loop rule with
#: n <= 24 (``coprime_triples(24)``) and over ``large_pairs()``.
TRIPLE_ALPHA_DIGEST = "19d731971bacd19e0699d826ba621a090e20f1ad7ffc710bbd6337cc1c5b143f"
LARGE_ALPHA_DIGEST = "5c6617880c130841e3fd3db58fab52ae4402feacc548ff549b062cef2076bdfc"
#: The same over ``coprime_quads(12)``, recorded before the bisection
#: started from the window itself.
QUAD_ALPHA_DIGEST = "8b4924d1e2f764516822b145a65a3b025da60fa2656be4f538927b6e380ee913"


def large_pairs():
    """The coprime n/m with 101 <= n <= 450 and m in {1, 2, n//2 + 1, n - 1}."""
    for n in range(101, 451):
        for m in sorted({1, 2, n // 2 + 1, n - 1}):
            if math.gcd(n, m) == 1:
                yield n, m


def coprime_quads(max_n):
    """Loop counts of every four-loop flower with c_1 <= max_n:
    c_1 >= c_2 >= c_3 >= c_4 >= 1, gcd = 1, not all equal."""
    return [
        (n, m, k, j)
        for n in range(2, max_n + 1)
        for m in range(1, n + 1)
        for k in range(1, m + 1)
        for j in range(1, k + 1)
        if math.gcd(math.gcd(n, m), math.gcd(k, j)) == 1 and not n == m == k == j
    ]


def loop_alpha_digest(tuples):
    digest = hashlib.sha256()
    for loops in tuples:
        digest.update(params._loop_alpha(loops).hex().encode() + b"\n")
    return digest.hexdigest()


class CountingMath:
    """``math`` that counts its log1p calls: one per evaluation of the gap
    of ``_loop_alpha``, the last step of ``_alpha_estimate`` included."""

    def __init__(self):
        self.gaps = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def log1p(self, x):
        self.gaps += 1
        return math.log1p(x)


def gap_evaluations(monkeypatch, tuples):
    """The alpha of each loop tuple and the gap evaluations it took."""
    counter = CountingMath()
    monkeypatch.setattr(params, "math", counter)
    result = []
    for loops in tuples:
        counter.gaps = 0
        result.append((params._loop_alpha(loops), counter.gaps))
    return result


class TestAlphaParam:
    """``check_alpha``, the one validation of the splitting ratio."""

    def test_accepts_half(self):
        check_alpha(0.5)

    @pytest.mark.parametrize("bad", [0.0, -0.1, 0.5 + 1e-9, 1.0, float("nan")])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ParameterError, match=r"alpha must lie in \(0, 1/2\], got"):
            check_alpha(bad)

    @pytest.mark.parametrize("tiny", [3e-306, 1e-310, 5e-324])
    def test_rejects_an_alpha_whose_ratio_overflows(self, tiny):
        # r = log(alpha) / log(1 - alpha) is about 703 / alpha here
        with pytest.raises(ParameterError, match="overflows a float"):
            check_alpha(tiny)

    def test_accepts_the_least_alphas_with_a_finite_ratio(self):
        for alpha in (3.92e-306, 4e-306):
            check_alpha(alpha)
            assert math.isfinite(r_of_alpha(alpha))


class TestCommensurable:
    @pytest.mark.parametrize("n,m", [(4, 2), (6, 3), (0, 1), (2, 3), (1, 0)])
    def test_rejects_bad_pairs(self, n, m):
        with pytest.raises(ParameterError):
            Commensurable(n, m)

    def test_rejects_non_integers(self):
        for n, m in [(2.0, 1), (3, "2"), (None, 1)]:
            with pytest.raises(ParameterError, match="need integers n and m"):
                Commensurable(n, m)

    @pytest.mark.parametrize(
        "call",
        [solve_alpha, params.f_alpha_poly, build_rho, lambda n, m: count_tiles_commensurable(n, m, 3)],
        ids=["solve_alpha", "f_alpha_poly", "build_rho", "count_tiles_commensurable"],
    )
    def test_every_pair_entry_point_has_its_messages(self, call):
        # one validator: each refuses a pair as Commensurable does
        for n, m in [(4, 2), (2, 3), (0, 1), (2.0, 1)]:
            with pytest.raises(ParameterError) as want:
                Commensurable(n, m)
            with pytest.raises(ParameterError, match=re.escape(str(want.value))):
                call(n, m)


class TestSolveAlpha:
    def test_lattice_value(self):
        assert solve_alpha(1, 1) == 0.5

    @pytest.mark.parametrize("n,m", coprime_pairs(8))
    def test_matches_bisection_oracle(self, n, m):
        assert solve_alpha(n, m) == pytest.approx(alpha_oracle(n, m), abs=1e-14)

    @pytest.mark.parametrize("n,m", coprime_pairs(8))
    def test_defining_equation(self, n, m):
        a = solve_alpha(n, m)
        assert a**m == pytest.approx((1 - a) ** n, rel=1e-12)

    @pytest.mark.parametrize("n,m", [(700, 1), (1501, 1500), (200000, 199999)])
    def test_defining_equation_large_exponents(self, n, m):
        # alpha**m underflows here, so the equation is checked in logs
        a = solve_alpha(n, m)
        assert m * math.log(a) == pytest.approx(n * math.log1p(-a), rel=1e-12)

    def test_bits_pinned(self):
        digest = hashlib.sha256()
        for n in range(1, 101):
            for m in range(1, n + 1):
                if math.gcd(n, m) == 1:
                    digest.update(solve_alpha(n, m).hex().encode() + b"\n")
        assert digest.hexdigest() == ALPHA_DIGEST

    def test_three_loop_and_large_ratio_bits_pinned(self):
        triples = coprime_triples(24)
        assert len(triples) == 2105
        assert loop_alpha_digest(triples) == TRIPLE_ALPHA_DIGEST
        pairs = list(large_pairs())
        assert len(pairs) == 1137
        assert loop_alpha_digest(pairs) == LARGE_ALPHA_DIGEST

    def test_four_loop_bits_pinned(self):
        quads = coprime_quads(12)
        assert len(quads) == 1202
        assert loop_alpha_digest(quads) == QUAD_ALPHA_DIGEST

    @pytest.mark.parametrize("shift", [1.0 + 2.0**-40, 1.0 - 2.0**-40, math.nan, 0.75])
    def test_full_bisection_when_an_edge_check_fails(self, monkeypatch, shift):
        tuples = coprime_pairs(30) + coprime_triples(8)
        want = [params._loop_alpha(loops) for loops in tuples]
        estimate = params._alpha_estimate
        monkeypatch.setattr(params, "_alpha_estimate", lambda loops: estimate(loops) * shift)
        found = gap_evaluations(monkeypatch, tuples)
        assert [alpha for alpha, _ in found] == want
        # every window missed the root: [ulp(0), 1/2] was halved at least
        # 53 times, down to the one ulp of an alpha below 1/2
        assert min(gaps for _, gaps in found) >= 53

    def test_far_steps_skipped(self, monkeypatch):
        # the estimate lands in its window for every ratio up to 450: its
        # own step, the two edges and at most eight halvings of a window
        # 2**-45 x wide, below 2**8 ulps of x
        found = gap_evaluations(monkeypatch, coprime_pairs(450))
        assert max(gaps for _, gaps in found) <= 11

    def test_printed_decimals(self, printed_alphas):
        for (n, m), printed in printed_alphas.items():
            assert abs(solve_alpha(n, m) - printed) < 1e-5

    def test_monotone_in_ratio(self):
        # larger r = n/m pushes the split toward zero
        values = [solve_alpha(n, 1) for n in range(1, 9)]
        assert values == sorted(values, reverse=True)


class TestRatioDetection:
    def test_golden_alpha_detected(self):
        ratio = detect_commensurability(solve_alpha(2, 1), 64)
        assert ratio == Commensurable(2, 1)

    def test_one_third_is_incommensurable(self):
        ratio = detect_commensurability(1.0 / 3.0, 100)
        assert isinstance(ratio, Incommensurable)
        assert ratio.r == pytest.approx(math.log(3) / math.log(1.5))

    def test_half_is_lattice(self):
        assert detect_commensurability(0.5, 64) == Commensurable(1, 1)

    def test_r_of_alpha_examples(self):
        assert r_of_alpha(0.5) == pytest.approx(1.0)
        assert r_of_alpha(solve_alpha(3, 2)) == pytest.approx(1.5, abs=1e-12)

    @pytest.mark.parametrize("n,m", coprime_pairs(7))
    def test_round_trip(self, n, m):
        assert detect_commensurability(solve_alpha(n, m), 64) == Commensurable(n, m)

    def test_denominator_cap_respected(self):
        # the pair (9, 2) needs denominator 2, beyond a cap of 1
        alpha = solve_alpha(9, 2)
        assert isinstance(detect_commensurability(alpha, 1), Incommensurable)
        assert detect_commensurability(alpha, 2) == Commensurable(9, 2)


class TestDefect:
    """The defect |m*r - n| plus its rounding bound, against one tolerance."""

    def test_round_trip_up_to_the_degree_limit(self):
        # every coprime n/m with n up to MAX_SPECTRAL_DEGREE and m up to 64
        for n in range(1, 451):
            for m in range(1, min(n, 64) + 1):
                if math.gcd(n, m) == 1:
                    assert detect_commensurability(solve_alpha(n, m), 64) == Commensurable(n, m)

    @pytest.mark.parametrize("low,high", [(1e-12, 1e-10), (1e-10, 1e-8)])
    def test_small_alphas_are_incommensurable(self, low, high):
        # the log defect shrinks with alpha and passed nearly all of these
        rng = random.Random(f"small:{low}")
        for _ in range(100):
            alpha = rng.uniform(low, high)
            ratio = detect_commensurability(alpha, 64)
            assert ratio == Incommensurable(r_of_alpha(alpha))

    @pytest.mark.parametrize("alpha", [1e-100, 1e-15, 4e-306, 2.8e-4])
    def test_a_ratio_past_the_rounding_bound_is_incommensurable(self, alpha):
        # past 2**53, r is an integer float and n = r, m = 1 has defect 0
        assert isinstance(detect_commensurability(alpha, 64), Incommensurable)

    def test_the_rounding_bound_alone_refuses_n_past_28147(self):
        # 28148 * 2**-48 is above the tolerance, whatever the defect
        assert 28147 * 2.0**-48 < params._COMMENSURABLE_TOLERANCE <= 28148 * 2.0**-48
        assert isinstance(detect_commensurability(solve_alpha(28148, 1), 64), Incommensurable)


@given(
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=1, max_value=9),
)
@settings(max_examples=60, deadline=None)
def test_solve_alpha_in_range(n, m):
    if math.gcd(n, m) != 1 or m > n:
        return
    a = solve_alpha(n, m)
    assert 0.0 < a <= 0.5


@given(st.floats(min_value=0.01, max_value=0.5))
@settings(max_examples=80, deadline=None)
def test_r_of_alpha_at_least_one(alpha):
    assert r_of_alpha(alpha) >= 1.0 - 1e-12

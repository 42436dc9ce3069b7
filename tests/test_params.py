import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kakutani import Commensurable, ParameterError, solve_alpha
from kakutani.params import (
    Incommensurable,
    check_alpha,
    detect_commensurability,
    r_of_alpha,
)

from conftest import alpha_oracle, coprime_pairs

#: sha256 of ``solve_alpha(n, m).hex()``, one per line, over every coprime
#: pair 1 <= m <= n <= 100 in (n, m) order, recorded before the two-loop
#: and the three-loop bisections were merged into one.
ALPHA_DIGEST = "b5a7fedf3571e48ba26f9914b1f4de14b4b2f95229d7237ea84c8ff87f667b22"


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

import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kakutani import (
    Commensurable,
    ParameterError,
    ResourceLimitError,
    build_rho,
    classify_spreadness,
    solve_alpha,
)
from kakutani.cli import main
from kakutani.cover import build_three_interval_rule, substitution_matrix
from kakutani.params import Incommensurable, r_of_alpha
from kakutani.polynomials import IntPolynomial, cyclotomic, loop_polynomial
from kakutani.rootfind import find_roots, residual_bound
from kakutani.spectral import (
    MAX_SPECTRAL_DEGREE,
    SPREAD_RATIOS,
    classify_three_interval,
    eigenspace_not_perp,
    is_pv_three_interval,
    solomon_verdict,
    survey,
    unit_circle_factors,
)
from kakutani.spectral import Rationale, SpectralReport, SpreadClass

from conftest import (
    bisect_root,
    coprime_pairs,
    coprime_triples,
    multiply,
    quadratic_roots,
)

PV_PAIRS = {(2, 1), (3, 2), (3, 1), (4, 1)}
SIXTH_ROOT_PAIRS = {(5, 1), (7, 5), (11, 1), (11, 7)}


def omega_power(j):
    """Exact omega**j in Z[omega] for a primitive sixth root of unity.

    Returns (a, b) meaning a + b*omega, using the relation
    omega**2 = omega - 1.
    """
    a, b = 1, 0
    for _ in range(j % 6):
        # (a + b*omega) * omega = a*omega + b*(omega - 1)
        a, b = -b, a + b
    return a, b


def trinomial_kills_sixth_root(n, m):
    """Exact test of x**n - x**(n-m) - 1 = 0 at the sixth root of unity."""
    an, bn = omega_power(n)
    ak, bk = omega_power(n - m)
    return (an - ak, bn - bk) == (1, 0)


class TestSpectrumPolynomial:
    def test_examples(self):
        assert loop_polynomial(2, (2, 1)).coeffs == (-1, -1, 1)
        assert loop_polynomial(3, (3, 2)).coeffs == (-1, -1, 0, 1)
        assert loop_polynomial(5, (5, 1)).coeffs == (-1, 0, 0, 0, -1, 1)


class TestUnitCircleFactors:
    def test_known_factorization(self):
        # x^5 - x^4 - 1 = (x^2 - x + 1)(x^3 - x - 1), checked by
        # convolving the factors back together
        phi6 = (1, -1, 1)
        plastic = (-1, -1, 0, 1)
        product = [0] * (len(phi6) + len(plastic) - 1)
        for i, a in enumerate(phi6):
            for j, b in enumerate(plastic):
                product[i + j] += a * b
        assert tuple(product) == loop_polynomial(5, (5, 1)).coeffs

        factors = unit_circle_factors(loop_polynomial(5, (5, 1)))
        assert factors == (cyclotomic(6),)
        quotient, remainder = divmod(loop_polynomial(5, (5, 1)), factors[0])
        assert remainder.is_zero
        assert quotient.coeffs == plastic

    def test_factor_set_matches_sixth_root_oracle(self):
        for n, m in coprime_pairs(12):
            got = bool(unit_circle_factors(loop_polynomial(n, (n, m))))
            assert got == trinomial_kills_sixth_root(n, m), (n, m)

    def test_factor_pairs_up_to_twelve(self):
        found = {
            (n, m)
            for n, m in coprime_pairs(12)
            if unit_circle_factors(loop_polynomial(n, (n, m)))
        }
        assert found == SIXTH_ROOT_PAIRS

    def test_full_sweep_for_other_shapes(self):
        # x^4 - x^3 - x^2 - 1 vanishes at -1; the quadrinomial shape
        # triggers the full cyclotomic sweep, which finds x + 1
        poly = IntPolynomial.from_terms({4: 1, 3: -1, 2: -1, 0: -1})
        assert cyclotomic(2) in unit_circle_factors(poly)
        # x^4 - x^3 - x - 1 = (x^2 + 1)(x^2 - x - 1) has the order-4 factor
        other = IntPolynomial.from_terms({4: 1, 3: -1, 1: -1, 0: -1})
        assert cyclotomic(4) in unit_circle_factors(other)

    def test_folded_sweep_matches_full_division(self):
        # the sweep divides p mod x^k - 1; the oracle divides p itself.
        # A cyclotomic factor of degree at most 16 has order at most 60,
        # so on the three-loop rules to n = 16 the oracle finds every one
        def divided(poly):
            return tuple(
                phi
                for phi in map(cyclotomic, range(1, 61))
                if phi.degree <= poly.degree and divmod(poly, phi)[1].is_zero
            )

        polys = [
            build_three_interval_rule(*loops).polynomial
            for loops in coprime_triples(16)
        ]
        polys += [
            multiply(multiply(cyclotomic(a), cyclotomic(b)), loop_polynomial(3, (3, 2)))
            for a in (1, 2, 4, 12, 30)
            for b in (3, 5, 7, 60)
        ]
        for poly in polys:
            assert unit_circle_factors(poly) == divided(poly), poly

    def test_sixth_root_test_matches_division(self):
        # the trinomials are tested at omega by their exponents mod 6; the
        # oracle divides each by x^2 - x + 1
        phi6 = cyclotomic(6)
        for n in range(2, 201):
            for k in range(1, n):
                poly = IntPolynomial.from_terms({n: 1, k: -1, 0: -1})
                want = (phi6,) if divmod(poly, phi6)[1].is_zero else ()
                assert unit_circle_factors(poly) == want, (n, k)

    @pytest.mark.parametrize("j", range(5))
    def test_three_loop_factor_past_order_sixty(self, j):
        # at a root of Phi_64, x^32 = -1, so x^(63 - 2j) = -x^(31 - 2j)
        # and x^64 - x^(63 - 2j) - x^(31 - 2j) - 1 vanishes there
        loops = (64, 33 + 2 * j, 1 + 2 * j)
        assert cyclotomic(64) in unit_circle_factors(build_three_interval_rule(*loops).polynomial)
        verdict = classify_three_interval(*loops)
        assert verdict.spectral.has_unit_modulus_eigenvalue
        assert verdict.spectral.solomon is SpreadClass.NOT_SPREAD

    def test_cyclotomic_detects_itself(self):
        assert unit_circle_factors(cyclotomic(5)) == (cyclotomic(5),)

    def test_pisot_trinomials_have_none(self):
        for n, m in PV_PAIRS:
            assert not unit_circle_factors(loop_polynomial(n, (n, m)))

    def test_rejects_zero(self):
        with pytest.raises(ParameterError):
            unit_circle_factors(IntPolynomial.zero())


class TestPisotMembership:
    def test_trinomial_exact_set(self):
        # the nontrivial spread ratios are the Pisot trinomials' pairs
        for n, m in coprime_pairs(12):
            assert ((n, m) in SPREAD_RATIOS) == ((n, m) in PV_PAIRS), (n, m)

    def test_lattice_is_not_pisot_trinomial(self):
        # ratio 1 is spread as a lattice, with no trinomial to be Pisot
        verdict = classify_spreadness(Commensurable(1, 1))
        assert verdict.theorem_verdict and not verdict.mismatch
        assert verdict.rationale is Rationale.LATTICE

    def test_three_interval_members(self):
        silver = IntPolynomial.from_terms({2: 1, 1: -2, 0: -1})
        tribonacci = IntPolynomial.from_terms({3: 1, 2: -1, 1: -1, 0: -1})
        sporadic = IntPolynomial.from_terms({5: 1, 4: -1, 2: -1, 0: -1})
        deep = IntPolynomial.from_terms({7: 1, 6: -2, 0: -1})
        for poly in (silver, tribonacci, sporadic, deep):
            assert is_pv_three_interval(poly)

    def test_first_line_member(self):
        # x^d - 2x^(d-1) - 1 at d = 1 is x - 3, whose root 3 is Pisot
        assert is_pv_three_interval(IntPolynomial((-3, 1)))
        assert not is_pv_three_interval(IntPolynomial((-1, 1)))

    def test_three_interval_non_members(self):
        quartic = IntPolynomial.from_terms({4: 1, 3: -1, 2: -1, 0: -1})
        golden = IntPolynomial.from_terms({2: 1, 1: -1, 0: -1})
        even_line = IntPolynomial.from_terms({4: 1, 3: -1, 2: -1, 0: -1})
        assert not is_pv_three_interval(quartic)
        assert not is_pv_three_interval(golden)
        assert not is_pv_three_interval(even_line)


class TestEigenspaceTest:
    def test_golden_pair_both_eigenvalues(self):
        matrix = substitution_matrix(build_rho(2, 1))
        phi, conjugate = quadratic_roots(-1, -1)
        assert eigenspace_not_perp(matrix, complex(phi))
        assert eigenspace_not_perp(matrix, complex(conjugate))

    def test_rejects_non_eigenvalue(self):
        matrix = substitution_matrix(build_rho(2, 1))
        with pytest.raises(ParameterError):
            eigenspace_not_perp(matrix, complex(3.0))

    @pytest.mark.parametrize("pair", coprime_pairs(8))
    def test_every_nonzero_eigenvalue_passes(self, pair):
        n, m = pair
        matrix = substitution_matrix(build_rho(n, m))
        for z in find_roots(loop_polynomial(n, (n, m))):
            assert eigenspace_not_perp(matrix, z), (n, m, z)


class TestSolomonVerdict:
    def test_golden_pair(self):
        report = solomon_verdict(build_rho(2, 1).loops)
        phi = (1.0 + math.sqrt(5.0)) / 2.0
        assert report.solomon is SpreadClass.SPREAD
        assert report.ell == 2
        assert report.lambda1 == pytest.approx(phi, abs=1e-12)
        assert report.lambda2_modulus == pytest.approx(phi - 1.0, abs=1e-12)
        assert not report.has_unit_modulus_eigenvalue
        assert not report.unresolved

    def test_plastic_pair(self):
        report = solomon_verdict(build_rho(3, 2).loops)
        plastic = bisect_root(lambda x: x**3 - x - 1, 1.0, 2.0)
        assert report.solomon is SpreadClass.SPREAD
        assert report.lambda1 == pytest.approx(plastic, abs=1e-11)

    def test_not_spread_pair(self):
        report = solomon_verdict(build_rho(5, 2).loops)
        assert report.solomon is SpreadClass.NOT_SPREAD
        assert report.lambda2_modulus > 1.0 + 1e-9

    def test_boundary_pair(self):
        report = solomon_verdict(build_rho(5, 1).loops)
        assert report.solomon is SpreadClass.BOUNDARY
        assert report.has_unit_modulus_eigenvalue
        assert not report.unresolved
        assert report.lambda2_modulus == pytest.approx(1.0, abs=1e-9)

    def test_unresolved_near_unit(self, near_unit_second_root):
        # a watched root within the slack of the unit circle and no exact
        # cyclotomic factor: Boundary, flagged unresolved, never guessed
        report = solomon_verdict((7, 3))
        assert report.solomon is SpreadClass.BOUNDARY
        assert report.unresolved
        assert not report.has_unit_modulus_eigenvalue
        verdict = classify_spreadness(Commensurable(7, 3))
        assert verdict.rationale is Rationale.UNRESOLVED_NEAR_UNIT
        assert not verdict.mismatch

    def test_unit_factor_loses_to_larger_modulus(self):
        # x^12 - x^2 - 1 for (7, 5) also vanishes at the sixth root of
        # unity, but the watched eigenvalue lies strictly outside the
        # unit circle, so the verdict is NotSpread
        report = solomon_verdict(build_rho(7, 5).loops)
        assert report.has_unit_modulus_eigenvalue
        assert report.solomon is SpreadClass.NOT_SPREAD
        assert report.lambda2_modulus > 1.0 + 1e-9

    def test_residuals_are_small(self):
        report = solomon_verdict(build_rho(6, 5).loops)
        degree = len(report.roots)
        for z, res in zip(report.roots, report.residuals):
            assert res <= residual_bound(degree, z)

    def test_roots_sorted_by_modulus(self):
        report = solomon_verdict(build_rho(9, 4).loops)
        mods = [abs(z) for z in report.roots]
        assert all(a >= b - 1e-12 for a, b in zip(mods, mods[1:]))


class TestDegreeBudget:
    """Spectra of degree above MAX_SPECTRAL_DEGREE are refused before any
    root is sought.  The root finder is replaced by one that only reports
    the degree it was handed, so no test here starts a large solve."""

    class Solved(Exception):
        pass

    @pytest.fixture(autouse=True)
    def no_root_solve(self, monkeypatch):
        import kakutani.spectral

        def report(poly):
            raise self.Solved(f"degree {poly.degree}")

        monkeypatch.setattr(kakutani.spectral, "_roots_and_residuals", report)

    def test_limit_is_reached_but_not_passed(self):
        with pytest.raises(self.Solved, match=f"degree {MAX_SPECTRAL_DEGREE}$"):
            solomon_verdict(build_rho(MAX_SPECTRAL_DEGREE, 1).loops)
        with pytest.raises(ResourceLimitError, match="above the limit"):
            solomon_verdict(build_rho(MAX_SPECTRAL_DEGREE + 1, 1).loops)

    def test_refused_before_the_rule_is_built(self, monkeypatch):
        import kakutani.spectral

        def unbuilt(*loops):
            raise AssertionError(f"built a rule for {loops}")

        # no verdict builds a rule: a two-loop one's one step before the
        # roots is the bisection for alpha, a three-loop one's the check
        # of its loops and their polynomial
        monkeypatch.setattr(kakutani.spectral, "solve_alpha", unbuilt)
        monkeypatch.setattr(kakutani.spectral, "check_loop_triple", unbuilt)
        monkeypatch.setattr(kakutani.spectral, "loop_polynomial", unbuilt)
        with pytest.raises(ResourceLimitError):
            classify_spreadness(Commensurable(10**6, 1))
        with pytest.raises(ResourceLimitError):
            classify_three_interval(10**6, 3, 1)

    @pytest.mark.parametrize(
        "args",
        [
            ["classify", "--ratio", f"{MAX_SPECTRAL_DEGREE + 1}/1"],
            ["spectrum", "--ratio", "1000000/3"],
            ["three-interval", "--loops", "1000,3,1"],
        ],
    )
    def test_cli_exit_code(self, capsys, args):
        assert main(args) == 4
        err = capsys.readouterr().err
        assert err.startswith("kakutani: resource limit: a spectrum of degree")

    def test_cli_accepts_301_over_300(self, capsys):
        # the patched root finder is reached: exit 5 names its sentinel
        assert main(["classify", "--ratio", "301/300"]) == 5
        assert "Solved: degree 301" in capsys.readouterr().err


class TestClassify:
    def test_lattice(self):
        verdict = classify_spreadness(Commensurable(1, 1))
        assert verdict.theorem_verdict
        assert verdict.rationale is Rationale.LATTICE
        assert verdict.spread_class is SpreadClass.SPREAD
        assert verdict.alpha == 0.5
        assert not verdict.mismatch
        # two one-edge loops: the spectrum {2}, with nothing to watch
        assert verdict.spectral == SpectralReport(
            lambda1=2.0,
            lambda2_modulus=0.0,
            has_unit_modulus_eigenvalue=False,
            roots=(complex(2.0, 0.0),),
            residuals=(0.0,),
            ell=0,
            solomon=SpreadClass.SPREAD,
        )

    def test_pisot_ratio(self):
        verdict = classify_spreadness(Commensurable(2, 1))
        assert verdict.theorem_verdict
        assert verdict.rationale is Rationale.PV_SPECTRUM
        assert verdict.spread_class is SpreadClass.SPREAD
        assert not verdict.mismatch

    def test_non_pisot_ratio(self):
        verdict = classify_spreadness(Commensurable(7, 3))
        assert not verdict.theorem_verdict
        assert verdict.rationale is Rationale.NON_PV_SPECTRUM
        assert verdict.spread_class is SpreadClass.NOT_SPREAD
        assert not verdict.mismatch

    def test_boundary_ratio(self):
        verdict = classify_spreadness(Commensurable(5, 1))
        assert verdict.spread_class is SpreadClass.BOUNDARY
        assert verdict.rationale is Rationale.UNIT_CIRCLE_FACTOR
        assert not verdict.mismatch

    def test_incommensurable(self):
        verdict = classify_spreadness(Incommensurable(r=r_of_alpha(1.0 / 3.0)), alpha=1.0 / 3.0)
        assert not verdict.theorem_verdict
        assert verdict.rationale is Rationale.INCOMMENSURABLE
        assert verdict.spread_class is SpreadClass.NOT_SPREAD
        assert verdict.spectral is None

    def test_solves_alpha_once(self, monkeypatch):
        import kakutani.cover
        import kakutani.params

        calls = []
        bisection = kakutani.params._loop_alpha

        def counting(loops):
            calls.append(loops)
            return bisection(loops)

        # the one bisection, by name in params (solve_alpha) and in cover
        monkeypatch.setattr(kakutani.params, "_loop_alpha", counting)
        monkeypatch.setattr(kakutani.cover, "_loop_alpha", counting)
        verdict = classify_spreadness(Commensurable(3, 2))
        assert calls == [(3, 2)]
        assert verdict.alpha == solve_alpha(3, 2)
        assert classify_spreadness(Commensurable(3, 2), alpha=0.43).alpha == 0.43

    def test_incommensurable_needs_alpha(self):
        with pytest.raises(ParameterError):
            classify_spreadness(Incommensurable(r=r_of_alpha(1.0 / 3.0)))

    @pytest.mark.parametrize("pair", coprime_pairs(10, min_n=1))
    def test_never_mismatched(self, pair):
        n, m = pair
        assert not classify_spreadness(Commensurable(n, m)).mismatch

    def test_spread_ratio_constant(self):
        assert SPREAD_RATIOS == {(1, 1), (3, 2), (2, 1), (3, 1), (4, 1)}
        assert all(type(ratio) is Commensurable for ratio in SPREAD_RATIOS)
        # a validated pair and a plain tuple are both members
        assert Commensurable(3, 2) in SPREAD_RATIOS and (3, 2) in SPREAD_RATIOS


class TestThreeInterval:
    def test_silver(self):
        verdict = classify_three_interval(2, 1, 1)
        assert verdict.pv_member
        assert verdict.pv_family == "x^d - 2x^(d-1) - 1"
        assert verdict.spread_class is SpreadClass.SPREAD
        assert not verdict.mismatch
        silver = 1.0 + math.sqrt(2.0)
        assert verdict.spectral.lambda1 == pytest.approx(silver, abs=1e-9)

    def test_tribonacci(self):
        verdict = classify_three_interval(3, 2, 1)
        assert verdict.pv_member
        assert verdict.pv_family == "x^d - x^(d-1) - x^(d-2) - 1"
        assert verdict.spread_class is SpreadClass.SPREAD
        tribonacci = bisect_root(lambda x: x**3 - x**2 - x - 1, 1.0, 2.0)
        assert verdict.spectral.lambda1 == pytest.approx(tribonacci, abs=1e-9)

    def test_quartic_boundary(self):
        verdict = classify_three_interval(4, 2, 1)
        assert not verdict.pv_member
        assert verdict.spread_class is SpreadClass.BOUNDARY
        assert not verdict.mismatch

    def test_deep_line_member(self):
        verdict = classify_three_interval(5, 1, 1)
        assert verdict.pv_member
        assert verdict.pv_family == "x^d - 2x^(d-1) - 1"
        assert verdict.spread_class is SpreadClass.SPREAD


    def test_builds_no_rule(self, monkeypatch):
        import kakutani.cover
        import kakutani.params

        def unsolved(loops):
            raise AssertionError(f"solved alpha for {loops}")

        # a rule solves for its alpha, which no verdict reads
        monkeypatch.setattr(kakutani.params, "_loop_alpha", unsolved)
        monkeypatch.setattr(kakutani.cover, "_loop_alpha", unsolved)
        verdict = classify_three_interval(3, 2, 1)
        assert verdict.loops == (3, 2, 1)
        assert verdict.polynomial == IntPolynomial((-1, -1, -1, 1))
        assert verdict.spread_class is SpreadClass.SPREAD

    @pytest.mark.parametrize("loops", [(1, 2, 1), (2, 1, 0), (4, 2, 2), (1, 1, 1), (6, 4, 2)])
    def test_refuses_what_the_rule_refuses(self, loops):
        with pytest.raises(ParameterError) as refused:
            build_three_interval_rule(*loops)
        with pytest.raises(ParameterError, match=f"^{re.escape(str(refused.value))}$"):
            classify_three_interval(*loops)

    def test_matches_the_rule(self):
        for loops in coprime_triples(9):
            rule = build_three_interval_rule(*loops)
            verdict = classify_three_interval(*loops)
            assert verdict.loops == rule.loops
            assert verdict.polynomial == rule.polynomial
            assert verdict.spectral == solomon_verdict(rule.loops)


class TestSurvey:
    def test_small_survey_rows(self):
        rows = survey(4)
        keyed = {(r.n, r.m): r for r in rows}
        assert list(keyed) == sorted(keyed)
        assert (1, 1) in keyed
        first = rows[0]
        assert (first.n, first.m) == (1, 1)
        assert first.lambda1 == 2.0
        assert first.lambda2_modulus == 0.0

    def test_small_survey_verdicts(self):
        rows = survey(4)
        spread = {(r.n, r.m) for r in rows if r.solomon is SpreadClass.SPREAD}
        assert spread == {(1, 1), (2, 1), (3, 1), (3, 2), (4, 1)}
        assert all(r.theorem == (r.solomon is SpreadClass.SPREAD) for r in rows)

    def test_survey_skips_common_factors(self):
        rows = survey(6)
        assert all(math.gcd(r.n, r.m) == 1 for r in rows)
        assert (6, 3) not in {(r.n, r.m) for r in rows}

    def test_boundary_row(self):
        rows = survey(5)
        keyed = {(r.n, r.m): r for r in rows}
        assert keyed[(5, 1)].solomon is SpreadClass.BOUNDARY
        assert not keyed[(5, 1)].theorem

    def test_rejects_bad_bound(self):
        with pytest.raises(ParameterError):
            survey(0)


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(coprime_pairs(9)))
    def test_verdict_follows_watched_modulus(self, pair):
        n, m = pair
        report = solomon_verdict(build_rho(n, m).loops)
        if report.solomon is SpreadClass.SPREAD:
            assert report.lambda2_modulus < 1.0 - 1e-9
        elif report.solomon is SpreadClass.NOT_SPREAD:
            assert report.lambda2_modulus > 1.0 + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(coprime_pairs(9)))
    def test_leading_eigenvalue_below_two(self, pair):
        # every proper split subdivides one interval into two, so the
        # inflation eigenvalue sits strictly between 1 and 2
        n, m = pair
        report = solomon_verdict(build_rho(n, m).loops)
        assert 1.0 < report.lambda1 < 2.0

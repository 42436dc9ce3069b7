import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kakutani import NumericError, ParameterError
from kakutani.polynomials import IntPolynomial
from kakutani.rootfind import (
    _roots_and_residuals,
    find_roots,
    residual_bound,
    root_residual,
)

from conftest import bisect_root, quadratic_roots


class TestKnownRoots:
    def test_linear(self):
        roots = find_roots(IntPolynomial((-1, 1)))  # x - 1
        assert roots == (1 + 0j,)

    def test_quadratic_matches_formula(self):
        # x^2 - x - 1, golden ratio pair
        roots = find_roots(IntPolynomial((-1, -1, 1)))
        expected = sorted(quadratic_roots(-1, -1), key=lambda z: -abs(z))
        assert len(roots) == 2
        for got, want in zip(roots, expected):
            assert abs(got - want) < 1e-12

    def test_quadratic_complex_pair(self):
        # x^2 + x + 1, primitive sixth roots of -1
        roots = find_roots(IntPolynomial((1, 1, 1)))
        expected = quadratic_roots(1, 1)
        assert all(abs(z) == pytest.approx(1.0, abs=1e-12) for z in roots)
        for want in expected:
            assert min(abs(z - want) for z in roots) < 1e-12

    def test_plastic_cubic_matches_bisection(self):
        # x^3 - x - 1 has one real root, the plastic number
        poly = IntPolynomial((-1, -1, 0, 1))
        roots = find_roots(poly)
        plastic = bisect_root(lambda x: x**3 - x - 1, 1.0, 2.0)
        assert roots[0].imag == 0.0
        assert roots[0].real == pytest.approx(plastic, abs=1e-12)
        # the complex pair lies strictly inside the unit circle
        assert abs(roots[1]) < 1.0
        assert abs(roots[2]) < 1.0

    def test_trinomial_second_modulus(self):
        # x^5 - x^2 - 1: leading root real, next pair just outside unit circle
        poly = IntPolynomial.from_terms({5: 1, 2: -1, 0: -1})
        roots = find_roots(poly)
        lead = bisect_root(lambda x: x**5 - x**2 - 1, 1.0, 2.0)
        assert roots[0].real == pytest.approx(lead, abs=1e-11)
        assert abs(roots[1]) == pytest.approx(abs(roots[2]), abs=1e-12)

    def test_zero_roots_split_exactly(self):
        # x^3 * (x - 2)
        poly = IntPolynomial((0, 0, 0, -2, 1))
        roots = find_roots(poly)
        assert sum(1 for z in roots if z == 0) == 3
        assert any(abs(z - 2) < 1e-12 for z in roots)

    def test_cyclotomic_on_unit_circle(self):
        # x^4 - x^2 + 1, all roots on the unit circle
        poly = IntPolynomial((1, 0, -1, 0, 1))
        for z in find_roots(poly):
            assert abs(z) == pytest.approx(1.0, abs=1e-12)


class TestContracts:
    def test_zero_polynomial_rejected(self):
        with pytest.raises(ParameterError):
            find_roots(IntPolynomial.zero())

    def test_sorted_by_decreasing_modulus(self):
        poly = IntPolynomial.from_terms({6: 1, 5: -1, 0: -1})
        roots = find_roots(poly)
        mods = [abs(z) for z in roots]
        assert all(a >= b - 1e-12 for a, b in zip(mods, mods[1:]))

    def test_deterministic(self):
        poly = IntPolynomial.from_terms({7: 1, 4: -1, 0: -1})
        assert find_roots(poly) == find_roots(poly)

    def test_residuals_within_bound(self):
        poly = IntPolynomial.from_terms({9: 1, 2: -1, 0: -1})
        for z in find_roots(poly):
            assert root_residual(poly, z) <= residual_bound(poly.degree, z)

    def test_checked_residuals_are_root_residuals(self):
        for poly in (
            IntPolynomial.from_terms({9: 1, 2: -1, 0: -1}),
            IntPolynomial.from_terms({8: 3, 5: -2, 4: 7, 3: 1}),  # x^3 split off
            IntPolynomial.from_terms({4: 1, 3: -2, 0: 5}),
        ):
            roots, residuals = _roots_and_residuals(poly)
            assert roots == find_roots(poly)
            assert residuals == tuple(root_residual(poly, z) for z in roots)

    def test_conjugate_closure(self):
        poly = IntPolynomial.from_terms({5: 1, 4: -1, 2: -1, 0: -1})
        roots = find_roots(poly)
        for z in roots:
            mirror = min(abs(w - z.conjugate()) for w in roots)
            assert mirror < 1e-10

    def test_vieta_product(self):
        # |product of roots| equals |constant term| for monic input
        poly = IntPolynomial.from_terms({6: 1, 1: -1, 0: -3})
        roots = find_roots(poly)
        prod = 1.0
        for z in roots:
            prod *= abs(z)
        assert prod == pytest.approx(3.0, abs=1e-9)

    def test_vieta_sum(self):
        # sum of roots equals -(second coefficient) for monic input
        poly = IntPolynomial.from_terms({4: 1, 3: -2, 0: 5})
        total = sum(find_roots(poly))
        assert total.real == pytest.approx(2.0, abs=1e-9)
        assert total.imag == pytest.approx(0.0, abs=1e-9)


@st.composite
def small_int_polys(draw):
    degree = draw(st.integers(min_value=1, max_value=6))
    coeffs = [draw(st.integers(min_value=-5, max_value=5)) for _ in range(degree)]
    coeffs.append(draw(st.integers(min_value=1, max_value=5)))
    return IntPolynomial(tuple(coeffs))


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(small_int_polys())
    def test_root_count_and_residuals(self, poly):
        roots = find_roots(poly)
        assert len(roots) == poly.degree
        for z in roots:
            assert root_residual(poly, z) <= residual_bound(poly.degree, z)

    @settings(max_examples=60, deadline=None)
    @given(small_int_polys())
    def test_real_roots_evaluate_near_zero(self, poly):
        for z in find_roots(poly):
            if z.imag == 0.0:
                value = sum(c * z.real**k for k, c in enumerate(poly.coeffs))
                assert abs(value) <= residual_bound(poly.degree, z)

import doctest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kakutani.polynomials
from kakutani import ParameterError
from kakutani.polynomials import IntPolynomial, cyclotomic
from kakutani.rootfind import root_residual

from conftest import char_poly_from_rows, derivative, expansion_char_poly, horner, multiply, poly_gcd


def test_module_doctests():
    failures, attempted = doctest.testmod(kakutani.polynomials)
    assert attempted > 0
    assert failures == 0


class TestConstruction:
    def test_trims_leading_zeros(self):
        assert IntPolynomial((1, 2, 0, 0)).coeffs == (1, 2)

    def test_zero_degree(self):
        assert IntPolynomial.zero().degree == -1
        assert IntPolynomial((1,)).degree == 0

    def test_monomial(self):
        p = IntPolynomial.from_terms({3: -2})
        assert p.coeffs == (0, 0, 0, -2)
        with pytest.raises(ParameterError):
            IntPolynomial.from_terms({-1: 1})

    def test_from_terms_accumulates(self):
        p = IntPolynomial.from_terms({2: 1, 0: -1})
        assert p.coeffs == (-1, 0, 1)


class TestArithmetic:
    def test_evaluate_integer_exact(self):
        p = IntPolynomial((-1, -1, 0, 0, 0, 1))  # x^5 - x - 1
        assert horner(p, 2) == 29
        assert root_residual(p, 2) == 29.0

    def test_mul_known(self):
        a = IntPolynomial((-1, 1))  # x - 1
        b = IntPolynomial((1, 1))  # x + 1
        product = multiply(a, b)
        assert product.coeffs == (-1, 0, 1)
        assert divmod(product, b) == (a, IntPolynomial.zero())

    def test_derivative_oracle(self):
        p = IntPolynomial((5, -3, 0, 2))  # 2x^3 - 3x + 5
        assert derivative(p).coeffs == (-3, 0, 6)

    def test_gcd_oracle(self):
        # (x + 1) * (x^2 + 2)^2 and its derivative share x^2 + 2
        p = IntPolynomial((4, 4, 4, 4, 1, 1))
        assert poly_gcd(p, derivative(p)) == IntPolynomial((2, 0, 1))
        assert poly_gcd(IntPolynomial((-2, 2)), IntPolynomial((3, 3))) == IntPolynomial((1,))

    def test_exact_division(self):
        # x^5 - x^4 - 1 = (x^2 - x + 1)(x^3 - x - 1)
        product = IntPolynomial((-1, 0, 0, 0, -1, 1))
        factor = IntPolynomial((1, -1, 1))
        quotient, remainder = divmod(product, factor)
        assert remainder.is_zero
        assert quotient.coeffs == (-1, -1, 0, 1)

    def test_monic_division_leaves_remainder(self):
        # the divisor is monic, so long division succeeds with a remainder
        quotient, remainder = divmod(IntPolynomial((-1, -1, 1)), IntPolynomial((1, -1, 1)))
        assert quotient.coeffs == (1,)
        assert remainder.coeffs == (-2,)

    def test_nonmonic_division_raises_on_indivisible_head(self):
        # dividing x^2 + 1 by 2x + 1 needs a fractional quotient coefficient
        with pytest.raises(ParameterError):
            divmod(IntPolynomial((1, 0, 1)), IntPolynomial((1, 2)))

    def test_divisibility_predicate(self):
        fib = IntPolynomial((-1, -1, 1))
        assert not divmod(fib, IntPolynomial((1, -1, 1)))[1].is_zero
        assert divmod(multiply(fib, fib), fib)[1].is_zero

    def test_strip_zero_roots(self):
        p = IntPolynomial((0, 0, -1, 1))  # x^3 - x^2
        stripped, power = p.strip_zero_roots()
        assert power == 2
        assert stripped.coeffs == (-1, 1)


class TestCyclotomic:
    KNOWN = {
        1: (-1, 1),
        2: (1, 1),
        3: (1, 1, 1),
        4: (1, 0, 1),
        5: (1, 1, 1, 1, 1),
        6: (1, -1, 1),
        7: (1, 1, 1, 1, 1, 1, 1),
        8: (1, 0, 0, 0, 1),
        9: (1, 0, 0, 1, 0, 0, 1),
        10: (1, -1, 1, -1, 1),
        12: (1, 0, -1, 0, 1),
    }

    @pytest.mark.parametrize("order", sorted(KNOWN))
    def test_classical_table(self, order):
        assert cyclotomic(order).coeffs == self.KNOWN[order]

    def test_product_recovers_x_power_minus_one(self):
        # x^12 - 1 = product of cyclotomics over divisors of 12
        product = IntPolynomial((1,))
        for d in (1, 2, 3, 4, 6, 12):
            product = multiply(product, cyclotomic(d))
        assert product.coeffs == tuple([-1] + [0] * 11 + [1])


class TestCharPoly:
    def test_identity_matrix(self):
        rows = ((1, 0), (0, 1))
        assert char_poly_from_rows(rows).coeffs == (1, -2, 1)

    def test_fibonacci_matrix(self):
        rows = ((1, 1), (1, 0))
        assert char_poly_from_rows(rows).coeffs == (-1, -1, 1)

    @pytest.mark.parametrize(
        "rows",
        [
            ((2,),),
            ((0, 1), (1, 1)),
            ((1, 2, 3), (4, 5, 6), (7, 8, 9)),
            ((0, 0, 1), (1, 0, 0), (0, 1, 1)),
            ((3, -1, 0, 2), (0, 1, 1, 1), (5, 0, -2, 0), (1, 1, 1, 1)),
        ],
    )
    def test_matches_expansion_oracle(self, rows):
        assert list(char_poly_from_rows(rows).coeffs) == expansion_char_poly(rows)


small_ints = st.integers(min_value=-6, max_value=6)
polys = st.lists(small_ints, min_size=1, max_size=7).map(tuple).map(IntPolynomial)


@given(polys, polys)
@settings(max_examples=120, deadline=None)
def test_multiplication_commutes(a, b):
    assert multiply(a, b) == multiply(b, a)


@given(polys, polys)
@settings(max_examples=120, deadline=None)
def test_division_round_trip(a, b):
    product = multiply(a, b)
    if b.is_zero or b.coeffs[-1] != 1:
        return
    quotient, remainder = divmod(product, b)
    assert remainder.is_zero
    assert quotient == a


@given(polys, st.integers(min_value=-4, max_value=4))
@settings(max_examples=120, deadline=None)
def test_evaluation_is_ring_homomorphism(a, x):
    b = IntPolynomial((1, -2, 3))
    assert horner(multiply(a, b), x) == horner(a, x) * horner(b, x)
    # values stay below 2**53, so the root finder's float residual is exact
    assert root_residual(a, x) == abs(horner(a, x))


@given(st.lists(small_ints, min_size=2, max_size=6))
@settings(max_examples=100, deadline=None)
def test_random_char_polys_match_oracle(flat):
    size = 2
    if len(flat) < size * size:
        flat = flat + [0] * (size * size - len(flat))
    rows = tuple(tuple(flat[i * size : (i + 1) * size]) for i in range(size))
    assert list(char_poly_from_rows(rows).coeffs) == expansion_char_poly(rows)

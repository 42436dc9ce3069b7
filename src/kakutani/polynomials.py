"""Exact integer polynomials: the relation polynomials of the rules,
the cyclotomic factors the spectral verdicts divide out, and the gcd
with which the root finder splits off repeated roots.

Coefficients are arbitrary-precision integers, stored constant term
first, so ``IntPolynomial((-1, -1, 0, 1))`` is x^3 - x - 1.  Everything
here is exact: division raises if it does not come out evenly.
"""
from __future__ import annotations

import functools
import math
from typing import Iterable, Mapping

from .errors import ParameterError

__all__ = ["IntPolynomial", "cyclotomic", "loop_polynomial", "poly_gcd"]


def _trim(coeffs: Iterable[int]) -> tuple[int, ...]:
    out = list(int(c) for c in coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


class IntPolynomial:
    """An immutable integer polynomial, constant coefficient first.

    It holds what the verdicts use: the derivative for the root finder,
    exact division, powers of x stripped, and equality and printing;
    no ring arithmetic.

    >>> p = IntPolynomial.from_terms({3: 1, 1: -1, 0: -1})
    >>> p
    IntPolynomial('x^3 - x - 1')
    >>> p.degree
    3
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int]) -> None:
        self._coeffs = _trim(coeffs)

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash((self._coeffs,))

    @classmethod
    def zero(cls) -> "IntPolynomial":
        return cls(())

    @classmethod
    def from_terms(cls, terms: Mapping[int, int]) -> "IntPolynomial":
        """Build from a power -> coefficient mapping; powers may repeat
        conceptually (coefficients at the same power add up).

        >>> IntPolynomial.from_terms({2: 1, 1: -2, 0: -1})
        IntPolynomial('x^2 - 2x - 1')
        """
        if not terms:
            return cls.zero()
        top = max(terms)
        if min(terms) < 0:
            raise ParameterError("negative powers are not representable")
        out = [0] * (top + 1)
        for power, coeff in terms.items():
            out[power] += coeff
        return cls(tuple(out))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial(tuple(k * c for k, c in enumerate(self.coeffs) if k))

    def __divmod__(self, divisor: "IntPolynomial"):
        """Polynomial division over the integers.

        Works whenever each elimination step divides evenly (always true
        for monic divisors); raises ParameterError otherwise.

        >>> p = IntPolynomial.from_terms({5: 1, 4: -1, 0: -1})
        >>> q, r = divmod(p, IntPolynomial((1, -1, 1)))
        >>> q, r.is_zero
        (IntPolynomial('x^3 - x - 1'), True)
        """
        if divisor.is_zero:
            raise ParameterError("division by the zero polynomial")
        rem = list(self.coeffs)
        d = divisor.coeffs
        lead = d[-1]
        if len(rem) < len(d):
            return IntPolynomial.zero(), IntPolynomial(tuple(rem))
        quot = [0] * (len(rem) - len(d) + 1)
        for k in range(len(quot) - 1, -1, -1):
            head = rem[k + len(d) - 1]
            if head % lead != 0:
                raise ParameterError(
                    f"coefficient {head} not divisible by leading {lead}"
                )
            q = head // lead
            quot[k] = q
            if q:
                for i, c in enumerate(d):
                    rem[k + i] -= q * c
        return IntPolynomial(tuple(quot)), IntPolynomial(tuple(rem))

    def strip_zero_roots(self) -> tuple["IntPolynomial", int]:
        """Factor out the largest power of x exactly; with a nonzero
        constant term, the polynomial itself.

        >>> IntPolynomial((0, 0, -1, 1)).strip_zero_roots()
        (IntPolynomial('x - 1'), 2)
        """
        if self.is_zero or self.coeffs[0]:
            return self, 0
        k = 0
        while self.coeffs[k] == 0:
            k += 1
        return IntPolynomial(self.coeffs[k:]), k

    def __repr__(self) -> str:
        return f"IntPolynomial({str(self)!r})"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for power in range(self.degree, -1, -1):
            c = self.coeffs[power]
            if not c:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if power == 0:
                body = f"{mag}"
            else:
                xs = "x" if power == 1 else f"x^{power}"
                body = xs if mag == 1 else f"{mag}{xs}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"{sign} {body}")
        return " ".join(parts)


@functools.lru_cache(maxsize=None)
def cyclotomic(order: int) -> IntPolynomial:
    """The cyclotomic polynomial of the given order.

    Computed by dividing x^order - 1 by the cyclotomics of the proper
    divisors; the cache makes the recursion cheap.

    >>> cyclotomic(1)
    IntPolynomial('x - 1')
    >>> cyclotomic(6)
    IntPolynomial('x^2 - x + 1')
    >>> cyclotomic(12)
    IntPolynomial('x^4 - x^2 + 1')
    """
    if order < 1:
        raise ParameterError("cyclotomic order must be a positive integer")
    num = IntPolynomial.from_terms({order: 1, 0: -1})
    for d in range(1, order):
        if order % d == 0:
            num, rem = divmod(num, cyclotomic(d))
            assert rem.is_zero
    return num


def loop_polynomial(degree: int, loops: Iterable[int]) -> IntPolynomial:
    """x**degree - sum(x**(degree - c) for c in loops); equal powers add up.
    With the longest loop as degree, the relation of a flower's inflation.

    >>> loop_polynomial(3, (3, 2))
    IntPolynomial('x^3 - x - 1')
    """
    terms = {degree: 1}
    for c in loops:
        terms[degree - c] = terms.get(degree - c, 0) - 1
    return IntPolynomial.from_terms(terms)


def poly_gcd(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """The gcd of two nonzero polynomials, by Euclid over the rationals,
    scaled to coprime integer coefficients with a positive leading one.

    >>> p = IntPolynomial((4, 4, 4, 4, 1, 1))  # (x + 1) * (x^2 + 2)^2
    >>> poly_gcd(p, p.derivative())
    IntPolynomial('x^2 + 2')
    """
    from fractions import Fraction  # loaded only by a root finder that stalls

    u, v = [Fraction(c) for c in a.coeffs], [Fraction(c) for c in b.coeffs]
    while v:
        while len(u) >= len(v):  # u mod v, a leading term at a time
            q, shift = u[-1] / v[-1], len(u) - len(v)
            for i, c in enumerate(v):
                u[shift + i] -= q * c
            while u and not u[-1]:
                u.pop()
        u, v = v, u
    scale = math.lcm(*(c.denominator for c in u))
    ints = [int(c * scale) for c in u]
    return IntPolynomial(c // math.gcd(*ints) * (1 if ints[-1] > 0 else -1) for c in ints)

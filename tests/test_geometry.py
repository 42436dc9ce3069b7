
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kakutani import ParameterError
from kakutani.geometry import (
    LengthExponent,
    Patch,
    PositionVector,
    Tile,
    XiSum,
    term_sums,
)

from conftest import nearest_distance


def make_patch(positions, lengths, support, labels=None):
    """A patch built from columns; every tile at the exact origin."""

    def exact():
        return (
            [PositionVector()] * len(positions),
            [LengthExponent(0, 0)] * len(positions),
        )

    return Patch(positions, lengths, support, exact, labels=labels)


class TestPositionVector:
    def test_zero_value(self):
        # zero coefficients drop out, so every zero is the empty vector,
        # and the empty path sums to the exact origin
        zero = PositionVector()
        assert zero.terms == ()
        assert PositionVector([((1, 0), 0), ((2, 1), 1), ((2, 1), -1)]) == zero
        assert term_sums([zero.terms], {}) == [0]

    def test_plus_accumulates(self):
        # equal keys merge: two alpha-steps are one term of coefficient 2
        v = PositionVector([((1, 0), 1), ((1, 0), 1)])
        assert v.terms == (((1, 0), 2),)

    def test_equality_is_structural(self):
        a = PositionVector([((1, 2), 1), ((0, 1), 1)])
        b = PositionVector([((0, 1), 1), ((1, 2), 1)])
        assert a == b and hash(a) == hash(b)


class TestXiSum:
    def test_cancellation(self):
        s = XiSum([(1, 1), (1, -1)])
        assert s == XiSum() and s.terms == ()

    def test_value(self):
        # a float position adds c * xi**p over the merged terms in order
        s = XiSum([(0, 1), (-1, 1), (0, 1)])
        assert s.terms == ((-1, 1), (0, 2))
        assert term_sums([s.terms], {-1: 0.5, 0: 1.0}) == [2.5]


class TestPatch:
    def test_requires_tiles(self):
        with pytest.raises(ParameterError):
            make_patch((), (), (0.0, 1.0))

    def test_requires_increasing_positions(self):
        with pytest.raises(ParameterError):
            make_patch((0.0, 0.0), (1.0, 1.0), (0.0, 2.0))
        with pytest.raises(ParameterError):
            make_patch((1.0, 0.0), (1.0, 1.0), (0.0, 2.0))

    def test_requires_one_entry_per_tile(self):
        with pytest.raises(ParameterError):
            make_patch((0.0, 1.0), (1.0,), (0.0, 2.0))
        with pytest.raises(ParameterError):
            make_patch((0.0, 1.0), (1.0, 1.0), (0.0, 2.0), labels=(1,))

    def test_accessors(self):
        patch = make_patch((0.0, 1.0), (1.0, 0.5), (0.0, 1.5), labels=(1, 2))
        assert len(patch) == 2
        assert patch.positions() == (0.0, 1.0)
        assert patch.lengths() == (1.0, 0.5)
        assert patch.labels() == (1, 2)
        assert make_patch((0.0,), (1.0,), (0.0, 1.0)).labels() == (None,)

    def test_tiles_built_once_from_columns(self):
        calls = []

        def exact():
            calls.append(1)
            return [PositionVector()] * 2, [LengthExponent(0, 0)] * 2

        patch = Patch((0.0, 1.0), (1.0, 0.5), (0.0, 1.5), exact, labels=(1, 2))
        assert calls == []
        want = (
            Tile(PositionVector(), LengthExponent(0, 0), 0.0, 1.0, 1),
            Tile(PositionVector(), LengthExponent(0, 0), 1.0, 0.5, 2),
        )
        assert patch.tiles == want
        assert patch.tiles is patch.tiles
        assert calls == [1]

    def test_value_semantics(self):
        # equality, hash and repr by tiles and support
        a = make_patch((0.0, 1.0), (1.0, 0.5), (0.0, 1.5))
        b = Patch(
            a.positions(),
            a.lengths(),
            a.support,
            lambda: ([PositionVector()] * 2, [LengthExponent(0, 0)] * 2),
        )
        assert a == b and hash(a) == hash(b)
        assert a != make_patch((0.0, 1.0), (1.0, 0.5), (0.0, 1.6))
        assert a != make_patch((0.0, 1.0), (1.0, 0.5), (0.0, 1.5), labels=(1, 2))
        assert repr(a) == f"Patch(tiles={a.tiles!r}, support=(0.0, 1.5))"
        with pytest.raises(AttributeError):
            a.support = None


def test_nearest_distance():
    points = (0.0, 10.0)
    assert nearest_distance(points, 4.0) == pytest.approx(4.0)
    assert nearest_distance(points, 9.0) == pytest.approx(1.0)
    assert nearest_distance(points, -3.0) == pytest.approx(3.0)
    assert nearest_distance((), 1.0) == float("inf")


powers = st.integers(min_value=-6, max_value=6)


@given(st.lists(powers, max_size=8))
@settings(max_examples=100, deadline=None)
def test_xi_sum_value_additive(steps):
    # merging equal powers into one coefficient keeps the sum
    xi = 1.3247179572447460
    power = {p: xi**p for p in range(-6, 7)}
    (got,) = term_sums([XiSum([(p, 1) for p in steps]).terms], power)
    assert got == pytest.approx(sum(xi**p for p in steps), rel=1e-12, abs=1e-12)

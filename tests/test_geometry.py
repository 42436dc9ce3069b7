
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kakutani import ParameterError
from kakutani.geometry import (
    LengthExponent,
    Patch,
    PointSet,
    PositionVector,
    Tile,
    XiPower,
    XiSum,
)

ALPHA = 0.3


def make_tile(position, length, label=None):
    return Tile(
        position=PositionVector.zero(),
        length=LengthExponent(0, 0),
        position_value=position,
        length_value=length,
        label=label,
    )


class TestLengthExponent:
    def test_value(self):
        e = LengthExponent(2, 1)
        assert e.value(ALPHA) == pytest.approx(ALPHA**2 * 0.7)


class TestPositionVector:
    def test_zero_value(self):
        assert PositionVector.zero().value(ALPHA) == 0.0

    def test_plus_accumulates(self):
        # equal keys merge: two alpha-steps are one term of coefficient 2
        v = PositionVector([((1, 0), 1), ((1, 0), 1)])
        assert v.terms == (((1, 0), 2),)
        assert v.value(ALPHA) == pytest.approx(2 * ALPHA)

    def test_equality_is_structural(self):
        a = PositionVector([((1, 2), 1), ((0, 1), 1)])
        b = PositionVector([((0, 1), 1), ((1, 2), 1)])
        assert a == b and hash(a) == hash(b)


class TestXiSum:
    def test_cancellation(self):
        s = XiSum([(1, 1), (1, -1)])
        assert s == XiSum.zero()

    def test_value(self):
        s = XiSum([(0, 2), (-1, 1)])
        assert s.value(2.0) == pytest.approx(2.5)

    def test_xi_power_length(self):
        assert XiPower(2).value(2.0) == pytest.approx(0.25)


class TestPatch:
    def test_requires_tiles(self):
        with pytest.raises(ParameterError):
            Patch(tiles=(), support=(0.0, 1.0))

    def test_requires_increasing_positions(self):
        tiles = (make_tile(0.0, 1.0), make_tile(0.0, 1.0))
        with pytest.raises(ParameterError):
            Patch(tiles=tiles, support=(0.0, 2.0))

    def test_accessors(self):
        tiles = (make_tile(0.0, 1.0, label=1), make_tile(1.0, 0.5, label=2))
        patch = Patch(tiles=tiles, support=(0.0, 1.5))
        assert patch.positions() == (0.0, 1.0)
        assert patch.lengths() == (1.0, 0.5)
        assert patch.labels() == (1, 2)
        assert patch.boundaries() == (0.0, 1.0, 1.5)


class TestPointSet:
    def test_sorted_and_deduped(self):
        ps = PointSet.from_iterable([3.0, 1.0, 3.0, 2.0], window=(0.0, 4.0))
        assert ps.points == (1.0, 2.0, 3.0)

    def test_rejects_disorder(self):
        with pytest.raises(ParameterError):
            PointSet(points=(2.0, 1.0), window=(0.0, 3.0))

    def test_nearest_distance(self):
        ps = PointSet.from_iterable([0.0, 10.0], window=(-1.0, 11.0))
        assert ps.nearest_distance(4.0) == pytest.approx(4.0)
        assert ps.nearest_distance(9.0) == pytest.approx(1.0)
        assert ps.nearest_distance(-3.0) == pytest.approx(3.0)


exponents = st.tuples(
    st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6)
)


@given(st.lists(exponents, max_size=8))
@settings(max_examples=100, deadline=None)
def test_position_vector_value_additive(steps):
    v = PositionVector([((a, b), 1) for a, b in steps])
    expected = 0.0
    for a, b in steps:
        expected += ALPHA**a * 0.7**b
    assert v.value(ALPHA) == pytest.approx(expected, rel=1e-12, abs=1e-12)


@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=12))
@settings(max_examples=100, deadline=None)
def test_point_set_from_iterable_is_canonical(values):
    ps = PointSet.from_iterable(values, window=(-60.0, 60.0))
    assert list(ps.points) == sorted(set(values))


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kakutani import ParameterError
from kakutani.geometry import Patch, Tile, term_sums

from conftest import nearest_distance


class TestTermSums:
    def test_empty_path_is_the_origin(self):
        assert term_sums([()], {}) == [0]

    def test_value(self):
        # a float position adds c * xi**p over the terms in order
        assert term_sums([((-1, 1), (0, 2))], {-1: 0.5, 0: 1.0}) == [2.5]


class TestPatch:
    def test_requires_tiles(self):
        with pytest.raises(ParameterError):
            Patch((), (), (0.0, 1.0))

    def test_requires_increasing_positions(self):
        with pytest.raises(ParameterError):
            Patch((0.0, 0.0), (1.0, 1.0), (0.0, 2.0))
        with pytest.raises(ParameterError):
            Patch((1.0, 0.0), (1.0, 1.0), (0.0, 2.0))

    def test_requires_one_entry_per_tile(self):
        with pytest.raises(ParameterError):
            Patch((0.0, 1.0), (1.0,), (0.0, 2.0))
        with pytest.raises(ParameterError):
            Patch((0.0, 1.0), (1.0, 1.0), (0.0, 2.0), labels=(1,))

    def test_accessors(self):
        patch = Patch((0.0, 1.0), (1.0, 0.5), (0.0, 1.5), labels=(1, 2))
        assert len(patch) == 2
        assert patch.positions() == (0.0, 1.0)
        assert patch.lengths() == (1.0, 0.5)
        assert patch.labels() == (1, 2)
        assert Patch((0.0,), (1.0,), (0.0, 1.0)).labels() == (None,)

    def test_tiles_are_the_rows_of_the_columns(self):
        patch = Patch((0.0, 1.0), (1.0, 0.5), (0.0, 1.5), labels=(1, 2))
        assert patch.tiles == (Tile(0.0, 1.0, 1), Tile(1.0, 0.5, 2))
        assert Patch((0.0,), (1.0,), (0.0, 1.0)).tiles == (Tile(0.0, 1.0),)

    def test_value_semantics(self):
        # equality, hash and repr by columns and support
        a = Patch((0.0, 1.0), (1.0, 0.5), (0.0, 1.5))
        b = Patch(list(a.positions()), list(a.lengths()), a.support)
        assert a == b and hash(a) == hash(b)
        assert a != Patch((0.0, 1.0), (1.0, 0.5), (0.0, 1.6))
        assert a != Patch((0.0, 1.5), (1.5, 0.5), (0.0, 1.5))
        assert repr(a) == (
            "Patch(positions=(0.0, 1.0), lengths=(1.0, 0.5), "
            "support=(0.0, 1.5), labels=None)"
        )
        with pytest.raises(AttributeError):
            a.support = None

    def test_labels_alone_tell_patches_apart(self):
        plain = Patch((0.0, 1.0), (1.0, 0.5), (0.0, 1.5))
        one = Patch((0.0, 1.0), (1.0, 0.5), (0.0, 1.5), labels=(1, 2))
        other = Patch((0.0, 1.0), (1.0, 0.5), (0.0, 1.5), labels=(2, 1))
        assert plain != one != other != plain
        # equal columns, whatever sequences they came in, hash alike
        again = Patch([0.0, 1.0], [1.0, 0.5], (0.0, 1.5), labels=[1, 2])
        assert one == again and hash(one) == hash(again)


def test_nearest_distance():
    points = (0.0, 10.0)
    assert nearest_distance(points, 4.0) == pytest.approx(4.0)
    assert nearest_distance(points, 9.0) == pytest.approx(1.0)
    assert nearest_distance(points, -3.0) == pytest.approx(3.0)
    assert nearest_distance((), 1.0) == float("inf")


powers = st.integers(min_value=-6, max_value=6)


@given(st.lists(powers, max_size=8))
@settings(max_examples=100, deadline=None)
def test_term_sums_value_additive(steps):
    # equal powers merged into one coefficient keep the sum
    xi = 1.3247179572447460
    power = {p: xi**p for p in range(-6, 7)}
    merged = [(p, steps.count(p)) for p in sorted(set(steps))]
    (got,) = term_sums([merged], power)
    assert got == pytest.approx(sum(xi**p for p in steps), rel=1e-12, abs=1e-12)

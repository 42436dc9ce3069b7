import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kakutani import ParameterError, ResourceLimitError, generate_patch, solve_alpha
from kakutani.engine import (
    chabauty_fell,
    chabauty_fell_distance,
    count_tiles,
    count_tiles_commensurable,
    delone_points,
    generate_patch_commensurable,
)
from kakutani.cover import build_rho, build_three_interval_rule, iterate_primitive
from kakutani.geometry import LengthExponent, PointSet, PositionVector, XiPower, XiSum

from conftest import ascending_fold, brute_boundaries, brute_count_tiles, coprime_pairs


class TestCountTiles:
    def test_lattice_counts(self):
        for k in range(6):
            assert count_tiles(0.5, k * math.log(2)) == 2**k

    def test_four_tile_example(self):
        assert count_tiles(1.0 / 3.0, math.log(3)) == 4

    @pytest.mark.parametrize("alpha", [0.21, 1.0 / 3.0, 0.45, 0.5])
    @pytest.mark.parametrize("t", [0.0, 1.0, 3.7, 6.2])
    def test_matches_brute_recursion(self, alpha, t):
        assert count_tiles(alpha, t) == brute_count_tiles(alpha, t)

    def test_zero_time_single_tile(self):
        assert count_tiles(0.37, 0.0) == 1

    @pytest.mark.parametrize("n,m", coprime_pairs(5))
    def test_commensurable_shortcut_agrees(self, n, m):
        alpha = solve_alpha(n, m)
        g = math.log(1.0 / alpha) / n
        for ell in range(0, 16):
            assert count_tiles_commensurable(n, m, ell) == count_tiles(alpha, ell * g)


class TestGeneratePatch:
    def test_contiguous_and_anchored(self):
        patch = generate_patch(1.0 / 3.0, math.log(3))
        assert patch.support[0] == pytest.approx(-1.5)
        assert patch.support[1] == pytest.approx(1.5)
        for left, right in zip(patch.tiles, patch.tiles[1:]):
            assert right.position_value == pytest.approx(
                left.position_value + left.length_value
            )

    def test_known_four_tiles(self):
        # splitting [0,3] once: 1 then 2; the 2 splits into 2/3 and 4/3,
        # and 4/3 splits again into 4/9 and 8/9
        patch = generate_patch(1.0 / 3.0, math.log(3), origin_offset=0.0)
        assert [t.length_value for t in patch.tiles] == pytest.approx(
            [1.0, 2.0 / 3.0, 4.0 / 9.0, 8.0 / 9.0]
        )

    def test_boundaries_match_brute_enumeration(self):
        alpha, t = 0.29, 5.3
        patch = generate_patch(alpha, t, origin_offset=0.0)
        expected = brute_boundaries(alpha, t)
        got = [tile.position_value for tile in patch.tiles]
        assert got == pytest.approx(expected, abs=1e-9)

    def test_lengths_at_most_one(self):
        patch = generate_patch(0.41, 7.0)
        assert max(t.length_value for t in patch.tiles) <= 1.0 + 1e-9

    def test_tile_cap(self):
        with pytest.raises(ResourceLimitError):
            generate_patch(0.5, 20 * math.log(2), max_tiles=100)

    def test_rejects_negative_time(self):
        with pytest.raises(ParameterError):
            generate_patch(0.3, -1.0)


class TestPositionBits:
    """Each float position is its exact position added up term by term,
    in ascending order; bit for bit, not within a tolerance."""

    @pytest.mark.parametrize("alpha", [0.5, 0.45, 0.4, 1.0 / 3.0, 0.3, 0.2, 0.1])
    @pytest.mark.parametrize("t", [0.0, 1.0, 2.5, 5.0, 7.0])
    def test_multiscale_patch(self, alpha, t):
        beta = 1.0 - alpha
        scale = math.exp(t)
        for offset in (0.5, 0.0, 1.0):
            anchor = -offset * scale
            patch = generate_patch(alpha, t, origin_offset=offset)
            for tile in patch.tiles:
                terms = tile.position.terms
                assert PositionVector(terms) == tile.position
                folded = ascending_fold(terms, lambda ab: alpha ** ab[0] * beta ** ab[1])
                assert tile.position_value == anchor + scale * folded

    @pytest.mark.parametrize("n,m", [(2, 1), (3, 1), (3, 2), (4, 3), (5, 2), (7, 3), (1, 1)])
    def test_commensurable_patch(self, n, m):
        for ell in (0, 1, 4, 11, 20):
            if count_tiles_commensurable(n, m, ell) > 5000:
                break
            patch = generate_patch_commensurable(n, m, ell)
            xi = patch.info["xi"]
            for tile in patch.tiles:
                terms = tile.position.terms
                assert XiSum(terms) == tile.position
                assert tile.position_value == ascending_fold(terms, lambda p: xi**p)


class TestColumns:
    """The columns a generator returns are the fields of the tiles that
    the patch builds from them on request."""

    @staticmethod
    def assert_columns_match_tiles(patch):
        tiles = patch.tiles
        assert len(tiles) == len(patch)
        assert patch.positions() == tuple(tile.position_value for tile in tiles)
        assert patch.lengths() == tuple(tile.length_value for tile in tiles)
        assert patch.labels() == tuple(tile.label for tile in tiles)

    @pytest.mark.parametrize("alpha,t", [(0.5, 0.0), (0.3, 4.0), (0.41, 7.5), (0.12, 6.0)])
    def test_multiscale(self, alpha, t):
        patch = generate_patch(alpha, t, origin_offset=0.25)
        self.assert_columns_match_tiles(patch)
        beta = 1.0 - alpha
        for tile in patch.tiles:
            assert type(tile.position) is PositionVector
            assert type(tile.length) is LengthExponent
            a, b = tile.length
            assert tile.length_value == math.exp(t) * alpha**a * beta**b
            assert tile.label is None

    @pytest.mark.parametrize("n,m,ell", [(1, 1, 5), (2, 1, 9), (3, 2, 14), (7, 3, 25)])
    def test_commensurable(self, n, m, ell):
        patch = generate_patch_commensurable(n, m, ell)
        self.assert_columns_match_tiles(patch)
        xi = patch.info["xi"]
        for tile in patch.tiles:
            assert type(tile.position) is XiSum
            assert type(tile.length) is XiPower
            assert tile.length_value == xi ** -tile.length.exponent

    @pytest.mark.parametrize(
        "rule",
        [build_rho(2, 1), build_rho(5, 3), build_three_interval_rule(3, 2, 1), build_three_interval_rule(2, 2, 1)],
        ids=["2/1", "5/3", "3,2,1", "2,2,1"],
    )
    def test_fixed_scale(self, rule):
        patch = iterate_primitive(rule, 9)
        self.assert_columns_match_tiles(patch)
        for tile in patch.tiles:
            assert type(tile.position) is XiSum
            assert tile.length == XiPower(rule.length_exponents[tile.label - 1])
            assert tile.length_value == rule.prototile_lengths[tile.label - 1]


class TestCommensurablePatch:
    @pytest.mark.parametrize("n,m", [(2, 1), (3, 2), (4, 3)])
    def test_counts_match_recurrence(self, n, m):
        for ell in range(0, 10):
            patch = generate_patch_commensurable(n, m, ell)
            assert len(patch.tiles) == count_tiles_commensurable(n, m, ell)

    def test_matches_float_engine(self):
        n, m, ell = 3, 2, 7
        alpha = solve_alpha(n, m)
        g = math.log(1.0 / alpha) / n
        exact = generate_patch_commensurable(n, m, ell)
        floated = generate_patch(alpha, ell * g, origin_offset=0.0)
        assert len(exact.tiles) == len(floated.tiles)
        for a, b in zip(exact.tiles, floated.tiles):
            assert a.position_value == pytest.approx(b.position_value, abs=1e-9)
            assert a.length_value == pytest.approx(b.length_value, abs=1e-12)

    def test_lattice_case(self):
        patch = generate_patch_commensurable(1, 1, 4)
        assert [t.position_value for t in patch.tiles] == pytest.approx(
            list(range(16))
        )


class TestDelonePoints:
    def test_left_endpoints(self):
        patch = generate_patch(1.0 / 3.0, math.log(3), origin_offset=0.0)
        points = delone_points(patch)
        assert points.points == pytest.approx((0.0, 1.0, 5.0 / 3.0, 19.0 / 9.0))
        assert points.window == patch.support


class TestChabautyFell:
    def window_set(self, values, window=(-50.0, 50.0)):
        return PointSet.from_iterable(values, window=window)

    def test_identity(self):
        a = self.window_set([0.0, 1.5, 4.0])
        assert chabauty_fell_distance(a, a) == 0.0

    def test_symmetry(self):
        a = self.window_set([0.0, 2.0, 3.0])
        b = self.window_set([0.5, 2.0, 4.5])
        assert chabauty_fell_distance(a, b) == chabauty_fell_distance(b, a)

    def test_known_distance(self):
        # the only disagreement is a point at 10 moved to 10.5: both the
        # gap (0.5) and the far-field cutoff 1/10 matter; the cutoff wins
        a = self.window_set([0.0, 10.0])
        b = self.window_set([0.0, 10.5])
        d = chabauty_fell_distance(a, b)
        assert d == pytest.approx(0.1, abs=1e-12)

    def test_certified_when_window_covers(self):
        a = self.window_set([0.5], window=(-100.0, 100.0))
        b = self.window_set([-0.5], window=(-100.0, 100.0))
        result = chabauty_fell(a, b)
        assert result.value == pytest.approx(1.0)
        assert result.certified

    def test_uncertified_when_window_small(self):
        a = self.window_set([0.0, 1.0], window=(-2.0, 2.0))
        b = self.window_set([0.0, 1.05], window=(-2.0, 2.0))
        assert not chabauty_fell(a, b).certified

    def test_capped_at_one(self):
        a = self.window_set([0.001])
        b = self.window_set([900.0])
        assert chabauty_fell_distance(a, b) == 1.0

    def test_triangle_on_random_triples(self):
        rng = random.Random(20240817)
        for _ in range(250):
            sets = [
                self.window_set(
                    [rng.uniform(-9, 9) for _ in range(rng.randint(1, 7))],
                    window=(-10.0, 10.0),
                )
                for _ in range(3)
            ]
            ab = chabauty_fell_distance(sets[0], sets[1])
            bc = chabauty_fell_distance(sets[1], sets[2])
            ac = chabauty_fell_distance(sets[0], sets[2])
            assert ac <= ab + bc + 1e-12


@given(
    st.floats(min_value=0.2, max_value=0.5),
    st.floats(min_value=0.0, max_value=6.5),
)
@settings(max_examples=60, deadline=None)
def test_patch_contiguity_property(alpha, t):
    patch = generate_patch(alpha, t)
    assert patch.support[1] - patch.support[0] == pytest.approx(math.exp(t), rel=1e-9)
    for left, right in zip(patch.tiles, patch.tiles[1:]):
        assert right.position_value == pytest.approx(
            left.position_value + left.length_value, rel=1e-9, abs=1e-9
        )


@given(
    st.floats(min_value=0.2, max_value=0.5),
    st.floats(min_value=0.0, max_value=10.0),
)
@settings(max_examples=60, deadline=None)
def test_count_positive_and_monotone_in_t(alpha, t):
    now = count_tiles(alpha, t)
    later = count_tiles(alpha, t + 0.35)
    assert 1 <= now <= later

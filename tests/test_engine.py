import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kakutani import ParameterError, ResourceLimitError, engine, generate_patch, solve_alpha
from kakutani.engine import (
    SubdivisionTree,
    count_tiles,
    count_tiles_commensurable,
    generate_patch_commensurable,
)
from kakutani.cover import build_rho, build_three_interval_rule, iterate_primitive, verify_cover

from conftest import (
    ascending_fold,
    brute_boundaries,
    brute_count_tiles,
    chabauty_fell,
    chabauty_fell_distance,
    coprime_pairs,
    memo_leaves,
    patch_per_node,
    rule_patch_per_node,
    walk_cases,
    xi_patch_per_node,
)


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


def _staircase_cases(seed, count):
    """Seeded (alpha, t, (a0, b0), on_lattice): alpha log-uniform in
    [1e-6, 1/2] with t small enough for the per-node memo, and every
    fourth case with t on a point i*|la| + j*|lb| of the lattice or
    within 2e-12 of one, where the leaf test sits on its slack (dyadic
    t at alpha = 1/2)."""
    rng = random.Random(seed)
    for k in range(count):
        alpha = 0.5 if k % 8 == 7 else 10.0 ** rng.uniform(-6.0, math.log10(0.5))
        la, lb = math.log(alpha), math.log1p(-alpha)
        # about 10**4 pairs in the memo: rows t/|la| times columns t/|lb|
        budget = min(1e4 * -lb, math.sqrt(1e4 * la * lb), 25.0)
        t = rng.uniform(0.0, budget)
        on_lattice = k % 4 == 3
        if on_lattice:
            j = rng.randint(0, int(budget / -lb))
            i = rng.randint(0, max(0, int((budget + j * lb) / -la)))
            t = max(0.0, i * -la + j * -lb + rng.choice([0.0, 1e-12, -1e-12, 2e-12, -2e-12]))
        yield alpha, t, (rng.randint(0, 3), rng.randint(0, 3)), on_lattice


class TestStaircase:
    @pytest.mark.parametrize("seed", range(4))
    def test_leaves_equal_the_memo_and_brute_recursion(self, seed):
        for alpha, t, (a0, b0), on_lattice in _staircase_cases(seed, 40):
            tree = SubdivisionTree(alpha, t)
            memo: dict = {}
            total = memo_leaves(alpha, t, memo=memo)
            assert tree.leaves() == total == count_tiles(alpha, t)
            # the recursion sums its logs along the path, so it may round
            # differently on the slack: compared off the lattice only
            if total <= 20000 and t < 800 * -tree.lb and not on_lattice:
                assert total == brute_count_tiles(alpha, t)
            # a subtree root off the origin, its row neighbours and children
            for a, b in ((a0, b0), (a0 + 1, b0), (a0, b0 + 1), (0, b0), (a0, 0)):
                assert tree.leaves(a, b) == memo_leaves(alpha, t, a, b, memo=memo)
            internal = sum(1 for a, b in memo if t + a * tree.la + b * tree.lb > 1e-12)
            assert tree.internal_pairs() == internal

    def test_row_ends_settle_the_float_test(self):
        # past 2**53 columns the closed-form guess is off by many units,
        # and the search gallops to bracket the last internal column
        extreme = [(1e-18, 1.0), (3e-17, 25.0), (1e-200, 1.0), (1e-200, 700.0)]
        cases = [(alpha, t) for alpha, t, _root, _lattice in _staircase_cases(11, 60)]
        for alpha, t in cases + extreme:
            tree = SubdivisionTree(alpha, t)
            ends = tree.row_ends()

            def is_leaf(a, b):  # the exponent test, as TwoPassProfile states it
                return t + a * tree.la + b * tree.lb <= engine.LENGTH_ONE_SLACK

            assert ends == sorted(ends, reverse=True)
            assert is_leaf(len(ends), 0)
            for a, end in enumerate(ends):
                assert not is_leaf(a, end) and is_leaf(a, end + 1)

    def test_row_widths_are_the_exponent_widths(self):
        # bit for bit exp(t + a*la + b*lb), summed left to right
        for alpha, t in walk_cases("widths", 12):
            tree = SubdivisionTree(alpha, t)
            for a in range(len(tree.row_ends()) + 2):
                widths = tree.row_widths(a, 40)
                assert widths == [math.exp(t + a * tree.la + b * tree.lb) for b in range(40)]

    def test_a_row_past_the_float_range_is_refused(self):
        # row 0 holds about t / -log(1 - alpha) columns: 1.8e308 here
        with pytest.raises(ResourceLimitError, match="overflows a float"):
            SubdivisionTree(3.92e-306, 709.0)
        assert SubdivisionTree(3.92e-306, 1.0).row_ends()[0] > 10**305

    def test_exact_at_dyadic_depth(self):
        # alpha = 1/2 halves every tile: 2**1001 leaves, a 302-digit count
        assert count_tiles(0.5, 1000.5 * math.log(2.0)) == 2**1001

    def test_small_alpha_counts_without_a_memo(self):
        # the per-node memo took 336 MiB for (1e-5, 12) and ran out of
        # memory for (1e-6, 14)
        count_tiles(0.3, 1.0)
        tracemalloc.start()
        try:
            counts = [count_tiles(1e-5, 12.0), count_tiles(1e-6, 14.0)]
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert min(counts) > engine.DEFAULT_TILE_CAP


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

    def test_memory_budget(self, monkeypatch):
        # a patch is refused on its tiles' bytes, with the patch and its
        # rendering, whatever the tile cap
        assert engine.MEMORY_BUDGET == 2 << 30
        most = (2 << 30) // engine.TILE_BYTES
        engine.check_tile_cap(most, engine.DEFAULT_TILE_CAP)
        with pytest.raises(ResourceLimitError, match="above the memory budget of 2 GiB"):
            engine.check_tile_cap(most + 1, engine.DEFAULT_TILE_CAP)
        count = count_tiles(0.3, 6.0)
        monkeypatch.setattr(engine, "MEMORY_BUDGET", count * engine.TILE_BYTES)
        assert len(generate_patch(0.3, 6.0, max_tiles=count)) == count
        monkeypatch.setattr(engine, "MEMORY_BUDGET", count * engine.TILE_BYTES - 1)
        with pytest.raises(ResourceLimitError, match=f"contain {count} tiles, above the memory budget"):
            generate_patch(0.3, 6.0, max_tiles=10 * count)

    def test_rejects_negative_time(self):
        with pytest.raises(ParameterError):
            generate_patch(0.3, -1.0)


class TestPositionBits:
    """Each float position is the exact position terms of the per-node
    walk added up term by term, in ascending order; bit for bit, not
    within a tolerance."""

    @pytest.mark.parametrize("alpha", [0.5, 0.45, 0.4, 1.0 / 3.0, 0.3, 0.2, 0.1])
    @pytest.mark.parametrize("t", [0.0, 1.0, 2.5, 5.0, 7.0])
    def test_multiscale_patch(self, alpha, t):
        beta = 1.0 - alpha
        scale = math.exp(t)
        for offset in (0.5, 0.0, 1.0):
            anchor = -offset * scale
            patch = generate_patch(alpha, t, origin_offset=offset)
            _pairs, _positions, _lengths, terms = patch_per_node(alpha, t, offset)
            assert patch.positions() == tuple(
                anchor + scale * ascending_fold(path, lambda ab: alpha ** ab[0] * beta ** ab[1])
                for path in terms
            )

    @pytest.mark.parametrize("n,m", [(2, 1), (3, 1), (3, 2), (4, 3), (5, 2), (7, 3), (1, 1)])
    def test_commensurable_patch(self, n, m):
        xi = solve_alpha(n, m) ** (-1.0 / n)
        for ell in (0, 1, 4, 11, 20):
            if count_tiles_commensurable(n, m, ell) > 5000:
                break
            patch = generate_patch_commensurable(n, m, ell)
            _exponents, terms = xi_patch_per_node(n, m, ell)
            assert patch.positions() == tuple(ascending_fold(path, lambda p: xi**p) for path in terms)


class TestLeafWalks:
    """The row-run walks give, with ==, the leaves of the walks that test
    and push both children of every node: their positions, lengths and
    labels, and the float fold of their exact position terms."""

    @pytest.mark.parametrize("seed", range(3))
    def test_multiscale_equals_the_per_node_walk(self, seed):
        for k, (alpha, t) in enumerate(walk_cases(f"patch:{seed}", 40, max_tiles=600)):
            offset = (0.5, 0.0, 1.0, 0.3)[k % 4]
            patch = generate_patch(alpha, t, origin_offset=offset)
            _pairs, positions, lengths, terms = patch_per_node(alpha, t, offset)
            assert patch.positions() == tuple(positions)
            assert patch.lengths() == tuple(lengths)
            assert patch.labels() == (None,) * len(positions)
            beta, scale = 1.0 - alpha, math.exp(t)
            assert patch.positions() == tuple(
                -offset * scale
                + scale * ascending_fold(path, lambda ab: alpha ** ab[0] * beta ** ab[1])
                for path in terms
            )

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (3, 2), (5, 3), (7, 3), (9, 2), (41, 20)])
    def test_commensurable_equals_the_per_node_walk(self, n, m):
        xi = solve_alpha(n, m) ** (-1.0 / n)
        for ell in (0, 1, 2, n, n + m, 17, 45):
            if count_tiles_commensurable(n, m, ell) > 20000:
                continue
            patch = generate_patch_commensurable(n, m, ell)
            exponents, terms = xi_patch_per_node(n, m, ell)
            assert patch.lengths() == tuple(xi**e for e in exponents)
            assert patch.positions() == tuple(ascending_fold(path, lambda p: xi**p) for path in terms)
            assert patch.labels() == (None,) * len(exponents)

    @pytest.mark.parametrize(
        "rule",
        [build_rho(2, 1), build_rho(3, 2), build_rho(7, 3), build_rho(13, 5),
         build_three_interval_rule(3, 2, 1), build_three_interval_rule(2, 2, 1),
         build_three_interval_rule(5, 3, 3), build_three_interval_rule(7, 4, 1)],
        ids=["2/1", "3/2", "7/3", "13/5", "3,2,1", "2,2,1", "5,3,3", "7,4,1"],
    )
    def test_fixed_scale_equals_the_per_node_walk(self, rule):
        xi = rule.xi
        for ell in (0, 1, 2, 5, 9, 14):
            patch = iterate_primitive(rule, ell)
            labels, terms = rule_patch_per_node(rule, ell)
            assert list(patch.labels()) == labels
            assert patch.lengths() == tuple(xi ** -rule.length_exponent(label) for label in labels)
            assert patch.positions() == tuple(ascending_fold(path, lambda p: xi**p) for path in terms)

    @pytest.mark.parametrize("n,m", coprime_pairs(9))
    def test_fixed_scale_equals_the_commensurable_patch(self, n, m):
        # the labelled patch of the covering rule is the plain recursion's
        # patch, float for float, labels aside; the labels tell them apart
        top = 0
        while count_tiles_commensurable(n, m, top + 1) <= 10**4:
            top += 1
        for ell in sorted({0, 1, m, n, n + m, top // 2, top}):
            fixed = iterate_primitive(build_rho(n, m), ell)
            plain = generate_patch_commensurable(n, m, ell)
            assert fixed.positions() == plain.positions()
            assert fixed.lengths() == plain.lengths()
            assert fixed.support == plain.support
            assert fixed != plain
            assert plain == generate_patch_commensurable(n, m, ell)


_HUB_RULES = [build_rho(2, 1), build_rho(3, 2), build_rho(7, 3),
              build_three_interval_rule(3, 2, 1), build_three_interval_rule(2, 2, 1),
              build_three_interval_rule(7, 4, 1)]
_HUB_IDS = ["2/1", "3/2", "7/3", "3,2,1", "2,2,1", "7,4,1"]


class TestHubRecursion:
    """``hub_patch`` builds the leaves below a hub once per step count;
    the per-node walks above check its bits."""

    @pytest.mark.parametrize("labelled", [False, True])
    @pytest.mark.parametrize("rule", _HUB_RULES, ids=_HUB_IDS)
    def test_the_first_position_is_the_integer_zero(self, rule, labelled):
        # the leading int 0 is in the JSON bytes of a commensurable patch
        for ell in (0, 1, rule.loops[0], 14):
            positions = engine.hub_patch(rule.loops, rule.xi, ell, labelled).positions()
            assert type(positions[0]) is int and positions[0] == 0
            assert all(type(x) is float for x in positions[1:])

    def test_leaves_below_a_hub_are_dropped_after_their_last_read(self):
        # a leaf's position float and its entries in three lists and three
        # tuples take about 72 bytes; the leaves below a hub with k steps to
        # go were kept past their last read whenever k + 100 > ell, some
        # 1,000 bytes a tile of the patch at 250 steps
        rule = build_rho(100, 1)
        count = count_tiles_commensurable(100, 1, 250)
        tracemalloc.start()
        try:
            patch = engine.hub_patch(rule.loops, rule.xi, 250, labelled=True)
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(patch) == count == 33676
        assert peak < 3 * 72 * count

    @pytest.mark.parametrize("labelled", [False, True])
    @pytest.mark.parametrize("rule", _HUB_RULES, ids=_HUB_IDS)
    def test_zero_steps_is_the_hub(self, rule, labelled):
        patch = engine.hub_patch(rule.loops, rule.xi, 0, labelled)
        assert patch.lengths() == (1.0,) and type(patch.lengths()[0]) is float
        assert patch.labels() == ((1,) if labelled else (None,))
        assert patch.support == (0.0, 1.0)


class TestColumns:
    """A patch's rows are its columns side by side, and each length is
    the one the per-node walk gives its leaf."""

    @staticmethod
    def assert_rows_are_the_columns(patch):
        tiles = patch.tiles
        assert len(tiles) == len(patch)
        assert patch.positions() == tuple(tile.position_value for tile in tiles)
        assert patch.lengths() == tuple(tile.length_value for tile in tiles)
        assert patch.labels() == tuple(tile.label for tile in tiles)

    @pytest.mark.parametrize("alpha,t", [(0.5, 0.0), (0.3, 4.0), (0.41, 7.5), (0.12, 6.0)])
    def test_multiscale(self, alpha, t):
        patch = generate_patch(alpha, t, origin_offset=0.25)
        self.assert_rows_are_the_columns(patch)
        beta = 1.0 - alpha
        pairs = patch_per_node(alpha, t, 0.25)[0]
        assert patch.lengths() == tuple(math.exp(t) * alpha**a * beta**b for a, b in pairs)

    @pytest.mark.parametrize("n,m,ell", [(1, 1, 5), (2, 1, 9), (3, 2, 14), (7, 3, 25)])
    def test_commensurable(self, n, m, ell):
        patch = generate_patch_commensurable(n, m, ell)
        self.assert_rows_are_the_columns(patch)
        xi = solve_alpha(n, m) ** (-1.0 / n)
        exponents = xi_patch_per_node(n, m, ell)[0]
        assert patch.lengths() == tuple(xi**e for e in exponents)

    @pytest.mark.parametrize(
        "rule",
        [build_rho(2, 1), build_rho(5, 3), build_three_interval_rule(3, 2, 1), build_three_interval_rule(2, 2, 1)],
        ids=["2/1", "5/3", "3,2,1", "2,2,1"],
    )
    def test_fixed_scale(self, rule):
        patch = iterate_primitive(rule, 9)
        self.assert_rows_are_the_columns(patch)
        labels = rule_patch_per_node(rule, 9)[0]
        assert patch.lengths() == tuple(
            rule.xi ** -rule.length_exponent(label) for label in labels
        )


@pytest.mark.parametrize(
    "call",
    [
        lambda ell: iterate_primitive(build_rho(3, 2), ell),
        lambda ell: verify_cover(3, 2, ell),
        lambda ell: generate_patch_commensurable(3, 2, ell),
        lambda ell: count_tiles_commensurable(3, 2, ell),
    ],
    ids=["iterate_primitive", "verify_cover", "generate_patch_commensurable", "count_tiles_commensurable"],
)
def test_every_step_entry_point_refuses_a_bad_step_count(call):
    # one check: a float got through as a TypeError from range()
    for ell, message in [(-1, "ell must be nonnegative"), (2.5, "ell must be an integer, got 2.5"),
                         (3.0, "ell must be an integer, got 3.0"), ("3", "ell must be an integer, got '3'")]:
        with pytest.raises(ParameterError) as refused:
            call(ell)
        assert str(refused.value) == message


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
        assert patch.positions() == pytest.approx((0.0, 1.0, 5.0 / 3.0, 19.0 / 9.0))
        assert patch.support == pytest.approx((0.0, 3.0))


class TestChabautyFell:
    def window_set(self, values, window=(-50.0, 50.0)):
        return tuple(sorted(set(values))), window

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

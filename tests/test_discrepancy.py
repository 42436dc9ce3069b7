import math
import random
from itertools import accumulate
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kakutani import (
    Commensurable,
    ParameterError,
    ResourceLimitError,
    cover,
    discrepancy,
    discrepancy_scan,
    dyadic_windows,
    engine,
    generate_patch,
    growth_fit,
    solve_alpha,
)
from kakutani.discrepancy import DiscrepancySeries, asymptotic_density, prefix_count
from kakutani.engine import SubdivisionTree, count_tiles
from kakutani.params import Incommensurable, r_of_alpha
from kakutani.spectral import MAX_SPECTRAL_DEGREE

from conftest import (
    TwoPassProfile,
    brute_boundaries,
    brute_count_tiles,
    direct_scan_per_node,
    leaves_upto_per_node,
    prefix_count_per_node,
    walk_cases,
)

GOLDEN_ALPHA = 0.38196601125010515  # solve_alpha(2, 1)


class CountingMath:
    """``math`` for the engine, counting the widths it works out: each
    ``exp`` and ``expm1`` call."""

    def __init__(self):
        self.widths = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def exp(self, x):
        self.widths += 1
        return math.exp(x)

    def expm1(self, x):
        self.widths += 1
        return math.expm1(x)


def row_boundaries(alpha, t, count):
    """Left endpoints of the first ``count`` leaf children along row 0 of
    a depth-t tree with t < |log alpha|, by the float sums of their
    widths: the tile boundaries a leaf row's prefix count runs along."""
    la, lb = math.log(alpha), math.log1p(-alpha)
    left, out = 0.0, [0.0]
    for b in range(count):
        left += math.exp(t + la + b * lb)
        out.append(left)
    return out


class TestDensity:
    def test_closed_form_at_half(self):
        # forcing the incommensurable branch at alpha = 1/2 gives the
        # entropy formula 1/log 2
        value = asymptotic_density(0.5, ratio=Incommensurable(r=1.0))
        assert value.method == "closed_form"
        assert value.value == pytest.approx(1.0 / math.log(2.0), abs=1e-12)

    def test_detected_half_is_lattice(self):
        # detection classifies 1/2 as the lattice ratio, density one
        value = asymptotic_density(0.5)
        assert value.method == "perron"
        assert value.value == 1.0

    def test_one_third_closed_form(self):
        alpha = 1.0 / 3.0
        entropy = -alpha * math.log(alpha) - (2.0 / 3.0) * math.log(2.0 / 3.0)
        value = asymptotic_density(alpha)
        assert value.method == "closed_form"
        assert value.value == pytest.approx(1.0 / entropy, abs=1e-12)

    def test_golden_perron(self):
        value = asymptotic_density(GOLDEN_ALPHA, ratio=Commensurable(2, 1))
        assert value.method == "perron"
        # cross-check against the empirical count at a deep whole step
        alpha = solve_alpha(2, 1)
        g = math.log(1.0 / alpha) / 2.0
        ell = 30
        t = ell * g
        empirical = count_tiles(alpha, t) / math.exp(t)
        assert value.value == pytest.approx(empirical, rel=1e-9)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ParameterError):
            asymptotic_density(0.9)

    def test_perron_degree_is_bounded(self, monkeypatch):
        def unbuilt(rule):
            raise AssertionError(f"built a matrix for {rule.loops}")

        monkeypatch.setattr(cover, "substitution_matrix", unbuilt)
        ratio = Commensurable(MAX_SPECTRAL_DEGREE + 1, MAX_SPECTRAL_DEGREE)
        with pytest.raises(ResourceLimitError, match="above the limit"):
            asymptotic_density(solve_alpha(ratio.n, ratio.m), ratio)

    @pytest.mark.parametrize("n,m", [(3, 2), (7, 3), (11, 4)])
    def test_perron_density_is_kept_per_ratio(self, monkeypatch, n, m):
        # the same bits as a fresh eigensolve, and no second eigensolve
        ratio = Commensurable(n, m)
        fresh = discrepancy._perron_density.__wrapped__(n, m)
        assert asymptotic_density(solve_alpha(n, m), ratio).value == fresh

        def unsolved(matrix):
            raise AssertionError("solved the eigenproblem again")

        monkeypatch.setattr(np.linalg, "eig", unsolved)
        assert asymptotic_density(solve_alpha(n, m), ratio).value == fresh


class TestPrefixCount:
    def test_small_patch_by_hand(self):
        # depth log 3 at alpha = 1/3 subdivides [0, 3] into tiles of
        # lengths 1, 2/3, 4/9, 8/9 with left endpoints 0, 1, 5/3, 19/9
        alpha = 1.0 / 3.0
        t = math.log(3.0)
        assert prefix_count(alpha, t, 0.0) == 1
        assert prefix_count(alpha, t, 0.9999) == 1
        assert prefix_count(alpha, t, 1.0) == 2
        assert prefix_count(alpha, t, 5.0 / 3.0) == 3
        assert prefix_count(alpha, t, 19.0 / 9.0) == 4
        assert prefix_count(alpha, t, 3.0) == 4

    @pytest.mark.parametrize("alpha", [1.0 / 3.0, GOLDEN_ALPHA, 0.41])
    @pytest.mark.parametrize("t", [2.5, 5.0, 8.0])
    def test_matches_brute_enumeration(self, alpha, t):
        boundaries = brute_boundaries(alpha, t)
        support = math.exp(t)
        for x in np.linspace(0.0, support, 37):
            want = sum(1 for p in boundaries if p <= x)
            assert prefix_count(alpha, t, x) == want, x

    def test_total_equals_count_tiles(self):
        for alpha in (0.25, 1.0 / 3.0, GOLDEN_ALPHA):
            for t in (3.0, 7.0, 11.0):
                tree = SubdivisionTree(alpha, t)
                assert tree.leaves() == count_tiles(alpha, t)
                assert tree.leaves() == brute_count_tiles(alpha, t)
                assert tree.prefix_count(tree.support) == tree.leaves()

    def test_monotone_in_x(self):
        alpha = 0.3
        t = 6.0
        xs = np.linspace(0.0, math.exp(t), 101)
        counts = [prefix_count(alpha, t, float(x)) for x in xs]
        assert all(b >= a for a, b in zip(counts, counts[1:]))

    def test_equals_the_per_step_descent(self):
        # small alphas give long rows of leaf children, where the count
        # returns on a bound instead of stepping: it must return the
        # count the steps would reach
        rng = random.Random("stop")
        for alpha, t in walk_cases("stop", 24):
            tree = SubdivisionTree(alpha, t)
            for x in [tree.support] + [rng.uniform(0.0, tree.support) for _ in range(5)]:
                assert tree.prefix_count(x) == prefix_count_per_node(alpha, t, x)

    def test_a_long_row_of_leaf_children(self, monkeypatch):
        # row 0 has 1e9 leaf children, 7e8 of them below x = 2: a step
        # each took 0.5 s to pass a million
        counter = CountingMath()
        monkeypatch.setattr(engine, "math", counter)
        tree = SubdivisionTree(1e-9, 1.0)
        assert tree.prefix_count(2.0) > 10**8
        assert tree.prefix_count(1e-6) == prefix_count_per_node(1e-9, 1.0, 1e-6)
        assert counter.widths < 1000

    def test_a_leaf_row_in_closed_form(self, monkeypatch):
        # 7,384,789 leaf children of row 0 lie below 0.02, and the count
        # of the single row works out O(1) widths, not one a step
        tree = SubdivisionTree(1e-9, 1.0)
        assert len(tree.row_ends()) == 1
        counter = CountingMath()
        monkeypatch.setattr(engine, "math", counter)
        assert tree.prefix_count(0.02) == 7384790
        assert counter.widths < 200
        monkeypatch.undo()
        # the same count by the float sums, one step at a time, on a
        # stretch short enough to step through: on tile boundaries and a
        # few ulps to either side, where the float sums have drifted from
        # the real ones by more than their last bits
        sums = row_boundaries(1e-9, 1.0, 80000)
        rng = random.Random("leaf row")
        for j in [2, 9, 10, 11, 400] + rng.sample(range(20, 80000), 12):
            for ulps in (0, 1, -1, 3, -3, 16, -16):
                x = sums[j] + ulps * math.ulp(sums[j])
                assert tree.prefix_count(x) == sum(1 for s in sums if s <= x), (j, ulps)

    @pytest.mark.parametrize("exponent", [3, 4, 5, 6, 7])
    def test_leaf_rows_on_their_boundaries(self, exponent):
        # The count along a row of leaf children comes from a logarithm
        # and a band around the float sums; on a tile boundary, and one
        # ulp to either side of it, x sits inside the band, where the
        # float sums decide.  Every other t lies on the lattice of the
        # leaf test, within 2e-12 of it.
        rng = random.Random(f"leaf rows {exponent}")
        for k in range(6):
            alpha = 10.0 ** -rng.uniform(exponent - 0.5, exponent + 0.5)
            la, lb = math.log(alpha), math.log1p(-alpha)
            t = rng.uniform(0.0, -la)
            if k % 2:
                t = max(0.0, int(t / -lb) * -lb + rng.choice([0.0, 1e-12, -1e-12, 2e-12]))
            tree = SubdivisionTree(alpha, t)
            steps = min(tree.row_ends()[0] + 1, 3000) if tree.row_ends() else 0
            sums = row_boundaries(alpha, t, steps)
            for j in sorted(rng.sample(range(len(sums)), min(4, len(sums)))) + [len(sums) - 1]:
                for x in (sums[j], math.nextafter(sums[j], 0.0), math.nextafter(sums[j], math.inf)):
                    if 0.0 <= x <= tree.support:
                        want = prefix_count_per_node(alpha, t, x)
                        assert tree.prefix_count(x) == want, (alpha, t, x)

    def test_runs_over_internal_children(self):
        # Rows whose left children are internal for thousands of columns:
        # the hockey-stick sums of a run's leaves against the per-node
        # memo, through the per-step descent.
        rng = random.Random("internal runs")
        for _ in range(12):
            alpha = 10.0 ** -rng.uniform(2.5, 4.0)
            la, lb = math.log(alpha), math.log1p(-alpha)
            t = -la * rng.uniform(1.05, 2.5)
            tree = SubdivisionTree(alpha, t)
            if tree.internal_pairs() > 30000:
                continue
            for x in [tree.support] + [rng.uniform(0.0, tree.support) for _ in range(4)]:
                assert tree.prefix_count(x) == prefix_count_per_node(alpha, t, x)

    @pytest.mark.parametrize("alpha,t", [(0.45, 45.0), (0.4, 50.0), (0.3, 60.0)])
    def test_steps_stop_at_widths_that_cannot_move_the_sum(self, monkeypatch, alpha, t):
        # Deep in these trees a run along a row reaches widths below half
        # an ulp of the sum: ``_steps`` stops there instead of adding
        # them, and the count is that of a descent that adds every width.
        stalled = []

        def every_width(self, base, b, left, x, most):
            for j in range(most):
                right = left + math.exp(base + (b + j) * self.lb)
                if x < right:
                    return j, left
                if right == left:
                    stalled.append(j)
                left = right
            return most, left

        tree = SubdivisionTree(alpha, t)
        for frac in (1.0, 0.75, 0.5):
            x = frac * tree.support
            got = tree.prefix_count(x)
            stalled.clear()
            with monkeypatch.context() as patched:
                patched.setattr(SubdivisionTree, "_steps", every_width)
                assert got == tree.prefix_count(x), (alpha, t, frac)
            assert stalled, "no width too small to move the sum"

    def test_rejects_out_of_range(self):
        with pytest.raises(ParameterError):
            prefix_count(1.0 / 3.0, 2.0, -0.5)
        with pytest.raises(ParameterError):
            prefix_count(1.0 / 3.0, 2.0, math.exp(2.0) * 1.5)


class TestScan:
    def test_profile_equals_direct(self):
        for alpha in (1.0 / 3.0, GOLDEN_ALPHA, 0.47):
            t = 9.0
            windows = dyadic_windows(0, int(t / math.log(2.0)))
            fast = discrepancy_scan(alpha, t, windows, mode="profile")
            slow = discrepancy_scan(alpha, t, windows, mode="direct")
            assert fast.max_disc == pytest.approx(slow.max_disc, abs=1e-9)

    def test_direct_equals_per_node_walk(self):
        # bit for bit: the per-pair tables give the floats of a walk that
        # works out every node on its own
        rng = random.Random(20261018)
        cases = [(rng.uniform(0.05, 0.5), rng.uniform(0.0, 9.5)) for _ in range(26)]
        cases += [(0.5, 6.0), (1.0 / 3.0, 8.0), (GOLDEN_ALPHA, 9.0), (solve_alpha(3, 2), 7.5)]
        # t on the lattice i*|log alpha| + j*|log(1-alpha)|, or within 2e-12
        cases += walk_cases("direct", 40)
        for i, (alpha, t) in enumerate(cases):
            support = math.exp(t)
            # every third grid lies below the first tile's right end
            top = rng.uniform(0.0, alpha) if i % 3 == 0 else rng.uniform(0.01, 1.0) * support
            windows = tuple(top / 2.0**j for j in range(6, -1, -1))
            series = discrepancy_scan(alpha, t, windows, mode="direct")
            assert series.max_disc == direct_scan_per_node(alpha, t, series.density, windows)
            # windows on points, the last of them kept by the walk
            points = list(leaves_upto_per_node(alpha, t, support))
            windows = tuple(sorted(set(rng.sample(points, min(3, len(points))))))
            series = discrepancy_scan(alpha, t, windows, mode="direct")
            assert series.max_disc == direct_scan_per_node(alpha, t, series.density, windows)

    def test_direct_scan_streams(self):
        # 260,045 leaves, each handled where the walk finds it: a list of
        # their float positions alone would hold over 8 MB.  (Tracing
        # makes the walk some 30 times slower, so the tree is no larger.)
        alpha, t = 1.0 / 3.0, 12.0
        leaves = count_tiles(alpha, t)
        windows = (math.exp(t) / 64.0, math.exp(t) / 2.0, math.exp(t))
        discrepancy_scan(alpha, 3.0, (1.0,), mode="direct")
        tracemalloc.start()
        try:
            series = discrepancy_scan(alpha, t, windows, mode="direct")
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert series.max_disc[-1] >= abs(leaves - series.density * math.exp(t))

    def test_small_alpha_table_follows_the_walk(self, monkeypatch):
        # For a small alpha, row 0 of the tree is long: 12M nodes at alpha
        # 1e-6 and t = 12, of which a scan to 16 reaches about a hundred.
        # The table holds a few ids per leaf the walk reaches, not the row.
        sizes = []
        walk_shape = SubdivisionTree.walk_shape

        def recorded(self, *args):
            rows, row = walk_shape(self, *args)
            sizes.append(rows * row)
            return rows, row

        monkeypatch.setattr(SubdivisionTree, "walk_shape", recorded)
        cases = [
            (1e-6, 12.0, 16.0),
            (1e-4, 11.98, 16.0),  # row 1 reached to its last node
            (1e-3, 12.0, 64.0),
            (1.15e-5, 6.741, 17.08),
            (2.95e-5, 8.035, 17.37),
            (3.79e-5, 0.985, 2.0),
            (0.00211, 4.197, 52.15),
            (0.000739, 11.351, 23.54),
            (1.55e-6, 7.292, 1e-3),  # inside the first tile
            (0.0168, 0.244, 35.46),  # past the support
        ]
        for alpha, t, upto in cases:
            windows = (min(upto, math.exp(t)) / 4.0, min(upto, math.exp(t)))
            series = discrepancy_scan(alpha, t, windows, mode="direct")
            assert series.max_disc == direct_scan_per_node(alpha, t, series.density, windows)
            walked = sum(1 for _ in leaves_upto_per_node(alpha, t, windows[-1]))
            assert sizes[-1] <= 5 * walked + 16

    def test_long_leaf_row_refused_in_closed_form(self, monkeypatch):
        # The table of a scan to 0.2 would hold 3 rows of 7.4e7 ids: it is
        # refused from the row's closed form, before any count, any table
        # or any walk along the row; today's bound refused it after 25 s.
        counter = CountingMath()
        monkeypatch.setattr(engine, "math", counter)

        def no_count(*args, **kwargs):
            raise AssertionError("counted or built before the table was refused")

        monkeypatch.setattr(SubdivisionTree, "prefix_count", no_count)
        monkeypatch.setattr(SubdivisionTree, "walk_steps", no_count)
        with pytest.raises(ResourceLimitError, match="walk table of 3 x"):
            discrepancy_scan(1e-9, 1.0, [0.2], mode="direct")
        assert counter.widths < 200

    def test_window_at_the_support_refused_from_the_bands(self, monkeypatch):
        # row 0 has some 2.5e7 left children, and the window, the support,
        # lies within the bands of the float sums of the last few million:
        # stepping through them to size the table, and the exact count
        # after it, took 5 s to refuse what the bands refuse at once
        counter = CountingMath()
        monkeypatch.setattr(engine, "math", counter)

        def no_count(*args, **kwargs):
            raise AssertionError("counted exactly past the lower bound")

        monkeypatch.setattr(SubdivisionTree, "prefix_count", no_count)
        with pytest.raises(ResourceLimitError, match="walks more than 100000000 leaves"):
            discrepancy_scan(1e-6, 25.0, [72004899337.38588], mode="direct")
        assert counter.widths < 1000

    def test_bands_bound_the_walk(self):
        # on the support and on float sums along row 0, where a band holds
        # x: the table reaches past the right steps the walk takes along
        # row 0, and the leaves the bands vouch for are at most the count
        rng = random.Random("bands")
        checked = 0
        for alpha, t in walk_cases("bands", 40):
            tree = SubdivisionTree(alpha, t)
            ends = tree.row_ends()
            if not ends:
                continue
            sums = list(accumulate(tree.row_widths(1, ends[0] + 1)))
            for x in [tree.support, *rng.sample(sums, min(4, len(sums)))]:
                reach = sum(1 for s in sums if s <= x)
                assert tree.walk_shape(0, x)[1] >= reach + 2
                assert tree.least_leaves_upto(0, x) <= prefix_count_per_node(alpha, t, x)
                checked += 1
        assert checked > 100

    def test_walk_table_refused_before_it_is_built(self, monkeypatch):
        tree = SubdivisionTree(0.3, 10.0)
        rows, row = tree.walk_shape()
        steps = tree.walk_steps(rows, row, 0, lambda a, n: tree.row_widths(a + 1, n))
        assert len(steps) % row == 0 and len(steps) <= rows * row
        monkeypatch.setattr(engine, "DEFAULT_TILE_CAP", rows * row - 1)
        with pytest.raises(ResourceLimitError):
            tree.walk_shape()

        def unbuilt(*args):
            raise AssertionError("a walk table built past the cap")

        # both walks size their table first
        monkeypatch.setattr(SubdivisionTree, "walk_steps", unbuilt)
        with pytest.raises(ResourceLimitError, match="walk table"):
            generate_patch(0.3, 10.0)
        with pytest.raises(ResourceLimitError, match="walk table"):
            discrepancy_scan(0.3, 10.0, [math.exp(10.0)], mode="direct")
        # the sums along row top stop at the cap too: this row has 1e9 nodes
        monkeypatch.setattr(engine, "DEFAULT_TILE_CAP", 1000)
        with pytest.raises(ResourceLimitError):
            SubdivisionTree(1e-9, 1.0).walk_shape(0, 1.0)

    def test_direct_refuses_large_walks_up_front(self, monkeypatch):
        # the exact count of the leaves to walk decides, before the walk
        # table is built
        window = 2.0**12
        walk = SubdivisionTree(0.3, 10.0).prefix_count(window)
        monkeypatch.setattr(discrepancy, "DEFAULT_TILE_CAP", walk)
        discrepancy_scan(0.3, 10.0, [window], mode="direct")
        # the estimate density * window guessed about 1.08e6 leaves here,
        # where the scan walks 99
        discrepancy_scan(1e-6, 12.0, [16.0], mode="direct")

        # every refusal comes before the scan builds its table
        def unbuilt(*args):
            raise AssertionError("a walk table built before the refusal")

        monkeypatch.setattr(SubdivisionTree, "walk_steps", unbuilt)
        monkeypatch.setattr(discrepancy, "DEFAULT_TILE_CAP", walk - 1)
        with pytest.raises(ResourceLimitError):
            discrepancy_scan(0.3, 10.0, [window], mode="direct")
        monkeypatch.setattr(discrepancy, "DEFAULT_TILE_CAP", 10**8)
        with pytest.raises(ResourceLimitError):
            discrepancy_scan(0.3, 700.0, [16.0, 2.0**1000], mode="direct")
        density = asymptotic_density(0.3).value
        with pytest.raises(ResourceLimitError):
            discrepancy_scan(0.3, 40.0, [1.01e8 / density], mode="direct")

    @pytest.mark.parametrize("seed", range(3))
    def test_profile_equals_the_two_pass_profile(self, seed):
        rng = random.Random(f"profile:{seed}")
        scans = []
        # ten scans, commensurable (3/2, 7/3, 2/1) and irrational, windows
        # from 2 to the whole support
        for k in range(10):
            if k % 2:
                n, m = rng.choice([(3, 2), (7, 3), (2, 1)])
                alpha = solve_alpha(n, m)
                t = rng.randint(8, 40) * math.log(1.0 / alpha) / n
                ratio = Commensurable(n, m)
            else:
                alpha, t, ratio = rng.uniform(0.05, 0.5), rng.uniform(3.0, 18.0), None
            top = int(t / math.log(2.0))
            windows = tuple(
                w for w in (2.0**e * rng.uniform(1.0, 1.4) for e in range(1, top + 1))
                if w < math.exp(t)
            ) + (math.exp(t),)
            scans.append((alpha, t, windows, ratio))
        # small windows only, led by the window 0, on trees to t = 40:
        # the table stays partly filled
        for _ in range(4):
            alpha, t = rng.uniform(0.05, 0.5), rng.uniform(25.0, 40.0)
            windows = (0.0,) + tuple(2.0**e * rng.uniform(1.0, 1.4) for e in range(10))
            scans.append((alpha, t, windows, None))
        # alpha from 1e-3 to 0.05: long rows of leaf children
        for _ in range(3):
            alpha, t = 10.0 ** rng.uniform(-3.0, -1.3), rng.uniform(2.0, 8.0)
            support = SubdivisionTree(alpha, t).support
            inner = sorted(rng.uniform(0.0, support) for _ in range(6))
            scans.append((alpha, t, (0.0, *inner, support), None))
        # every tile boundary and its two float neighbours as windows: a
        # few land where rounding puts x past the end of a node the
        # descent stepped right into, so the descent ends on that node
        for _ in range(8):
            alpha, t = rng.uniform(0.05, 0.5), rng.uniform(2.0, 7.0)
            support = SubdivisionTree(alpha, t).support
            windows = sorted({
                w
                for p in brute_boundaries(alpha, t)
                for w in (math.nextafter(p, 0.0), p, math.nextafter(p, math.inf))
                if w <= support
            })
            scans.append((alpha, t, tuple(windows), None))
        # two unit tiles: alpha = 1/2 at t = log 2
        t = math.log(2.0)
        scans.append((0.5, t, (0.0, 0.5, 1.0, 1.5, SubdivisionTree(0.5, t).support), None))
        for alpha, t, windows, ratio in scans:
            series = discrepancy_scan(alpha, t, windows, ratio=ratio)
            oracle = TwoPassProfile(alpha, t, series.density)
            assert series.max_disc == tuple(oracle.max_abs_upto(w) for w in windows)

    def test_profile_rows_equal_the_two_pass_memos(self):
        # after _fill(0) every row holds an entry for each of its nodes,
        # internal and leaf, equal bit for bit to the per-pair memos
        internal = leaf = 0
        for alpha, t in walk_cases("table", 24):
            tree = SubdivisionTree(alpha, t)
            density = asymptotic_density(alpha).value
            profile = discrepancy._DeviationProfile(tree, density)
            profile._fill(0)
            oracle = TwoPassProfile(alpha, t, density)
            ends = tree.row_ends() + [-1]
            assert profile._top == 0
            for a in range(len(ends)):
                columns = ends[max(a - 1, 0)] + 2
                assert len(profile._hi[a]) == len(profile._lo[a]) == columns
                assert len(profile._count[a]) == columns
                for b in range(columns):
                    assert (profile._hi[a][b], profile._lo[a][b]) == oracle.tables(a, b)
                    assert profile._count[a][b] == oracle.leaves(a, b)
                    assert profile._widths[a][b] == oracle.width(a, b)
                    if oracle.is_leaf(a, b):
                        leaf += 1
                    else:
                        internal += 1
        assert internal and leaf

    def test_profile_fills_only_the_rows_its_descents_request(self):
        # discrepancy --t 700 with small windows: a descent walks along
        # the row of the spine node (a, 0) whose left child first fits in
        # [0, x], and the rows from the shallowest such row down are
        # filled whole; the rows above stay empty
        alpha, t = 0.3, 700.0
        tree = SubdivisionTree(alpha, t)
        ends = tree.row_ends()
        profile = discrepancy._DeviationProfile(tree, asymptotic_density(alpha).value)
        windows = dyadic_windows(0, 12)
        for w in windows:
            profile.max_abs_upto(w)
        top = min(
            next(a for a in range(1, len(ends) + 1) if tree.row_widths(a, 1)[0] <= w)
            for w in windows
        )
        assert profile._top == top - 1
        assert not any(profile._hi[a] for a in range(profile._top))
        filled = sum(ends[a] + 1 for a in range(profile._top, len(ends)))
        assert filled < tree.internal_pairs()

    def test_profile_table_refused_before_it_is_built(self, monkeypatch):
        tree = SubdivisionTree(0.3, 10.0)
        pairs = tree.internal_pairs()
        monkeypatch.setattr(discrepancy, "DEFAULT_TILE_CAP", pairs)
        discrepancy_scan(0.3, 10.0, [2.0**14])
        monkeypatch.setattr(discrepancy, "DEFAULT_TILE_CAP", pairs - 1)
        with pytest.raises(ResourceLimitError):
            discrepancy_scan(0.3, 10.0, [2.0])
        # 5e8 pairs in row 0: refused from the staircase alone
        monkeypatch.setattr(discrepancy, "DEFAULT_TILE_CAP", 10**8)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError):
                discrepancy_scan(1e-9, 0.5, [1.0])
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_rejects_bad_windows(self):
        for bad in (-1.0, math.inf, math.nan):
            for mode in ("profile", "direct"):
                with pytest.raises(ParameterError):
                    discrepancy_scan(1.0 / 3.0, 2.0, [bad], mode=mode)

    def test_dyadic_grid_stays_in_the_float_range(self):
        assert dyadic_windows(-1074, -1073) == (2.0**-1074, 2.0**-1073)
        assert dyadic_windows(1022, 1023) == (2.0**1022, 2.0**1023)
        for low, high in ((-1075, 2), (4, 1024), (4, 2000)):
            with pytest.raises(ParameterError, match="float range"):
                dyadic_windows(low, high)

    def test_series_fields(self):
        alpha = 1.0 / 3.0
        series = discrepancy_scan(alpha, 10.0, dyadic_windows(2, 10))
        assert series.alpha == alpha
        assert series.density_method == "closed_form"
        assert len(series.windows) == len(series.max_disc) == 9
        assert all(v >= 0.0 for v in series.max_disc)

    def test_maxima_never_shrink(self):
        series = discrepancy_scan(0.29, 12.0, dyadic_windows(0, 17))
        pairs = zip(series.max_disc, series.max_disc[1:])
        assert all(b >= a - 1e-9 for a, b in pairs)

    def test_large_maxima_tolerate_rounding(self):
        # past windows of 2**24 the maxima exceed 2**22, where the scan's
        # one-ulp rounding drops are larger than an absolute 1e-9
        series = discrepancy_scan(
            0.4460037290517811, 30.865213239948087, dyadic_windows(4, 44)
        )
        assert len(series.max_disc) == 41
        pairs = zip(series.max_disc, series.max_disc[1:])
        assert all(b >= a - 1e-9 * max(1.0, a) for a, b in pairs)

    def test_series_rejects_shrinking_maxima(self):
        for maxima in ((1.0, 0.5), (2.0**30, 2.0**30 - 64.0)):
            with pytest.raises(ParameterError):
                DiscrepancySeries(
                    alpha=0.3,
                    t=5.0,
                    density=1.5,
                    density_method="perron",
                    windows=(2.0, 4.0),
                    max_disc=maxima,
                )

    def test_density_consistency(self):
        # the prefix count at any window deviates from density * W by at
        # most the reported maximum for that window
        alpha = GOLDEN_ALPHA
        t = 12.0
        windows = dyadic_windows(2, 17)
        series = discrepancy_scan(alpha, t, windows)
        for w, bound in zip(series.windows, series.max_disc):
            deviation = abs(prefix_count(alpha, t, w) - series.density * w)
            assert deviation <= bound + 1e-9

    def test_rejects_window_beyond_support(self):
        with pytest.raises(ParameterError):
            discrepancy_scan(1.0 / 3.0, 2.0, [100.0])

    def test_rejects_empty_windows(self):
        with pytest.raises(ParameterError):
            discrepancy_scan(1.0 / 3.0, 2.0, [])

    def test_rejects_unknown_mode(self):
        with pytest.raises(ParameterError):
            discrepancy_scan(1.0 / 3.0, 2.0, [2.0], mode="magic")

    def test_grid_and_mode_checked_before_any_work(self, monkeypatch):
        # a bad mode or grid is refused before the density (a dense
        # eigensolve for a commensurable ratio) or any row of the tree
        def no_work(*args, **kwargs):
            raise AssertionError("work done before the grid was checked")

        monkeypatch.setattr(discrepancy, "asymptotic_density", no_work)
        monkeypatch.setattr(SubdivisionTree, "row_ends", no_work)
        alpha = solve_alpha(200, 199)
        ratio = Commensurable(200, 199)
        with pytest.raises(ParameterError, match="unknown scan mode 'bogus'"):
            discrepancy_scan(alpha, 1.0, [1.0], ratio=ratio, mode="bogus")
        bad_grids = {
            "strictly increasing": ([2.0, 1.0], [1.0, 1.0]),
            "finite and nonnegative": ([-1.0], [1.0, math.nan], [math.inf]),
            "exceeds the patch support": ([1.0, 3.0],),
            "at least one window": ([],),
        }
        for message, grids in bad_grids.items():
            for grid in grids:
                for mode in ("profile", "direct"):
                    with pytest.raises(ParameterError, match=message):
                        discrepancy_scan(alpha, 1.0, grid, ratio=ratio, mode=mode)

    def test_series_validation(self):
        with pytest.raises(ParameterError):
            DiscrepancySeries(
                alpha=0.3,
                t=5.0,
                density=1.5,
                density_method="perron",
                windows=(4.0, 2.0),
                max_disc=(1.0, 1.0),
            )
        with pytest.raises(ParameterError):
            DiscrepancySeries(
                alpha=0.3,
                t=5.0,
                density=1.5,
                density_method="perron",
                windows=(2.0, 4.0),
                max_disc=(1.0,),
            )


class TestGrowthFit:
    def test_lattice_is_constant(self):
        # alpha = 1/2 at a whole number of doublings: endpoints form the
        # integer lattice, so the deviation never grows
        t = 20.0 * math.log(2.0)
        series = discrepancy_scan(0.5, t, dyadic_windows(4, 20))
        fit = growth_fit(series)
        assert fit.best == "constant"

    def test_spread_pair_is_constant(self):
        alpha = solve_alpha(2, 1)
        g = math.log(1.0 / alpha) / 2.0
        ell = 35
        windows = dyadic_windows(4, int((ell * g) / math.log(2.0)))
        series = discrepancy_scan(
            alpha, ell * g, windows, ratio=Commensurable(2, 1)
        )
        fit = growth_fit(series)
        assert fit.best == "constant"

    def test_incommensurable_is_w_over_log_w(self):
        t = 24.0 * math.log(2.0)
        series = discrepancy_scan(1.0 / 3.0, t, dyadic_windows(4, 24))
        fit = growth_fit(series)
        assert fit.best == "w_over_log_w"

    def test_linear_shape_in_raw_scale(self):
        # fitted linearly against W / log W the series explains most of
        # the variance at every depth; the prefactor oscillates, so the
        # score moves with where the largest window lands
        scores = []
        for top in (24, 26, 28, 30):
            t = top * math.log(2.0)
            series = discrepancy_scan(1.0 / 3.0, t, dyadic_windows(4, top))
            w = np.asarray(series.windows)
            y = np.asarray(series.max_disc)
            x = w / np.log(w)
            design = np.stack([np.ones_like(x), x], axis=1)
            coef, *_ = np.linalg.lstsq(design, y, rcond=None)
            predicted = design @ coef
            ss_res = float(np.sum((y - predicted) ** 2))
            ss_tot = float(np.sum((y - y.mean()) ** 2))
            scores.append(1.0 - ss_res / ss_tot)
        assert min(scores) > 0.85
        assert max(scores) > 0.95

    def test_not_spread_pair_is_power(self):
        alpha = solve_alpha(7, 3)
        g = math.log(1.0 / alpha) / 7.0
        ell = 70
        t = ell * g
        windows = dyadic_windows(4, int(t / math.log(2.0)))
        series = discrepancy_scan(alpha, t, windows, ratio=Commensurable(7, 3))
        fit = growth_fit(series)
        assert fit.best == "power"
        assert fit.exponent is not None and fit.exponent > 0.3

    def test_requires_enough_windows(self):
        series = discrepancy_scan(1.0 / 3.0, 6.0, dyadic_windows(0, 5))
        with pytest.raises(ParameterError):
            growth_fit(series)

    def test_requires_enough_span(self):
        windows = tuple(4.0 + 0.5 * k for k in range(10))
        series = discrepancy_scan(1.0 / 3.0, 6.0, windows)
        with pytest.raises(ParameterError):
            growth_fit(series)

    def test_zero_window_refused_before_any_log(self):
        # its log was -inf: numpy warned and lstsq raised LinAlgError
        series = discrepancy_scan(0.3, 10.0, (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="growth fits need positive windows"):
                growth_fit(series)


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        st.floats(min_value=0.05, max_value=0.5),
        st.floats(min_value=0.0, max_value=6.0),
    )
    def test_prefix_at_support_counts_all(self, alpha, t):
        tree = SubdivisionTree(alpha, t)
        assert tree.prefix_count(tree.support) == tree.leaves()

    @settings(max_examples=25, deadline=None)
    @given(
        st.floats(min_value=0.1, max_value=0.5),
        st.floats(min_value=1.0, max_value=6.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_prefix_count_matches_patch(self, alpha, t, frac):
        x = frac * math.exp(t)
        patch = generate_patch(alpha, t, origin_offset=0.0)
        want = sum(1 for tile in patch.tiles if tile.position_value <= x + 1e-12)
        got = prefix_count(alpha, t, x)
        # positions holding exactly at the float boundary may differ by
        # the tie tile itself
        assert abs(got - want) <= 1

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kakutani import (
    Commensurable,
    Incommensurable,
    ParameterError,
    asymptotic_density,
    count_tiles,
    discrepancy_scan,
    dyadic_windows,
    generate_patch,
    growth_fit,
    interval_count,
    prefix_count,
    r_of_alpha,
    solve_alpha,
)
from kakutani.discrepancy import DiscrepancySeries, _SubdivisionTree

from conftest import brute_boundaries

GOLDEN_ALPHA = 0.38196601125010515  # solve_alpha(2, 1)


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
                tree = _SubdivisionTree(alpha, t)
                assert tree.total() == count_tiles(alpha, t)
                assert tree.prefix_count(tree.support()) == tree.total()

    def test_monotone_in_x(self):
        alpha = 0.3
        t = 6.0
        xs = np.linspace(0.0, math.exp(t), 101)
        counts = [prefix_count(alpha, t, float(x)) for x in xs]
        assert all(b >= a for a, b in zip(counts, counts[1:]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ParameterError):
            prefix_count(1.0 / 3.0, 2.0, -0.5)
        with pytest.raises(ParameterError):
            prefix_count(1.0 / 3.0, 2.0, math.exp(2.0) * 1.5)

    def test_interval_count(self):
        alpha = 1.0 / 3.0
        t = math.log(3.0)
        assert interval_count(alpha, t, 0.0, 3.0) == 3
        assert interval_count(alpha, t, 0.5, 1.5) == 1
        assert interval_count(alpha, t, 1.5, 2.5) == 2
        with pytest.raises(ParameterError):
            interval_count(alpha, t, 2.0, 1.0)


class TestScan:
    def test_profile_equals_direct(self):
        for alpha in (1.0 / 3.0, GOLDEN_ALPHA, 0.47):
            t = 9.0
            windows = dyadic_windows(0, int(t / math.log(2.0)))
            fast = discrepancy_scan(alpha, t, windows, mode="profile")
            slow = discrepancy_scan(alpha, t, windows, mode="direct")
            assert fast.max_disc == pytest.approx(slow.max_disc, abs=1e-9)

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


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        st.floats(min_value=0.05, max_value=0.5),
        st.floats(min_value=0.0, max_value=6.0),
    )
    def test_prefix_at_support_counts_all(self, alpha, t):
        tree = _SubdivisionTree(alpha, t)
        assert tree.prefix_count(tree.support()) == tree.total()

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

#!/usr/bin/env python3
"""Reproduce the three discrepancy growth regimes side by side.

Runs the exact deviation scan for a spread ratio (3/2), a non-spread
ratio (7/3) and an incommensurable parameter (alpha = 1/3), fits the
constant, power-law and W/log(W) growth models to each series, and
writes a CSV plus a log-log SVG per case.  Prints one line per case
with the largest deviation and the winning model.

A bounded series whose maximum still creeps upward can prefer a power
law with a tiny exponent over an exactly constant model; read a slope
near zero as bounded.
"""
from __future__ import annotations

import argparse
import math
from pathlib import Path

from kakutani import (
    Commensurable,
    discrepancy_scan,
    dyadic_windows,
    growth_fit,
    solve_alpha,
)
from kakutani.exports import series_to_csv, series_to_svg

CASES = (
    ("spread_3_2", Commensurable(3, 2)),
    ("power_7_3", Commensurable(7, 3)),
    ("unbounded_third", 1.0 / 3.0),
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--depth",
        type=int,
        default=24,
        help="largest window exponent; the scan covers 2**4 .. 2**depth",
    )
    parser.add_argument(
        "--out-dir",
        type=Path,
        default=Path("artifacts"),
        help="directory for the CSV and SVG files",
    )
    args = parser.parse_args()
    if args.depth < 11:
        # growth_fit needs 8 windows, and the grid starts at 2**4
        parser.error("--depth must be at least 11")
    args.out_dir.mkdir(parents=True, exist_ok=True)
    windows = dyadic_windows(4, args.depth)

    for name, case in CASES:
        if isinstance(case, Commensurable):
            alpha = solve_alpha(case.n, case.m)
            step = math.log(1.0 / alpha) / case.n
            t = math.ceil(args.depth * math.log(2.0) / step) * step
            series = discrepancy_scan(alpha, t, windows, ratio=case)
        else:
            alpha = case
            t = args.depth * math.log(2.0)
            series = discrepancy_scan(alpha, t, windows)
        fit = growth_fit(series)
        config = {
            "command": "discrepancy",
            "alpha": alpha,
            "t": t,
            "windows": [f"{w:g}" for w in windows],
        }
        (args.out_dir / f"{name}.csv").write_text(
            series_to_csv(series, config), encoding="utf-8"
        )
        (args.out_dir / f"{name}.svg").write_text(
            series_to_svg(series, config), encoding="utf-8"
        )
        shape = fit.best
        if fit.best == "power":
            shape = f"power (gamma={fit.exponent:.3f})"
        print(
            f"{name:16s} max_disc={series.max_disc[-1]:12.4f}  best fit: {shape}"
        )
    print(f"artifacts in {args.out_dir}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

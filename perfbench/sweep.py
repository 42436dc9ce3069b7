"""Scaling sweep along the ROADMAP axes, to regenerate its baseline table.

    python3 perfbench/sweep.py [--budget 60] [--out .bench_build/sweep.json]

Not part of the gated benchmark: it runs once, each point in a fresh
process under the same pinned environment as ``run.py``, with a time
budget per point and an address-space cap.  A point that runs past its
budget is killed and recorded as over budget, together with the budget.
Fast points repeat until they have run for a second (at most five
times) and report the median and minimum.  The result is written as
JSON and printed as a Markdown table.
"""
from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time

import run

MEMORY_CAP = 3 * 2**30


def _survey(n):
    from kakutani.spectral import survey

    return lambda: {"rows": len(survey(n))}


def _char_poly_share(n):
    """Share of survey(n) spent in char_poly, timed as separate calls."""
    from kakutani.cover import build_rho, char_poly, substitution_matrix
    from kakutani.spectral import survey

    def point():
        start = time.perf_counter()
        survey(n)
        total = time.perf_counter() - start
        spent = 0.0
        for a in range(2, n + 1):
            for b in range(1, a):
                if math.gcd(a, b) == 1:
                    matrix = substitution_matrix(build_rho(a, b))
                    start = time.perf_counter()
                    char_poly(matrix)
                    spent += time.perf_counter() - start
        return {"share": spent / total}

    return point


def _char_poly(n, m):
    from kakutani.cover import build_rho, char_poly, substitution_matrix

    matrix = substitution_matrix(build_rho(n, m))
    return lambda: {"size": matrix.size, "degree": char_poly(matrix).degree}


def _classify(n, m):
    from kakutani.params import Commensurable
    from kakutani.spectral import classify_spreadness

    return lambda: {"verdict": classify_spreadness(Commensurable(n, m)).spread_class.value}


def _generate(alpha, t):
    from kakutani.engine import generate_patch

    return lambda: {"tiles": len(generate_patch(alpha, t))}


def _generate_commensurable(n, m, ell):
    from kakutani.engine import generate_patch_commensurable

    return lambda: {"tiles": len(generate_patch_commensurable(n, m, ell))}


def _iterate(n, m, ell):
    from kakutani.cover import build_rho, iterate_primitive

    rule = build_rho(n, m)
    return lambda: {"tiles": len(iterate_primitive(rule, ell))}


def _verify(n, m, ell):
    from kakutani.cover import verify_cover

    return lambda: {"tiles": verify_cover(n, m, ell).tile_count}


def _count(alpha, t):
    from kakutani.engine import count_tiles

    return lambda: {"count": count_tiles(alpha, t)}


def _scan(alpha, high, mode):
    from kakutani.discrepancy import discrepancy_scan, dyadic_windows

    windows = dyadic_windows(4, high)
    return lambda: {"windows": len(discrepancy_scan(alpha, high * math.log(2.0), windows, mode=mode).windows)}


# name -> (axis, point factory and arguments); the table's row order
POINTS = {
    **{f"survey({n})": ("n", _survey, (n,)) for n in (12, 20, 30, 50)},
    "survey(20) char_poly share": ("n", _char_poly_share, (20,)),
    "char_poly 41/20 (60x60)": ("n + m - 1", _char_poly, (41, 20)),
    "char_poly 60/7 (66x66)": ("n + m - 1", _char_poly, (60, 7)),
    **{f"classify {n}/{m}": ("n + m - 1", _classify, (n, m)) for n, m in ((41, 20), (60, 7), (301, 300))},
    "generate_patch(1/3, t=12)": ("t", _generate, (1.0 / 3.0, 12.0)),
    "generate_patch_commensurable(3, 2, 40)": ("ell", _generate_commensurable, (3, 2, 40)),
    **{f"iterate_primitive(3/2, {ell})": ("ell", _iterate, (3, 2, ell)) for ell in (20, 30, 40)},
    **{f"verify_cover(3, 2, {ell})": ("ell", _verify, (3, 2, ell)) for ell in (20, 30, 40)},
    "count_tiles(1/3, t=60)": ("t", _count, (1.0 / 3.0, 60.0)),
    **{f"discrepancy_scan(1/3) to 2^{h}": ("window exponent", _scan, (1.0 / 3.0, h, "profile")) for h in (24, 32, 40)},
    "discrepancy_scan(1/3, direct) to 2^16": ("window exponent", _scan, (1.0 / 3.0, 16, "direct")),
}
CLI_POINTS = {
    "CLI classify --ratio 3/2": ("classify", "--ratio", "3/2"),
    "CLI classify --ratio 301/300": ("classify", "--ratio", "301/300"),
    "CLI generate --alpha 0.4 --t 10": ("generate", "--alpha", "0.4", "--t", "10"),
    "tier-1 tests": ("-m", "pytest", "-q", "--continue-on-collection-errors"),
}


def run_point(name: str) -> None:
    """Child side: time one point and print its JSON record."""
    run.pin_this_process()
    axis, factory, args = POINTS[name]
    point = factory(*args)
    times, info = [], {}
    while not times or (sum(times) < 1.0 and len(times) < 5):
        start = time.perf_counter()
        info = point()
        times.append(time.perf_counter() - start)
    print(json.dumps({"median_s": statistics.median(times), "min_s": min(times), "repeats": len(times), **info}))


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def measure(command: list[str], budget: float, ok_codes: tuple[int, ...]) -> tuple[str, float, str]:
    """(status, wall seconds, stdout) of one budgeted child process."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            command, env=run.pinned_env(), cwd=run.ROOT, capture_output=True, text=True,
            timeout=budget, preexec_fn=_cap_memory,
        )
    except subprocess.TimeoutExpired:
        return "over_budget", time.perf_counter() - start, ""
    status = "ok" if proc.returncode in ok_codes else f"failed (exit {proc.returncode})"
    return status, time.perf_counter() - start, proc.stdout


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--budget", type=float, default=60.0, help="seconds per point")
    parser.add_argument("--out", default=str(run.BUILD / "sweep.json"))
    parser.add_argument("--point", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.point:
        run_point(args.point)
        return 0
    if not (run.SRC / "kakutani" / "__init__.py").is_file():
        print(f"sweep: no package at {run.SRC / 'kakutani'}", file=sys.stderr)
        return 2
    run.pin_this_process()

    records = []
    for name, (axis, _factory, _args) in POINTS.items():
        status, wall, out = measure([sys.executable, __file__, "--point", name], args.budget, (0,))
        record = {"point": name, "axis": axis, "status": status, "budget_s": args.budget, "wall_s": wall}
        if status == "ok":
            record.update(json.loads(out.strip().splitlines()[-1]))
        records.append(record)
        print(f"{name}: {status} {wall:.2f} s", file=sys.stderr)
    for name, argv in CLI_POINTS.items():
        # verdict commands exit 0, 1 or 2; the test suite exits 0 when green
        prefix = [sys.executable] if argv[0] == "-m" else [sys.executable, "-m", "kakutani"]
        codes = (0,) if argv[0] == "-m" else (0, 1, 2)
        status, wall, _out = measure(prefix + list(argv), args.budget, codes)
        records.append({"point": name, "axis": "end to end", "status": status, "budget_s": args.budget,
                        "wall_s": wall, "median_s": wall, "min_s": wall, "repeats": 1})
        print(f"{name}: {status} {wall:.2f} s", file=sys.stderr)

    run.BUILD.mkdir(exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump({"env": run.environment(), "points": records}, handle, indent=2)
        handle.write("\n")
    print("| what | time | notes |\n|---|---|---|")
    for record in records:
        if record["status"] != "ok":
            cell = f"over the {record['budget_s']:g} s budget" if record["status"] == "over_budget" else record["status"]
        else:
            cell = f"{record['median_s']:.4g} s (median of {record['repeats']})"
        notes = {k: v for k, v in record.items()
                 if k not in ("point", "axis", "status", "budget_s", "wall_s", "median_s", "min_s", "repeats")}
        if "tiles" in notes and record["status"] == "ok":
            notes["us_per_tile"] = round(1e6 * record["median_s"] / notes["tiles"], 2)
        print(f"| {record['point']} | {cell} | {json.dumps(notes) if notes else ''} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())

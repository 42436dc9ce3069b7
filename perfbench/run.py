"""Run one benchmark workload in this fresh process and print its metrics.

    python3 perfbench/run.py --workload spectral-sweep --seed 1 --seconds 20 --trace 0

A run measures three things, interleaved over six segments so that all
three sample the same stretch of machine time:

1. set-up: ``import kakutani`` (numpy included) in fresh interpreters,
   two per segment after one uncounted import that warms the bytecode
   cache, median reported;
2. the op loop: rounds of the workload's seed-drawn ops, replayed in a
   closed loop by this process as the only caller for ``--seconds`` in
   all (and until at least 100 ops ran), every result checked;
3. the workload's fixed CLI command list, each command a fresh
   ``python -m kakutani`` process writing to ``--out``, its artifact and
   exit code compared with the references in ``cli_refs.json``; whole
   passes for at least a second per segment, median reported.

Durations are scaled to a reference machine speed (see ``Speed``).
With ``--trace 1`` the op loop instead runs every op once as one call
and once as its replay under spans, and reports per-layer self times.
The last line of stdout is the result object; the line before it holds
the environment, sample counts, unscaled timings and any errors.

BLAS and OpenMP pools are pinned to one thread, the process and its
children to one CPU, and bytecode is cached under
``.bench_build/pycache``, for this process and every process it starts.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
PYCACHE = BUILD / "pycache"
REFS = HERE / "cli_refs.json"

NPROC = len(os.sched_getaffinity(0))  # before this process pins itself to one
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
MIN_OPS = 100
SEGMENTS = 6  # each opens with set-up probes and CLI passes
PROBES_PER_SEGMENT = 2
CLI_SECONDS_PER_SEGMENT = 1.0  # whole passes, at least one
CLI_TIMEOUT_S = 60.0
CAL_LOOPS = 20000
CAL_REPEATS = 3
CAL_INTERVAL_S = 0.15
CAL_REFERENCE_S = 2.5e-3
OVERRUN_S = 60.0  # stop starting rounds this long after --seconds, op count or not
PROBE = (
    "import time; t0 = time.perf_counter(); import kakutani; "
    "print(repr(time.perf_counter() - t0))"
)


def pinned_env() -> dict[str, str]:
    """Environment for every Python process the benchmark starts."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("PYTHON") and key != "KAKUTANI_MAX_TILES"
    }
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    env["PYTHONHASHSEED"] = "0"
    return env


def pin_this_process() -> None:
    """Apply the pinned environment to this process, before numpy loads."""
    os.environ.update({var: "1" for var in THREAD_VARS})
    os.environ.pop("KAKUTANI_MAX_TILES", None)
    sys.pycache_prefix = str(PYCACHE)
    sys.path.insert(0, str(SRC))
    # one CPU for this process and its children, so the calibration
    # kernel and the measured work share the same core
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def environment() -> dict[str, object]:
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_model": model,
        "nproc": NPROC,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def setup_seconds(env: dict[str, str], probes: int, speed: Speed) -> list[tuple[float, float]]:
    """Raw and speed-scaled import times of fresh interpreters."""
    times = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, "-c", PROBE],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        elapsed = float(proc.stdout)
        times.append((elapsed, elapsed * speed.factor()))
    return times


def run_command(args: tuple[str, ...], env: dict[str, str], out: Path) -> tuple[float, int, bytes | None]:
    """One CLI command as a fresh process: wall time, exit code, artifact."""
    out.unlink(missing_ok=True)
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "kakutani", *args, "--out", str(out)],
            env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=CLI_TIMEOUT_S,
        )
        code = proc.returncode
    except subprocess.TimeoutExpired:
        code = -1
    elapsed = time.perf_counter() - start
    return elapsed, code, out.read_bytes() if out.exists() else None


def load_refs() -> dict[str, dict[str, dict[str, object]]]:
    with open(REFS, encoding="utf-8") as handle:
        return json.load(handle)


class Tally:
    """Attempted and failed ops, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, what: str, exc: BaseException | str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(f"{what}: {exc!r}" if isinstance(exc, BaseException) else f"{what}: {exc}")


def _kernel(loops: int) -> int:
    acc = 0
    table: dict[int, int] = {}
    for i in range(loops):
        acc += (i * i) % 7
        table[i & 63] = acc
    return acc


class Speed:
    """How fast the machine runs at the moment.

    On a shared machine the speed drifts by tens of percent over tens
    of seconds.  A fixed pure-Python kernel, timed at the edges of
    every measured stretch and every CAL_INTERVAL_S inside it, tracks
    that drift.  ``factor`` closes the current stretch and returns the
    ratio that converts its durations into seconds at the reference
    speed, at which the kernel takes CAL_REFERENCE_S.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.factors: list[float] = []
        self.tick()
        self.opened = 0

    def tick(self) -> None:
        times = []
        for _ in range(CAL_REPEATS):
            start = time.perf_counter()
            _kernel(CAL_LOOPS)
            times.append(time.perf_counter() - start)
        self.samples.append(statistics.median(times))
        self.ticked = time.perf_counter()

    def maybe_tick(self) -> None:
        if time.perf_counter() - self.ticked >= CAL_INTERVAL_S:
            self.tick()

    def factor(self) -> float:
        self.tick()
        self.factors.append(CAL_REFERENCE_S / statistics.median(self.samples[self.opened:]))
        self.opened = len(self.samples) - 1
        return self.factors[-1]


def run_cli(workload: str, env: dict[str, str], tally: Tally, scratch: Path, speed: Speed):
    """One pass over the command list: its raw and speed-scaled total,
    and raw wall time per subcommand."""
    from workloads import CLI

    refs = load_refs()[workload]
    raw = scaled = 0.0
    per_command: dict[str, float] = {}
    for index, args in enumerate(CLI[workload]):
        elapsed, code, artifact = run_command(args, env, scratch / f"cli{index}.out")
        raw += elapsed
        scaled += elapsed * speed.factor()
        per_command[args[0]] = per_command.get(args[0], 0.0) + elapsed
        tally.attempted += 1
        ref = refs[" ".join(args)]
        if code != ref["exit"]:
            tally.fail(" ".join(args), f"exit code {code}, expected {ref['exit']}")
        elif artifact is None or hashlib.sha256(artifact).hexdigest() != ref["sha256"]:
            tally.fail(" ".join(args), "artifact differs from the reference")
    return raw, scaled, per_command


def drive(workload: str, seed: int, seconds: float, min_ops: int, tally: Tally,
          step, segments: int = 1, between=None) -> None:
    """Feed whole rounds of the op stream to ``step`` for ``seconds`` of
    op-loop time, split into ``segments``; ``between(i)`` runs before
    segment i, outside the op-loop clock, so that set-up probes and CLI
    passes sample the same stretch of machine time as the ops.  Rounds
    continue past the time until ``min_ops`` ops ran, for at most
    OVERRUN_S more seconds."""
    from workloads import make_round

    index = 0
    deadline = time.perf_counter() + seconds + OVERRUN_S
    for segment in range(segments):
        if between is not None:
            between(segment)
        start = time.perf_counter()
        while True:
            gc.collect()
            step(make_round(workload, seed, index))
            index += 1
            if time.perf_counter() - start >= seconds / segments:
                break
        deadline += time.perf_counter() - start - seconds / segments
    while tally.attempted < min_ops and time.perf_counter() < deadline:
        gc.collect()
        step(make_round(workload, seed, index))
        index += 1


def call_checked(op, inputs, tally: Tally):
    """Time one op; check its result outside the timed region.
    Returns (seconds, items, result) or None if the op failed."""
    if getattr(op, "source", None) is not None and op.source not in inputs:
        return None  # its input op failed and was counted; this one never ran
    tally.attempted += 1
    start = time.perf_counter()
    try:
        result = op.call(inputs)
    except Exception as exc:  # any raise is a failed op, never an aborted run
        tally.fail(repr(op), exc)
        return None
    elapsed = time.perf_counter() - start
    try:
        op.check(result)
        items = op.items(result)
    except Exception as exc:
        tally.fail(repr(op), exc)
        return None
    return elapsed, items, result


class Timed:
    """Untraced op loop: raw and speed-scaled per-op latency, and items."""

    def __init__(self, tally: Tally, speed: Speed):
        self.tally = tally
        self.speed = speed
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.items = 0
        self.rounds = 0

    def __call__(self, ops) -> None:
        inputs: dict[int, object] = {}
        latencies = []
        for position, op in enumerate(ops):
            outcome = call_checked(op, inputs, self.tally)
            if outcome is None:
                continue
            elapsed, count, result = outcome
            latencies.append(elapsed)
            self.items += count
            if op.keep:
                inputs[position] = result
            self.speed.maybe_tick()
        factor = self.speed.factor()
        self.raw.extend(latencies)
        self.scaled.extend(elapsed * factor for elapsed in latencies)
        self.rounds += 1


class Traced:
    """Traced op loop: each op once as one call and once replayed under
    spans; the replay must reproduce the one-call result."""

    def __init__(self, tally: Tally):
        from spans import Recorder

        self.tally = tally
        self.rec = Recorder()
        self.roots: list[tuple[int, float, bool]] = []  # (root span, one-call s, is verify_cover)
        self.rounds = 0

    def __call__(self, ops) -> None:
        from workloads import VerifyCover

        rec = self.rec
        inputs: dict[int, object] = {}
        for position, op in enumerate(ops):
            outcome = call_checked(op, inputs, self.tally)
            if outcome is None:
                continue
            elapsed, _count, result = outcome
            expected = op.summary(result)
            if op.keep:
                inputs[position] = result
            del result
            rec.op = len(self.roots)
            root = len(rec.spans)
            try:
                with rec.span("op." + type(op).__name__):
                    got = op.replay(rec, inputs)
            except Exception as exc:
                self.tally.fail("replay " + repr(op), exc)
                continue
            if got != expected:
                self.tally.fail("replay " + repr(op), "replay result differs from the one-call result")
                continue
            self.roots.append((root, elapsed, isinstance(op, VerifyCover)))
        self.rounds += 1

    def finish(self, workload: str):
        """Per-round span statistics of the ops, per-pass statistics of
        the replayed exports, and the derived trace metrics."""
        from spans import Recorder
        from workloads import replay_exports

        exports = Recorder()
        try:
            replay_exports(workload, exports)
        except Exception as exc:
            self.tally.attempted += 1
            self.tally.fail("export replay", exc)
        rec, roots, rounds = self.rec, self.roots, max(self.rounds, 1)
        stats = {
            name: {key: value if key.startswith("max_") else value / rounds for key, value in span.items()}
            for name, span in rec.summary().items()
        }
        stats.update((name, span) for name, span in exports.summary().items() if name.startswith("exports."))
        covered = rec.child_time()
        traced = sum(rec.spans[root].duration for root, _, _ in roots)
        untraced = sum(elapsed for _, elapsed, _ in roots)
        layer_time = sum(covered[root] for root, _, _ in roots)
        compare = sum(elapsed - covered[root] for root, elapsed, verify in roots if verify)
        extra = {
            "cover.verify_cover.compare_s": (compare / rounds, "s"),
            "trace.overhead": (untraced / traced if traced else 0.0, "ratio"),
            "trace.coverage": (layer_time / traced if traced else 0.0, "ratio"),
        }
        return stats, extra


def layer_metrics(stats, extra, per_command) -> dict[str, tuple[float, str]]:
    from workloads import CLI, SPANS

    metrics: dict[str, tuple[float, str]] = {}
    for name, counts in SPANS.items():
        span = stats.get(name, {})
        self_s = span.get("self_s", 0.0)
        metrics[f"{name}.self_s"] = (self_s, "s")
        metrics[f"{name}.calls"] = (span.get("calls", 0), "count")
        metrics[f"{name}.failed"] = (span.get("failed", 0), "count")
        for key in counts:
            if key == "us_per_tile":
                tiles = span.get("tiles", 0)
                metrics[f"{name}.{key}"] = (1e6 * self_s / tiles if tiles else 0.0, "us")
            else:
                metrics[f"{name}.{key}"] = (span.get(key, 0), "bytes" if key == "bytes" else "count")
    metrics.update(extra)
    commands = sorted({args[0] for lists in CLI.values() for args in lists})
    for command in commands:
        metrics[f"cli.{command}.s"] = (per_command.get(command, 0.0), "s")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one segment and no minimum op count, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "kakutani" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC / 'kakutani'}", file=sys.stderr)
        return 2
    pin_this_process()
    import kakutani
    from workloads import WORKLOADS

    if Path(kakutani.__file__).resolve().parent != (SRC / "kakutani").resolve():
        print(f"perfbench: imported kakutani from {kakutani.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {WORKLOADS}", file=sys.stderr)
        return 2

    env = pinned_env()
    scratch = BUILD / "perfbench" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    min_ops = 1 if args.quick else MIN_OPS
    tally = Tally()
    try:
        if args.trace:
            traced = Traced(tally)
            drive(args.workload, args.seed, args.seconds, min_ops, tally, traced)
            stats, extra = traced.finish(args.workload)
            _raw, _scaled, per_command = run_cli(args.workload, env, tally, scratch, Speed())
            metrics = layer_metrics(stats, extra, per_command)
            samples = {"ops_replayed": len(traced.roots), "cli_repeats": 1}
        else:
            segments = 1 if args.quick else SEGMENTS
            speed = Speed()
            setup_seconds(env, 1, speed)  # fills the bytecode cache; not counted
            setup: list[tuple[float, float]] = []
            totals: list[tuple[float, float]] = []

            def between(segment: int) -> None:
                setup.extend(setup_seconds(env, PROBES_PER_SEGMENT, speed))
                start = time.perf_counter()
                while not totals or time.perf_counter() - start < CLI_SECONDS_PER_SEGMENT:
                    totals.append(run_cli(args.workload, env, tally, scratch, speed)[:2])

            timed = Timed(tally, speed)
            drive(args.workload, args.seed, args.seconds, min_ops, tally, timed, segments, between)
            rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            summary = {}
            for label, latencies, probes, passes in (
                ("scaled", timed.scaled, [p[1] for p in setup], [t[1] for t in totals]),
                ("wall", timed.raw, [p[0] for p in setup], [t[0] for t in totals]),
            ):
                p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8] if len(latencies) > 1 else latencies[0]
                summary[label] = {
                    "items_per_s": (timed.items / math.fsum(latencies), "items/s"),
                    "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
                    "op_p90_ms": (1e3 * p90, "ms"),
                    "cli_s": (statistics.median(passes), "s"),
                    "peak_rss_mb": (rss_mib, "MiB"),
                    "setup_s": (statistics.median(probes), "s"),
                }
            metrics = summary["scaled"]
            samples = {
                "ops": len(timed.raw),
                "rounds": timed.rounds,
                "setup_probes": len(setup),
                "cli_repeats": len(totals),
                "speed_factor": {
                    "median": statistics.median(speed.factors),
                    "min": min(speed.factors),
                    "max": max(speed.factors),
                },
                "wall_clock": {name: value for name, (value, _unit) in summary["wall"].items()},
            }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "samples": samples,
        "error_rate": tally.failed / tally.attempted if tally.attempted else 0.0,
        "errors": tally.errors,
        "env": environment(),
    }
    print(json.dumps(details, sort_keys=True))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

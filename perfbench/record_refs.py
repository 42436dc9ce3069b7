"""Record the CLI reference artifacts the benchmark compares against.

    python3 perfbench/record_refs.py

Runs every command of every workload's CLI list once, as the benchmark
does, and writes its exit code and the SHA-256 and size of its artifact
to ``perfbench/cli_refs.json``.  Run it only at a commit whose outputs
are known good: the references define byte-identical output.  The
``survey --max-n 12`` artifact must equal ``tests/data/survey_n12.csv``.
"""
from __future__ import annotations

import hashlib
import json
import shutil
import sys

import run


def main() -> int:
    run.pin_this_process()
    from workloads import CLI

    env = run.pinned_env()
    scratch = run.BUILD / "perfbench" / "refs"
    scratch.mkdir(parents=True, exist_ok=True)
    golden = (run.ROOT / "tests" / "data" / "survey_n12.csv").read_bytes()
    refs: dict[str, dict[str, dict[str, object]]] = {}
    try:
        for workload, commands in CLI.items():
            refs[workload] = {}
            for args in commands:
                _elapsed, code, artifact = run.run_command(args, env, scratch / "out")
                if artifact is None:
                    print(f"no artifact from {' '.join(args)} (exit {code})", file=sys.stderr)
                    return 1
                if args[:3] == ("survey", "--max-n", "12") and artifact != golden:
                    print("survey --max-n 12 differs from tests/data/survey_n12.csv", file=sys.stderr)
                    return 1
                refs[workload][" ".join(args)] = {
                    "exit": code,
                    "sha256": hashlib.sha256(artifact).hexdigest(),
                    "bytes": len(artifact),
                }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(run.REFS, "w", encoding="utf-8") as handle:
        json.dump(refs, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

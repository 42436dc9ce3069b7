"""Start-up cost: what ``import kakutani`` and each command load.

The package namespace resolves its names on first access, and each CLI
handler imports the modules it runs, so a command pays the import time
of those alone.  Footprints are read in fresh interpreters; a module the
bare interpreter already holds counts as not loaded by the command.
"""
import ast
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import kakutani

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(kakutani.__file__).resolve().parents[1])

LISTING = "import json, sys; print(json.dumps(sorted(sys.modules)))"

COMMAND = """
import json, os, sys
from kakutani.cli import main
code = main(sys.argv[1:] + ["--out", os.devnull])
print(json.dumps([code, sorted(sys.modules)]))
"""

SPECTRAL = {"kakutani.spectral", "kakutani.rootfind", "dataclasses"}
FRACTIONS = {"fractions", "decimal", "numbers"}
SCANS = {"numpy", "kakutani.discrepancy"}


def python(*args):
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC + (os.pathsep + path if path else "")}
    result = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def bare():
    """Modules a fresh interpreter holds before any kakutani import."""
    return set(python("-c", LISTING))


def benchmark_commands():
    """The benchmark's CLI command list, ``CLI`` in perfbench/workloads.py."""
    source = (ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8")
    for node in ast.parse(source).body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "CLI":
            lists = ast.literal_eval(node.value)
            return [args for commands in lists.values() for args in commands]
    raise AssertionError("no CLI list in perfbench/workloads.py")


def unused(args):
    """Modules a command has no use for."""
    name = args[0]
    if name == "three-interval" and "dot" in args:
        # the graph of the rule and the degree limit, which params holds
        return SPECTRAL | SCANS | {"fractions"}
    if name in ("classify", "survey", "spectrum", "three-interval"):
        # a verdict reads its loops: no rule, patch or tree, and its spread
        # ratios are pairs, with no Fraction
        return SCANS | {"kakutani.cover", "kakutani.engine", "kakutani.geometry"} | FRACTIONS
    if name == "discrepancy":
        if "--ratio" in args:
            # the Perron density: numpy and the matrix; the degree limit
            # comes from params, with no root finder
            return SPECTRAL | {"fractions"}
        return SPECTRAL | {"numpy", "kakutani.cover", "fractions", "inspect"}
    if name == "solve-alpha":
        return SPECTRAL | SCANS | {"kakutani.cover", "kakutani.engine", "fractions"}
    # generate and verify-cover
    return SPECTRAL | SCANS | {"fractions", "inspect"}


def test_package_import_loads_only_the_package(bare):
    loaded = set(python("-c", "import kakutani; " + LISTING)) - bare
    assert {m for m in loaded if m.startswith("kakutani")} == {"kakutani"}
    assert not loaded & ({"dataclasses", "inspect", "numpy"} | FRACTIONS)


def test_error_types_load_on_first_access(bare):
    loaded = set(python("-c", "import kakutani; kakutani.ParameterError; " + LISTING))
    assert {m for m in loaded - bare if m.startswith("kakutani")} == {"kakutani", "kakutani.errors"}


@pytest.mark.parametrize(
    "args",
    benchmark_commands()
    + [
        ("solve-alpha", "--ratio", "3/2"),
        ("three-interval", "--loops", "5,3,1", "--format", "dot"),
    ],
    ids=" ".join,
)
def test_command_loads_only_what_it_runs(bare, args):
    code, modules = python("-c", COMMAND, *args)
    assert code in (0, 1, 2)
    assert not (set(modules) - bare) & unused(args)


def test_commands_load_what_they_run(bare):
    # the footprint test above is not vacuous: the verdicts do load the
    # spectral path and a fitted commensurable scan loads numpy
    _, modules = python("-c", COMMAND, "classify", "--ratio", "3/2")
    assert SPECTRAL <= set(modules)
    _, modules = python(
        "-c", COMMAND, "discrepancy", "--ratio", "3/2", "--ell", "40", "--fit", "--format", "json"
    )
    assert {"numpy", "kakutani.cover"} <= set(modules)


def test_every_public_name_resolves():
    for name in kakutani.__all__:
        assert getattr(kakutani, name) is not None, name
    assert set(kakutani.__all__) <= set(dir(kakutani))
    assert kakutani.generate_patch is kakutani.engine.generate_patch
    assert kakutani.SpreadClass is kakutani.spectral.SpreadClass
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        kakutani.no_such_name


def test_star_import():
    namespace: dict = {}
    exec("from kakutani import *", namespace)
    assert set(kakutani.__all__) <= set(namespace)
    assert namespace["build_rho"](3, 2).loops == (3, 2)


def test_first_access_loads_one_submodule(bare):
    loaded = set(python("-c", "import kakutani; kakutani.generate_patch; " + LISTING))
    assert "kakutani.engine" in loaded
    assert not (loaded - bare) & (SPECTRAL | SCANS | {"kakutani.cover"})


def test_true_division_is_the_fraction_float():
    # the CLI writes r = n / m, which is correctly rounded like Fraction's
    for n in range(1, 451):
        for m in range(1, n + 1):
            if math.gcd(n, m) == 1:
                assert n / m == float(Fraction(n, m)), (n, m)

"""The documented entry points: the README library block, the script and
the top-level names they import."""
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import kakutani
from kakutani import SpreadClass, cli, growth_fit
from kakutani.cover import substitution_matrix

from conftest import is_primitive

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "run_discrepancy.py"


def readme_commands():
    """The ``kakutani ...`` lines of the README's usage blocks, as
    argument lists, their trailing comments cut."""
    commands, fence = [], None  # fence: the open block's language, "" for none
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            fence = line[3:] if fence is None else None
        elif fence == "" and line.startswith("kakutani "):
            commands.append(line.split("#")[0].split()[1:])
    return commands


def script_env():
    src = str(Path(kakutani.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


def test_readme_library_block_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    # the values the block's comments promise
    assert namespace["verdict"].spectral.solomon is SpreadClass.SPREAD
    assert namespace["verdict"].spectral.lambda1 == 1.618033988749895
    assert namespace["rule"].is_primitive
    assert is_primitive(substitution_matrix(namespace["rule"]))
    assert growth_fit(namespace["series"]).best == "w_over_log_w"


def test_readme_lists_every_command():
    assert {args[0] for args in readme_commands()} == {
        "classify", "survey", "solve-alpha", "spectrum", "generate",
        "discrepancy", "three-interval", "verify-cover",
    }


@pytest.mark.parametrize("args", readme_commands(), ids=" ".join)
def test_readme_command_lines_run(capsys, args):
    code = cli.main(args)
    captured = capsys.readouterr()
    assert code in (0, 1, 2), captured.err
    if "--fit" in args:
        fit = json.loads(captured.out)["report"]["fit"]
        assert isinstance(fit, dict) and fit["best"]


def test_discrepancy_script_writes_three_regimes(tmp_path):
    result = subprocess.run(
        [sys.executable, str(SCRIPT), "--depth", "11", "--out-dir", str(tmp_path)],
        capture_output=True,
        text=True,
        env=script_env(),
    )
    assert result.returncode == 0, result.stderr
    names = ("spread_3_2", "power_7_3", "unbounded_third")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"{name}.{ext}" for name in names for ext in ("csv", "svg")
    )
    assert [line.split()[0] for line in result.stdout.splitlines()[:3]] == list(names)


def test_discrepancy_script_refuses_too_few_windows(tmp_path):
    # 2**4 .. 2**10 is 7 windows, one short of what a growth fit needs
    result = subprocess.run(
        [sys.executable, str(SCRIPT), "--depth", "10", "--out-dir", str(tmp_path)],
        capture_output=True,
        text=True,
        env=script_env(),
    )
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert not any(tmp_path.iterdir())


def test_public_names():
    assert sorted(kakutani.__all__) == [
        "Commensurable",
        "KakutaniError",
        "NumericError",
        "ParameterError",
        "ResourceLimitError",
        "SpreadClass",
        "__version__",
        "build_rho",
        "classify_spreadness",
        "discrepancy_scan",
        "dyadic_windows",
        "generate_patch",
        "growth_fit",
        "solve_alpha",
    ]
    for name in kakutani.__all__:
        assert hasattr(kakutani, name), name


def test_package_import_loads_no_numpy():
    # numpy is imported on first use by the Perron density and the growth
    # fit; importing the package and the spectral commands load none
    program = """
import sys
import kakutani, kakutani.cli
assert 'numpy' not in sys.modules
for args in (
    ['classify', '--ratio', '3/2'],
    ['spectrum', '--ratio', '7/3'],
    ['survey', '--max-n', '12'],
    ['three-interval', '--loops', '3,2,1'],
):
    assert kakutani.cli.main(args) in (0, 1, 2), args
assert 'numpy' not in sys.modules
"""
    result = subprocess.run(
        [sys.executable, "-c", program],
        capture_output=True,
        text=True,
        env=script_env(),
    )
    assert result.returncode == 0, result.stderr
    assert '"command": "three-interval"' in result.stdout

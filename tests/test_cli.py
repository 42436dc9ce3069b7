import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from kakutani import __version__, cli
from kakutani.cli import main
from kakutani.discrepancy import asymptotic_density
from kakutani.engine import count_tiles_commensurable
from kakutani.geometry import Tile
from kakutani.polynomials import loop_polynomial

from conftest import coprime_pairs, direct_scan_per_node

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *args):
    code, out, _err = run_cli(capsys, *args)
    return code, json.loads(out)


class TestClassify:
    def test_spread_pair(self, capsys):
        code, env = run_json(capsys, "classify", "--ratio", "2/1")
        assert code == 0
        assert set(env) == {"version", "config", "report"}
        assert env["version"] == __version__
        report = env["report"]
        assert set(report) == {
            "n",
            "m",
            "r",
            "alpha",
            "lambda1",
            "lambda2_modulus",
            "unit_circle_factor",
            "ell",
            "solomon",
            "theorem_verdict",
            "reason",
        }
        assert report["solomon"] == "Spread"
        assert report["theorem_verdict"] is True
        assert report["r"] == 2.0
        assert report["ell"] == 2

    def test_not_spread_pair(self, capsys):
        code, env = run_json(capsys, "classify", "--ratio", "7/3")
        assert code == 1
        assert env["report"]["solomon"] == "NotSpread"
        assert env["report"]["theorem_verdict"] is False

    def test_boundary_pair(self, capsys):
        code, env = run_json(capsys, "classify", "--ratio", "5/1")
        assert code == 2
        assert env["report"]["solomon"] == "Boundary"
        assert env["report"]["unit_circle_factor"] is True

    def test_unresolved_near_unit(self, capsys, near_unit_second_root):
        code, env = run_json(capsys, "classify", "--ratio", "7/3")
        assert code == 2
        assert env["report"]["solomon"] == "Boundary"
        assert env["report"]["reason"] == (
            "secondary eigenvalue numerically at the unit circle, unresolved"
        )

    def test_mismatch_reason(self, capsys, monkeypatch):
        # a spectral verdict off the five-ratio list is flagged in the reason
        from kakutani import spectral

        monkeypatch.setattr(spectral, "SPREAD_RATIOS", frozenset())
        code, env = run_json(capsys, "classify", "--ratio", "3/2")
        assert code == 0
        assert env["report"]["solomon"] == "Spread"
        assert env["report"]["theorem_verdict"] is False
        assert env["report"]["reason"].endswith(
            "; spectral verdict disagrees with the five-ratio list"
        )

    def test_incommensurable_alpha(self, capsys):
        code, env = run_json(capsys, "classify", "--alpha", str(1.0 / 3.0))
        assert code == 1
        report = env["report"]
        assert report["n"] is None
        assert report["m"] is None
        assert report["lambda1"] is None
        assert report["solomon"] is None
        assert report["theorem_verdict"] is False
        assert report["r"] == pytest.approx(2.70951, abs=1e-4)

    def test_half_is_lattice(self, capsys):
        code, env = run_json(capsys, "classify", "--alpha", "0.5")
        assert code == 0
        assert env["report"]["n"] == 1
        assert env["report"]["solomon"] == "Spread"

    def test_bad_ratio_order(self, capsys):
        code, _out, err = run_cli(capsys, "classify", "--ratio", "3/5")
        assert code == 3
        assert "error" in err

    def test_malformed_ratio(self, capsys):
        code, _out, _err = run_cli(capsys, "classify", "--ratio", "seven")
        assert code == 3

    def test_mutually_exclusive_inputs(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["classify", "--ratio", "2/1", "--alpha", "0.4"])
        assert excinfo.value.code == 3

    def test_missing_inputs(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["classify"])
        assert excinfo.value.code == 3

    def test_deterministic(self, capsys):
        _code, first, _ = run_cli(capsys, "classify", "--ratio", "4/1")
        _code, second, _ = run_cli(capsys, "classify", "--ratio", "4/1")
        assert first == second


class TestSurvey:
    def test_csv_matches_golden(self, capsys):
        _code, out, _err = run_cli(capsys, "survey", "--max-n", "12")
        golden = (DATA / "survey_n12.csv").read_text(encoding="utf-8")
        assert out == golden

    def test_json_rows(self, capsys):
        code, env = run_json(capsys, "survey", "--max-n", "12", "--format", "json")
        assert code == 0
        rows = env["report"]["rows"]
        assert len(rows) == 46
        spread = {(r["n"], r["m"]) for r in rows if r["solomon"] == "Spread"}
        assert spread == {(1, 1), (2, 1), (3, 1), (3, 2), (4, 1)}
        boundary = {(r["n"], r["m"]) for r in rows if r["solomon"] == "Boundary"}
        assert boundary == {(5, 1)}

    def test_rejects_bad_bound(self, capsys):
        code, _out, _err = run_cli(capsys, "survey", "--max-n", "0")
        assert code == 3

    def test_bound_past_the_degree_limit_refused_up_front(self, capsys, monkeypatch):
        from kakutani import spectral

        def no_classify(*args, **kwargs):
            raise AssertionError("classified a ratio")

        monkeypatch.setattr(spectral, "classify_spreadness", no_classify)
        code, out, err = run_cli(capsys, "survey", "--max-n", "451")
        assert code == 4
        assert out == ""
        assert err == (
            "kakutani: resource limit: a spectrum of degree 451 is above the limit 450\n"
        )

    def test_bound_past_the_budget_refused_up_front(self, capsys, monkeypatch):
        from kakutani import spectral

        def no_classify(*args, **kwargs):
            raise AssertionError("classified a ratio")

        monkeypatch.setattr(spectral, "classify_spreadness", no_classify)
        code, out, err = run_cli(capsys, "survey", "--max-n", "61")
        assert code == 4
        assert out == ""
        assert err == (
            "kakutani: resource limit: a survey to n = 61 costs 3575881 "
            "(the sum of n**3), above the budget 3348900 of n = 60\n"
        )

    def test_budget_admits_n_60(self, monkeypatch):
        from kakutani import spectral

        class Classified(Exception):
            pass

        def classified(*args, **kwargs):
            raise Classified

        monkeypatch.setattr(spectral, "classify_spreadness", classified)
        with pytest.raises(Classified):
            spectral.survey(60)


class TestSolveAlpha:
    def test_plastic_ratio(self, capsys):
        code, env = run_json(capsys, "solve-alpha", "--ratio", "3/2")
        assert code == 0
        report = env["report"]
        assert report["alpha"] == pytest.approx(0.4301597090019468, abs=1e-12)
        assert report["xi"] == pytest.approx(report["alpha"] ** (-1.0 / 3.0), abs=1e-12)
        assert report["polynomial"] == "x^3 - x - 1"
        assert report["step"] == pytest.approx(math.log(1.0 / report["alpha"]) / 3.0)

    def test_lattice_ratio(self, capsys):
        code, env = run_json(capsys, "solve-alpha", "--ratio", "1/1")
        assert code == 0
        assert env["report"]["alpha"] == 0.5
        assert env["report"]["polynomial"] == "x - 2"

    def test_polynomial_is_the_trinomial_of_the_pair(self, capsys):
        for n, m in coprime_pairs(12):
            if n > m:
                _code, env = run_json(capsys, "solve-alpha", "--ratio", f"{n}/{m}")
                assert env["report"]["polynomial"] == str(loop_polynomial(n, (n, m)))

    def test_huge_ratio_builds_no_coefficient_list(self, capsys):
        # the dense polynomial of 10**22 + 1 coefficients overflowed
        code, env = run_json(capsys, "solve-alpha", "--ratio", f"{10**22}/1")
        assert code == 0
        assert env["report"]["n"] == 10**22
        assert env["report"]["polynomial"] == f"x^{10**22} - x^{10**22 - 1} - 1"

    def test_pair_refused_by_its_record(self, capsys):
        code, out, err = run_cli(capsys, "solve-alpha", "--ratio", "4/2")
        assert code == 3
        assert out == ""
        assert err == "kakutani: parameter error: (4, 2) is not in lowest terms\n"


class TestGenerate:
    def test_fixed_scale_csv(self, capsys):
        code, out, _err = run_cli(
            capsys, "generate", "--ratio", "2/1", "--ell", "5"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == f"# kakutani {__version__}"
        assert lines[1].startswith("# config ")
        assert lines[2] == "position,length,label"
        body = lines[3:]
        assert len(body) == 13
        labels = {row.split(",")[2] for row in body}
        assert labels == {"1", "2"}

    def test_multiscale_json(self, capsys):
        code, env = run_json(
            capsys,
            "generate", "--alpha", "0.4", "--t", "3.0", "--format", "json",
        )
        assert code == 0
        report = env["report"]
        half = 0.5 * math.exp(3.0)
        assert report["support"] == pytest.approx([-half, half], abs=1e-9)
        assert report["tile_count"] == len(report["tiles"])
        edge = report["support"][0]
        for tile in report["tiles"]:
            assert tile["position"] == pytest.approx(edge, abs=1e-9)
            edge = tile["position"] + tile["length"]
        assert edge == pytest.approx(half, abs=1e-9)

    def test_points_csv(self, capsys):
        code, out, _err = run_cli(
            capsys,
            "generate", "--alpha", "0.4", "--t", "2.0", "--points",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[2] == "position"
        assert len(lines) > 3

    def test_points_reject_other_formats(self, capsys):
        code, _out, _err = run_cli(
            capsys,
            "generate", "--alpha", "0.4", "--t", "2.0", "--points",
            "--format", "json",
        )
        assert code == 3

    @pytest.mark.parametrize("fmt", ["json", "svg"])
    @pytest.mark.parametrize(
        "source", [["--ratio", "3/2", "--ell", "60"], ["--ratio", "1/1", "--ell", "60"],
                   ["--alpha", "0.4", "--t", "40"]],
        ids=["ratio", "lattice", "alpha"],
    )
    def test_points_refused_before_any_patch(self, capsys, monkeypatch, source, fmt):
        # at --ell 60 the 3/2 patch would hold about 2.1e7 tiles
        from kakutani import cover, engine

        def no_patch(*args, **kwargs):
            raise AssertionError("a patch was built")

        for module, name in [(cover, "iterate_primitive"), (engine, "generate_patch_commensurable"),
                             (engine, "generate_patch"), (engine, "hub_patch")]:
            monkeypatch.setattr(module, name, no_patch)
        code, out, err = run_cli(capsys, "generate", *source, "--points", "--format", fmt)
        assert code == 3
        assert out == ""
        assert "--points supports only csv output" in err

    def test_svg(self, capsys):
        code, out, _err = run_cli(
            capsys,
            "generate", "--ratio", "3/2", "--ell", "4", "--format", "svg",
        )
        assert code == 0
        assert out.startswith("<svg")
        assert out.rstrip().endswith("</svg>")

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "patch.csv"
        code, out, _err = run_cli(
            capsys,
            "generate", "--ratio", "2/1", "--ell", "3", "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text(encoding="utf-8").startswith("# kakutani")

    def test_ratio_needs_ell(self, capsys):
        code, _out, _err = run_cli(capsys, "generate", "--ratio", "2/1")
        assert code == 3

    def test_alpha_needs_t(self, capsys):
        code, _out, _err = run_cli(capsys, "generate", "--alpha", "0.4")
        assert code == 3

    def test_environment_leaves_the_cap_alone(self, capsys, monkeypatch):
        # the cap comes from --max-tiles alone
        args = ("generate", "--ratio", "2/1", "--ell", "5")
        _code, plain, _err = run_cli(capsys, *args)
        monkeypatch.setenv("KAKUTANI_MAX_TILES", "5")
        code, out, _err = run_cli(capsys, *args)
        assert code == 0
        assert out == plain


class TestSpectrum:
    def test_plastic_report(self, capsys):
        code, env = run_json(capsys, "spectrum", "--ratio", "3/2")
        assert code == 0
        report = env["report"]
        assert report["lambda1"] == pytest.approx(1.324717957244746, abs=1e-12)
        assert report["ell"] == 2
        assert report["solomon"] == "Spread"
        # zero eigenvalues are stripped; the cubic leaves three roots
        assert len(report["roots"]) == 3
        for root in report["roots"]:
            assert set(root) == {"re", "im", "modulus", "residual"}

    def test_lattice_ratio_refused(self, capsys):
        code, out, err = run_cli(capsys, "spectrum", "--ratio", "1/1")
        assert code == 3
        assert out == ""
        assert err == "kakutani: parameter error: the lattice ratio (1, 1) needs no cover\n"


class TestDiscrepancy:
    def test_ratio_mode_uses_whole_steps(self, capsys):
        code, env = run_json(
            capsys,
            "discrepancy", "--ratio", "2/1", "--ell", "20", "--format", "json",
        )
        assert code == 0
        report = env["report"]
        assert report["density_method"] == "perron"
        alpha = 0.38196601125010515
        want_t = 20.0 * math.log(1.0 / alpha) / 2.0
        assert report["t"] == pytest.approx(want_t, abs=1e-12)

    def test_fit_payload(self, capsys):
        code, env = run_json(
            capsys,
            "discrepancy", "--alpha", str(1.0 / 3.0), "--t", "11.0",
            "--fit", "--format", "json",
        )
        assert code == 0
        fit = env["report"]["fit"]
        assert set(fit) == {"best", "exponent", "residuals", "heuristic"}
        assert fit["heuristic"] is True
        assert set(fit["residuals"]) == {"constant", "power", "w_over_log_w"}

    @pytest.mark.parametrize("fmt", [[], ["--format", "csv"], ["--format", "svg"]], ids=str)
    @pytest.mark.parametrize(
        "source", [["--ratio", "7/3", "--ell", "70"], ["--alpha", "0.3", "--t", "10"]],
        ids=["ratio", "alpha"],
    )
    def test_fit_refused_before_any_scan(self, capsys, monkeypatch, source, fmt):
        # only the JSON report has a place for the fit
        from kakutani import discrepancy

        def no_scan(*args, **kwargs):
            raise AssertionError("a scan ran")

        monkeypatch.setattr(discrepancy, "discrepancy_scan", no_scan)
        code, out, err = run_cli(capsys, "discrepancy", *source, "--fit", *fmt)
        assert code == 3
        assert out == ""
        assert err == "kakutani: parameter error: --fit supports only json output\n"

    @pytest.mark.parametrize(
        "command",
        [
            "--alpha 0.3 --t 3 --windows 0,1 --format svg",
            "--alpha 0.3 --t 10 --windows 0,1,2,4,8,16,32,64 --fit --format json",
            "--ratio 3/2 --ell 20 --windows 0,4 --format svg",
        ],
    )
    def test_zero_window_refused_before_any_scan(self, capsys, monkeypatch, command):
        # the svg took log(0), a ValueError, and the fit raised LinAlgError
        from kakutani import discrepancy

        def no_scan(*args, **kwargs):
            raise AssertionError("a scan ran")

        monkeypatch.setattr(discrepancy, "discrepancy_scan", no_scan)
        code, out, err = run_cli(capsys, "discrepancy", *command.split())
        assert code == 3
        assert out == ""
        assert err == "kakutani: parameter error: --fit and svg output need positive windows\n"

    def test_zero_window_kept_in_csv_and_json(self, capsys):
        for fmt in ("csv", "json"):
            code, _out, _err = run_cli(
                capsys, "discrepancy", "--alpha", "0.3", "--t", "3", "--windows", "0,1", "--format", fmt
            )
            assert code == 0

    def test_negative_ell_is_named(self, capsys):
        # it was refused as a negative t the user never gave
        code, out, err = run_cli(capsys, "discrepancy", "--ratio", "3/2", "--ell", "-3")
        assert code == 3
        assert out == ""
        assert err == "kakutani: parameter error: ell must be nonnegative\n"

    def test_default_grid_past_the_support_names_it(self, capsys):
        # the default grid starts at 2**4, above these supports: they were
        # refused as "need low_exp <= high_exp", bounds the user never gave
        for args, support in [(("--alpha", "0.3", "--t", "2"), "7.38906"), (("--ratio", "3/2", "--ell", "5"), "4.0796")]:
            code, out, err = run_cli(capsys, "discrepancy", *args)
            assert code == 3
            assert out == ""
            assert err == f"kakutani: parameter error: the patch support {support} is below the first window 2**4\n"
        code, _out, err = run_cli(capsys, "discrepancy", "--alpha", "0.3", "--t", "2", "--high", "2")
        assert code == 3
        assert err == "kakutani: parameter error: need low_exp <= high_exp\n"

    def test_explicit_windows(self, capsys):
        code, env = run_json(
            capsys,
            "discrepancy", "--alpha", "0.4", "--t", "8.0",
            "--windows", "16,32,64", "--format", "json",
        )
        assert code == 0
        assert env["report"]["windows"] == [16.0, 32.0, 64.0]
        assert env["config"]["windows"] == [16.0, 32.0, 64.0]

    def test_csv_shape(self, capsys):
        code, out, _err = run_cli(
            capsys, "discrepancy", "--alpha", "0.4", "--t", "8.0"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == f"# kakutani {__version__}"
        assert lines[2] == "window,max_disc"

    def test_svg(self, capsys):
        code, out, _err = run_cli(
            capsys,
            "discrepancy", "--alpha", "0.4", "--t", "8.0", "--format", "svg",
        )
        assert code == 0
        assert out.startswith("<svg")

    def test_direct_mode_agrees(self, capsys):
        _code, fast = run_json(
            capsys,
            "discrepancy", "--alpha", "0.45", "--t", "7.0", "--format", "json",
        )
        _code, slow = run_json(
            capsys,
            "discrepancy", "--alpha", "0.45", "--t", "7.0", "--format", "json",
            "--mode", "direct",
        )
        assert fast["report"]["max_disc"] == pytest.approx(
            slow["report"]["max_disc"], abs=1e-9
        )


class TestThreeInterval:
    def test_silver_spread(self, capsys):
        code, env = run_json(capsys, "three-interval", "--loops", "2,1,1")
        assert code == 0
        report = env["report"]
        assert report["pv_member"] is True
        assert report["pv_family"] == "x^d - 2x^(d-1) - 1"
        assert report["spread_class"] == "Spread"
        assert report["polynomial"] == "x^2 - 2x - 1"

    def test_not_spread_loops(self, capsys):
        code, env = run_json(capsys, "three-interval", "--loops", "3,3,2")
        assert code == 1
        assert env["report"]["spread_class"] == "NotSpread"
        assert env["report"]["pv_member"] is False

    def test_boundary_loops(self, capsys):
        code, env = run_json(capsys, "three-interval", "--loops", "4,2,1")
        assert code == 2
        assert env["report"]["spread_class"] == "Boundary"

    def test_dot_output(self, capsys):
        code, out, _err = run_cli(
            capsys, "three-interval", "--loops", "3,2,1", "--format", "dot"
        )
        assert code == 0
        assert out.startswith("digraph")
        assert "doublecircle" in out

    def test_bad_loops(self, capsys):
        code, _out, _err = run_cli(capsys, "three-interval", "--loops", "1,2,1")
        assert code == 3


class TestVerifyCover:
    def test_ok(self, capsys):
        code, env = run_json(capsys, "verify-cover", "--ratio", "3/2", "--ell", "6")
        assert code == 0
        report = env["report"]
        assert report["ok"] is True
        assert report["first_mismatch"] is None
        assert report["tile_count"] > 0

    def test_resource_limit(self, capsys):
        code, _out, _err = run_cli(
            capsys, "verify-cover", "--ratio", "2/1", "--ell", "40"
        )
        assert code == 4

    @pytest.mark.parametrize(
        "n, m, ell", [(10**22, 1, 3), (10**7, 1, 3), (5 * 10**6, 1, 21)], ids=["1e22/1", "1e7/1", "5e6/1"]
    )
    def test_a_long_loop_costs_its_steps(self, capsys, n, m, ell):
        # the rule's label map held n + m - 1 labels: these exited 4, and 5
        # at 10**22/1 before the map had a budget
        start = time.perf_counter()
        code, env = run_json(capsys, "verify-cover", "--ratio", f"{n}/{m}", "--ell", str(ell))
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert env["report"]["ok"] is True
        assert env["report"]["tile_count"] == count_tiles_commensurable(n, m, ell)


# SHA-256 of the stdout of each command, recorded from a known-good
# build: the patch artifacts must stay byte-identical.
CLI_GOLDENS = json.loads((DATA / "cli_goldens.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("command", sorted(CLI_GOLDENS))
def test_patch_artifact_bytes_match_golden(capsys, command):
    code, out, _err = run_cli(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CLI_GOLDENS[command]


# Exit code and SHA-256 of the stdout of each JSON report the goldens
# above leave out, recorded from a known-good build: a handler that
# reads its payload off a library record must keep every byte.
CLI_PAYLOADS = json.loads((DATA / "cli_payloads.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("command", sorted(CLI_PAYLOADS))
def test_json_payload_bytes_match_pin(capsys, command):
    code, out, _err = run_cli(capsys, *command.split())
    assert code == CLI_PAYLOADS[command]["exit"]
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CLI_PAYLOADS[command]["sha256"]


# The CLI reads the patch columns and builds no Tile object.
@pytest.mark.parametrize(
    "command",
    [
        "generate --alpha 0.4 --t 8 --format csv",
        "generate --alpha 0.4 --t 6 --format json",
        "generate --alpha 0.3 --t 7 --format svg",
        "generate --alpha 0.4 --t 8 --points",
        "generate --ratio 3/2 --ell 25 --format json",
        "generate --ratio 2/1 --ell 12 --points",
        "generate --ratio 1/1 --ell 6 --format csv",
    ],
)
def test_generate_builds_no_tile(capsys, monkeypatch, command):
    def no_tile(self, *args, **kwargs):
        raise AssertionError("a Tile was built")

    monkeypatch.setattr(Tile, "__init__", no_tile)
    code, out, _err = run_cli(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CLI_GOLDENS[command]


def _limit_memory():
    import resource

    # 2 GiB of address space: a refusal must not allocate its way there
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def test_direct_scan_past_the_cap_is_refused_fast():
    # it walked every leaf below e**700 and ran past 60 s before the cap
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    result = subprocess.run(
        [sys.executable, "-m", "kakutani", "discrepancy", "--alpha", "0.3", "--t", "700", "--mode", "direct"],
        capture_output=True,
        text=True,
        timeout=30,
        env=env,
        preexec_fn=_limit_memory,
    )
    assert result.returncode == 4
    assert result.stdout == ""
    assert "resource limit" in result.stderr


def test_direct_scan_of_a_long_leaf_row_is_refused_fast():
    # row 0 holds 1e9 leaf children and the window 2 about 7e8 of them:
    # counting them one right step at a time took 50-80 s to refuse
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "kakutani", "discrepancy", "--alpha", "1e-9", "--t", "1", "--windows", "2", "--mode", "direct"],
        capture_output=True,
        text=True,
        timeout=30,
        env=env,
        preexec_fn=_limit_memory,
    )
    assert time.perf_counter() - start < 5.0
    assert result.returncode == 4
    assert result.stdout == ""
    assert "resource limit" in result.stderr


def test_direct_scan_past_the_cap_by_its_exact_count_is_refused_fast():
    # the walk table fits and the leaves of (top, 0) pass the cap, so the
    # exact count of the leaves below the window decides
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "kakutani", "discrepancy", "--alpha", "1e-6", "--t", "20", "--windows", "4.8e8", "--mode", "direct"],
        capture_output=True,
        text=True,
        timeout=30,
        env=env,
        preexec_fn=_limit_memory,
    )
    assert time.perf_counter() - start < 5.0
    assert result.returncode == 4
    assert result.stdout == ""
    assert "walks more than 100000000 leaves" in result.stderr


def test_direct_scan_at_the_support_is_refused_fast():
    # the window lies within the bands of row 0's float sums: stepping
    # through them, and the exact count, took 5 s to refuse
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "kakutani", "discrepancy", "--alpha", "1e-6", "--t", "25",
         "--windows", "72004899337.38588", "--mode", "direct"],
        capture_output=True,
        text=True,
        timeout=30,
        env=env,
        preexec_fn=_limit_memory,
    )
    assert time.perf_counter() - start < 5.0
    assert result.returncode == 4
    assert result.stdout == ""
    assert "walks more than 100000000 leaves" in result.stderr


@pytest.mark.parametrize(
    "args",
    [
        ["generate", "--ratio", "3/2", "--ell", "60"],  # 26,931,732 tiles
        ["generate", "--ratio", "3/2", "--ell", "51"],  # counted: 2,143,648 tiles
        ["generate", "--alpha", "0.3", "--t", "14.3", "--format", "json"],
        ["verify-cover", "--ratio", "3/2", "--ell", "64"],  # 82,938,844 tiles
    ],
)
def test_a_patch_past_the_memory_budget_is_refused_fast(args):
    # under the tile cap, but past the memory budget: the first of these
    # was killed by the kernel as its memory grew
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "kakutani", *args],
        capture_output=True,
        text=True,
        timeout=30,
        preexec_fn=_limit_memory,
    )
    assert time.perf_counter() - start < 5.0
    assert result.returncode == 4
    assert result.stdout == ""
    assert "above the memory budget of 2 GiB" in result.stderr


# Both commands scaled with n and had no bound: the DOT graph of the
# loops 3000000,1,1 took 23 s and 237 MB, and the dense Perron eigensolve
# behind the density of 1501/1500 took 68 s.
@pytest.mark.parametrize(
    "args",
    [
        ["three-interval", "--loops", "30000000,1,1", "--format", "dot"],
        ["three-interval", "--loops", "451,1,1", "--format", "dot"],
        ["discrepancy", "--ratio", "451/450", "--ell", "10", "--windows", "0.5"],
    ],
)
def test_spectral_degree_bounds_dot_and_density(args):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "kakutani", *args],
        capture_output=True,
        text=True,
        timeout=30,
        env=env,
        preexec_fn=_limit_memory,
    )
    assert time.perf_counter() - start < 5.0
    assert result.returncode == 4
    assert result.stdout == ""
    assert result.stderr.startswith("kakutani: resource limit: a spectrum of degree")
    assert result.stderr.count("\n") == 1


def test_direct_scan_small_alpha_stays_small():
    # Row 0 of this tree has 12M nodes and the scan to 16 reaches about a
    # hundred of them; a walk table over the whole row ran out of memory.
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    result = subprocess.run(
        [sys.executable, "-m", "kakutani", "discrepancy", "--alpha", "1e-6", "--t", "12", "--windows", "4,16", "--mode", "direct"],
        capture_output=True,
        text=True,
        timeout=30,
        env=env,
        preexec_fn=_limit_memory,
    )
    assert result.returncode == 0, result.stderr
    windows = (4.0, 16.0)
    want = direct_scan_per_node(1e-6, 12.0, asymptotic_density(1e-6).value, windows)
    assert result.stdout.splitlines()[-2:] == [f"{w!r},{m!r}" for w, m in zip(windows, want)]


# The count of these patches is a sum of binomials on the staircase of
# the tree: 1e-6 held a per-pair count memo too large for memory (exit 1
# with a MemoryError), and 0.3 at t = 700 took 1.8 s to count.
@pytest.mark.parametrize("alpha, t", [("1e-6", "14"), ("0.3", "700")])
def test_generate_past_the_cap_is_refused(alpha, t):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    result = subprocess.run(
        [sys.executable, "-m", "kakutani", "generate", "--alpha", alpha, "--t", t],
        capture_output=True,
        text=True,
        timeout=30,
        env=env,
        preexec_fn=_limit_memory,
    )
    assert result.returncode == 4
    assert result.stdout == ""
    assert "resource limit" in result.stderr


# The exact hub count of 3/2 passes 4,300 digits from about ell 35,000,
# and printing it in the refusal raised ValueError (exit 5); at 10**6
# steps its quadratic count would take tens of seconds.  The lower bound
# xi**(ell - c) refuses both before any count.
@pytest.mark.parametrize("command", ["generate", "verify-cover"])
@pytest.mark.parametrize("ell", ["60000", "1000000"])
def test_long_hub_patch_refused_from_its_bound(capsys, monkeypatch, command, ell):
    from kakutani import engine

    def no_count(*args):
        raise AssertionError("counted the tiles exactly")

    monkeypatch.setattr(engine, "count_hub_tiles", no_count)
    code, out, err = run_cli(capsys, command, "--ratio", "3/2", "--ell", ell)
    assert code == 4
    assert out == ""
    assert err.startswith("kakutani: resource limit: patch would contain at least 10**")
    assert len(err) < 200


def test_hub_counts_under_the_bound_stay_exact(capsys):
    # one step past the cap: the bound leaves it open and the exact count
    # refuses it, with the count in the message
    code, _out, err = run_cli(
        capsys, "generate", "--ratio", "2/1", "--ell", "5", "--max-tiles", "12"
    )
    assert code == 4
    assert "patch would contain 13 tiles, above the cap 12" in err


# The budget bounds the work of the fixed-scale builders, not only the
# tiles they end with.  The first two built some 3e8 and 2e8 leaves for
# 1.5e6 and 2e4 tiles, and the cover check builds both for its two words.
# The last ratio has 2 tiles after 5e7 steps, but counting them takes 5e7
# steps: as H(k) >= 2 for k >= 1, its recursion is refused before any
# count.
@pytest.mark.parametrize(
    "args, message",
    [
        (["generate", "--ratio", "1000/1", "--ell", "2171"],
         "patch would build at least 307556425 leaves, above the cap"),
        (["generate", "--ratio", "100000/1", "--ell", "20000"],
         "patch would build at least 200030001 leaves, above the cap"),
        (["verify-cover", "--ratio", "100000/1", "--ell", "20000"],
         "patch would build at least 200030001 leaves, above the cap"),
        (["generate", "--ratio", "10000000000000000000001/10000000000000000000000", "--ell", "50000000"],
         "patch would build at least 100000001 leaves, above the cap"),
    ],
)
def test_fixed_scale_work_past_the_budget_is_refused_fast(capsys, monkeypatch, args, message):
    from kakutani import cover, engine

    def no_build(*args, **kwargs):
        raise AssertionError("built a patch or a word")

    for module, name in [(engine, "hub_patch"), (cover, "_rule_word"), (cover, "_multiscale_word")]:
        monkeypatch.setattr(module, name, no_build)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *args)
    assert time.perf_counter() - start < 1.0
    assert code == 4
    assert out == ""
    assert message in err


# Nothing escapes main as a traceback or a verdict code.  The commands
# raise without allocating anything.
@pytest.mark.parametrize(
    "error, code, message",
    [
        (MemoryError(), 4, "kakutani: resource limit: out of memory"),
        (RecursionError("too deep"), 5, "kakutani: internal error: RecursionError: too deep"),
        (KeyError("x"), 5, "kakutani: internal error: KeyError: 'x'"),
    ],
)
def test_uncaught_errors_get_their_own_exit_code(capsys, monkeypatch, error, code, message):
    def fail(args):
        raise error

    monkeypatch.setattr(cli, "_cmd_classify", fail)
    assert main(["classify", "--ratio", "3/2"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message + "\n"


# A t that is not finite, or whose e**t overflows a float, is refused
# before any tree work: the usage exit code, not a verdict code.
@pytest.mark.parametrize(
    "command",
    [
        "generate --alpha 0.3 --t inf",
        "generate --alpha 0.3 --t nan",
        "discrepancy --alpha 0.3 --t 1e300",
        "discrepancy --alpha 0.3 --t nan",
    ],
)
def test_bad_t_is_a_parameter_error(capsys, command):
    code, out, err = run_cli(capsys, *command.split())
    assert code == 3
    assert out == ""
    assert "parameter error" in err


# An alpha whose r = log(alpha) / log(1 - alpha), about 703 / alpha,
# overflows a float is a usage error, and a staircase whose row 0,
# t / -log(1 - alpha) columns, overflows one is a resource limit: each
# raised OverflowError, an internal error.
@pytest.mark.parametrize(
    "command, code, message",
    [
        ("classify --alpha 3e-306", 3, "parameter error: alpha = 3e-306 is too small"),
        ("generate --alpha 5e-324 --t 1", 3, "parameter error: alpha = 5e-324 is too small"),
        ("discrepancy --alpha 1e-310 --t 1 --windows 0.5", 3,
         "parameter error: alpha = 1e-310 is too small"),
        ("discrepancy --alpha 1e-310 --t 1 --windows 0.5 --mode direct", 3,
         "parameter error: alpha = 1e-310 is too small"),
        ("generate --alpha 3.92e-306 --t 709", 4, "resource limit: row 0 of the staircase"),
    ],
)
def test_tiny_alpha_is_refused(capsys, command, code, message):
    got, out, err = run_cli(capsys, *command.split())
    assert got == code
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("kakutani: " + message)
    assert "Traceback" not in err



# A tiny alpha has a huge r, and no convergent of it passes the defect
# test with its rounding bound: the verdict is incommensurable, not a
# spectrum of some 10**12 or 10**102 degrees refused as a resource limit.
@pytest.mark.parametrize("alpha", ["1e-100", "1e-11"])
def test_tiny_alpha_is_incommensurable(capsys, alpha):
    code, env = run_json(capsys, "classify", "--alpha", alpha)
    assert code == 1
    report = env["report"]
    assert report["n"] is None and report["solomon"] is None
    assert report["reason"].startswith("incommensurable ratio")


def test_tiny_alpha_discrepancy_scans_the_tree(capsys):
    code, out, err = run_cli(capsys, "discrepancy", "--alpha", "1e-11", "--t", "1e-4", "--windows", "1")
    assert code == 0
    assert err == ""
    assert out.splitlines()[-2:] == ["window,max_disc", "1.0,3788174714.463909"]

@pytest.mark.parametrize(
    "command, message",
    [
        ("--windows 1,abc", "expected comma-separated numbers as windows"),
        ("--windows ,", "expected comma-separated numbers as windows"),
        ("--high 2000", "float range"),
        ("--low -2000 --high 2", "float range"),
    ],
)
def test_malformed_windows_are_usage_errors(capsys, command, message):
    code, out, err = run_cli(capsys, "discrepancy", "--alpha", "0.3", "--t", "10", *command.split())
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "parameter error" in err and message in err


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.strip() == f"kakutani {__version__}"

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 3

    def test_module_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "kakutani", "classify", "--ratio", "2/1"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        env = json.loads(result.stdout)
        assert env["report"]["solomon"] == "Spread"

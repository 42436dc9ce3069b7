"""Command-line front end.

Every command writes a single deterministic artifact (JSON, CSV, SVG or
DOT) to stdout or to --out.  Verdict commands use the exit code to
report the classification: 0 for Spread, 1 for NotSpread, 2 for
Boundary or unresolved.  Codes above 2 signal errors, so shell
pipelines can branch on the trichotomy safely: 3 usage, 4 resource
limit (a cap, or memory running out), 5 numeric failure or any other
internal error, reported in one line on stderr.

Each command imports the modules it runs, in its handler, so a run
pays the import time of those alone: ``generate``, ``verify-cover``
and ``discrepancy --alpha`` load no spectral, root-finding or numpy
code.

The only environment influence is KAKUTANI_MAX_TILES, an override for
the tile-count safety cap; everything else comes from the arguments,
and identical invocations produce byte-identical output.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Any, Sequence

from ._version import __version__
from .errors import NumericError, ParameterError, ResourceLimitError

EXIT_SPREAD = 0
EXIT_NOT_SPREAD = 1
EXIT_BOUNDARY = 2
EXIT_USAGE = 3
EXIT_RESOURCE = 4
EXIT_NUMERIC = 5

# Keyed by the values of the str enums SpreadClass and Rationale, so
# that a command loads the spectral module only if it runs a verdict.
_VERDICT_EXIT = {
    "Spread": EXIT_SPREAD,
    "NotSpread": EXIT_NOT_SPREAD,
    "Boundary": EXIT_BOUNDARY,
}

_REASONS = {
    "lattice": "lattice tiling, trivially uniformly spread",
    "incommensurable": (
        "incommensurable ratio: discrepancy grows like window/log(window)"
    ),
    "pv-spectrum": "all secondary eigenvalues strictly inside the unit circle",
    "non-pv-spectrum": (
        "a secondary eigenvalue lies strictly outside the unit circle"
    ),
    "unit-circle-factor": (
        "exact cyclotomic factor puts an eigenvalue on the unit circle"
    ),
    "unresolved-near-unit": (
        "secondary eigenvalue numerically at the unit circle, unresolved"
    ),
}


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with code 3, keeping
    codes 0 to 2 reserved for classification verdicts."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_ratio(text: str) -> tuple[int, int]:
    parts = text.split("/")
    if len(parts) != 2:
        raise ParameterError(f"expected a ratio of the form n/m, got {text!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ParameterError(f"expected integers in the ratio, got {text!r}") from exc
    return n, m


def _parse_windows(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(w) for w in text.split(","))
    except ValueError as exc:
        raise ParameterError(f"expected comma-separated numbers as windows, got {text!r}") from exc


def _parse_loops(text: str) -> tuple[int, int, int]:
    parts = text.replace("/", ",").split(",")
    if len(parts) != 3:
        raise ParameterError(f"expected three loop counts n,m,k, got {text!r}")
    try:
        n, m, k = (int(p) for p in parts)
    except ValueError as exc:
        raise ParameterError(f"expected integers in the loop counts, got {text!r}") from exc
    return n, m, k


def _resolve_max_tiles(value: int | None) -> int:
    from .engine import DEFAULT_TILE_CAP

    if value is not None:
        return value
    env = os.environ.get("KAKUTANI_MAX_TILES")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ParameterError(
                f"KAKUTANI_MAX_TILES must be an integer, got {env!r}"
            ) from exc
    return DEFAULT_TILE_CAP


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def _spectral_dict(report: Any) -> dict[str, Any]:
    return {
        "lambda1": report.lambda1,
        "lambda2_modulus": report.lambda2_modulus,
        "has_unit_modulus_eigenvalue": report.has_unit_modulus_eigenvalue,
        "ell": report.ell,
        "solomon": report.solomon.value,
        "unresolved": report.unresolved,
        "roots": [
            {
                "re": z.real,
                "im": z.imag,
                "modulus": abs(z),
                "residual": res,
            }
            for z, res in zip(report.roots, report.residuals)
        ],
    }


def _cmd_classify(args: argparse.Namespace) -> int:
    from .exports import json_envelope
    from .params import Commensurable, detect_commensurability
    from .spectral import classify_spreadness

    if args.ratio is not None:
        n, m = _parse_ratio(args.ratio)
        verdict = classify_spreadness(Commensurable(n, m))
    else:
        ratio = detect_commensurability(args.alpha, args.max_denominator)
        verdict = classify_spreadness(ratio, alpha=args.alpha)
    config = {
        "command": "classify",
        "ratio": args.ratio,
        "alpha": args.alpha,
        "max_denominator": args.max_denominator,
        "format": "json",
    }
    reason = _REASONS[verdict.rationale.value]
    if verdict.mismatch:
        reason += "; spectral verdict disagrees with the five-ratio list"
    if isinstance(verdict.ratio, Commensurable):
        report = verdict.spectral
        assert report is not None
        payload = {
            "n": verdict.ratio.n,
            "m": verdict.ratio.m,
            "r": verdict.ratio.n / verdict.ratio.m,
            "alpha": verdict.alpha,
            "lambda1": report.lambda1,
            "lambda2_modulus": report.lambda2_modulus,
            "unit_circle_factor": report.has_unit_modulus_eigenvalue,
            "ell": report.ell,
            "solomon": report.solomon.value,
            "theorem_verdict": verdict.theorem_verdict,
            "reason": reason,
        }
    else:
        payload = {
            "n": None,
            "m": None,
            "r": verdict.ratio.r,
            "alpha": verdict.alpha,
            "lambda1": None,
            "lambda2_modulus": None,
            "unit_circle_factor": None,
            "ell": None,
            "solomon": None,
            "theorem_verdict": verdict.theorem_verdict,
            "reason": reason,
        }
    _emit(json_envelope(payload, config), args.out)
    return _VERDICT_EXIT[verdict.spread_class.value]


def _cmd_survey(args: argparse.Namespace) -> int:
    from .exports import json_envelope, survey_to_csv
    from .spectral import survey

    rows = survey(args.max_n)
    config = {"command": "survey", "max_n": args.max_n, "format": args.format}
    if args.format == "csv":
        _emit(survey_to_csv(rows, config), args.out)
    else:
        payload = {
            "rows": [
                {
                    "n": row.n,
                    "m": row.m,
                    "alpha": row.alpha,
                    "lambda1": row.lambda1,
                    "lambda2_modulus": row.lambda2_modulus,
                    "solomon": row.solomon.value,
                    "theorem": row.theorem,
                }
                for row in rows
            ]
        }
        _emit(json_envelope(payload, config), args.out)
    return 0


def _cmd_solve_alpha(args: argparse.Namespace) -> int:
    from .exports import json_envelope
    from .params import Commensurable, f_alpha_poly, solve_alpha

    n, m = _parse_ratio(args.ratio)
    Commensurable(n, m)  # refuses the pair with its own message
    alpha = solve_alpha(n, m)
    xi = alpha ** (-1.0 / n)
    config = {"command": "solve-alpha", "ratio": args.ratio, "format": "json"}
    payload = {
        "n": n,
        "m": m,
        "r": n / m,
        "alpha": alpha,
        "xi": xi,
        "step": math.log(1.0 / alpha) / n,
        "polynomial": str(f_alpha_poly(n, m)) if n > m else "x - 2",
    }
    _emit(json_envelope(payload, config), args.out)
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from .exports import json_envelope, patch_to_csv, patch_to_svg, points_to_csv

    if args.points and args.format != "csv":
        raise ParameterError("--points supports only csv output")  # before any patch
    max_tiles = _resolve_max_tiles(args.max_tiles)
    if args.ratio is not None:
        if args.ell is None:
            raise ParameterError("--ratio needs --ell (number of substitution steps)")
        n, m = _parse_ratio(args.ratio)
        if n == m:
            from .engine import generate_patch_commensurable

            patch = generate_patch_commensurable(n, m, args.ell, max_tiles=max_tiles)
        else:
            # the plain recursion's patch, by the same walk, with
            # prototile labels attached
            from .cover import build_rho, iterate_primitive

            patch = iterate_primitive(build_rho(n, m), args.ell, max_tiles=max_tiles)
    else:
        if args.t is None:
            raise ParameterError("--alpha needs --t (flow time)")
        from .engine import generate_patch

        patch = generate_patch(
            args.alpha, args.t, origin_offset=args.origin_offset, max_tiles=max_tiles
        )
    config = {
        "command": "generate",
        "ratio": args.ratio,
        "ell": args.ell,
        "alpha": args.alpha,
        "t": args.t,
        "origin_offset": args.origin_offset,
        "points": args.points,
        "max_tiles": max_tiles,
        "format": args.format,
    }
    if args.points:  # the Delone set: the tiles' left endpoints
        _emit(points_to_csv(patch.positions(), config), args.out)
        return 0
    if args.format == "csv":
        _emit(patch_to_csv(patch, config), args.out)
    elif args.format == "svg":
        _emit(patch_to_svg(patch, config), args.out)
    else:
        payload = {
            "support": list(patch.support),
            "tile_count": len(patch),
            "tiles": [
                {"position": position, "length": length, "label": label}
                for position, length, label in zip(
                    patch.positions(), patch.lengths(), patch.labels()
                )
            ],
        }
        _emit(json_envelope(payload, config), args.out)
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    from .exports import json_envelope
    from .params import Commensurable, check_spectral_degree, solve_alpha
    from .spectral import solomon_verdict

    n, m = _parse_ratio(args.ratio)
    Commensurable(n, m)  # refuses the pair with its own message
    if n == m:
        raise ParameterError("the lattice ratio (1, 1) needs no cover")
    check_spectral_degree(n)
    alpha = solve_alpha(n, m)
    report = solomon_verdict((n, m))
    config = {"command": "spectrum", "ratio": args.ratio, "format": "json"}
    payload = {
        "n": n,
        "m": m,
        "alpha": alpha,
        **_spectral_dict(report),
    }
    _emit(json_envelope(payload, config), args.out)
    return 0


def _cmd_discrepancy(args: argparse.Namespace) -> int:
    from .discrepancy import discrepancy_scan, dyadic_windows
    from .engine import SubdivisionTree
    from .exports import json_envelope, series_to_csv, series_to_svg
    from .params import Commensurable, detect_commensurability, solve_alpha

    if args.fit and args.format != "json":
        raise ParameterError("--fit supports only json output")  # before any scan
    if args.ratio is not None:
        # whole substitution steps only: between steps the snapshot
        # density drifts away from the Perron value
        if args.ell is None:
            raise ParameterError("--ratio needs --ell (number of substitution steps)")
        n, m = _parse_ratio(args.ratio)
        ratio: Any = Commensurable(n, m)
        alpha = solve_alpha(n, m)
        t = args.ell * math.log(1.0 / alpha) / n
    else:
        if args.t is None:
            raise ParameterError("--alpha needs --t (flow time)")
        alpha = args.alpha
        ratio = detect_commensurability(alpha, args.max_denominator)
        t = args.t
    support = SubdivisionTree(alpha, t).support
    if args.windows is not None:
        windows = _parse_windows(args.windows)
        grid_echo: dict[str, Any] = {"windows": list(windows)}
    else:
        high = args.high if args.high is not None else int(math.log2(support))
        windows = dyadic_windows(args.low, high)
        grid_echo = {"grid": "dyadic", "low": args.low, "high": high}
    series = discrepancy_scan(alpha, t, windows, ratio=ratio, mode=args.mode)
    config = {
        "command": "discrepancy",
        "ratio": args.ratio,
        "ell": args.ell,
        "alpha": alpha,
        "t": t,
        "mode": args.mode,
        "format": args.format,
        **grid_echo,
    }
    if args.format == "csv":
        _emit(series_to_csv(series, config), args.out)
    elif args.format == "svg":
        _emit(series_to_svg(series, config), args.out)
    else:
        payload: dict[str, Any] = {
            "alpha": series.alpha,
            "t": series.t,
            "density": series.density,
            "density_method": series.density_method,
            "windows": list(series.windows),
            "max_disc": list(series.max_disc),
        }
        if args.fit:
            from .discrepancy import growth_fit

            fit = growth_fit(series)
            payload["fit"] = {
                "best": fit.best,
                "exponent": fit.exponent,
                "residuals": fit.residuals,
                "heuristic": fit.heuristic,
            }
        _emit(json_envelope(payload, config), args.out)
    return 0


def _cmd_three_interval(args: argparse.Namespace) -> int:
    from .params import check_spectral_degree

    n, m, k = _parse_loops(args.loops)
    config = {
        "command": "three-interval",
        "loops": args.loops,
        "format": args.format,
    }
    if args.format == "dot":
        from .cover import build_three_interval_rule
        from .exports import rule_to_dot

        check_spectral_degree(n)  # the graph has a vertex per loop edge
        _emit(rule_to_dot(build_three_interval_rule(n, m, k)), args.out)
        return 0
    from .exports import json_envelope
    from .spectral import classify_three_interval

    verdict = classify_three_interval(n, m, k)
    payload = {
        "loops": list(verdict.loops),
        "polynomial": str(verdict.polynomial),
        "log_length_proportions": list(verdict.loops),
        "pv_member": verdict.pv_member,
        "pv_family": verdict.pv_family,
        "mismatch": verdict.mismatch,
        "spread_class": verdict.spread_class.value,
        "spectral": _spectral_dict(verdict.spectral),
    }
    _emit(json_envelope(payload, config), args.out)
    return _VERDICT_EXIT[verdict.spread_class.value]


def _cmd_verify_cover(args: argparse.Namespace) -> int:
    from .cover import verify_cover
    from .exports import json_envelope

    n, m = _parse_ratio(args.ratio)
    max_tiles = _resolve_max_tiles(args.max_tiles)
    report = verify_cover(n, m, args.ell, max_tiles=max_tiles)
    config = {
        "command": "verify-cover",
        "ratio": args.ratio,
        "ell": args.ell,
        "max_tiles": max_tiles,
        "format": "json",
    }
    payload = {
        "ok": report.ok,
        "n": report.n,
        "m": report.m,
        "ell": report.ell,
        "tile_count": report.tile_count,
        "first_mismatch": report.first_mismatch,
        "raw_equal": report.ok,
    }
    _emit(json_envelope(payload, config), args.out)
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kakutani",
        description=(
            "Interval substitution tilings: generation, covering "
            "substitutions, spectral spreadness verdicts and "
            "discrepancy scans."
        ),
    )
    parser.add_argument("--version", action="version", version=f"kakutani {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="uniform spreadness verdict for one parameter")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--ratio", help="exact ratio n/m")
    group.add_argument("--alpha", type=float, help="split parameter in (0, 1/2]")
    p.add_argument("--max-denominator", type=int, default=64)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("survey", help="classify all coprime ratios up to a bound")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_survey)

    p = sub.add_parser("solve-alpha", help="solve alpha^m = (1-alpha)^n exactly")
    p.add_argument("--ratio", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_solve_alpha)

    p = sub.add_parser("generate", help="generate a patch (tiles or point set)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--ratio", help="commensurable pair n/m, fixed-scale steps")
    group.add_argument("--alpha", type=float, help="multiscale flow parameter")
    p.add_argument("--ell", type=int, help="substitution steps (with --ratio)")
    p.add_argument("--t", type=float, help="flow time (with --alpha)")
    p.add_argument("--origin-offset", type=float, default=0.5)
    p.add_argument("--points", action="store_true", help="emit left endpoints only")
    p.add_argument("--max-tiles", type=int)
    p.add_argument("--format", choices=("csv", "json", "svg"), default="csv")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("spectrum", help="eigenvalue report for one ratio")
    p.add_argument("--ratio", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("discrepancy", help="max counting deviation per window")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--ratio", help="commensurable pair n/m")
    group.add_argument("--alpha", type=float)
    p.add_argument("--t", type=float, help="flow time (with --alpha)")
    p.add_argument("--ell", type=int, help="substitution steps (with --ratio)")
    p.add_argument("--low", type=int, default=4, help="smallest dyadic exponent")
    p.add_argument("--high", type=int, help="largest dyadic exponent (default: fit t)")
    p.add_argument("--windows", help="explicit comma-separated window list")
    p.add_argument("--mode", choices=("profile", "direct"), default="profile")
    p.add_argument("--fit", action="store_true", help="attach a growth-model fit")
    p.add_argument("--max-denominator", type=int, default=64)
    p.add_argument("--format", choices=("csv", "json", "svg"), default="csv")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_discrepancy)

    p = sub.add_parser("three-interval", help="three-loop rule classification")
    p.add_argument("--loops", required=True, help="loop counts n,m,k")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_three_interval)

    p = sub.add_parser("verify-cover", help="check the covering substitution exactly")
    p.add_argument("--ratio", required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--max-tiles", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify_cover)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"kakutani: parameter error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"kakutani: resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except NumericError as exc:
        print(f"kakutani: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError:
        print("kakutani: resource limit: out of memory", file=sys.stderr)
        return EXIT_RESOURCE
    except Exception as exc:
        # never a verdict code, and one line instead of a traceback
        print(f"kakutani: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())

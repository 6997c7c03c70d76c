"""Deterministic command-line surface over the codec, planner, series
models, and verification suite.

Every command emits one output envelope, as aligned text or as JSON
with sorted keys, and state flows only through flags.  Exit codes:
0 success, 1 verification failure, 2 domain error (an excluded degree,
or a series coefficient beyond the unsigned 64-bit bound), 64 usage
error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Callable

from .checks import (
    verify_bijection,
    verify_main_theorem,
    verify_quotient_steps,
    verify_simple_systems,
)
from .degrees import ExcludedDegreeError, StageTriple, compose, decompose, stages_up_to_degree
from .manifolds import expand, indecomposable, plan
from .spaces import adams_homotopy_series, steenrod_series, thom_homology_series

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_DOMAIN_ERROR = 2
EXIT_USAGE = 64

DEFAULT_CAP = 64


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; the CLI contract reserves 2 for
    # domain errors and uses 64 for usage problems.
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _nonneg_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _verify_cap(text: str) -> int:
    value = _nonneg_int(text)
    if value < 2:
        raise argparse.ArgumentTypeError("verification cap must be >= 2")
    return value


def _stage(text: str) -> StageTriple:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"stage must look like n,j,i, got {text!r}")
    try:
        n, j, i = (int(p) for p in parts)
        return StageTriple(n, j, i)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid stage {text!r}: {exc}")


def _stage_json(t: StageTriple) -> dict:
    return {"n": t.n, "j": t.j, "i": t.i}


def _stage_text(t: StageTriple) -> str:
    return f"({t.n},{t.j},{t.i})"


def _parameters(ns: argparse.Namespace) -> dict:
    """The envelope's parameters: every argument of the command, and the output format."""
    params = {k: v for k, v in vars(ns).items() if k not in ("command", "func", "json")}
    if "stage" in params:
        params["stage"] = None if ns.stage is None else _stage_json(ns.stage)
    params["format"] = "json" if ns.json else "table"
    return params


def _emit(
    ns: argparse.Namespace,
    *,
    result: dict | None = None,
    error: dict | None = None,
    text_lines: list[str],
) -> None:
    if ns.json:
        envelope: dict[str, Any] = {
            "command": ns.command,
            "parameters": _parameters(ns),
            "status": "ok" if error is None else "error",
        }
        if error is None:
            envelope["result"] = result
        else:
            envelope["error"] = error
        print(json.dumps(envelope, sort_keys=True, indent=2))
    else:
        print("\n".join(text_lines))


def _cmd_decompose(ns: argparse.Namespace) -> int:
    try:
        t = decompose(ns.degree)
    except ExcludedDegreeError as exc:
        _emit(
            ns,
            error={"code": "EXCLUDED_DEGREE", "message": str(exc)},
            text_lines=[f"error EXCLUDED_DEGREE: {exc}"],
        )
        return EXIT_DOMAIN_ERROR
    result = {"n": t.n, "j": t.j, "i": t.i, "recomposed": compose(t)}
    _emit(
        ns,
        result=result,
        text_lines=[f"degree {ns.degree}: stage (n={t.n}, j={t.j}, i={t.i})"],
    )
    return EXIT_OK


def _cmd_recipe(ns: argparse.Namespace) -> int:
    try:
        t = decompose(ns.degree)
    except ExcludedDegreeError as exc:
        _emit(
            ns,
            error={"code": "EXCLUDED_DEGREE", "message": str(exc)},
            text_lines=[f"error EXCLUDED_DEGREE: {exc}"],
        )
        return EXIT_DOMAIN_ERROR
    recipe = plan(ns.degree)
    chain = indecomposable(recipe)
    result = {
        "degree": ns.degree,
        "stage": _stage_json(t),
        "base_dim": recipe.base_dim,
        "cup2_count": recipe.cup2_count,
        "cup1_count": recipe.cup1_count,
        "intermediate_dims": list(recipe.intermediate_dims),
        "justification": [{"rule": step.rule, "dim": step.dim} for step in chain],
    }
    dims = " -> ".join(str(d) for d in (recipe.base_dim, *recipe.intermediate_dims))
    lines = [
        f"degree {ns.degree}: stage (n={t.n}, j={t.j}, i={t.i})",
        f"base RP^{recipe.base_dim}, cup-2 steps {recipe.cup2_count}, "
        f"cup-1 steps {recipe.cup1_count}",
        f"dimensions {dims}",
    ]
    if ns.expand:
        result["term"] = expand(recipe)
        lines.append(f"term {result['term']}")
    lines.append("chain " + " -> ".join(f"{s.rule}({s.dim})" for s in chain))
    _emit(ns, result=result, text_lines=lines)
    return EXIT_OK


def _cmd_table(ns: argparse.Namespace) -> int:
    table = stages_up_to_degree(ns.max_degree)
    rows = [
        {
            "degree": entry.degree,
            "stage": _stage_json(entry.triple),
            "term": expand(plan(entry.degree)),
        }
        for entry in table.entries
    ]
    lines = [f"{'degree':<8}{'stage':<12}recipe"]
    for entry, row in zip(table.entries, rows):
        lines.append(f"{entry.degree:<8}{_stage_text(entry.triple):<12}{row['term']}")
    lines.append(f"{len(rows)} generator(s) up to degree {ns.max_degree}")
    _emit(
        ns,
        result={"max_degree": ns.max_degree, "rows": rows},
        text_lines=lines,
    )
    return EXIT_OK


def _cmd_series(ns: argparse.Namespace) -> int:
    if ns.what == "steenrod":
        series = steenrod_series(ns.cap)
        label = f"steenrod cap {ns.cap}"
    else:
        if ns.stage is None:
            message = f"--stage is required for {ns.what}"
            if ns.json:
                _emit(
                    ns,
                    error={"code": "MISSING_STAGE", "message": message},
                    text_lines=[],
                )
            else:
                print(f"cobfilt series: error: {message}", file=sys.stderr)
            return EXIT_USAGE
        fn = adams_homotopy_series if ns.what == "homotopy" else thom_homology_series
        series = fn(ns.stage, ns.cap)
        label = f"{ns.what} stage {_stage_text(ns.stage)} cap {ns.cap}"
    coeffs = list(series.coeffs)
    _emit(
        ns,
        result={"cap": ns.cap, "coefficients": coeffs},
        text_lines=[label, str(coeffs)],
    )
    return EXIT_OK


_CHECK_RUNNERS: dict[str, Callable[[int], Any]] = {
    "bijection": verify_bijection,
    "product": verify_main_theorem,
    "quotients": verify_quotient_steps,
    "simple-system": verify_simple_systems,
}


def _cmd_verify(ns: argparse.Namespace) -> int:
    names = list(_CHECK_RUNNERS) if ns.check == "all" else [ns.check]
    payload = []
    lines = []
    failures = 0
    for name in names:
        report = _CHECK_RUNNERS[name](ns.cap)
        entry = report.to_json()
        status = "pass" if report.passed else "fail"
        lines.append(f"{name}: {status} (cap {ns.cap})")
        if report.series is not None:
            entry["series"] = list(report.series)
            lines.append(f"{name} series: {entry['series']}")
        if not report.passed:
            failures += 1
            lines.append(f"  first discrepancy: {report.first_discrepancy.to_json()}")
        payload.append(entry)
    all_passed = failures == 0
    lines.append("result: all checks passed" if all_passed else f"result: {failures} check(s) failed")
    _emit(
        ns,
        result={"cap": ns.cap, "checks": payload, "all_passed": all_passed},
        text_lines=lines,
    )
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


def _build_parser() -> _Parser:
    parser = _Parser(prog="cobfilt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("decompose", help="degree to stage triple")
    p.add_argument("degree", type=_nonneg_int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("recipe", help="cup-construction recipe for a degree")
    p.add_argument("degree", type=_nonneg_int)
    p.add_argument("--expand", action="store_true", help="include the symbolic term")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_recipe)

    p = sub.add_parser("table", help="generator table up to a degree")
    p.add_argument("max_degree", type=_nonneg_int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("series", help="dimension series of a stage")
    p.add_argument("what", choices=["homotopy", "homology", "steenrod"])
    p.add_argument("--stage", type=_stage, help="stage triple n,j,i")
    p.add_argument("--cap", type=_nonneg_int, default=DEFAULT_CAP)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--check", choices=["all", *_CHECK_RUNNERS], default="all")
    p.add_argument("--cap", type=_verify_cap, default=DEFAULT_CAP)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return ns.func(ns)
    except OverflowError as exc:
        # TruncatedSeries refuses a coefficient beyond the u64 bound; commands
        # print only once their work is done, so nothing else reached stdout.
        _emit(
            ns,
            error={"code": "COEFFICIENT_OVERFLOW", "message": str(exc)},
            text_lines=[f"error COEFFICIENT_OVERFLOW: {exc}"],
        )
        return EXIT_DOMAIN_ERROR


if __name__ == "__main__":
    raise SystemExit(main())

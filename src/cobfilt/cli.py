"""Deterministic command-line surface over the codec, planner, series
models, and verification suite.

Every command emits one output envelope, as aligned text or as JSON
with sorted keys, and state flows only through flags.  Exit codes:
0 success, 1 verification failure, 2 domain error, 64 usage error,
70 internal error, 74 stdout closed (at start: once the argv parses and
passes the cap limits, before the command runs), or a write to it failed,
before all the output was written.  A closed stderr loses its text, not
the status.  Each command builds only the form main prints: its result
under --json, else its text lines.  Commands return before anything is
written; table alone makes its rows while main writes them, which is safe
because it cannot fail once its argument parses (see main).
Every error code comes from one table, _ERRORS, which main reads:
EXCLUDED_DEGREE, COEFFICIENT_OVERFLOW and CAP_LIMIT (2), MISSING_STAGE
and USAGE (64), and INTERNAL (70, with the traceback on stderr).  main
refuses a cap above its row of _CAP_LIMITS before any work.  A usage error prints
usage on stderr, or, when the argv starts with a command and holds
--json, a USAGE envelope with empty parameters.
Options must be spelled out in full: no parser accepts a prefix such
as --js, so a literal --json is the only way to ask for an envelope.
An argv that starts with a command is read by _read, from that
command's own parser's actions and its defaults and positionals, which
_PLANS reads once at import, when each token after the command is an
exact option string, an option's value or a positional, and each value
passes its type and choices.  _PARSER, argparse, parses every other
argv (-h, --, --cap=5, a value starting with -, a bad, missing or
leftover value, a missing or invalid command), to word its error or
print its help, and hands what follows a command to that command's
parser; so the parsers stay the one declaration of every command.
_PARSER's -h text is a short description for users, not this docstring;
main writes it, as it writes any output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterable, Iterator
from contextlib import suppress
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Callable

from .checks import (
    CheckReport,
    verify_bijection,
    verify_main_theorem,
    verify_quotient_steps,
    verify_simple_systems,
)
from .degrees import ExcludedDegreeError, StageTriple, compose, decompose, iter_runs
from .manifolds import (
    _CUP_CLOSE,
    _CUP_OPEN,
    _PROJECTIVE,
    _base_dim,
    expand,
    indecomposable,
    stage_recipe,
)
from .spaces import adams_homotopy_series, steenrod_series, thom_homology_series

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_DOMAIN_ERROR = 2
EXIT_USAGE = 64
EXIT_INTERNAL = 70
EXIT_IOERR = 74

DEFAULT_CAP = 64

# What a command returns: exit status, the envelope's result, the text lines;
# it builds only the one main prints, the result under --json, and leaves the other empty.
# The lines, and a result's "rows" when it is the result's last key, may be
# iterators that main consumes as it writes.
_Outcome = tuple[int, dict, Iterable[str]]
# Pieces of output per write: 4096 lines of text, or 2048 rows of JSON,
# where a row and the separator before it are two pieces.
_CHUNK = 4096


class _UsageError(Exception):
    """A usage error: its message for the envelope, and `stderr`, the text mode's
    whole report, worded as argparse words one."""

    def __init__(self, message: str, stderr: str) -> None:
        super().__init__(message)
        self.stderr = stderr


class _MissingStage(_UsageError):
    """series homotopy|homology was asked for without --stage."""


class _CapLimit(Exception):
    """A cap above the work limit of a command whose time, not an overflow, bounds its cap."""


# Every error a command raises, mapped to its exit status and code: the
# first row whose class matches wins, so Exception must stay last.
_ERRORS: tuple[tuple[type[Exception], int, str], ...] = (
    (ExcludedDegreeError, EXIT_DOMAIN_ERROR, "EXCLUDED_DEGREE"),
    # TruncatedSeries refuses a coefficient beyond the u64 bound.
    (OverflowError, EXIT_DOMAIN_ERROR, "COEFFICIENT_OVERFLOW"),
    (_CapLimit, EXIT_DOMAIN_ERROR, "CAP_LIMIT"),
    (_MissingStage, EXIT_USAGE, "MISSING_STAGE"),
    (_UsageError, EXIT_USAGE, "USAGE"),
    (Exception, EXIT_INTERNAL, "INTERNAL"),
)
# The largest cap of each (command, --check or series kind) with a limit,
# and the error main raises above it before any work: an OverflowError
# names the degree the work would first overflow in, limit + 1, and a
# _CapLimit the command whose time the limit bounds.  The row of verify
# --check all is set below _CHECK_RUNNERS, from the rows of its checks.
_CAP_LIMITS: dict[tuple[str, str], tuple[int, type[Exception]]] = {
    # The ring series first overflows in degree 540: the product check
    # computes it, and the quotient check's last stage is it.
    ("verify", "product"): (539, OverflowError),
    ("verify", "quotients"): (539, OverflowError),
    # A_* first overflows in degree 29,781.
    ("series", "steenrod"): (29780, OverflowError),
    # The worst stage runs about cap^2/2 stride steps, homology and homotopy
    # alike, and checks its series once they are done: about 5 s at this cap.
    ("series", "homology"): (8000, _CapLimit),
    ("series", "homotopy"): (8000, _CapLimit),
    # Its time grows as cap^2: about 0.5 s at this cap.
    ("verify", "simple-system"): (4000, _CapLimit),
    # Its time and memory grow linearly: about 5 s and 314 MiB at this cap.
    ("verify", "bijection"): (1_000_000, _CapLimit),
}


class _Help(Exception):
    """-h was asked for: the help text, which main writes as it writes any output."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; the CLI contract reserves 2 for
    # domain errors and uses 64 for usage problems, reported by main.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message, f"{self.format_usage()}{self.prog}: error: {message}\n")

    # argparse would write the help itself and drop a failed write, so a
    # help text lost to a full disk would still exit 0.
    def print_help(self, file=None) -> None:  # type: ignore[override]
        raise _Help(self.format_help())


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


def _parameters(ns: argparse.Namespace) -> dict:
    """The envelope's parameters: every argument of the command, and the output format."""
    params = {k: v for k, v in vars(ns).items() if k not in ("command", "func", "json")}
    if "stage" in params:
        params["stage"] = None if ns.stage is None else _stage_json(ns.stage)
    params["format"] = "json" if ns.json else "table"
    return params


def _degree_line(d: int, t: StageTriple) -> str:
    return f"degree {d}: stage (n={t.n}, j={t.j}, i={t.i})"


def _cmd_decompose(ns: argparse.Namespace) -> _Outcome:
    t = decompose(ns.degree)
    if ns.json:
        return EXIT_OK, {**_stage_json(t), "recomposed": compose(t)}, []
    return EXIT_OK, {}, [_degree_line(ns.degree, t)]


def _cmd_recipe(ns: argparse.Namespace) -> _Outcome:
    t = decompose(ns.degree)
    recipe = stage_recipe(t)
    dims = recipe.intermediate_dims
    chain = indecomposable(recipe)
    if ns.json:
        result = {
            "degree": ns.degree,
            "stage": _stage_json(t),
            "base_dim": recipe.base_dim,
            "cup2_count": recipe.cup2_count,
            "cup1_count": recipe.cup1_count,
            "intermediate_dims": list(dims),
            "justification": [{"rule": step.rule, "dim": step.dim} for step in chain],
        }
        return EXIT_OK, {**result, "term": expand(recipe)} if ns.expand else result, []
    return EXIT_OK, {}, [
        _degree_line(ns.degree, t),
        f"base {_PROJECTIVE}{recipe.base_dim}, cup-2 steps {recipe.cup2_count}, "
        f"cup-1 steps {recipe.cup1_count}",
        "dimensions " + " -> ".join(map(str, (recipe.base_dim, *dims))),
        *([f"term {expand(recipe)}"] if ns.expand else []),
        "chain " + " -> ".join(f"{s.rule}({s.dim})" for s in chain),
    ]


def _cmd_table(ns: argparse.Namespace) -> _Outcome:
    # Lazy: main writes the rows as they are made (see its docstring).
    rows = _table_rows(ns.max_degree, ns.json)
    if ns.json:
        return EXIT_OK, {"max_degree": ns.max_degree, "rows": rows}, []
    return EXIT_OK, {}, rows


def _table_rows(max_degree: int, as_json: bool) -> Iterator[str]:
    """The table up to max_degree, rendered as it is made: the items of
    result["rows"] under --json, else the text's header, rows and footer.

    One walk of the stage runs.  A run's first term is the bare base
    RP^b of its n for the first run of each n, which has no cup step, and
    is the cup-2 of the previous run's first term otherwise; each further
    term is the cup-1 of the term before it.  Each row is formatted right
    there, from its run's n and j and its own degree, i and term.
    """
    cup1, cup2, close = _CUP_OPEN[1], _CUP_OPEN[2], _CUP_CLOSE
    if not as_json:
        yield f"{'degree':<8}{'stage':<12}recipe"
    count = 0
    head, last_n = "", 0
    for n, j, degree in iter_runs(max_degree):
        if n != last_n:
            head, last_n = f"{_PROJECTIVE}{_base_dim(n)}", n
        else:
            head = f"{cup2}{head}{close}"
        # What rows of this run share: their stage's j and n in JSON, "(n,j," in text.
        run = f'          "j": {j},\n          "n": {n}\n' if as_json else f"({n},{j},"
        term, i = head, 0
        while True:
            if as_json:
                # The item as json.dumps(envelope, sort_keys=True, indent=2) renders
                # it, three levels deep: the keys sorted, the stage's too.  A term
                # holds only letters, digits, ^, commas and parentheses: no escapes.
                yield (
                    "      {\n"
                    f'        "degree": {degree},\n'
                    '        "stage": {\n'
                    f'          "i": {i},\n'
                    f"{run}"
                    "        },\n"
                    f'        "term": "{term}"\n'
                    "      }"
                )
            else:
                # ljust pads as the format spec :<8 would, at about half the cost.
                yield f"{degree}".ljust(8) + f"{run}{i})".ljust(12) + term
            # The term waits for the bound test, so none is made past a run's last row.
            degree = 2 * degree + 1
            if degree > max_degree:
                break
            term, i = f"{cup1}{term}{close}", i + 1
        count += i + 1
    if not as_json:
        yield f"{count} generator(s) up to degree {max_degree}"


def _cmd_series(ns: argparse.Namespace) -> _Outcome:
    if ns.what == "steenrod":
        series = steenrod_series(ns.cap)
    else:
        fn = adams_homotopy_series if ns.what == "homotopy" else thom_homology_series
        series = fn(ns.stage, ns.cap)
    coeffs = list(series.coeffs)
    if ns.json:
        return EXIT_OK, {"cap": ns.cap, "coefficients": coeffs}, []
    stage = "" if ns.what == "steenrod" else f" stage ({ns.stage.n},{ns.stage.j},{ns.stage.i})"
    return EXIT_OK, {}, [f"{ns.what}{stage} cap {ns.cap}", str(coeffs)]


_CHECK_RUNNERS: dict[str, Callable[[int], CheckReport]] = {
    "bijection": verify_bijection,
    "product": verify_main_theorem,
    "quotients": verify_quotient_steps,
    "simple-system": verify_simple_systems,
}
# verify --check all runs every check, so its row is the one with the lowest limit.
_CAP_LIMITS["verify", "all"] = min(
    (_CAP_LIMITS["verify", name] for name in _CHECK_RUNNERS), key=lambda row: row[0]
)


def _cmd_verify(ns: argparse.Namespace) -> _Outcome:
    names = list(_CHECK_RUNNERS) if ns.check == "all" else [ns.check]
    reports = {name: _CHECK_RUNNERS[name](ns.cap) for name in names}
    failures = sum(not report.passed for report in reports.values())
    exit_status = EXIT_OK if failures == 0 else EXIT_CHECK_FAILED
    # The witness is a dict in field order, in the text and the JSON alike.
    if ns.json:
        checks = [
            {"check": name, "bound": ns.cap, "status": "pass" if r.passed else "fail",
             "first_discrepancy": None if r.passed else r.first_discrepancy._asdict()}
            | ({} if r.series is None else {"series": list(r.series)})
            for name, r in reports.items()
        ]
        return exit_status, {"cap": ns.cap, "checks": checks, "all_passed": failures == 0}, []
    lines = []
    for name, r in reports.items():
        lines.append(f"{name}: {'pass' if r.passed else 'fail'} (cap {ns.cap})")
        if r.series is not None:
            lines.append(f"{name} series: {list(r.series)}")
        if not r.passed:
            lines.append(f"  first discrepancy: {r.first_discrepancy._asdict()}")
    lines.append("result: all checks passed" if failures == 0 else f"result: {failures} check(s) failed")
    return exit_status, {}, lines


# Built once: parse_args keeps no state on the parser between calls.
_PARSER = _Parser(
    prog="cobfilt",
    description="Generator degrees of the unoriented cobordism ring, their filtration "
    "stages, cup-construction recipes and stage dimension series, with checks against "
    "independent oracles. Add --json to any command for a JSON envelope.",
    epilog="exit codes: 0 success, 1 a check failed, 2 domain error, 64 usage error, "
    "70 internal error, 74 stdout closed",
    allow_abbrev=False,
)
_sub = _PARSER.add_subparsers(dest="command", required=True, parser_class=_Parser)

_p = _sub.add_parser("decompose", help="degree to stage triple", allow_abbrev=False)
_p.add_argument("degree", type=_nonneg_int)
_p.add_argument("--json", action="store_true")
_p.set_defaults(func=_cmd_decompose)

_p = _sub.add_parser("recipe", help="cup-construction recipe for a degree", allow_abbrev=False)
_p.add_argument("degree", type=_nonneg_int)
_p.add_argument("--expand", action="store_true", help="include the symbolic term")
_p.add_argument("--json", action="store_true")
_p.set_defaults(func=_cmd_recipe)

_p = _sub.add_parser("table", help="generator table up to a degree", allow_abbrev=False)
_p.add_argument("max_degree", type=_nonneg_int)
_p.add_argument("--json", action="store_true")
_p.set_defaults(func=_cmd_table)

_p = _sub.add_parser("series", help="dimension series of a stage", allow_abbrev=False)
_p.add_argument("what", choices=["homotopy", "homology", "steenrod"])
_p.add_argument("--stage", type=_stage, help="stage triple n,j,i")
_p.add_argument("--cap", type=_nonneg_int, default=DEFAULT_CAP)
_p.add_argument("--json", action="store_true")
_p.set_defaults(func=_cmd_series)

_p = _sub.add_parser("verify", help="run the verification suite", allow_abbrev=False)
_p.add_argument("--check", choices=["all", *_CHECK_RUNNERS], default="all")
_p.add_argument("--cap", type=_verify_cap, default=DEFAULT_CAP)
_p.add_argument("--json", action="store_true")
_p.set_defaults(func=_cmd_verify)
# Each command's own parser, by name: _read reads the argv after the name from it.
_COMMANDS: dict[str, argparse.ArgumentParser] = _sub.choices
del _sub, _p


# What _read starts from, per command parser, read once: the defaults in parse_args's
# order (the actions', then func; no two actions share a dest), and the positionals.
_PLANS = {
    p: ({**{a.dest: a.default for a in p._actions if a.default is not argparse.SUPPRESS}, **p._defaults},
        p._get_positional_actions())
    for p in _COMMANDS.values()
}


def _read(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace | None:
    """parser.parse_args(argv)'s Namespace, for an argv it parses, read
    from the parser's own actions and from its row of _PLANS, the defaults
    and positionals read once at import.

    A token equal to an option string sets a flag or takes the next token
    as its value; any other token fills the next positional; each value
    goes through its action's type and choices.  None for every argv that
    needs argparse to parse it, word its error or print its help: a token
    starting with - that is not an option string (-h, --, --cap=5, -5, a
    prefix), a value starting with -, a bad value, a positional missing or
    left over.  Any other kind of action also gives None.
    """
    defaults, positionals = _PLANS[parser]
    ns = argparse.Namespace()
    values = vars(ns)
    values.update(defaults)  # a copy: a caller may change its Namespace
    positionals = iter(positionals)
    tokens = iter(argv)
    for token in tokens:
        if token[:1] == "-":
            action = parser._option_string_actions.get(token)
            if isinstance(action, argparse._StoreConstAction):  # a flag: store_true
                values[action.dest] = action.const
                continue
            token = next(tokens, "-")
        else:
            action = next(positionals, None)
        if type(action) is not argparse._StoreAction or action.nargs is not None or token[:1] == "-":
            return None
        try:
            value = token if action.type is None else action.type(token)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    return None if next(positionals, None) else ns


def _dumps(value: Any, pad: str = "\n") -> str:
    """json.dumps(value, sort_keys=True, indent=2) byte for byte, each line
    after the first opened by pad, without the stdlib's pure-Python encoder:
    the C encoder ignores indent before Python 3.13.  A dict's str and int
    values are written inline, and an all-int list or tuple as one repr."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return int.__repr__(value)
    if value is None or kind is bool:
        return "null" if value is None else "true" if value else "false"
    inner = pad + "  "
    if kind is dict and value and all(type(k) is str for k in value):
        items = []
        for k in sorted(value):
            v = value[k]
            v = _quote(v) if type(v) is str else int.__repr__(v) if type(v) is int else _dumps(v, inner)
            items.append(f"{_quote(k)}: {v}")
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if (kind is list or kind is tuple) and value:  # json renders a tuple as a list
        if set(map(type, value)) == {int}:  # ints hold no ", "
            return "[" + inner + repr(list(value))[1:-1].replace(", ", "," + inner) + pad + "]"
        return "[" + inner + ("," + inner).join([_dumps(v, inner) for v in value]) + pad + "]"
    # The rest as json renders it: a float, an empty container, a dict with a
    # key that is not a str; a set still raises TypeError.
    if isinstance(value, (dict, list, tuple)):
        return json.dumps(value, sort_keys=True, indent=2).replace("\n", pad)
    return json.dumps(value)


def _envelope_pieces(envelope: dict) -> Iterator[str]:
    """_dumps(envelope) and a newline, in pieces, for a result whose "rows"
    is an iterator of items already rendered at their depth, as table's is.

    rows is the result's last key and "status" the only key after the
    result, so the envelope dumped with no rows ends in the rows' "[]",
    and the items go between its brackets as they come.  main writes
    every other envelope in one piece.
    """
    rows = envelope["result"]["rows"]
    envelope["result"]["rows"] = []
    head, _, tail = _dumps(envelope).rpartition("[]")
    first = next(rows, None)
    if first is None:
        yield head + "[]" + tail + "\n"
        return
    key_line = head[head.rfind("\n") + 1 :]
    yield head + "[\n" + first
    yield from chain.from_iterable(zip(repeat(",\n"), rows))
    yield "\n" + key_line[: len(key_line) - len(key_line.lstrip())] + "]" + tail + "\n"


def _write(pieces: Iterable[str], end: str) -> None:
    """Write each piece and end after it to stdout, a chunk of pieces per
    write, and flush."""
    pieces = iter(pieces)
    while chunk := list(islice(pieces, _CHUNK)):
        sys.stdout.write(end.join(chunk) + end)
    sys.stdout.flush()


def main(argv: list[str] | None = None) -> int:
    """Run one command; the only place that writes its output or picks its exit status.

    A command returns before anything is written, so every error it
    raises becomes an error envelope.  table is the one command whose
    work runs while main writes: its rows are made lazily and written in
    chunks, so its memory stays bounded whatever the bound.  That is safe
    because table cannot fail once its argument parses: it is integer
    arithmetic and string formatting over the stage loop, and the only
    way its output can end early is a closed or failing stdout, which exits 74.
    """
    argv = sys.argv[1:] if argv is None else argv
    # Until argv parses, only a leading command name with a literal --json asks for an envelope.
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    as_json, parameters = command is not None and "--json" in argv, {}
    try:
        ns = _read(_COMMANDS[command], argv[1:]) if command is not None else None
        if ns is None:  # argparse parses what _read refuses, to word the error or print help
            ns = _PARSER.parse_args(argv)
            command = ns.command
        # Only the envelope prints the parameters; error envelopes keep them.
        as_json, parameters = ns.json, _parameters(ns) if ns.json else {}
        # Refused before any work: a series without its stage, then a cap above its limit.
        kind = getattr(ns, "check", getattr(ns, "what", None))
        if kind in ("homotopy", "homology") and ns.stage is None:
            message = f"--stage is required for {kind}"
            raise _MissingStage(message, f"{_PARSER.prog} series: error: {message}\n")
        limit, error = _CAP_LIMITS.get((command, kind), (None, None))
        if limit is not None and ns.cap > limit:
            if error is OverflowError:
                raise OverflowError(f"coefficient in degree {limit + 1} exceeds the 64-bit bound")
            name = f"verify --check {kind}" if command == "verify" else f"{command} {kind}"
            raise _CapLimit(f"cap {ns.cap} is above {limit}, the work limit of {name}")
        if sys.stdout is None:  # closed at start: no command's output could be written
            return EXIT_IOERR
        status, result, lines = ns.func(ns)
        key, value = "result", result
    except _Help as exc:  # as text, whatever else the argv holds
        status, as_json, lines = EXIT_OK, False, [str(exc).removesuffix("\n")]
    except Exception as exc:
        # Commands return before anything is written, so nothing reached stdout yet.
        status, code = next((s, c) for cls, s, c in _ERRORS if isinstance(exc, cls))
        key, value = "error", {"code": code, "message": str(exc)}
        lines = [f"error {code}: {exc}"]
        if status == EXIT_INTERNAL:
            import traceback  # here alone: it costs every other call its import time

            # Not print_exc: with stderr None it would print to stdout.
            with suppress(AttributeError, OSError):  # stderr closed: None, or its write fails
                sys.stderr.write(traceback.format_exc())
        elif status == EXIT_USAGE and not as_json:  # worded as argparse words a usage error
            with suppress(AttributeError, OSError):
                sys.stderr.write(exc.stderr)
            return status
    if as_json:
        status_word = "ok" if key == "result" else "error"
        envelope = {"command": command, "parameters": parameters, "status": status_word, key: value}
    if sys.stdout is None:  # closed at start: -h, or a refusal before the command ran
        return EXIT_IOERR
    try:
        # table's rows are made here, as they are written; it cannot fail (see above).
        if not as_json:
            _write(lines, "\n")
        elif isinstance(value.get("rows"), Iterator):
            _write(_envelope_pieces(envelope), "")
        else:
            sys.stdout.write(_dumps(envelope) + "\n")
            sys.stdout.flush()
    except OSError:  # a closed pipe, as in `cobfilt table 100000 | head -1`, or a full disk
        # Point stdout at devnull so the interpreter's flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_IOERR
    return status


if __name__ == "__main__":
    raise SystemExit(main())

import argparse
import ast
import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cobfilt.checks as checks
import cobfilt.spaces as spaces
from cobfilt import cli
from cobfilt.degrees import decompose, is_excluded, stages_up_to_degree
from cobfilt.manifolds import expand, plan, stage_recipe
from cobfilt.series import U64_MAX, AlgebraSpec, TruncatedSeries, series_of
from cobfilt.spaces import steenrod_series

GOLDEN = Path(__file__).parent / "golden"
ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def envelope_validator():
    schema = json.loads(
        resources.files("cobfilt").joinpath("envelope_schema.json").read_text()
    )
    return jsonschema.Draft202012Validator(schema)


# ---------------------------------------------------------------------------
# decompose


def test_decompose_text(run_cli):
    code, out, _ = run_cli("decompose", "5")
    assert code == 0
    assert out == "degree 5: stage (n=1, j=1, i=1)\n"


def test_decompose_excluded_degree_exits_two(run_cli):
    code, out, _ = run_cli("decompose", "7")
    assert code == 2
    assert "EXCLUDED_DEGREE" in out


def test_decompose_json_payload(run_cli_json):
    code, env = run_cli_json("decompose", "2")
    assert code == 0
    assert env["status"] == "ok"
    assert env["result"] == {"n": 1, "j": 1, "i": 0, "recomposed": 2}


def test_decompose_json_error_payload(run_cli_json):
    code, env = run_cli_json("decompose", "7")
    assert code == 2
    assert env["status"] == "error"
    assert env["error"]["code"] == "EXCLUDED_DEGREE"
    assert "result" not in env


def test_decompose_malformed_input_is_usage_error(run_cli):
    code, _, err = run_cli("decompose", "abc")
    assert code == 64
    assert "error" in err


def test_decompose_negative_is_usage_error(run_cli):
    code, _, err = run_cli("decompose", "--", "-4")
    assert code == 64


# ---------------------------------------------------------------------------
# recipe


def test_recipe_expand_six(run_cli_json):
    code, env = run_cli_json("recipe", "6", "--expand")
    assert code == 0
    assert env["result"]["term"] == "P(2,RP^2)"


def test_recipe_expand_ten(run_cli_json):
    code, env = run_cli_json("recipe", "10", "--expand")
    assert code == 0
    assert env["result"]["term"] == "P(2,RP^4)"


def test_recipe_excluded_degree(run_cli):
    code, out, _ = run_cli("recipe", "3")
    assert code == 2
    assert "EXCLUDED_DEGREE" in out


def test_recipe_payload_carries_chain_and_dims(run_cli_json):
    code, env = run_cli_json("recipe", "13")
    assert code == 0
    result = env["result"]
    assert result["base_dim"] == 2
    assert result["cup2_count"] == 1
    assert result["cup1_count"] == 1
    assert result["intermediate_dims"] == [6, 13]
    assert result["justification"] == [
        {"rule": "base-axiom", "dim": 2},
        {"rule": "cup-2-even", "dim": 2},
        {"rule": "cup-1", "dim": 6},
    ]
    assert "term" not in result


# ---------------------------------------------------------------------------
# table


def test_table_row_counts(run_cli_json):
    for bound, rows in [(6, 4), (2, 1), (1, 0)]:
        code, env = run_cli_json("table", str(bound))
        assert code == 0
        assert len(env["result"]["rows"]) == rows


def test_table_six_in_stage_order(run_cli_json):
    _, env = run_cli_json("table", "6")
    assert [r["degree"] for r in env["result"]["rows"]] == [2, 5, 6, 4]


def test_table_terms_match_the_recipe_of_each_degree(run_cli):
    # The table renders a row with i >= 1 as the cup-1 of the row before it;
    # plan decomposes each degree afresh, so expand(plan(d)) shares no shortcut.
    for bound in [*range(301), 1000, 10_000]:
        code, out, err = run_cli("table", str(bound))
        assert (code, err) == (0, "")
        lines = out.splitlines()
        text_rows = [tuple(line.split()) for line in lines[1:-1]]
        assert lines[-1] == f"{len(text_rows)} generator(s) up to degree {bound}"
        code, out, err = run_cli("table", str(bound), "--json")
        assert (code, err) == (0, "")
        json_rows = [
            (str(row["degree"]), "({n},{j},{i})".format(**row["stage"]), row["term"])
            for row in json.loads(out)["result"]["rows"]
        ]
        assert json_rows == text_rows
        for degree, stage, term in text_rows:
            t = decompose(int(degree))
            assert stage == f"({t.n},{t.j},{t.i})"
            assert term == expand(plan(int(degree)))


def _buffered_table(bound):
    """The table's output built whole, the way it was before it streamed:
    (text, JSON), each row's term expanded from its own recipe."""
    table = list(zip(*stages_up_to_degree(bound)))
    terms = [expand(stage_recipe(t)) for _, t in table]
    lines = [f"{'degree':<8}{'stage':<12}recipe"]
    lines += [f"{d:<8}{f'({t.n},{t.j},{t.i})':<12}{term}" for (d, t), term in zip(table, terms)]
    lines.append(f"{len(table)} generator(s) up to degree {bound}")
    rows = [
        {"degree": d, "stage": {"n": t.n, "j": t.j, "i": t.i}, "term": term}
        for (d, t), term in zip(table, terms)
    ]
    envelope = {
        "command": "table",
        "parameters": {"max_degree": bound, "format": "json"},
        "status": "ok",
        "result": {"max_degree": bound, "rows": rows},
    }
    return "\n".join(lines) + "\n", json.dumps(envelope, sort_keys=True, indent=2) + "\n"


def _bounds_with_rows(counts):
    # the least bound whose table has each row count: rows(N) = N - floor(log2(N + 1))
    return [next(n for n in range(c, 2 * c + 4) if n - (n + 1).bit_length() + 1 == c) for c in counts]


def _chunk_edge_bounds(chunk):
    # Text writes a chunk per `chunk` lines, a header, the rows and a footer;
    # JSON one per `chunk` pieces, 2 per row.  Take each edge and both sides.
    text = [chunk - 3, chunk - 2, chunk - 1, 2 * chunk - 2]
    json_ = [chunk // 2 - 1, chunk // 2, chunk // 2 + 1, chunk]
    return _bounds_with_rows(c for c in text + json_ if c >= 0)


@pytest.mark.parametrize(
    "bounds",
    # 2446..8178: the lookup workload's table sizes above the sweep's 2,000
    [range(301), _chunk_edge_bounds(cli._CHUNK), [2446, 3657, 5469, 8178], [10**4]],
    ids=["0..300", "chunk edges", "lookup sizes", "10^4"],
)
def test_streamed_table_equals_the_buffered_render(run_cli, bounds):
    for bound in bounds:
        text, envelope = _buffered_table(bound)
        assert run_cli("table", str(bound)) == (0, text, "")
        assert run_cli("table", str(bound), "--json") == (0, envelope, "")


@pytest.mark.parametrize("chunk", [1, 2, 3, 4])
def test_streamed_table_is_whole_at_every_small_chunk_edge(run_cli, monkeypatch, chunk):
    monkeypatch.setattr(cli, "_CHUNK", chunk)
    for bound in range(40):
        text, envelope = _buffered_table(bound)
        assert run_cli("table", str(bound)) == (0, text, "")
        assert run_cli("table", str(bound), "--json") == (0, envelope, "")


# ---------------------------------------------------------------------------
# series


def test_series_homotopy_first_stage(run_cli_json):
    code, env = run_cli_json("series", "homotopy", "--stage", "1,1,0", "--cap", "6")
    assert code == 0
    assert env["result"]["coefficients"] == [1, 0, 1, 0, 1, 0, 1]


def test_series_steenrod(run_cli_json):
    code, env = run_cli_json("series", "steenrod", "--cap", "6")
    assert code == 0
    assert env["result"]["coefficients"] == [1, 1, 1, 2, 2, 2, 3]


def test_series_homotopy_base_stage(run_cli_json):
    code, env = run_cli_json("series", "homotopy", "--stage", "1,0,0", "--cap", "3")
    assert code == 0
    assert env["result"]["coefficients"] == [1, 0, 0, 0]


def test_series_homology(run_cli_json):
    code, env = run_cli_json("series", "homology", "--stage", "1,1,0", "--cap", "4")
    assert code == 0
    assert env["result"]["coefficients"] == [1, 1, 2, 3, 4]


def test_series_invalid_stage_is_usage_error(run_cli):
    code, _, err = run_cli("series", "homotopy", "--stage", "1,0,2", "--cap", "4")
    assert code == 64
    code, _, err = run_cli("series", "homotopy", "--stage", "nope", "--cap", "4")
    assert code == 64


def test_series_missing_stage_is_usage_error(run_cli):
    code, out, err = run_cli("series", "homotopy", "--cap", "4")
    assert code == 64
    assert out == ""
    assert err == "cobfilt series: error: --stage is required for homotopy\n"


@pytest.mark.parametrize("what", ["homotopy", "homology"])
def test_series_missing_stage_json_envelope(run_cli, envelope_validator, what):
    code, out, _ = run_cli("series", what, "--cap", "4", "--json")
    assert code == 64
    envelope = json.loads(out)
    envelope_validator.validate(envelope)
    assert envelope["status"] == "error"
    assert envelope["error"]["code"] == "MISSING_STAGE"


TOP_USAGE = "usage: cobfilt [-h] {decompose,recipe,table,series,verify} ...\n"


USAGE_ERRORS = [
    (("decompose", "abc"), "argument degree: not an integer: 'abc'"),
    (("recipe",), "the following arguments are required: degree"),
    (("table", "5", "extra"), "unrecognized arguments: extra"),
    (("series", "cohomology"),
     "argument what: invalid choice: 'cohomology' (choose from 'homotopy', 'homology', 'steenrod')"),
    (("verify", "--cap", "1"), "argument --cap: verification cap must be >= 2"),
]


@pytest.mark.parametrize("argv, message", USAGE_ERRORS)
def test_usage_error_json_envelope(run_cli, envelope_validator, argv, message):
    code, out, err = run_cli(*argv, "--json")
    assert (code, err) == (64, "")
    envelope = json.loads(out)
    envelope_validator.validate(envelope)
    assert envelope == {
        "command": argv[0],
        "parameters": {},
        "status": "error",
        "error": {"code": "USAGE", "message": message},
    }


def test_usage_error_text_goes_to_stderr(run_cli):
    assert run_cli("decompose", "abc") == (
        64, "",
        "usage: cobfilt decompose [-h] [--json] degree\n"
        "cobfilt decompose: error: argument degree: not an integer: 'abc'\n",
    )
    # no envelope unless the argv starts with a command: there is none to name
    assert run_cli("--json") == (
        64, "", TOP_USAGE + "cobfilt: error: the following arguments are required: command\n",
    )
    code, out, err = run_cli("bogus", "--json")
    assert (code, out) == (64, "")
    assert err.startswith(TOP_USAGE + "cobfilt: error: argument command: invalid choice: 'bogus'")


@pytest.mark.parametrize(
    "argv",
    [("decompose", "5"), ("recipe", "5"), ("table", "5"), ("series", "steenrod"), ("verify",)],
    ids=lambda a: a[0],
)
def test_a_leftover_argument_gets_the_top_level_usage(run_cli, argv):
    # Each command parses its own argv, but a leftover is reported as the top-level parser words it.
    assert run_cli(*argv, "extra") == (
        64, "", TOP_USAGE + "cobfilt: error: unrecognized arguments: extra\n"
    )


def test_the_argv_after_a_command_reaches_its_parser_whole(run_cli):
    # --, -h and option-like tokens after the command all go to its parser.
    assert run_cli("decompose", "--", "5") == (0, "degree 5: stage (n=1, j=1, i=1)\n", "")
    assert run_cli("decompose", "5", "-h") == (
        0,
        "usage: cobfilt decompose [-h] [--json] degree\n"
        "\n"
        "positional arguments:\n"
        "  degree\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"
        "  --json\n",
        "",
    )
    # an argv that does not start with a command is the top-level parser's
    assert run_cli("--json", "decompose", "5") == (
        64, "", TOP_USAGE + "cobfilt: error: unrecognized arguments: --json\n"
    )
    assert run_cli("bogus", "decompose") == (
        64,
        "",
        TOP_USAGE + "cobfilt: error: argument command: invalid choice: 'bogus' "
        "(choose from 'decompose', 'recipe', 'table', 'series', 'verify')\n",
    )


def test_top_level_help_is_a_short_description(run_cli, monkeypatch):
    # argparse wraps help to the terminal width, so pin it
    monkeypatch.setenv("COLUMNS", "80")
    assert run_cli("-h") == (
        0,
        TOP_USAGE
        + "\n"
        "Generator degrees of the unoriented cobordism ring, their filtration stages,\n"
        "cup-construction recipes and stage dimension series, with checks against\n"
        "independent oracles. Add --json to any command for a JSON envelope.\n"
        "\n"
        "positional arguments:\n"
        "  {decompose,recipe,table,series,verify}\n"
        "    decompose           degree to stage triple\n"
        "    recipe              cup-construction recipe for a degree\n"
        "    table               generator table up to a degree\n"
        "    series              dimension series of a stage\n"
        "    verify              run the verification suite\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "\n"
        "exit codes: 0 success, 1 a check failed, 2 domain error, 64 usage error, 70\n"
        "internal error, 74 stdout closed\n",
        "",
    )


def test_option_prefixes_are_usage_errors(run_cli):
    # a prefix of --json is never taken for it, so a valid and an invalid
    # degree get the same report: usage text, no envelope
    for argv in (("decompose", "5", "--js"), ("decompose", "abc", "--js"), ("verify", "--ch", "all")):
        code, out, err = run_cli(*argv)
        assert (code, out) == (64, "")
        assert err.startswith("usage: cobfilt")


# ---------------------------------------------------------------------------
# verify


def test_verify_all_small_cap(run_cli):
    code, out, _ = run_cli("verify", "--check", "all", "--cap", "16")
    assert code == 0
    assert "result: all checks passed" in out


def test_verify_calls_share_one_stage_table(run_cli):
    # the checks and the stage series read the one cached table of each bound
    stages_up_to_degree.cache_clear()
    for _ in range(3):
        assert run_cli("verify", "--check", "all", "--cap", "64")[0] == 0
    assert stages_up_to_degree.cache_info().misses == 1
    stages_up_to_degree.cache_clear()


def test_verify_product_reports_series(run_cli_json):
    code, env = run_cli_json("verify", "--check", "product", "--cap", "8")
    assert code == 0
    (entry,) = env["result"]["checks"]
    assert entry["series"] == [1, 0, 1, 0, 2, 1, 3, 1, 5]
    assert entry["status"] == "pass"


def test_verify_bijection_small(run_cli_json):
    code, env = run_cli_json("verify", "--check", "bijection", "--cap", "2")
    assert code == 0
    assert env["result"]["all_passed"] is True


def test_verify_rejects_tiny_cap(run_cli):
    code, _, err = run_cli("verify", "--cap", "1")
    assert code == 64


@pytest.fixture
def wrong_stagewise_convolution(monkeypatch):
    # the defect of test_main_theorem_detects_a_wrong_stagewise_convolution
    original = checks._times_closed_form

    def corrupted(product, d, cap):
        return original(product, d, cap) + (1 << 128 * 5)

    monkeypatch.setattr(checks, "_times_closed_form", corrupted)


def test_verify_failure_exits_one(run_cli, wrong_stagewise_convolution):
    assert run_cli("verify", "--check", "product", "--cap", "8") == (
        1,
        "product: fail (cap 8)\n"
        "product series: [1, 0, 1, 0, 2, 1, 3, 1, 5]\n"
        "  first discrepancy: {'degree': 5, 'expected': 1, 'actual': {'stagewise': 6}}\n"
        "result: 1 check(s) failed\n",
        "",
    )


def test_verify_failure_json_envelope(run_cli, envelope_validator, wrong_stagewise_convolution):
    code, out, err = run_cli("verify", "--check", "product", "--cap", "8", "--json")
    assert (code, err) == (1, "")
    envelope = json.loads(out)
    envelope_validator.validate(envelope)
    assert envelope["status"] == "ok"
    assert envelope["result"] == {
        "cap": 8,
        "all_passed": False,
        "checks": [{
            "check": "product",
            "bound": 8,
            "status": "fail",
            "first_discrepancy": {"degree": 5, "expected": 1, "actual": {"stagewise": 6}},
            "series": [1, 0, 1, 0, 2, 1, 3, 1, 5],
        }],
    }


def _stray_triple(monkeypatch):
    original = checks._enumerate_triples
    monkeypatch.setattr(checks, "_enumerate_triples", lambda bound: original(bound) + [(17, (9, 9, 9))])


def _dropped_generator(monkeypatch):
    original = spaces.stage_generator_degrees
    monkeypatch.setattr(
        spaces, "stage_generator_degrees", lambda t, bound: [d for d in original(t, bound) if d != 6]
    )


def _non_dividing_stage(monkeypatch):
    second, original = stages_up_to_degree(16)[1][1], checks.adams_homotopy_series
    monkeypatch.setattr(
        checks, "adams_homotopy_series",
        lambda t, cap: TruncatedSeries((1,) + (0,) * cap) if t == second else original(t, cap),
    )


def _mutated_factor(monkeypatch):
    def mutated(d, cap):
        coeffs = list(series_of(AlgebraSpec((d,)), cap).coeffs)
        coeffs[5] += 1
        return TruncatedSeries(tuple(coeffs))

    monkeypatch.setattr(checks, "simple_system_series", mutated)


# One injected defect per check, the defects tests/test_checks.py injects, with
# the check, the cap, and the witness as the text prints it and as the JSON has it.
CHECK_DEFECTS = {
    "bijection stray": (
        _stray_triple, "bijection", 16,
        "{'degree': 17, 'expected': 'degree within [2, bound]', 'actual': [[9, 9, 9]]}",
        {"degree": 17, "expected": "degree within [2, bound]", "actual": [[9, 9, 9]]},
    ),
    "quotients dropped": (
        _dropped_generator, "quotients", 16,
        "{'degree': 6, 'expected': 1, 'actual': 0}",
        {"degree": 6, "expected": 1, "actual": 0},
    ),
    "quotients non-dividing": (
        _non_dividing_stage, "quotients", 16,
        "{'degree': 2, 'expected': 1, 'actual': 0}",
        {"degree": 2, "expected": 1, "actual": 0},
    ),
    "simple-system mutated": (
        _mutated_factor, "simple-system", 8,
        "{'degree': 1, 'expected': [1, 1, 1, 1, 1, 1, 1, 1, 1], 'actual': [1, 1, 1, 1, 1, 2, 1, 1, 1]}",
        {"degree": 1, "expected": [1] * 9, "actual": [1, 1, 1, 1, 1, 2, 1, 1, 1]},
    ),
}


@pytest.mark.parametrize("defect", CHECK_DEFECTS)
def test_every_check_fails_through_the_cli(run_cli, envelope_validator, monkeypatch, defect):
    inject, check, cap, text_witness, json_witness = CHECK_DEFECTS[defect]
    inject(monkeypatch)
    argv = ("verify", "--check", check, "--cap", str(cap))
    assert run_cli(*argv) == (
        1,
        f"{check}: fail (cap {cap})\n"
        f"  first discrepancy: {text_witness}\n"
        "result: 1 check(s) failed\n",
        "",
    )
    code, out, err = run_cli(*argv, "--json")
    assert (code, err) == (1, "")
    envelope = json.loads(out)
    envelope_validator.validate(envelope)
    assert envelope == {
        "command": "verify",
        "parameters": {"cap": cap, "check": check, "format": "json"},
        "status": "ok",
        "result": {
            "cap": cap,
            "all_passed": False,
            "checks": [{"check": check, "bound": cap, "status": "fail", "first_discrepancy": json_witness}],
        },
    }


# ---------------------------------------------------------------------------
# domain errors


def _overflow(degree):
    return "COEFFICIENT_OVERFLOW", f"coefficient in degree {degree} exceeds the 64-bit bound"


# Every domain error exits 2 with its code and message.  The last stage at
# cap 417 carries every generator and its homology needs more than 64 bits in
# degree 417; its homotopy series, like the ring series, only in degree 540;
# and an excluded degree carries no generator.  The refusals of
# cli._CAP_LIMITS come before any work, so they are checked, with every check
# and series made uncallable, by test_every_cap_limit_is_refused_before_any_work:
# a broken limit fails there instead of running a check at a huge cap.
DOMAIN_ERRORS = [
    pytest.param(argv, code, message, id=" ".join(argv))
    for argv, (code, message) in (
        (("series", "homology", "--stage", "105,0,0", "--cap", "417"), _overflow(417)),
        (("series", "homotopy", "--stage", "136,0,0", "--cap", "540"), _overflow(540)),
        (("decompose", "7"), ("EXCLUDED_DEGREE", "no generator in degree 7: 8 is a power of two")),
        (("recipe", "3"), ("EXCLUDED_DEGREE", "no generator in degree 3: 4 is a power of two")),
    )
]


@pytest.mark.parametrize("argv,code,message", DOMAIN_ERRORS)
def test_overflow_is_a_domain_error(run_cli, argv, code, message):
    exit_code, out, err = run_cli(*argv)
    assert exit_code == 2
    assert out == f"error {code}: {message}\n"
    assert err == ""


@pytest.mark.parametrize("argv,code,message", DOMAIN_ERRORS)
def test_overflow_json_envelope(run_cli, envelope_validator, argv, code, message):
    exit_code, out, err = run_cli(*argv, "--json")
    assert exit_code == 2
    assert err == ""
    envelope = json.loads(out)
    envelope_validator.validate(envelope)
    assert envelope["command"] == argv[0]
    assert envelope["status"] == "error"
    assert envelope["error"] == {"code": code, "message": message}
    assert envelope["parameters"]["cap" if "--cap" in argv else "degree"] == int(argv[-1])


def _ring_series(cap):
    return series_of(AlgebraSpec(d for d in range(2, cap + 1) if not is_excluded(d)), cap)


# For each overflow row of cli._CAP_LIMITS, the series whose first overflow
# sets the row's limit.
LIMIT_SERIES = {
    ("verify", "product"): _ring_series,
    ("verify", "quotients"): _ring_series,
    ("verify", "all"): _ring_series,
    ("series", "steenrod"): steenrod_series,
}


def _limit_argv(command, kind, cap):
    if command == "verify":
        return ("verify", "--check", kind, "--cap", str(cap))
    return ("series", kind, *(() if kind == "steenrod" else ("--stage", "1,0,0")), "--cap", str(cap))


def _literal(path, name):
    # The value of a module-level literal assignment, read without running the module.
    tree = ast.parse(path.read_text())
    return next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [name]
    )


def test_every_check_has_its_cap_limit_sweep_families_and_benchmark_entries():
    # The lists read here stay literal: a list that read cli._CHECK_RUNNERS
    # would lose a dropped check on both sides of its comparison, unseen.
    spec = importlib.util.spec_from_file_location("cobfilt_test_sweep", ROOT / "scripts" / "sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    reference_checks = _literal(ROOT / "perfbench" / "reference.py", "VERIFY_CHECKS")
    workload_checks = _literal(ROOT / "perfbench" / "workloads.py", "VERIFY_CHECKS")
    for name in cli._CHECK_RUNNERS:
        assert ("verify", name) in cli._CAP_LIMITS
        assert f"verify {name}" in sweep.FAMILIES
        assert f"verify {name} --json" in sweep.FAMILIES
        assert name in reference_checks
        assert name in workload_checks
    rows = [cli._CAP_LIMITS["verify", name] for name in cli._CHECK_RUNNERS]
    assert cli._CAP_LIMITS["verify", "all"] == min(rows, key=lambda row: row[0])


@pytest.fixture
def no_work(monkeypatch):
    # every check runner and series function the CLI can call, made uncallable
    for name in cli._CHECK_RUNNERS:
        monkeypatch.setitem(cli._CHECK_RUNNERS, name, None)
    for name in ("steenrod_series", "thom_homology_series", "adams_homotopy_series"):
        monkeypatch.setattr(cli, name, None)


@pytest.mark.parametrize("row", sorted(cli._CAP_LIMITS), ids=" ".join)
def test_every_cap_limit_is_refused_before_any_work(run_cli, envelope_validator, no_work, row):
    command, kind = row
    limit, error = cli._CAP_LIMITS[row]
    if error is OverflowError:
        # the limit is tight: the row's series fits at it and overflows just above it
        assert max(LIMIT_SERIES[row](limit).coeffs) <= U64_MAX
        with pytest.raises(OverflowError, match=f"degree {limit + 1} "):
            LIMIT_SERIES[row](limit + 1)
    name = f"verify --check {kind}" if command == "verify" else f"series {kind}"
    for cap in (limit + 1, 10**7):
        argv = _limit_argv(command, kind, cap)
        code, message = (
            _overflow(limit + 1) if error is OverflowError
            else ("CAP_LIMIT", f"cap {cap} is above {limit}, the work limit of {name}")
        )
        assert run_cli(*argv) == (2, f"error {code}: {message}\n", "")
        exit_code, out, err = run_cli(*argv, "--json")
        assert (exit_code, err) == (2, "")
        envelope = json.loads(out)
        envelope_validator.validate(envelope)
        parameters = {"cap": cap, "check": kind} if command == "verify" else {
            "cap": cap, "what": kind, "stage": None if kind == "steenrod" else {"n": 1, "j": 0, "i": 0}
        }
        assert envelope == {
            "command": command,
            "parameters": {**parameters, "format": "json"},
            "status": "error",
            "error": {"code": code, "message": message},
        }


@pytest.mark.parametrize("row", sorted(cli._CAP_LIMITS), ids=" ".join)
def test_every_cap_limit_admits_its_limit(run_cli, monkeypatch, row):
    # at the limit the command runs: here on stand-ins that record their cap
    command, kind = row
    limit, _ = cli._CAP_LIMITS[row]
    caps = []
    for name in cli._CHECK_RUNNERS:
        monkeypatch.setitem(
            cli._CHECK_RUNNERS, name, lambda cap, name=name: caps.append(cap) or checks.CheckReport()
        )
    monkeypatch.setattr(cli, "steenrod_series", lambda cap: caps.append(cap) or TruncatedSeries((1,)))
    for name in ("thom_homology_series", "adams_homotopy_series"):
        monkeypatch.setattr(cli, name, lambda t, cap: caps.append(cap) or TruncatedSeries((1,)))
    code, _, err = run_cli(*_limit_argv(command, kind, limit))
    assert (code, err) == (0, "")
    assert caps and set(caps) == {limit}


@pytest.mark.parametrize("cap", ["4", "30000"])
def test_missing_stage_is_reported_before_the_cap_limit(run_cli, envelope_validator, cap):
    # 30000 is above series homology's row of the cap limits, but the stage is checked first
    assert run_cli("series", "homology", "--cap", cap) == (
        64, "", "cobfilt series: error: --stage is required for homology\n"
    )
    code, out, err = run_cli("series", "homology", "--cap", cap, "--json")
    assert (code, err) == (64, "")
    envelope = json.loads(out)
    envelope_validator.validate(envelope)
    assert envelope == {
        "command": "series",
        "parameters": {"cap": int(cap), "format": "json", "stage": None, "what": "homology"},
        "status": "error",
        "error": {"code": "MISSING_STAGE", "message": "--stage is required for homology"},
    }


def test_unexpected_exception_is_internal(run_cli, envelope_validator, monkeypatch):
    def broken(cap):
        raise RuntimeError("injected defect")

    monkeypatch.setitem(cli._CHECK_RUNNERS, "bijection", broken)
    argv = ("verify", "--check", "bijection", "--cap", "8")
    code, out, err = run_cli(*argv)
    assert code == 70
    assert out == "error INTERNAL: injected defect\n"
    assert err.startswith("Traceback (most recent call last):\n")
    assert err.endswith("RuntimeError: injected defect\n")
    code, out, err = run_cli(*argv, "--json")
    assert code == 70
    assert "RuntimeError: injected defect" in err
    envelope = json.loads(out)
    envelope_validator.validate(envelope)
    assert envelope["error"] == {"code": "INTERNAL", "message": "injected defect"}


# ---------------------------------------------------------------------------
# golden files


# Every golden file, its exit code and its argv.  Text and JSON alike: an
# error envelope, a long list of ints, and a list of dicts holding the
# product check's series among them.  The test keeps its old name, so the
# JSON files' test ids stay as they were.
GOLDEN_FILES = {
    "decompose_7.txt": (2, ("decompose", "7")),
    "decompose_7.json": (2, ("decompose", "7", "--json")),
    "table_16.txt": (0, ("table", "16")),
    "table_16.json": (0, ("table", "16", "--json")),
    "recipe_13_expand.txt": (0, ("recipe", "13", "--expand")),
    "recipe_13_expand.json": (0, ("recipe", "13", "--expand", "--json")),
    # both step counts zero: no intermediate dimension, and the base axiom alone
    "recipe_2_expand.json": (0, ("recipe", "2", "--expand", "--json")),
    "series_homotopy_2_0_1_cap32.json": (
        0, ("series", "homotopy", "--stage", "2,0,1", "--cap", "32", "--json")
    ),
    "verify_all_cap64.txt": (0, ("verify", "--check", "all", "--cap", "64")),
    "verify_all_cap16.json": (0, ("verify", "--check", "all", "--cap", "16", "--json")),
    # the product series at the top of the u64 range, its last entry 2^64 - 1 or below
    "verify_product_cap539.json": (0, ("verify", "--check", "product", "--cap", "539", "--json")),
}


def test_every_golden_file_has_its_argv():
    # sweep.json and mutants.json are the tables of scripts/sweep.py and scripts/mutants.py
    tables = {"sweep.json", "mutants.json"}
    assert sorted(GOLDEN_FILES) == sorted(p.name for p in GOLDEN.iterdir() if p.name not in tables)


@pytest.mark.parametrize("name", GOLDEN_FILES)
def test_golden_json(run_cli, name):
    code, argv = GOLDEN_FILES[name]
    assert run_cli(*argv) == (code, (GOLDEN / name).read_text(), "")


# A command builds only the form main prints: under --json a helper only the text
# uses may fail, and in text mode one only the envelope uses, without changing a byte.
@pytest.mark.parametrize(
    "fmt, unused", [(("--json",), "_degree_line"), ((), "_stage_json")], ids=["json", "text"]
)
def test_a_command_builds_only_the_form_it_prints(run_cli, monkeypatch, fmt, unused):
    recipe = (GOLDEN / ("recipe_13_expand.json" if fmt else "recipe_13_expand.txt")).read_text()
    decomposed = run_cli("decompose", "123457", *fmt)
    assert decomposed[0] == 0
    monkeypatch.setattr(cli, unused, lambda *args: 1 / 0)
    assert run_cli("recipe", "13", "--expand", *fmt) == (0, recipe, "")
    assert run_cli("decompose", "123457", *fmt) == decomposed


# main builds only what it writes: the envelope's parameters under --json alone,
# and the envelope in pieces for table's streamed rows alone.
@pytest.mark.parametrize(
    "fmt, unused", [(("--json",), "_envelope_pieces"), ((), "_parameters")], ids=["json", "text"]
)
def test_main_builds_only_what_it_writes(run_cli, monkeypatch, fmt, unused):
    recipe = (GOLDEN / ("recipe_13_expand.json" if fmt else "recipe_13_expand.txt")).read_text()
    monkeypatch.setattr(cli, unused, lambda *args: 1 / 0)
    assert run_cli("recipe", "13", "--expand", *fmt) == (0, recipe, "")


# ---------------------------------------------------------------------------
# envelope schema and determinism


ALL_JSON_INVOCATIONS = [
    ("decompose", "5"),
    ("decompose", "7"),
    ("recipe", "6", "--expand"),
    ("recipe", "11"),
    ("table", "16"),
    ("series", "homotopy", "--stage", "1,1,1", "--cap", "8"),
    ("series", "homology", "--stage", "2,0,0", "--cap", "8"),
    ("series", "steenrod", "--cap", "8"),
    ("verify", "--check", "bijection", "--cap", "8"),
    ("verify", "--check", "product", "--cap", "8"),
    ("verify", "--check", "quotients", "--cap", "8"),
    ("verify", "--check", "simple-system", "--cap", "8"),
    ("verify", "--check", "all", "--cap", "8"),
]


@pytest.mark.parametrize("argv", ALL_JSON_INVOCATIONS, ids=lambda a: " ".join(a))
def test_every_command_validates_against_the_envelope_schema(
    run_cli, envelope_validator, argv
):
    _, out, _ = run_cli(*argv, "--json")
    envelope = json.loads(out)
    envelope_validator.validate(envelope)
    assert ("result" in envelope) != ("error" in envelope)


def test_the_envelope_schema_lists_every_error_code(envelope_validator):
    codes = envelope_validator.schema["properties"]["error"]["properties"]["code"]["enum"]
    assert codes == [code for _, _, code in cli._ERRORS]


@pytest.mark.parametrize("argv", ALL_JSON_INVOCATIONS, ids=lambda a: " ".join(a))
def test_json_keys_are_sorted(run_cli, argv):
    _, out, _ = run_cli(*argv, "--json")
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


# Text with the characters json escapes: quotes, backslashes, control and non-ASCII ones.
JSON_TEXT = st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600a') | st.characters())
JSON_INTS = st.integers() | st.integers(min_value=2**64) | st.integers(max_value=-(2**64))
JSON_VALUE = st.recursive(
    st.none() | st.booleans() | JSON_INTS | JSON_TEXT,
    lambda inner: st.one_of(
        st.lists(inner),
        st.lists(inner).map(tuple),
        st.dictionaries(JSON_TEXT, inner),
        st.lists(JSON_INTS, min_size=1),  # the all-int fast path
        st.lists(JSON_INTS, min_size=1).map(tuple),
    ),
    max_leaves=16,
)


@settings(max_examples=200)
@given(value=JSON_VALUE)
def test_the_renderer_renders_as_the_stdlib(value):
    # The stdlib is the oracle: _dumps must render every value as json does.
    assert cli._dumps(value) == json.dumps(value, sort_keys=True, indent=2)


def test_the_renderer_refuses_a_set_as_the_stdlib():
    with pytest.raises(TypeError):
        json.dumps({"a": [1, {2}]}, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        cli._dumps({"a": [1, {2}]})


def test_output_is_byte_identical_across_runs(run_cli):
    first = run_cli("verify", "--check", "all", "--cap", "16")
    second = run_cli("verify", "--check", "all", "--cap", "16")
    assert first == second
    first = run_cli("table", "32", "--json")
    second = run_cli("table", "32", "--json")
    assert first == second


def test_the_module_parser_carries_nothing_between_calls(run_cli):
    # The parser is built once at import; every call must parse as if fresh.
    argvs = [argv + fmt for argv in ALL_JSON_INVOCATIONS for fmt in ((), ("--json",))]
    argvs += [
        ("decompose", "7"),
        ("series", "homotopy", "--cap", "4"),
        ("series", "homotopy", "--cap", "4", "--json"),
        ("decompose", "abc"),
    ]
    forward = [run_cli(*argv) for argv in argvs]
    backward = [run_cli(*argv) for argv in reversed(argvs)]
    assert forward == backward[::-1]


# ---------------------------------------------------------------------------
# argv fuzzing

COMMANDS = ("decompose", "recipe", "table", "series", "verify")
# Numbers draw from -3 to 32.  decompose and recipe also draw degrees
# log-uniform over [33, 10^7]: bit lengths uniform, then uniform within one.
# table keeps NUMBER alone: it has no limit, and its output grows with the
# bound.  So junk never brings the token table into an argv that holds a
# number above 32, where it could take the command's place in front of it.
# series --cap and verify --cap also draw above every row of their
# command in cli._CAP_LIMITS, where each kind is refused before any work.
NUMBER = st.integers(-3, 32).map(str)
DEGREE = NUMBER | st.integers(6, 24).flatmap(
    lambda bits: st.integers(max(33, 1 << (bits - 1)), min(10**7, (1 << bits) - 1))
).map(str)


def _cap_above_limits(command):
    top = max(limit for (name, _), (limit, _) in cli._CAP_LIMITS.items() if name == command)
    return NUMBER | st.integers(top + 1, 10**12).map(str)


STAGE = st.tuples(*[st.integers(0, 4)] * 3).map(lambda t: ",".join(map(str, t)))
# Junk holds no decimal digits, so no junk token parses as a large number.
JUNK = st.sampled_from(
    ["", "-", "--", "-1", "x", "1,2", "1,0,2", "1,1,0,", "--bogus", "--json", "--json=1",
     "--expand", "--cap", "--cap=4", "--stage", "--stage=1,1,0", "--check", "all", "steenrod",
     *COMMANDS]
) | st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=4)
POSITIONALS = {
    "decompose": [DEGREE],
    "recipe": [DEGREE],
    "table": [NUMBER],
    "series": [st.sampled_from(["homotopy", "homology", "steenrod"])],
    "verify": [],
}
OPTIONS = {
    "decompose": [],
    "recipe": [("--expand",)],
    "table": [],
    "series": [("--stage", STAGE), ("--cap", _cap_above_limits("series"))],
    "verify": [
        ("--check", st.sampled_from(["all", "bijection", "product", "quotients", "simple-system"])),
        ("--cap", _cap_above_limits("verify")),
    ],
}


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(COMMANDS))
    argv = [command, *(draw(s) for s in POSITIONALS[command])]
    for flag, *value in draw(st.permutations([*OPTIONS[command], ("--json",)])):
        if draw(st.booleans()):
            argv += [flag, *(draw(v) for v in value)]
    large = any(token.isdigit() and int(token) > 32 for token in argv)
    junks = JUNK.filter(lambda token: token != "table") if large else JUNK
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        at, junk = draw(st.sampled_from(range(len(argv) + 1))), draw(junks)
        if at < len(argv) and draw(st.booleans()):
            argv[at] = junk
        else:
            argv.insert(at, junk)
    return argv


# The slowest argv drawn runs, verify --check all --cap 32, takes about 3 ms;
# every larger cap is refused before any work.  The deadline leaves a slow
# host ample room and still fails an argv that runs for a visible while.
@settings(max_examples=300, deadline=500)
@given(argv=cli_argv())
def test_every_argv_ends_in_a_documented_exit(envelope_validator, argv):
    assume(not any(token.startswith(("-h", "--h")) for token in argv))  # help exits 0, no envelope
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    # 70 (INTERNAL) would mean the fuzzer found a defect.
    assert code in (0, 1, 2, 64), err.getvalue()
    # --json after a leading command always gets one envelope, a usage error too.
    if "--json" in argv and (argv[0] in COMMANDS or out.getvalue()):
        envelope = json.loads(out.getvalue())
        assert out.getvalue() == json.dumps(envelope, sort_keys=True, indent=2) + "\n"
        envelope_validator.validate(envelope)
        assert envelope["command"] == next(token for token in argv if token in COMMANDS)
        assert err.getvalue() == ""


# ---------------------------------------------------------------------------
# the argv reader


@settings(max_examples=500)
@given(argv=cli_argv())
def test_the_reader_reads_as_argparse_parses(argv):
    parser = cli._COMMANDS.get(argv[0])
    assume(parser is not None)
    ns = cli._read(parser, argv[1:])
    if ns is not None:
        expected, extras = parser.parse_known_args(argv[1:])
        assert extras == []
        assert list(vars(ns).items()) == list(vars(expected).items())


def test_the_reader_needs_no_more_of_argparse():
    # _read applies no string default through its type and checks no
    # required option: argparse would do both at the end of a parse.
    for parser in cli._COMMANDS.values():
        for action in parser._actions:
            assert type(action) in (
                argparse._HelpAction, argparse._StoreAction, argparse._StoreTrueAction
            )
            assert action.nargs in (None, 0)
            assert not (isinstance(action.default, str) and action.type is not None)
            assert not action.required or not action.option_strings


def test_the_reader_table_carries_nothing_between_calls():
    # _PLANS is read once at import: a Namespace _read returns is the caller's own
    series = cli._COMMANDS["series"]
    cli._read(series, ["homotopy", "--stage", "1,1,0", "--cap", "8"]).cap = 0
    assert cli._read(series, ["steenrod"]).cap == cli.DEFAULT_CAP == 64


@pytest.mark.parametrize(
    "argv", [("decompose", "5"), ("recipe", "5"), ("table", "5"), ("series", "steenrod"), ("verify",)],
    ids=" ".join,
)
def test_the_reader_table_keeps_the_defaults_in_argparse_order(argv):
    parser = cli._COMMANDS[argv[0]]
    defaults, positionals = cli._PLANS[parser]
    parsed = vars(parser.parse_args(argv[1:]))
    assert list(defaults) == list(parsed)
    filled = {action.dest for action in positionals}
    assert [(k, v) for k, v in defaults.items() if k not in filled] == [
        (k, v) for k, v in parsed.items() if k not in filled
    ]


# Every argv shape that perfbench/workloads.py and the README send.
READER_ARGV = [
    ("decompose", "123457", "--json"),
    ("decompose", "5"),
    ("recipe", "123457", "--expand", "--json"),
    ("recipe", "6", "--expand"),
    ("table", "16"),
    *[("series", what, "--stage", "5,0,0", "--cap", "16", "--json") for what in ("homotopy", "homology")],
    ("series", "homotopy", "--stage", "1,1,0", "--cap", "6"),
    ("series", "steenrod", "--cap", "96", "--json"),
    ("series", "steenrod", "--cap", "6"),
    *[("verify", "--check", check, "--cap", "32", "--json") for check in ("all", *cli._CHECK_RUNNERS)],
    ("verify", "--check", "all", "--cap", "64"),
]


@pytest.mark.parametrize("argv", READER_ARGV, ids=" ".join)
def test_the_traffic_takes_the_reader(run_cli, monkeypatch, argv):
    parsed = []

    def recorded(self, *args, **kwargs):
        parsed.append(args)
        return argparse.ArgumentParser.parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "parse_known_args", recorded)
    code, _, err = run_cli(*argv)
    assert (code, err, parsed) == (0, "", [])


# ---------------------------------------------------------------------------
# process-level exit codes


def run_subprocess(*argv):
    return subprocess.run(
        [sys.executable, "-m", "cobfilt", *argv],
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_subprocess_exit_codes():
    assert run_subprocess("decompose", "5").returncode == 0
    assert run_subprocess("decompose", "7").returncode == 2
    assert run_subprocess("decompose", "x").returncode == 64
    assert run_subprocess("verify", "--check", "bijection", "--cap", "8").returncode == 0
    overflow = run_subprocess("series", "homology", "--stage", "105,0,0", "--cap", "417")
    assert (overflow.returncode, overflow.stderr) == (2, "")


def test_closed_stdout_exits_74_without_a_traceback():
    # as in `cobfilt table 10000 | head -1`: the output outgrows any pipe
    # buffer, so writing it must meet the closed read end
    proc = subprocess.Popen(
        [sys.executable, "-m", "cobfilt", "table", "10000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=120), err) == (74, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full to write to")
@pytest.mark.parametrize(
    "argv",
    [
        ("table", "100000"),
        ("table", "100000", "--json"),
        ("decompose", "5"),
        ("decompose", "5", "--json"),
        ("-h",),
        ("decompose", "-h"),
    ],
    ids=" ".join,
)
def test_full_stdout_exits_74_without_a_traceback(argv):
    # as in `cobfilt decompose 5 > /dev/full`: every write to stdout fails with ENOSPC,
    # at the final flush when stdout is buffered and at the write itself when it is not
    buffered = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    for env in (buffered, {**buffered, "PYTHONUNBUFFERED": "1"}):
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "cobfilt", *argv],
                stdout=full,
                stderr=subprocess.PIPE,
                env=env,
                timeout=120,
            )
        assert (proc.returncode, proc.stderr) == (74, b""), env.get("PYTHONUNBUFFERED")


@pytest.mark.parametrize(
    "argv",
    [("decompose", "5"), ("decompose", "5", "--json"), ("table", "100000"), ("-h",)],
    ids=" ".join,
)
def test_stdout_closed_at_start_exits_74_without_a_traceback(argv):
    # as in `cobfilt decompose 5 >&-`: the interpreter starts with no stdout at all
    proc = subprocess.run(
        [sys.executable, "-m", "cobfilt", *argv],
        stderr=subprocess.PIPE,
        preexec_fn=lambda: os.close(1),
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (74, b"")


@pytest.mark.parametrize("fmt", [(), ("--json",)], ids=["text", "json"])
def test_stdout_closed_at_start_runs_no_command(monkeypatch, fmt):
    # as in `cobfilt verify --check bijection >&-`: its output could not be written, so no check runs
    ran = []
    monkeypatch.setitem(cli._CHECK_RUNNERS, "bijection", ran.append)
    monkeypatch.setattr(sys, "stdout", None)
    assert (cli.main(["verify", "--check", "bijection", "--cap", "8", *fmt]), ran) == (74, [])


def test_internal_error_with_stderr_closed_keeps_its_traceback_off_stdout(run_cli, monkeypatch):
    # as in `cobfilt verify 2>&-` meeting a defect: the traceback is lost, not printed on stdout
    monkeypatch.setitem(cli._CHECK_RUNNERS, "bijection", lambda cap: 1 / 0)
    monkeypatch.setattr(sys, "stderr", None)
    code, out, _ = run_cli("verify", "--check", "bijection", "--cap", "8")
    assert (code, out) == (70, "error INTERNAL: division by zero\n")


@pytest.mark.parametrize(
    "closed",
    [
        # as in `cobfilt decompose abc 2>&-`: the interpreter starts with no stderr
        ({"preexec_fn": lambda: os.close(2)}, ["-m", "cobfilt"]),
        # a stderr closed once the interpreter runs: its write fails with EBADF
        ({}, ["-c", "import os, sys; os.close(2); from cobfilt.cli import main; sys.exit(main())"]),
    ],
    ids=["at start", "while running"],
)
def test_closed_stderr_keeps_the_usage_status(closed):
    options, command = closed
    proc = subprocess.run(
        [sys.executable, *command, "decompose", "abc"],
        stdout=subprocess.PIPE,
        timeout=120,
        **options,
    )
    assert (proc.returncode, proc.stdout) == (64, b"")


def test_table_piped_into_head_exits_74_without_a_traceback():
    # `cobfilt table 100000 | head -1`: table streams, so its first chunk
    # reaches head, and a later write meets the closed pipe
    table = subprocess.Popen(
        [sys.executable, "-m", "cobfilt", "table", "100000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    head = subprocess.run(["head", "-1"], stdin=table.stdout, capture_output=True, timeout=120)
    table.stdout.close()
    err = table.stderr.read()
    table.stderr.close()
    assert (table.wait(timeout=120), err) == (74, b"")
    assert head.stdout == b"degree  stage       recipe\n"

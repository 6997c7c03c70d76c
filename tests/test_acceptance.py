"""Acceptance suite: one test per criterion, exact integer comparisons
throughout, one printed pass/fail line each (visible with pytest -s)."""

import json
import subprocess
import sys
import time
from contextlib import contextmanager
from importlib import resources
from pathlib import Path

import jsonschema

from cobfilt.checks import (
    partition_dp,
    verify_bijection,
    verify_main_theorem,
    verify_quotient_steps,
)
from cobfilt.degrees import BASE, compose, decompose, is_excluded, stages_up_to_degree
from cobfilt.manifolds import expand, indecomposable, plan
from cobfilt.series import AlgebraSpec, exact_div, mul, series_of, simple_system_series
from cobfilt.spaces import (
    adams_homotopy_series,
    stage_generator_degrees,
    steenrod_series,
    thom_homology_series,
)

GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def criterion(name):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {name}: FAIL")
        raise
    print(f"criterion {name}: PASS ({time.perf_counter() - start:.2f}s)")


def enumerate_multisets(parts, total):
    # independent expected-value oracle for criterion 2: lists every
    # multiset of parts with the given sum, non-increasing order
    def rec(remaining, ceiling):
        if remaining == 0:
            yield ()
            return
        for p in parts:
            if p <= min(remaining, ceiling):
                for rest in rec(remaining - p, p):
                    yield (p, *rest)

    return sorted(rec(total, total))


def test_criterion_1_degree_bijection():
    with criterion("1 (degree bijection)"):
        assert is_excluded(0) and is_excluded(1)
        for d in range(2, 10**6 + 1):
            if (d + 1) & d:
                assert compose(decompose(d)) == d
            else:
                assert is_excluded(d)
        report = verify_bijection(10**4)
        assert report.passed, report


def test_criterion_2_main_theorem_series_identity():
    with criterion("2 (main-theorem series identity, cap 128)"):
        report = verify_main_theorem(128)
        assert report.passed, report
        gens = [d for d in range(2, 129) if not is_excluded(d)]
        series = series_of(AlgebraSpec(gens), 128)
        enumerated = {t: len(enumerate_multisets([g for g in gens if g <= 8], t))
                      for t in (2, 4, 5, 6, 7, 8)}
        assert enumerated == {2: 1, 4: 2, 5: 1, 6: 3, 7: 1, 8: 5}
        for t, count in enumerated.items():
            assert series.coeffs[t] == count


def test_criterion_3_stage_quotients():
    with criterion("3 (stage quotients, cap 64)"):
        cap = 64
        previous = adams_homotopy_series(BASE, cap)
        degrees, triples = stages_up_to_degree(cap)
        assert degrees[0] == 2
        for degree, triple in zip(degrees, triples):
            current = adams_homotopy_series(triple, cap)
            quotient = exact_div(current, previous)
            # 1/(1 - t^d) in closed form, not by the stride kernel under test
            predicted = tuple(int(k % degree == 0) for k in range(cap + 1))
            assert quotient.coeffs == predicted, (degree, triple)
            previous = current
        assert verify_quotient_steps(cap).passed


def test_criterion_4_adams_collapse_divisibility():
    with criterion("4 (Adams collapse, cap 48)"):
        cap = 48
        steenrod = steenrod_series(cap)
        for triple in stages_up_to_degree(cap)[1]:
            homology = thom_homology_series(triple, cap)
            quotient = exact_div(homology, steenrod)
            stage_poly = series_of(
                AlgebraSpec(stage_generator_degrees(triple, cap)), cap
            )
            assert quotient.coeffs == stage_poly.coeffs, triple
            assert mul(quotient, steenrod).coeffs == homology.coeffs, triple
        # A_* counts the partitions into parts 2^k - 1
        assert steenrod_series(40).coeffs == partition_dp([1, 3, 7, 15, 31], 40).coeffs


def test_criterion_5_recipe_soundness():
    with criterion("5 (recipe soundness to 1e5)"):
        for d in range(2, 10**5 + 1):
            if (d + 1) & d == 0:
                continue
            recipe = plan(d)
            assert (recipe.base_dim, *recipe.intermediate_dims)[-1] == d
            chain = indecomposable(recipe)  # raises if a cup-2 input is odd
            assert len(chain) == 1 + recipe.cup2_count + recipe.cup1_count
        assert expand(plan(2)) == "RP^2"
        assert expand(plan(5)) == "P(1,RP^2)"
        assert expand(plan(6)) == "P(2,RP^2)"
        assert expand(plan(10)) == "P(2,RP^4)"


def test_criterion_6_simple_system_identity():
    with criterion("6 (simple systems, cap 256)"):
        for d in range(1, 33):
            assert (
                simple_system_series(d, 256).coeffs
                == series_of(AlgebraSpec((d,)), 256).coeffs
            ), d


def test_criterion_7_cli_contract():
    with criterion("7 (CLI contract)"):
        def run(*argv):
            return subprocess.run(
                [sys.executable, "-m", "cobfilt", *argv],
                capture_output=True,
                text=True,
                timeout=300,
            )

        table = run("table", "16")
        assert table.returncode == 0
        assert table.stdout == (GOLDEN / "table_16.txt").read_text()

        excluded = run("decompose", "7")
        assert excluded.returncode == 2
        assert excluded.stdout == (GOLDEN / "decompose_7.txt").read_text()

        verify = run("verify", "--check", "all", "--cap", "64")
        assert verify.returncode == 0
        assert verify.stdout == (GOLDEN / "verify_all_cap64.txt").read_text()

        schema = json.loads(
            resources.files("cobfilt").joinpath("envelope_schema.json").read_text()
        )
        validator = jsonschema.Draft202012Validator(schema)
        for argv in (
            ("decompose", "5"),
            ("decompose", "7"),
            ("recipe", "6", "--expand"),
            ("table", "16"),
            ("series", "homotopy", "--stage", "1,1,0", "--cap", "6"),
            ("series", "homology", "--stage", "1,1,0", "--cap", "6"),
            ("series", "steenrod", "--cap", "6"),
            ("verify", "--check", "all", "--cap", "8"),
        ):
            result = run(*argv, "--json")
            validator.validate(json.loads(result.stdout))

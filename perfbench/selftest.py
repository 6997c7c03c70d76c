"""Self-test of the benchmark: the validator must count a wrong output as failed.

    python3 perfbench/selftest.py

Runs two rounds of the series workload through the same loop as a benchmark
pass, first against the program as it is, then with one coefficient of every
homotopy series raised by one.  The first must fail nothing; the second must
fail exactly the homotopy operations.  It checks that the tracer refuses to
run when a function a per-layer metric needs is missing, and that BENCHMARK.json
and layers.json name the workloads and metrics this benchmark reports.
Exits 1 on any mismatch.
"""

from __future__ import annotations

import json
import sys
import time
from itertools import islice

import run
import spans
import worker
import workloads

ROUNDS = 2


def run_series(cli) -> dict:
    return worker.run_rounds(cli, islice(workloads.rounds("series", 0), ROUNDS), time.monotonic() + 120)


def check_validator() -> list[str]:
    cli, _ = worker.load_cobfilt(run.ROOT)
    clean = run_series(cli)
    attempted = sum(clean["mix"]["kinds"].values())
    print(f"clean run: {clean['failed']} of {attempted} operations failed")

    original = cli.adams_homotopy_series

    def wrong_coefficient(t, cap):
        series = original(t, cap)
        coeffs = list(series.coeffs)
        coeffs[cap] += 1
        return type(series)(cap, tuple(coeffs))

    cli.adams_homotopy_series = wrong_coefficient
    try:
        injected = run_series(cli)
    finally:
        cli.adams_homotopy_series = original
    homotopy = injected["mix"]["kinds"]["series homotopy"]
    print(f"injected run: {injected['failed']} of {attempted} operations failed "
          f"(failed_frac {injected['failed'] / attempted:.3f}); first: {injected['problems'][:1]}")

    errors = []
    if clean["failed"]:
        errors.append(f"the clean run failed {clean['failed']} operations: {clean['problems']}")
    if injected["failed"] != homotopy:
        errors.append(f"the validator counted {injected['failed']} of {homotopy} wrong homotopy series")
    return errors


def check_tracer() -> list[str]:
    """install() must refuse to trace when a function a metric needs is gone, and restore every name."""
    import cobfilt.cli

    original = cobfilt.cli.main
    saved = spans.TRACED
    spans.TRACED = [*saved, "degrees.no_such_function"]
    try:
        spans.Tracer().install()
    except spans.TraceError as exc:
        refused = "degrees.no_such_function" in str(exc)
    else:
        refused = False
    finally:
        spans.TRACED = saved
    errors = []
    if not refused:
        errors.append("install() traced a run without a function a per-layer metric needs")
    if cobfilt.cli.main is not original:
        errors.append("install() left a wrapper in place after refusing")
    print("tracer: refuses a missing function" if refused else "tracer: did not refuse a missing function")
    return errors


def check_benchmark_json() -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {
        "workloads": [(w,) for w in workloads.WORKLOADS],
        "end_to_end": [(name, unit) for name, unit in run.END_TO_END],
        "per_layer": [(name, unit, better) for name, unit, better in spans.LAYER_METRICS],
    }
    keys = {"workloads": ("name",), "end_to_end": ("name", "unit"), "per_layer": ("name", "unit", "better")}
    errors = []
    for section, want in expected.items():
        got = [tuple(entry[k] for k in keys[section]) for entry in spec[section]]
        if got != want:
            errors.append(f"BENCHMARK.json {section} does not match the benchmark code")
    layers = json.loads((run.HERE / "layers.json").read_text())
    mapped = [m for group in layers["layers"] for m in group["metrics"]]
    if sorted(mapped) != sorted(m for m, _, _ in spans.LAYER_METRICS):
        errors.append("layers.json does not map every per-layer metric exactly once")
    if sorted(layers["workloads"]) != sorted(workloads.WORKLOADS):
        errors.append("layers.json does not describe every workload")
    return errors


def main() -> int:
    errors = check_validator() + check_tracer() + check_benchmark_json()
    for error in errors:
        print(f"FAIL {error}")
    print("self-test " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

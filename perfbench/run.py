"""Benchmark of the cobfilt CLI: seeded workloads, validated output, one command.

    python3 perfbench/run.py --workload {verify,lookup,series} --seed N --seconds S --trace {0,1}

Run it from the root of a cobfilt checkout; it imports cobfilt from src/ and
needs nothing outside the standard library.  Every pass runs in its own
fresh interpreter (worker.py) and drives cobfilt.cli.main(argv) in-process,
one client in a closed loop.

--trace 0 calls each operation of a fixed list several times, in sweeps of
about S seconds of operation time in all, and reports the end-to-end
metrics on each operation's fastest call.  setup_s is the median wall time
of `import cobfilt` over fresh interpreters started between the sweeps.

--trace 1 runs a fixed number of rounds four times, each in a fresh
interpreter: untraced, twice with spans around every public function
(spans.py), and untraced again.  It reports the per-layer metrics of the
first traced pass, refuses to report when the two traced passes disagree
on any count, and gives the tracing overhead as the mean traced time over
the mean untraced time.

Human-readable lines and the run record come first; the last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# (metric, unit) of every end-to-end metric, reported by an untraced run.
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)
TIME_LIMIT_S = 170  # the whole run, all interpreters included


class BenchmarkError(Exception):
    pass


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchmarkError(f"the run passed its {TIME_LIMIT_S} s limit")
    return left


def run_pass(args: argparse.Namespace, deadline: float, *extra: str) -> dict:
    """One worker pass in a fresh interpreter; its last stdout line is its result."""
    budget = _remaining(deadline)
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
        "--workload", args.workload, "--seed", str(args.seed),
        "--budget-s", f"{max(budget - 5, 1):.1f}", *extra,
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=budget, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "cobfilt").glob("*")):
        if path.is_file():
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "cobfilt_commit": _git_commit(),
        "cobfilt_source_sha256": digest.hexdigest(),
    }


# timed() and traced() return the worker passes (the reported one first), the
# metrics, their part of the run record, and the human-readable lines.


def timed(args: argparse.Namespace, deadline: float) -> tuple[list[dict], dict, dict, list[str]]:
    result = run_pass(args, deadline, "--seconds", str(args.seconds))
    setup = result["setup_samples_s"]
    values = {
        "ops_per_s": result["ops_per_s"],
        "latency_p50_ms": result["latency_p50_ms"],
        "latency_tail_ms": result["latency_tail_ms"],
        "setup_s": statistics.median(setup),
        "peak_rss_mib": result["peak_rss_mib"],
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    lines = [f"{name:<18}{values[name]:>14.6g} {unit}" for name, unit in END_TO_END]
    lines[2] += f"  (p{result['tail_percentile']} of {result['samples']} samples)"
    attempted = result["calls"]
    lines.append(f"{'failed_frac':<18}{result['failed'] / attempted:>14.6g} ratio  ({result['failed']} of {attempted})")
    record = {
        "tail": {"percentile": result["tail_percentile"], "samples": result["samples"]},
        "setup_samples_s": setup,
        "worker_import_s": result["import_s"],
        "stdout_bytes": result["stdout_bytes"],
    }
    return [result], metrics, record, lines


def traced(args: argparse.Namespace, deadline: float) -> tuple[list[dict], dict, dict, list[str]]:
    fixed = ("--rounds", str(workloads.TRACE_ROUNDS[args.workload]))
    # Untraced passes bracket the traced ones, so a slow phase of the host
    # weighs on both sides of the overhead ratio.
    before = run_pass(args, deadline, *fixed)
    first = run_pass(args, deadline, *fixed, "--traced")
    second = run_pass(args, deadline, *fixed, "--traced")
    after = run_pass(args, deadline, *fixed)
    if any(result["truncated"] for result in (before, first, second, after)):
        raise BenchmarkError("a traced pass ran out of time before its fixed rounds ended")
    exact = [m for m, _, _ in spans.LAYER_METRICS if m.endswith(spans.EXACT_SUFFIXES)]
    differ = [m for m in exact if first["layers"][m] != second["layers"][m]]
    if differ:
        raise BenchmarkError(f"two traced passes of one seed disagree on {differ}")
    values = dict(first["layers"])
    untraced_s = [before["wall_ns"] / 1e9, after["wall_ns"] / 1e9]
    traced_s = [first["wall_ns"] / 1e9, second["wall_ns"] / 1e9]
    values["trace.overhead_frac"] = statistics.mean(traced_s) / statistics.mean(untraced_s) - 1
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in spans.LAYER_METRICS}
    lines = [f"{name:<42}{values[name]:>14.6g} {unit}" for name, unit, _ in spans.LAYER_METRICS]
    lines[-2] += "  (traced {:.3f} s, {:.3f} s; untraced {:.3f} s, {:.3f} s)".format(*traced_s, *untraced_s)
    record = {
        "rounds": workloads.TRACE_ROUNDS[args.workload],
        "ratio_bases": first["ratio_bases"],
        "untraced_wall_s": untraced_s,
        "traced_wall_s": traced_s,
    }
    return [first, before, second, after], metrics, record, lines


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (SRC / "cobfilt" / "__init__.py").is_file():
        print(f"run.py: no cobfilt sources under {SRC}; run from a cobfilt checkout", file=sys.stderr)
        return 2
    try:
        passes, metrics, pass_record, lines = (traced if args.trace else timed)(args, deadline)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 3

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 client",
        "mix": passes[0]["mix"],
        "problems": [problem for result in passes for problem in result["problems"]],
        "failed_by_pass": [result["failed"] for result in passes],
        "truncated": passes[0]["truncated"],
        **pass_record,
        **environment(),
    }
    attempted = sum(result["calls"] for result in passes)
    failed = sum(result["failed"] for result in passes)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("\n".join(lines))
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

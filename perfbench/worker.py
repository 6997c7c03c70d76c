"""One benchmark pass, run by run.py in a fresh interpreter.

Imports cobfilt from the checkout's src directory, then drives
cobfilt.cli.main(argv) in this one thread as a closed loop with one client:
the next argv goes out only when the previous call has returned.  Output is
captured and checked against the reference between calls, outside the
timed section.  Prints one JSON object with the pass's figures.

A timed pass calls each of one fixed list of operations several times, in
sweeps, sized to about --seconds of operation time at the program's speed
when the benchmark was made, and times `import cobfilt` in fresh
interpreters between sweeps.  A fixed pass runs
--rounds rounds once, so its counts repeat exactly.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from itertools import islice
from pathlib import Path

import reference
import workloads

MAX_PROBLEMS = 5
SETUP_PROBES = 15
PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import cobfilt; print(time.perf_counter() - t)"
)


def load_cobfilt(root: Path):
    """Import cobfilt from root/src and refuse any other copy."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import cobfilt.cli

    import_s = time.perf_counter() - start
    if Path(cobfilt.__file__).resolve().parent.parent != src:
        raise SystemExit(f"cobfilt was imported from {cobfilt.__file__}, not from {src}")
    return cobfilt.cli, import_s


def probe_import(root: Path) -> float:
    """Wall time of `import cobfilt` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str((root / "src").resolve())],
        capture_output=True, text=True, timeout=60, cwd=root,
    )
    if proc.returncode != 0:
        raise SystemExit(f"importing cobfilt failed:\n{proc.stderr}")
    return float(proc.stdout)


def run_rounds(cli, rounds, deadline: float, tracer=None, repeat: bool = False, between=None) -> dict:
    """Run the operations of `rounds` through cli.main, each once or, with
    `repeat`, each op.calls times.

    Repeats come in sweeps, and an operation with c calls runs, in order, in
    the c of the sweeps k with k * c mod sweeps < c, spread evenly over them.  An operation's latency is the fastest call of its argv,
    which does the same work every time.  The host's speed wanders by up to
    2x over seconds, and the fastest of calls a second or more apart is far
    steadier than any one call.  between(k) runs before
    sweep k and after the last one, outside the timed section.  Every call is
    validated.  Stops after any call once the wall clock passes `deadline`.
    """
    ops = []
    fastest: dict[tuple[str, ...], int] = {}
    calls = failed = stdout_bytes = wall_ns = 0
    problems: list[str] = []

    def call(op) -> None:
        nonlocal calls, failed, stdout_bytes, wall_ns
        argv = list(op.argv)
        out, err = io.StringIO(), io.StringIO()
        if tracer:
            tracer.begin_op()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter_ns()
            try:
                code = cli.main(argv)
            except Exception as exc:  # any escape from main is a failed operation
                code = exc
            end = time.perf_counter_ns()
        if tracer:
            tracer.end_op()
        text = out.getvalue()
        calls += 1
        wall_ns += end - start
        stdout_bytes += len(text.encode())
        problem = reference.check(argv, code, text)
        if problem is not None:
            failed += 1
            if len(problems) < MAX_PROBLEMS:
                problems.append(f"{' '.join(argv)}: {problem}")
        fastest[op.argv] = min(end - start, fastest.get(op.argv, end - start))

    truncated = False
    if between:
        between(0)
    for op in (op for round_ops in rounds for op in round_ops):
        ops.append(op)
        call(op)
        truncated = time.monotonic() > deadline
        if truncated:
            break
    sweeps = max((op.calls for op in ops), default=1) if repeat else 1
    for sweep in range(1, sweeps):
        if truncated:
            break
        if between:
            between(sweep)
        for op in ops:
            if sweep * op.calls % sweeps < op.calls:
                call(op)
                truncated = time.monotonic() > deadline
                if truncated:
                    break
    if between and not truncated:
        between(sweeps)
    kinds = Counter(op.kind for op in ops)
    buckets = Counter(f"{op.kind.split()[0]} {op.bucket}" for op in ops)
    return {
        "times_ns": [fastest[op.argv] for op in ops],
        "calls": calls,
        "wall_ns": wall_ns,
        "failed": failed,
        "stdout_bytes": stdout_bytes,
        "mix": {"kinds": dict(sorted(kinds.items())), "sizes": dict(sorted(buckets.items())), "sweeps": sweeps},
        "problems": problems,
        "truncated": truncated,
    }


def summarize(times_ns: list[int]) -> dict:
    """Throughput and latency figures of one timed pass.

    The tail is the highest percentile with at least ten samples beyond it:
    the (n - 10)th smallest time, at percentile 100 (n - 10) / n.
    """
    n = len(times_ns)
    ordered = sorted(times_ns)
    tail_rank = max(n - 10, 1)
    return {
        "ops_per_s": n / (sum(times_ns) / 1e9),
        "latency_p50_ms": statistics.median(times_ns) / 1e6,
        "latency_tail_ms": ordered[tail_rank - 1] / 1e6,
        "tail_percentile": round(100 * tail_rank / n, 2),
        "samples": n,
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--root", type=Path, required=True)
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--budget-s", type=float, required=True, help="wall time after which to stop early")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--seconds", type=float)
    group.add_argument("--rounds", type=int)
    p.add_argument("--traced", action="store_true")
    args = p.parse_args(argv)

    deadline = time.monotonic() + args.budget_s
    cli, import_s = load_cobfilt(args.root)
    tracer = None
    if args.traced:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    timed = args.seconds is not None
    count = workloads.sweep_rounds(args.workload, args.seconds) if timed else args.rounds
    rounds = islice(workloads.rounds(args.workload, args.seed), count)
    setup: list[float] = []

    def probe_between(gap: int) -> None:
        # The setup probes, spread over the gaps around the sweeps.
        gaps = workloads.CALLS + 1
        setup.extend(probe_import(args.root) for i in range(SETUP_PROBES) if i * gaps // SETUP_PROBES == gap)

    try:
        result = run_rounds(cli, rounds, deadline, tracer, timed, probe_between if timed else None)
    finally:
        if tracer:
            tracer.uninstall()
    result["setup_samples_s"] = setup
    times = result.pop("times_ns")
    result.update(summarize(times))
    result["import_s"] = import_s
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        result["layers"] = tracer.metrics(result["stdout_bytes"], result["wall_ns"])
        result["ratio_bases"] = tracer.bases()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

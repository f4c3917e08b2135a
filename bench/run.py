"""Benchmark of raagcs: one workload per run, every answer checked.

    python3 bench/run.py --workload classify_dense --seed 1 --seconds 25 --trace 0

Single process, one client, closed loop: each op starts when the previous
one has returned and been checked.  The run plays whole rounds of the
workload's op mix (see ``workloads.py``) until ``--seconds`` have passed;
the round under way at the deadline is finished, so every run has the same
mix.  Only the calls are timed; building inputs and checking answers
happen between them.

``--trace 0`` reports the end-to-end metrics: set-up time of a fresh
interpreter, throughput, median and tail latency, and peak memory.  The
times are scaled to a nominal machine speed measured between the ops
(``speed.py``); the raw ones are printed before the result line.
``--trace 1`` instead plays every round twice, once with a span around
each call into the library (``spans.py``) and once without, alternating
which goes first, and reports per-layer times, the tracing overhead and
the work counters of round 0.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
repeat the metrics for people, with the once-per-run checks.  The program
under test is the ``raagcs`` package in ``src/`` of the same checkout; the
run exits with code 2 before measuring anything when that is missing.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPANS_DIR = BENCH / "out"
SETUP_RUNS = 15
SETUP_SAMPLES = 5
TAIL_BEYOND = 10


def measure_setup(statement: str) -> tuple[float, float]:
    """Median, over fresh interpreters, of the time from before
    ``import raagcs.cli`` to the end of the workload's first small call:
    scaled to the nominal machine speed by calibration samples taken in
    the same interpreter right after, and raw.

    One extra interpreter runs first and is not counted, so compiling the
    bytecode cache is not part of the figure."""
    code = "\n".join(
        [
            "import contextlib, io, statistics, sys, time",
            f"sys.path.insert(0, {str(SRC)!r})",
            "t0 = time.perf_counter()",
            "import raagcs.cli as cli",
            "with contextlib.redirect_stdout(io.StringIO()):",
            f"    {statement}",
            "t = time.perf_counter() - t0",
            f"sys.path.insert(0, {str(BENCH)!r})",
            "import speed",
            "speed.calibrate()",
            f"print(t, statistics.median(speed.sample() for _ in range({SETUP_SAMPLES})))",
        ]
    )
    scaled, raw = [], []
    for _ in range(SETUP_RUNS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed:\n{proc.stderr}")
        t, cal = map(float, proc.stdout.split()[-2:])
        scaled.append(t * speed.NOMINAL_S / cal)
        raw.append(t)
    return statistics.median(scaled[1:]), statistics.median(raw[1:])


def play(op, runner=None) -> tuple[int, bool, object]:
    """Run one op, through ``runner`` if given; return its latency in ns,
    whether its answer is right, and the answer.  An op that raises counts
    as failed."""
    t0 = time.perf_counter_ns()
    try:
        value = runner(op.call) if runner else op.call()
    except Exception:
        return time.perf_counter_ns() - t0, False, None
    dt = time.perf_counter_ns() - t0
    try:
        return dt, bool(op.check(value)), value
    except Exception:
        return dt, False, value


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it,
    that percentile, and the samples beyond.  With too few samples, the
    maximum."""
    xs = sorted(latencies)
    n = len(xs)
    beyond = TAIL_BEYOND if n > TAIL_BEYOND else 0
    return xs[n - beyond - 1], 100.0 * (n - beyond) / n, beyond


def run_untraced(wl, seconds: float) -> tuple[dict, int, int, list[str]]:
    setup_s, raw_setup_s = measure_setup(wl.setup_statement)
    gauge = speed.Gauge()
    raw: list[float] = []
    marks: list[int] = []
    failed = 0
    deadline = time.perf_counter() + seconds
    rounds = 0
    while time.perf_counter() < deadline:
        for op in wl.round(rounds):
            marks.append(gauge.tick())
            dt, ok, _ = play(op)
            raw.append(dt / 1e6)
            failed += not ok
        rounds += 1
    for _ in range(speed.RADIUS):
        gauge.tick(force=True)
    ms = [x * gauge.factor(mark) for x, mark in zip(raw, marks)]
    tail_ms, tail_pct, beyond = tail(ms)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(ms) / (sum(ms) / 1e3), "ops/s"),
        "latency_p50_ms": (statistics.median(ms), "ms"),
        "latency_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    cal_ms = statistics.median(gauge.samples) * 1e3
    notes = [
        f"rounds {rounds}, ops {len(ms)}, busy {sum(raw) / 1e3:.3f} s",
        f"times are at nominal machine speed: calibration {speed.NOMINAL_S * 1e3:.2f} ms,"
        f" here median {cal_ms:.3f} ms over {len(gauge.samples)} samples",
        f"raw: setup_s {raw_setup_s:.4f}, ops_per_s {len(raw) / (sum(raw) / 1e3):.4f},"
        f" latency_p50_ms {statistics.median(raw):.4f}, latency_tail_ms {tail(raw)[0]:.4f}",
        f"latency_tail_ms is p{tail_pct:.2f}: {beyond} of {len(ms)} ops beyond it",
        f"setup_s is the median of {SETUP_RUNS} fresh interpreters",
    ]
    return metrics, len(ms), failed, notes


def run_traced(wl, seconds: float, spans_path: Path) -> tuple[dict, int, int, list[str]]:
    import spans
    from workloads import CliResult

    tracer = spans.Tracer()
    untraced_ns = 0
    failed = 0
    ops = 0
    output_bytes = 0
    deadline = time.perf_counter() + seconds
    rounds = 0
    while time.perf_counter() < deadline:
        round_ops = wl.round(rounds)
        for traced in (True, False) if rounds % 2 == 0 else (False, True):
            if not traced:
                for op in round_ops:
                    dt, ok, _ = play(op)
                    untraced_ns += dt
                    failed += not ok
                continue
            tracer.observing = rounds == 0
            with tracer.interposed():
                for op in round_ops:
                    tracer.op = ops
                    ops += 1
                    _, ok, value = play(op, lambda call: tracer.call(spans.ROOT, call))
                    failed += not ok
                    if tracer.observing and isinstance(value, CliResult):
                        output_bytes += len(value.out.encode())
        rounds += 1
    roots = [s[4] - s[3] for s in tracer.spans if s[1] == spans.ROOT]
    traced_ns = sum(roots)
    consistent = spans.spans_consistent(tracer.spans) and len(roots) == ops
    tracer.write(spans_path)
    values = spans.layer_metrics(tracer.spans, ops)
    values.update(spans.work_counters(tracer.calls, output_bytes))
    values["trace.overhead_ratio"] = traced_ns / untraced_ns
    values["trace.traced_ops_per_s"] = ops / (traced_ns / 1e9)
    values["trace.untraced_ops_per_s"] = ops / (untraced_ns / 1e9)
    values["trace.spans_per_op"] = len(tracer.spans) / ops
    metrics = {name: (value, spans.unit(name)) for name, value in values.items()}
    notes = [
        f"rounds {rounds}, ops {ops} traced + {ops} untraced, spans {len(tracer.spans)} in {spans_path.relative_to(ROOT)}",
        f"span self times add up to each op's latency: {'yes' if consistent else 'NO'}",
        "counters cover round 0",
    ]
    if not consistent:
        failed += 1
    return metrics, 2 * ops, failed, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "raagcs" / "__init__.py").is_file():
        print(f"error: no raagcs package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import raagcs

    if Path(raagcs.__file__).resolve().parent != SRC / "raagcs":
        print(f"error: raagcs was imported from {raagcs.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload](args.seed)
    checks = wl.run_checks()
    if args.trace:
        spans_path = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        metrics, attempted, failed, notes = run_traced(wl, args.seconds, spans_path)
    else:
        metrics, attempted, failed, notes = run_untraced(wl, args.seconds)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for note in notes:
        print(f"  {note}")
    for name, (value, passed) in checks.items():
        print(f"  check {name} = {value} ({'ok' if passed else 'FAILED'})")
    print(f"  failed_ratio {failed / attempted} ratio ({failed} of {attempted} ops)")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value} {unit}")
    correct = failed == 0 and all(passed for _, passed in checks.values())
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

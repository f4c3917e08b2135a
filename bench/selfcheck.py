"""Self-check of the benchmark harness.

    python3 bench/selfcheck.py

For every workload it makes one short untraced run and two short traced
runs with the same seed, and checks that

* every run is correct and prints exactly the metrics ``BENCHMARK.json``
  names: the end-to-end ones untraced, the per-layer ones traced;
* the work counters of round 0 repeat exactly between
  the two traced runs;
* in a directory holding only ``BENCHMARK.json`` and the benchmark, the
  run exits non-zero without printing a result.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from spans import COUNTERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 7
SECONDS = "1"


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED)]
    cmd += ["--seconds", SECONDS, "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise SystemExit(f"run failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        untraced = result(run(workload, 0))
        traced = [result(run(workload, 1)) for _ in range(2)]
        for res, names in ((untraced, end_to_end), *((t, per_layer) for t in traced)):
            if not res["correct"] or res["failed"]:
                problems.append(f"{workload}: incorrect run {res}")
            if set(res["metrics"]) != names:
                problems.append(f"{workload}: metrics {sorted(set(res['metrics']) ^ names)} differ")
            if not all(isinstance(m["value"], (int, float)) for m in res["metrics"].values()):
                problems.append(f"{workload}: a metric value is not a number")
        first, second = ({k: t["metrics"][k]["value"] for k in COUNTERS} for t in traced)
        if first != second:
            problems.append(f"{workload}: counters differ between runs: {first} vs {second}")
        print(f"{workload}: counters {first}")

    isolated = BENCH / "out" / "isolated"
    shutil.rmtree(isolated, ignore_errors=True)
    shutil.copytree(BENCH, isolated / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", isolated)
    proc = run(spec["workloads"][0]["name"], 0, cwd=isolated)
    shutil.rmtree(isolated)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        problems.append("a run without src/ printed a result or exited 0")

    for p in problems:
        print(f"FAILED {p}")
    print("selfcheck:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""Machine speed, measured by a fixed piece of pure-Python work.

On a shared host the same interpreter runs the same code 30-50 % faster or
slower from one second or minute to the next, whatever the benchmark does.
The end-to-end times are therefore reported at a nominal machine speed: a
run times ``calibrate`` at most every ``EVERY_S`` seconds between its ops,
and each op's latency is scaled by ``NOMINAL_S`` over the median of the
``RADIUS`` samples taken last before it and the ``RADIUS`` taken first after
it.  ``calibrate`` shares no code with the program, so a change to the
program moves the scaled times exactly as it moves the raw ones; only the
host's speed drops out.  The raw figures are printed next to the scaled
ones.

The work is the kind the package and its CLI do, done with the standard
library only: building and running an ``argparse`` parser, a JSON round
trip, bit operations on int adjacency masks, set and dict updates, and
integer row operations on a small matrix.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import time

# Median calibration time on the baseline machine (2-CPU shared Linux VM,
# Python 3.11.7).  Only the scale of the reported figures depends on it.
NOMINAL_S = 0.0055
EVERY_S = 0.1
RADIUS = 1


def calibrate() -> int:
    """Fixed work of about 5 ms on the baseline machine, between ops;
    returns a checksum."""
    parser = argparse.ArgumentParser(prog="calibrate")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("classify", "compare", "euler", "decompose", "ktheory", "realize"):
        cmd = sub.add_parser(name, help=f"{name} a graph")
        cmd.add_argument("spec")
        cmd.add_argument("--json", action="store_true")
        cmd.add_argument("--limit", type=int, default=3)
    acc = 0
    for k in range(6):
        args = parser.parse_args(["compare", f"G{k}", "--json", "--limit", str(k)])
        acc += args.limit + len(args.spec)
    doc = {
        "rows": [list(range(i, i + 10)) for i in range(40)],
        "items": {f"k{i}": {"x": i, "y": str(i), "z": [i, -i]} for i in range(60)},
    }
    for _ in range(2):
        doc = json.loads(json.dumps(doc, indent=2, sort_keys=True))
    n = 24
    adj = [((v * 2654435761) >> 7) & ((1 << n) - 1) & ~(1 << v) for v in range(n)]
    for rounds in range(3):
        for v in range(n):
            mask = adj[v]
            while mask:
                low = mask & -mask
                acc += (low.bit_length() * (v + 1)) ^ rounds
                mask ^= low
    seen: dict[int, int] = {}
    members: set[int] = set()
    for i in range(1500):
        key = (i * 40503) & 511
        seen[key] = seen.get(key, 0) + i
        if key & 1:
            members.add(key)
        else:
            members.discard(key ^ 1)
    rows = [[(i * 7 + j * 13) % 29 - 14 for j in range(12)] for i in range(12)]
    for p in range(11):
        pivot = rows[p][p] or 1
        for r in range(p + 1, 12):
            f = rows[r][p]
            rows[r] = [x * pivot - f * y for x, y in zip(rows[r], rows[p])]
    return acc + len(doc["items"]) + sum(seen.values()) + len(members) + sum(rows[11]).bit_length()


def sample() -> float:
    """Seconds one ``calibrate`` call takes now.  The garbage collector is
    off meanwhile: a collection of the objects the ops left behind would
    otherwise land in some samples and not in others."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        calibrate()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Gauge:
    """Calibration samples taken between the ops of a run."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.last = float("-inf")

    def tick(self, force: bool = False) -> int:
        """Take a sample if EVERY_S has passed since the last one (or if
        forced); return the index of the latest sample."""
        if force or time.perf_counter() - self.last >= EVERY_S:
            self.samples.append(sample())
            self.last = time.perf_counter()
        return len(self.samples) - 1

    def factor(self, index: int) -> float:
        """Scale for an op that ran after sample ``index``: NOMINAL_S over
        the median of the samples from RADIUS before to RADIUS after it."""
        window = self.samples[max(0, index - RADIUS + 1) : index + RADIUS + 1]
        return NOMINAL_S / statistics.median(window)

#!/usr/bin/env python3
"""Benchmark of trimat's exhaustive searches, end to end and per layer.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src/`` directory and nowhere else.  One process runs one workload as a
closed loop with a single caller: whole passes of operations, each started
when the previous one has returned, until ``--seconds`` have elapsed.
Every answer is checked.  The last line of standard output is a JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines before
it name the tail percentile, the operation count and every failure.

Failures are wrong answers, exit code 2, an exception escaping the call,
or running over the workload's per-operation limit.  A failed operation
is charged its own time plus the limit in every timing metric, so
replacing a fast failure with a slower correct answer never reads as a
regression.  ``correct`` is false only when some answer was wrong.

Times are scaled to a reference machine speed (``calibrate.py``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs passes
untraced for half the time, then the same passes again with the public
library functions wrapped (``tracing.py``), and reports per-layer metrics
averaged per pass, with the traced run's extra time as
``trace.overhead_frac``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

import calibrate
import tracing
from calibrate import REFERENCE_S, OpTimeout, Sampler
from workloads import WORKLOADS, Op

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / ".work"

#: No operation starts after this many seconds, whatever --seconds says,
#: so that a run that times out on every operation still ends in time.
HARD_STOP_S = 100.0

SETUP_REPEATS = 9
#: An operation with at least this many calibration samples taken while it
#: ran is scaled by those; shorter ones by all samples of their record.
LOCAL_SAMPLES = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}


def load_trimat():
    src = ROOT / "src"
    if not (src / "trimat" / "__init__.py").is_file():
        raise SystemExit(f"error: no trimat sources under {src}")
    sys.path.insert(0, str(src))
    import trimat
    import trimat.cli  # noqa: F401  (the CLI is driven in process)

    if src.resolve() not in Path(trimat.__file__).resolve().parents:
        raise SystemExit(f"error: imported trimat from {trimat.__file__}, not {src}")
    return trimat


_PROBE = (
    "import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
    "import trimat, trimat.cli; print(time.perf_counter() - t)"
)


def measure_setup(tm, workload, seed: int) -> float:
    """Reference seconds to set up: the median, over a few repetitions, of
    a cold import of the library in a fresh interpreter plus generating
    and writing the first pass's inputs.

    Each repetition is scaled by calibration samples taken just before
    and after it on the same CPU: the process is pinned to one CPU for the
    duration and the interpreter it starts inherits that.  Unpinned, the
    samples did not track the speed of the CPU the import ran on, and the
    median spread twice as wide from run to run."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    scaled = []
    try:
        for _ in range(SETUP_REPEATS):
            samples = [calibrate.sample() for _ in range(2)]
            done = subprocess.run(
                [sys.executable, "-c", _PROBE], cwd=ROOT, capture_output=True, text=True, timeout=60, check=True
            )
            with tempfile.TemporaryDirectory(dir=WORK) as scratch:
                start = perf_counter()
                workload.make_pass(tm, seed, 0, Path(scratch))
                raw = float(done.stdout) + perf_counter() - start
            samples += [calibrate.sample() for _ in range(2)]
            scaled.append(raw * calibrate.scale(samples))
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.median(scaled)


class Record:
    """Operations run by one loop, with the calibration samples taken
    while it ran."""

    def __init__(self, sampler: Sampler, limit_s: float):
        self.sampler = sampler
        self.limit_s = limit_s
        self.first_sample = len(sampler.samples)
        sampler.take()  # so that even a run shorter than one tick has a sample
        self.outcomes: list[tuple[str, str | None, str]] = []  # (label, failure class, detail)
        self.elapsed: list[float] = []  # raw seconds, sampling left out
        self.local: list[float | None] = []  # scale from samples inside the op
        self.pass_sizes: list[int] = []

    def run_op(self, op: Op) -> None:
        sampler = self.sampler
        first = len(sampler.samples)
        failure = None
        start = sampler.clock()
        sampler.deadline = start + self.limit_s
        try:
            result = op.run()
        except OpTimeout:
            failure = ("timeout", f"over {self.limit_s:g} s")
        except Exception as exc:
            failure = ("exception", type(exc).__name__)
        finally:
            sampler.deadline = None
        self.elapsed.append(sampler.clock() - start)
        inside = sampler.samples[first:]
        self.local.append(calibrate.scale(inside) if len(inside) >= LOCAL_SAMPLES else None)
        if failure is None:
            try:
                failure = op.check(result)
            except Exception as exc:
                failure = ("wrong", f"unreadable answer: {type(exc).__name__}: {exc}")
        self.outcomes.append((op.label, *(failure or (None, ""))))

    def run_pass(self, ops: list[Op], deadline: float) -> bool:
        """Run one pass; False when the hard stop cut it short."""
        for op in ops:
            if perf_counter() > deadline:
                return False
            self.run_op(op)
        self.pass_sizes.append(len(ops))
        return True

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failures(self) -> list[tuple[str, str, str]]:
        return [o for o in self.outcomes if o[1] is not None]

    def classes(self) -> list[str | None]:
        return [cls for _, cls, _ in self.outcomes]

    @property
    def scale(self) -> float:
        return calibrate.scale(self.sampler.samples[self.first_sample :])

    def scaled(self) -> list[float]:
        """Reference seconds per operation, sampling left out."""
        whole = self.scale
        return [t * (local or whole) for t, local in zip(self.elapsed, self.local)]

    def charged(self) -> list[float]:
        """Reference seconds per operation, plus the limit for a failure."""
        return [t + (self.limit_s if cls else 0.0) for t, cls in zip(self.scaled(), self.classes())]


def percentile(values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of values beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct * len(ordered) / 100))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(record: Record, setup_s: float, tail_pct: float) -> tuple[dict[str, float], int]:
    ok = record.attempted - len(record.failures)
    charged = record.charged()
    passes, at = [], 0
    for size in record.pass_sizes:
        passes.append(sum(charged[at : at + size]))
        at += size
    tail_s, beyond = percentile(charged, tail_pct)
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(passes),
        "ops_per_s": ok / sum(charged),
        "p50_ms": statistics.median(charged) * 1000,
        "tail_ms": tail_s * 1000,
        "ok_frac": ok / record.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, beyond


def describe_failures(record: Record) -> list[str]:
    by_class = Counter(record.classes())
    n = record.attempted
    shares = ", ".join(f"{cls} {by_class[cls]}/{n}" for cls in ("wrong", "exit2", "exception", "timeout"))
    lines = [f"failures: {shares}"]
    for (label, cls, detail), count in sorted(Counter(record.failures).items()):
        lines.append(f"  failed {count}x {label}: {cls} ({detail})")
    return lines


def run(workload_name: str, seed: int, seconds: float, trace: bool, max_ops: int | None = None) -> dict:
    """One benchmark run.  ``max_ops`` truncates every pass (used by the
    self-test)."""
    workload = WORKLOADS[workload_name]
    tm = load_trimat()
    WORK.mkdir(parents=True, exist_ok=True)
    setup_s = 0.0 if trace else measure_setup(tm, workload, seed)
    with tempfile.TemporaryDirectory(dir=WORK) as scratch, Sampler() as sampler:

        def ops_of(index: int) -> list[Op]:
            return workload.make_pass(tm, seed, index, Path(scratch))[:max_ops]

        share = 0.5 if trace else 1.0  # of the time, for the untraced loop
        start = perf_counter()
        plain = Record(sampler, workload.limit_s)
        while not plain.pass_sizes or perf_counter() - start < seconds * share:
            if not plain.run_pass(ops_of(len(plain.pass_sizes)), start + HARD_STOP_S * share):
                break
        lines = [
            f"workload {workload_name}, seed {seed}: {plain.attempted} ops in {len(plain.pass_sizes)} passes",
            f"times scaled by {plain.scale:.3f}: calibration samples averaged "
            f"{REFERENCE_S / plain.scale * 1000:.2f} ms against {REFERENCE_S * 1000:g} ms",
        ]
        if not trace:
            metrics, beyond = end_to_end(plain, setup_s, workload.tail_pct)
            lines.append(f"tail_ms is p{workload.tail_pct:g} of {plain.attempted} ops, {beyond} beyond it")
            final = plain
        else:
            traced = Record(sampler, workload.limit_s)
            deadline = perf_counter() + HARD_STOP_S * share
            with tracing.Tracer(sampler.clock) as tracer:
                for index in range(len(plain.pass_sizes)):
                    if not traced.run_pass(ops_of(index), deadline):
                        break
            overhead = sum(traced.scaled()) / sum(plain.scaled()[: traced.attempted]) - 1
            metrics = tracer.metrics(max(1, len(traced.pass_sizes)), traced.scale, overhead)
            # Wrapper frames add recursion depth, so check that tracing did
            # not change which operations fail.  Timeouts are compared by
            # count only: an operation near its limit may land either side.
            def untimed(record: Record, n: int) -> list[str | None]:
                return [None if cls == "timeout" else cls for cls in record.classes()[:n]]

            same = untimed(traced, traced.attempted) == untimed(plain, traced.attempted)
            timeouts = [r.classes()[: traced.attempted].count("timeout") for r in (plain, traced)]
            lines.append(
                f"traced failures {'equal' if same else 'DIFFER FROM'} the untraced run's; "
                f"timeouts {timeouts[1]} traced, {timeouts[0]} untraced"
            )
            final = traced
    lines += describe_failures(final)
    return {
        "lines": lines,
        "trace_failures_match": same if trace else None,
        "result": {
            "correct": not any(cls == "wrong" for cls in final.classes()),
            "attempted": final.attempted,
            "failed": len(final.failures),
            "metrics": metrics,
        },
    }


def with_units(result: dict, trace: bool) -> dict:
    """The result object as printed: each metric with its unit."""
    units = tracing.metric_units() if trace else END_TO_END_UNITS
    metrics = {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()}
    return {**result, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in out["lines"]:
        print(line)
    print(json.dumps(with_units(out["result"], bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end and per-layer benchmark for lct3.

    python3 perfbench/run.py --workload classify-general --seed 1 --seconds 25 --trace 0

One client in a closed loop drives the public CLI entry point
`lct3.cli.main` in-process: each op is one CLI command on one arrangement
and starts only after the previous op has finished.  Set-up imports lct3
from `src/` and builds every arrangement of the run; the run then executes
whole rounds of the workload's op list, each round on fresh arrangements,
while another round still fits in `--seconds`.  The end-to-end times take,
for each op of the round, its median latency over the run's rounds.

The host is shared, and other tenants change its speed by up to 1.8x for
stretches of a second to minutes, often longer than a whole run.  So every
time the end-to-end metrics report is host-speed corrected: a short fixed
pure-Python loop (the probe) is timed before and after each op and each step
of set-up (the import, and the inputs of each round), and the step's wall
time is scaled by PROBE_REF_S over the mean of the two probes.  The figures read as wall seconds on a host whose probe takes
PROBE_REF_S.  The report lines also print the uncorrected wall times.

Every op has a 20 s budget.  An op past it is stopped, counts as failed, and
its latency is recorded as exactly the budget.  Every op's output is checked
against what the geometry predicts and, at the default seed, against the
recorded exit code and SHA-256 of its stdout (golden.json).

`--trace 0` prints the end-to-end metrics.  `--trace 1` is the traced run:
it runs round 0 on a fresh import of lct3 with every layer wrapped (see
spans.py), then again untraced, checks that both print the same bytes, and
prints the per-layer metrics and the tracing overhead (traced over untraced
time of round 0).  The report lines
name every metric with its unit; the last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import resource
import signal
import statistics
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import spans
from workloads import DEFAULT_SEED, WORKLOADS, build_round, check_output, expected_exit

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RECORDS = ROOT / ".perfbench"  # span files of traced runs
GOLDEN = HERE / "golden.json"

BUDGET_S = 20.0
SETUP_REPEATS = 3
# About the probe's time on the 2-core AMD EPYC host the baseline was taken
# on, in a stretch when the host ran fast.
PROBE_REF_S = 0.001
PROBE_REPEATS = 3
_ZERO = Fraction(0)

END_TO_END_UNITS = {
    "corpus_s": "s",
    "op_p50_s": "s",
    "pass_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
COUNT_UNITS = {
    "calls": "count",
    "s": "s",
    "self_s": "s",
    "cells": "count",
    "out_generators": "count",
    "computed": "count",
    "max_basis": "count",
    "max_coeff_bits": "bits",
}
EXTRA_LAYER_UNITS = {
    "cli.output_bytes": "bytes",
    "points.ideal_of_points.hit_ratio": "ratio",
    "trace.corpus_s": "s",
    "trace.overhead": "ratio",
}


def layer_unit(name: str) -> str:
    return EXTRA_LAYER_UNITS.get(name) or COUNT_UNITS[name.rsplit(".", 1)[1]]


class BudgetExceeded(BaseException):
    """Raised in the running op when its budget is spent.  A BaseException,
    so no `except Exception` in the library can swallow it."""


def _on_alarm(signum, frame):
    raise BudgetExceeded


@dataclass
class Result:
    id: str
    code: object
    latency: float
    digest: str
    out_bytes: int
    failure: str = None  # over-budget | exception | exit-code | check
    detail: str = ""
    speed: float = 1.0  # host speed during the op, from the probes around it

    @property
    def corrected(self) -> float:
        """The latency at the probe's reference speed; an op stopped at its
        budget keeps exactly the budget."""
        return self.latency if self.failure == "over-budget" else self.latency * self.speed


def _probe_once():
    # what the library's inner loops do: Fraction sums in a dict keyed by
    # exponent tuples
    terms = {}
    for i in range(800):
        key = (i % 5, i // 5 % 4, 2)
        terms[key] = terms.get(key, _ZERO) + Fraction(i % 7 + 1, i % 5 + 2)


def probe() -> float:
    """The fastest of a few timings of a fixed pure-Python loop (about 1 ms):
    the host's current speed, as the time of a fixed piece of work."""
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        start = perf_counter()
        _probe_once()
        best = min(best, perf_counter() - start)
    return best


class Stopwatch:
    """Times a sequence of calls, probing the host's speed before the first
    and after each; keeps their total wall and corrected seconds."""

    def __init__(self):
        self.wall = self.corrected = 0.0
        self.before = probe()

    def time(self, fn, *args):
        """Call fn(*args); returns (its value, the host speed during it
        relative to the reference)."""
        start = perf_counter()
        value = fn(*args)
        elapsed = perf_counter() - start
        after = probe()
        speed = 2 * PROBE_REF_S / (self.before + after)
        self.wall += elapsed
        self.corrected += elapsed * speed
        self.before = after
        return value, speed


# ---------------------------------------------------------------------------
# set-up


def import_lct3():
    """A fresh import of lct3 and its CLI from this checkout's src/."""
    for name in [n for n in sys.modules if n == "lct3" or n.startswith("lct3.")]:
        del sys.modules[name]
    lct3 = importlib.import_module("lct3")
    importlib.import_module("lct3.cli")
    if Path(lct3.__file__).resolve().parent != SRC / "lct3":
        raise ImportError(f"lct3 imported from {lct3.__file__}, not from {SRC}")
    return lct3


def set_up(workload, seed, rounds, smoke, recorder=None):
    """Import lct3 and build every arrangement, round by round; returns
    (Stopwatch, lct3, corpus).  With a recorder, the layers are wrapped
    before the inputs are built."""
    watch = Stopwatch()
    lct3, _ = watch.time(import_lct3)
    if recorder is not None:
        watch.time(recorder.install, lct3)
    corpus = [watch.time(build_round, lct3, workload, seed, r, smoke)[0] for r in range(rounds)]
    return watch, lct3, corpus


# ---------------------------------------------------------------------------
# ops


def run_op(main, op, golden=None, budget=BUDGET_S, recorder=None) -> Result:
    """One CLI invocation with the document on stdin, under the budget."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin, sys.stdin = sys.stdin, io.StringIO(op.doc)
    code, failure, detail = None, None, ""
    signal.signal(signal.SIGALRM, _on_alarm)
    start = perf_counter()
    signal.setitimer(signal.ITIMER_REAL, budget)
    try:
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if recorder is None:
                    code = main(list(op.argv))
                else:
                    recorder.op = op.id
                    code = recorder.span(spans.ROOT, main, list(op.argv))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except BudgetExceeded:
        failure = "over-budget"
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code
    except Exception:
        code, failure, detail = 1, "exception", traceback.format_exc(limit=-3)
    latency = perf_counter() - start
    sys.stdin = saved_stdin
    text = out.getvalue()
    data = text.encode()
    digest = hashlib.sha256(data).hexdigest()
    result = Result(op.id, code, latency, digest, len(data), failure, detail)
    if failure == "over-budget":
        result.latency = budget
    elif failure is None:
        if code != expected_exit(op):
            result.failure, result.detail = "exit-code", f"exit {code}: {err.getvalue()[-300:]}"
        else:
            try:
                problem = check_output(op, text, err.getvalue())
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problem = f"malformed output document: {exc!r}"
            if problem is None and golden is not None and golden.get(op.id) != [code, digest]:
                problem = f"exit code and stdout differ from golden {golden.get(op.id)}"
            if problem:
                result.failure, result.detail = "check", problem
    return result


def run_round(main, ops, golden=None, budget=BUDGET_S, recorder=None):
    """Run the ops in order, probing the host's speed between them; returns
    (wall seconds of the ops, results)."""
    watch, results = Stopwatch(), []
    for op in ops:
        result, speed = watch.time(run_op, main, op, golden, budget, recorder)
        result.speed = speed
        results.append(result)
    return watch.wall, results


# ---------------------------------------------------------------------------
# a run


def _golden(workload, seed, smoke):
    if seed != DEFAULT_SEED or smoke:
        return None
    return json.loads(GOLDEN.read_text())["outputs"].get(workload)


def median_latencies(results, corrected=True) -> dict:
    """Each op of the round (index and label, as in r3.07.<label>) mapped to
    its median latency over the rounds run, host-speed corrected or not."""
    latencies = {}
    for r in results:
        latencies.setdefault(r.id.split(".", 1)[1], []).append(r.corrected if corrected else r.latency)
    return {shape: statistics.median(v) for shape, v in latencies.items()}


def run(workload, seed, seconds, trace, smoke=False, budget=BUDGET_S):
    """Set up and run one workload; returns (report dict, report lines)."""
    rounds = 1 if trace else WORKLOADS[workload].max_rounds
    setup_times, setup_wall = [], []
    for _ in range(SETUP_REPEATS):
        watch, lct3, corpus = set_up(workload, seed, rounds, smoke)
        setup_times.append(watch.corrected)
        setup_wall.append(watch.wall)
    golden = _golden(workload, seed, smoke)
    if trace:
        metrics, results, problems = _traced(workload, seed, smoke, lct3, corpus, golden, budget)
        units = {name: layer_unit(name) for name in metrics}
    else:
        round_times, results = [], []
        start = perf_counter()
        for ops in corpus:
            round_start = perf_counter()
            results += run_round(lct3.cli.main, ops, golden, budget)[1]
            round_times.append(perf_counter() - round_start)
            if perf_counter() - start + statistics.fmean(round_times) > seconds:
                break
        typical = median_latencies(results)
        wall = median_latencies(results, corrected=False)
        failed = sum(r.failure is not None for r in results)
        metrics = {
            "corpus_s": sum(typical.values()),
            "op_p50_s": statistics.median(typical.values()),
            "pass_ratio": 1 - failed / len(results),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units, problems = END_TO_END_UNITS, []

    kinds = {}
    for r in results:
        if r.failure:
            kinds[r.failure] = kinds.get(r.failure, 0) + 1
    # an op stopped at its budget printed nothing wrong: it failed, but the
    # run's outputs are still correct
    wrong = [r for r in results if r.failure not in (None, "over-budget")]
    report = {
        "correct": not wrong and not problems,
        "attempted": len(results),
        "failed": sum(kinds.values()),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    lines = [
        f"workload {workload}  seed {seed}  trace {int(trace)}  ops {len(results)}"
        f"  rounds {2 if trace else len(round_times)}  budget {budget:g} s",
        "failures by kind: " + (", ".join(f"{k} {n}" for k, n in sorted(kinds.items())) or "none"),
        f"fail_ratio {report['failed'] / len(results):.6g} ratio",
    ]
    lines += [f"failed: {r.id}: {r.failure} {r.detail}".rstrip() for r in results if r.failure]
    lines += [f"problem: {p}" for p in problems]
    lines += [f"{k} {v:.6g} {units[k]}" for k, v in metrics.items()]
    if not trace:
        speeds = [r.speed for r in results]
        lines += [
            f"uncorrected wall: corpus_s {sum(wall.values()):.6g} s  op_p50_s"
            f" {statistics.median(wall.values()):.6g} s  setup_s {statistics.median(setup_wall):.6g} s",
            f"host speed over reference: median {statistics.median(speeds):.3g}"
            f"  range {min(speeds):.3g}-{max(speeds):.3g}",
        ]
    return report, lines


def _traced(workload, seed, smoke, lct3, corpus, golden, budget):
    """Round 0 on a fresh import of lct3 with every layer wrapped, then
    round 0 again untraced on the set-up's import, whose caches are still
    empty.  Returns (metrics, results, problems)."""
    recorder = spans.Recorder()
    _, traced_lct3, traced_corpus = set_up(workload, seed, 1, smoke, recorder)
    problems = [] if traced_corpus == corpus else ["set-up under tracing built other inputs"]
    cache = traced_lct3.points.ideal_of_points.cache_info
    before = cache()
    _, results = run_round(traced_lct3.cli.main, traced_corpus[0], golden, budget, recorder)
    after = cache()
    recorder.uninstall()
    _, reference = run_round(lct3.cli.main, corpus[0], golden, budget)
    problems += [
        f"{t.id}: traced stdout differs from the untraced one"
        for t, u in zip(results, reference)
        if (t.code, t.digest) != (u.code, u.digest)
        and "over-budget" not in (t.failure, u.failure)  # a stopped op printed nothing
    ]
    balance = recorder.op_balance()
    if balance > 1e-6:
        problems.append(f"self times differ from op wall time by {balance:.3g} s")
    metrics = recorder.layer_metrics()
    hits, misses = after.hits - before.hits, after.misses - before.misses
    metrics["cli.output_bytes"] = sum(r.out_bytes for r in results)
    metrics["points.ideal_of_points.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    traced_s = sum(r.corrected for r in results)
    metrics["trace.corpus_s"] = traced_s
    metrics["trace.overhead"] = traced_s / sum(r.corrected for r in reference)
    if not smoke:
        RECORDS.mkdir(exist_ok=True)
        recorder.write(RECORDS / f"{workload}-{seed}.spans.json.gz")
    return metrics, reference + results, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    try:
        report, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"perfbench: cannot import lct3 from {SRC}: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

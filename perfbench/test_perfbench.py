"""Tests for the benchmark itself:  python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import record_golden  # noqa: E402
import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, build_corpus, build_round  # noqa: E402

sys.path.insert(0, str(bench.SRC))
SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
LISTED = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def lct3():
    return bench.import_lct3()


def test_listed_workloads_are_the_recorded_ones():
    assert LISTED == list(record_golden.RECORDED)
    assert set(LISTED) < set(WORKLOADS)


def test_same_seed_same_documents(lct3):
    golden = json.loads(bench.GOLDEN.read_text())["inputs"]
    fresh = bench.import_lct3()  # a second import must not change the inputs
    for name in LISTED:
        rounds = WORKLOADS[name].max_rounds
        corpus = build_corpus(lct3, name, DEFAULT_SEED, rounds)
        assert corpus == build_corpus(fresh, name, DEFAULT_SEED, rounds)
        assert record_golden.corpus_digest(corpus) == golden[name]
        other = build_round(lct3, name, DEFAULT_SEED + 1, 0)
        assert [op.doc for op in other] != [op.doc for op in corpus[0]]


def test_no_arrangement_repeats_within_a_run(lct3):
    for name in LISTED:
        corpus = build_corpus(lct3, name, 5, WORKLOADS[name].max_rounds)
        docs = [op.doc for ops in corpus for op in ops]
        assert len(docs) == len(set(docs)), name


@pytest.mark.parametrize("name", LISTED)
def test_smoke_untraced(name):
    report, lines = bench.run(name, DEFAULT_SEED, 0, trace=False, smoke=True)
    assert report["correct"] and report["failed"] == 0, lines
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in report["metrics"].items()} == expected
    assert json.loads(json.dumps(report)) == report


@pytest.mark.parametrize("name", LISTED)
def test_smoke_traced(name):
    # correct covers: traced stdout byte-identical to the untraced run, and
    # the self times of each op's span tree summing to its wall time
    report, lines = bench.run(name, DEFAULT_SEED, 0, trace=True, smoke=True)
    assert report["correct"] and report["failed"] == 0, lines
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in report["metrics"].items()} == expected
    assert report["metrics"]["cli.main.calls"]["value"] == report["attempted"] // 2


def test_over_budget_op_is_stopped_and_counted(lct3):
    op = build_round(lct3, "classify-finite", DEFAULT_SEED, 0, smoke=True)[0]
    result = bench.run_op(lct3.cli.main, op, budget=0.05)
    assert result.failure == "over-budget"
    assert result.latency == result.corrected == 0.05


def test_wrong_output_fails_its_check(lct3):
    op = build_round(lct3, "classify-general", DEFAULT_SEED, 0, smoke=True)[0]
    wrong = replace(op, expect=dict(op.expect, d=op.expect["d"] + 1))
    assert bench.run_op(lct3.cli.main, op).failure is None
    assert bench.run_op(lct3.cli.main, wrong).failure == "check"


def test_recursive_spans_count_inclusive_time_once():
    rec = spans.Recorder()

    def f(k):
        return k if k == 0 else rec.span("f", f, k - 1)

    rec.op = "op"
    rec.span(spans.ROOT, rec.span, "f", f, 3)
    outer = rec.spans[1]
    metrics = rec.layer_metrics()
    assert metrics["f.calls"] == 4
    assert metrics["f.s"] == outer[2] - outer[1]
    assert rec.op_balance() < 1e-9


def test_five_points_with_three_on_a_line_expect_unsupported(lct3):
    # rank-general, as general_points checks, yet on a line pair
    points = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 2, 3)]
    assert lct3.points.is_rank_general(lct3.PointSet.of(points))
    expect = workloads._expected_general(lct3, points)
    for argv in (("mi", "-", "--lambda", "4"), ("verify", "-")):
        op = workloads.Op("collinear", argv, workloads._doc(points), expect)
        assert bench.run_op(lct3.cli.main, op).failure is None

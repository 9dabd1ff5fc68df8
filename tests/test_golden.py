"""Round 0 of two benchmark workloads at their default seed, replayed
in-process against perfbench/golden.json: exit code and stdout SHA-256 of
each op.  The perfbench files are read, never written."""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import lct3
import lct3.cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from workloads import DEFAULT_SEED, build_round  # noqa: E402


def replay_round_0(monkeypatch, workload):
    """Run round 0 of the workload through the CLI and check every op
    against its golden exit code and digest; returns the ops."""
    golden = json.loads((PERFBENCH / "golden.json").read_text())["outputs"][workload]
    ops = build_round(lct3, workload, DEFAULT_SEED, 0)
    assert ops and all(op.id in golden for op in ops)
    for op in ops:
        monkeypatch.setattr(sys, "stdin", io.StringIO(op.doc))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = lct3.cli.main(list(op.argv))
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        assert [code, digest] == golden[op.id], op.id
    return ops


def test_verify_special_round_0_matches_golden(monkeypatch):
    replay_round_0(monkeypatch, "verify-special")


def test_classify_general_round_0_matches_golden(monkeypatch):
    # the round's Case B curves, a cubic and a quartic, go through the
    # smoothness test
    ops = replay_round_0(monkeypatch, "classify-general")
    case_b = {op.id.split(".", 2)[2] for op in ops if op.expect.get("variant") == "CaseB"}
    assert {"classify-n9-0", "classify-n14-0"} <= case_b

"""Round 0 of the benchmark's verify-special workload at its default seed,
replayed in-process against perfbench/golden.json: exit code and stdout
SHA-256 of each op.  The perfbench files are read, never written."""

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


def test_verify_special_round_0_matches_golden(monkeypatch):
    golden = json.loads((PERFBENCH / "golden.json").read_text())["outputs"]["verify-special"]
    ops = build_round(lct3, "verify-special", DEFAULT_SEED, 0)
    assert ops and all(op.id in golden for op in ops)
    for op in ops:
        monkeypatch.setattr(sys, "stdin", io.StringIO(op.doc))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = lct3.cli.main(list(op.argv))
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        assert [code, digest] == golden[op.id], op.id

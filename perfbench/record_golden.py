"""Record golden.json: for the default seed, a digest of each workload's input
documents and the exit code and stdout SHA-256 of every op of every round
set-up builds.  Ops must pass their geometric checks to be recorded.

    python3 perfbench/record_golden.py

Run it only when a change is meant to alter the CLI's output bytes, and say
so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import sys

from run import GOLDEN, SRC, import_lct3, run_round
from workloads import DEFAULT_SEED, WORKLOADS, build_corpus

# Workloads whose ops all finish within the budget today.
RECORDED = ("classify-general", "classify-finite", "skoda", "verify-special")


def corpus_digest(corpus) -> str:
    """SHA-256 over every op's id, argv and input document, in order."""
    h = hashlib.sha256()
    for ops in corpus:
        for op in ops:
            h.update(json.dumps([op.id, op.argv, op.doc]).encode())
    return h.hexdigest()


def main() -> int:
    sys.path.insert(0, str(SRC))
    lct3 = import_lct3()
    golden = {"inputs": {}, "outputs": {}}
    for name in RECORDED:
        corpus = build_corpus(lct3, name, DEFAULT_SEED, WORKLOADS[name].max_rounds)
        golden["inputs"][name] = corpus_digest(corpus)
        outputs = golden["outputs"][name] = {}
        for ops in corpus:
            _, results = run_round(lct3.cli.main, ops)
            for r in results:
                if r.failure:
                    print(f"{name} {r.id}: {r.failure} {r.detail}", file=sys.stderr)
                    return 1
                outputs[r.id] = [r.code, r.digest]
        print(f"{name}: {len(outputs)} ops", flush=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

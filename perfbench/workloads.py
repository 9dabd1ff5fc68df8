"""Seeded inputs, op lists and output checks for the lct3 benchmark.

Every arrangement is derived from (workload, seed, round, op index) through
SHA-256, so the same seed gives the same point documents on any machine and
Python version.  The CLI only ever sees explicit {"points": [...]} documents.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations

DEFAULT_SEED = 1


@dataclass(frozen=True)
class Spec:
    """One op shape of a round: a CLI command on one kind of arrangement."""

    label: str
    argv: tuple  # CLI arguments after the file argument
    kind: str  # "general" or "special"
    size: object  # n for general sets, the configuration name for special ones


@dataclass(frozen=True)
class Workload:
    specs: tuple  # of Spec: one round
    smoke: tuple  # labels of the specs run at the smallest size
    max_rounds: int  # rounds built in set-up; a run uses as many as fit


def _label(command, extra):
    return "-".join([command] + [a.lstrip("-") for a in extra])


def _general(command, ns, copies=1, extra=()):
    return tuple(
        Spec(f"{_label(command, extra)}-n{n}-{k}", (command, *extra), "general", n)
        for n in ns
        for k in range(copies)
    )


def _special(command, names, extra=()):
    return tuple(
        Spec(f"{_label(command, extra)}-{name}", (command, *extra), "special", name)
        for name in names
    )


SPECIAL_NAMES = (
    "coordinate-axes",
    "three-collinear",
    "six-on-conic",
    "four-three-collinear",
    "eleven-on-cubic",
)

# Why each workload exists is recorded in BENCHMARK.json: each op mix gives a
# different layer most of the work.  Every round of a run is the same op mix
# on fresh arrangements, so no arrangement repeats within a run.  Rounds are
# short (2-4 s), so that a run times each op shape on several arrangements
# and the end-to-end figures can take each op's median latency (run.py).
WORKLOADS = {
    "classify-general": Workload(
        specs=_general("classify", (6, 7, 9, 10, 11, 12, 14, 15)),
        smoke=("classify-n6-0",),
        max_rounds=12,
    ),
    "classify-finite": Workload(
        specs=_general("classify", (8,), copies=3),
        smoke=("classify-n8-0",),
        max_rounds=16,
    ),
    "skoda": Workload(
        # Larger n is left out: mi at lambda 4 costs 1.1 s or twice that at
        # n = 9, and 4-15 s at n = 10, depending on the arrangement.
        specs=_general("mi", (5, 6, 7), extra=("--lambda", "4"))
        + _general("mi", (5,), extra=("--lambda", "5"))
        + _general("mi", (5,), extra=("--lambda", "6"))
        + _general("jumps", (5,), extra=("--lambda-max", "5")),
        smoke=("mi-lambda-4-n5-0",),
        max_rounds=12,
    ),
    "verify-special": Workload(
        # The coordinate axes have six orders, so their two ops are in the
        # first three rounds only (see build_round).
        specs=_special("verify", SPECIAL_NAMES)
        + _special("jumps", SPECIAL_NAMES, extra=("--lambda-max", "3"))
        + _general("verify", (5, 6, 7)),
        smoke=("verify-coordinate-axes", "jumps-lambda-max-3-four-three-collinear"),
        max_rounds=12,
    ),
    # Not listed in BENCHMARK.json: the slow rows of the ROADMAP baseline.
    # classify at n = 13 (Case C) and mi at lambda 6, n = 10 exceed the
    # per-op budget today, and listed workloads must not fail.  mi at
    # lambda 4, n = 10 (4-15 s) and jumps to 5 at n = 6 (5-10 s) vary so much
    # with the arrangement that one of them would set a listed workload's
    # spread, and the first comes too close to the budget.
    "roadmap-slow": Workload(
        specs=_general("classify", (13,))
        + _general("mi", (10,), extra=("--lambda", "4"))
        + _general("mi", (10,), extra=("--lambda", "6"))
        + _general("jumps", (6,), extra=("--lambda-max", "5")),
        smoke=(),
        max_rounds=1,
    ),
}


# ---------------------------------------------------------------------------
# special configurations and what the geometry predicts for them

SPECIAL_POINTS = {
    "coordinate-axes": [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
    "three-collinear": [(1, 0, 0), (0, 1, 0), (1, 1, 0)],
    # [1 : t : t^2] on the smooth conic y^2 = x*z
    "six-on-conic": [(1, t, t * t) for t in (0, 1, -1, 2, -2, 3)],
    "four-three-collinear": [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)],
    # on the smooth cubic y^2*z = x^3 - x*z^2 + z^3
    "eleven-on-cubic": [
        (0, 1, 0), (0, 1, 1), (0, -1, 1), (1, 1, 1), (1, -1, 1), (-1, 1, 1),
        (-1, -1, 1), (3, 5, 1), (3, -5, 1), (Fraction(1, 4), Fraction(7, 8), 1),
        (5, 11, 1),
    ],
}

# Invariants of the untransformed sets, which a projective change of
# coordinates must preserve: variant, ggds, lct and the jumps up to 3 (or the
# reason a set is unsupported), plus which oracle checks verify runs.
SPECIAL_EXPECTED = {
    "coordinate-axes": dict(
        variant="CaseA", ggds=[2], lct="3/2", jumps=["3/2", "2", "5/2", "3"],
        checks=["monomial-oracle", "valuation-oracle", "monotonicity", "power-containment"],
    ),
    "three-collinear": dict(
        variant="CaseB", ggds=[1, 3], lct="5/3", jumps=["5/3", "2", "8/3", "3"],
        checks=["valuation-oracle", "monotonicity", "power-containment"],
    ),
    "six-on-conic": dict(
        variant="CaseB", ggds=[2, 3], lct="4/3",
        jumps=["4/3", "5/3", "2", "7/3", "8/3", "3"],
        checks=["valuation-oracle", "monotonicity", "power-containment"],
    ),
    "four-three-collinear": dict(
        reason="intermediate envelope has components of different dimensions"
    ),
    "eleven-on-cubic": dict(reason="3 geometric generating degrees"),
}


# ---------------------------------------------------------------------------
# seeded inputs


def derive_seed(*parts) -> int:
    """A 64-bit seed from the parts, stable across processes and versions."""
    blob = ":".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


def _det3(m) -> int:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def random_transform(seed: int):
    """An invertible integer 3x3 matrix with entries in [-3, 3]."""
    rng = random.Random(seed)
    while True:
        m = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        if _det3(m):
            return m


def _apply(m, p):
    return [sum(m[i][j] * Fraction(p[j]) for j in range(3)) for i in range(3)]


def _axes_orders(workload: str, seed: int):
    """The six orders of the coordinate points, shuffled by the seed: the
    axes are only permuted, so their ideal stays monomial and the Newton
    oracle runs, and no order repeats within a run."""
    orders = list(permutations(SPECIAL_POINTS["coordinate-axes"]))
    random.Random(derive_seed(workload, seed, "axes")).shuffle(orders)
    return orders


def _doc(points) -> str:
    return json.dumps({"points": [[str(Fraction(c)) for c in p] for p in points]})


@dataclass(frozen=True)
class Op:
    id: str
    argv: tuple  # full CLI argv, reading the document from stdin
    doc: str  # the {"points": [...]} document fed on stdin
    expect: dict


def _has_collinear_triple(points) -> bool:
    return any(_det3(t) == 0 for t in combinations(points, 3))


def _expected_general(lct3, points) -> dict:
    """Variant, degrees and closed-form lct of a general point set."""
    n = len(points)
    d, r = lct3.points.expected_interpolation_data(n)
    lct = min(Fraction(3, d), Fraction(2))
    if r == 1:
        if d == 2 and _has_collinear_triple(points):
            # general_points checks rank generality only.  The one conic
            # through five points with three on a line is a line pair.
            return dict(reason="intermediate envelope is a singular curve")
        return dict(variant="CaseB", d=d, e=d + 1, lct=str(min(lct, Fraction(4, d + 1))))
    if r == 2 and d > 2:
        return dict(
            variant="CaseC", d=d, e=d + 1, lct=str(lct),
            zd_degree=d * d, w_degree=(d - 1) * (d - 2) // 2,
        )
    return dict(variant="CaseA", d=d, lct=str(lct))


def build_round(lct3, workload: str, seed: int, rnd: int, smoke: bool = False):
    """The ops of one round, in order; lct3 is the imported package."""
    w = WORKLOADS[workload]
    axes = _axes_orders(workload, seed)
    ops = []
    for index, spec in enumerate(w.specs):
        if smoke and spec.label not in w.smoke:
            continue
        s = derive_seed(workload, seed, rnd, index)
        if spec.kind == "general":
            points = [p.coords for p in lct3.general_points(spec.size, s)]
            expect = _expected_general(lct3, points)
        elif spec.size == "coordinate-axes":
            order = 2 * rnd + (spec.argv[0] == "jumps")
            if order >= len(axes):  # every order has been used
                continue
            points = axes[order]
            expect = dict(SPECIAL_EXPECTED[spec.size])
        else:
            m = random_transform(s)
            points = [_apply(m, p) for p in SPECIAL_POINTS[spec.size]]
            expect = dict(SPECIAL_EXPECTED[spec.size])
        argv = (spec.argv[0], "-") + spec.argv[1:]
        ops.append(Op(f"r{rnd}.{index:02d}.{spec.label}", argv, _doc(points), expect))
    return ops


def build_corpus(lct3, workload: str, seed: int, rounds: int, smoke: bool = False):
    return [build_round(lct3, workload, seed, r, smoke) for r in range(rounds)]


# ---------------------------------------------------------------------------
# output checks


def _check_classification(doc: dict, expect: dict):
    c = doc.get("classification", {})
    for key in ("variant", "d", "e", "zd_degree", "w_degree", "ggds"):
        if key in expect and c.get(key) != expect[key]:
            return f"classification.{key}: expected {expect[key]!r}, got {c.get(key)!r}"
    return None


def expected_exit(op: Op) -> int:
    return 3 if "reason" in op.expect else 0


def check_output(op: Op, out: str, err: str):
    """None when the output of an op that exited as expected is what the
    geometry predicts, else what differs."""
    expect = op.expect
    command = op.argv[0]
    if "reason" in expect:  # an unsupported set
        if command != "verify":
            return None if expect["reason"] in err else f"stderr lacks {expect['reason']!r}"
        checks = json.loads(out)["checks"]
        wanted = [
            {"name": "classification", "passed": False, "details": "unsupported: " + expect["reason"]}
        ]
        return None if checks == wanted else f"checks {checks!r}"
    doc = json.loads(out)
    if command == "verify":
        names = [c["name"] for c in doc["checks"]]
        if "checks" in expect and names != expect["checks"]:
            return f"checks {names!r}, expected {expect['checks']!r}"
        return None if doc["ok"] is True else "verify reported a failed check"
    problem = _check_classification(doc, expect)
    if problem:
        return problem
    if command == "mi":
        lam = op.argv[op.argv.index("--lambda") + 1]
        if doc["lambda"] != lam or doc["branch"] != "skoda-recursion" or not doc["generators"]:
            return f"mi document: lambda {doc['lambda']}, branch {doc['branch']}"
    if command == "jumps":
        lams = [j["lambda"] for j in doc["jumps"]]
        if doc["lct"] != expect["lct"] or not lams or lams[0] != expect["lct"]:
            return f"lct {doc['lct']!r}, first jump {lams[:1]!r}, expected {expect['lct']!r}"
        if "jumps" in expect and lams != expect["jumps"]:
            return f"jumps {lams!r}, expected {expect['jumps']!r}"
    return None

"""Command-line interface: classify arrangements, print multiplier ideals,
jumping numbers, log canonical thresholds, and oracle verification reports
as deterministic JSON documents (exact rationals serialized as strings)."""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from .envelopes import classify
from .multiplier import (
    LAMBDA_CAP,
    UnsupportedArrangement,
    jumping_numbers,
    lct,
    multiplier_ideal,
)
from .points import PointSet, SamplingError, general_points
from .polynomials import poly_str
from .verify import cross_check

EXIT_OK = 0
EXIT_STDOUT_CLOSED = 1
EXIT_INPUT = 2
EXIT_UNSUPPORTED = 3
EXIT_VERIFY = 4

# Desk scale: the most points an arrangement may have, explicit or generated.
MAX_GENERATED_POINTS = 15


class InputError(Exception):
    pass


# ---------------------------------------------------------------------------
# serialization helpers


def exact_fraction(text: str) -> Fraction:
    """Fraction(text), refusing first, unbuilt, a number whose digits and
    exponent pass the digit limit, which Fraction's 10**exponent ignores."""
    limit = sys.get_int_max_str_digits()
    mantissa, _, exponent = text.strip().lower().partition("e")
    exponent = exponent.lstrip("+-").replace("_", "").lstrip("0")
    if limit and exponent.isdigit():
        digits = sum(c.isdigit() for c in mantissa)
        if len(exponent) > len(str(limit)) or int(exponent) + digits > limit:
            raise ValueError(f"exceeds the limit ({limit} digits)")
    return Fraction(text)


def parse_rational(text: str, what: str) -> Fraction:
    try:
        return exact_fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"{what}: not an exact rational: {text!r} ({exc})")


@contextmanager
def any_length():
    """Lift the interpreter's limit on integer digits while output is
    rendered, and restore it after: the limit guards the parsing of input,
    but an exact result may hold integers of any length."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def ideal_generators(I) -> list:
    with any_length():
        return [poly_str(g) for g in I.groebner()] or ["0"]


def classification_doc(c) -> dict:
    doc = {
        "variant": "Unsupported" if c.kind == "unsupported" else f"Case{c.kind}",
        "ggds": list(c.report.ggds),
        "generator_degrees": list(c.report.generator_degrees),
        "envelopes": [
            {"degree": e.degree, "descriptor": e.descriptor}
            for e in c.report.entries
        ],
    }
    if c.kind == "unsupported":
        doc["reason"] = c.reason
    else:
        doc["d"] = c.d
        if c.e is not None:
            doc["e"] = c.e
    if c.kind == "B":
        with any_length():
            doc["curve_form"] = poly_str(c.curve_form)
    if c.kind == "C":
        doc["w_generators"] = ideal_generators(c.w_ideal)
        doc["zd_generators"] = ideal_generators(c.zd_ideal)
        doc["zd_degree"] = c.zd_degree
        doc["w_degree"] = c.w_degree
    return doc


# ---------------------------------------------------------------------------
# input handling


def _point_strings(Z: PointSet) -> list:
    with any_length():  # normalizing a point can lengthen its coordinates
        return [[str(c) for c in p.coords] for p in Z]


def input_digest(points: list) -> str:
    blob = json.dumps(points, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def load_arrangement(path: str, seed_override=None):
    """Parse an arrangement file; returns (PointSet, input echo dict)."""
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        )
    except ValueError as exc:  # an integer past the digit limit
        raise InputError(f"invalid JSON: {exc}")
    if not isinstance(doc, dict):
        raise InputError("the arrangement file must hold a JSON object")
    echo: dict = {}
    if "points" in doc:
        raw = doc["points"]
        if not isinstance(raw, list) or not raw:
            raise InputError("field 'points': expected a nonempty list")
        if len(raw) > MAX_GENERATED_POINTS:
            raise InputError(f"field 'points': at most {MAX_GENERATED_POINTS} points")
        triples = []
        for i, entry in enumerate(raw):
            if not isinstance(entry, list) or len(entry) != 3:
                raise InputError(f"points[{i}]: expected a coordinate triple")
            triple = []
            for j, coord in enumerate(entry):
                if isinstance(coord, float):
                    raise InputError(f"points[{i}][{j}]: floats are not exact")
                if not isinstance(coord, (str, int)):
                    raise InputError(f"points[{i}][{j}]: expected a rational string")
                try:
                    triple.append(exact_fraction(str(coord)))
                except (ValueError, ZeroDivisionError) as exc:
                    raise InputError(f"points[{i}][{j}]: {exc}")
            triples.append(triple)
        try:
            with any_length():  # a repeated point is named whole
                Z = PointSet.of(triples)
        except ValueError as exc:
            raise InputError(str(exc))
    elif "generator" in doc:
        gen = doc["generator"]
        if not isinstance(gen, dict) or "general" not in gen:
            raise InputError("field 'generator': expected {'general': n, 'seed': s}")
        n = gen["general"]
        if not isinstance(n, int) or not 1 <= n <= MAX_GENERATED_POINTS:
            raise InputError(
                f"generator.general: expected an integer in 1..{MAX_GENERATED_POINTS}"
            )
        seed = seed_override if seed_override is not None else gen.get("seed")
        if not isinstance(seed, int):
            raise InputError("generator.seed: an integer seed is required")
        try:
            Z = general_points(n, seed)
        except SamplingError as exc:
            raise InputError(f"generator: {exc}; try another seed")
        echo["generator"] = {"general": n, "seed": seed}
    else:
        raise InputError("the file must contain either 'points' or 'generator'")
    points = _point_strings(Z)
    echo["points"] = points
    echo["digest"] = input_digest(points)
    return Z, echo


# ---------------------------------------------------------------------------
# commands


def cmd_classify(Z, args) -> dict:
    return {"classification": classification_doc(classify(Z))}


def cmd_mi(Z, args) -> dict:
    lam = parse_rational(args.lam, "--lambda")
    if not 0 <= lam <= LAMBDA_CAP:
        raise InputError(f"--lambda must lie in [0, {LAMBDA_CAP}]")
    c = classify(Z)
    result = multiplier_ideal(c, Z, lam)
    return {
        "classification": classification_doc(c),
        "lambda": str(lam),
        "branch": result.branch,
        "generators": ideal_generators(result.ideal),
    }


def cmd_lct(Z, args) -> dict:
    c = classify(Z)
    return {"classification": classification_doc(c), "lct": str(lct(c))}


def cmd_jumps(Z, args) -> dict:
    lam_max = parse_rational(args.lambda_max, "--lambda-max")
    if not 0 < lam_max <= LAMBDA_CAP:
        raise InputError(f"--lambda-max must lie in (0, {LAMBDA_CAP}]")
    c = classify(Z)
    table = jumping_numbers(c, Z, lam_max)
    return {
        "classification": classification_doc(c),
        "lambda_max": str(lam_max),
        "lct": str(table.lct) if table.lct is not None else None,
        "jumps": [
            {"lambda": str(lam), "generators": ideal_generators(I)}
            for lam, I in table.jumps
        ],
    }


def cmd_verify(Z, args) -> dict:
    grid = [
        parse_rational(part, "--grid") for part in args.grid.split(",") if part
    ]
    if not grid:
        raise InputError("--grid must list at least one rational")
    if not all(0 <= lam <= LAMBDA_CAP for lam in grid):
        raise InputError(f"--grid values must lie in [0, {LAMBDA_CAP}]")
    report = cross_check(Z, grid)
    return {
        "grid": [str(l) for l in sorted(grid)],
        "checks": [
            {"name": e.name, "passed": e.passed, "details": e.details}
            for e in report.entries
        ],
        "ok": report.ok,
    }


COMMANDS = {
    "classify": cmd_classify,
    "mi": cmd_mi,
    "lct": cmd_lct,
    "jumps": cmd_jumps,
    "verify": cmd_verify,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by later ones:
    parse_args reads it and returns a fresh namespace, so no option of one
    call reaches the next."""
    parser = argparse.ArgumentParser(
        prog="lct3",
        description=(
            "Exact multiplier ideals, jumping numbers, and log canonical "
            "thresholds of line arrangements through the origin of affine "
            "3-space, given as rational points of the projective plane."
        ),
    )
    parser.add_argument("--pretty", action="store_true", help="indent the output")
    parser.add_argument(
        "--seed", type=int, default=None, help="override the generator seed"
    )
    parser.add_argument(
        "--timings",
        action="store_true",
        help="include wall-clock timings (output no longer byte-reproducible)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="arrangement file (JSON), or - for stdin")
        return p

    add("classify", "classify the arrangement and print its envelope data")
    mi = add("mi", "print the multiplier ideal at one exponent")
    mi.add_argument("--lambda", dest="lam", required=True, metavar="P/Q")
    add("lct", "print the log canonical threshold")
    jumps = add("jumps", "scan for jumping numbers up to a cut-off")
    jumps.add_argument("--lambda-max", dest="lambda_max", default="3", metavar="P/Q")
    verify = add("verify", "run the oracle cross-checks over an exponent grid")
    verify.add_argument("--grid", default="1/2,1,3/2,2,5/2", metavar="L1,L2,...")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        Z, echo = load_arrangement(args.file, seed_override=args.seed)
        result = COMMANDS[args.command](Z, args)
    except InputError as exc:
        print(f"lct3: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except UnsupportedArrangement as exc:
        print(f"lct3: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    doc = {"command": args.command, "input": echo}
    doc.update(result)
    if args.timings:
        doc["timings"] = {"total_seconds": round(time.perf_counter() - started, 6)}
    indent = 2 if args.pretty else None
    try:
        print(json.dumps(doc, sort_keys=True, indent=indent))
        sys.stdout.flush()  # a closed pipe fails here, not at exit
    except BrokenPipeError:  # the Python docs' note on SIGPIPE
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return EXIT_STDOUT_CLOSED
    if args.command == "verify" and not result["ok"]:
        failed = [c for c in result["checks"] if not c["passed"]]
        if len(failed) == 1 and failed[0]["name"] == "classification":
            return EXIT_UNSUPPORTED
        return EXIT_VERIFY
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

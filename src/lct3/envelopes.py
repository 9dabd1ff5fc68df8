"""Degree envelopes of a planar point set, geometric generating degrees,
minimal-generator degrees, and the case classification driving the
multiplier-ideal formulas."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .ideals import (
    Ideal,
    ideal_equal,
    ideal_quotient,
    maximal_ideal,
    saturate,
    zero_ideal,
)
from .linalg import RatMatrix
from .points import CACHE_SIZE, PointSet, graded_piece, hilbert_pieces, ideal_of_points
from .polynomials import Poly, monomials_of_degree
from .zerodim import projective_degree, zero_dim_report

ALL_OF_PLANE = "all-of-plane"
CURVE = "curve"
FINITE_SCHEME = "finite-scheme"
EQUALS_Z = "equals-Z"
MIXED = "mixed-dimension"


@dataclass(frozen=True)
class EnvelopeEntry:
    degree: int
    ideal: Ideal  # saturated ideal of the d-envelope
    descriptor: str


@dataclass(frozen=True)
class EnvelopeReport:
    entries: tuple  # of EnvelopeEntry, consecutive degrees, ending at Z itself
    ggds: tuple  # geometric generating degrees, sorted
    generator_degrees: tuple  # degrees of minimal generators, sorted


@dataclass(frozen=True)
class Classification:
    """One of the supported cases (A: one generating degree; B: two, with a
    smooth intermediate curve; C: two, with a reduced finite intermediate
    scheme) or Unsupported with a reason."""

    kind: str  # "A" | "B" | "C" | "unsupported"
    d: int = None
    e: int = None
    curve_form: Poly = None  # case B: the form cutting the intermediate curve
    w_ideal: Ideal = None  # case C: saturated ideal of the residual points
    zd_ideal: Ideal = None  # case C: saturated ideal of the intermediate envelope
    zd_degree: int = None  # case C: length of the intermediate envelope
    w_degree: int = None  # case C: number of residual points
    reason: str = None  # unsupported only
    report: EnvelopeReport = None

    def is_supported(self) -> bool:
        return self.kind in ("A", "B", "C")


def envelope(Z: PointSet, d: int) -> Ideal:
    """Saturated ideal of the d-envelope: the subscheme cut out by the
    degree-d forms through Z.  The zero ideal when no such forms exist."""
    return saturate(Ideal(graded_piece(Z, d).basis, nvars=3), maximal_ideal())


def _descriptor(env: Ideal, IZ: Ideal) -> str:
    """The envelope's descriptor, from its dimension and degree alone;
    reducedness is decided only where classify reads it."""
    if env.is_zero():
        return ALL_OF_PLANE
    if ideal_equal(env, IZ):
        return EQUALS_Z
    if len(env.groebner()) == 1:
        return CURVE
    return FINITE_SCHEME if projective_degree(env) else MIXED


def envelope_report(Z: PointSet) -> EnvelopeReport:
    """Saturate the nonzero graded pieces of I_Z in turn until the envelope
    is Z itself (at the latest the last piece), noting each strict shrink."""
    IZ = ideal_of_points(Z)
    entries = []
    ggds = []
    previous = zero_ideal(3)
    for piece in hilbert_pieces(Z):
        if not piece.basis:
            continue
        env = saturate(Ideal(piece.basis, nvars=3), maximal_ideal())
        if not ideal_equal(env, previous):
            ggds.append(piece.degree)
        entries.append(EnvelopeEntry(piece.degree, env, _descriptor(env, IZ)))
        if ideal_equal(env, IZ):
            break
        previous = env
    return EnvelopeReport(tuple(entries), tuple(ggds), tuple(generator_degrees(Z)))


def geometric_generating_degrees(Z: PointSet):
    return list(envelope_report(Z).ggds)


def generator_degrees(Z: PointSet):
    """Degrees in which the saturated ideal needs minimal generators: d is
    one exactly when the degree-d forms through Z exceed the span of
    (linear forms) * (degree d-1 forms through Z), decided by exact rank."""
    out = []
    prev_basis = ()
    for piece in hilbert_pieces(Z):
        if len(piece.basis) > _shifted_rank(prev_basis, piece.degree):
            out.append(piece.degree)
        prev_basis = piece.basis
    return out


def _shifted_rank(basis, d: int) -> int:
    """Rank of {x*f, y*f, z*f : f in basis} inside the degree-d monomials."""
    if not basis:
        return 0
    monos = monomials_of_degree(d)
    index = {e: i for i, e in enumerate(monos)}
    rows = []
    for f in basis:
        for v in range(3):
            row = [0] * len(monos)
            for e, c in f.terms.items():
                shifted = list(e)
                shifted[v] += 1
                row[index[tuple(shifted)]] = c
            rows.append(row)
    return RatMatrix(rows).rank()


def is_smooth_plane_curve(F: Poly) -> bool:
    """Is the plane curve {F = 0} smooth?  Checked by saturating the ideal
    of F and its partials: smooth iff nothing survives but the irrelevant
    locus."""
    if F.is_zero() or not F.is_homogeneous() or F.total_degree() < 1:
        raise ValueError("expected a nonzero homogeneous form of positive degree")
    J = Ideal([F, F.diff(0), F.diff(1), F.diff(2)], nvars=3)
    return saturate(J, maximal_ideal()).is_unit()


@lru_cache(maxsize=CACHE_SIZE)
def classify(Z: PointSet) -> Classification:
    """Sort an arrangement into case A, B, or C; everything else is reported
    as unsupported with a human-readable reason."""
    report = envelope_report(Z)
    ggds = report.ggds
    if len(ggds) == 1:
        return Classification(kind="A", d=ggds[0], report=report)
    if len(ggds) > 2:
        return Classification(
            kind="unsupported",
            reason=f"{len(ggds)} geometric generating degrees",
            report=report,
        )
    d, e = ggds
    intermediate = next(en for en in report.entries if en.degree == d)
    env = intermediate.ideal
    if intermediate.descriptor == CURVE:
        form = env.groebner()[0]
        if form.total_degree() != d:
            raise RuntimeError("principal envelope of unexpected degree; engine bug")
        if is_smooth_plane_curve(form):
            return Classification(kind="B", d=d, e=e, curve_form=form, report=report)
        return Classification(
            kind="unsupported",
            reason="intermediate envelope is a singular curve",
            report=report,
        )
    if intermediate.descriptor == FINITE_SCHEME:
        zero_dim = zero_dim_report(env)
        if not zero_dim.is_reduced:
            return Classification(
                kind="unsupported",
                reason="intermediate envelope is a non-reduced finite scheme",
                report=report,
            )
        IZ = ideal_of_points(Z)
        # env is saturated, so env : IZ is too
        W = ideal_quotient(env, IZ)
        # Z_d is reduced and contains Z, so W is the rest of its points
        zd_degree = zero_dim.degree
        return Classification(
            kind="C",
            d=d,
            e=e,
            w_ideal=W,
            zd_ideal=env,
            zd_degree=zd_degree,
            w_degree=zd_degree - len(Z),
            report=report,
        )
    return Classification(
        kind="unsupported",
        reason="intermediate envelope has components of different dimensions",
        report=report,
    )

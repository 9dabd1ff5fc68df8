"""Degree envelopes of a planar point set, geometric generating degrees,
minimal-generator degrees, and the case classification driving the
multiplier-ideal formulas.

The d-envelope Z_d is cut out by the degree-d forms through Z.  Its
saturated ideals increase with d inside I_Z, and two nested saturated
ideals with one Hilbert polynomial are equal (Eisenbud, Commutative
Algebra, 15.10), so the Hilbert polynomial of the unsaturated piece ideal
((I_Z)_d) tells whether Z_d shrank, whether it is Z, and its dimension and
degree.  Only a finite intermediate envelope is saturated."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import add

from .ideals import Ideal, _int_from_poly, ideal_quotient, maximal_ideal, saturate
from .linalg import rank
from .points import CACHE_SIZE, PointSet, graded_piece, hilbert_pieces, ideal_of_points
from .polynomials import Poly, monomials_of_degree
from .zerodim import hilbert_polynomial, zero_dim_report

CURVE = "curve"
FINITE_SCHEME = "finite-scheme"
EQUALS_Z = "equals-Z"
MIXED = "mixed-dimension"


@dataclass(frozen=True)
class EnvelopeEntry:
    degree: int
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
    return saturate(graded_piece(Z, d).ideal(), maximal_ideal())


def _descriptor(hp, n: int) -> str:
    """The envelope's descriptor from its Hilbert polynomial a*t + b: a
    plane curve of degree a has b = a(3 - a)/2, and a curve with extra
    points has a larger b."""
    a, b = hp
    if hp == (0, n):
        return EQUALS_Z
    if a == 0:
        return FINITE_SCHEME
    return CURVE if 2 * b == a * (3 - a) else MIXED


def envelope_report(Z: PointSet) -> EnvelopeReport:
    """Take the Hilbert polynomial of each nonzero graded piece of I_Z in
    turn until the envelope is Z itself (at the latest the last piece),
    noting each strict shrink."""
    return _envelope_chain(Z)[0]


def _envelope_chain(Z: PointSet):
    """The envelope report, and the ideal of the first nonzero piece, whose
    Groebner basis its Hilbert polynomial has computed."""
    entries, ggds, previous, first = [], [], None, None
    for piece in hilbert_pieces(Z):
        if not piece.forms:
            continue
        ideal = piece.ideal()
        if first is None:
            first = ideal
        hp = hilbert_polynomial(ideal)
        if hp != previous:
            ggds.append(piece.degree)
        entries.append(EnvelopeEntry(piece.degree, _descriptor(hp, len(Z))))
        if hp == (0, len(Z)):
            break
        previous = hp
    report = EnvelopeReport(tuple(entries), tuple(ggds), tuple(generator_degrees(Z)))
    return report, first


def geometric_generating_degrees(Z: PointSet):
    return list(envelope_report(Z).ggds)


def generator_degrees(Z: PointSet):
    """Degrees in which the saturated ideal needs minimal generators: d is
    one exactly when the degree-d forms through Z exceed the span of
    (linear forms) * (degree d-1 forms through Z), decided by exact rank.
    The shifts lie in the degree-d piece, so its dimension bounds their
    rank, and a modular rank that reaches it is exact."""
    out = []
    prev_forms = ()
    for piece in hilbert_pieces(Z):
        bound = len(piece.forms)
        if bound > _shifted_rank(prev_forms, piece.degree, bound):
            out.append(piece.degree)
        prev_forms = [f for _, f in piece.forms]
    return out


def _shifted_rank(forms, t: int, bound: int) -> int:
    """Rank over Q of the shifts m*f, m a monomial of degree t - deg f, of
    nonzero integer forms f inside the degree-t monomials, by linalg.rank
    given `bound`, an upper bound on it."""
    monos = monomials_of_degree(t)
    index = {m: k for k, m in enumerate(monos)}
    rows = []
    for f in forms:
        for m in monomials_of_degree(t - sum(next(iter(f)))):
            row = [0] * len(monos)
            for e, c in f.items():
                row[index[tuple(map(add, e, m))]] = c
            rows.append(row)
    return rank(rows, len(monos), bound)


def is_smooth_plane_curve(F: Poly) -> bool:
    """Is the plane curve {F = 0} of degree d smooth?  One rank decides.

    d*F = x*F_x + y*F_y + z*F_z (Euler), so F is singular exactly where its
    partials vanish together, and F is smooth iff (F_x, F_y, F_z) is
    m-primary, i.e. iff the three forms of degree d - 1 are a regular
    sequence (S is Cohen-Macaulay).  For a regular sequence S/(F_x, F_y,
    F_z) has Hilbert series (1 + s + ... + s^(d-2))^3, of top degree
    3d - 6, so the partials fill the degree T = max(3d - 5, 0).  An ideal
    that fills some degree contains a power of m, so an ideal that is not
    m-primary fills none.  Hence F is smooth iff the Macaulay rows
    mu*F_i, |mu| = T - d + 1, span the C(T + 2, 2) monomials of degree T.
    linalg.rank takes their rank modulo TRACE_PRIME, which can only lower
    it, so full rank there certifies; a rank short of full there is taken
    again over Q."""
    if F.is_zero() or not F.is_homogeneous() or F.total_degree() < 1:
        raise ValueError("expected a nonzero homogeneous form of positive degree")
    T = max(3 * F.total_degree() - 5, 0)
    G = _int_from_poly(F)
    partials = [
        {e[:i] + (e[i] - 1,) + e[i + 1 :]: c * e[i] for e, c in G.items() if e[i]}
        for i in range(3)
    ]
    partials = [p for p in partials if p]
    full = (T + 1) * (T + 2) // 2
    return _shifted_rank(partials, T, full) == full


@lru_cache(maxsize=CACHE_SIZE)
def classify(Z: PointSet) -> Classification:
    """Sort an arrangement into case A, B, or C; everything else is reported
    as unsupported with a human-readable reason."""
    report, first_piece = _envelope_chain(Z)
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
    descriptor = report.entries[0].descriptor
    if descriptor == CURVE:
        # the curve's form vanishes on Z in degree <= d, and d is the first
        # nonzero piece, so the piece is spanned by that form
        (form,) = hilbert_pieces(Z)[d].basis
        if is_smooth_plane_curve(form):
            return Classification(kind="B", d=d, e=e, curve_form=form, report=report)
        return Classification(
            kind="unsupported",
            reason="intermediate envelope is a singular curve",
            report=report,
        )
    if descriptor == FINITE_SCHEME:
        env = saturate(first_piece, maximal_ideal())
        zero_dim = zero_dim_report(env)
        if not zero_dim.is_reduced:
            return Classification(
                kind="unsupported",
                reason="intermediate envelope is a non-reduced finite scheme",
                report=report,
            )
        # env is saturated, so env : IZ is too
        W = ideal_quotient(env, ideal_of_points(Z))
        # Z_d is reduced and contains Z, so W is the rest of its points
        return Classification(
            kind="C",
            d=d,
            e=e,
            w_ideal=W,
            zd_ideal=env,
            zd_degree=zero_dim.degree,
            w_degree=zero_dim.degree - len(Z),
            report=report,
        )
    return Classification(
        kind="unsupported",
        reason="intermediate envelope has components of different dimensions",
        report=report,
    )

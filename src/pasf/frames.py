"""Frame pairs on finite-dimensional l^p spaces.

A frame pair is n functionals f_1..f_n on a space X of dimension d
together with n vectors tau_1..tau_n of X. The functionals are stored
row-wise (matrix F, n x d) and the vectors column-wise (matrix T, d x n)
so that the analysis operator theta_f and the synthesis operator
theta_tau *are* the stored matrices and no transposition ever happens.

The pair is a p-ASF (approximate Schauder frame with l^p coefficient
space) exactly when the frame operator S = T F is invertible; then every
x in X is reconstructed from its coefficients through S^-1, the optimal
frame bounds are a = 1/||S^-1|| and b = ||S||, and P = theta_f S^-1
theta_tau is a projection of the coefficient space onto the range of
theta_f. ``validate`` decides all of this at a configurable tolerance.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, NotAFrame, NotInvertible, RequiresSquare, Singular
from .spaces import (
    DEFAULT_TOL,
    INF,
    LinearMap,
    NormBound,
    PNormSpace,
    Vector,
    _absmax,
    _agrees,
    _certified,
    _exact_bound,
    _freeze,
    _inverse_bound,
    _lp,
    _product,
    _rank,
    _require_rank,
    _sealed,
    invert_with_rcond,
    operator_norm,
)


@dataclass(frozen=True, eq=False)
class FramePair:
    """A pair (functionals, vectors) over (x_space, seq_space).

    ``functionals`` is n x d with row k equal to f_k; ``vectors`` is
    d x n with column k equal to tau_k, both stored C-ordered (see
    ``spaces._freeze``), so no answer depends on the layout passed in.
    Construction checks shapes only; whether the pair is an actual p-ASF
    (frame operator invertible) is decided by :func:`validate`.

    The other fields are frozen, so what is formed from them is kept on the
    frame: S on its first read (see :func:`frame_operator`), and in the private
    ``_memo`` one record per (frame, tol), reused by every entry point after that,
    holding S^-1 and rcond from one inversion of that S and forming on first read,
    read-only, f S^-1, S^-1 tau, P = (f S^-1) tau and I - P (see ``_Canonical``).
    """

    x_space: PNormSpace
    seq_space: PNormSpace
    functionals: np.ndarray
    vectors: np.ndarray
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        d, n = self.x_space.dim, self.seq_space.dim
        functionals = _freeze(self.functionals, 2)
        vectors = _freeze(self.vectors, 2)
        if functionals.shape != (n, d):
            raise DimensionMismatch(
                f"functionals must be {n} rows of length {d}, got shape {functionals.shape}"
            )
        if vectors.shape != (d, n):
            raise DimensionMismatch(
                f"vectors must be a {d} x {n} matrix, got shape {vectors.shape}"
            )
        object.__setattr__(self, "functionals", functionals)
        object.__setattr__(self, "vectors", vectors)

    @property
    def dim(self) -> int:
        return self.x_space.dim

    @property
    def count(self) -> int:
        return self.seq_space.dim

    def same_spaces(self, other: "FramePair") -> bool:
        return self.x_space == other.x_space and self.seq_space == other.seq_space

    #: S = T F, formed on the first read and kept (see :func:`frame_operator`)
    _frame_op = cached_property(lambda self: LinearMap(self.x_space, self.x_space,
                                                       _product(self.vectors, self.functionals)))


@dataclass(frozen=True)
class FrameReport:
    """Validation output for a frame pair.

    ``lower_bound`` brackets a = ||S^-1||^-1 and ``upper_bound`` brackets
    b = ||S||, both in the operator norm of x_space. ``parseval`` means
    max|S - I| <= tol max(1, max|S|), the criterion rule scaled by S.
    ``rcond`` is the reciprocal condition estimate of S.
    """

    frame_op: LinearMap
    frame_op_inv: LinearMap
    lower_bound: NormBound
    upper_bound: NormBound
    parseval: bool
    analysis_injective: bool
    synthesis_surjective: bool
    rcond: float


def analysis_operator(frame: FramePair) -> LinearMap:
    """theta_f: x_space -> seq_space, x |-> (f_1(x), ..., f_n(x))."""
    return LinearMap(domain=frame.x_space, codomain=frame.seq_space, entries=frame.functionals)


def synthesis_operator(frame: FramePair) -> LinearMap:
    """theta_tau: seq_space -> x_space, (a_1, ..., a_n) |-> sum a_k tau_k."""
    return LinearMap(domain=frame.seq_space, codomain=frame.x_space, entries=frame.vectors)


def frame_operator(frame: FramePair) -> LinearMap:
    """S = theta_tau . theta_f, the map x |-> sum f_k(x) tau_k, formed silently by ``_product``
    on the first call and kept on the frame, so every reader of S gets this one immutable map."""
    return frame._frame_op


def _invert_frame_op(frame: FramePair, tol: float) -> tuple[LinearMap, LinearMap, float]:
    s = frame_operator(frame)  # past the double range, or not finite, S has rank 0
    try:
        s_inv, rcond = invert_with_rcond(s, tol)
    except Singular as exc:
        raise NotAFrame(
            f"frame operator is singular at tol={tol:g}: rank {exc.rank} of {frame.dim}",
            rank=exc.rank,
        ) from exc
    return s, s_inv, rcond


def _formed(form: Callable[[_Canonical], np.ndarray]) -> cached_property:
    """A product of the record, formed on its first read and kept read-only.
    Where its true value leaves the double range, as P does for a frame
    whose f and tau are large in unmatched coordinates, it does too,
    silently (see ``_product``): a one-sided inverse past it certifies
    nothing (the SVD decides), and a test on such a P fails."""

    return cached_property(lambda record: _sealed(form(record)))


class _Canonical:
    """What a frame knows at one tol: S, S^-1 and rcond, from one inversion,
    and the products built from S^-1, each formed on first read.

    P and the witnesses go through whichever of f S^-1 and S^-1 tau is
    finite, and ``_product`` forms each product of two factors, so none
    leaves the double range unless its true value, or its factor's, does."""

    def __init__(self, frame: FramePair, tol: float):
        self.s, self.s_inv, self.rcond = _invert_frame_op(frame, tol)
        # the frame's matrices, not the frame, whose memo holds this record
        self.functionals, self.vectors = frame.functionals, frame.vectors

    #: theta_f S^-1, the canonical dual's functionals and a right inverse of theta_tau
    dual_functionals = _formed(lambda self: _product(self.functionals, self.s_inv.entries))
    #: S^-1 theta_tau, the canonical dual's vectors and a left inverse of theta_f
    dual_vectors = _formed(lambda self: _product(self.s_inv.entries, self.vectors))

    @_formed
    def projection(self) -> np.ndarray:
        """P = (f S^-1) tau, or f (S^-1 tau) where f S^-1 overflows."""
        if _absmax(self.dual_functionals) < INF:
            return _product(self.dual_functionals, self.vectors)
        return _product(self.functionals, self.dual_vectors)

    #: I - P, which parameterizes every dual
    complement = _formed(lambda self: np.eye(len(self.projection)) - self.projection)

    def dual_vectors_times(self, g: np.ndarray) -> np.ndarray:
        """S^-1 tau g: (S^-1 tau) g, or S^-1 (tau g) where S^-1 tau overflows."""
        if _absmax(self.dual_vectors) < INF:
            return _product(self.dual_vectors, g)
        return _product(self.s_inv.entries, _product(self.vectors, g))

    def times_dual_functionals(self, omega: np.ndarray) -> np.ndarray:
        """omega f S^-1: omega (f S^-1), or (omega f) S^-1 where f S^-1 overflows."""
        if _absmax(self.dual_functionals) < INF:
            return _product(omega, self.dual_functionals)
        return _product(_product(omega, self.functionals), self.s_inv.entries)


def _canonical(frame: FramePair, tol: float) -> _Canonical:
    """The record of ``frame`` at ``tol``, S inverted on the first call only;
    raises :class:`NotAFrame` (not memoised) when S is singular."""
    found = frame._memo.get(tol)
    if found is None:
        found = frame._memo[tol] = _Canonical(frame, tol)
    return found


def _held(frame: FramePair, tol: float) -> _Canonical | None:
    """The record of ``frame`` at ``tol`` if it is already formed; never inverts."""
    return frame._memo.get(tol)


def _parseval(frame: FramePair, tol: float) -> bool:
    """``validate(frame, tol).parseval`` without the norm brackets: S = I,
    scaled by S (see ``_agrees``). A frame whose S passes, and whose full
    rank the identity certifies as its approximate inverse, is Parseval with
    no inversion; otherwise S^-1 is formed, so a singular S raises
    :class:`NotAFrame` with its rank, as in :func:`validate`. An S past the
    double range or not finite fails the test and is singular.
    """
    s, eye = frame_operator(frame).entries, np.eye(frame.dim)
    parseval = _agrees(_absmax(s - eye), tol, _absmax(s))
    if not (parseval and _certified(s, tol, eye)):
        _canonical(frame, tol)
    return parseval


def validate(frame: FramePair, tol: float = DEFAULT_TOL) -> FrameReport:
    """Decide the p-ASF property and compute optimal frame bounds.

    Raises :class:`NotAFrame` (carrying the rank of S) when the frame
    operator is singular at ``tol``. Injectivity of theta_f and
    surjectivity of theta_tau are the numerical-rank verdicts of
    theta_f and theta_tau themselves, not inferred from the invertibility
    of S; a full rank may be certified from the one-sided inverses
    S^-1 theta_tau and theta_f S^-1, but the verdict is always the SVD
    rule's (see :func:`~pasf.spaces.rank`).

    At p = 2 both bounds are exact and come from one SVD of S: a is its
    smallest singular value and b its largest. Other exponents bracket
    ||S^-1|| and ||S|| with :func:`~pasf.spaces.operator_norm`; at p outside
    {1, 2, inf} the bracket of ||S^-1|| is widened by the residual of the
    computed inverse, so both brackets hold for the stored S, rounding
    included.
    """
    c, full = _canonical(frame, tol), min(frame.dim, frame.count)
    if frame.x_space.p == 2.0:
        sv = np.linalg.svd(c.s.entries, compute_uv=False)
        lower, upper = _exact_bound(float(sv[-1])), _exact_bound(float(sv[0]))
    else:
        inverse = _inverse_bound(operator_norm(c.s_inv), c.s.entries, c.s_inv.entries)
        lower, upper = inverse.reciprocal(), operator_norm(c.s)
    return FrameReport(
        frame_op=c.s,
        frame_op_inv=c.s_inv,
        lower_bound=lower,
        upper_bound=upper,
        parseval=_parseval(frame, tol),
        analysis_injective=_rank(frame.functionals, tol, c.dual_vectors) == full,
        synthesis_surjective=_rank(frame.vectors, tol, c.dual_functionals) == full,
        rcond=c.rcond,
    )


def reconstruct(frame: FramePair, x: Vector, tol: float = DEFAULT_TOL) -> tuple[Vector, Vector, float, float]:
    """Reconstruct ``x`` through both canonical expansions.

    Returns (sum_k (f_k S^-1)(x) tau_k, sum_k f_k(x) S^-1 tau_k) together
    with the residual ||expansion - x|| in the x_space norm for each.
    """
    if x.space.dim != frame.dim:
        raise DimensionMismatch(f"vector of dim {x.space.dim} does not live on a dim-{frame.dim} space")
    f, t, c = frame.functionals, frame.vectors, _canonical(frame, tol)
    s, s_inv = c.s.entries, c.s_inv.entries
    with np.errstate(over="ignore", invalid="ignore"):  # past the double range a residual is inf or NaN
        y = s_inv @ x.coords
        first = t @ (f @ y)  # coefficients of the dual functionals, original vectors
        second = c.dual_vectors @ (f @ x.coords)  # original coefficients, dual vectors
        # an expansion whose coefficients or dual vectors overflow is summed through S = tau f instead
        first = first if _absmax(first) < INF else s @ y
        second = second if _absmax(second) < INF else s_inv @ (s @ x.coords)
        r1 = _lp(first - x.coords, frame.x_space.p)
        r2 = _lp(second - x.coords, frame.x_space.p)
    return Vector(space=frame.x_space, coords=first), Vector(space=frame.x_space, coords=second), r1, r2


def projection(frame: FramePair, tol: float = DEFAULT_TOL) -> LinearMap:
    """P = theta_f S^-1 theta_tau, the idempotent onto range(theta_f)."""
    p = _canonical(frame, tol).projection
    return LinearMap(domain=frame.seq_space, codomain=frame.seq_space, entries=p)


def from_factorization(u: LinearMap, v: LinearMap, tol: float = DEFAULT_TOL) -> FramePair:
    """Build the frame with f_k = h_k U (rows of U) and tau_k = V e_k (columns of V).

    U maps x_space into seq_space and V maps seq_space back; the product
    V U becomes the frame operator, and :class:`NotInvertible` is raised
    when it is singular, since the pair would not be a p-ASF.
    """
    if u.domain.dim != v.codomain.dim or u.codomain.dim != v.domain.dim:
        raise DimensionMismatch(
            f"factorization pair has incompatible shapes {u.entries.shape} and {v.entries.shape}"
        )
    _require_rank(_product(v.entries, u.entries), tol, NotInvertible, "V U")
    return FramePair(
        x_space=u.domain,
        seq_space=u.codomain,
        functionals=u.entries,
        vectors=v.entries,
    )


def factorize(frame: FramePair, tol: float = DEFAULT_TOL) -> tuple[LinearMap, LinearMap]:
    """The factorization (U, V) = (theta_f, theta_tau) of a valid frame.

    Round-trips exactly: ``from_factorization(*factorize(frame))`` stores
    the same matrices bit for bit.
    """
    _canonical(frame, tol)
    return analysis_operator(frame), synthesis_operator(frame)


def basis_factorization(frame: FramePair, basis: LinearMap, tol: float = DEFAULT_TOL) -> tuple[LinearMap, LinearMap]:
    """Factor a square frame through an arbitrary basis of x_space.

    ``basis`` is an invertible d x d map whose columns are the basis
    vectors w_k; the coordinate functionals g_k are the rows of its
    inverse. Returns square maps (U, V) with f_k = g_k U, tau_k = V w_k
    and V U = S, namely U = basis . theta_f and V = theta_tau . basis^-1.
    Only defined when count == dim, since the basis and the frame are
    indexed by the same coordinates.
    """
    d, n = frame.dim, frame.count
    if n != d:
        raise RequiresSquare(f"basis factorization needs count == dim, got {n} != {d}")
    if basis.domain.dim != d or basis.codomain.dim != d:
        raise DimensionMismatch(f"basis must be {d} x {d}, got {basis.entries.shape}")
    basis_inv, _ = invert_with_rcond(basis, tol)
    u = _product(basis.entries, frame.functionals)
    v = _product(frame.vectors, basis_inv.entries)
    return (
        LinearMap(domain=frame.x_space, codomain=frame.x_space, entries=u),
        LinearMap(domain=frame.x_space, codomain=frame.x_space, entries=v),
    )

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

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NotAFrame, NotInvertible, RequiresSquare, Singular
from .spaces import (
    DEFAULT_TOL,
    LinearMap,
    NormBound,
    PNormSpace,
    Vector,
    _eliminate,
    _freeze,
    _lp,
    _require_rank,
    _within,
    compose,
    invert_with_rcond,
    operator_norm,
)


@dataclass(frozen=True, eq=False)
class FramePair:
    """A pair (functionals, vectors) over (x_space, seq_space).

    ``functionals`` is n x d with row k equal to f_k; ``vectors`` is
    d x n with column k equal to tau_k. Construction checks shapes only;
    whether the pair is an actual p-ASF (frame operator invertible) is
    decided by :func:`validate`.

    The other fields are frozen, so S, S^-1 and rcond are computed once
    per (frame, tol), kept in the private ``_inverses`` memo and reused
    by every entry point after that.
    """

    x_space: PNormSpace
    seq_space: PNormSpace
    functionals: np.ndarray
    vectors: np.ndarray
    _inverses: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        d, n = self.x_space.dim, self.seq_space.dim
        functionals = _freeze(np.atleast_2d(np.asarray(self.functionals, dtype=float)))
        vectors = _freeze(np.atleast_2d(np.asarray(self.vectors, dtype=float)))
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


@dataclass(frozen=True)
class FrameReport:
    """Validation output for a frame pair.

    ``lower_bound`` brackets a = ||S^-1||^-1 and ``upper_bound`` brackets
    b = ||S||, both in the operator norm of x_space. ``parseval`` means
    S equals the identity entrywise within the validation tolerance.
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
    """S = theta_tau . theta_f, the d x d map x |-> sum f_k(x) tau_k."""
    return compose(synthesis_operator(frame), analysis_operator(frame))


def _invert_frame_op(frame: FramePair, tol: float) -> tuple[LinearMap, LinearMap, float]:
    try:
        # a non-finite entry has rank 0; rejected before S = T F, whose inf - inf is NaN
        if not (np.isfinite(frame.functionals).all() and np.isfinite(frame.vectors).all()):
            raise Singular("frame has a non-finite entry", rank=0)
        s = frame_operator(frame)
        s_inv, rcond = invert_with_rcond(s, tol)
    except Singular as exc:
        raise NotAFrame(
            f"frame operator is singular at tol={tol:g}: rank {exc.rank} of {frame.dim}",
            rank=exc.rank,
        ) from exc
    return s, s_inv, rcond


def _factored(frame: FramePair, tol: float) -> tuple[LinearMap, LinearMap, float]:
    """(S, S^-1, rcond) at ``tol``, inverted on the first call only;
    raises :class:`NotAFrame` (not memoised) when S is singular."""
    found = frame._inverses.get(tol)
    if found is None:
        found = frame._inverses[tol] = _invert_frame_op(frame, tol)
    return found


def _parseval(frame: FramePair, tol: float) -> bool:
    """``validate(frame, tol).parseval`` without the norm brackets."""
    s, _, _ = _factored(frame, tol)
    return _within(s.entries, np.eye(frame.dim), tol)


def validate(frame: FramePair, tol: float = DEFAULT_TOL) -> FrameReport:
    """Decide the p-ASF property and compute optimal frame bounds.

    Raises :class:`NotAFrame` (carrying the rank of S) when the frame
    operator is singular at ``tol``. Injectivity of theta_f and
    surjectivity of theta_tau are corroborated independently through
    numerical ranks rather than inferred from the invertibility of S.
    """
    s, s_inv, rcond = _factored(frame, tol)
    d = frame.dim
    return FrameReport(
        frame_op=s,
        frame_op_inv=s_inv,
        lower_bound=operator_norm(s_inv).reciprocal(),
        upper_bound=operator_norm(s),
        parseval=_parseval(frame, tol),
        analysis_injective=_eliminate(frame.functionals, tol) == d,
        synthesis_surjective=_eliminate(frame.vectors, tol) == d,
        rcond=rcond,
    )


def reconstruct(frame: FramePair, x: Vector, tol: float = DEFAULT_TOL) -> tuple[Vector, Vector, float, float]:
    """Reconstruct ``x`` through both canonical expansions.

    Returns (sum_k (f_k S^-1)(x) tau_k, sum_k f_k(x) S^-1 tau_k) together
    with the residual ||expansion - x|| in the x_space norm for each.
    """
    if x.space.dim != frame.dim:
        raise DimensionMismatch(f"vector of dim {x.space.dim} does not live on a dim-{frame.dim} space")
    _, s_inv, _ = _factored(frame, tol)
    f, t, si = frame.functionals, frame.vectors, s_inv.entries
    first = t @ (f @ (si @ x.coords))       # coefficients of the dual functionals, original vectors
    second = (si @ t) @ (f @ x.coords)      # original coefficients, dual vectors
    r1 = _lp(first - x.coords, frame.x_space.p)
    r2 = _lp(second - x.coords, frame.x_space.p)
    return (
        Vector(space=frame.x_space, coords=first),
        Vector(space=frame.x_space, coords=second),
        r1,
        r2,
    )


def projection(frame: FramePair, tol: float = DEFAULT_TOL) -> LinearMap:
    """P = theta_f S^-1 theta_tau, the idempotent onto range(theta_f)."""
    _, s_inv, _ = _factored(frame, tol)
    p = frame.functionals @ s_inv.entries @ frame.vectors
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
    _require_rank(v.entries @ u.entries, tol, NotInvertible, "V U")
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
    _factored(frame, tol)
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
    u = basis.entries @ frame.functionals
    v = frame.vectors @ basis_inv.entries
    return (
        LinearMap(domain=frame.x_space, codomain=frame.x_space, entries=u),
        LinearMap(domain=frame.x_space, codomain=frame.x_space, entries=v),
    )

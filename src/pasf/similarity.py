"""Similarity of frame pairs and Parseval synthesis.

Two frames (f, tau) and (g, omega) on the same spaces are similar when
invertible maps T_fg and T_tw on x_space carry one to the other:
g_k = f_k T_fg and omega_k = T_tw tau_k. Similarity is decided here
through the projection characterization -- the frames are similar if
and only if their coefficient-space projections P coincide -- and the
witnesses are then recovered in closed form:

    T_fg = S^-1 theta_tau theta_g,    T_tw = theta_omega theta_f S^-1.

The witnesses are unique, so construct-then-recover round-trips. When
the first frame is Parseval, the second is Parseval exactly when the
witnesses compose to the identity. Finally, every frame is similar to
two canonical Parseval frames: (f S^-1, tau) and (f, S^-1 tau).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConsistencyError,
    DimensionMismatch,
    NotInvertibleWitness,
    NotParseval,
    NotSimilar,
)
from .duality import _require_same_spaces
from .frames import FramePair, _canonical, _held, _parseval
from .spaces import DEFAULT_TOL, LinearMap, _absmax, _agrees, _product, _product_agrees, _rank, _residual


@dataclass(frozen=True)
class SimilarityWitness:
    """The candidate pair (T_fg, T_tw) relating two frames.

    ``t_fg`` acts on functionals (g_k = f_k T_fg) and ``t_tau_omega`` on
    vectors (omega_k = T_tw tau_k). ``invertible`` records whether both
    maps inverted at the tolerance they were computed with; the pair
    certifies similarity only when :func:`are_similar` holds.
    """

    t_fg: LinearMap
    t_tau_omega: LinearMap
    invertible: bool


def witness_from_frames(
    frame1: FramePair, frame2: FramePair, tol: float = DEFAULT_TOL
) -> SimilarityWitness:
    """Closed-form witness candidates between two frames.

    Always computable; ``invertible`` is False when either candidate map
    has rank below dim at ``tol``, which callers can use to inspect near
    misses. When frame2's S^-1 is already known at ``tol``, the reverse
    witnesses from frame2 to frame1 may certify full rank; the SVD
    decides otherwise. Each witness is formed through its first frame's
    canonical dual where that is finite, and through S^-1 otherwise (see
    ``_Canonical``), so it leaves the double range only where its true
    value does, and then has rank 0.
    """
    _require_same_spaces(frame1, frame2)
    c1, c2 = _canonical(frame1, tol), _held(frame2, tol)
    t_fg = c1.dual_vectors_times(frame2.functionals)
    t_tw = c1.times_dual_functionals(frame2.vectors)
    rev_fg = rev_tw = None
    if c2 is not None:
        rev_fg = c2.dual_vectors_times(frame1.functionals)
        rev_tw = c2.times_dual_functionals(frame1.vectors)
    space, d = frame1.x_space, frame1.dim
    return SimilarityWitness(
        t_fg=LinearMap(domain=space, codomain=space, entries=t_fg),
        t_tau_omega=LinearMap(domain=space, codomain=space, entries=t_tw),
        invertible=_rank(t_fg, tol, rev_fg) == d and _rank(t_tw, tol, rev_tw) == d,
    )


def _similarity(
    frame1: FramePair, frame2: FramePair, tol: float
) -> tuple[bool, SimilarityWitness | None, float]:
    """are_similar's verdict, the witness it checked (None if none was formed) and its products' agreement."""
    _require_same_spaces(frame1, frame2)
    p1, p2 = _canonical(frame1, tol).projection, _canonical(frame2, tol).projection
    with np.errstate(over="ignore", invalid="ignore"):
        diff, scale = _absmax(p1 - p2), max(_absmax(p1), _absmax(p2))
    if not _agrees(diff, tol, scale):
        return False, None, tol
    witness = witness_from_frames(frame1, frame2, tol)
    if not witness.invertible:
        raise ConsistencyError("projections agree but a witness candidate is singular")
    # f1 T_fg = P1 f2 against f2 = P2 f2, and T_tw tau1 = tau2 P1 against tau2 = tau2 P2:
    # P1 - P2 carries into both through n coefficients, so each drifts by at most n diff
    agreement = max(tol, frame1.count * diff)
    for a, b, target in [(frame1.functionals, witness.t_fg.entries, frame2.functionals),
                         (witness.t_tau_omega.entries, frame1.vectors, frame2.vectors)]:
        if not _product_agrees(a, b, target, agreement):
            raise ConsistencyError(f"projections agree but witness transport drifts by {_residual(a, b, target):.3e}")
    return True, witness, agreement


def are_similar(frame1: FramePair, frame2: FramePair, tol: float = DEFAULT_TOL) -> bool:
    """Decide similarity by projection equality: P_1 = P_2, scaled by max|P|.

    When the projections agree, the recovered witnesses are checked to
    be invertible and to actually transport frame1 onto frame2, each a
    product criterion held to n max|P_1 - P_2|, or tol; a failure
    there means the equivalence broke numerically and raises
    :class:`ConsistencyError`.
    """
    return _similarity(frame1, frame2, tol)[0]


def apply_similarity(frame: FramePair, witness: SimilarityWitness) -> FramePair:
    """Transport a frame by a witness: (f_k T_fg, T_tw tau_k).

    The result has frame operator T_tw S T_fg; requires an invertible
    witness of maps on a space of the frame's dimension.
    """
    if {witness.t_fg.entries.shape, witness.t_tau_omega.entries.shape} != {(frame.dim, frame.dim)}:
        raise DimensionMismatch(f"witness maps must be {frame.dim} x {frame.dim} for this frame")
    if not witness.invertible:
        raise NotInvertibleWitness("cannot apply a witness whose maps are singular")
    return FramePair(
        x_space=frame.x_space,
        seq_space=frame.seq_space,
        functionals=_product(frame.functionals, witness.t_fg.entries),
        vectors=_product(witness.t_tau_omega.entries, frame.vectors),
    )


def parseval_transfer_check(
    frame_parseval: FramePair, frame2: FramePair, tol: float = DEFAULT_TOL
) -> bool:
    """Whether a frame similar to a Parseval frame is itself Parseval.

    Equivalent to the witnesses composing to the identity, in either
    order; both routes are evaluated, each a product criterion held, as
    the transports are, to n max|P_1 - P_2| or tol, and must agree with
    the direct Parseval test of frame2.
    """
    if not _parseval(frame_parseval, tol):
        raise NotParseval("first frame is not Parseval")
    similar, witness, agreement = _similarity(frame_parseval, frame2, tol)
    if not similar:
        raise NotSimilar("frames are not similar")
    a, b = witness.t_fg.entries, witness.t_tau_omega.entries
    eye = np.eye(frame_parseval.dim)
    by_product = _product_agrees(b, a, eye, agreement)
    by_reverse = _product_agrees(a, b, eye, agreement)
    direct = _parseval(frame2, tol)
    if by_product != direct or by_reverse != direct:
        raise ConsistencyError(
            "witness-product and direct Parseval tests disagree; "
            "the instance sits on the tolerance knife edge"
        )
    return direct


def parsevalize(frame: FramePair, tol: float = DEFAULT_TOL) -> tuple[FramePair, FramePair]:
    """The two Parseval frames similar to ``frame``.

    Returns ((f_k S^-1, tau_k), (f_k, S^-1 tau_k)); the similarity
    witnesses are (S^-1, I) and (I, S^-1) respectively.
    """
    c = _canonical(frame, tol)
    return replace(frame, functionals=c.dual_functionals), replace(frame, vectors=c.dual_vectors)

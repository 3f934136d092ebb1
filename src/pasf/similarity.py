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
    NotInvertibleWitness,
    NotParseval,
    NotSimilar,
)
from .duality import _require_same_spaces, canonical_dual
from .frames import FramePair, _factored, _parseval, projection
from .spaces import DEFAULT_TOL, LinearMap, _eliminate, _within


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
    misses.
    """
    _require_same_spaces(frame1, frame2)
    _, s_inv, _ = _factored(frame1, tol)
    si = s_inv.entries
    t_fg = si @ frame1.vectors @ frame2.functionals
    # f S^-1 first, so a witness near the top of the double range stays finite
    t_tw = frame2.vectors @ (frame1.functionals @ si)
    d, space = frame1.dim, frame1.x_space
    return SimilarityWitness(
        t_fg=LinearMap(domain=space, codomain=space, entries=t_fg),
        t_tau_omega=LinearMap(domain=space, codomain=space, entries=t_tw),
        invertible=_eliminate(t_fg, tol) == d and _eliminate(t_tw, tol) == d,
    )


def are_similar(frame1: FramePair, frame2: FramePair, tol: float = DEFAULT_TOL) -> bool:
    """Decide similarity by projection equality: P_1 = P_2 entrywise.

    When the projections agree, the recovered witnesses are checked to
    be invertible and to actually transport frame1 onto frame2 (within
    10 * tol); a failure there means the equivalence broke numerically
    and raises :class:`ConsistencyError`.
    """
    _require_same_spaces(frame1, frame2)
    similar = _within(projection(frame1, tol).entries, projection(frame2, tol).entries, tol)
    if similar:
        witness = witness_from_frames(frame1, frame2, tol)
        if not witness.invertible:
            raise ConsistencyError("projections agree but a witness candidate is singular")
        slack = 10.0 * tol
        g_drift = float(
            np.abs(frame2.functionals - frame1.functionals @ witness.t_fg.entries).max()
        )
        w_drift = float(
            np.abs(frame2.vectors - witness.t_tau_omega.entries @ frame1.vectors).max()
        )
        if not (g_drift <= slack and w_drift <= slack):
            raise ConsistencyError(
                f"projections agree but witness transport drifts by {max(g_drift, w_drift):.3e}"
            )
    return similar


def apply_similarity(frame: FramePair, witness: SimilarityWitness) -> FramePair:
    """Transport a frame by a witness: (f_k T_fg, T_tw tau_k).

    The result has frame operator T_tw S T_fg; requires an invertible
    witness.
    """
    if not witness.invertible:
        raise NotInvertibleWitness("cannot apply a witness whose maps are singular")
    return FramePair(
        x_space=frame.x_space,
        seq_space=frame.seq_space,
        functionals=frame.functionals @ witness.t_fg.entries,
        vectors=witness.t_tau_omega.entries @ frame.vectors,
    )


def parseval_transfer_check(
    frame_parseval: FramePair, frame2: FramePair, tol: float = DEFAULT_TOL
) -> bool:
    """Whether a frame similar to a Parseval frame is itself Parseval.

    Equivalent to the witnesses composing to the identity, in either
    order; both routes are evaluated and must agree with the direct
    Parseval test of frame2.
    """
    if not _parseval(frame_parseval, tol):
        raise NotParseval("first frame is not Parseval")
    if not are_similar(frame_parseval, frame2, tol):
        raise NotSimilar("frames are not similar")
    witness = witness_from_frames(frame_parseval, frame2, tol)
    a, b = witness.t_fg.entries, witness.t_tau_omega.entries
    eye = np.eye(frame_parseval.dim)
    by_product = _within(b @ a, eye, tol)
    by_reverse = _within(a @ b, eye, tol)
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
    dual = canonical_dual(frame, tol)
    return replace(dual, vectors=frame.vectors), replace(dual, functionals=frame.functionals)

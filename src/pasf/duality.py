"""Dual frames: canonical dual, criterion, and the complete parameterization.

A frame (g, omega) is a dual of (f, tau) when both cross-compositions
reconstruct: theta_tau theta_g = theta_omega theta_f = I on x_space.
The canonical dual (f S^-1, S^-1 tau) always qualifies, and every dual
arises from a pair of bounded maps (U, V) through

    g_k     = f_k S^-1 + h_k U - f_k S^-1 theta_tau U
    omega_k = S^-1 tau_k + V e_k - V theta_f S^-1 tau_k

subject to the *gate operator* S^-1 + V U - V theta_f S^-1 theta_tau U
being invertible; the gate is exactly the candidate's own frame
operator, and both computation routes are cross-checked against each
other here. The same machinery yields all right inverses of theta_tau
and all left inverses of theta_f.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConsistencyError,
    GateSingular,
    NotDual,
    SpaceMismatch,
)
from .frames import (
    FramePair,
    FrameReport,
    _factored,
    analysis_operator,
    projection,
    synthesis_operator,
)
from .spaces import DEFAULT_TOL, LinearMap, NormBound, _eliminate, _require_rank, _within

#: Entrywise agreement required between the two gate-operator routes.
_CROSS_CHECK_TOL = 1e-10


@dataclass(frozen=True)
class DualCandidate:
    """A dual frame together with the (U, V) parameters that generated it.

    ``u_param``/``v_param`` are ``None`` for duals that were not produced
    by :func:`dual_from_parameters`.
    """

    frame: FramePair
    u_param: LinearMap | None = None
    v_param: LinearMap | None = None


def _require_same_spaces(a: FramePair, b: FramePair) -> None:
    if not a.same_spaces(b):
        raise SpaceMismatch(
            f"frames live on different spaces: ({a.x_space}, {a.seq_space}) "
            f"vs ({b.x_space}, {b.seq_space})"
        )


def canonical_dual(frame: FramePair, tol: float = DEFAULT_TOL) -> FramePair:
    """The canonical dual (f_k S^-1, S^-1 tau_k).

    Applying it twice returns the original frame: the canonical dual of
    the canonical dual is the frame itself.
    """
    si = _factored(frame, tol)[1].entries
    return replace(frame, functionals=frame.functionals @ si, vectors=si @ frame.vectors)


def is_dual(frame: FramePair, cand: FramePair, tol: float = DEFAULT_TOL) -> bool:
    """The operator criterion: theta_tau theta_g = theta_omega theta_f = I.

    Both equalities are required, judged entrywise against ``tol``. The
    criterion is symmetric in the two frames.
    """
    _require_same_spaces(frame, cand)
    eye = np.eye(frame.dim)
    return (
        _within(frame.vectors @ cand.functionals, eye, tol)
        and _within(cand.vectors @ frame.functionals, eye, tol)
    )


def right_inverse_from(frame: FramePair, u: LinearMap, tol: float = DEFAULT_TOL) -> LinearMap:
    """The right inverse R = theta_f S^-1 + (I - P) U of theta_tau.

    Every bounded right inverse of theta_tau has this form for some U
    from x_space into seq_space; U = 0 gives the base point theta_f S^-1.
    """
    d, n = frame.dim, frame.count
    if u.entries.shape != (n, d):
        raise SpaceMismatch(f"U must map x_space into seq_space ({n} x {d}), got {u.entries.shape}")
    _, s_inv, _ = _factored(frame, tol)
    p = projection(frame, tol).entries
    entries = frame.functionals @ s_inv.entries + (np.eye(n) - p) @ u.entries
    return LinearMap(domain=frame.x_space, codomain=frame.seq_space, entries=entries)


def left_inverse_from(frame: FramePair, v: LinearMap, tol: float = DEFAULT_TOL) -> LinearMap:
    """The left inverse L = S^-1 theta_tau + V (I - P) of theta_f.

    Mirror image of :func:`right_inverse_from`; V = 0 gives the base
    point S^-1 theta_tau.
    """
    d, n = frame.dim, frame.count
    if v.entries.shape != (d, n):
        raise SpaceMismatch(f"V must map seq_space into x_space ({d} x {n}), got {v.entries.shape}")
    _, s_inv, _ = _factored(frame, tol)
    p = projection(frame, tol).entries
    entries = s_inv.entries @ frame.vectors + v.entries @ (np.eye(n) - p)
    return LinearMap(domain=frame.seq_space, codomain=frame.x_space, entries=entries)


def dual_from_parameters(
    frame: FramePair, u: LinearMap, v: LinearMap, tol: float = DEFAULT_TOL
) -> DualCandidate:
    """Generate the dual determined by the parameter pair (U, V).

    The functionals become the right inverse built from U and the
    vectors the left inverse built from V. The candidate is a p-ASF
    exactly when the gate operator S^-1 + VU - V theta_f S^-1 theta_tau U
    is invertible; otherwise :class:`GateSingular` is raised. The gate is
    recomputed as the candidate's frame operator theta_omega theta_g and
    the two routes must agree entrywise, guarding the expansion algebra.
    """
    g = right_inverse_from(frame, u, tol).entries
    omega = left_inverse_from(frame, v, tol).entries
    n = frame.count
    si = _factored(frame, tol)[1].entries
    p = projection(frame, tol).entries
    gate = si + v.entries @ u.entries - v.entries @ p @ u.entries
    _require_rank(gate, tol, GateSingular, "gate operator")
    candidate_op = omega @ g
    drift = float(np.abs(candidate_op - gate).max())
    # agreement is limited by what rounding can achieve on the largest
    # summands entering the cancellation (the V P U triple product can
    # dwarf the gate itself), not only by the gate's own scale; a wrong
    # expansion misses by a full summand, far above this floor
    u_max, v_max = float(np.abs(u.entries).max()), float(np.abs(v.entries).max())
    summands = (
        float(np.abs(si).max())
        + v_max * (1.0 + float(np.abs(p).max())) * u_max
        + float(np.abs(omega).max()) * float(np.abs(g).max())
    )
    threshold = _CROSS_CHECK_TOL * max(1.0, float(np.abs(gate).max()))
    threshold += 32.0 * n * n * np.finfo(float).eps * summands
    if not drift <= threshold:
        raise ConsistencyError(
            f"gate operator and candidate frame operator disagree by {drift:.3e}"
        )
    dual = FramePair(
        x_space=frame.x_space, seq_space=frame.seq_space, functionals=g, vectors=omega
    )
    return DualCandidate(frame=dual, u_param=u, v_param=v)


def parameters_from_dual(
    frame: FramePair, dual: FramePair, tol: float = DEFAULT_TOL
) -> tuple[LinearMap, LinearMap]:
    """Recover parameters (U, V) = (theta_g, theta_omega) of a known dual.

    Feeding them back into :func:`dual_from_parameters` reproduces the
    dual, so every dual is reachable from the parameterization. Raises
    :class:`NotDual` when the pair fails the dual criterion.
    """
    if not is_dual(frame, dual, tol):
        raise NotDual("the candidate does not satisfy the dual criterion")
    return analysis_operator(dual), synthesis_operator(dual)


def has_unique_dual(frame: FramePair, tol: float = DEFAULT_TOL) -> bool:
    """Sufficient uniqueness criterion: tau basis plus biorthogonality.

    True when the frame is square (count == dim), the vectors matrix is
    invertible, and f_k(tau_j) = delta_kj entrywise within ``tol``. Such
    a frame admits no dual other than its canonical one.
    """
    d, n = frame.dim, frame.count
    if n != d:
        return False
    if _eliminate(frame.vectors, tol) < d:
        return False
    return _within(frame.functionals @ frame.vectors, np.eye(n), tol)


def canonical_dual_bounds(report: FrameReport) -> tuple[NormBound, NormBound]:
    """Optimal bounds (1/b, 1/a) of the canonical dual, from a report.

    The canonical dual's frame operator is S^-1, so its optimal bounds
    are the reciprocals of the original bounds in swapped order.
    """
    return report.upper_bound.reciprocal(), report.lower_bound.reciprocal()

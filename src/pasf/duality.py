"""Dual frames: canonical dual, criterion, and the complete parameterization.

A frame (g, omega) is a dual of (f, tau) when both cross-compositions
reconstruct: theta_tau theta_g = theta_omega theta_f = I on x_space.
The canonical dual (f S^-1, S^-1 tau) always qualifies, and every dual
arises from a pair of bounded maps (U, V) through

    g_k     = f_k S^-1 + h_k U - f_k S^-1 theta_tau U
    omega_k = S^-1 tau_k + V e_k - V theta_f S^-1 tau_k

subject to the *gate operator* S^-1 + V U - V theta_f S^-1 theta_tau U
being invertible. It is computed as S^-1 + (V (I - P)) U, P = theta_f S^-1
theta_tau, and cross-checked against theta_omega theta_g, the candidate's
own frame operator. The same machinery yields all right inverses of
theta_tau and all left inverses of theta_f.
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
from .frames import FramePair, FrameReport, _canonical, analysis_operator, synthesis_operator
from .spaces import (DEFAULT_TOL, INF, LinearMap, NormBound, _absmax, _agrees, _product, _product_agrees,
                     _rank, _require_rank, _residual)

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
    c = _canonical(frame, tol)
    return replace(frame, functionals=c.dual_functionals, vectors=c.dual_vectors)


def is_dual(frame: FramePair, cand: FramePair, tol: float = DEFAULT_TOL) -> bool:
    """The operator criterion: theta_tau theta_g = theta_omega theta_f = I.

    Both equalities are required, each with the rounding on its factors
    (see ``_product_agrees``). The criterion is symmetric in the two frames.
    """
    _require_same_spaces(frame, cand)
    eye = np.eye(frame.dim)
    return (
        _product_agrees(frame.vectors, cand.functionals, eye, tol)
        and _product_agrees(cand.vectors, frame.functionals, eye, tol)
    )


def _require_shape(name: str, param: LinearMap, shape: tuple[int, int], role: str) -> None:
    if param.entries.shape != shape:
        raise SpaceMismatch(
            f"{name} must map {role} ({shape[0]} x {shape[1]}), got {param.entries.shape}"
        )


def right_inverse_from(frame: FramePair, u: LinearMap, tol: float = DEFAULT_TOL) -> LinearMap:
    """The right inverse R = theta_f S^-1 + (I - P) U of theta_tau.

    Every bounded right inverse of theta_tau has this form for some U
    from x_space into seq_space; U = 0 gives the base point theta_f S^-1.
    """
    _require_shape("U", u, (frame.count, frame.dim), "x_space into seq_space")
    c = _canonical(frame, tol)
    with np.errstate(over="ignore", invalid="ignore"):  # a sum past the double range is inf or NaN
        entries = c.dual_functionals + _product(c.complement, u.entries)
    return LinearMap(domain=frame.x_space, codomain=frame.seq_space, entries=entries)


def left_inverse_from(frame: FramePair, v: LinearMap, tol: float = DEFAULT_TOL) -> LinearMap:
    """The left inverse L = S^-1 theta_tau + V (I - P) of theta_f.

    Mirror image of :func:`right_inverse_from`; V = 0 gives the base
    point S^-1 theta_tau.
    """
    _require_shape("V", v, (frame.dim, frame.count), "seq_space into x_space")
    c = _canonical(frame, tol)
    with np.errstate(over="ignore", invalid="ignore"):  # a sum past the double range is inf or NaN
        entries = c.dual_vectors + _product(v.entries, c.complement)
    return LinearMap(domain=frame.seq_space, codomain=frame.x_space, entries=entries)


def dual_from_parameters(
    frame: FramePair, u: LinearMap, v: LinearMap, tol: float = DEFAULT_TOL
) -> DualCandidate:
    """Generate the dual determined by the parameter pair (U, V).

    The functionals become the right inverse built from U and the
    vectors the left inverse built from V. The candidate is a p-ASF
    exactly when the gate operator S^-1 + VU - V theta_f S^-1 theta_tau U
    is invertible; otherwise :class:`GateSingular` is raised. The gate is
    computed as S^-1 + (V (I - P)) U, reusing L's V (I - P), and must agree
    entrywise with the candidate's frame operator theta_omega theta_g, a
    cross-check guarding the expansion algebra. A candidate with an entry
    past the double range, whose drift bounds nothing, is returned
    unchecked, as :func:`canonical_dual` returns one.
    """
    d, n = frame.dim, frame.count
    _require_shape("U", u, (n, d), "x_space into seq_space")
    _require_shape("V", v, (d, n), "seq_space into x_space")
    g = right_inverse_from(frame, u, tol).entries
    c = _canonical(frame, tol)
    si = c.s_inv.entries
    omega = _product(v.entries, c.complement)  # V (I - P) until the gate has read it, then L
    gate = _product(omega, u.entries)
    with np.errstate(over="ignore", invalid="ignore"):  # past the double range: singular gate or unchecked candidate
        gate += si
        omega += c.dual_vectors
    # S inverts the gate S^-1 + V (I - P) U approximately when V and U are small
    _require_rank(gate, tol, GateSingular, "gate operator", c.s.entries)
    drift = _residual(omega, g, gate)
    # I - P rounds on the scale 1 + max|P|, so V (I - P) U carries error on
    # max|V| (1 + max|P|) max|U| even when it is far smaller itself
    agrees = _agrees(drift, _CROSS_CHECK_TOL, _absmax(gate), lambda: (
        _absmax(si) + _absmax(v.entries) * (1.0 + _absmax(c.projection)) * _absmax(u.entries)
        + _absmax(np.abs(omega) @ np.abs(g))), n)
    if not agrees and _absmax(g) < INF and _absmax(omega) < INF:
        raise ConsistencyError(f"gate operator and candidate frame operator disagree by {drift:.3e}")
    return DualCandidate(frame=replace(frame, functionals=g, vectors=omega), u_param=u, v_param=v)


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

    True when the frame is square (count == dim), theta_f theta_tau = I, with the
    rounding on its factors (see ``_product_agrees``), and the vectors matrix has
    full rank by the SVD rule; theta_f, then an approximate inverse, proves that
    with no SVD where it can. Such a frame admits no dual other than its canonical one.
    """
    d, n = frame.dim, frame.count
    return (n == d and _product_agrees(frame.functionals, frame.vectors, np.eye(n), tol)
            and _rank(frame.vectors, tol, frame.functionals) == d)


def canonical_dual_bounds(report: FrameReport) -> tuple[NormBound, NormBound]:
    """Optimal bounds (1/b, 1/a) of the canonical dual, from a report.

    The canonical dual's frame operator is S^-1, so its optimal bounds
    are the reciprocals of the original bounds in swapped order.
    """
    return report.upper_bound.reciprocal(), report.lower_bound.reciprocal()

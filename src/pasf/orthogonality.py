"""Orthogonal frame pairs and Parseval interpolation.

Two frames are orthogonal when their cross-reconstructions vanish
identically: theta_tau theta_g = theta_omega theta_f = 0. Orthogonality
is symmetric but never reflexive (a valid frame has invertible S, not
zero), and it excludes duality and similarity.

Its payoff is interpolation: two *Parseval* frames that are orthogonal
can be stitched with operator coefficients A, B, C, D satisfying
C A + D B = I into a new Parseval frame (f_k A + g_k B, C tau_k +
D omega_k). Scalars a, b, c, d with c a + d b = 1 are the special case
of scalar multiples of the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ContractViolated,
    DimensionMismatch,
    NotAFrame,
    NotOrthogonal,
    NotParseval,
)
from .duality import _require_same_spaces
from .frames import FramePair, _canonical, _parseval, frame_operator
from .spaces import DEFAULT_TOL, LinearMap, _absmax, _product, _product_agrees, _residual


@dataclass(frozen=True)
class InterpolationOperators:
    """The operator quadruple (A, B, C, D) used to stitch two frames.

    All four act on x_space; the contract C A + D B = I is checked at
    the point of use, not at construction.
    """

    a_op: LinearMap
    b_op: LinearMap
    c_op: LinearMap
    d_op: LinearMap


def is_orthogonal(frame1: FramePair, frame2: FramePair, tol: float = DEFAULT_TOL) -> bool:
    """Operator criterion: theta_tau theta_g and theta_omega theta_f both
    vanish, each with the rounding on its factors (see ``_product_agrees``). A target of 0 has
    no scale, so both are held to tol × min(1, max|S|) over the two frames' frame operators S."""
    _require_same_spaces(frame1, frame2)
    tol *= min(1.0, max(_absmax(frame_operator(frame).entries) for frame in (frame1, frame2)))
    return (
        _product_agrees(frame1.vectors, frame2.functionals, 0.0, tol)
        and _product_agrees(frame2.vectors, frame1.functionals, 0.0, tol)
    )


def interpolate(
    frame1: FramePair,
    frame2: FramePair,
    ops: InterpolationOperators,
    tol: float = DEFAULT_TOL,
) -> FramePair:
    """Stitch two orthogonal Parseval frames into a new Parseval frame.

    Preconditions are enforced in order: both frames Parseval
    (:class:`NotParseval`), mutually orthogonal (:class:`NotOrthogonal`),
    and the contract C A + D B = I, the block product [C D] [A; B] under
    ``_product_agrees`` (:class:`ContractViolated`, carrying the residual).
    """
    _require_same_spaces(frame1, frame2)
    d = frame1.dim
    for op in (ops.a_op, ops.b_op, ops.c_op, ops.d_op):
        if op.entries.shape != (d, d):
            raise DimensionMismatch(
                f"interpolation operators must be {d} x {d}, got {op.entries.shape}"
            )
    if not _parseval(frame1, tol):
        raise NotParseval("first frame is not Parseval")
    if not _parseval(frame2, tol):
        raise NotParseval("second frame is not Parseval")
    if not is_orthogonal(frame1, frame2, tol):
        raise NotOrthogonal("frames are not orthogonal")
    # C A + D B, f A + g B and C tau + D omega, each one block product formed by ``_product``
    cd = np.hstack([ops.c_op.entries, ops.d_op.entries])
    ab = np.vstack([ops.a_op.entries, ops.b_op.entries])
    eye = np.eye(d)
    if not _product_agrees(cd, ab, eye, tol):
        residual = _residual(cd, ab, eye)
        raise ContractViolated(f"C A + D B deviates from the identity by {residual:.3e}", residual=residual)
    functionals = _product(np.hstack([frame1.functionals, frame2.functionals]), ab)
    vectors = _product(cd, np.vstack([frame1.vectors, frame2.vectors]))
    return FramePair(x_space=frame1.x_space, seq_space=frame1.seq_space, functionals=functionals, vectors=vectors)


def scalar_interpolate(
    frame1: FramePair,
    frame2: FramePair,
    a: float,
    b: float,
    c: float,
    d: float,
    tol: float = DEFAULT_TOL,
) -> FramePair:
    """Scalar stitching (a f_k + b g_k, c tau_k + d omega_k) with c a + d b = 1:
    exactly :func:`interpolate` on a I, b I, c I and d I, so its preconditions,
    their order and its one contract check are :func:`interpolate`'s."""
    space = frame1.x_space
    a_op, b_op, c_op, d_op = (LinearMap(space, space, np.diag(np.full(space.dim, s))) for s in (a, b, c, d))
    return interpolate(frame1, frame2, InterpolationOperators(a_op, b_op, c_op, d_op), tol)


def mixed_pair_degeneracy_check(
    frame1: FramePair, frame2: FramePair, tol: float = DEFAULT_TOL
) -> tuple[bool, bool]:
    """Check that the mixed pairs of an orthogonal pair are not frames.

    For orthogonal (f, tau) and (g, omega), the cross pairs (f, omega)
    and (g, tau) have frame operators theta_omega theta_f = 0 and
    theta_tau theta_g = 0, so both must fail validation. Returns the two
    failure flags (True means the mixed pair is degenerate). A pair orthogonal
    only to within tol can have a mixed pair that validates: orthogonality is
    held at the frames' scale, a mixed pair's rank at the scale of its own S.
    """
    if not is_orthogonal(frame1, frame2, tol):
        raise NotOrthogonal("frames are not orthogonal")

    def fails(mixed: FramePair) -> bool:
        try:
            _canonical(mixed, tol)
        except NotAFrame:
            return True
        return False

    return fails(replace(frame1, vectors=frame2.vectors)), fails(replace(frame2, vectors=frame1.vectors))

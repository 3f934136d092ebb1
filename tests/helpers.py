"""Shared test fixtures and independent brute-force oracles.

The oracles here deliberately avoid the code paths they corroborate:
operator norms are recomputed from unit-ball extreme points or from
eigenvalues of the Gram matrix, frame operators from explicit rank-one
sums, and duality from termwise reconstruction.
"""

from __future__ import annotations

import itertools

import numpy as np

from pasf import FramePair, PNormSpace, similarity


def maxdiff(a, b) -> float:
    return float(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)).max())


def norm1_vertex_oracle(a: np.ndarray) -> float:
    """||A||_1 from the extreme points +-e_j of the l1 unit ball."""
    best = 0.0
    for j in range(a.shape[1]):
        for sign in (1.0, -1.0):
            v = np.zeros(a.shape[1])
            v[j] = sign
            best = max(best, float(np.abs(a @ v).sum()))
    return best


def norminf_sign_oracle(a: np.ndarray) -> float:
    """||A||_inf from the extreme points {+-1}^n of the sup unit ball."""
    n = a.shape[1]
    best = 0.0
    for signs in itertools.product((1.0, -1.0), repeat=n):
        v = np.array(signs)
        best = max(best, float(np.abs(a @ v).max()))
    return best


def norm2_eig_oracle(a: np.ndarray) -> float:
    """||A||_2 as the square root of the top eigenvalue of A^T A."""
    return float(np.sqrt(max(np.linalg.eigvalsh(a.T @ a).max(), 0.0)))


def lp_norm(v: np.ndarray, p: float) -> float:
    if np.isinf(p):
        return float(np.abs(v).max())
    return float(np.sum(np.abs(v) ** p) ** (1.0 / p))


def lp_ascent_oracle(a: np.ndarray, p: float, x0: np.ndarray, max_iter: int = 100) -> float:
    """Boyd's l^p power method for 1 < p < inf from the single start x0.

    A plain loop over one vector with unscaled norms. It keeps the best
    ||A x||_p seen on the unit p-sphere and stops where the documented
    search stops: when a step improves by no more than a factor 1 + 1e-14,
    when A x = 0, or when the dual vector A^T u certifies first-order
    stationarity within 1e-12.
    """
    q = p / (p - 1.0)
    x = np.asarray(x0, dtype=float) / lp_norm(x0, p)
    best = 0.0
    for _ in range(max_iter):
        y = a @ x
        ny = lp_norm(y, p)
        if not ny > best * (1.0 + 1e-14) or ny == 0.0:
            return max(best, ny)
        best = ny
        u = np.array([np.sign(t) * (abs(t) / ny) ** (p - 1.0) for t in y])
        z = a.T @ u
        nz = lp_norm(z, q)
        if nz <= sum(zi * xi for zi, xi in zip(z, x)) * (1.0 + 1e-12):
            return best
        x = np.array([np.sign(t) * (abs(t) / nz) ** (q - 1.0) for t in z])
    return best


def rank_one_frame_operator(frame: FramePair) -> np.ndarray:
    """Frame operator as the explicit sum of rank-one terms tau_k f_k."""
    d, n = frame.dim, frame.count
    s = np.zeros((d, d))
    for k in range(n):
        s += np.outer(frame.vectors[:, k], frame.functionals[k])
    return s


def make_frame(functionals, vectors, p: float = 2.0, q: float | None = None) -> FramePair:
    functionals = np.atleast_2d(np.asarray(functionals, dtype=float))
    vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
    n, d = functionals.shape
    return FramePair(
        x_space=PNormSpace(dim=d, p=p if q is None else q),
        seq_space=PNormSpace(dim=n, p=p),
        functionals=functionals,
        vectors=vectors,
    )


def standard_frame(d: int, p: float = 2.0) -> FramePair:
    """The coordinate-basis frame: f_k = h_k, tau_k = e_k, S = I."""
    return make_frame(np.eye(d), np.eye(d), p=p)


def scaled_frame(d: int, factor: float, p: float = 2.0) -> FramePair:
    """f_k = h_k, tau_k = factor * e_k, so S = factor * I."""
    return make_frame(np.eye(d), factor * np.eye(d), p=p)


def block_orthogonal_pair(p: float = 2.0) -> tuple[FramePair, FramePair]:
    """The frozen d=2, n=4 block-disjoint Parseval pair."""
    f1 = make_frame(
        [[1, 0], [0, 1], [0, 0], [0, 0]],
        [[1, 0, 0, 0], [0, 1, 0, 0]],
        p=p,
    )
    f2 = make_frame(
        [[0, 0], [0, 0], [1, 0], [0, 1]],
        [[0, 0, 1, 0], [0, 0, 0, 1]],
        p=p,
    )
    return f1, f2


def tall_frame() -> FramePair:
    """The frozen d=2, n=3 frame with S = diag(2, 1)."""
    return make_frame([[1, 0], [0, 1], [1, 0]], [[1, 0, 1], [0, 1, 0]])


def count_witnesses(monkeypatch) -> list:
    """Record each call of ``similarity.witness_from_frames`` from now on."""
    formed = []
    real = similarity.witness_from_frames

    def counting(*args, **kwargs):
        formed.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(similarity, "witness_from_frames", counting)
    return formed


def beyond_range_dual_frame() -> FramePair:
    """A valid frame (rcond 0.05) whose duals lie past the double range:
    f is scaled by 1e-315 and tau by 1e300, so S^-1 tau is near 1e315."""
    from pasf import random_frame

    frame = random_frame(3, 5, 2.0, seed=1)
    return make_frame(frame.functionals * 1e-315, frame.vectors * 1e300)


def overflowing_terms_frame(mirrored: bool = False) -> FramePair:
    """A valid frame (rcond 2.4e-7) whose products hold terms past the double
    range though the products themselves are in range. f = 2^100 M with
    M = [[1, 1], [1, 1 + 2^-20]] and tau = 2^-1010 I, so S = 2^-910 M and
    f S^-1 = 2^1010 I, whose terms are near 2^1030. Mirrored, f = 2^-1010 I
    and tau = 2^100 M^T, so S^-1 tau = 2^1010 I."""
    m = np.ldexp(np.array([[1.0, 1.0], [1.0, 1.0 + 2.0**-20]]), 100)
    tiny = np.ldexp(np.eye(2), -1010)
    return make_frame(tiny, m.T) if mirrored else make_frame(m, tiny)


def overflowing_s_frame() -> FramePair:
    """A valid frame (rcond 1) on l^2_1 whose S = 2^1010 is in range though
    its two terms, near 2^1040, are not: f = 2^520 [1, -(1 - 2^-30)]^T and
    tau = 2^520 [1, 1], so P = 2^30 [[1, 1], [-(1 - 2^-30), -(1 - 2^-30)]]."""
    return make_frame(np.ldexp([[1.0], [-(1.0 - 2.0**-30)]], 520), np.ldexp([[1.0, 1.0]], 520))

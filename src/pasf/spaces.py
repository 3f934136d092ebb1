"""Finite-dimensional l^p spaces, vectors, and dense linear maps.

This is the numeric substrate for the whole package: coordinate spaces
carrying an l^p norm (p in [1, inf], inf represented by ``math.inf``),
immutable vectors and matrices living on them, numerical rank from the
singular values (one LAPACK call), inversion guarded by that rank, and
induced operator p-norms.

Operator norms are exact for p in {1, 2, inf} (max absolute column sum,
largest singular value, max absolute row sum). For any other exponent
the exact value is out of reach, so :func:`operator_norm` returns a
certified bracket instead: a lower bound found by monotone dual-vector
ascent over the unit p-sphere (Boyd's l^p power method, all deterministic
starts advancing as one block) and the interpolation upper bound
||A||_1^(1/p) * ||A||_inf^(1-1/p).

All types are immutable after construction and all operations are pure,
so everything here is safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, MixedExponents, NonSquare, Singular, _RankError

#: Default relative singularity tolerance: singular values below
#: ``tol * max-entry`` are treated as zero. Chosen for double-precision
#: headroom at the scales this package targets (dimensions up to 64).
DEFAULT_TOL = 1e-9

#: Sentinel for the sup-norm exponent.
INF = math.inf


def _valid_exponent(p: float) -> bool:
    return p == INF or (isinstance(p, (int, float)) and not math.isnan(p) and p >= 1.0)


@dataclass(frozen=True)
class PNormSpace:
    """A real coordinate space R^dim carrying the l^p norm.

    Args:
        dim: number of coordinates, at least 1.
        p: norm exponent in [1, inf]; ``math.inf`` selects the sup norm.
    """

    dim: int
    p: float = 2.0

    def __post_init__(self):
        if not isinstance(self.dim, int) or isinstance(self.dim, bool) or self.dim < 1:
            raise DimensionMismatch(f"space dimension must be a positive integer, got {self.dim!r}")
        if not _valid_exponent(self.p):
            raise DimensionMismatch(f"norm exponent must be >= 1 or inf, got {self.p!r}")
        object.__setattr__(self, "p", float(self.p))


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Vector:
    """An element of a :class:`PNormSpace`, stored as a dense coordinate array."""

    space: PNormSpace
    coords: np.ndarray

    def __post_init__(self):
        coords = _freeze(np.atleast_1d(np.asarray(self.coords, dtype=float)))
        if coords.ndim != 1 or coords.shape[0] != self.space.dim:
            raise DimensionMismatch(
                f"coordinate array of shape {coords.shape} does not fit a space of dim {self.space.dim}"
            )
        object.__setattr__(self, "coords", coords)


@dataclass(frozen=True, eq=False)
class LinearMap:
    """A dense linear map between two spaces.

    ``entries`` has shape (codomain.dim, domain.dim), so application is
    the plain matrix-vector product ``entries @ x``.
    """

    domain: PNormSpace
    codomain: PNormSpace
    entries: np.ndarray

    def __post_init__(self):
        entries = _freeze(np.atleast_2d(np.asarray(self.entries, dtype=float)))
        if entries.shape != (self.codomain.dim, self.domain.dim):
            raise DimensionMismatch(
                f"matrix of shape {entries.shape} does not map dim {self.domain.dim} "
                f"into dim {self.codomain.dim}"
            )
        object.__setattr__(self, "entries", entries)


@dataclass(frozen=True)
class NormBound:
    """A certified bracket [lower, upper] around an operator norm.

    ``exact`` means the value is known (lower == upper). For bracket
    results the true norm is guaranteed to lie inside the interval.
    """

    lower: float
    upper: float
    exact: bool

    def __post_init__(self):
        if self.lower < 0 or self.upper < self.lower:
            raise ValueError(f"invalid norm bracket [{self.lower}, {self.upper}]")
        if self.exact and self.lower != self.upper:
            raise ValueError("exact norm bound must have lower == upper")

    @property
    def value(self) -> float:
        """The exact value; only meaningful when ``exact`` is true."""
        return self.lower

    def reciprocal(self) -> "NormBound":
        """Bracket of 1/x for x in this bracket, with 1/0 = inf and 1/inf = 0."""
        upper = INF if self.lower == 0.0 else 1.0 / self.lower
        lower = INF if self.upper == 0.0 else 1.0 / self.upper
        return NormBound(lower=lower, upper=upper, exact=self.exact)

    def contains(self, x: float, slack: float = 0.0) -> bool:
        return self.lower - slack <= x <= self.upper + slack


def _lp(v: np.ndarray, p: float) -> float:
    """l^p norm of a vector; for p outside {1, 2, inf} see :func:`_lp_rows`."""
    if p == INF:
        return float(np.abs(v).max()) if v.size else 0.0
    if p == 1.0:
        return float(np.abs(v).sum())
    if p == 2.0:
        return float(np.linalg.norm(v))
    return float(_lp_rows(v, p)) if v.size else 0.0


def _lp_rows(v: np.ndarray, p: float) -> np.ndarray:
    """l^p norms along the last axis for 1 < p < inf, computed scaled, as
    m * (sum (|v_i| / m)^p)^(1/p) with m = max |v_i|, so that no power
    overflows and the largest terms never underflow, for any finite p.
    A row whose m is 0 or not finite has norm m."""
    m = np.abs(v).max(axis=-1)
    scaled = (m > 0.0) & np.isfinite(m)
    div = np.where(scaled, m, 1.0)[..., None]
    return np.where(scaled, m * np.sum((np.abs(v) / div) ** p, axis=-1) ** (1.0 / p), m)


def vector_norm(space: PNormSpace, v: Vector) -> float:
    """l^p norm of ``v`` in ``space``: (sum |v_i|^p)^(1/p), or max |v_i| for p = inf."""
    if v.space != space:
        raise DimensionMismatch(f"vector lives on {v.space}, not on {space}")
    return _lp(v.coords, space.p)


# ---------------------------------------------------------------------------
# operator p-norms


def _dual_exponent(p: float) -> float:
    if p == 1.0:
        return INF
    if p == INF:
        return 1.0
    return p / (p - 1.0)


def _ascent(a: np.ndarray, p: float, starts: np.ndarray, max_iter: int = 100) -> float:
    """Best ||A x||_p by monotone ascent over the unit p-sphere, from every
    row of ``starts`` at once. Each step moves x to the unit-p-norm maximizer
    of the linearized objective, which never decreases ||A x||_p; a row is
    frozen, keeping its best, once a step fails to improve it, A x = 0, or
    x is first-order stationary.
    """
    q = _dual_exponent(p)
    x = starts / _lp_rows(starts, p)[:, None]
    best = np.zeros(len(x))
    active = np.arange(len(x))
    for _ in range(max_iter):
        xa = x[active]
        y = xa @ a.T
        ynorm = _lp_rows(y, p)
        improved = ynorm > best[active] * (1.0 + 1e-14)
        best[active] = np.fmax(best[active], ynorm)
        keep = improved & (ynorm != 0.0)
        active, xa, y, ynorm = active[keep], xa[keep], y[keep], ynorm[keep]
        # z = A^T u with u the unit-q-norm vector for which u . y = ||y||_p
        z = (np.sign(y) * (np.abs(y) / ynorm[:, None]) ** (p - 1.0)) @ a
        zq = _lp_rows(z, q)
        moving = ~(zq <= np.einsum("ij,ij->i", z, xa) * (1.0 + 1e-12))
        active, z, zq = active[moving], z[moving], zq[moving]
        if not active.size:
            break
        x[active] = np.sign(z) * (np.abs(z) / zq[:, None]) ** (q - 1.0)
    return float(best.max())


# fixed 64-bit seeds for the deterministic restarts of the p-norm search
_ASCENT_SEEDS = (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB,
                 0xD6E8FEB86659FD93, 0xA5A5A5A5A5A5A5A5, 0x0123456789ABCDEF,
                 0xFEDCBA9876543210, 0x2545F4914F6CDD1D)


def operator_norm(m: LinearMap, restarts: int = 8) -> NormBound:
    """Induced operator norm of ``m`` between equal-exponent spaces.

    Exact for p in {1, 2, inf}. Otherwise returns a bracket: the lower
    bound is the best value of a dual-vector ascent run as one block from
    ``max(restarts, 8)`` deterministic random starts, the all-ones vector
    and the coordinate direction of the largest-norm column; the upper
    bound is the interpolation bound ||A||_1^(1/p) * ||A||_inf^(1-1/p).
    Any NaN or inf entry gives ``NormBound(nan, nan, exact=False)``.
    """
    if m.domain.p != m.codomain.p:
        raise MixedExponents(
            f"operator norm needs equal exponents, got p={m.domain.p} -> p={m.codomain.p}"
        )
    p = m.domain.p
    a = m.entries
    if not np.isfinite(a).all():
        return NormBound(lower=math.nan, upper=math.nan, exact=False)
    if p == 1.0:
        return _exact_bound(float(np.abs(a).sum(axis=0).max()))
    if p == INF:
        return _exact_bound(float(np.abs(a).sum(axis=1).max()))
    if p == 2.0:
        return _exact_bound(float(np.linalg.norm(a, 2)))

    n1 = float(np.abs(a).sum(axis=0).max())
    ninf = float(np.abs(a).sum(axis=1).max())
    if n1 == 0.0 or ninf == 0.0:
        return NormBound(lower=0.0, upper=0.0, exact=False)
    upper = n1 ** (1.0 / p) * ninf ** (1.0 - 1.0 / p)

    n = a.shape[1]
    count = max(restarts, 8)
    starts = np.zeros((count + 2, n))
    starts[0] = 1.0
    starts[1, int(np.argmax(_lp_rows(a.T, p)))] = 1.0
    for k in range(count):
        rng = np.random.default_rng(_ASCENT_SEEDS[k % len(_ASCENT_SEEDS)] + k)
        starts[k + 2] = rng.uniform(-1.0, 1.0, size=n)
    lower = _ascent(a, p, starts)
    upper = max(upper, lower)  # guard the bracket against roundoff crossing
    return NormBound(lower=lower, upper=upper, exact=False)


def _exact_bound(value: float) -> NormBound:
    return NormBound(lower=value, upper=value, exact=True)


# ---------------------------------------------------------------------------
# rank, inversion


def _eliminate(a: np.ndarray, tol: float) -> int:
    """Numerical rank: the count of singular values at or above ``tol * max-entry``.

    One LAPACK SVD decides it. A matrix with a non-finite entry has rank
    0, so NaN and inf fail every rank check instead of reaching LAPACK.
    """
    scale = float(np.abs(a).max()) if a.size else 0.0
    if scale == 0.0 or not math.isfinite(scale):
        return 0
    return int(np.count_nonzero(np.linalg.svd(a, compute_uv=False) >= tol * scale))


def _require_rank(a: np.ndarray, tol: float, error: type[_RankError], what: str) -> None:
    """Raise ``error`` carrying the rank when square ``a`` is singular at ``tol``."""
    n = a.shape[0]
    found = _eliminate(a, tol)
    if found < n:
        raise error(f"{what} is singular at tol={tol:g}: rank {found} of {n}", rank=found)


def _within(a: np.ndarray, b: np.ndarray | float, tol: float) -> bool:
    """The absolute criterion test ``max|a - b| <= tol``, entrywise; NaN fails it."""
    return float(np.abs(a - b).max()) <= tol


def rank(m: LinearMap, tol: float = DEFAULT_TOL) -> int:
    """Numerical rank of ``m``: singular values at or above ``tol * max-entry``.

    Any NaN or inf entry gives rank 0.
    """
    return _eliminate(m.entries, tol)


def invert(m: LinearMap, tol: float = DEFAULT_TOL) -> LinearMap:
    """Inverse of a square map, or :class:`Singular` if its rank falls short.

    The map is singular when fewer than ``dim`` singular values reach
    ``tol * max-entry`` (see :func:`rank`), or in double precision, when LU
    meets an exactly zero pivot or the inverse overflows; the exception carries
    the rank.

    The inverse is polished with a Newton step when the raw residual
    ``max-entry(A M - I)`` exceeds a fraction of ``tol``, so results stay
    usable up to condition numbers around 1e6.
    """
    inv, _ = invert_with_rcond(m, tol)
    return inv


def invert_with_rcond(m: LinearMap, tol: float = DEFAULT_TOL) -> tuple[LinearMap, float]:
    """Like :func:`invert` but also reports the reciprocal condition estimate.

    The estimate is 1 / (||A||_1 * ||A^-1||_1); it is 1 for scalar maps
    and shrinks toward 0 as the map approaches singularity.
    """
    if m.domain.dim != m.codomain.dim:
        raise NonSquare(f"cannot invert a {m.entries.shape} map")
    a = m.entries
    n = a.shape[0]
    _require_rank(a, tol, Singular, "matrix")
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        inv = None
    if inv is None or not np.isfinite(inv).all():
        found = min(int(np.linalg.matrix_rank(a)), n - 1)
        raise Singular(f"matrix is singular in double precision: rank {found} of {n}", rank=found)
    eye = np.eye(n)
    for _ in range(2):
        residual = eye - a @ inv
        if float(np.abs(residual).max()) <= 0.25 * tol:
            break
        polished = inv + inv @ residual
        if not float(np.abs(eye - a @ polished).max()) < float(np.abs(residual).max()):
            break
        inv = polished
    norm1 = float(np.abs(a).sum(axis=0).max())
    inorm1 = float(np.abs(inv).sum(axis=0).max())
    rcond = 1.0 / (norm1 * inorm1) if norm1 * inorm1 > 0 else 0.0
    return LinearMap(domain=m.codomain, codomain=m.domain, entries=inv), rcond


# ---------------------------------------------------------------------------
# algebra


def compose(a: LinearMap, b: LinearMap) -> LinearMap:
    """The composition a after b, i.e. the matrix product a.entries @ b.entries."""
    if a.domain.dim != b.codomain.dim:
        raise DimensionMismatch(
            f"cannot compose: inner dims {a.domain.dim} and {b.codomain.dim} differ"
        )
    return LinearMap(domain=b.domain, codomain=a.codomain, entries=a.entries @ b.entries)


def identity(space: PNormSpace) -> LinearMap:
    """The identity map on ``space``."""
    return LinearMap(domain=space, codomain=space, entries=np.eye(space.dim))


def apply(m: LinearMap, v: Vector) -> Vector:
    """Apply ``m`` to ``v``; the result lives on the codomain."""
    if v.space.dim != m.domain.dim:
        raise DimensionMismatch(
            f"vector of dim {v.space.dim} does not fit domain of dim {m.domain.dim}"
        )
    return Vector(space=m.codomain, coords=m.entries @ v.coords)

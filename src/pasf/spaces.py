"""Finite-dimensional l^p spaces, vectors, and dense linear maps.

This is the numeric substrate for the whole package: coordinate spaces
carrying an l^p norm (p in [1, inf], inf represented by ``math.inf``),
immutable vectors and matrices living on them, numerical rank from the
singular values (one LAPACK call), inversion guarded by that rank, and
induced operator p-norms. Where an approximate inverse is already at
hand, a residual bound proves full rank without the SVD, and only when
the SVD would find it too.

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

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, MixedExponents, NonSquare, Singular, _RankError

#: Default relative singularity tolerance: singular values below
#: ``tol * max-entry`` are treated as zero. Chosen for double-precision
#: headroom at the scales this package targets (dimensions up to 64).
DEFAULT_TOL = 1e-9

#: Sentinel for the sup-norm exponent.
INF = math.inf

_EPS = float(np.finfo(float).eps)
_MAX_DOUBLE = float(np.finfo(float).max)


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


def _freeze(arr, ndmin: int) -> np.ndarray:
    """A read-only, C-ordered float64 copy of ``arr``, with at least ``ndmin`` dimensions:
    the one place a stored matrix's layout is set, so answers depend on its values only."""
    return _sealed(np.array(arr, dtype=float, ndmin=ndmin, order="C"))


def _sealed(arr: np.ndarray) -> np.ndarray:
    """``arr``, marked read-only."""
    arr.setflags(write=False)
    return arr


def _absmax(a: np.ndarray) -> float:
    """max|a_ij| of a non-empty array; NaN if any entry is NaN, so it
    doubles as a finiteness test."""
    return float(np.abs(a).max())


def _exponent(a: np.ndarray) -> int:
    """The e with max|a| in [2^(e-1), 2^e), or 0 for an empty, zero or non-finite ``a``."""
    return math.frexp(_absmax(a))[1] if a.size else 0


def _scaled(a: np.ndarray, e: int | None = None) -> tuple[np.ndarray, int]:
    """(a 2^-e, e), by default for e = ``_exponent(a)``, which brings max|a|
    into [1/2, 1): the one owner of power-of-two scaling. Scaling is exact
    unless it leaves the double range; past the top an entry is inf,
    silently, so a value scaled back overflows only where the true value
    does. At e = 0 it returns ``a`` itself."""
    if e is None:
        e = _exponent(a)
    if e == 0:
        return a, 0
    if e > 0:  # scaling down, which cannot overflow
        return np.ldexp(a, -e), e
    with np.errstate(over="ignore"):
        return np.ldexp(a, -e), e


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, formed silently. A finite entry keeps its bits, since none of
    its terms overflowed; only where an entry is not finite and both factors
    are finite and nonzero is it formed again on a and b scaled by their
    largest entries (see ``_scaled``) and scaled back, so it overflows only
    where its true value does. A non-finite factor gives inf or NaN."""
    with np.errstate(over="ignore", invalid="ignore"):
        product = a @ b
    if not _absmax(product) < INF and all(0.0 < _absmax(m) < INF for m in (a, b)):
        (a, ea), (b, eb) = _scaled(a), _scaled(b)
        np.copyto(product, _scaled(a @ b, -ea - eb)[0], where=~np.isfinite(product))
    return product


@dataclass(frozen=True, eq=False)
class Vector:
    """An element of a :class:`PNormSpace`, stored as a dense coordinate array."""

    space: PNormSpace
    coords: np.ndarray

    def __post_init__(self):
        coords = _freeze(self.coords, 1)
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
        entries = _freeze(self.entries, 2)
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
    results the true norm lies inside the interval up to rounding: neither
    end is rounded outward yet, so 3 I on l^3_3 gets [3.0000000000000004,
    3.0000000000000004], one ulp above its norm.
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
    """l^p norm of a vector; for p outside {1, inf} see :func:`_lp_rows`."""
    if p == INF:
        return _absmax(v) if v.size else 0.0
    if p == 1.0:
        return float(np.abs(v).sum())
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


def _ascent(a: np.ndarray, p: float, starts: np.ndarray, max_iter: int = 100) -> float:
    """Best ||A x||_p by monotone ascent over the unit p-sphere, from every
    row of ``starts`` at once. Each step moves x to the unit-p-norm maximizer
    of the linearized objective, which never decreases ||A x||_p; a row is
    frozen, keeping its best, once x is first-order stationary within 1e-12,
    A x = 0 included, or after ``max_iter`` steps.

    Each half-step raises every entry to one power: with r = |v| / m for m
    the row's largest |v_i| and s = r^(e-1) . r, the norm is m s^(1/e), and
    the next dual or primal vector is copysign(r^(e-1), v) times the row
    factor s^(1/e) / s. The factor commutes with the matrix product, so it
    is kept apart (``cx`` for x) or, for u, cancels from the stationarity
    test. With x short of ``cx``, z . x = u . y = m_y s_y exactly, so the
    test needs no dot product of its own. A row's value ||A x||_p =
    cx m_y s_y^(1/p) is read once, on the step it stops (the last step, at
    ``max_iter``): the ascent never decreases it, so up to rounding that
    is the row's best. Rows that stop leave the block; ``done`` keeps their best, and
    a NaN value never replaces it.
    """
    q = p / (p - 1.0)  # the dual exponent; operator_norm sends only 1 < p < inf here
    # keeps every m > 0: a zero row (A x = 0 or A^T u = 0) divides to r = 0,
    # so its norm is 0 and the stationarity test freezes it, with no 0 / 0 formed
    floor = math.ulp(0.0)
    x = starts
    cx = 1.0 / _lp_rows(starts, p)
    done = 0.0
    for step in range(max_iter):
        y = x @ a.T
        r = np.abs(y)
        my = r.max(axis=1, initial=floor)
        r /= my[:, None]
        w = r ** (p - 1.0)
        sy = np.vecdot(w, r)
        # z = A^T u, short of u's row factor, for the unit-q-norm u with u . y = ||y||_p
        z = np.copysign(w, y) @ a
        r = np.abs(z)
        m = r.max(axis=1, initial=floor)
        r /= m[:, None]
        w = r ** (q - 1.0)
        s = np.vecdot(w, r)
        root = s ** (1.0 / q)
        # a row moves on while ||z||_q > z . x (1 + 1e-12), with z . x = m_y s_y
        moving = m * root > cx * my * sy * (1.0 + 1e-12)
        if step == max_iter - 1:  # the cap: every row still moving stops here
            moving[:] = False
        # count_nonzero is the cheapest all-rows test on these short vectors
        if np.count_nonzero(moving) < moving.size:
            stop = ~moving
            value = cx[stop] * my[stop] * sy[stop] ** (1.0 / p)
            # fmax.reduce skips NaN; max(done, nan) keeps done
            done = max(done, float(np.fmax.reduce(value)))
            z, w, s, root = z[moving], w[moving], s[moving], root[moving]
            if not s.size:
                break
        x = np.copysign(w, z)
        cx = root / s
    return done


# the 64-bit seed of the p-norm search's uniform starts
_ASCENT_SEED = 0x9E3779B97F4A7C15


@functools.lru_cache(maxsize=64)
def _seeded_starts(n: int, count: int) -> np.ndarray:
    """The ``count`` uniform starts in [-1, 1)^n, the rows of one row-major
    portable-generator fill from seed 0x9E3779B97F4A7C15 (so more starts
    extend fewer), built once per (n, count) and returned read-only."""
    from .generators import PortableRng  # here, not at the top: generators imports spaces
    return _sealed(PortableRng(_ASCENT_SEED).matrix(count, n))


def operator_norm(m: LinearMap, restarts: int = 8) -> NormBound:
    """Induced operator norm of ``m`` between equal-exponent spaces.

    Exact for p in {1, 2, inf}. Otherwise returns a bracket: the lower
    bound is the best value of a dual-vector ascent run as one block from
    the all-ones vector, the largest-norm column's coordinate direction and
    ``max(restarts, 8)`` uniform starts, one row-major ``PortableRng`` fill
    from seed 0x9E3779B97F4A7C15; the upper bound is the interpolation
    bound ||A||_1^(1/p) * ||A||_inf^(1-1/p).
    Any NaN or inf entry gives ``NormBound(nan, nan, exact=False)``.

    The sums and the search run on A scaled by the power of two 2^-e that
    brings max|a_ij| into [1/2, 1) (see ``_scaled``), so no step overflows;
    their results are scaled back by 2^e, a sum past the double range to
    inf and the search's lower bound to the largest double.
    """
    if m.domain.p != m.codomain.p:
        raise MixedExponents(
            f"operator norm needs equal exponents, got p={m.domain.p} -> p={m.codomain.p}"
        )
    p = m.domain.p
    a = m.entries
    top = _absmax(a)
    if not math.isfinite(top):
        return NormBound(lower=math.nan, upper=math.nan, exact=False)
    if p == 2.0:
        return _exact_bound(float(np.linalg.norm(a, 2)))
    a, e = _scaled(a, math.frexp(top)[1])
    if p == INF:
        return _exact_bound(_ldexp(float(np.abs(a).sum(axis=1).max()), e))
    n1 = _ldexp(float(np.abs(a).sum(axis=0).max()), e)
    if p == 1.0:
        return _exact_bound(n1)
    ninf = _ldexp(float(np.abs(a).sum(axis=1).max()), e)
    upper = n1 ** (1.0 / p) * ninf ** (1.0 - 1.0 / p)

    n = a.shape[1]
    count = max(restarts, 8)
    starts = np.zeros((count + 2, n))
    starts[0] = 1.0
    starts[1, int(np.argmax(_lp_rows(a.T, p)))] = 1.0
    starts[2:] = _seeded_starts(n, count)
    lower = min(_ldexp(_ascent(a, p, starts), e), _MAX_DOUBLE)
    upper = max(upper, lower)  # guard the bracket against roundoff crossing
    return NormBound(lower=lower, upper=upper, exact=False)


def _ldexp(x: float, e: int) -> float:
    """x * 2^e, or inf where that leaves the double range."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return INF


def _exact_bound(value: float) -> NormBound:
    return NormBound(lower=value, upper=value, exact=True)


# ---------------------------------------------------------------------------
# rank, inversion


def _eliminate(a: np.ndarray, tol: float) -> int:
    """Numerical rank: the count of singular values at or above ``tol * max-entry``.

    One LAPACK SVD decides it. A matrix with a non-finite entry has rank
    0, so NaN and inf fail every rank check instead of reaching LAPACK.
    """
    scale = _absmax(a) if a.size else 0.0
    if scale == 0.0 or not math.isfinite(scale):
        return 0
    return int(np.count_nonzero(np.linalg.svd(a, compute_uv=False) >= tol * scale))


#: Rounding allowance c of the full-rank certificate, in units of
#: (dimension) * eps * ||a||_F: it covers forming the residual and the
#: SVD's own error in the singular values that :func:`_eliminate` counts.
_CERT_SLACK = 8.0


def _certified(a: np.ndarray, tol: float, inv: np.ndarray | None) -> bool:
    """Whether the approximate one-sided inverse ``inv`` proves that
    :func:`_eliminate` finds ``a`` of full rank at ``tol``, with no SVD.

    With R = I - inv @ a for a tall ``a`` and R = I - a @ inv otherwise,
    the smallest singular value is at least (1 - ||R|| - rho) / ||inv|| in
    Frobenius norms, where rho = c (n + 2) eps ||a|| ||inv|| bounds the
    rounding in R (S. M. Rump, Acta Numerica 19, 2010). The answer is True
    only when that bound clears tol max|a| + c n eps ||a||. The SVD finds
    each singular value within c n eps ||a|| (Golub and Van Loan, section
    8.6), so it finds the smallest at or above tol max|a|, the threshold of
    :func:`_eliminate`, which then counts the full rank too; no further
    margin is needed. False means "not proved", never "singular": a
    missing, non-finite or poor ``inv`` gives False. R and all else are
    formed on a and inv scaled by 2^-e and 2^e (see ``_scaled``), which is
    exact and keeps every product finite.
    """
    if inv is None:
        return False
    scale = _absmax(a)
    xmax = _absmax(inv)
    if not (0.0 < scale < INF and 0.0 < xmax < INF):
        return False
    e = math.frexp(scale)[1]
    # ||a|| ||inv|| >= 2^(e + ex - 2), and past 2^50 no bound clears c n eps ||a||
    if e + math.frexp(xmax)[1] > 52:
        return False
    a, inv = _scaled(a, e)[0], _scaled(inv, -e)[0]
    product = inv @ a if a.shape[0] > a.shape[1] else a @ inv
    # -R in place, whose norm is R's; the fresh product is contiguous, so ravel is a view
    product.ravel()[:: len(product) + 1] -= 1.0
    r = float(np.linalg.norm(product))
    if not r < 0.5:
        return False
    n = max(a.shape)
    unit = _CERT_SLACK * _EPS * float(np.linalg.norm(a))  # c eps ||a||
    xnorm = float(np.linalg.norm(inv))
    bound = (1.0 - r - unit * (n + 2) * xnorm) / xnorm
    threshold = tol * math.ldexp(scale, -e)
    return bound >= threshold + unit * n


def _rank(a: np.ndarray, tol: float, inv: np.ndarray | None = None) -> int:
    """``_eliminate(a, tol)``, with no SVD when the approximate one-sided
    inverse ``inv`` lets :func:`_certified` prove the full ``min(a.shape)``."""
    return min(a.shape) if _certified(a, tol, inv) else _eliminate(a, tol)


def _require_rank(a: np.ndarray, tol: float, error: type[_RankError], what: str,
                  inv: np.ndarray | None = None) -> None:
    """Raise ``error`` carrying the rank when square ``a`` is singular at
    ``tol`` (see :func:`_rank`)."""
    found, n = _rank(a, tol, inv), a.shape[0]
    if found < n:
        raise error(f"{what} is singular at tol={tol:g}: rank {found} of {n}", rank=found)


def _agrees(diff: float, tol: float, scale: float,
            summands: Callable[[], float] = lambda: 0.0, n: int = 0) -> bool:
    """The one rule of every verdict and cross-check: ``diff`` passes when at most
    tol × max(1, scale) plus the rounding on the largest ``summands`` of a cancellation
    over ``n`` terms, 32 n^2 eps each, tested as (diff - rounding) / max(1, scale) <= tol
    so that nothing overflows. Within tol it passes and NaN or inf fails, with ``summands``
    unread; past tol it is read silently, and rounding past the double range bounds nothing."""
    if not tol < diff < INF:
        return diff <= tol
    with np.errstate(over="ignore", invalid="ignore"):
        rounding = 32.0 * n * n * _EPS * summands()
        return rounding < INF and (diff - rounding) / max(1.0, scale) <= tol


def _product_agrees(a: np.ndarray, b: np.ndarray, target: np.ndarray | float, tol: float) -> bool:
    """Whether a @ b equals ``target`` under :func:`_agrees`: scaled by the
    target, with the rounding on the largest entry of |a| |b|."""
    return _agrees(_residual(a, b, target), tol, _absmax(np.asarray(target)),
                   lambda: _absmax(np.abs(a) @ np.abs(b)), a.shape[1])


def _residual(a: np.ndarray, b: np.ndarray, target: np.ndarray | float) -> float:
    """max|a @ b - target|, a @ b by ``_product``: past the double range it is inf or NaN and fails."""
    product = _product(a, b)
    with np.errstate(over="ignore", invalid="ignore"):
        product -= target
    return _absmax(product)


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
    the rank. A map with a NaN or inf entry has rank 0.

    The inverse is LU's (``np.linalg.inv``), unrefined: its residual sits
    near the rounding floor cond(A) eps, which no working-precision Newton
    step gets below (N. J. Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 2002, ch. 14). It certifies full rank when it can
    (see ``_certified``); only when it cannot does the SVD decide it.
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
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        inv = None
    if inv is None or not np.isfinite(inv).all():
        # a non-finite map, which has rank 0, raises here or at the certificate below
        _require_rank(a, tol, Singular, "matrix")
        found = min(int(np.linalg.matrix_rank(a)), n - 1)
        raise Singular(f"matrix is singular in double precision: rank {found} of {n}", rank=found)
    _require_rank(a, tol, Singular, "matrix", inv)
    # both column-sum norms on scaled copies, in [1/2, n], so no sum overflows
    (sa, ea), (sinv, einv) = _scaled(a), _scaled(inv)
    norms = float(np.abs(sa).sum(axis=0).max()) * float(np.abs(sinv).sum(axis=0).max())
    rcond = _ldexp(1.0 / norms, -ea - einv)
    return LinearMap(domain=m.codomain, codomain=m.domain, entries=inv), rcond


# ---------------------------------------------------------------------------
# algebra


def compose(a: LinearMap, b: LinearMap) -> LinearMap:
    """The composition a after b: the matrix product a.entries @ b.entries, formed silently by ``_product``."""
    if a.domain.dim != b.codomain.dim:
        raise DimensionMismatch(
            f"cannot compose: inner dims {a.domain.dim} and {b.codomain.dim} differ"
        )
    return LinearMap(domain=b.domain, codomain=a.codomain, entries=_product(a.entries, b.entries))


def identity(space: PNormSpace) -> LinearMap:
    """The identity map on ``space``."""
    return LinearMap(domain=space, codomain=space, entries=np.eye(space.dim))


def apply(m: LinearMap, v: Vector) -> Vector:
    """Apply ``m`` to ``v``, the product formed silently by ``_product``; the result lives on the codomain."""
    if v.space.dim != m.domain.dim:
        raise DimensionMismatch(
            f"vector of dim {v.space.dim} does not fit domain of dim {m.domain.dim}"
        )
    return Vector(space=m.codomain, coords=_product(m.entries, v.coords))

"""Deterministic instance generation and brute-force oracles.

Random frames, duals, and orthogonal Parseval pairs for tests and for
the CLI sampler, built on a portable PRNG so the same seed reproduces
the same instance bit for bit on every platform and in every language
that reimplements it.

The PRNG is a 64-bit linear congruential generator with a bit-shuffle
output stage (not the platform default generator):

    state    <- (state * 6364136223846793005 + 1442695040888963407) mod 2^64
    output   <- shuffle(state) where shuffle is the splitmix64 finalizer:
                x ^= x >> 30;  x *= 0xBF58476D1CE4E5B9
                x ^= x >> 27;  x *= 0x94D049BB133111EB
                x ^= x >> 31

Uniform doubles in [0, 1) take the top 53 bits of the output. The
reconstruction oracle at the bottom is deliberately primitive: it sums
rank-one actions coordinate by coordinate, sharing no code path with
the operator-composition criterion it corroborates.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import GateSingular, GenerationFailed, InsufficientCoordinates, NotAFrame
from .duality import DualCandidate, dual_from_parameters
from .frames import FramePair, _factored
from .spaces import DEFAULT_TOL, LinearMap, PNormSpace

#: Seeds are plain 64-bit unsigned integers (wider ints are masked).
Seed = int

_MASK64 = (1 << 64) - 1
_MULT = 6364136223846793005
_INC = 1442695040888963407

#: Frames are resampled until their reciprocal condition reaches this.
_MIN_RCOND = 1e-6
_MAX_REJECTS = 100


@functools.lru_cache(maxsize=64)
def _jump_table(count: int) -> tuple[np.ndarray, np.ndarray]:
    """The affine maps that advance the LCG by k = 1..count steps:
    state_k = mult[k-1] * state + inc[k-1] with mult = MULT^k and
    inc = INC * (MULT^(k-1) + ... + 1), all mod 2^64. They do not depend on
    the state, so they are built once per ``count``, by doubling, and
    returned read-only."""
    mult = np.empty(count, dtype=np.uint64)
    inc = np.empty(count, dtype=np.uint64)
    mult[0], inc[0] = _MULT, _INC
    # (m, c) advances `filled` steps; entry filled + k is entry k applied after it
    m, c, filled = _MULT, _INC, 1
    while filled < count:
        take = min(filled, count - filled)
        mult[filled:filled + take] = mult[:take] * np.uint64(m)
        inc[filled:filled + take] = mult[:take] * np.uint64(c) + inc[:take]
        m, c = (m * m) & _MASK64, (m * c + c) & _MASK64
        filled += take
    mult.setflags(write=False)
    inc.setflags(write=False)
    return mult, inc


class PortableRng:
    """The fixed LCG-plus-shuffle generator described in the module docs."""

    def __init__(self, seed: Seed):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state * _MULT + _INC) & _MASK64
        x = self._state
        x ^= x >> 30
        x = (x * 0xBF58476D1CE4E5B9) & _MASK64
        x ^= x >> 27
        x = (x * 0x94D049BB133111EB) & _MASK64
        x ^= x >> 31
        return x

    def uniform(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def uniform_signed(self) -> float:
        """Uniform double in [-1, 1)."""
        return 2.0 * self.uniform() - 1.0

    def randint(self, n: int) -> int:
        """Uniform-ish integer in [0, n); n must be positive."""
        return self.next_u64() % n

    def matrix(self, rows: int, cols: int, scale: float = 1.0) -> np.ndarray:
        """rows x cols matrix with entries uniform in [-scale, scale), row-major fill.

        Bit-identical to ``scale * uniform_signed()`` called rows * cols
        times, but vectorised: the LCG states are one affine map of the
        current state each (see :func:`_jump_table`), in uint64, which wraps
        mod 2^64, then shuffled and mapped to doubles as whole arrays.
        """
        count = rows * cols
        if count == 0:
            return np.zeros((rows, cols))
        mult, inc = _jump_table(count)
        states = mult * np.uint64(self._state) + inc
        self._state = int(states[-1])
        x = states ^ (states >> np.uint64(30))
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
        uniform = (x >> np.uint64(11)).astype(float) * 2.0 ** -53
        return (scale * (2.0 * uniform - 1.0)).reshape(rows, cols)

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n)."""
        perm = np.arange(n)
        for i in range(n - 1, 0, -1):
            j = self.randint(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        return perm


def random_frame(
    d: int,
    n: int,
    p: float = 2.0,
    q: float | None = None,
    seed: Seed = 0,
    min_rcond: float = _MIN_RCOND,
) -> FramePair:
    """A random valid frame: entries uniform in [-1, 1], resampled until
    the frame operator is comfortably invertible (rcond >= 1e-6).

    ``q`` defaults to ``p``. Dimensions are limited to 1 <= d <= n <= 64.
    ``min_rcond`` raises the conditioning floor; tests of identities that
    double precision can only express on well-conditioned instances draw
    with a stricter floor than the 1e-6 default.
    """
    if not 1 <= d <= n <= 64:
        raise ValueError(f"need 1 <= d <= n <= 64, got d={d}, n={n}")
    if q is None:
        q = p
    x_space = PNormSpace(dim=d, p=q)
    seq_space = PNormSpace(dim=n, p=p)
    rng = PortableRng(seed)
    for _ in range(_MAX_REJECTS):
        frame = FramePair(
            x_space=x_space,
            seq_space=seq_space,
            functionals=rng.matrix(n, d),
            vectors=rng.matrix(d, n),
        )
        try:
            _, _, rcond = _factored(frame, DEFAULT_TOL)
        except NotAFrame:
            continue
        if rcond >= min_rcond:
            return frame
    raise GenerationFailed(f"no well-conditioned frame in {_MAX_REJECTS} draws for seed {seed}")


def random_dual(frame: FramePair, seed: Seed) -> DualCandidate:
    """Sample the dual family, scaling (U, V) by 1/(n*d) to keep the gate
    operator well conditioned; retries on a singular gate."""
    d, n = frame.dim, frame.count
    rng = PortableRng(seed)
    scale = 1.0 / (n * d)
    for _ in range(_MAX_REJECTS):
        u = LinearMap(domain=frame.x_space, codomain=frame.seq_space, entries=rng.matrix(n, d, scale))
        v = LinearMap(domain=frame.seq_space, codomain=frame.x_space, entries=rng.matrix(d, n, scale))
        try:
            return dual_from_parameters(frame, u, v)
        except GateSingular:
            continue
    raise GenerationFailed(f"no invertible gate in {_MAX_REJECTS} draws for seed {seed}")


def random_orthogonal_parseval_pair(
    d: int, n: int, p: float = 2.0, seed: Seed = 0
) -> tuple[FramePair, FramePair]:
    """Two mutually orthogonal Parseval frames on shared spaces.

    The construction places the two frames on disjoint blocks of the
    sequence coordinates (frame1 on the first d, frame2 on the next d)
    and then relabels all n coordinates by a random permutation; the
    relabeling is an isometry of every l^p norm, so both frames stay
    exactly Parseval. Needs n >= 2d.
    """
    if n < 2 * d:
        raise InsufficientCoordinates(f"orthogonal pair needs n >= 2d, got n={n}, d={d}")
    rng = PortableRng(seed)
    perm = rng.permutation(n)
    x_space = PNormSpace(dim=d, p=p)
    seq_space = PNormSpace(dim=n, p=p)

    def block_frame(offset: int) -> FramePair:
        functionals = np.zeros((n, d))
        vectors = np.zeros((d, n))
        for k in range(d):
            slot = int(perm[offset + k])
            functionals[slot, k] = 1.0
            vectors[k, slot] = 1.0
        return FramePair(
            x_space=x_space, seq_space=seq_space, functionals=functionals, vectors=vectors
        )

    return block_frame(0), block_frame(d)


def reconstruction_oracle(frame: FramePair, cand: FramePair, tol: float = DEFAULT_TOL) -> bool:
    """Duality oracle by direct summation on the standard basis of x_space.

    Checks x = sum_k g_k(x) tau_k and x = sum_k f_k(x) omega_k for every
    basis vector x = e_i, accumulating the sums term by term without any
    operator composition. Independent corroboration for ``is_dual``.
    """
    if frame.x_space.dim != cand.x_space.dim or frame.count != cand.count:
        return False
    d, n = frame.dim, frame.count
    for i in range(d):
        x = np.zeros(d)
        x[i] = 1.0
        through_cand = np.zeros(d)
        through_frame = np.zeros(d)
        for k in range(n):
            through_cand += float(np.dot(cand.functionals[k], x)) * frame.vectors[:, k]
            through_frame += float(np.dot(frame.functionals[k], x)) * cand.vectors[:, k]
        # written so that NaN fails too
        if not float(np.abs(through_cand - x).max()) <= tol:
            return False
        if not float(np.abs(through_frame - x).max()) <= tol:
            return False
    return True

"""Verdicts and rank certificates held to exact rational arithmetic.

Each case starts from a frame whose algebra is exact in binary: the
columns of a Sylvester-Hadamard matrix H give a Parseval frame
(H_1, H_1^T / n), an orthogonal partner (H_2, H_2^T / n) and, when
square, a frame whose only dual is its canonical one. A perturbation
eps D, with D dyadic (entries exact binary fractions), moves one product
of a criterion off its target by about eps max|D|, for eps in {tol/8,
tol/2, 2 tol, 8 tol}. ``tests/exact.py`` then measures the stored
matrices' true residual, and the verdict is asserted wherever that
residual lies outside the band [tol/4, 4 tol]: True below it, False
above it. Inside the band rounding may decide either way. The same band
holds interpolation's contract C A + D B = I, exact at A = B = I and
C = D = I/2 before C moves by eps D, and in its scalar form at
(a, b, c, d) = (1, 1, 1/2 + eps, 1/2), and validate's rank verdicts on
f = H_1 D and tau = D^-1 H_1^T / n, whose singular values are exact
for a diagonal D in powers of two.

The rank certificate is held to H D H^T / n for a diagonal dyadic D,
whose singular values are exactly |D_ii|: it must never prove full rank
where the smallest of them is below the threshold tol max|a|, nor on an
exactly singular map, whatever inverse it is handed.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from pasf import (
    DEFAULT_TOL,
    ContractViolated,
    FramePair,
    InterpolationOperators,
    LinearMap,
    PNormSpace,
    are_similar,
    has_unique_dual,
    interpolate,
    is_dual,
    is_orthogonal,
    scalar_interpolate,
    validate,
)
from pasf.frames import _parseval
from pasf.spaces import _certified, _rank

import exact

TOL = DEFAULT_TOL
EPSILONS = [TOL / 8, TOL / 2, 2 * TOL, 8 * TOL]
SHAPES = [(2, 4), (4, 8), (8, 16)]


def hadamard(n):
    """The n x n Sylvester-Hadamard matrix, n a power of two: entries +-1, H H^T = n I."""
    h = np.ones((1, 1))
    while len(h) < n:
        h = np.block([[h, h], [h, -h]])
    return h


def dyadic(rows, cols, seed):
    """A random matrix of entries in {0, +-1/2, +-1}, with max|D| = 1."""
    d = np.random.default_rng(seed).integers(-2, 3, size=(rows, cols)) / 2.0
    d[0, 0] = 1.0
    return d


def frame(functionals, vectors):
    n, d = functionals.shape
    return FramePair(PNormSpace(d, 2.0), PNormSpace(n, 2.0), functionals, vectors)


def hadamard_pair(d, n):
    """An orthogonal pair of Parseval frames from the first d and the next
    d columns of H; with n = d, one frame whose f tau = I exactly."""
    h = hadamard(n)
    first, second = h[:, :d], h[:, d:2 * d]
    return frame(first, first.T / n), frame(second, second.T / n) if 2 * d <= n else None


def exact_gap(a, b):
    """max|a - b| of two equally shaped lists of exact Fractions, as a float."""
    return float(max(abs(x - y) for row_a, row_b in zip(a, b) for x, y in zip(row_a, row_b)))


def residual(a, b, target):
    """The exact max|a b - target| of the stored float matrices."""
    return exact_gap(exact.product(exact.exact(a), exact.exact(b)), exact.exact(target))


def assert_verdict(verdict, exact_residual, eps):
    """The verdict on a case whose true residual is ``exact_residual``."""
    if eps in (TOL / 8, 8 * TOL):  # the cases the band leaves decidable
        assert not TOL / 4 < exact_residual < 4 * TOL
    if exact_residual <= TOL / 4:
        assert verdict is True
    elif exact_residual >= 4 * TOL:
        assert verdict is False


# ---------------------------------------------------------------------------
# verdicts


@pytest.mark.parametrize("eps", EPSILONS)
@pytest.mark.parametrize("d, n", SHAPES)
@pytest.mark.parametrize("side", ["functionals", "vectors"])
def test_is_dual_against_exact_residuals(d, n, eps, side):
    base = hadamard_pair(d, n)[0]
    f, t, e = base.functionals, base.vectors, dyadic(d, d, n)
    # the dual is the frame itself (S = I): tau (f + eps f D) = I + eps D, (tau + eps D tau) f likewise
    if side == "functionals":
        cand = frame(f + eps * (f @ e), t)
    else:
        cand = frame(f, t + eps * (e @ t))
    eye = np.eye(d)
    found = max(residual(t, cand.functionals, eye), residual(cand.vectors, f, eye))
    assert_verdict(is_dual(base, cand), found, eps)
    assert_verdict(is_dual(cand, base), found, eps)


@pytest.mark.parametrize("eps", EPSILONS)
@pytest.mark.parametrize("d, n", SHAPES)
def test_is_orthogonal_against_exact_residuals(d, n, eps):
    first, second = hadamard_pair(d, n)
    # tau_1 (g + eps f_1 D) = eps D, since tau_1 g = 0 and tau_1 f_1 = I
    moved = frame(second.functionals + eps * (first.functionals @ dyadic(d, d, n)), second.vectors)
    zero = np.zeros((d, d))
    found = max(residual(first.vectors, moved.functionals, zero), residual(moved.vectors, first.functionals, zero))
    assert_verdict(is_orthogonal(first, moved), found, eps)
    assert_verdict(is_orthogonal(moved, first), found, eps)


@pytest.mark.parametrize("eps", EPSILONS)
@pytest.mark.parametrize("d, n", SHAPES)
def test_parseval_against_exact_residuals(d, n, eps):
    base = hadamard_pair(d, n)[0]
    # S = tau (f + eps f D) = I + eps D, whose scale max(1, max|S|) is 1 + eps
    moved = frame(base.functionals + eps * (base.functionals @ dyadic(d, d, n)), base.vectors)
    found = residual(moved.vectors, moved.functionals, np.eye(d))
    scale = max(1.0, float(np.abs(moved.vectors @ moved.functionals).max()))
    assert_verdict(_parseval(moved, TOL), found / scale, eps)


@pytest.mark.parametrize("eps", EPSILONS)
@pytest.mark.parametrize("d", [2, 4, 8, 16])
def test_has_unique_dual_against_exact_residuals(d, eps):
    base = hadamard_pair(d, d)[0]
    # a square frame with f tau = I exactly; (f + eps D f) tau = I + eps D
    moved = frame(base.functionals + eps * (dyadic(d, d, d) @ base.functionals), base.vectors)
    found = residual(moved.functionals, moved.vectors, np.eye(d))
    assert_verdict(has_unique_dual(moved), found, eps)


@pytest.mark.parametrize("eps", EPSILONS)
@pytest.mark.parametrize("d, n", SHAPES)
def test_are_similar_against_exact_projections(d, n, eps):
    first, second = hadamard_pair(d, n)
    # tau + eps D tau_2 keeps S = I, since tau_2 f = 0, and moves P by eps f D tau_2;
    # n e_1 e_1^T makes that eps h_1 h_(d+1)^T, of max exactly eps
    e = np.zeros((d, d))
    e[0, 0] = n
    moved = frame(first.functionals, first.vectors + eps * (e @ second.vectors))
    p1 = exact.projection(first.functionals, first.vectors)
    p2 = exact.projection(moved.functionals, moved.vectors)
    scale = max(1.0, float(max(abs(x) for row in p1 + p2 for x in row)))
    found = exact_gap(p1, p2) / scale
    assert_verdict(are_similar(first, moved), found, eps)
    assert_verdict(are_similar(moved, first), found, eps)


@pytest.mark.parametrize("eps", EPSILONS)
@pytest.mark.parametrize("d, n", SHAPES)
def test_interpolation_contract_against_exact_residuals(d, n, eps):
    first, second = hadamard_pair(d, n)
    # C A + D B = I exactly at A = B = I and C = D = I / 2; C + eps E moves it by eps E
    a = b = np.eye(d)
    c, dd = np.eye(d) / 2 + eps * dyadic(d, d, n), np.eye(d) / 2
    ca, db = exact.product(exact.exact(c), exact.exact(a)), exact.product(exact.exact(dd), exact.exact(b))
    found = exact_gap([[x + y for x, y in zip(*rows)] for rows in zip(ca, db)], exact.exact(np.eye(d)))
    space = first.x_space
    try:
        interpolate(first, second, InterpolationOperators(*(LinearMap(space, space, m) for m in (a, b, c, dd))))
    except ContractViolated:
        holds = False
    else:
        holds = True
    assert_verdict(holds, found, eps)
    # the scalar form (a, b, c, d) = (1, 1, 1/2 + eps, 1/2), judged by the same contract on
    # scaled identities; its exact residual is that of the stored c
    c_scalar = 0.5 + eps
    found = float(abs(Fraction(c_scalar) - Fraction(1, 2)))
    try:
        scalar_interpolate(first, second, 1.0, 1.0, c_scalar, 0.5)
    except ContractViolated:
        holds = False
    else:
        holds = True
    assert_verdict(holds, found, eps)


@pytest.mark.parametrize("eps", EPSILONS)
@pytest.mark.parametrize("d, n", SHAPES)
def test_validate_rank_verdicts_against_exact_singular_values(d, n, eps):
    # f = H_1 D and tau = D^-1 H_1^T / n, D diagonal in powers of two, give S = I
    # exactly, and Gram matrices f^T f = n D^2 and tau tau^T = D^-2 / n, so the
    # singular values are sqrt(n) |D_ii| and 1 / (sqrt(n) |D_ii|); the smallest
    # of each, over its largest entry, is sqrt(n) 2^-k, set near eps
    k = round(math.log2(math.sqrt(n) / eps))
    diagonal = np.array([2.0 ** -(i % 3) for i in range(d - 1)] + [2.0**-k])
    h = hadamard(n)[:, :d]
    f, t = h * diagonal, (h / diagonal).T / n
    report = validate(frame(f, t))
    for full_rank, left, right in [(report.analysis_injective, f.T, f), (report.synthesis_surjective, t, t.T)]:
        gram = exact.product(exact.exact(left), exact.exact(right))
        assert all(gram[i][j] == 0 for i in range(d) for j in range(d) if i != j)
        ratio = math.sqrt(min(gram[i][i] for i in range(d))) / float(np.abs(left).max())
        # full rank falls short exactly where that ratio is below tol, as a residual passes
        assert_verdict(not full_rank, ratio, eps)


# ---------------------------------------------------------------------------
# rank certificates


def spectral(diagonal):
    """H diag(D) H^T / n, exactly, as a float matrix; its singular values are |D_ii|."""
    n = len(diagonal)
    h = hadamard(n)
    exact_a = [[sum(Fraction(h[i, k]) * Fraction(diagonal[k]) * Fraction(h[j, k]) for k in range(n)) / n
                for j in range(n)] for i in range(n)]
    a = np.array([[float(x) for x in row] for row in exact_a])
    assert exact.exact(a) == exact_a  # every entry is a double
    return a


def diagonals(n, low):
    """Singular values 1, 1/2, 1/4, 1/8, 1, ... with the last one ``low``; each
    entry of H D H^T / n is then a sum of at most 44 bits' span, a double."""
    d = [2.0 ** -(k % 4) for k in range(n)]
    d[-1] = low
    return d


def inverse(diagonal):
    """The exact inverse H diag(1 / D) H^T / n, for powers of two D_ii."""
    return spectral([1.0 / x for x in diagonal])


@pytest.mark.parametrize("n", [2, 4, 8])
@pytest.mark.parametrize("k", [32, 33, 36, 40])
def test_no_certificate_below_the_threshold(n, k):
    # sigma_min = 2^-k, below tol max|a| (max|a| = mean(D), at least 3/8)
    diagonal = diagonals(n, 2.0**-k)
    a = spectral(diagonal)
    assert 2.0**-k < TOL * float(np.abs(a).max())
    for inv in (inverse(diagonal), np.linalg.inv(a)):
        assert not _certified(a, TOL, inv)
        assert _rank(a, TOL, inv) == n - 1


@pytest.mark.parametrize("n", [2, 4, 8])
def test_a_certificate_above_the_threshold(n):
    # sigma_min = 2^-27, past 8 tol max|a|: the exact inverse proves full rank, with no SVD
    diagonal = diagonals(n, 2.0**-27)
    a = spectral(diagonal)
    assert 2.0**-27 > 8 * TOL * float(np.abs(a).max())
    assert _certified(a, TOL, inverse(diagonal))
    assert _rank(a, TOL, inverse(diagonal)) == n


@pytest.mark.parametrize("n", [2, 4, 8])
def test_no_certificate_on_an_exactly_singular_map(n):
    diagonal = diagonals(n, 0.0)
    a = spectral(diagonal)
    # any inverse: a nearby map's exact one, one blind to the null direction, LU's if it finishes
    candidates = [inverse(diagonals(n, 2.0**-40)), spectral([1.0 / x if x else 0.0 for x in diagonal])]
    try:
        candidates.append(np.linalg.inv(a))
    except np.linalg.LinAlgError:
        pass
    for inv in candidates:
        if np.isfinite(inv).all():
            assert not _certified(a, TOL, inv)
            assert _rank(a, TOL, inv) == n - 1

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pasf import (
    INF,
    DimensionMismatch,
    LinearMap,
    MixedExponents,
    NonSquare,
    NormBound,
    PNormSpace,
    PortableRng,
    Singular,
    Vector,
    apply,
    compose,
    identity,
    invert,
    invert_with_rcond,
    operator_norm,
    rank,
    vector_norm,
)
from pasf.spaces import _ASCENT_SEED, _ascent, _eliminate, _rank, _require_rank, _seeded_starts

from helpers import (
    lp_ascent_oracle,
    lp_norm,
    maxdiff,
    norm1_vertex_oracle,
    norm2_eig_oracle,
    norminf_sign_oracle,
)

EXPONENTS = [1.0, 1.5, 2.0, 3.0, INF]


def lmap(entries, p=2.0):
    entries = np.atleast_2d(np.asarray(entries, dtype=float))
    rows, cols = entries.shape
    return LinearMap(PNormSpace(cols, p), PNormSpace(rows, p), entries)


def vec(coords, p=2.0):
    coords = np.asarray(coords, dtype=float)
    return Vector(PNormSpace(len(coords), p), coords)


# ---------------------------------------------------------------------------
# spaces and vectors


def test_space_rejects_bad_dim_and_exponent():
    with pytest.raises(DimensionMismatch):
        PNormSpace(0, 2.0)
    with pytest.raises(DimensionMismatch):
        PNormSpace(3, 0.5)


def test_vector_shape_must_match_space():
    with pytest.raises(DimensionMismatch):
        Vector(PNormSpace(3, 2.0), [1.0, 2.0])


def test_immutability():
    v = vec([1.0, 2.0])
    with pytest.raises(ValueError):
        v.coords[0] = 5.0
    m = lmap([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        m.entries[0, 0] = 5.0


def test_vector_norm_examples():
    assert vector_norm(PNormSpace(2, 1.0), vec([3, -4], 1.0)) == 7.0
    assert vector_norm(PNormSpace(2, 2.0), vec([3, -4], 2.0)) == 5.0
    assert vector_norm(PNormSpace(2, 3.0), vec([1, 1], 3.0)) == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-15)
    assert vector_norm(PNormSpace(2, INF), vec([3, -4], INF)) == 4.0


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_vector_norm_at_p2_neither_underflows_nor_overflows(scale):
    # the squares of these entries leave the double range; the norm does not
    norm = vector_norm(PNormSpace(2, 2.0), vec([scale, scale], 2.0))
    assert norm == pytest.approx(math.sqrt(2.0) * scale, rel=1e-15, abs=0.0)


def test_sup_norm_of_signed_zeros_is_positive_zero():
    # the largest |v_i| of [0.0, -0.0] is 0.0, not the -0.0 that max(v) and -min(v) can both be
    for coords in ([0.0, -0.0], [-0.0, -0.0], [-0.0]):
        assert math.copysign(1.0, vector_norm(PNormSpace(len(coords), INF), vec(coords, INF))) == 1.0


@pytest.mark.filterwarnings("error")
def test_vector_norm_of_an_infinite_entry_is_inf():
    assert vector_norm(PNormSpace(2, 3.0), vec([INF, 1.0], 3.0)) == INF


def test_vector_norm_rejects_wrong_space():
    with pytest.raises(DimensionMismatch):
        vector_norm(PNormSpace(2, 1.0), vec([3, -4], 2.0))


@settings(deadline=None, max_examples=80)
@given(seed=st.integers(0, 2**64 - 1), p=st.sampled_from(EXPONENTS), dim=st.integers(1, 6))
def test_vector_norm_triangle_and_homogeneity(seed, p, dim):
    rng = PortableRng(seed)
    space = PNormSpace(dim, p)
    a = rng.matrix(1, dim)[0]
    b = rng.matrix(1, dim)[0]
    na = vector_norm(space, Vector(space, a))
    nb = vector_norm(space, Vector(space, b))
    nsum = vector_norm(space, Vector(space, a + b))
    assert nsum <= na + nb + 1e-12
    assert vector_norm(space, Vector(space, 3.0 * a)) == pytest.approx(3.0 * na, rel=1e-12)


# ---------------------------------------------------------------------------
# operator norms


def test_operator_norm_p1_example_against_vertex_oracle():
    m = lmap([[1, 2], [3, 4]], p=1.0)
    got = operator_norm(m)
    assert got.exact
    assert got.value == 6.0
    assert got.value == pytest.approx(norm1_vertex_oracle(m.entries), abs=1e-12)


def test_operator_norm_p2_identity():
    got = operator_norm(lmap(np.eye(3), p=2.0))
    assert got.exact and got.value == pytest.approx(1.0, abs=1e-12)


def test_operator_norm_p3_identity_bracket_collapses():
    got = operator_norm(lmap(np.eye(2), p=3.0))
    assert not got.exact
    assert got.lower == pytest.approx(1.0, abs=1e-12)
    assert got.upper == pytest.approx(1.0, abs=1e-12)


def test_operator_norm_rejects_mixed_exponents():
    m = LinearMap(PNormSpace(2, 1.0), PNormSpace(2, 2.0), np.eye(2))
    with pytest.raises(MixedExponents):
        operator_norm(m)


@pytest.mark.parametrize("p", [1.0, 2.0, INF])
def test_operator_norm_exact_matches_brute_force(p):
    oracle = {1.0: norm1_vertex_oracle, 2.0: norm2_eig_oracle, INF: norminf_sign_oracle}[p]
    rng = PortableRng(101)
    for _ in range(25):
        a = rng.matrix(4, 4)
        got = operator_norm(lmap(a, p=p))
        assert got.exact
        assert got.value == pytest.approx(oracle(a), abs=1e-10)


@pytest.mark.parametrize("p", EXPONENTS)
def test_norm_bound_dominates_application(p):
    # ||A v||_p <= upper * ||v||_p on 100 random pairs per exponent
    rng = PortableRng(hash(p) & 0xFFFF)
    for _ in range(100):
        a = rng.matrix(3, 4)
        v = rng.matrix(1, 4)[0]
        bound = operator_norm(lmap(a, p=p))
        assert bound.lower <= bound.upper
        if p in (1.0, 2.0, INF):
            assert bound.exact
        assert lp_norm(a @ v, p) <= bound.upper * lp_norm(v, p) * (1 + 1e-12) + 1e-15


def test_norm_bracket_is_sound_for_generic_p():
    # lower from the ascent is attained by a feasible vector; upper is the
    # interpolation bound: sampled values must never exceed it
    rng = PortableRng(77)
    for p in (1.5, 3.0):
        for _ in range(20):
            a = rng.matrix(4, 4)
            bound = operator_norm(lmap(a, p=p))
            assert not bound.exact
            assert bound.lower <= bound.upper * (1 + 1e-12)
            for _ in range(50):
                v = rng.matrix(1, 4)[0]
                value = lp_norm(a @ v, p) / lp_norm(v, p)
                assert value <= bound.upper * (1 + 1e-10)


def documented_starts(a, p, restarts):
    """The starts operator_norm documents: all-ones, the largest-norm column's
    coordinate direction, then max(restarts, 8) uniform draws, entry by entry
    from one portable generator stream (the scalar path, not the vectorised fill)."""
    n = a.shape[1]
    starts = [np.ones(n), np.eye(n)[int(np.argmax([lp_norm(a[:, j], p) for j in range(n)]))]]
    rng = PortableRng(_ASCENT_SEED)
    for _ in range(max(restarts, 8)):
        starts.append(np.array([rng.uniform_signed() for _ in range(n)]))
    return starts


def test_seeded_starts_are_one_portable_stream_read_only():
    rng = PortableRng(0x9E3779B97F4A7C15)  # the seed operator_norm documents
    scalar = np.array([[rng.uniform_signed() for _ in range(64)] for _ in range(12)])
    twelve = _seeded_starts(64, 12)
    assert np.array_equal(twelve, scalar)
    # more restarts extend fewer: the fill is row-major from one stream
    assert np.array_equal(twelve[:8], _seeded_starts(64, 8))
    with pytest.raises(ValueError):
        twelve[0, 0] = 0.0


def test_generic_p_validate_does_not_load_numpy_random():
    # the starts come from the library's own generator, so numpy.random
    # and what it imports stay out of a process that brackets a norm,
    # unless `import numpy` itself loaded it (recent numpy loads it on first use)
    code = ("import sys, numpy; eager = 'numpy.random' in sys.modules; "
            "from pasf import random_frame, validate; validate(random_frame(8, 8, 3.0, seed=1)); "
            "print(eager, 'numpy.random' in sys.modules)")
    src = str(Path(sys.modules["pasf"].__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    eager, loaded = out.stdout.split()
    assert loaded == eager


@pytest.mark.parametrize("restarts", [8, 12])
@pytest.mark.parametrize("p", [1.5, 3.0, 1.01, 50.0])
@pytest.mark.parametrize("shape", [(1, 1), (2, 5), (5, 2), (8, 8), (17, 64), (64, 17), (64, 64)])
def test_block_ascent_matches_single_start_oracle(shape, p, restarts):
    rows, cols = shape
    a = PortableRng(rows * 1000 + cols).matrix(rows, cols)
    got = operator_norm(lmap(a, p=p), restarts=restarts)
    starts = documented_starts(a, p, restarts)
    singles = [lp_ascent_oracle(a, p, x0) for x0 in starts]
    best = max(singles)
    assert abs(got.lower - best) <= 1e-12 * best
    # the ascent never ends below the value of any start it was given
    for x0 in starts:
        assert got.lower >= lp_norm(a @ x0, p) / lp_norm(x0, p) * (1 - 8 * np.finfo(float).eps)
    assert got.lower <= got.upper


@settings(deadline=None, max_examples=150)
@given(
    rows=st.integers(1, 12),
    cols=st.integers(1, 12),
    p=st.floats(1.01, 60.0).filter(lambda p: p != 2.0),  # p = 2 is exact, no ascent
    scale=st.integers(-4, 4),
    seed=st.integers(0, 2**32 - 1),
    zero_cols=st.sets(st.integers(0, 11), max_size=3),
)
def test_block_ascent_matches_single_start_oracle_on_random_maps(rows, cols, p, scale, seed, zero_cols):
    # a row's value is read only when it stops; the best of them must still
    # be the best of the single-start oracle runs
    a = np.ldexp(np.random.default_rng(seed).uniform(-1.0, 1.0, size=(rows, cols)), scale)
    a[:, [j for j in zero_cols if j < cols]] = 0.0
    got = operator_norm(lmap(a, p=p))
    best = max(lp_ascent_oracle(a, p, x0) for x0 in documented_starts(a, p, 8))
    assert abs(got.lower - best) <= 1e-12 * best
    assert got.lower <= got.upper


@pytest.mark.parametrize("max_iter", [1, 2, 5])
@pytest.mark.parametrize("p", [1.5, 3.0])
def test_block_ascent_reads_the_rows_stopped_by_the_step_cap(p, max_iter):
    # at these caps most rows are still moving on their last step, and
    # only that step's value can count for them
    a = PortableRng(31).matrix(6, 6)
    starts = np.array(documented_starts(a, p, 8))
    got = _ascent(a, p, starts, max_iter=max_iter)
    best = max(lp_ascent_oracle(a, p, x0, max_iter=max_iter) for x0 in starts)
    assert got == pytest.approx(best, rel=1e-12)


def test_block_ascent_skips_a_nan_row():
    # a NaN start stops on its first step; it neither becomes the bound nor
    # hides the value of a row that stops with it
    a = PortableRng(32).matrix(4, 4)
    starts = np.array([[np.nan] * 4, [1.0, -1.0, 0.5, 0.0]])
    for max_iter in (1, 100):
        alone = _ascent(a, 3.0, starts[1:], max_iter)
        assert alone > 0.0
        assert _ascent(a, 3.0, starts, max_iter) == pytest.approx(alone, rel=1e-14)


def test_block_ascent_uses_restarts_beyond_eight():
    # on this map only starts 11 to 14 (restarts 9 to 12) climb to the best value
    a = PortableRng(411).matrix(8, 8)
    singles = [lp_ascent_oracle(a, 1.5, x0) for x0 in documented_starts(a, 1.5, 12)]
    assert max(singles[10:]) > max(singles[:10]) * (1 + 1e-9)
    assert operator_norm(lmap(a, p=1.5), restarts=8).lower < max(singles) * (1 - 1e-9)
    assert operator_norm(lmap(a, p=1.5), restarts=12).lower == pytest.approx(max(singles), rel=1e-12)


RANK_ONE = np.outer([1.0, 2.0, -1.0], [1.0, -2.0, 1.0])


@pytest.mark.parametrize("p", [1.01, 1.5, 3.0, 50.0])
@pytest.mark.parametrize("a", [
    RANK_ONE,  # the all-ones start lies in its kernel, so A x = 0 freezes that row
    np.array([[3.0, 0.0, -1.0], [1.0, 0.0, 2.0], [-2.0, 0.0, 1.0]]),  # a zero column
], ids=["rank-one", "zero-column"])
def test_block_ascent_on_degenerate_maps_matches_single_start_oracle(a, p):
    got = operator_norm(lmap(a, p=p))
    singles = [lp_ascent_oracle(a, p, x0) for x0 in documented_starts(a, p, 8)]
    assert abs(got.lower - max(singles)) <= 1e-12 * max(singles)
    assert got.lower <= got.upper
    if a is RANK_ONE:
        assert min(singles) == 0.0
        # ||b c^T||_p = ||b||_p ||c||_q, attained at one step
        exact = lp_norm(np.array([1.0, 2.0, -1.0]), p) * lp_norm(np.array([1.0, -2.0, 1.0]), p / (p - 1.0))
        assert got.lower == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("k", [-1000, 1000])
@pytest.mark.parametrize("p", [1.01, 1.5, 3.0, 50.0])
def test_operator_norm_bracket_scales_with_powers_of_two(p, k):
    # multiplying by 2^k is exact in double precision, and the norm is homogeneous
    a = PortableRng(4242).matrix(16, 16)
    base = operator_norm(lmap(a, p=p))
    scaled = operator_norm(lmap(np.ldexp(a, k), p=p))
    assert scaled.lower == pytest.approx(np.ldexp(base.lower, k), rel=1e-12)
    assert scaled.upper == pytest.approx(np.ldexp(base.upper, k), rel=1e-12)


@pytest.mark.parametrize("p", [1.0, 1.01, 1.5, 3.0, 50.0, INF])
@pytest.mark.parametrize("shape", [(1, 8), (8, 1), (8, 8)])
def test_operator_norm_of_map_whose_sums_overflow_stays_quiet(shape, p):
    # every absolute row or column sum of 1e308 * ones overflows; tier-1
    # turns the RuntimeWarning numpy would emit into an error
    a = np.full(shape, 1e308)
    got = operator_norm(lmap(a, p=p))
    rows, cols = shape
    # ||A||_p of a constant matrix is 1e308 * rows^(1/p) * cols^(1 - 1/p), compared in logs
    log_true = math.log(1e308) + math.log(rows) / p + math.log(cols) * (1.0 - 1.0 / p)
    if got.exact:  # the true value, rounded: inf past the double range
        assert got.value == (math.inf if log_true > math.log(np.finfo(float).max) else 1e308)
        return
    assert 1e308 <= got.lower and math.log(got.lower) <= log_true + 1e-12
    assert got.upper == math.inf or math.log(got.upper) >= log_true - 1e-12


@pytest.mark.parametrize("p", EXPONENTS)
@pytest.mark.parametrize(("bad", "last"), [(np.nan, False), (np.inf, False), (np.nan, True), (np.inf, True)],
                         ids=["nan", "inf", "nan-last", "inf-last"])
def test_operator_norm_of_non_finite_map_is_nan_bracket(p, bad, last):
    got = operator_norm(lmap([[1.0, 1.0], [0.0, bad]] if last else [[bad, 1.0], [0.0, 1.0]], p=p))
    assert np.isnan(got.lower) and np.isnan(got.upper) and not got.exact
    assert not got.contains(1.0)


def test_norm_bound_type_invariants():
    with pytest.raises(ValueError):
        NormBound(lower=2.0, upper=1.0, exact=False)
    with pytest.raises(ValueError):
        NormBound(lower=1.0, upper=2.0, exact=True)
    b = NormBound(lower=2.0, upper=4.0, exact=False)
    r = b.reciprocal()
    assert r.lower == 0.25 and r.upper == 0.5
    assert b.contains(3.0) and not b.contains(5.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("shape", [(3, 4), (1, 1), (5, 2)])
@pytest.mark.parametrize("p", [1.0, 1.01, 1.5, 2.0, 3.0, 50.0, INF])
def test_operator_norm_of_the_zero_map_is_zero(p, shape):
    got = operator_norm(lmap(np.zeros(shape), p=p))
    assert (got.lower, got.upper) == (0.0, 0.0)
    assert got.exact == (p in (1.0, 2.0, INF))


def test_operator_norm_bracket_contains_the_norm_of_a_scaled_identity():
    # ||c I|| is the double c itself, yet the ascent's rounded value lands
    # above it (3.0000000000000004 for 3 I on l^3_3): only a bracket whose
    # ends are rounded outward contains c
    for p in (1.5, 3.0):
        for c in (3.0, 5.0, 7.0, 10.0, 0.3):
            assert operator_norm(lmap(c * np.eye(3), p=p)).contains(c), (p, c)


@settings(deadline=None, max_examples=200)
@given(
    n=st.integers(1, 8),
    p=st.floats(1.01, 60.0).filter(lambda p: p != 2.0),
    k=st.integers(-1000, 1000),
    weights=st.lists(st.integers(1, 1000), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_operator_norm_bracket_contains_the_norm_of_a_scaled_doubly_stochastic_map(n, p, k, weights, seed):
    # 2^k times a sum of permutation matrices with integer weights has every
    # row and column summing to 2^k W (W the weights' sum): that is its norm at
    # every p, the all-ones vector attaining it, and the bracket must contain it
    rng = np.random.default_rng(seed)
    a = sum(w * np.eye(n)[rng.permutation(n)] for w in weights)
    got = operator_norm(lmap(np.ldexp(a, k), p=p))
    assert got.contains(math.ldexp(sum(weights), k))


@settings(deadline=None, max_examples=300)
@given(rows=st.integers(1, 64), k=st.integers(-1000, 1000), seed=st.integers(0, 2**32 - 1))
def test_operator_norm_brackets_the_norm_of_one_column_exactly_at_p_3(rows, k, seed):
    # a single column's norm is its l^3 norm, and s^3 <= sum |a_i|^3 decides
    # exactly, in rationals, on which side of it a double s lies
    a = np.ldexp(np.random.default_rng(seed).uniform(-1.0, 1.0, size=(rows, 1)), k)
    got = operator_norm(lmap(a, p=3.0))
    cubes = sum(abs(Fraction(x)) ** 3 for x in a[:, 0])
    assert Fraction(got.lower) ** 3 <= cubes <= Fraction(got.upper) ** 3


def test_norm_bound_reciprocal_rounds_a_bracket_outward():
    # 1/3 rounds, so a bracket's ends move one ulp outward; 1/4 and 1/2 do not round
    r = NormBound(lower=3.0, upper=3.0, exact=False).reciprocal()
    assert r.lower < 1.0 / 3.0 < r.upper
    assert NormBound(lower=3.0, upper=3.0, exact=True).reciprocal().value == 1.0 / 3.0
    r = NormBound(lower=2.0, upper=4.0, exact=False).reciprocal()
    assert (r.lower, r.upper) == (0.25, 0.5)


def test_norm_bound_reciprocal_of_zero_is_infinite():
    r = NormBound(lower=0.0, upper=0.0, exact=True).reciprocal()
    assert r.lower == r.upper == np.inf and r.exact


# ---------------------------------------------------------------------------
# inversion, rank, algebra


def test_invert_scalar_multiple():
    got = invert(lmap(2.0 * np.eye(2)))
    assert maxdiff(got.entries, 0.5 * np.eye(2)) == 0.0


def test_invert_hand_elimination_example():
    got = invert(lmap([[1, 1], [0, 1]]))
    assert maxdiff(got.entries, [[1, -1], [0, 1]]) <= 1e-15


def test_invert_singular_carries_rank():
    with pytest.raises(Singular) as info:
        invert(lmap([[1, 1], [1, 1]]))
    assert info.value.rank == 1


def test_invert_below_double_precision_reports_the_rank_numpy_finds():
    # at tol = 1e-300 the rank test counts rounding as rank; LU then meets a zero pivot
    with pytest.raises(Singular) as info:
        invert(lmap(np.ones((3, 3))), tol=1e-300)
    assert info.value.rank == 1


def test_invert_rejects_inverse_beyond_double_range():
    # full rank at relative tol, but 1 / 2.7e-311 overflows
    with pytest.raises(Singular) as info:
        invert(lmap([[2.7e-311]]))
    assert info.value.rank == 0


def test_invert_rejects_non_square():
    with pytest.raises(NonSquare):
        invert(lmap([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))


def test_invert_residual_within_ten_tol():
    tol = 1e-9
    rng = PortableRng(5150)
    for _ in range(50):
        n = 1 + rng.randint(6)
        a = rng.matrix(n, n)
        m = lmap(a)
        try:
            inv = invert(m, tol)
        except Singular:
            continue
        assert maxdiff(a @ inv.entries, np.eye(n)) <= 10 * tol
        assert maxdiff(inv.entries @ a, np.eye(n)) <= 10 * tol


def test_invert_is_the_lu_inverse():
    # cond 1e8, so LU's residual is far above tol: any refinement of the
    # inverse would show here as a changed bit
    q = np.linalg.qr(np.random.default_rng(10).standard_normal((8, 8)))[0]
    a = q * np.logspace(0, -8, 8) @ q.T
    assert np.array_equal(invert(lmap(a), 1e-9).entries, np.linalg.inv(a))


def test_invert_with_rcond_scalar():
    _, rcond = invert_with_rcond(lmap([[4.0]]))
    assert rcond == pytest.approx(1.0)


def test_compose_identity_law():
    a = lmap([[1, 2], [3, 4]])
    assert maxdiff(compose(identity(a.codomain), a).entries, a.entries) == 0.0
    assert maxdiff(compose(a, identity(a.domain)).entries, a.entries) == 0.0


def test_compose_rejects_inner_mismatch():
    a = lmap([[1.0, 2.0]])  # 1 x 2
    with pytest.raises(DimensionMismatch):
        compose(a, a)


def test_linear_map_shape_must_match_its_spaces():
    with pytest.raises(DimensionMismatch):
        LinearMap(PNormSpace(2, 2.0), PNormSpace(3, 2.0), np.zeros((2, 3)))


def test_apply_rejects_a_vector_off_the_domain():
    with pytest.raises(DimensionMismatch):
        apply(lmap([[1.0, 0.0], [0.0, 1.0]]), vec([1.0, 2.0, 3.0]))


def test_apply_coordinate_swap():
    out = apply(lmap([[0, 1], [1, 0]]), vec([1, 2]))
    assert out.coords.tolist() == [2.0, 1.0]


def test_rank_proportional_rows():
    assert rank(lmap([[1, 2], [2, 4]]), 1e-9) == 1


def test_rank_needs_complete_pivoting():
    # partial pivoting would report rank 0 here
    assert rank(lmap([[0, 1], [0, 0]]), 1e-9) == 1
    assert rank(lmap(np.zeros((3, 3))), 1e-9) == 0


def test_rank_counts_singular_values_against_tol():
    # pivots of this matrix all reach tol, but sigma_min ~ 7.5e-10 < 1e-9
    assert rank(lmap([[1, 1], [1, 1 + 1.5e-9]]), 1e-9) == 1
    assert rank(lmap([[1, 1], [1, 1 + 3e-9]]), 1e-9) == 2


@settings(deadline=None, max_examples=100)
@given(seed=st.integers(0, 2**64 - 1), n=st.integers(1, 5))
def test_compose_associative(seed, n):
    rng = PortableRng(seed)
    a, b, c = (rng.matrix(n, n) for _ in range(3))
    left = (a @ b) @ c
    right = a @ (b @ c)
    scale = max(1.0, float(np.abs(right).max()))
    assert maxdiff(left, right) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# full-rank certificate


def _planted(seed, rows, cols, factor, tol, k):
    """A rows x cols map with singular values in [1/8, 1] except the
    smallest, planted at factor * tol * max|a|, then scaled by 2^k."""
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.standard_normal((rows, rows)))[0]
    v = np.linalg.qr(rng.standard_normal((cols, cols)))[0]
    r = min(rows, cols)
    sv = np.exp2(-3.0 * rng.random(r))
    sv[0] = 1.0
    a = u[:, :r] * sv @ v[:, :r].T
    if r > 1:
        sv[-1] = factor * tol * float(np.abs(a).max())
        a = u[:, :r] * sv @ v[:, :r].T
    return np.ldexp(a, k)


def _approximate_inverse(a, kind, seed):
    rng = np.random.default_rng(seed)
    with np.errstate(all="ignore"):
        exact = np.linalg.pinv(a, rcond=0.0)
    if kind == "exact":
        return exact
    if kind == "perturbed":
        return exact * (1.0 + 1e-6 * rng.standard_normal(exact.shape))
    if kind == "zero":
        return np.zeros_like(exact)
    if kind == "nan":
        exact[0, 0] = np.nan
        return exact
    if kind == "none":
        return None
    return np.ldexp(rng.standard_normal(exact.shape), int(rng.integers(-60, 60)))


@settings(deadline=None, max_examples=300)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from(["square", "tall", "wide"]),
    small=st.integers(1, 6),
    extra=st.integers(1, 5),
    factor=st.sampled_from([0.0, 0.5, 0.99, 1.01, 2.0, 10.0]),
    tol=st.floats(1e-16, 1e-1),
    k=st.sampled_from([0, -1000, 1000]),
    kind=st.sampled_from(["exact", "perturbed", "zero", "nan", "garbage", "none"]),
)
def test_full_rank_agrees_with_the_svd_rule(seed, shape, small, extra, factor, tol, k, kind):
    rows, cols = {"square": (small, small), "tall": (small + extra, small),
                  "wide": (small, small + extra)}[shape]
    a = _planted(seed, rows, cols, factor, tol, k)
    inv = _approximate_inverse(a, kind, seed)
    assert _rank(a, tol, inv) == _eliminate(a, tol)


def test_garbage_inverse_of_a_singular_map_keeps_the_svd_rank():
    # identity "inverse": ||inv||_F = sqrt(2) would clear any threshold,
    # but its residual diag(0, 1 - 1e-12) proves nothing
    a = np.diag([1.0, 1e-12])
    assert _rank(a, 1e-9, np.eye(2)) == 1
    with pytest.raises(Singular) as info:
        _require_rank(a, 1e-9, Singular, "matrix", np.eye(2))
    assert info.value.rank == _eliminate(a, 1e-9) == 1


def test_exact_inverse_of_a_map_below_tol_certifies_nothing():
    # the inverse is exact (residual 0), yet sigma_min = 1e-12 < tol * max|a|
    a = np.diag([1.0, 1e-12])
    assert _rank(a, 1e-9, np.diag([1.0, 1e12])) == 1
    assert _rank(a, 1e-13, np.diag([1.0, 1e12])) == 2

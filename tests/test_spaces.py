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
from pasf.spaces import _ASCENT_SEEDS

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
    coordinate direction, then max(restarts, 8) seeded uniform draws."""
    n = a.shape[1]
    starts = [np.ones(n), np.eye(n)[int(np.argmax([lp_norm(a[:, j], p) for j in range(n)]))]]
    for k in range(max(restarts, 8)):
        rng = np.random.default_rng(_ASCENT_SEEDS[k % len(_ASCENT_SEEDS)] + k)
        starts.append(rng.uniform(-1.0, 1.0, size=n))
    return starts


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


def test_block_ascent_uses_restarts_beyond_eight():
    # on this map only starts 11 to 14 (restarts 9 to 12) climb to the best value
    a = PortableRng(271).matrix(8, 8)
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


@pytest.mark.parametrize("p", EXPONENTS)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_operator_norm_of_non_finite_map_is_nan_bracket(p, bad):
    got = operator_norm(lmap([[bad, 1.0], [0.0, 1.0]], p=p))
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

from dataclasses import replace

import numpy as np
import pytest

from pasf import (
    ConsistencyError,
    GateSingular,
    LinearMap,
    NotDual,
    PortableRng,
    SpaceMismatch,
    analysis_operator,
    canonical_dual,
    canonical_dual_bounds,
    dual_from_parameters,
    frame_operator,
    has_unique_dual,
    is_dual,
    left_inverse_from,
    parameters_from_dual,
    random_dual,
    random_frame,
    right_inverse_from,
    synthesis_operator,
    validate,
)
from pasf import frames, spaces

from helpers import make_frame, maxdiff, overflowing_terms_frame, scaled_frame, standard_frame, tall_frame


def umap(frame, entries):
    return LinearMap(frame.x_space, frame.seq_space, entries)


def vmap(frame, entries):
    return LinearMap(frame.seq_space, frame.x_space, entries)


# ---------------------------------------------------------------------------
# canonical dual


def test_canonical_dual_of_parseval_is_itself():
    frame = standard_frame(3)
    dual = canonical_dual(frame)
    assert maxdiff(dual.functionals, frame.functionals) == 0.0
    assert maxdiff(dual.vectors, frame.vectors) == 0.0


def test_canonical_dual_scaled_identity():
    dual = canonical_dual(scaled_frame(2, 2.0))
    assert maxdiff(dual.functionals, 0.5 * np.eye(2)) <= 1e-15
    assert maxdiff(dual.vectors, np.eye(2)) <= 1e-15


def test_canonical_dual_involution():
    # eps * cond(S)^2 bounds the reachable drift, so the instances must be
    # well enough conditioned for 1e-10 to be expressible at all
    for seed in range(100):
        frame = random_frame(3, 6, seed=seed, min_rcond=1e-4)
        back = canonical_dual(canonical_dual(frame))
        assert maxdiff(back.functionals, frame.functionals) <= 1e-10
        assert maxdiff(back.vectors, frame.vectors) <= 1e-10


def test_canonical_dual_whose_terms_overflow_is_formed_in_range():
    # f S^-1 = 2^1010 I, though its terms are near 2^1030
    dual = canonical_dual(overflowing_terms_frame())
    assert dual.functionals.tolist() == np.ldexp(np.eye(2), 1010).tolist()


# ---------------------------------------------------------------------------
# dual criterion


def test_is_dual_canonical():
    frame = tall_frame()
    assert is_dual(frame, canonical_dual(frame))


def test_is_dual_self_fails_when_not_parseval():
    frame = scaled_frame(2, 2.0)
    assert not is_dual(frame, frame)


def test_is_dual_self_holds_for_parseval():
    frame = standard_frame(2)
    assert is_dual(frame, frame)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("side", ["functionals", "vectors"])
def test_is_dual_fails_on_a_non_finite_last_entry(bad, side):
    # only the last entry of one cross-composition's inputs is bad, so a
    # maximum that skipped NaN would pass the finite rest
    frame = tall_frame()
    dual = canonical_dual(frame)
    broken = getattr(dual, side).copy()
    broken[-1, -1] = bad
    assert not is_dual(frame, replace(dual, **{side: broken}))


def test_is_dual_requires_same_spaces():
    with pytest.raises(SpaceMismatch):
        is_dual(standard_frame(2), standard_frame(3))
    with pytest.raises(SpaceMismatch):
        is_dual(standard_frame(2), standard_frame(2, p=1.0))


def test_is_dual_is_symmetric():
    for seed in range(50):
        frame = random_frame(2, 4, seed=seed)
        cand = random_dual(frame, seed + 1000).frame
        assert is_dual(frame, cand) == is_dual(cand, frame)


# ---------------------------------------------------------------------------
# left/right inverse families


@pytest.mark.parametrize("make", [
    lambda frame, u, v: right_inverse_from(frame, v),
    lambda frame, u, v: left_inverse_from(frame, u),
    lambda frame, u, v: dual_from_parameters(frame, v, v),
    lambda frame, u, v: dual_from_parameters(frame, u, u),
])
def test_parameters_of_the_wrong_shape_are_rejected(make):
    frame = tall_frame()  # d = 2, n = 3
    u = umap(frame, np.zeros((3, 2)))
    v = vmap(frame, np.zeros((2, 3)))
    with pytest.raises(SpaceMismatch):
        make(frame, u, v)


def test_right_inverse_base_point():
    frame = tall_frame()
    s_inv = np.linalg.inv(frame_operator(frame).entries)
    r = right_inverse_from(frame, umap(frame, np.zeros((3, 2))))
    assert maxdiff(r.entries, frame.functionals @ s_inv) <= 1e-12


def test_right_inverse_absorbs_its_base_point():
    frame = tall_frame()
    s_inv = np.linalg.inv(frame_operator(frame).entries)
    base = frame.functionals @ s_inv
    r = right_inverse_from(frame, umap(frame, base))
    assert maxdiff(r.entries, base) <= 1e-12


def test_right_inverse_family_property():
    rng = PortableRng(11)
    for seed in range(200):
        frame = random_frame(2 + seed % 3, 5 + seed % 4, seed=seed)
        u = umap(frame, rng.matrix(frame.count, frame.dim))
        r = right_inverse_from(frame, u)
        assert maxdiff(frame.vectors @ r.entries, np.eye(frame.dim)) <= 1e-10


def test_left_inverse_base_point():
    frame = tall_frame()
    s_inv = np.linalg.inv(frame_operator(frame).entries)
    l = left_inverse_from(frame, vmap(frame, np.zeros((2, 3))))
    assert maxdiff(l.entries, s_inv @ frame.vectors) <= 1e-12


def test_left_inverse_absorbs_its_base_point():
    frame = tall_frame()
    s_inv = np.linalg.inv(frame_operator(frame).entries)
    base = s_inv @ frame.vectors
    l = left_inverse_from(frame, vmap(frame, base))
    assert maxdiff(l.entries, base) <= 1e-12


def test_left_inverse_family_property():
    rng = PortableRng(13)
    for seed in range(200):
        frame = random_frame(2 + seed % 3, 5 + seed % 4, seed=seed)
        v = vmap(frame, rng.matrix(frame.dim, frame.count))
        l = left_inverse_from(frame, v)
        assert maxdiff(l.entries @ frame.functionals, np.eye(frame.dim)) <= 1e-10


# ---------------------------------------------------------------------------
# full parameterization


def test_zero_parameters_give_canonical_dual():
    frame = tall_frame()
    cand = dual_from_parameters(
        frame, umap(frame, np.zeros((3, 2))), vmap(frame, np.zeros((2, 3)))
    )
    canon = canonical_dual(frame)
    assert maxdiff(cand.frame.functionals, canon.functionals) <= 1e-12
    assert maxdiff(cand.frame.vectors, canon.vectors) <= 1e-12
    # the gate at zero parameters is S^-1
    s_inv = np.linalg.inv(frame_operator(frame).entries)
    assert maxdiff(frame_operator(cand.frame).entries, s_inv) <= 1e-12


def test_known_dual_parameters_are_absorbed():
    # feeding (theta_g, theta_omega) of an existing dual reproduces it
    for seed in range(100):
        frame = random_frame(2, 5, seed=seed)
        dual = random_dual(frame, seed + 500).frame
        cand = dual_from_parameters(
            frame, analysis_operator(dual), synthesis_operator(dual)
        )
        assert maxdiff(cand.frame.functionals, dual.functionals) <= 1e-10
        assert maxdiff(cand.frame.vectors, dual.vectors) <= 1e-10


def test_gate_singular_frozen_instance():
    # d=1, n=2: gate = 1 + v2*u2 vanishes at v2 = 1, u2 = -1
    frame = make_frame([[1.0], [0.0]], [[1.0, 0.0]])
    u = umap(frame, [[0.0], [-1.0]])
    v = vmap(frame, [[0.0, 1.0]])
    with pytest.raises(GateSingular) as info:
        dual_from_parameters(frame, u, v)
    assert info.value.rank == 0
    assert str(info.value) == "gate operator is singular at tol=1e-09: rank 0 of 1"


@pytest.mark.parametrize("seed", range(40))
def test_large_parameter_duals_pass_the_gate_cross_check(seed):
    # n = d, so I - P is rounding alone; the drift floor must cover that rounding
    # times max|V| max|U|, here at scale 100
    frame = random_frame(16, 16, 3.0, seed=seed)
    rng = PortableRng(1000 + seed)  # a stream apart from the frame's own draw
    u = umap(frame, rng.matrix(16, 16, 100.0))
    v = vmap(frame, rng.matrix(16, 16, 100.0))
    cand = dual_from_parameters(frame, u, v)
    assert is_dual(frame, cand.frame)


def test_a_dual_of_large_parameters_is_a_dual_within_its_rounding():
    # g = f S^-1 + (I - P) U with max|U| near 1e5: tau g = I holds in exact arithmetic,
    # and misses tol only by the rounding on |tau| |g|, which the criterion allows
    frame = random_frame(8, 16, 2.0, seed=3)
    u = umap(frame, PortableRng(1).matrix(16, 8, 1e5))
    cand = dual_from_parameters(frame, u, vmap(frame, np.zeros((8, 16))))
    assert is_dual(frame, cand.frame)


def test_gate_cross_check_catches_a_drift_of_1e_minus_8(monkeypatch):
    # I - P moved by 1e-8 relative moves omega g off the gate S^-1 + V (I - P) U by
    # 1e-8 of V (I - P) U, which dominates the gate at parameters of scale 100
    product = vars(frames._Canonical)["complement"]
    real = product.func
    monkeypatch.setattr(product, "func", lambda record: real(record) * (1.0 + 1e-8))
    frame = random_frame(4, 6, 3.0, seed=3)
    rng = PortableRng(1)
    u, v = umap(frame, rng.matrix(6, 4, 100.0)), vmap(frame, rng.matrix(4, 6, 100.0))
    with pytest.raises(ConsistencyError, match="gate operator and candidate frame operator"):
        dual_from_parameters(frame, u, v)


def test_gate_cross_check_fails_closed_on_a_wrong_projection(monkeypatch):
    product = vars(frames._Canonical)["projection"]
    real = product.func

    def shifted(record):
        p = real(record).copy()
        p[0, 0] += 1e-3
        return p

    monkeypatch.setattr(product, "func", shifted)
    with pytest.raises(ConsistencyError, match="gate operator and candidate frame operator"):
        random_dual(random_frame(4, 6, 3.0, seed=3), 0)


def test_generated_duals_satisfy_criterion():
    for seed in range(100):
        frame = random_frame(3, 6, seed=seed)
        cand = random_dual(frame, seed)
        assert is_dual(frame, cand.frame)
        assert cand.u_param is not None and cand.v_param is not None


def test_parameters_from_canonical_dual():
    frame = tall_frame()
    s_inv = np.linalg.inv(frame_operator(frame).entries)
    u, v = parameters_from_dual(frame, canonical_dual(frame))
    assert maxdiff(u.entries, frame.functionals @ s_inv) <= 1e-12
    assert maxdiff(v.entries, s_inv @ frame.vectors) <= 1e-12


def test_parameter_round_trip_reaches_every_generated_dual():
    for seed in range(200):
        frame = random_frame(2 + seed % 2, 4 + seed % 5, seed=seed, min_rcond=1e-4)
        dual = random_dual(frame, seed + 900).frame
        u, v = parameters_from_dual(frame, dual)
        again = dual_from_parameters(frame, u, v).frame
        scale = max(1.0, float(np.abs(dual.functionals).max()), float(np.abs(dual.vectors).max()))
        assert maxdiff(again.functionals, dual.functionals) <= 1e-10 * scale
        assert maxdiff(again.vectors, dual.vectors) <= 1e-10 * scale


def test_parameters_from_non_dual_raises():
    frame = scaled_frame(2, 2.0)
    with pytest.raises(NotDual):
        parameters_from_dual(frame, frame)


# ---------------------------------------------------------------------------
# uniqueness and bounds


def test_unique_dual_standard_basis():
    assert has_unique_dual(standard_frame(3))


def test_unique_dual_fails_for_tall_frames():
    assert not has_unique_dual(tall_frame())


def test_unique_dual_fails_for_a_rank_deficient_tau():
    # f_k(tau_j) = delta_kj exactly, but tau has rank 1 at tol relative to its largest entry
    assert not has_unique_dual(make_frame(np.diag([1.0, 1e12]), np.diag([1.0, 1e-12])))


def test_unique_dual_fails_without_biorthogonality():
    rng = PortableRng(21)
    t = rng.matrix(3, 3)
    frame = make_frame(2.0 * np.linalg.inv(t), t)
    assert not has_unique_dual(frame)


def test_unique_dual_certifies_tau_with_f_and_runs_no_svd(monkeypatch):
    # f tau = I, so f is an approximate inverse of tau and proves its full rank
    eliminated = []
    real = spaces._eliminate
    monkeypatch.setattr(spaces, "_eliminate", lambda a, tol: eliminated.append(a.shape) or real(a, tol))
    f = random_frame(8, 8, seed=3).functionals
    assert has_unique_dual(make_frame(f, np.linalg.inv(f)))
    assert eliminated == []


def test_canonical_dual_bounds_scaled_identity():
    report = validate(scaled_frame(2, 2.0))
    lo, hi = canonical_dual_bounds(report)
    assert lo.value == pytest.approx(0.5) and hi.value == pytest.approx(0.5)


def test_canonical_dual_bounds_parseval():
    report = validate(standard_frame(2))
    lo, hi = canonical_dual_bounds(report)
    assert lo.value == pytest.approx(1.0) and hi.value == pytest.approx(1.0)


def test_canonical_dual_bounds_cross_check_spd():
    rng = PortableRng(654)
    for _ in range(30):
        f = rng.matrix(5, 3)
        frame = make_frame(f, f.T)
        lo, hi = canonical_dual_bounds(validate(frame))
        direct = validate(canonical_dual(frame))
        assert abs(lo.value - direct.lower_bound.value) <= 1e-8 * max(1.0, lo.value)
        assert abs(hi.value - direct.upper_bound.value) <= 1e-8 * max(1.0, hi.value)

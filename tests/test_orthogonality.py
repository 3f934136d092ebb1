from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pasf import (
    ContractViolated,
    DimensionMismatch,
    FramePair,
    InterpolationOperators,
    LinearMap,
    NotAFrame,
    NotOrthogonal,
    NotParseval,
    SpaceMismatch,
    canonical_dual,
    frame_operator,
    interpolate,
    is_dual,
    is_orthogonal,
    mixed_pair_degeneracy_check,
    random_frame,
    random_orthogonal_parseval_pair,
    rank,
    scalar_interpolate,
    validate,
    analysis_operator,
)
from pasf import frames
from pasf.generators import PortableRng

from helpers import block_orthogonal_pair, make_frame, maxdiff, overflowing_terms_frame, standard_frame


def ops_from(frame, a, b, c, d):
    space = frame.x_space

    def lm(m):
        return LinearMap(space, space, m)

    return InterpolationOperators(a_op=lm(a), b_op=lm(b), c_op=lm(c), d_op=lm(d))


def random_invertible(dim, rng, attempts=50):
    for _ in range(attempts):
        a = rng.matrix(dim, dim)
        if 1.0 / np.linalg.cond(a) >= 1e-2:
            return a
    raise AssertionError("no invertible draw")


# ---------------------------------------------------------------------------
# criterion


def test_block_pair_is_orthogonal():
    frame1, frame2 = block_orthogonal_pair()
    assert is_orthogonal(frame1, frame2)
    assert validate(frame1).parseval and validate(frame2).parseval


def test_orthogonality_never_reflexive():
    for seed in range(20):
        frame = random_frame(2, 5, seed=seed)
        assert not is_orthogonal(frame, frame)


def frame_times(frame, f_scale, tau_scale):
    """``frame`` with f times ``f_scale`` and tau times ``tau_scale``."""
    return make_frame(f_scale * frame.functionals, tau_scale * frame.vectors)


@pytest.mark.parametrize("frame", [
    pytest.param(frame_times(standard_frame(2), 1e-5, 1e-5), id="1e-5-I"),
    pytest.param(frame_times(standard_frame(2), 2.0**-15, 2.0**-15), id="2^-15-I"),
    pytest.param(frame_times(standard_frame(2), 2.0**-20, 2.0**-20), id="2^-20-I"),
    # the extreme-scale frame CI runs the CLI on: S is near 2^-706
    pytest.param(frame_times(random_frame(3, 5, seed=24), 2.0**318, 2.0**-1024), id="seed24-f2^318-tau2^-1024"),
    # S = 2^-910 [[1, 1], [1, 1 + 2^-20]], whose canonical dual's terms overflow
    pytest.param(overflowing_terms_frame(), id="2^100M-2^-1010I"),
])
def test_a_valid_frame_of_small_s_is_not_orthogonal_to_itself(frame):
    # validate raises NotAFrame unless S = tau f is invertible, so tau f is not 0; every
    # entry of S is within tol of 0, but the criterion is held to tol times max|S|
    validate(frame)
    assert not is_orthogonal(frame, frame)


def test_frame_not_orthogonal_to_its_dual():
    frame = random_frame(2, 5, seed=1)
    assert not is_orthogonal(frame, canonical_dual(frame))


def test_orthogonality_is_symmetric():
    frame1, frame2 = block_orthogonal_pair()
    assert is_orthogonal(frame1, frame2) == is_orthogonal(frame2, frame1)
    for seed in range(20):
        a, b = random_orthogonal_parseval_pair(2, 6, seed=seed)
        assert is_orthogonal(a, b) and is_orthogonal(b, a)


def test_orthogonality_requires_same_spaces():
    with pytest.raises(SpaceMismatch):
        is_orthogonal(standard_frame(2), standard_frame(3))


def test_orthogonal_pairs_respect_rank_budget():
    # the coefficient space must host both ranges disjointly
    for seed in range(30):
        a, b = random_orthogonal_parseval_pair(2, 5 + seed % 4, seed=seed)
        r1 = rank(analysis_operator(a), 1e-9)
        r2 = rank(analysis_operator(b), 1e-9)
        assert r1 + r2 <= a.count


# ---------------------------------------------------------------------------
# interpolation


def test_degenerate_stitch_returns_first_frame():
    frame1, frame2 = block_orthogonal_pair()
    eye = np.eye(2)
    zero = np.zeros((2, 2))
    out = interpolate(frame1, frame2, ops_from(frame1, eye, zero, eye, zero))
    assert maxdiff(out.functionals, frame1.functionals) == 0.0
    assert maxdiff(out.vectors, frame1.vectors) == 0.0


def test_block_pair_scalar_stitch_frozen_example():
    frame1, frame2 = block_orthogonal_pair()
    out = scalar_interpolate(frame1, frame2, 1.0, 1.0, 0.5, 0.5)
    assert maxdiff(out.functionals, [[1, 0], [0, 1], [1, 0], [0, 1]]) == 0.0
    assert maxdiff(out.vectors, [[0.5, 0, 0.5, 0], [0, 0.5, 0, 0.5]]) == 0.0
    assert maxdiff(frame_operator(out).entries, np.eye(2)) <= 1e-15
    assert validate(out).parseval


def test_scalar_stitch_identity_coefficients():
    frame1, frame2 = block_orthogonal_pair()
    out = scalar_interpolate(frame1, frame2, 1.0, 0.0, 1.0, 0.0)
    assert maxdiff(out.functionals, frame1.functionals) == 0.0


def test_scalar_contract_violation():
    frame1, frame2 = block_orthogonal_pair()
    with pytest.raises(ContractViolated) as info:
        scalar_interpolate(frame1, frame2, 1.0, 1.0, 1.0, 1.0)
    assert info.value.residual == pytest.approx(1.0)


def test_contract_is_scaled_by_its_target_not_its_summands():
    # c a + d b = 1e10 - (1e10 - 20) = 20: a miss of 19 on summands of 2e10,
    # far above their rounding (6e-4), so no frame with S = 20 I is stitched
    frame1, frame2 = block_orthogonal_pair()
    big, eye = 1e10, np.eye(2)
    with pytest.raises(ContractViolated) as info:
        scalar_interpolate(frame1, frame2, 1.0, big - 20.0, big, -1.0)
    assert info.value.residual == pytest.approx(19.0)
    with pytest.raises(ContractViolated) as info:
        interpolate(frame1, frame2, ops_from(frame1, eye, (big - 20.0) * eye, big * eye, -eye))
    assert info.value.residual == pytest.approx(19.0)


def test_an_exact_contract_passes_within_the_rounding_on_its_summands():
    # c a + d b = (2^60 - 1) - 2 (2^59 - 1) = 1 exactly, with 2^59 - 1 = 179951 x 3203431780337;
    # each product rounds to 2^60, so the computed residual is 1, inside the rounding on 2^61
    frame1, frame2 = block_orthogonal_pair()
    a, b, c, d = 2.0**30 - 1.0, -2.0 * 3203431780337, 2.0**30 + 1.0, 179951.0
    eye = np.eye(2)
    out = interpolate(frame1, frame2, ops_from(frame1, a * eye, b * eye, c * eye, d * eye))
    assert maxdiff(out.functionals, frame1.functionals * a + frame2.functionals * b) == 0.0
    scalar_interpolate(frame1, frame2, a, b, c, d)


def test_a_non_diagonal_quadruple_stitches_a_parseval_frame_and_its_contract_is_checked():
    # A = B = Q and C = D = Q^T / 2 satisfy C A + D B = I; the pair, turned by an
    # orthogonal W of the sequence space, has no coordinate to itself
    rng = PortableRng(7)
    q = np.linalg.qr(rng.matrix(3, 3))[0]
    w = np.linalg.qr(rng.matrix(8, 8))[0]
    frame1, frame2 = (FramePair(f.x_space, f.seq_space, w @ f.functionals, f.vectors @ w.T)
                      for f in random_orthogonal_parseval_pair(3, 8, seed=3))
    out = interpolate(frame1, frame2, ops_from(frame1, q, q, q.T / 2, q.T / 2))
    assert maxdiff(out.functionals, (frame1.functionals + frame2.functionals) @ q) <= 1e-14
    assert maxdiff(out.vectors, q.T @ (frame1.vectors + frame2.vectors) / 2) <= 1e-14
    assert validate(out).parseval
    c = q.T / 2
    c[0, 0] += 1e-6
    with pytest.raises(ContractViolated) as info:
        interpolate(frame1, frame2, ops_from(frame1, q, q, c, q.T / 2))
    assert info.value.residual == pytest.approx(1e-6 * np.abs(q[0]).max(), rel=1e-6)


@pytest.mark.parametrize("scalars", [(np.nan, 0.0, 1.0, 0.0), (1.0, 0.0, np.nan, 0.0), (np.inf, 0.0, 1.0, 0.0)])
def test_scalar_contract_rejects_non_finite(scalars):
    frame1, frame2 = block_orthogonal_pair()
    with pytest.raises(ContractViolated):
        scalar_interpolate(frame1, frame2, *scalars)


def test_scalar_interpolate_checks_the_frames_before_its_contract():
    # scalar_interpolate is interpolate on scaled identities, whose frame checks come first
    frame1, frame2 = block_orthogonal_pair()
    bad = make_frame(frame1.functionals, 2.0 * frame1.vectors)
    with pytest.raises(NotParseval):
        scalar_interpolate(bad, frame2, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(NotOrthogonal):
        scalar_interpolate(frame1, frame1, 1.0, 1.0, 1.0, 1.0)


def test_an_infinite_scalar_reports_the_operator_residual_nan():
    # inf I times I forms inf * 0 = NaN off the diagonal, silently in ``_product``
    frame1, frame2 = block_orthogonal_pair()
    with pytest.raises(ContractViolated, match="deviates from the identity by nan") as info:
        scalar_interpolate(frame1, frame2, np.inf, 0.0, 1.0, 0.0)
    assert np.isnan(info.value.residual)


def test_operator_contract_violation_reports_residual():
    frame1, frame2 = block_orthogonal_pair()
    eye = np.eye(2)
    with pytest.raises(ContractViolated) as info:
        interpolate(frame1, frame2, ops_from(frame1, eye, eye, eye, eye))
    assert info.value.residual == pytest.approx(1.0)


def test_operator_contract_rejects_nan():
    # a NaN residual must fail the contract, not stitch an all-NaN frame
    frame1, frame2 = block_orthogonal_pair()
    eye = np.eye(2)
    with pytest.raises(ContractViolated) as info:
        interpolate(frame1, frame2, ops_from(frame1, eye, eye, np.full((2, 2), np.nan), eye))
    assert np.isnan(info.value.residual)


def test_interpolate_requires_parseval_inputs():
    frame1, frame2 = block_orthogonal_pair()
    bad = make_frame(frame1.functionals, 2.0 * frame1.vectors)
    eye = np.eye(2)
    zero = np.zeros((2, 2))
    with pytest.raises(NotParseval):
        interpolate(bad, frame2, ops_from(bad, eye, zero, eye, zero))


def test_interpolate_requires_the_second_frame_parseval():
    frame1, frame2 = block_orthogonal_pair()
    bad = make_frame(frame2.functionals, 2.0 * frame2.vectors)
    eye, zero = np.eye(2), np.zeros((2, 2))
    with pytest.raises(NotParseval, match="second frame"):
        interpolate(frame1, bad, ops_from(frame1, eye, zero, eye, zero))


def test_interpolate_rejects_operators_that_are_not_d_by_d():
    frame1, frame2 = block_orthogonal_pair()
    eye, zero = np.eye(2), np.zeros((2, 2))
    ops = ops_from(frame1, eye, zero, eye, zero)
    wide = LinearMap(frame1.x_space, frame1.seq_space, np.zeros((4, 2)))
    with pytest.raises(DimensionMismatch):
        interpolate(frame1, frame2, InterpolationOperators(wide, ops.b_op, ops.c_op, ops.d_op))


def test_interpolating_orthogonal_parseval_frames_inverts_no_frame_operator(monkeypatch):
    inverted = []
    real = frames._invert_frame_op

    def counting(frame, tol):
        inverted.append(frame)
        return real(frame, tol)

    monkeypatch.setattr(frames, "_invert_frame_op", counting)
    frame1, frame2 = random_orthogonal_parseval_pair(8, 16, 3.0, seed=2)
    stitched = scalar_interpolate(frame1, frame2, 0.6, 0.8, 0.6, 0.8)
    assert inverted == []
    assert validate(stitched).parseval


def test_interpolating_a_singular_frame_within_tol_of_parseval_is_not_a_frame():
    # S = diag(1, 0.5) is within tol = 0.6 of I, yet of rank 1 at that tol
    frame1 = make_frame(np.diag([1.0, 0.5]), np.eye(2))
    frame2 = make_frame(np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(NotAFrame) as info:
        scalar_interpolate(frame1, frame2, 1.0, 0.0, 1.0, 0.0, tol=0.6)
    assert info.value.rank == 1


def test_interpolate_requires_orthogonality():
    frame = standard_frame(2)
    eye = np.eye(2)
    zero = np.zeros((2, 2))
    with pytest.raises(NotOrthogonal):
        interpolate(frame, frame, ops_from(frame, eye, zero, eye, zero))


def test_random_contract_satisfying_quadruples_stitch_to_parseval():
    rng = PortableRng(55)
    for seed in range(100):
        d = 2 + seed % 2
        n = 2 * d + seed % 4
        frame1, frame2 = random_orthogonal_parseval_pair(d, n, seed=seed)
        a = random_invertible(d, rng)
        b = rng.matrix(d, d)
        dd = rng.matrix(d, d)
        c = (np.eye(d) - dd @ b) @ np.linalg.inv(a)
        out = interpolate(frame1, frame2, ops_from(frame1, a, b, c, dd))
        s = frame_operator(out).entries
        assert maxdiff(s, np.eye(d)) <= 1e-9
        assert validate(out).parseval


# ---------------------------------------------------------------------------
# exclusions and degeneracy


def test_mixed_pairs_always_fail_validation():
    frame1, frame2 = block_orthogonal_pair()
    assert mixed_pair_degeneracy_check(frame1, frame2) == (True, True)
    for seed in range(20):
        a, b = random_orthogonal_parseval_pair(2, 6, seed=seed)
        assert mixed_pair_degeneracy_check(a, b) == (True, True)


def test_the_mixed_pairs_of_a_pair_orthogonal_within_tol_are_degenerate():
    # both frames are Parseval and tau_1 g = 1e-12 I is within tol of 0; the
    # mixed pair (g, tau_1) has S = 1e-12 I, which validates with rcond 1 on its
    # own, but its rank is counted at the pair's scale, max|S| = 1
    frame1 = make_frame([[1, 0], [0, 1], [0, 0], [0, 0]], [[1, 0, 0, 0], [0, 1, 0, 0]])
    frame2 = make_frame([[1e-12, 0], [0, 1e-12], [1, 0], [0, 1]], [[0, 0, 1, 0], [0, 0, 0, 1]])
    assert is_orthogonal(frame1, frame2)
    assert mixed_pair_degeneracy_check(frame1, frame2) == (True, True)


@settings(deadline=None, max_examples=200)
@given(d=st.integers(1, 4), extra=st.integers(0, 2), seed=st.integers(0, 2**32 - 1),
       log_eps=st.floats(-16.0, -9.5))
def test_the_mixed_pairs_of_a_perturbed_orthogonal_pair_are_degenerate(d, extra, seed, log_eps):
    # g moved by eps N(0, 1): whenever the pair is still orthogonal within tol,
    # both mixed pairs are degenerate at the pair's scale
    frame1, frame2 = random_orthogonal_parseval_pair(d, 2 * d + extra, seed=seed)
    noise = np.random.default_rng(seed).standard_normal(frame2.functionals.shape)
    perturbed = replace(frame2, functionals=frame2.functionals + 10.0**log_eps * noise)
    assume(is_orthogonal(frame1, perturbed))
    assert mixed_pair_degeneracy_check(frame1, perturbed) == (True, True)


def test_mixed_pair_check_rejects_non_orthogonal_input():
    frame = standard_frame(2)
    with pytest.raises(NotOrthogonal):
        mixed_pair_degeneracy_check(frame, frame)


def test_orthogonal_pairs_are_never_dual():
    for seed in range(30):
        a, b = random_orthogonal_parseval_pair(2, 6, seed=seed)
        assert not is_dual(a, b)


def test_dual_pairs_are_never_orthogonal():
    for seed in range(30):
        frame = random_frame(2, 5, seed=seed)
        assert not is_orthogonal(frame, canonical_dual(frame))

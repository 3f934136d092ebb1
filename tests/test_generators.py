import tracemalloc

import numpy as np
import pytest

from pasf import (
    GateSingular,
    GenerationFailed,
    InsufficientCoordinates,
    NotAFrame,
    PasfError,
    canonical_dual,
    dual_from_parameters,
    is_dual,
    is_orthogonal,
    parameters_from_dual,
    random_dual,
    random_frame,
    random_orthogonal_parseval_pair,
    reconstruction_oracle,
    validate,
)
from pasf import generators
from pasf.generators import PortableRng

from helpers import beyond_range_dual_frame, block_orthogonal_pair, make_frame, maxdiff


# ---------------------------------------------------------------------------
# the portable generator itself


def test_rng_frozen_reference_outputs():
    # pins the documented LCG + shuffle algorithm; computed once by hand
    # from the constants and frozen here
    rng = PortableRng(42)
    assert [rng.next_u64() for _ in range(4)] == [
        12035703340208240907,
        17155766285673450268,
        5197257009675513324,
        11766876860292761879,
    ]


def test_rng_uniform_range_and_determinism():
    a = PortableRng(7)
    b = PortableRng(7)
    xs = [a.uniform() for _ in range(1000)]
    assert xs == [b.uniform() for _ in range(1000)]
    assert all(0.0 <= x < 1.0 for x in xs)
    signed = PortableRng(8)
    assert all(-1.0 <= signed.uniform_signed() < 1.0 for _ in range(1000))


def test_rng_seed_is_masked_to_64_bits():
    wide = PortableRng(2**64 + 5)
    narrow = PortableRng(5)
    assert wide.next_u64() == narrow.next_u64()


def test_rng_permutation_is_a_permutation():
    for seed in range(20):
        perm = PortableRng(seed).permutation(9)
        assert sorted(perm.tolist()) == list(range(9))


def test_rng_matrix_fill_is_row_major_and_reproducible():
    # the vectorised fill must equal the scalar stream bit for bit and
    # leave the generator where the scalar stream would
    for seed in (3, 0, 2**64 - 1):
        for rows, cols in ((2, 3), (64, 64), (1, 1)):
            for scale in (1.0, 1.0 / 4096):
                rng = PortableRng(seed)
                a = rng.matrix(rows, cols, scale)
                flat = PortableRng(seed)
                expected = [scale * flat.uniform_signed() for _ in range(rows * cols)]
                assert a.shape == (rows, cols)
                assert a.flatten().tolist() == expected
                assert rng.next_u64() == flat.next_u64()


def test_rng_matrix_fill_keeps_at_most_three_arrays_live():
    # the fill shifts and scales in place; its jump table is cached, so the
    # warm-up call builds it outside the traced call
    PortableRng(1).matrix(64, 64)
    tracemalloc.start()
    try:
        PortableRng(1).matrix(64, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 64 * 64 * 8 + 2048


# ---------------------------------------------------------------------------
# frame generation


def test_rng_matrix_with_no_entries_is_empty():
    rng = PortableRng(3)
    assert rng.matrix(0, 4).shape == (0, 4)
    # no state was consumed
    assert rng.uniform() == PortableRng(3).uniform()


def test_random_frame_smallest_case():
    frame = random_frame(1, 1, seed=0)
    s = float((frame.vectors @ frame.functionals)[0, 0])
    assert s != 0.0


def test_random_frame_determinism():
    a = random_frame(3, 7, seed=99)
    b = random_frame(3, 7, seed=99)
    assert np.array_equal(a.functionals, b.functionals)
    assert np.array_equal(a.vectors, b.vectors)


def test_random_frame_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        random_frame(5, 3)
    with pytest.raises(ValueError):
        random_frame(0, 3)
    with pytest.raises(ValueError):
        random_frame(1, 65)


def test_random_frame_rcond_floor_above_one_fails():
    # rcond = 1 / (||S||_1 ||S^-1||_1) <= 1 for every map, so no draw clears 2
    with pytest.raises(GenerationFailed):
        random_frame(2, 3, min_rcond=2.0)


def test_random_frame_redraws_after_a_draw_that_is_not_a_frame(monkeypatch):
    # the first draw is reported as not a frame, so the frame returned is the second draw
    real, calls = generators._canonical, []

    def first_fails(frame, tol):
        calls.append(frame)
        if len(calls) == 1:
            raise NotAFrame("first draw", rank=0)
        return real(frame, tol)

    monkeypatch.setattr(generators, "_canonical", first_fails)
    frame = random_frame(2, 4, seed=5)
    rng = PortableRng(5)
    rng.matrix(4, 2), rng.matrix(2, 4)
    assert len(calls) == 2
    assert np.array_equal(frame.functionals, rng.matrix(4, 2))
    assert np.array_equal(frame.vectors, rng.matrix(2, 4))


def test_random_frame_exponents_are_configurable():
    frame = random_frame(2, 4, p=1.5, q=3.0, seed=1)
    assert frame.seq_space.p == 1.5
    assert frame.x_space.p == 3.0
    frame = random_frame(2, 4, p=1.5, seed=1)
    assert frame.x_space.p == 1.5


def test_random_frames_all_validate():
    for seed in range(300):
        report = validate(random_frame(4, 8, seed=seed))
        assert report.rcond >= 1e-6
        assert report.analysis_injective and report.synthesis_surjective


# ---------------------------------------------------------------------------
# dual sampling


def test_random_dual_satisfies_criterion_and_round_trips():
    for seed in range(100):
        frame = random_frame(3, 6, seed=seed, min_rcond=1e-4)
        cand = random_dual(frame, seed + 1)
        assert is_dual(frame, cand.frame)
        u, v = parameters_from_dual(frame, cand.frame)
        again = dual_from_parameters(frame, u, v).frame
        scale = max(1.0, float(np.abs(cand.frame.functionals).max()))
        assert maxdiff(again.functionals, cand.frame.functionals) <= 1e-10 * scale


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("factor", [1e150, 1e300, 1e-150, 1e-300])
@pytest.mark.parametrize("side", ["functionals", "vectors"])
def test_random_dual_samples_frames_of_any_scale(p, factor, side):
    # (U, V) follow the frame's scale, so V (I - P) U does not swamp S^-1
    frame = random_frame(4, 6, p, seed=7)
    f, t = frame.functionals, frame.vectors
    if side == "functionals":
        f = f * factor
    else:
        t = t * factor
    scaled = make_frame(f, t, p=p)
    assert is_dual(scaled, random_dual(scaled, 3).frame)


def test_random_dual_scale_stays_finite_for_a_frame_with_subnormal_vectors():
    # 2^-e for max|tau| near 1e-315 leaves the double range; the exponent
    # floor keeps the scale finite, so any failure is a library error. P of
    # this frame overflows (ROADMAP item 2), which must not warn either
    frame = random_frame(3, 5, seed=1)
    tiny = make_frame(frame.functionals * 1e300, frame.vectors * 1e-315)
    try:
        random_dual(tiny, 0)
    except PasfError:
        pass


def test_random_dual_returns_a_dual_past_the_double_range_unchecked():
    # the gate is invertible, but omega overflows; its drift bounds nothing,
    # so the candidate comes back as the canonical dual would, with no
    # ConsistencyError
    frame = beyond_range_dual_frame()
    assert validate(frame).rcond > 0.05
    assert not np.isfinite(random_dual(frame, 0).frame.vectors).all()


def test_random_dual_draws_at_one_over_nd_for_a_frame_in_the_unit_band():
    frame = random_frame(4, 6, seed=7)
    # max|f| and max|tau| in [1/2, 1): the power-of-two factor is exactly 1
    for m in (frame.functionals, frame.vectors):
        assert 0.5 <= float(np.abs(m).max()) < 1.0
    cand = random_dual(frame, 5)
    assert np.array_equal(cand.u_param.entries, PortableRng(5).matrix(6, 4, 1.0 / 24))


def test_random_dual_redraws_after_a_singular_gate(monkeypatch):
    # the first gate is reported singular, so the dual returned is built from the second draw of (U, V)
    real, calls = generators.dual_from_parameters, []

    def first_singular(frame, u, v):
        calls.append(u.entries)
        if len(calls) == 1:
            raise GateSingular("first gate", rank=1)
        return real(frame, u, v)

    monkeypatch.setattr(generators, "dual_from_parameters", first_singular)
    cand = random_dual(random_frame(2, 4, seed=1), seed=3)
    assert len(calls) == 2
    assert np.array_equal(cand.u_param.entries, calls[1])
    assert not np.array_equal(calls[0], calls[1])


def test_random_dual_gives_up_when_every_gate_is_singular(monkeypatch):
    calls = []

    def singular(frame, u, v):
        calls.append(u)
        raise GateSingular("singular gate", rank=1)

    monkeypatch.setattr(generators, "dual_from_parameters", singular)
    with pytest.raises(GenerationFailed, match="no invertible gate"):
        random_dual(random_frame(2, 4, seed=1), seed=3)
    assert len(calls) == generators._MAX_REJECTS


def test_random_dual_determinism():
    frame = random_frame(2, 5, seed=4)
    a = random_dual(frame, 11).frame
    b = random_dual(frame, 11).frame
    assert np.array_equal(a.functionals, b.functionals)


# ---------------------------------------------------------------------------
# orthogonal pair generation


def test_identity_permutation_seed_reproduces_block_pair():
    # seed 17 happens to draw the identity permutation of 4 coordinates
    assert PortableRng(17).permutation(4).tolist() == [0, 1, 2, 3]
    got1, got2 = random_orthogonal_parseval_pair(2, 4, seed=17)
    want1, want2 = block_orthogonal_pair()
    assert np.array_equal(got1.functionals, want1.functionals)
    assert np.array_equal(got1.vectors, want1.vectors)
    assert np.array_equal(got2.functionals, want2.functionals)
    assert np.array_equal(got2.vectors, want2.vectors)


def test_orthogonal_pair_outputs_are_orthogonal_parseval():
    for seed in range(50):
        a, b = random_orthogonal_parseval_pair(3, 7 + seed % 3, seed=seed)
        assert is_orthogonal(a, b)
        assert validate(a).parseval and validate(b).parseval


def test_orthogonal_pair_needs_enough_coordinates():
    with pytest.raises(InsufficientCoordinates):
        random_orthogonal_parseval_pair(3, 5, seed=0)


# ---------------------------------------------------------------------------
# the reconstruction oracle


def test_oracle_accepts_canonical_dual():
    frame = random_frame(3, 6, seed=8)
    assert reconstruction_oracle(frame, canonical_dual(frame))


def test_oracle_rejects_perturbed_dual():
    frame = random_frame(2, 4, seed=8)
    dual = canonical_dual(frame)
    bumped = np.array(dual.functionals)
    bumped[0, 0] += 0.1
    assert not reconstruction_oracle(frame, make_frame(bumped, dual.vectors))


def test_oracle_rejects_a_count_mismatch():
    frame = random_frame(2, 4, seed=8)
    other = random_frame(2, 5, seed=8)
    assert not reconstruction_oracle(frame, other)


def test_oracle_rejects_a_dual_whose_vectors_alone_are_wrong():
    # x = sum g_k(x) tau_k still holds; only x = sum f_k(x) omega_k fails
    frame = random_frame(2, 4, seed=8)
    dual = canonical_dual(frame)
    bumped = np.array(dual.vectors)
    bumped[0, 0] += 0.1
    assert not reconstruction_oracle(frame, make_frame(dual.functionals, bumped))


def test_oracle_agrees_with_criterion():
    for seed in range(100):
        frame = random_frame(2, 5, seed=seed)
        dual = random_dual(frame, seed + 77).frame
        assert reconstruction_oracle(frame, dual) == is_dual(frame, dual)
        bumped = np.array(dual.functionals)
        bumped[seed % dual.functionals.shape[0], 0] += 0.1
        broken = make_frame(bumped, dual.vectors)
        assert reconstruction_oracle(frame, broken) == is_dual(frame, broken)
        assert not reconstruction_oracle(frame, broken)

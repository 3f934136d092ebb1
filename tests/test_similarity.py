import warnings
from dataclasses import replace

import numpy as np
import pytest

from pasf import (
    ConsistencyError,
    DimensionMismatch,
    LinearMap,
    FramePair,
    NotDual,
    NotInvertibleWitness,
    NotParseval,
    NotSimilar,
    SimilarityWitness,
    SpaceMismatch,
    apply_similarity,
    are_similar,
    canonical_dual,
    frame_operator,
    is_dual,
    is_orthogonal,
    parameters_from_dual,
    parseval_transfer_check,
    parsevalize,
    projection,
    random_dual,
    random_frame,
    validate,
    witness_from_frames,
)
from pasf import similarity
from pasf.generators import PortableRng

from helpers import (
    count_witnesses, make_frame, maxdiff, overflowing_terms_frame, scaled_frame, standard_frame, tall_frame,
)


def witness(frame, a, b):
    space = frame.x_space
    return SimilarityWitness(
        t_fg=LinearMap(space, space, a),
        t_tau_omega=LinearMap(space, space, b),
        invertible=True,
    )


def random_invertible(dim, rng, attempts=50):
    for _ in range(attempts):
        a = rng.matrix(dim, dim)
        if 1.0 / np.linalg.cond(a) >= 1e-2:
            return a
    raise AssertionError("no invertible draw")


# ---------------------------------------------------------------------------
# witnesses


def test_witness_reflexive():
    frame = tall_frame()
    w = witness_from_frames(frame, frame)
    assert w.invertible
    assert maxdiff(w.t_fg.entries, np.eye(2)) <= 1e-12
    assert maxdiff(w.t_tau_omega.entries, np.eye(2)) <= 1e-12


def test_witness_for_doubled_vectors():
    frame = random_frame(2, 4, seed=5)
    doubled = make_frame(frame.functionals, 2.0 * frame.vectors)
    w = witness_from_frames(frame, doubled)
    assert maxdiff(w.t_fg.entries, np.eye(2)) <= 1e-10
    assert maxdiff(w.t_tau_omega.entries, 2.0 * np.eye(2)) <= 1e-10


def test_witness_for_canonical_dual_is_inverse_frame_operator():
    frame = random_frame(3, 5, seed=9, min_rcond=1e-3)
    s_inv = np.linalg.inv(frame_operator(frame).entries)
    w = witness_from_frames(frame, canonical_dual(frame))
    assert maxdiff(w.t_fg.entries, s_inv) <= 1e-9 * max(1.0, np.abs(s_inv).max())
    assert maxdiff(w.t_tau_omega.entries, s_inv) <= 1e-9 * max(1.0, np.abs(s_inv).max())


def test_witness_near_the_top_of_the_double_range_stays_finite():
    # theta_omega theta_f S^-1 = 1e300 * 1e300 * 1e-300 overflows when formed left to right
    frame1 = make_frame([[0.0], [1e300], [0.0]], [[0.0, 1.0, 0.0]], p=1.0)
    frame2 = make_frame([[0.0], [1.0], [1.0]], [[0.0, 1e300, 0.0]], p=1.0)
    w = witness_from_frames(frame1, frame2)
    assert w.t_tau_omega.entries[0, 0] == pytest.approx(1e300, rel=1e-15)
    assert w.t_fg.entries[0, 0] == pytest.approx(1e-300, rel=1e-15)
    assert w.invertible


def test_witness_requires_same_spaces():
    with pytest.raises(SpaceMismatch):
        witness_from_frames(standard_frame(2), standard_frame(3))


# ---------------------------------------------------------------------------
# similarity decision


def test_similar_to_canonical_dual():
    frame = random_frame(2, 5, seed=3, min_rcond=1e-3)
    assert are_similar(frame, canonical_dual(frame))


def test_not_similar_when_column_spaces_differ():
    frame1 = make_frame([[1, 0], [0, 1], [0, 0]], [[1, 0, 0], [0, 1, 0]])
    frame2 = make_frame([[1, 0], [0, 1], [1, 1]], [[1, 0, 1], [0, 1, 1]])
    assert not are_similar(frame1, frame2)


def test_construct_then_recover_witnesses():
    rng = PortableRng(404)
    for seed in range(100):
        frame1 = random_frame(3, 6, seed=seed, min_rcond=1e-4)
        a = random_invertible(3, rng)
        b = random_invertible(3, rng)
        frame2 = apply_similarity(frame1, witness(frame1, a, b))
        assert are_similar(frame1, frame2)
        recovered = witness_from_frames(frame1, frame2)
        assert recovered.invertible
        assert maxdiff(recovered.t_fg.entries, a) <= 1e-9
        assert maxdiff(recovered.t_tau_omega.entries, b) <= 1e-9


def test_three_way_equivalence_on_negatives():
    # when projections differ, the recovered witnesses cannot transport
    # frame1 onto frame2
    for seed in range(50):
        frame1 = random_frame(2, 5, seed=seed, min_rcond=1e-4)
        frame2 = random_frame(2, 5, seed=seed + 7777, min_rcond=1e-4)
        if are_similar(frame1, frame2):
            continue
        w = witness_from_frames(frame1, frame2)
        moved = (
            maxdiff(frame2.functionals, frame1.functionals @ w.t_fg.entries)
            if w.invertible
            else np.inf
        )
        assert moved > 1e-9


# ---------------------------------------------------------------------------
# applying witnesses


def test_apply_identity_witness():
    frame = tall_frame()
    out = apply_similarity(frame, witness(frame, np.eye(2), np.eye(2)))
    assert np.array_equal(out.functionals, frame.functionals)
    assert np.array_equal(out.vectors, frame.vectors)


def test_apply_inverse_frame_operator_witness_gives_canonical_dual():
    frame = random_frame(2, 4, seed=12)
    s_inv = np.linalg.inv(frame_operator(frame).entries)
    out = apply_similarity(frame, witness(frame, s_inv, s_inv))
    canon = canonical_dual(frame)
    assert maxdiff(out.functionals, canon.functionals) <= 1e-12
    assert maxdiff(out.vectors, canon.vectors) <= 1e-12


def test_apply_similarity_frame_operator_transform():
    rng = PortableRng(17)
    frame = random_frame(3, 6, seed=2, min_rcond=1e-3)
    a = random_invertible(3, rng)
    b = random_invertible(3, rng)
    out = apply_similarity(frame, witness(frame, a, b))
    s = frame_operator(frame).entries
    expected = b @ s @ a
    assert maxdiff(frame_operator(out).entries, expected) <= 1e-11 * max(1.0, np.abs(expected).max())
    assert are_similar(frame, out)


def test_apply_rejects_non_invertible_witness():
    frame = tall_frame()
    w = SimilarityWitness(
        t_fg=LinearMap(frame.x_space, frame.x_space, np.zeros((2, 2))),
        t_tau_omega=LinearMap(frame.x_space, frame.x_space, np.eye(2)),
        invertible=False,
    )
    with pytest.raises(NotInvertibleWitness):
        apply_similarity(frame, w)


def test_apply_rejects_a_witness_for_another_dimension():
    g = random_frame(3, 4, seed=1)
    w = witness_from_frames(g, parsevalize(g)[0])
    with pytest.raises(DimensionMismatch, match="2 x 2"):
        apply_similarity(random_frame(2, 4, seed=1), w)


def test_witness_flags_singular_candidates():
    # a frame against a zero-functional pre-frame yields singular witnesses
    frame = standard_frame(2)
    broken = make_frame(np.zeros((2, 2)), np.eye(2))
    w = witness_from_frames(frame, broken)
    assert not w.invertible


# ---------------------------------------------------------------------------
# Parseval transfer


def test_parseval_transfer_to_itself():
    frame = standard_frame(3)
    assert parseval_transfer_check(frame, frame)


def test_parseval_transfer_fails_for_doubled_vectors():
    frame = standard_frame(2)
    doubled = make_frame(frame.functionals, 2.0 * frame.vectors)
    assert parseval_transfer_check(frame, doubled) is False
    w = witness_from_frames(frame, doubled)
    assert maxdiff(w.t_tau_omega.entries @ w.t_fg.entries, 2.0 * np.eye(2)) <= 1e-12


def test_parseval_transfer_holds_for_conjugated_frame():
    rng = PortableRng(23)
    frame = standard_frame(3)
    a = random_invertible(3, rng)
    frame2 = apply_similarity(frame, witness(frame, a, np.linalg.inv(a)))
    assert parseval_transfer_check(frame, frame2)


def test_parseval_transfer_requires_parseval_first():
    with pytest.raises(NotParseval):
        parseval_transfer_check(scaled_frame(2, 2.0), standard_frame(2))


def test_parseval_transfer_reports_a_direct_test_that_contradicts_its_witness_routes(monkeypatch):
    # the witness products of (I, 2 I) give S = 2 I, not Parseval; a direct test that reads
    # Parseval disagrees with both routes, which the check reports as the knife edge
    frame = standard_frame(2)
    doubled = make_frame(frame.functionals, 2.0 * frame.vectors)
    real = similarity._parseval
    monkeypatch.setattr(similarity, "_parseval", lambda f, tol: f is doubled or real(f, tol))
    with pytest.raises(ConsistencyError, match="knife edge"):
        parseval_transfer_check(frame, doubled)


def test_parseval_transfer_requires_similarity():
    frame1 = make_frame([[1, 0], [0, 1], [0, 0]], [[1, 0, 0], [0, 1, 0]])
    frame2 = make_frame([[1, 0], [0, 1], [1, 1]], [[1, 0, 1], [0, 1, 1]])
    first, _ = parsevalize(frame1)
    with pytest.raises(NotSimilar):
        parseval_transfer_check(first, frame2)


# ---------------------------------------------------------------------------
# parsevalization


def test_parsevalize_fixed_point():
    frame = standard_frame(2)
    first, second = parsevalize(frame)
    assert maxdiff(first.functionals, frame.functionals) <= 1e-15
    assert maxdiff(second.vectors, frame.vectors) <= 1e-15


def test_parsevalize_scaled_identity():
    frame = scaled_frame(2, 2.0)
    first, second = parsevalize(frame)
    assert maxdiff(first.functionals, 0.5 * np.eye(2)) <= 1e-15
    assert maxdiff(first.vectors, frame.vectors) == 0.0
    assert maxdiff(second.functionals, frame.functionals) == 0.0
    assert maxdiff(second.vectors, np.eye(2)) <= 1e-15


def test_parsevalize_outputs_are_parseval_and_similar():
    for seed in range(100):
        frame = random_frame(2, 5, seed=seed, min_rcond=1e-4)
        first, second = parsevalize(frame)
        assert validate(first).parseval
        assert validate(second).parseval
        assert are_similar(frame, first)
        assert are_similar(frame, second)
        # the advertised witnesses
        s_inv = np.linalg.inv(frame_operator(frame).entries)
        w1 = witness_from_frames(frame, first)
        w2 = witness_from_frames(frame, second)
        scale = max(1.0, float(np.abs(s_inv).max()))
        assert maxdiff(w1.t_fg.entries, s_inv) <= 1e-9 * scale
        assert maxdiff(w1.t_tau_omega.entries, np.eye(frame.dim)) <= 1e-9 * scale
        assert maxdiff(w2.t_fg.entries, np.eye(frame.dim)) <= 1e-9 * scale
        assert maxdiff(w2.t_tau_omega.entries, s_inv) <= 1e-9 * scale


# ---------------------------------------------------------------------------
# relations


def test_similarity_is_an_equivalence_relation():
    rng = PortableRng(31)
    for seed in range(30):
        frame1 = random_frame(2, 5, seed=seed, min_rcond=1e-4)
        a1, b1 = random_invertible(2, rng), random_invertible(2, rng)
        a2, b2 = random_invertible(2, rng), random_invertible(2, rng)
        frame2 = apply_similarity(frame1, witness(frame1, a1, b1))
        frame3 = apply_similarity(frame2, witness(frame2, a2, b2))
        assert are_similar(frame1, frame1)
        assert are_similar(frame1, frame2) and are_similar(frame2, frame1)
        assert are_similar(frame1, frame3)


def test_similar_frames_are_never_orthogonal():
    rng = PortableRng(37)
    for seed in range(30):
        frame1 = random_frame(2, 5, seed=seed, min_rcond=1e-4)
        a, b = random_invertible(2, rng), random_invertible(2, rng)
        frame2 = apply_similarity(frame1, witness(frame1, a, b))
        assert not is_orthogonal(frame1, frame2)


def test_only_the_canonical_dual_is_a_similar_dual():
    for seed in range(20):
        frame = random_frame(2, 5, seed=seed, min_rcond=1e-4)
        assert are_similar(frame, canonical_dual(frame))
        for k in range(10):
            cand = random_dual(frame, 1000 * seed + k).frame
            canon = canonical_dual(frame)
            is_canon = maxdiff(cand.functionals, canon.functionals) <= 1e-9
            assert are_similar(frame, cand) == is_canon


# ---------------------------------------------------------------------------
# one similarity decision, one witness


def test_parseval_transfer_forms_the_witness_once(monkeypatch):
    frame = random_frame(4, 7, p=3.0, seed=2)
    first, second = parsevalize(frame)
    formed = count_witnesses(monkeypatch)
    assert parseval_transfer_check(first, second)
    assert len(formed) == 1


def test_witness_transport_drift_raises_consistency_error(monkeypatch):
    # a witness that no longer carries f onto g must fail closed, not pass as similar
    real = similarity.witness_from_frames

    def shifted(frame1, frame2, tol=1e-9):
        w = real(frame1, frame2, tol)
        t_fg = w.t_fg.entries.copy()
        t_fg[0, 0] += 1e-3
        return SimilarityWitness(
            t_fg=LinearMap(w.t_fg.domain, w.t_fg.codomain, t_fg),
            t_tau_omega=w.t_tau_omega,
            invertible=w.invertible,
        )

    monkeypatch.setattr(similarity, "witness_from_frames", shifted)
    frame = random_frame(4, 6, p=3.0, seed=3)
    with pytest.raises(ConsistencyError, match="witness transport drifts"):
        are_similar(frame, parsevalize(frame)[0])


def test_a_transport_is_held_to_n_times_the_projections_difference(monkeypatch):
    # P1 and P2 differ by diff = 5.6e-10, within tol, so each transport may drift by
    # n diff = 1.7e-9 relative to max|f2| = 2.8. A witness moved by 5e-9 relative drifts
    # by about 5e-9 relative, which that limit catches though 10 n diff would admit it
    base = random_frame(2, 3, seed=1)
    parseval = parsevalize(base)[0]
    functionals = parseval.functionals.copy()
    functionals[0, 0] *= 1.0 + 6e-10
    frame2 = replace(parseval, functionals=functionals)
    diff = maxdiff(projection(base).entries, projection(frame2).entries)
    assert 1e-9 / 3 < diff < 1e-9
    assert are_similar(base, frame2) is True
    real = similarity.witness_from_frames

    def moved(frame1, frame2, tol):
        w = real(frame1, frame2, tol)
        return replace(w, t_fg=replace(w.t_fg, entries=w.t_fg.entries * (1.0 + 5e-9)))

    monkeypatch.setattr(similarity, "witness_from_frames", moved)
    with pytest.raises(ConsistencyError, match="transport"):
        are_similar(base, frame2)


@pytest.mark.parametrize("mirrored", [False, True])
def test_a_frame_whose_transport_terms_overflow_is_similar_to_its_parseval_frame(mirrored):
    # f1 T_fg = f2 holds 2^1010 I, in range, but its terms are near 2^1030: the
    # criterion residual forms the product as S and the duals are formed, by _product
    frame = overflowing_terms_frame(mirrored)
    first, second = parsevalize(frame)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert are_similar(frame, second if mirrored else first) is True
        assert are_similar(frame, first if mirrored else second) is True
        if mirrored:
            assert parseval_transfer_check(first, second) is True
        else:
            assert parseval_transfer_check(second, first) is True


def two_scaled(seed, kf, kt):
    drawn = random_frame(3, 4, 2.0, seed=seed)
    return FramePair(drawn.x_space, drawn.seq_space,
                     np.ldexp(drawn.functionals, kf), np.ldexp(drawn.vectors, kt))


@pytest.mark.parametrize("order", ["forward", "reverse"])
def test_two_frame_criteria_whose_cross_products_overflow_do_not_warn(order):
    # f 2^600 and tau 2^-600 against f 2^-600 and tau 2^600: each S is in
    # range, but tau_1 f_2 and the witness tau_2 f_1 S_1^-1 are near 2^1200
    a, b = two_scaled(14, 600, -600), two_scaled(15, -600, 600)
    if order == "reverse":
        a, b = b, a
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not is_dual(a, b)
        assert not is_orthogonal(a, b)
        assert not are_similar(a, b)
        with pytest.raises(NotDual):
            parameters_from_dual(a, b)
        # b's S^-1 is now held, so the reverse witnesses are formed too
        assert isinstance(witness_from_frames(a, b), SimilarityWitness)


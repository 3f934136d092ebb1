import dataclasses
import gc
import warnings
import weakref

import numpy as np
import pytest

from pasf import (
    DEFAULT_TOL,
    DimensionMismatch,
    FramePair,
    InterpolationOperators,
    LinearMap,
    NotAFrame,
    NotInvertible,
    PNormSpace,
    PortableRng,
    RequiresSquare,
    Singular,
    Vector,
    analysis_operator,
    apply,
    apply_similarity,
    are_similar,
    basis_factorization,
    canonical_dual,
    compose,
    dual_from_parameters,
    dumps_frame,
    factorize,
    frame_from_dict,
    frame_operator,
    frame_to_dict,
    from_factorization,
    identity,
    interpolate,
    invert,
    invert_with_rcond,
    left_inverse_from,
    load_frame,
    loads_frame,
    parameters_from_dual,
    parseval_transfer_check,
    parsevalize,
    projection,
    random_dual,
    random_frame,
    random_orthogonal_parseval_pair,
    rank,
    reconstruct,
    right_inverse_from,
    save_frame,
    scalar_interpolate,
    synthesis_operator,
    validate,
    witness_from_frames,
)
from pasf import frames, spaces

from helpers import (
    make_frame,
    maxdiff,
    rank_one_frame_operator,
    scaled_frame,
    standard_frame,
    tall_frame,
)


# ---------------------------------------------------------------------------
# operators


def test_analysis_operator_coordinate_functionals():
    th = analysis_operator(standard_frame(2))
    assert maxdiff(th.entries, np.eye(2)) == 0.0


def test_analysis_operator_row_dots():
    frame = tall_frame()
    th = analysis_operator(frame)
    out = apply(th, Vector(frame.x_space, [2.0, 5.0]))
    assert out.coords.tolist() == [2.0, 5.0, 2.0]


def test_analysis_operator_zero_functionals():
    frame = make_frame(np.zeros((2, 2)), np.eye(2))
    assert maxdiff(analysis_operator(frame).entries, 0.0) == 0.0
    with pytest.raises(NotAFrame):
        validate(frame)


def test_synthesis_operator_basis_expansion():
    frame = standard_frame(2)
    out = apply(synthesis_operator(frame), Vector(frame.seq_space, [3.0, 4.0]))
    assert out.coords.tolist() == [3.0, 4.0]


def test_synthesis_operator_column_combination():
    frame = tall_frame()
    out = apply(synthesis_operator(frame), Vector(frame.seq_space, [1.0, 1.0, 1.0]))
    assert out.coords.tolist() == [2.0, 1.0]


def test_synthesis_operator_picks_columns():
    frame = tall_frame()
    out = apply(synthesis_operator(frame), Vector(frame.seq_space, [1.0, 0.0, 0.0]))
    assert out.coords.tolist() == frame.vectors[:, 0].tolist()


def test_frame_operator_examples():
    assert maxdiff(frame_operator(standard_frame(2)).entries, np.eye(2)) == 0.0
    assert maxdiff(frame_operator(scaled_frame(2, 2.0)).entries, 2.0 * np.eye(2)) == 0.0
    assert maxdiff(frame_operator(tall_frame()).entries, [[2, 0], [0, 1]]) == 0.0


def test_frame_operator_splits_as_rank_one_sum():
    for seed in range(50):
        frame = random_frame(3, 6, seed=seed)
        split = rank_one_frame_operator(frame)
        assert maxdiff(frame_operator(frame).entries, split) <= 1e-12


def test_frame_pair_shape_checks():
    with pytest.raises(DimensionMismatch):
        FramePair(
            x_space=PNormSpace(2, 2.0),
            seq_space=PNormSpace(3, 2.0),
            functionals=np.eye(2),
            vectors=np.zeros((2, 3)),
        )


def test_frame_pair_rejects_vectors_of_the_wrong_shape():
    with pytest.raises(DimensionMismatch):
        FramePair(
            x_space=PNormSpace(2, 2.0),
            seq_space=PNormSpace(3, 2.0),
            functionals=np.zeros((3, 2)),
            vectors=np.zeros((3, 2)),
        )


def test_reconstruct_rejects_a_vector_off_x_space():
    with pytest.raises(DimensionMismatch):
        reconstruct(standard_frame(2), Vector(PNormSpace(3, 2.0), [1.0, 2.0, 3.0]))


def test_from_factorization_rejects_incompatible_shapes():
    x, seq = PNormSpace(2, 2.0), PNormSpace(3, 2.0)
    u = LinearMap(x, seq, np.ones((3, 2)))
    with pytest.raises(DimensionMismatch):
        from_factorization(u, LinearMap(PNormSpace(4, 2.0), x, np.ones((2, 4))))


def test_basis_factorization_rejects_a_basis_that_is_not_d_by_d():
    frame = standard_frame(2)
    basis = LinearMap(PNormSpace(3, 2.0), PNormSpace(3, 2.0), np.eye(3))
    with pytest.raises(DimensionMismatch):
        basis_factorization(frame, basis)


# ---------------------------------------------------------------------------
# validation


def test_validate_scaled_identity():
    report = validate(scaled_frame(2, 2.0))
    assert report.lower_bound.exact and report.lower_bound.value == pytest.approx(2.0)
    assert report.upper_bound.exact and report.upper_bound.value == pytest.approx(2.0)
    assert not report.parseval
    assert report.analysis_injective and report.synthesis_surjective


def test_validate_parseval_case():
    report = validate(standard_frame(3))
    assert report.parseval
    assert report.lower_bound.value == pytest.approx(1.0)
    assert report.upper_bound.value == pytest.approx(1.0)


def test_validate_rank_deficient():
    frame = make_frame([[1, 0], [1, 0]], [[1, 1], [0, 0]])
    with pytest.raises(NotAFrame) as info:
        validate(frame)
    assert info.value.rank == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_validate_rejects_non_finite_entries(bad):
    # a non-finite entry must never pass a rank check
    frame = make_frame([[1, 0], [0, bad]], np.eye(2))
    with np.errstate(invalid="ignore"):  # T F forms 0 * inf here, which numpy warns about
        assert rank(frame_operator(frame)) == 0
    assert rank(analysis_operator(frame)) == 0
    with pytest.raises(NotAFrame) as info:
        validate(frame)
    assert info.value.rank == 0


def test_parseval_brackets_contain_one_within_dim_tol():
    # entrywise ||S - I|| <= tol perturbs any induced norm by at most dim*tol
    tol = 1e-9
    for seed in range(20):
        frame = random_frame(3, 5, seed=seed)
        report = validate(frame, tol)
        if not report.parseval:
            continue
        slack = frame.dim * tol
        assert report.lower_bound.contains(1.0, slack=slack)
        assert report.upper_bound.contains(1.0, slack=slack)


def test_validate_bounds_match_eigenvalues_for_spd_case():
    # q = p = 2 with S symmetric positive definite: a = lambda_min, b = lambda_max
    rng = PortableRng(333)
    for _ in range(50):
        f = rng.matrix(5, 3)
        frame = make_frame(f, f.T)
        report = validate(frame)
        eigs = np.linalg.eigvalsh(frame.vectors @ frame.functionals)
        assert report.lower_bound.value == pytest.approx(eigs.min(), rel=1e-9)
        assert report.upper_bound.value == pytest.approx(eigs.max(), rel=1e-9)


@pytest.mark.parametrize("shape", [(64, 64), (8, 16)])
def test_p2_bounds_are_the_extreme_singular_values_of_s(shape):
    # a = 1/||S^-1|| = sigma_min(S) and b = ||S|| = sigma_max(S), from one SVD of S
    for seed in range(5):
        report = validate(random_frame(*shape, p=2.0, seed=seed))
        sv = np.linalg.svd(report.frame_op.entries, compute_uv=False)
        assert report.lower_bound.exact and report.upper_bound.exact
        assert [report.lower_bound.value, report.upper_bound.value] == sv[[-1, 0]].tolist()


def test_canonical_pair_is_a_frame_with_inverse_operator():
    for seed in range(30):
        frame = random_frame(3, 5, seed=seed)
        s = frame_operator(frame).entries
        s_inv = np.linalg.inv(s)
        canonical = make_frame(frame.functionals @ s_inv, s_inv @ frame.vectors)
        report = validate(canonical)
        scale = max(1.0, float(np.abs(s_inv).max()))
        assert maxdiff(report.frame_op.entries, s_inv) <= 1e-10 * scale


# ---------------------------------------------------------------------------
# reconstruction and projection


def test_reconstruct_zero_vector():
    frame = tall_frame()
    e1, e2, r1, r2 = reconstruct(frame, Vector(frame.x_space, [0.0, 0.0]))
    assert maxdiff(e1.coords, 0.0) == 0.0 and maxdiff(e2.coords, 0.0) == 0.0
    assert r1 == 0.0 and r2 == 0.0


def test_reconstruct_scaled_identity():
    frame = scaled_frame(2, 2.0)
    e1, e2, r1, r2 = reconstruct(frame, Vector(frame.x_space, [1.0, 1.0]))
    assert maxdiff(e1.coords, [1.0, 1.0]) <= 1e-15
    assert maxdiff(e2.coords, [1.0, 1.0]) <= 1e-15
    assert max(r1, r2) <= 1e-15


def test_reconstruct_parseval_expansion_needs_no_inverse():
    frame = standard_frame(3)
    x = Vector(frame.x_space, [1.0, -2.0, 0.5])
    e1, e2, _, _ = reconstruct(frame, x)
    plain = frame.vectors @ (frame.functionals @ x.coords)
    assert maxdiff(e1.coords, plain) <= 1e-15
    assert maxdiff(e2.coords, plain) <= 1e-15


def test_reconstruct_residuals_over_random_frames():
    rng = PortableRng(2024)
    for seed in range(500):
        d = 1 + rng.randint(8)
        n = d + rng.randint(9)
        frame = random_frame(d, n, seed=seed)
        x = Vector(frame.x_space, rng.matrix(1, d)[0])
        _, _, r1, r2 = reconstruct(frame, x)
        scale = max(1e-12, float(np.linalg.norm(x.coords)))
        assert r1 <= 1e-9 * scale
        assert r2 <= 1e-9 * scale


def test_reconstruct_residuals_tight_on_well_conditioned_frames():
    rng = PortableRng(2025)
    for seed in range(200):
        d = 1 + rng.randint(8)
        n = d + rng.randint(9)
        frame = random_frame(d, n, seed=seed, min_rcond=1e-4)
        x = Vector(frame.x_space, rng.matrix(1, d)[0])
        _, _, r1, r2 = reconstruct(frame, x)
        scale = max(1e-12, float(np.linalg.norm(x.coords)))
        assert max(r1, r2) <= d * n * 1e-12 * scale


def test_projection_square_frame_is_identity():
    frame = make_frame([[2, 1], [1, 1]], [[1, 0], [0, 1]])
    assert maxdiff(projection(frame).entries, np.eye(2)) <= 1e-12


def test_projection_frozen_example():
    p = projection(tall_frame())
    assert maxdiff(p.entries, [[0.5, 0, 0.5], [0, 1, 0], [0.5, 0, 0.5]]) <= 1e-15


def test_projection_properties_over_random_frames():
    for seed in range(100):
        frame = random_frame(3, 7, seed=seed)
        p = projection(frame)
        assert maxdiff(p.entries @ p.entries, p.entries) <= 1e-10
        assert rank(p, 1e-9) == frame.dim
        assert np.trace(p.entries) == pytest.approx(frame.dim, abs=1e-9)
        # P fixes the range of the analysis operator
        coeffs = frame.functionals @ PortableRng(seed).matrix(1, frame.dim)[0]
        assert maxdiff(p.entries @ coeffs, coeffs) <= 1e-10


# ---------------------------------------------------------------------------
# factorizations


def test_from_factorization_identity_pair():
    space = PNormSpace(2, 2.0)
    u = LinearMap(space, space, np.eye(2))
    v = LinearMap(space, space, np.eye(2))
    frame = from_factorization(u, v)
    assert maxdiff(frame.functionals, np.eye(2)) == 0.0
    assert maxdiff(frame_operator(frame).entries, np.eye(2)) == 0.0


def test_from_factorization_one_dimensional():
    x = PNormSpace(1, 2.0)
    seq = PNormSpace(2, 2.0)
    u = LinearMap(x, seq, [[1.0], [1.0]])
    v = LinearMap(seq, x, [[1.0, 0.0]])
    frame = from_factorization(u, v)
    assert frame.functionals.tolist() == [[1.0], [1.0]]
    assert frame.vectors.tolist() == [[1.0, 0.0]]
    assert frame_operator(frame).entries.tolist() == [[1.0]]


def test_from_factorization_rejects_singular_product():
    x = PNormSpace(1, 2.0)
    seq = PNormSpace(2, 2.0)
    u = LinearMap(x, seq, [[1.0], [0.0]])
    v = LinearMap(seq, x, [[0.0, 1.0]])
    with pytest.raises(NotInvertible) as info:
        from_factorization(u, v)
    assert info.value.rank == 0
    assert str(info.value) == "V U is singular at tol=1e-09: rank 0 of 1"


def test_factorize_standard_frame():
    u, v = factorize(standard_frame(2))
    assert maxdiff(u.entries, np.eye(2)) == 0.0
    assert maxdiff(v.entries, np.eye(2)) == 0.0


def test_factorize_rejects_invalid_frame():
    with pytest.raises(NotAFrame):
        factorize(make_frame(np.zeros((2, 2)), np.eye(2)))


def test_factorization_round_trip_is_bit_exact():
    for seed in range(100):
        frame = random_frame(2, 5, seed=seed)
        u, v = factorize(frame)
        back = from_factorization(u, v)
        assert np.array_equal(back.functionals, frame.functionals)
        assert np.array_equal(back.vectors, frame.vectors)
        assert back.x_space == frame.x_space and back.seq_space == frame.seq_space


def test_factorize_scaled_vectors():
    u, v = factorize(scaled_frame(3, 2.0))
    assert maxdiff(v.entries, 2.0 * np.eye(3)) == 0.0


def test_basis_factorization_identity_basis():
    frame = make_frame([[2, 1], [1, 1]], [[1, 3], [0, 1]])
    basis = LinearMap(frame.x_space, frame.x_space, np.eye(2))
    u, v = basis_factorization(frame, basis)
    assert maxdiff(u.entries, frame.functionals) == 0.0
    assert maxdiff(v.entries, frame.vectors) == 0.0


def test_basis_factorization_frozen_example():
    frame = standard_frame(2)
    basis = LinearMap(frame.x_space, frame.x_space, [[2.0, 0.0], [0.0, 1.0]])
    u, v = basis_factorization(frame, basis)
    assert maxdiff(u.entries, basis.entries) == 0.0
    assert maxdiff(v.entries, [[0.5, 0.0], [0.0, 1.0]]) <= 1e-15
    assert maxdiff(v.entries @ u.entries, frame_operator(frame).entries) <= 1e-15


def test_basis_factorization_reproduces_frame_through_basis():
    rng = PortableRng(99)
    for seed in range(30):
        frame = random_frame(3, 3, seed=seed)
        w = rng.matrix(3, 3)
        if np.linalg.matrix_rank(w) < 3:
            continue
        basis = LinearMap(frame.x_space, frame.x_space, w)
        u, v = basis_factorization(frame, basis)
        w_inv = np.linalg.inv(w)
        # f_k = g_k U with g_k the rows of basis^-1
        assert maxdiff(w_inv @ u.entries, frame.functionals) <= 1e-9
        # tau_k = V w_k
        assert maxdiff(v.entries @ w, frame.vectors) <= 1e-9
        assert maxdiff(v.entries @ u.entries, frame_operator(frame).entries) <= 1e-9


def test_basis_factorization_requires_square():
    with pytest.raises(RequiresSquare):
        frame = tall_frame()
        basis = LinearMap(frame.x_space, frame.x_space, np.eye(2))
        basis_factorization(frame, basis)


def test_basis_factorization_rejects_singular_basis():
    frame = standard_frame(2)
    basis = LinearMap(frame.x_space, frame.x_space, [[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(Singular):
        basis_factorization(frame, basis)


# ---------------------------------------------------------------------------
# S^-1 is computed once per (frame, tol); brackets only in validate


def test_frame_operator_is_inverted_once_per_frame_and_tol(monkeypatch):
    inverted = []
    real = frames._invert_frame_op

    def counting(frame, tol):
        inverted.append((frame, tol))
        return real(frame, tol)

    monkeypatch.setattr(frames, "_invert_frame_op", counting)
    frame = random_frame(6, 9, p=3.0, seed=4)
    validate(frame)
    canonical_dual(frame)
    projection(frame)
    for seed in range(3):
        random_dual(frame, seed)
    assert are_similar(frame, parsevalize(frame)[0])
    assert sum(1 for f, _ in inverted if f is frame) == 1
    validate(frame, 1e-6)
    assert sum(1 for f, _ in inverted if f is frame) == 2


def test_frames_are_freed_without_the_cyclic_gc():
    # the memo's records must not refer back to their frame: a cycle would
    # keep every frame alive until the cyclic collector runs
    gc.disable()
    try:
        frame = random_frame(6, 9, p=3.0, seed=4)
        validate(frame)
        canonical_dual(frame)
        projection(frame)
        for seed in range(3):
            random_dual(frame, seed)
        first = parsevalize(frame)[0]
        assert are_similar(frame, first)
        refs = weakref.ref(frame), weakref.ref(first)
        del frame, first
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_canonical_products_are_formed_once_per_frame_and_tol(monkeypatch):
    formed = []
    for name in ("dual_functionals", "dual_vectors", "projection", "complement"):
        product = vars(frames._Canonical)[name]

        def counting(record, name=name, form=product.func):
            formed.append((record, name))
            return form(record)

        monkeypatch.setattr(product, "func", counting)

    def names(frame, tol):
        record = frames._held(frame, tol)
        return sorted(name for r, name in formed if r is record)

    frame = random_frame(6, 9, p=3.0, seed=4)
    validate(frame)
    canonical_dual(frame)
    projection(frame)
    for seed in range(3):
        random_dual(frame, seed)
    first = parsevalize(frame)[0]
    assert are_similar(frame, first)
    assert names(frame, DEFAULT_TOL) == ["complement", "dual_functionals", "dual_vectors", "projection"]
    # frame2 of are_similar: its P, then the reverse witnesses read its canonical dual
    assert names(first, DEFAULT_TOL) == ["dual_functionals", "dual_vectors", "projection"]
    validate(frame, 1e-6)
    assert names(frame, 1e-6) == ["dual_functionals", "dual_vectors"]


def test_canonical_products_are_kept_per_tol():
    # S = diag(1, 1e-3) is a frame at the default tol and singular at 1e-2,
    # so P memoised at one tol must not answer for the other
    frame = make_frame(np.diag([1.0, 1e-3]), np.eye(2))
    assert maxdiff(projection(frame).entries, np.eye(2)) <= 1e-15
    assert not frames._canonical(frame, DEFAULT_TOL).projection.flags.writeable
    with pytest.raises(NotAFrame):
        projection(frame, 1e-2)
    with pytest.raises(NotAFrame):
        canonical_dual(frame, 1e-2)


def read_only(a) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@pytest.mark.parametrize("kind", ["writable", "read-only view", "integer", "read-only owned"])
def test_any_other_array_is_copied(kind):
    given = {
        "writable": PortableRng(5).matrix(3, 2),
        "read-only view": read_only(PortableRng(5).matrix(3, 4))[:, 1:3],
        "integer": np.array([[1, 2], [3, 4], [5, 6]]),
        "read-only owned": read_only(PortableRng(5).matrix(3, 2)),
    }[kind]
    if kind == "integer":
        given.setflags(write=False)
    original = given.copy()
    vectors = np.eye(2, 3)
    frame = FramePair(PNormSpace(2), PNormSpace(3), given, vectors)
    m = LinearMap(PNormSpace(2), PNormSpace(3), given)
    validate(frame)  # S^-1 is memoised before the caller's arrays change
    for kept in (frame.functionals, frame.vectors, m.entries):
        assert kept.dtype == np.float64 and kept.flags.owndata and not kept.flags.writeable
    assert frame.functionals is not given and m.entries is not given and frame.vectors is not vectors
    assert not canonical_dual(frame).functionals.flags.writeable
    vectors[0, 0] = 7.0
    if given.flags.owndata:  # a caller may make its own array writable again
        given.setflags(write=True)
        given[0, 0] = 7.0
    fresh = FramePair(PNormSpace(2), PNormSpace(3), original, np.eye(2, 3))
    assert np.array_equal(frame.functionals, fresh.functionals) and np.array_equal(m.entries, fresh.functionals)
    assert np.array_equal(frame.vectors, fresh.vectors)
    assert np.array_equal(validate(frame).frame_op_inv.entries, validate(fresh).frame_op_inv.entries)


def held_arrays(result):
    """Every array a public result holds: its own, its fields' and its items'."""
    if isinstance(result, np.ndarray):
        yield result
    elif isinstance(result, (tuple, list)):
        for item in result:
            yield from held_arrays(item)
    elif dataclasses.is_dataclass(result):
        for f in dataclasses.fields(result):
            if not f.name.startswith("_"):  # a frame's private memo is not an output
                yield from held_arrays(getattr(result, f.name))


def test_every_output_array_is_read_only(tmp_path):
    frame = random_frame(3, 5, p=3.0, seed=2)
    square = random_frame(3, 3, seed=3)
    one, two = random_orthogonal_parseval_pair(2, 4, seed=1)
    x, y = frame.x_space, frame.seq_space
    u, v = LinearMap(x, y, np.ones((5, 3)) / 64), LinearMap(y, x, np.ones((3, 5)) / 64)
    basis = LinearMap(x, x, [[2.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 4.0]])
    eye, zero = identity(one.x_space), LinearMap(one.x_space, one.x_space, np.zeros((2, 2)))
    path = tmp_path / "frame.json"
    save_frame(frame, path)
    dual = canonical_dual(frame)
    outputs = {
        "validate": validate(frame),
        "validate p=2": validate(square),
        "canonical_dual": dual,
        "parsevalize": parsevalize(frame),
        "projection": projection(frame),
        "random_frame": random_frame(2, 3, seed=4),
        "random_dual": random_dual(frame, 0),
        "dual_from_parameters": dual_from_parameters(frame, u, v),
        "parameters_from_dual": parameters_from_dual(frame, dual),
        "witness_from_frames": witness_from_frames(frame, parsevalize(frame)[0]),
        "apply_similarity": apply_similarity(frame, witness_from_frames(frame, parsevalize(frame)[1])),
        "right_inverse_from": right_inverse_from(frame, u),
        "left_inverse_from": left_inverse_from(frame, v),
        "factorize": factorize(frame),
        "from_factorization": from_factorization(*factorize(frame)),
        "basis_factorization": basis_factorization(square, basis),
        "analysis_operator": analysis_operator(frame),
        "synthesis_operator": synthesis_operator(frame),
        "random_orthogonal_parseval_pair": (one, two),
        "interpolate": interpolate(one, two, InterpolationOperators(eye, zero, eye, zero)),
        "scalar_interpolate": scalar_interpolate(one, two, 1.0, 0.0, 1.0, 0.0),
        "invert": invert(basis),
        "invert_with_rcond": invert_with_rcond(basis),
        "compose": compose(basis, basis),
        "identity": identity(x),
        "apply": apply(basis, Vector(x, [1.0, 2.0, 3.0])),
        "frame_operator": frame_operator(frame),
        "reconstruct": reconstruct(frame, Vector(x, [1.0, 2.0, 3.0])),
        "load_frame": load_frame(path),
        "loads_frame": loads_frame(dumps_frame(frame)),
        "frame_from_dict": frame_from_dict(frame_to_dict(frame)),
    }
    for name, result in outputs.items():
        arrays = list(held_arrays(result))
        assert arrays, name
        for a in arrays:
            assert a.dtype == np.float64 and a.flags.owndata and not a.flags.writeable, name


@pytest.mark.parametrize("scale", [1e160, 1e300])
@pytest.mark.parametrize("call", [
    validate,
    canonical_dual,
    projection,
    parsevalize,
    lambda frame: are_similar(frame, frame),
    lambda frame: random_dual(frame, 0),
], ids=["validate", "canonical_dual", "projection", "parsevalize", "are_similar", "random_dual"])
def test_frame_whose_s_overflows_is_not_a_frame_and_does_not_warn(call, scale):
    # S = T F is past the double range although every entry of f and tau is finite
    drawn = random_frame(3, 4, 3.0, seed=1)
    big = FramePair(drawn.x_space, drawn.seq_space, drawn.functionals * scale, drawn.vectors * scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotAFrame, match="rank 0 of 3"):
            call(big)


def test_only_validate_computes_norm_brackets(monkeypatch):
    calls = []
    real = frames.operator_norm

    def counting(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(frames, "operator_norm", counting)
    frame = random_frame(8, 8, 3.0)
    f1, f2 = random_orthogonal_parseval_pair(2, 4, 3.0, seed=1)
    scalar_interpolate(f1, f2, 0.6, 0.8, 0.6, 0.8)
    first, second = parsevalize(frame)
    assert parseval_transfer_check(first, second)
    assert calls == []
    validate(frame)
    assert len(calls) == 2


def test_parseval_frame_need_not_have_injective_analysis_at_relative_tol():
    # S = T F = I exactly, yet each factor is rank deficient at tol = 1e-9
    # relative to its own largest entry, so the flags carry information
    # that an invertible S does not
    report = validate(make_frame(np.diag([1.0, 1e-12]), np.diag([1.0, 1e12])))
    assert report.parseval
    assert not report.analysis_injective
    assert not report.synthesis_surjective


def test_pipeline_on_a_well_conditioned_frame_certifies_every_full_rank(monkeypatch):
    # every map whose rank is decided here is far from singular, and each
    # comes with an inverse the library already holds, so no SVD runs
    eliminated = []
    real = spaces._eliminate

    def counting(a, tol):
        eliminated.append(a.shape)
        return real(a, tol)

    monkeypatch.setattr(spaces, "_eliminate", counting)
    frame = random_frame(16, 16, p=2.0, seed=7)
    report = validate(frame)
    assert report.analysis_injective and report.synthesis_surjective
    # a tall theta_f and a wide theta_tau, each with its one-sided inverse
    report = validate(random_frame(8, 12, p=2.0, seed=7))
    assert report.analysis_injective and report.synthesis_surjective
    for seed in range(3):
        random_dual(frame, seed)
    assert are_similar(frame, parsevalize(frame)[0])
    assert eliminated == []
    # a witness whose frame2 was never inverted goes to the SVD
    assert witness_from_frames(frame, parsevalize(frame)[1]).invertible
    assert len(eliminated) == 2

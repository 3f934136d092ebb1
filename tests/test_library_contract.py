"""The library contract on frames of any scale.

Whatever the power-of-two scale of a frame's functionals and vectors,
every entry point that takes frames either returns or raises a
``PasfError``, and emits no numpy RuntimeWarning: a product or sum past
the double range fails the criterion it feeds, silently. The public
algebra (``compose``, ``apply``, the factorizations, the one-sided
inverses and ``apply_similarity``) forms its products silently too, and
re-forms an entry whose terms overflow although its true value is finite.

Exchanging powers of two between a frame's functionals and vectors, f
2^j with tau 2^-j, leaves S, P and every dual unchanged, so it must leave
every verdict unchanged too; the tests after that pin it, and check P
against exact rational arithmetic at extreme scales. Then frames whose
every entry carries its own power of two fuzz the same contracts, a NaN
entry never yields True, the memo answers as a fresh frame does, so does
a frame passed in Fortran order, bit for bit, and the one criterion rule
scales with what it compares: no verdict changes under (c f, tau / c)
for any c.
"""

import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pasf import (
    ConsistencyError,
    FramePair,
    LinearMap,
    PasfError,
    PNormSpace,
    SimilarityWitness,
    Vector,
    apply,
    apply_similarity,
    are_similar,
    basis_factorization,
    canonical_dual,
    compose,
    dumps_frame,
    frame_operator,
    from_factorization,
    has_unique_dual,
    is_dual,
    is_orthogonal,
    left_inverse_from,
    loads_frame,
    parseval_transfer_check,
    parsevalize,
    projection,
    random_dual,
    random_frame,
    random_orthogonal_parseval_pair,
    reconstruct,
    right_inverse_from,
    save_frame,
    scalar_interpolate,
    validate,
    witness_from_frames,
)
from pasf import similarity
from pasf.cli import main
from pasf.generators import reconstruction_oracle
from pasf.spaces import _agrees

import exact

EPS = float(np.finfo(float).eps)


def scaled(frame, kf, kt):
    """``frame`` with f times 2^kf and tau times 2^kt."""
    return FramePair(frame.x_space, frame.seq_space,
                     np.ldexp(frame.functionals, kf), np.ldexp(frame.vectors, kt))


def entry_scaled(frame, ef, et):
    """``frame`` with f_ij times 2^ef_ij and tau_ij times 2^et_ij."""
    return FramePair(frame.x_space, frame.seq_space,
                     np.ldexp(frame.functionals, np.asarray(ef)), np.ldexp(frame.vectors, np.asarray(et)))


def item9_frame(d, n, p, seed, ef, et):
    """A frame whose entries carry independent powers of two, and whose
    similarity one exchange for the whole frame cannot decide: its P
    leaves the double range, or is formed far from its exact value. One
    exchange per coefficient, ROADMAP item 9, would decide it."""
    return entry_scaled(random_frame(d, n, p, seed=seed), ef, et)


#: whose P leaves the double range (seed 1400), or is formed far from the exact I of a square frame (seed 547)
ITEM9 = [(2, 2, math.inf, 547, [[156, 253], [696, 468]], [[-33, 116], [542, -400]]),
         (1, 2, 1.0, 1400, [[697], [-553]], [[-691, 394]])]


@st.composite
def scaled_frames(draw, d, n, p):
    """A random frame with f × 2^kf and tau × 2^kt, kf and kt in
    [-1070, 1000] and |kf + kt| <= 900, so S stays in the double range."""
    kf = draw(st.integers(-1070, 1000))
    kt = draw(st.integers(max(-1070, -900 - kf), min(1000, 900 - kf)))
    return scaled(random_frame(d, n, p, seed=draw(st.integers(0, 2**32 - 1))), kf, kt)


def one_frame_calls(a, seed=0):
    """The one-frame entry points on ``a``, each as a thunk."""
    x = Vector(a.x_space, np.linspace(-1.0, 1.0, a.dim))

    def oracle():
        return reconstruction_oracle(a, canonical_dual(a))

    return [
        lambda: validate(a),
        lambda: canonical_dual(a),
        lambda: projection(a),
        lambda: reconstruct(a, x),
        lambda: random_dual(a, seed),
        lambda: parsevalize(a),
        lambda: are_similar(a, a),
        lambda: has_unique_dual(a),
        oracle,
    ]


def two_frame_calls(a, b):
    """The two-frame entry points on (``a``, ``b``), each as a thunk."""
    return [
        lambda: is_dual(a, b),
        lambda: is_orthogonal(a, b),
        lambda: are_similar(a, b),
        lambda: witness_from_frames(a, b),
        lambda: parseval_transfer_check(a, b),
    ]


def run_silently(calls):
    """Run every thunk with warnings as errors; a PasfError is an answer."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            try:
                call()
            except PasfError:
                pass


@settings(deadline=None, max_examples=200)
@given(data=st.data(), d=st.integers(1, 4), extra=st.integers(0, 2),
       p=st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]), seed=st.integers(0, 9))
def test_entry_points_on_frames_of_any_scale_raise_only_pasf_errors_and_never_warn(data, d, extra, p, seed):
    a = data.draw(scaled_frames(d, d + extra, p))
    b = data.draw(scaled_frames(d, d + extra, p))
    run_silently(one_frame_calls(a, seed) + two_frame_calls(a, b) + two_frame_calls(b, a))


def diagonal_frame(e):
    """The Parseval frame f = diag(2^-e, 2^e), tau = diag(2^e, 2^-e) of l^2_2."""
    space = PNormSpace(2, 2.0)
    return FramePair(space, space, np.diag([2.0**-e, 2.0**e]), np.diag([2.0**e, 2.0**-e]))


def found_frame():
    """A valid frame whose f S^-1 leaves the double range: S is near
    2^-706, f S^-1 near 2^1024. Its P is in range, but (f S^-1) tau is not."""
    return scaled(random_frame(3, 5, 2.0, seed=24), 318, -1024)


def test_found_frame_is_valid_and_its_one_frame_calls_never_warn():
    frame = found_frame()
    assert validate(frame).rcond > 0.01
    run_silently(one_frame_calls(frame))


def test_frame_whose_s_sums_overflow_validates_without_warning():
    # S = 1e308 [[1, 1], [1, -1]]: its absolute column sums, which rcond
    # reads, pass the largest double although S and S^-1 are in range
    space = PNormSpace(2)
    frame = FramePair(space, space, np.eye(2), 1e308 * np.array([[1.0, 1.0], [1.0, -1.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = validate(frame)
    # ||S||_1 ||S^-1||_1 = 2e308 / 1e308: read from scaled sums, rcond is 1/2, not 0
    assert math.isclose(report.rcond, 0.5, rel_tol=1e-12)


def test_a_frame_whose_exchange_would_round_an_entry_keeps_its_canonical_dual():
    # tau spans 2^-989 to 2^997, so balancing it by 2^-498 would flush tau_1
    # to 0: the record keeps the frame's own arrays, and S^-1 tau_1 stays 1
    space, seq = PNormSpace(1, 1.0), PNormSpace(3, 1.0)
    frame = FramePair(space, seq, [[1.0], [0.0], [0.0]], [[1.8666704454468067e-298, 1e300, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dual = canonical_dual(frame)
        p = projection(frame).entries
    # S^-1 tau_2 and P_12 are past the double range in truth
    assert dual.vectors.tolist() == [[1.0, math.inf, 0.0]]
    assert np.isfinite(dual.functionals).all()
    assert p[0].tolist() == [1.0, math.inf, 0.0]


def test_stitching_past_the_double_range_does_not_warn(tmp_path, capsys):
    # f 2^600 times the scalar 1e200 leaves the double range: the stitched
    # frame holds inf, and the CLI reports it as not a frame
    g, h = random_orthogonal_parseval_pair(2, 5, 2.0, seed=1)
    g = scaled(g, 600, -600)
    save_frame(g, tmp_path / "g.json")
    save_frame(h, tmp_path / "h.json")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stitched = scalar_interpolate(g, h, 1e200, 0.0, 1e-200, 0.0)
        code = main(["interpolate", str(tmp_path / "g.json"), str(tmp_path / "h.json"),
                     "--scalars", "1e200,0,1e-200,0", "--json"])
    assert not np.isfinite(stitched.functionals).all()
    assert code == 2
    assert json.loads(capsys.readouterr().out)["error"]["code"] == "NotAFrame"


# ---------------------------------------------------------------------------
# the public algebra: every product formed silently, in range where its true value is

#: 2^600 [[1, 1], [1, -1]], whose square 2^1201 I overflows on the diagonal
#: while the off-diagonal terms, each past the double range, cancel to 0
BIG = 2.0**600 * np.array([[1.0, 1.0], [1.0, -1.0]])
BIG_SQUARED = [[math.inf, 0.0], [0.0, math.inf]]


def linear_map(entries):
    rows, cols = np.shape(entries)
    return LinearMap(PNormSpace(cols), PNormSpace(rows), entries)


def test_compose_and_apply_form_their_products_silently():
    assert compose(linear_map(BIG), linear_map(BIG)).entries.tolist() == BIG_SQUARED
    assert apply(linear_map(BIG), Vector(PNormSpace(2), BIG[1])).coords.tolist() == [0.0, math.inf]


def test_an_accumulation_past_the_double_range_whose_true_value_is_finite_is_formed_in_range():
    row, column = linear_map([[1e308, 1e308, -1e308]]), linear_map(np.ones((3, 1)))
    assert compose(row, column).entries.tolist() == [[1e308]]
    assert apply(row, Vector(PNormSpace(3), np.ones(3))).coords.tolist() == [1e308]


def test_from_factorization_judges_the_true_v_u():
    # V U = 2^1023 + 2^1023 - 2^1023: its terms overflow, its value does not
    u, v = linear_map(np.full((3, 1), 2.0**600)), linear_map(2.0**423 * np.array([[1.0, 1.0, -1.0]]))
    assert frame_operator(from_factorization(u, v)).entries.tolist() == [[2.0**1023]]


def test_basis_factorization_forms_its_products_silently():
    space = PNormSpace(2)
    frame = FramePair(space, space, BIG, np.eye(2))
    u, v = basis_factorization(frame, linear_map(BIG))
    assert u.entries.tolist() == BIG_SQUARED
    assert v.entries.tolist() == np.ldexp(BIG, -1201).tolist()


def test_apply_similarity_forms_its_products_silently():
    space = PNormSpace(2)
    witness = SimilarityWitness(linear_map(BIG), linear_map(BIG), invertible=True)
    moved = apply_similarity(FramePair(space, space, BIG, BIG), witness)
    assert moved.functionals.tolist() == BIG_SQUARED
    assert moved.vectors.tolist() == BIG_SQUARED


@pytest.mark.parametrize("k, param, expected", [
    # (I - P) U = -U_1 + U_2 overflows, in truth as well
    (0, [[-1.7e308], [1.7e308]], [[1.0], [math.inf]]),
    # (I - P) U is in range, but f S^-1 = 2^1000 added to it is not
    (-1000, [[0.0], [float(np.finfo(float).max)]], [[2.0**1000], [math.inf]]),
])
def test_the_one_sided_inverses_form_their_products_and_sums_silently(k, param, expected):
    # f = [1, 1]^T and tau = 2^k [1, 0], so S = 2^k and I - P = [[0, 0], [-1, 1]];
    # the mirror frame, f = 2^k [1, 0]^T and tau = [1, 1], has I - P = [[0, -1], [0, 1]]
    space, seq = PNormSpace(1), PNormSpace(2)
    frame = FramePair(space, seq, [[1.0], [1.0]], [[2.0**k, 0.0]])
    mirror = FramePair(space, seq, [[2.0**k], [0.0]], [[1.0, 1.0]])
    assert right_inverse_from(frame, LinearMap(space, seq, param)).entries.tolist() == expected
    assert left_inverse_from(mirror, LinearMap(seq, space, np.transpose(param))).entries.tolist() == [
        [row[0] for row in expected]]


# ---------------------------------------------------------------------------
# scale invariance: f 2^j with tau 2^-j changes no verdict


@pytest.mark.parametrize("frame", [
    pytest.param(found_frame(), id="seed24-f2^318-tau2^-1024"),
    pytest.param(scaled(random_frame(4, 5, 3.0), 600, -1070), id="d4n5p3-f2^600-tau2^-1070"),
    # S = P = I and each witness is tau f = I, though scaling f or tau by its
    # largest entry flushes its other coordinate to 0
    pytest.param(diagonal_frame(600), id="f-diag(2^-600,2^600)-tau-diag(2^600,2^-600)"),
    pytest.param(diagonal_frame(700), id="f-diag(2^-700,2^700)-tau-diag(2^700,2^-700)"),
    pytest.param(item9_frame(*ITEM9[1]), id="d1n2p1-seed1400-P-overflows",
                 marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 9: one exchange per coefficient")),
])
def test_a_frame_of_extreme_scale_is_similar_to_itself(frame):
    assert are_similar(frame, frame) is True


def test_a_frame_is_similar_to_its_parseval_frame_of_another_scale():
    # S = 2^1008, and the Parseval frame's f is near 2^-636 where the frame's
    # is near 2^372. The witness T = S^-1, near 2^-1008, is (S^-1 tau) g: the
    # frame's own S^-1 tau, near 2^-372, times the Parseval frame's own f,
    # with neither factor rescaled, so the product stays in range
    frame = FramePair(PNormSpace(1, 2.0), PNormSpace(2, 2.0), [[2.0**372], [2.0**-219]],
                      [[2.0**636, 2.0**-346]])
    assert are_similar(frame, parsevalize(frame)[0]) is True


def test_a_cross_check_threshold_past_the_double_range_bounds_nothing():
    # past tol, a limit past the double range lets no difference through
    assert not _agrees(1.0, 1e-10, 1.0, lambda: math.inf, 4)
    assert not _agrees(1.0, 1e-10, 1e300, lambda: 1e300 * 1e10, 64)
    # the limit is never below tol, so a difference within it passes at any scale
    assert _agrees(1e-10, 1e-10, 1.0, lambda: math.inf, 4)
    # the limit 1e-10 max(1, 4) + 32 n^2 eps, one summand of 1 over n = 2 terms
    limit = 4e-10 + 128 * np.finfo(float).eps
    assert _agrees(limit * (1 - 1e-9), 1e-10, 4.0, lambda: 1.0, 2)
    assert not _agrees(limit * (1 + 1e-9), 1e-10, 4.0, lambda: 1.0, 2)
    # the limit 1e10 max(1, 1e300) lies past the double range, but is never formed
    assert _agrees(1e300, 1e10, 1e300) and not _agrees(1e300, 1e-9, 1e300)
    assert not _agrees(math.nan, 1e-10, 4.0, lambda: 1.0, 2)


def test_random_dual_samples_a_frame_whose_projection_overflows():
    # its P is in range, so every gate is; the candidate holds f S^-1 past the double range
    assert random_dual(found_frame(), 0).frame.dim == 3


def test_random_dual_samples_a_frame_whose_summand_bound_would_overflow():
    # max|omega| max|g| passes the double range though no entry of omega is
    # ever multiplied by the largest of g: |omega| |g| is near 1.3e236, and
    # the candidate's frame operator meets the gate, near 1e236, to 2e-16
    base = random_frame(1, 2, 1.5, seed=1236)
    frame = entry_scaled(base, [[-279], [-597]], [[-503, -226]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in range(4):
            assert is_dual(frame, random_dual(frame, seed).frame)


@pytest.mark.parametrize("k", [30, 40])
def test_similar_frames_of_large_scale_pass_the_transport_cross_check(k):
    # f and tau times 2^k: the witnesses transport within 7.2e-7 and 7.3e-4,
    # absolutely far above 10 tol, but within the cross-check's relative rule
    first, second = parsevalize(scaled(random_frame(2, 4, 2.0, seed=0), k, k))
    assert are_similar(first, second) is True
    assert parseval_transfer_check(first, second) is True


def test_the_transport_cross_check_allows_projections_that_agree_only_to_tol():
    # P1 - P2 is 5.2e-10 here, and it carries into the transport: held to
    # the dual gate's 1e-10 agreement, this pair would raise ConsistencyError
    frame = random_frame(3, 3, 2.0, seed=599)
    assert are_similar(parsevalize(frame)[1], frame) is True


@settings(deadline=None, max_examples=100)
@given(d=st.integers(1, 4), extra=st.integers(0, 2), p=st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]),
       seed=st.integers(0, 2**32 - 1), j=st.integers(-1000, 1000))
def test_exchanging_powers_of_two_between_f_and_tau_changes_no_verdict(d, extra, p, seed, j):
    frame = random_frame(d, d + extra, p, seed=seed)
    moved = scaled(frame, j, -j)
    back = scaled(moved, -j, j)
    # the exchange is exact, and the moved canonical dual, (f S^-1 2^j, S^-1 tau 2^-j), is in range
    assume(np.array_equal(back.functionals, frame.functionals) and np.array_equal(back.vectors, frame.vectors))
    dual = canonical_dual(moved)
    assume(np.isfinite(dual.functionals).all() and np.isfinite(dual.vectors).all())
    assert projection(moved).entries.tobytes() == projection(frame).entries.tobytes()

    def verdicts(a):
        r = validate(a)
        return (r.rcond, r.lower_bound, r.upper_bound, r.parseval, r.analysis_injective,
                r.synthesis_surjective, are_similar(a, a), are_similar(a, parsevalize(a)[0]),
                is_dual(a, canonical_dual(a)), has_unique_dual(a))

    assert verdicts(moved) == verdicts(frame)


@pytest.mark.parametrize("kf, kt", [(0, 0), (600, -1070), (318, -1024), (-1024, 318), (-1070, 600)])
@pytest.mark.parametrize("seed", range(4))
def test_projection_matches_exact_rational_arithmetic_at_every_scale(seed, kf, kt):
    frame = scaled(random_frame(3, 5, 2.0, seed=seed, min_rcond=1e-3), kf, kt)
    found = projection(frame).entries
    error = exact.max_error(found, exact.projection(frame.functionals, frame.vectors))
    assert error <= 1e-9 * max(1.0, float(np.abs(found).max()))


@pytest.mark.parametrize("kf, kt", [(318, -1024), (-1024, 318), (600, -1070), (-1070, 600)])
@pytest.mark.parametrize("seed", range(4))
def test_a_frame_whose_canonical_dual_overflows_reconstructs(seed, kf, kt):
    # f S^-1 x or S^-1 tau overflows, though each expansion of x is x
    frame = scaled(random_frame(3, 5, 2.0, seed=seed, min_rcond=1e-3), kf, kt)
    x = Vector(frame.x_space, np.linspace(-1.0, 1.0, frame.dim))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r1, r2 = reconstruct(frame, x)[2:]
    assert r1 <= 1e-12 and r2 <= 1e-12


@pytest.mark.parametrize("kf, kt", [(318, -1024), (-1024, 318), (600, -1070), (-1070, 600)])
@pytest.mark.parametrize("seed", range(4))
def test_witnesses_of_a_frame_to_itself_match_exact_arithmetic_where_one_dual_overflows(seed, kf, kt):
    # f S^-1 overflows when f is scaled up, S^-1 tau when tau is: each witness
    # is formed through whichever of the two is finite, and is exactly I
    frame = scaled(random_frame(3, 5, 2.0, seed=seed, min_rcond=1e-3), kf, kt)
    dual = canonical_dual(frame)
    assert np.isfinite(dual.functionals).all() != np.isfinite(dual.vectors).all()
    witness = witness_from_frames(frame, frame)
    assert witness.invertible
    eye = exact.exact(np.eye(frame.dim))
    for found in (witness.t_fg.entries, witness.t_tau_omega.entries):
        assert exact.max_error(found, eye) <= 4 * (frame.count + 2) * EPS


def test_exact_referee_inverts_and_multiplies_exactly():
    a = exact.exact(np.array([[2.0, 1.0], [1.0, 1.0]]))
    assert exact.product(a, exact.inverse(a)) == exact.exact(np.eye(2))
    with pytest.raises(ZeroDivisionError):
        exact.inverse(exact.exact(np.ones((2, 2))))


# ---------------------------------------------------------------------------
# entry by entry: an independent power of two on every entry of f and tau


@st.composite
def entry_scaled_frames(draw, like=None):
    """A random frame, of ``like``'s spaces when given, else with d <= 4 and
    n <= d + 2, whose every entry carries its own power of two 2^e,
    |e| <= 700: mixed scales inside one matrix, where balancing by one
    exchange for the whole frame falls short."""
    if like is None:
        d = draw(st.integers(1, 4))
        n, p = d + draw(st.integers(0, 2)), draw(st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]))
    else:
        d, n, p = like.dim, like.count, like.x_space.p
    frame = random_frame(d, n, p, seed=draw(st.integers(0, 2**32 - 1)))
    exponents = st.integers(-700, 700)
    ef = draw(st.lists(st.lists(exponents, min_size=d, max_size=d), min_size=n, max_size=n))
    et = draw(st.lists(st.lists(exponents, min_size=n, max_size=n), min_size=d, max_size=d))
    return entry_scaled(frame, ef, et)


def is_frame(frame):
    try:
        validate(frame)
    except PasfError:
        return False
    return True


def item8_frame():
    """A frame whose f and tau together span 2^-655 to 2^630: S is near
    2^900, and S^-1 tau and its Parseval frame's g each keep one nonzero entry."""
    x, s = PNormSpace(1, math.inf), PNormSpace(3, math.inf)
    return FramePair(x, s, np.ldexp(1.0, np.array([[-247], [-517], [270]])),
                     np.ldexp(1.0, np.array([[-177, -655, 630]])))


def test_a_frame_is_similar_to_its_parseval_frame_through_a_witness_near_2_to_the_minus_900():
    # the witness pairs the frame's S^-1 tau, near 2^-270, with the Parseval
    # frame's own g, near 2^-630: their product, near 2^-900, is in range
    frame = item8_frame()
    parseval = parsevalize(frame)[0]
    assert are_similar(frame, parseval) is True
    assert are_similar(parseval, frame) is True
    # T_fg = S^-1 tau g, exactly: one positive sum of three terms, no cancellation
    witness = witness_from_frames(frame, parseval)
    s = exact.product(exact.exact(frame.vectors), exact.exact(frame.functionals))
    t_fg = exact.product(exact.product(exact.inverse(s), exact.exact(frame.vectors)),
                         exact.exact(parseval.functionals))
    assert witness.invertible
    assert exact.max_error(witness.t_fg.entries, t_fg) <= 4 * (frame.count + 2) * EPS * float(t_fg[0][0])


@settings(deadline=None, max_examples=150)
@given(data=st.data(), seed=st.integers(0, 9))
def test_entry_points_on_frames_of_mixed_entry_scales_raise_only_pasf_errors_and_never_warn(data, seed):
    a = data.draw(entry_scaled_frames())
    b = data.draw(entry_scaled_frames(like=a))
    run_silently(one_frame_calls(a, seed) + two_frame_calls(a, b) + two_frame_calls(b, a))


@settings(deadline=None, max_examples=150)
@given(frame=entry_scaled_frames())
def test_a_valid_frame_of_mixed_entry_scales_meets_its_parseval_frame_without_raising(frame):
    assume(is_frame(frame))
    for parseval in parsevalize(frame):
        assert isinstance(are_similar(frame, parseval), bool)
        assert isinstance(are_similar(parseval, frame), bool)


@settings(deadline=None, max_examples=100)
@given(frame=entry_scaled_frames(), j=st.integers(-1000, 1000))
def test_exchanging_powers_of_two_changes_no_verdict_on_frames_of_mixed_entry_scales(frame, j):
    assume(is_frame(frame))
    with np.errstate(over="ignore"):  # an exchange past the double range is not exact, and is skipped
        moved = scaled(frame, j, -j)
        back = scaled(moved, -j, j)
    # the exchange is exact, and the moved canonical dual, (f S^-1 2^j, S^-1 tau 2^-j), is in range
    assume(np.array_equal(back.functionals, frame.functionals) and np.array_equal(back.vectors, frame.vectors))
    dual = canonical_dual(moved)
    assume(np.isfinite(dual.functionals).all() and np.isfinite(dual.vectors).all())
    assert verdicts(moved) == verdicts(frame)


def outcome(call):
    """What ``call`` returns, or the name of the PasfError it raises."""
    try:
        return call()
    except PasfError as exc:
        return type(exc).__name__


def verdicts(a):
    """Every verdict on ``a`` and on its canonical dual and Parseval frames."""
    r = validate(a)
    first, second = parsevalize(a)
    return (r.parseval, r.analysis_injective, r.synthesis_surjective,
            outcome(lambda: are_similar(a, a)), outcome(lambda: are_similar(a, first)),
            outcome(lambda: are_similar(second, a)), outcome(lambda: parseval_transfer_check(first, second)),
            is_dual(a, canonical_dual(a)), is_orthogonal(a, canonical_dual(a)), has_unique_dual(a))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 9: one exchange per coefficient")
@pytest.mark.parametrize("spec", ITEM9, ids=["d2n2pinf-seed547", "d1n2p1-seed1400"])
def test_an_item9_frame_is_similar_to_its_parseval_frame(spec):
    frame = item9_frame(*spec)
    assert are_similar(frame, parsevalize(frame)[0]) is True


@pytest.mark.xfail(strict=True, raises=ConsistencyError,
                   reason="ROADMAP item 15: a rounding allowance past the double range bounds nothing")
def test_a_frame_whose_transport_allowance_overflows_is_similar_to_its_parseval_frame():
    # f 2^598 is b's first row repeated plus 2^-20 b.f, and tau is 2^-1008 b.tau; valid at
    # rcond 1.45e-7. The transport drifts by 3.7e294, inside its limit, but the allowance
    # |f1| |T_fg| overflows. Its second Parseval frame is not pinned: there P differs by
    # 1e-4, the eps cond^2 floor of an S this ill-conditioned.
    b = random_frame(2, 3, 1.5, seed=8)
    functionals = np.ldexp(np.tile(b.functionals[0], (3, 1)) + np.ldexp(b.functionals, -20), 598)
    frame = FramePair(b.x_space, b.seq_space, functionals, np.ldexp(b.vectors, -1008))
    assert are_similar(frame, parsevalize(frame)[0]) is True


# ---------------------------------------------------------------------------
# NaN never yields True; the memo, and a frame in either layout, answers as a fresh frame does


def poisoned(frame, which, index):
    """``frame`` with entry ``index`` (mod its size) of its ``which`` matrix set to NaN."""
    m = np.array(getattr(frame, which))
    m.flat[index % m.size] = math.nan
    return FramePair(frame.x_space, frame.seq_space, **{"functionals": frame.functionals,
                                                        "vectors": frame.vectors, which: m})


@settings(deadline=None, max_examples=100)
@given(d=st.integers(1, 4), extra=st.integers(0, 2), p=st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]),
       seed=st.integers(0, 2**32 - 1), which=st.sampled_from(["functionals", "vectors"]),
       index=st.integers(0, 63))
def test_a_nan_entry_never_yields_true(d, extra, p, seed, which, index):
    frame = random_frame(d, d + extra, p, seed=seed)
    dual, (first, second) = canonical_dual(frame), parsevalize(frame)
    g, h = random_orthogonal_parseval_pair(d, 2 * d, p, seed=seed)
    bad = lambda f: poisoned(f, which, index)  # noqa: E731
    calls = [
        lambda: is_dual(bad(frame), dual), lambda: is_dual(frame, bad(dual)),
        lambda: is_orthogonal(bad(g), h), lambda: is_orthogonal(g, bad(h)),
        lambda: are_similar(bad(frame), first), lambda: are_similar(first, bad(frame)),
        lambda: are_similar(bad(frame), bad(frame)), lambda: has_unique_dual(bad(frame)),
        lambda: parseval_transfer_check(bad(first), second), lambda: parseval_transfer_check(first, bad(second)),
        lambda: validate(bad(first)).parseval, lambda: witness_from_frames(first, bad(frame)).invertible,
        lambda: reconstruction_oracle(bad(frame), dual), lambda: reconstruction_oracle(frame, bad(dual)),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            assert outcome(call) is not True
        # a stitched frame is interpolate's True
        with pytest.raises(PasfError):
            scalar_interpolate(bad(g), h, 0.6, 0.8, 0.6, 0.8)


def results(frame, tol):
    """Every answer at ``tol`` that reads ``frame``'s memo, as comparable values."""
    report = outcome(lambda: validate(frame, tol))
    if isinstance(report, str):
        return report
    first, second = parsevalize(frame, tol)
    dual = canonical_dual(frame, tol)
    witness = witness_from_frames(frame, first, tol)
    found = (report.frame_op.entries, report.frame_op_inv.entries, projection(frame, tol).entries,
             dual.functionals, dual.vectors, first.functionals, second.vectors, witness.t_fg.entries)
    return repr(([a.tobytes() for a in found], report.rcond, report.lower_bound, report.upper_bound,
                 report.parseval, witness.invertible, outcome(lambda: are_similar(frame, first, tol)),
                 outcome(lambda: random_dual(frame, 7).frame.functionals.tobytes()),
                 is_dual(frame, dual, tol), has_unique_dual(frame, tol),
                 reconstruct(frame, Vector(frame.x_space, np.ones(frame.dim)), tol)[2]))


@settings(deadline=None, max_examples=50)
@given(d=st.integers(1, 4), extra=st.integers(0, 2), p=st.sampled_from([1.0, 2.0, 3.0, math.inf]),
       seed=st.integers(0, 2**32 - 1), kf=st.integers(-600, 600),
       tols=st.permutations([1e-12, 1e-9, 1e-6, 1e-3]))
def test_answers_after_calls_at_several_tols_equal_those_of_a_fresh_frame(d, extra, p, seed, kf, tols):
    frame = scaled(random_frame(d, d + extra, p, seed=seed), kf, -kf // 2)
    shared = [results(frame, tol) for tol in tols + tols[::-1]]
    fresh = [results(FramePair(frame.x_space, frame.seq_space, frame.functionals, frame.vectors), tol)
             for tol in tols + tols[::-1]]
    assert shared == fresh


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("seed", range(5))
def test_a_frame_passed_in_fortran_order_answers_bit_for_bit_as_in_c_order(p, seed):
    # BLAS rounds a 33 x 61 product differently for F-ordered operands, so
    # these frames tell a stored layout apart, even with one matrix F-ordered
    frame = random_frame(33, 61, p, seed=seed)
    f, t = frame.functionals, frame.vectors
    expected = results(frame, 1e-9)
    agree = [results(FramePair(frame.x_space, frame.seq_space, functionals, vectors), 1e-9) == expected
             for functionals, vectors in [(np.asfortranarray(f), t), (f, np.asfortranarray(t)),
                                          (np.asfortranarray(f), np.asfortranarray(t))]]
    assert agree == [True, True, True]  # f, tau and both F-ordered
    loaded = loads_frame(dumps_frame(frame))
    assert loaded.functionals.flags.c_contiguous and loaded.vectors.flags.c_contiguous


# ---------------------------------------------------------------------------
# the criterion rule scales with the matrices it compares


@pytest.mark.parametrize("seed, gap", [(1149, 8.034e-9), (1268, 9.193e-9)])
def test_a_frame_whose_projection_is_large_is_similar_to_its_parseval_frame(seed, gap):
    # the stored frames' exact projections differ by ~8e-9 on max|P| near 1e4: an
    # absolute tol 1e-9 called them not similar, though they agree to 1e-12 relative
    frame = random_frame(8, 16, 2.0, seed=seed)
    parseval = parsevalize(frame)[0]
    p1 = exact.projection(frame.functionals, frame.vectors)
    p2 = exact.projection(parseval.functionals, parseval.vectors)
    assert math.isclose(float(max(abs(x - y) for r1, r2 in zip(p1, p2) for x, y in zip(r1, r2))), gap, rel_tol=1e-3)
    assert float(max(abs(x) for row in p1 for x in row)) > 8e3
    assert are_similar(frame, parseval) is True
    assert are_similar(parseval, frame) is True


@pytest.mark.parametrize("d, n, p, seed", [(8, 16, 2.0, 1149), (8, 16, 2.0, 1268), (4, 7, 1.5, 218),
                                           (3, 5, math.inf, 545), (3, 5, math.inf, 1024)])
def test_parseval_transfers_between_the_parseval_frames_of_a_large_projection(d, n, p, seed):
    # both Parseval frames have max|S - I| near 1e-12, but their projections
    # differ by up to 2.3e-8, and so the witnesses compose to I only within
    # 3.5e-8, far above tol yet within n max|P1 - P2|
    first, second = parsevalize(random_frame(d, n, p, seed=seed))
    assert parseval_transfer_check(first, second) is True


@settings(deadline=None, max_examples=100)
@given(d=st.integers(1, 4), extra=st.integers(0, 2), p=st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]),
       seed=st.integers(0, 2**32 - 1), c=st.floats(1e-6, 1e6))
def test_scaling_f_by_c_and_tau_by_one_over_c_changes_no_verdict(d, extra, p, seed, c):
    frame = random_frame(d, d + extra, p, seed=seed)
    moved = FramePair(frame.x_space, frame.seq_space, frame.functionals * c, frame.vectors / c)
    assert verdicts(moved) == verdicts(frame)


def test_scaling_f_and_tau_both_by_c_moves_s_by_c_squared_and_the_parseval_verdict():
    parseval = parsevalize(random_frame(3, 5, 2.0, seed=1))[0]
    assert validate(parseval).parseval is True
    for c in (1.0 + 1e-9, 0.5, 3.0):
        both = FramePair(parseval.x_space, parseval.seq_space, parseval.functionals * c, parseval.vectors * c)
        assert validate(both).parseval is False


# ---------------------------------------------------------------------------
# a product criterion is scaled by its target; only its rounding grows with the factors


def test_a_candidate_off_by_one_is_not_a_dual_however_large_its_summands():
    # S = 1; tau g = 1e10 - (1e10 - 2) = 2 misses 1 on summands of 1e10, far
    # above their rounding (6e-4), and likewise tau g = 1 misses 0
    frame = FramePair(PNormSpace(1, 2.0), PNormSpace(2, 2.0), [[0.5e-5], [0.5]], [[1e5, 1.0]])
    assert validate(frame).parseval is True
    off = FramePair(frame.x_space, frame.seq_space, [[1e5], [-1e10 + 2.0]], [[0.0, 2.0]])
    assert is_dual(frame, off) is False
    assert is_dual(frame, canonical_dual(frame)) is True
    skew = FramePair(frame.x_space, frame.seq_space, [[1e5], [-1e10 + 1.0]], [[0.0, 0.0]])
    assert is_orthogonal(frame, skew) is False


def test_a_transport_is_held_to_the_projections_measured_difference(monkeypatch):
    # max|P| is 5.6e114 and the projections agree exactly; a witness that
    # moves f1 T_fg off f2 by 1e-6 relative is caught. A limit of
    # n tol max(1, max|P|) would admit any drift up to the frame's own size
    base = random_frame(1, 3, 1.5, seed=27)
    frame = FramePair(base.x_space, base.seq_space, np.ldexp(base.functionals, [[-261], [674], [-531]]),
                      np.ldexp(base.vectors, [[134, -247, -90]]))
    parseval = parsevalize(frame)[0]
    assert are_similar(frame, parseval) is True
    exact_witness = similarity.witness_from_frames

    def off(frame1, frame2, tol):
        w = exact_witness(frame1, frame2, tol)
        return replace(w, t_fg=replace(w.t_fg, entries=w.t_fg.entries * (1.0 + 1e-6)))

    monkeypatch.setattr(similarity, "witness_from_frames", off)
    with pytest.raises(ConsistencyError, match="transport"):
        are_similar(frame, parseval)

"""The library contract on frames of any scale.

Whatever the power-of-two scale of a frame's functionals and vectors,
every entry point that takes frames either returns or raises a
``PasfError``, and emits no numpy RuntimeWarning: a product or sum past
the double range fails the criterion it feeds, silently. The raw algebra
(``compose``, ``frame_operator``, ``apply``) is left out: it forms what
it is asked for, as numpy does.

Exchanging powers of two between a frame's functionals and vectors, f
2^j with tau 2^-j, leaves S, P and every dual unchanged, so it must leave
every verdict unchanged too; the tests at the end pin that, and check P
against exact rational arithmetic at extreme scales.
"""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pasf import (
    FramePair,
    PasfError,
    PNormSpace,
    Vector,
    are_similar,
    canonical_dual,
    has_unique_dual,
    is_dual,
    is_orthogonal,
    parseval_transfer_check,
    parsevalize,
    projection,
    random_dual,
    random_frame,
    random_orthogonal_parseval_pair,
    reconstruct,
    save_frame,
    scalar_interpolate,
    validate,
    witness_from_frames,
)
from pasf.cli import main
from pasf.duality import _drift_threshold
from pasf.generators import reconstruction_oracle

import exact


def scaled(frame, kf, kt):
    """``frame`` with f times 2^kf and tau times 2^kt."""
    return FramePair(frame.x_space, frame.seq_space,
                     np.ldexp(frame.functionals, kf), np.ldexp(frame.vectors, kt))


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
    2^-706, f S^-1 near 2^1024. Its P is in range, but formed from the
    frame's own f and tau it would not be."""
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
# scale invariance: f 2^j with tau 2^-j changes no verdict


@pytest.mark.parametrize("frame", [
    pytest.param(found_frame(), id="seed24-f2^318-tau2^-1024"),
    pytest.param(scaled(random_frame(4, 5, 3.0), 600, -1070), id="d4n5p3-f2^600-tau2^-1070"),
    # S = P = I and each witness is tau f = I, though scaling f or tau by its
    # largest entry flushes its other coordinate to 0
    pytest.param(diagonal_frame(600), id="f-diag(2^-600,2^600)-tau-diag(2^600,2^-600)"),
    pytest.param(diagonal_frame(700), id="f-diag(2^-700,2^700)-tau-diag(2^700,2^-700)"),
])
def test_a_frame_of_extreme_scale_is_similar_to_itself(frame):
    assert are_similar(frame, frame) is True


def test_a_frame_is_similar_to_its_parseval_frame_of_another_scale():
    # S = 2^1008, and the Parseval frame's f is near 2^-636 where the frame's
    # is near 2^372. The witness T = S^-1 is formed from both frames' balanced
    # factors; from the frame's balanced S^-1 tau and the Parseval frame's own
    # f it underflowed to 0
    frame = FramePair(PNormSpace(1, 2.0), PNormSpace(2, 2.0), [[2.0**372], [2.0**-219]],
                      [[2.0**636, 2.0**-346]])
    assert are_similar(frame, parsevalize(frame)[0]) is True


def test_a_cross_check_threshold_past_the_double_range_bounds_nothing():
    assert math.isnan(_drift_threshold(1e-10, 1.0, math.inf, 4))
    assert not 0.0 <= _drift_threshold(1e-10, 1e300, 1e300 * 1e10, 64)
    assert _drift_threshold(1e-10, 4.0, 1.0, 2) == 4e-10 + 128 * np.finfo(float).eps


def test_random_dual_samples_a_frame_whose_projection_overflows():
    # its P is in range, so every gate is; the candidate holds f S^-1 past the double range
    assert random_dual(found_frame(), 0).frame.dim == 3


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


@pytest.mark.parametrize("kf, kt", [(0, 0), (600, -1070), (318, -1024)])
@pytest.mark.parametrize("seed", range(4))
def test_projection_matches_exact_rational_arithmetic_at_every_scale(seed, kf, kt):
    frame = scaled(random_frame(3, 5, 2.0, seed=seed, min_rcond=1e-3), kf, kt)
    found = projection(frame).entries
    error = exact.max_error(found, exact.projection(frame.functionals, frame.vectors))
    assert error <= 1e-9 * max(1.0, float(np.abs(found).max()))


def test_exact_referee_inverts_and_multiplies_exactly():
    a = exact.exact(np.array([[2.0, 1.0], [1.0, 1.0]]))
    assert exact.product(a, exact.inverse(a)) == exact.exact(np.eye(2))
    with pytest.raises(ZeroDivisionError):
        exact.inverse(exact.exact(np.ones((2, 2))))

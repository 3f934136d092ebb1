"""The library contract on frames of any scale.

Whatever the power-of-two scale of a frame's functionals and vectors,
every entry point that takes frames either returns or raises a
``PasfError``, and emits no numpy RuntimeWarning: a product or sum past
the double range fails the criterion it feeds, silently. The raw algebra
(``compose``, ``frame_operator``, ``apply``) is left out: it forms what
it is asked for, as numpy does.

Known verdict defects of such frames (ROADMAP item 2) are pinned at the
end as strict expected failures.
"""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pasf import (
    FramePair,
    GenerationFailed,
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
from pasf.generators import reconstruction_oracle


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


def found_frame():
    """A valid frame whose f S^-1 and P leave the double range: S is near
    2^-706, f S^-1 near 2^1024."""
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
        validate(frame)


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
# verdict defects that stay until ROADMAP item 2 balances the internals


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: P of this frame holds inf, so P = P fails")
@pytest.mark.parametrize("frame", [
    pytest.param(found_frame(), id="seed24-f2^318-tau2^-1024"),
    pytest.param(scaled(random_frame(4, 5, 3.0), 600, -1070), id="d4n5p3-f2^600-tau2^-1070"),
])
def test_a_frame_of_extreme_scale_is_similar_to_itself(frame):
    assert are_similar(frame, frame) is True


@pytest.mark.xfail(strict=True, raises=GenerationFailed,
                   reason="ROADMAP item 2: P of this frame holds inf, so every gate is non-finite")
def test_random_dual_samples_a_frame_whose_projection_overflows():
    assert random_dual(found_frame(), 0).frame.dim == 3

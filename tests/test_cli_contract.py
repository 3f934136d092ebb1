"""The CLI contract on generated frame files.

Whatever the numbers in the files, the norm exponents, the subcommand
and the tolerance, an invocation with ``--json`` exits 0, 1 or 2 and
prints exactly one JSON object on stdout.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from pasf.cli import main

ENTRIES = st.one_of(
    st.floats(-4.0, 4.0),
    st.integers(-3, 3),
    st.sampled_from([1e300, -1e300, 1e-300, -1e-300]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(10**400), 10**400),
)
EXPONENTS = st.one_of(st.sampled_from([1, 1.5, 2, 3, "inf", 1e308]), st.floats(1.0, 1e308))
TOLS = st.sampled_from([None, "1e-9", "0.6", "1e-300"])
SCALARS = st.sampled_from(["0.6,0.8,0.6,0.8", "1,0,1,0", "1,1,1,1", "nan,1,1,1"])


@st.composite
def frame_pair_docs(draw):
    """Two frame documents on the same spaces; the second is a fresh
    draw, a copy of the first, or the first with its entries scaled."""
    dim = draw(st.integers(1, 3))
    count = draw(st.integers(dim, 4))
    p, q = draw(EXPONENTS), draw(EXPONENTS)

    def rows():
        return draw(st.lists(st.lists(ENTRIES, min_size=dim, max_size=dim),
                             min_size=count, max_size=count))

    first = {"dim": dim, "count": count, "p": p, "q": q,
             "functionals": rows(), "vectors": rows()}
    kind = draw(st.sampled_from(["fresh", "copy", "scaled"]))
    if kind == "fresh":
        second = dict(first, functionals=rows(), vectors=rows())
    elif kind == "copy":
        second = first
    else:
        s = draw(st.sampled_from([2.0, -0.5, 1e-200, 1e200]))
        second = dict(first, functionals=[[_scaled(x, s) for x in r] for r in first["functionals"]])
    return first, second


def _scaled(x, s):
    try:
        return x * s
    except OverflowError:  # an integer beyond the double range stays as it is
        return x


def _argv(command, one, two, out_dir, draw):
    if command == "validate":
        return ["validate", one, *draw(st.sampled_from([[], ["--matrices"]]))]
    if command in ("canonical-dual", "factorize"):
        out = draw(st.sampled_from([[], ["--out", os.path.join(out_dir, "out.json")]]))
        return [command, one, *out]
    if command == "sample-duals":
        out = draw(st.sampled_from([[], ["--out-dir", out_dir]]))
        count = str(draw(st.integers(0, 2)))
        return [command, one, "--count", count, "--seed", str(draw(st.integers(0, 9))), *out]
    if command == "interpolate":
        out = draw(st.sampled_from([[], ["--out", os.path.join(out_dir, "out.json")]]))
        return [command, one, two, "--scalars", draw(SCALARS), *out]
    return [command, one, two]


COMMANDS = ["validate", "canonical-dual", "check-dual", "check-orthogonal",
            "similarity", "interpolate", "sample-duals", "factorize"]


@settings(deadline=None, max_examples=400)
@given(docs=frame_pair_docs(), command=st.sampled_from(COMMANDS), tol=TOLS, data=st.data())
def test_every_invocation_exits_0_1_2_with_one_json_object(docs, command, tol, data):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, doc in enumerate(docs):
            path = os.path.join(tmp, f"frame{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            paths.append(path)
        argv = _argv(command, *paths, tmp, data.draw) + ["--json"]
        if tol is not None:
            argv += ["--tol", tol]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    assert code in (0, 1, 2)
    assert isinstance(json.loads(out.getvalue()), dict)

"""The CLI contract on generated frame files.

Whatever the numbers in the files, the norm exponents, the subcommand
and the tolerance, an invocation with ``--json`` exits 0, 1 or 2 and
prints exactly one JSON object on stdout. The same holds for files of
arbitrary bytes and for arbitrary flag values.
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


def _run(argv):
    """(exit code, stdout) of one in-process invocation; a usage error
    leaves ``main`` as SystemExit, which carries the code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _assert_contract(code, stdout):
    assert code in (0, 1, 2)
    assert isinstance(json.loads(stdout), dict)  # json.loads rejects a second object


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
        code, stdout = _run(argv)
    _assert_contract(code, stdout)


VALID_DOC = json.dumps({"dim": 2, "count": 2, "p": 2, "q": 2,
                        "functionals": [[1, 0], [0, 1]], "vectors": [[1, 0], [0, 1]]}).encode()


@st.composite
def file_bytes(draw):
    """Arbitrary bytes, arbitrary text, or a valid frame file with a
    stretch of it replaced by arbitrary bytes."""
    kind = draw(st.sampled_from(["bytes", "text", "spliced"]))
    if kind == "bytes":
        return draw(st.binary(max_size=200))
    if kind == "text":
        return draw(st.text(max_size=200)).encode("utf-8", errors="surrogatepass")
    start = draw(st.integers(0, len(VALID_DOC)))
    stop = draw(st.integers(start, len(VALID_DOC)))
    return VALID_DOC[:start] + draw(st.binary(max_size=20)) + VALID_DOC[stop:]


def _small_count(text):
    """Keep ``--count`` from asking for a long run: any value int() reads
    as more than 3 is left out."""
    try:
        return int(text) <= 3
    except ValueError:
        return True


#: Arbitrary values for each valued flag; a flag may also be given twice
#: or with its value missing.
FLAG_VALUES = {
    "--tol": st.one_of(st.text(max_size=12), TOLS.filter(bool), st.floats().map(repr)),
    "--count": st.one_of(st.text(max_size=6), st.integers(-(10**30), 3).map(str)).filter(_small_count),
    "--seed": st.one_of(st.text(max_size=6), st.integers(-(10**30), 10**30).map(str)),
    "--scalars": st.one_of(st.text(max_size=16), SCALARS),
}


@settings(deadline=None, max_examples=300)
@given(command=st.sampled_from(COMMANDS), contents=st.lists(file_bytes(), min_size=2, max_size=2),
       flags=st.lists(st.sampled_from(sorted(FLAG_VALUES) + ["--out", "--out-dir", "--matrices",
                                                           "--bogus"]), max_size=4),
       data=st.data())
def test_arbitrary_file_bytes_and_flag_values_keep_the_contract(command, contents, flags, data):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, content in enumerate(contents):
            path = os.path.join(tmp, f"frame{i}.json")
            with open(path, "wb") as fh:
                fh.write(content)
            paths.append(path)
        files = paths[:2] if command in ("check-dual", "check-orthogonal", "similarity",
                                          "interpolate") else paths[:1]
        argv = [command, *files]
        for flag in flags:
            argv.append(flag)
            if flag in FLAG_VALUES:
                argv.append(data.draw(FLAG_VALUES[flag]))
            elif flag in ("--out", "--out-dir"):
                # inside the temporary directory: a new file, the directory itself, or a missing parent
                argv.append(data.draw(st.sampled_from(
                    [os.path.join(tmp, "out"), tmp, os.path.join(tmp, "missing", "out")])))
        code, stdout = _run(argv + ["--json"])
    _assert_contract(code, stdout)

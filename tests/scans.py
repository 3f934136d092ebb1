"""Scale and layout scans, run as a gate on their outcome counts.

Each scan draws a fixed, seeded set of inputs, calls the library on each
and counts the outcomes: True, False, "same" or "differs", or the name of
the exception raised. Every call runs with warnings turned into errors,
so a call that warns counts as "RuntimeWarning". The counts are compared
with ``tests/scans.json``, and the script exits 1 on any change.

- ``per-entry-2^700``: 1,500 frames with d <= 2, n <= 3 and p in
  {1, 1.5, 2, 3, inf}, each entry of f and tau multiplied by its own power
  of two in 2^-700..2^700; the outcome of ``are_similar(F, parsevalize(F)[0])``.
- ``near-rank-one``: 1,000 frames shaped like F8b: f is 2^kf times (the
  first functional repeated, plus 2^-20 f) and tau is 2^kt tau, with kf in
  300..700 and kt in -1070..-700, on d = 2, n = 3; the same call.
- ``fortran-layout``: 20 seeds of each of five shapes, the frame passed
  with both matrices Fortran-ordered against C-ordered; "same" when S,
  S^-1, P, the canonical dual, the bounds, rcond, ``parseval`` and
  ``are_similar`` agree bit for bit.

A change that moves a count updates ``tests/scans.json`` (``--write``) and
says why. Never re-seed or shrink a scan to hide a count.

Needs only the standard library besides ``pasf`` and numpy, and is not
collected by pytest. Run from anywhere:

    python tests/scans.py            # compare with tests/scans.json
    python tests/scans.py --write    # record the current counts
"""

from __future__ import annotations

import json
import math
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = Path(__file__).resolve().parent / "scans.json"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import pasf  # noqa: E402

EXPONENTS = [1.0, 1.5, 2.0, 3.0, math.inf]


def _outcome(call) -> str:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return str(call())
        except Exception as exc:  # the error is the outcome
            return type(exc).__name__


def _similar_to_its_parseval_frame(frame: pasf.FramePair) -> bool:
    return pasf.are_similar(frame, pasf.parsevalize(frame)[0])


def per_entry_2_700() -> Counter:
    counts = Counter()
    for draw in range(1500):
        rng = np.random.default_rng(draw)
        d = int(rng.integers(1, 3))
        n = int(rng.integers(d, 4))
        base = pasf.random_frame(d, n, EXPONENTS[draw % 5], seed=draw)
        ef, et = rng.integers(-700, 701, size=(n, d)), rng.integers(-700, 701, size=(d, n))
        frame = pasf.FramePair(base.x_space, base.seq_space,
                               np.ldexp(base.functionals, ef), np.ldexp(base.vectors, et))
        counts[_outcome(lambda: _similar_to_its_parseval_frame(frame))] += 1
    return counts


def near_rank_one() -> Counter:
    counts = Counter()
    for draw in range(1000):
        rng = np.random.default_rng(draw)
        kf, kt = int(rng.integers(300, 701)), int(rng.integers(-1070, -699))
        base = pasf.random_frame(2, 3, EXPONENTS[draw % 5], seed=draw)
        functionals = np.ldexp(np.tile(base.functionals[0], (3, 1)) + np.ldexp(base.functionals, -20), kf)
        frame = pasf.FramePair(base.x_space, base.seq_space, functionals, np.ldexp(base.vectors, kt))
        counts[_outcome(lambda: _similar_to_its_parseval_frame(frame))] += 1
    return counts


def _answers(frame: pasf.FramePair) -> list:
    report = pasf.validate(frame)
    dual = pasf.canonical_dual(frame)
    return [report.frame_op.entries.tobytes(), report.frame_op_inv.entries.tobytes(),
            pasf.projection(frame).entries.tobytes(), dual.functionals.tobytes(), dual.vectors.tobytes(),
            report.lower_bound, report.upper_bound, report.rcond, report.parseval,
            pasf.are_similar(frame, pasf.parsevalize(frame)[0])]


def fortran_layout() -> Counter:
    counts = Counter()
    for d, n, p in [(64, 64, 3.0), (8, 16, 2.0), (33, 61, 2.0), (33, 61, 3.0), (5, 7, 1.5)]:
        for seed in range(20):
            c = pasf.random_frame(d, n, p, seed=seed)
            f = pasf.FramePair(c.x_space, c.seq_space,
                               np.asfortranarray(c.functionals), np.asfortranarray(c.vectors))
            counts[_outcome(lambda: "same" if _answers(f) == _answers(c) else "differs")] += 1
    return counts


SCANS = {"per-entry-2^700": per_entry_2_700, "near-rank-one": near_rank_one, "fortran-layout": fortran_layout}


def main(argv: list[str]) -> int:
    found = {}
    for name, scan in SCANS.items():
        start = time.perf_counter()
        found[name] = dict(sorted(scan().items()))
        print(f"{name}: {found[name]} ({time.perf_counter() - start:.0f} s)", flush=True)
    if argv == ["--write"]:
        EXPECTED.write_text(json.dumps(found, indent=1) + "\n")
        print(f"wrote {EXPECTED.name}")
        return 0
    expected = json.loads(EXPECTED.read_text())
    changed = [name for name in SCANS if found[name] != expected.get(name)]
    for name in changed:
        print(f"CHANGED {name}: expected {expected.get(name)}, found {found[name]}")
    print(f"{len(changed)} scan(s) changed of {len(SCANS)}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""The frame file format: strict JSON serialization of frame pairs.

A frame file is a single UTF-8 JSON object::

    {
      "dim": 2,
      "count": 3,
      "p": 2.0,            // or the string "inf"
      "q": 2.0,            // or the string "inf"
      "functionals": [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]],
      "vectors":     [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]
    }

``functionals`` holds ``count`` rows of length ``dim`` (row k is f_k);
``vectors`` also holds ``count`` rows of length ``dim``, each row being
the vector tau_k, which is transposed into the d x n column layout on
load. Parsing is strict: unknown keys, missing keys, malformed shapes,
non-finite numbers, and JSON's Infinity/NaN tokens are all rejected.
Floats are written with ``repr`` so a written file re-parses to a
bit-identical frame.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .errors import FrameFormatError
from .frames import FramePair
from .spaces import INF, PNormSpace

_REQUIRED_KEYS = ("dim", "count", "p", "q", "functionals", "vectors")
_MAX = float(np.finfo(float).max)


def _parse_exponent(value: Any, key: str) -> float:
    if value == "inf":
        return INF
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FrameFormatError(f"field '{key}' must be a number or \"inf\", got {value!r}")
    if isinstance(value, int) and abs(value) > _MAX:  # beyond the double range, like 1e400
        value = INF if value > 0 else -INF
    value = float(value)
    if math.isnan(value) or value < 1.0:
        raise FrameFormatError(f"field '{key}' must be >= 1, got {value!r}")
    return value


def _parse_positive_int(value: Any, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise FrameFormatError(f"field '{key}' must be a positive integer, got {value!r}")
    return value


def _parse_rows(value: Any, key: str, nrows: int, ncols: int) -> list[list[float]]:
    if not isinstance(value, list) or len(value) != nrows:
        raise FrameFormatError(f"field '{key}' must be a list of {nrows} rows")
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != ncols:
            raise FrameFormatError(f"field '{key}' row {i} must be a list of {ncols} numbers")
        out = []
        for j, x in enumerate(row):
            # compared, not converted: an integer literal may exceed the double range
            if isinstance(x, bool) or not isinstance(x, (int, float)) or not abs(x) <= _MAX:
                raise FrameFormatError(f"field '{key}' entry ({i}, {j}) must be a finite number, got {x!r}")
            out.append(float(x))
        rows.append(out)
    return rows


def frame_from_dict(doc: Any) -> FramePair:
    """Build a frame pair from a parsed JSON document, strictly."""
    if not isinstance(doc, dict):
        raise FrameFormatError(f"frame document must be a JSON object, got {type(doc).__name__}")
    unknown = set(doc) - set(_REQUIRED_KEYS)
    if unknown:
        raise FrameFormatError(f"unknown keys: {sorted(unknown)}")
    missing = [k for k in _REQUIRED_KEYS if k not in doc]
    if missing:
        raise FrameFormatError(f"missing keys: {missing}")
    dim = _parse_positive_int(doc["dim"], "dim")
    count = _parse_positive_int(doc["count"], "count")
    p = _parse_exponent(doc["p"], "p")
    q = _parse_exponent(doc["q"], "q")
    functionals = _parse_rows(doc["functionals"], "functionals", count, dim)
    tau_rows = _parse_rows(doc["vectors"], "vectors", count, dim)
    vectors = [list(col) for col in zip(*tau_rows)]  # row-per-tau -> d x n
    return FramePair(
        x_space=PNormSpace(dim=dim, p=q),
        seq_space=PNormSpace(dim=count, p=p),
        functionals=functionals,
        vectors=vectors,
    )


def frame_to_dict(frame: FramePair) -> dict:
    """The JSON document for ``frame`` (inverse of :func:`frame_from_dict`)."""

    def exponent(p: float):
        return "inf" if math.isinf(p) else p

    return {
        "dim": frame.dim,
        "count": frame.count,
        "p": exponent(frame.seq_space.p),
        "q": exponent(frame.x_space.p),
        "functionals": frame.functionals.tolist(),
        "vectors": frame.vectors.T.tolist(),
    }


def _reject_constant(token: str):
    raise FrameFormatError(f"non-finite JSON token {token!r} is not allowed in frame files")


def loads_frame(text: str) -> FramePair:
    """Parse a frame from JSON text."""
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise FrameFormatError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal longer than Python converts
        raise FrameFormatError(f"invalid JSON: {exc}") from exc
    return frame_from_dict(doc)


def dumps_frame(frame: FramePair) -> str:
    """Serialize a frame to JSON text; no frame file holds a non-finite entry."""
    if not (np.isfinite(frame.functionals).all() and np.isfinite(frame.vectors).all()):
        raise FrameFormatError("a frame with non-finite entries cannot be written as a frame file")
    return json.dumps(frame_to_dict(frame), indent=2, allow_nan=False)


def load_frame(path) -> FramePair:
    """Read a frame file."""
    # undecodable bytes become U+FFFD, which no valid frame file contains
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        return loads_frame(fh.read())


def save_frame(frame: FramePair, path) -> None:
    """Write a frame file that re-parses bit-identically."""
    text = dumps_frame(frame)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")

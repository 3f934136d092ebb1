import json
import math

import numpy as np
import pytest

from pasf import (
    INF,
    FrameFormatError,
    dumps_frame,
    frame_from_dict,
    frame_to_dict,
    load_frame,
    loads_frame,
    random_frame,
    save_frame,
)

from helpers import make_frame

GOOD = {
    "dim": 2,
    "count": 3,
    "p": 2.0,
    "q": 2.0,
    "functionals": [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]],
    "vectors": [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]],
}


def test_load_transposes_vector_rows():
    frame = frame_from_dict(GOOD)
    assert frame.functionals.shape == (3, 2)
    assert frame.vectors.shape == (2, 3)
    # row k of the file is tau_k, stored as column k
    assert frame.vectors[:, 2].tolist() == [1.0, 0.0]


def test_round_trip_is_bit_identical(tmp_path):
    for seed in range(20):
        frame = random_frame(3, 5, p=1.5, q=3.0, seed=seed)
        path = tmp_path / f"frame_{seed}.json"
        save_frame(frame, path)
        back = load_frame(path)
        assert np.array_equal(back.functionals, frame.functionals)
        assert np.array_equal(back.vectors, frame.vectors)
        assert back.x_space == frame.x_space
        assert back.seq_space == frame.seq_space


def test_inf_exponent_round_trip():
    frame = make_frame(np.eye(2), np.eye(2), p=INF, q=INF)
    doc = frame_to_dict(frame)
    assert doc["p"] == "inf" and doc["q"] == "inf"
    back = frame_from_dict(doc)
    assert math.isinf(back.seq_space.p) and math.isinf(back.x_space.p)


def test_unknown_key_rejected():
    doc = dict(GOOD, extra=1)
    with pytest.raises(FrameFormatError, match="unknown keys"):
        frame_from_dict(doc)


def test_missing_key_rejected():
    doc = {k: v for k, v in GOOD.items() if k != "vectors"}
    with pytest.raises(FrameFormatError, match="missing keys"):
        frame_from_dict(doc)


@pytest.mark.parametrize(
    "key,value",
    [
        ("dim", 0),
        ("dim", 2.0),
        ("dim", True),
        ("count", -1),
        ("p", 0.5),
        ("p", "sup"),
        ("q", None),
    ],
)
def test_bad_scalar_fields_rejected(key, value):
    doc = dict(GOOD)
    doc[key] = value
    with pytest.raises(FrameFormatError):
        frame_from_dict(doc)


def test_bad_shapes_rejected():
    doc = dict(GOOD, functionals=[[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(FrameFormatError, match="functionals"):
        frame_from_dict(doc)
    doc = dict(GOOD, vectors=[[1.0], [0.0], [1.0]])
    with pytest.raises(FrameFormatError, match="vectors"):
        frame_from_dict(doc)


def test_non_numeric_entries_rejected():
    doc = dict(GOOD, functionals=[[1.0, "x"], [0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(FrameFormatError, match=r"entry \(0, 1\)"):
        frame_from_dict(doc)
    doc = dict(GOOD, functionals=[[1.0, True], [0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(FrameFormatError):
        frame_from_dict(doc)
    doc = dict(GOOD, functionals=[[1.0, 10**400], [0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(FrameFormatError, match="must be a finite number"):
        frame_from_dict(doc)


def test_numbers_beyond_the_double_range_rejected(tmp_path):
    with pytest.raises(FrameFormatError, match="field 'p'"):
        frame_from_dict(dict(GOOD, p=-(10**400)))
    assert math.isinf(frame_from_dict(dict(GOOD, p=10**400)).seq_space.p)
    with pytest.raises(FrameFormatError):
        loads_frame(json.dumps(GOOD).replace("2.0", "1" * 5000, 1))
    path = tmp_path / "latin1.json"
    path.write_bytes(b"\xff\xfe{")
    with pytest.raises(FrameFormatError):
        load_frame(path)


def test_non_finite_frame_is_not_written(tmp_path):
    frame = make_frame([[1.0, 0.0], [0.0, np.inf]], np.eye(2))
    path = tmp_path / "out.json"
    with pytest.raises(FrameFormatError):
        save_frame(frame, path)
    assert not path.exists()


def test_json_infinity_token_rejected():
    text = dumps_frame(frame_from_dict(GOOD)).replace("1.0", "Infinity", 1)
    with pytest.raises(FrameFormatError, match="non-finite"):
        loads_frame(text)


def test_invalid_json_reports_position():
    with pytest.raises(FrameFormatError, match="line 1"):
        loads_frame("{not json}")


def test_top_level_must_be_object():
    with pytest.raises(FrameFormatError, match="object"):
        loads_frame("[1, 2, 3]")


def test_integer_entries_are_accepted_as_decimals():
    doc = dict(GOOD, functionals=[[1, 0], [0, 1], [1, 0]])
    frame = frame_from_dict(doc)
    assert frame.functionals.dtype == float


def test_written_file_is_valid_strict_json(tmp_path):
    frame = frame_from_dict(GOOD)
    path = tmp_path / "f.json"
    save_frame(frame, path)
    raw = json.loads(path.read_text())
    assert set(raw) == {"dim", "count", "p", "q", "functionals", "vectors"}

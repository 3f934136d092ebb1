import json
import pathlib

import numpy as np
import pytest

from pasf import load_frame, parsevalize, random_frame, save_frame, is_dual, frame_operator
from pasf.cli import main

from helpers import (
    beyond_range_dual_frame, block_orthogonal_pair, count_witnesses, make_frame, overflowing_s_frame,
    overflowing_terms_frame, scaled_frame, standard_frame,
)


@pytest.fixture
def files(tmp_path):
    paths = {}

    def write(name, frame):
        path = tmp_path / f"{name}.json"
        save_frame(frame, path)
        paths[name] = str(path)
        return str(path)

    write("standard", standard_frame(2))
    write("scaled", scaled_frame(2, 2.0))
    write("near", make_frame([[1, 0], [0, 1]], [[1.5, 0], [0, 1]]))
    write("rankdef", make_frame([[1, 0], [1, 0]], [[1, 1], [0, 0]]))
    b1, b2 = block_orthogonal_pair()
    write("block1", b1)
    write("block2", b2)
    paths["dir"] = str(tmp_path)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# validate


def test_validate_standard(files, capsys):
    code, out, _ = run(capsys, "validate", files["standard"])
    assert code == 0
    assert "valid p-ASF (Parseval)" in out
    assert "lower bound a = 1" in out
    assert "upper bound b = 1" in out


def test_validate_scaled(files, capsys):
    code, out, _ = run(capsys, "validate", files["scaled"])
    assert code == 0
    assert "lower bound a = 2" in out and "upper bound b = 2" in out
    assert "(Parseval)" not in out


def test_validate_rank_deficient_exits_2(files, capsys):
    code, out, _ = run(capsys, "validate", files["rankdef"])
    assert code == 2
    assert "NotAFrame" in out and "rank 1 of 2" in out


def test_validate_missing_file_exits_1(files, capsys):
    code, _, err = run(capsys, "validate", files["dir"] + "/nope.json")
    assert code == 1
    assert "error" in err


def test_validate_malformed_file_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 2')
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert "line" in err


def test_validate_json_mode_single_object(files, capsys):
    code, out, _ = run(capsys, "validate", files["standard"], "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "validate"
    labels = {n["label"] for n in doc["numbers"]}
    assert "lower bound a" in labels
    assert all("tol" in n for n in doc["numbers"])


def test_validate_json_not_a_frame_is_a_verdict(files, capsys):
    # validate reports NotAFrame as its verdict (with the rank), not as an
    # error envelope: the file itself was well-formed input
    code, out, _ = run(capsys, "validate", files["rankdef"], "--json")
    assert code == 2
    doc = json.loads(out)
    assert doc["verdict"].startswith("NotAFrame")
    assert "rank 1 of 2" in doc["verdict"]


def test_validate_matrices_flag(files, capsys):
    code, out, _ = run(capsys, "validate", files["scaled"], "--json", "--matrices")
    doc = json.loads(out)
    assert doc["matrices"]["frame_operator"] == [[2.0, 0.0], [0.0, 2.0]]
    assert doc["matrices"]["frame_operator_inverse"] == [[0.5, 0.0], [0.0, 0.5]]


# ---------------------------------------------------------------------------
# duals


def test_canonical_dual_roundtrip(files, tmp_path, capsys):
    out_path = str(tmp_path / "dual.json")
    code, _, _ = run(capsys, "canonical-dual", files["scaled"], "--out", out_path)
    assert code == 0
    dual = load_frame(out_path)
    assert np.allclose(dual.functionals, 0.5 * np.eye(2))
    code, _, _ = run(capsys, "check-dual", files["scaled"], out_path)
    assert code == 0


def test_check_dual_failure_exits_2(files, capsys):
    code, out, _ = run(capsys, "check-dual", files["scaled"], files["scaled"])
    assert code == 2
    assert "not a dual pair" in out


def test_check_dual_reports_oracle_agreement(files, tmp_path, capsys):
    out_path = str(tmp_path / "dual.json")
    run(capsys, "canonical-dual", files["standard"], "--out", out_path)
    code, out, _ = run(capsys, "check-dual", files["standard"], out_path, "--json")
    doc = json.loads(out)
    values = {n["label"]: n["value"] for n in doc["numbers"]}
    assert values["criterion"] is True
    assert values["reconstruction oracle"] is True


def test_sample_duals_writes_valid_duals(files, tmp_path, capsys):
    frame_path = str(tmp_path / "frame.json")
    save_frame(random_frame(2, 4, seed=3), frame_path)
    out_dir = str(tmp_path / "duals")
    code, out, _ = run(
        capsys, "sample-duals", frame_path, "--count", "5", "--seed", "9", "--out-dir", out_dir
    )
    assert code == 0
    frame = load_frame(frame_path)
    for i in range(5):
        dual = load_frame(f"{out_dir}/dual_{i:03d}.json")
        assert is_dual(frame, dual)


def test_sample_duals_negative_count_exits_1(files, capsys):
    code, out, _ = run(capsys, "sample-duals", files["standard"], "--count", "-3", "--json")
    assert code == 1
    assert json.loads(out)["error"]["code"] == "FrameFormatError"


# ---------------------------------------------------------------------------
# orthogonality and interpolation


def test_check_orthogonal_block_pair(files, capsys):
    code, out, _ = run(capsys, "check-orthogonal", files["block1"], files["block2"])
    assert code == 0 and "orthogonal" in out
    code, _, _ = run(capsys, "check-orthogonal", files["block1"], files["block1"])
    assert code == 2


def test_interpolate_block_pair(files, tmp_path, capsys):
    out_path = str(tmp_path / "stitched.json")
    code, _, _ = run(
        capsys,
        "interpolate", files["block1"], files["block2"],
        "--scalars", "1,1,0.5,0.5", "--out", out_path,
    )
    assert code == 0
    stitched = load_frame(out_path)
    assert np.allclose(frame_operator(stitched).entries, np.eye(2))


def test_interpolate_without_out_prints_the_stitched_matrices(files, capsys):
    code, out, _ = run(
        capsys, "interpolate", files["block1"], files["block2"], "--scalars", "1,1,0.5,0.5", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["matrices"]["functionals"] == [[1, 0], [0, 1], [1, 0], [0, 1]]
    assert doc["matrices"]["vectors"] == [[0.5, 0, 0.5, 0], [0, 0.5, 0, 0.5]]
    code, out, _ = run(capsys, "interpolate", files["block1"], files["block2"], "--scalars", "1,1,0.5,0.5")
    assert code == 0 and "functionals:" in out and "vectors:" in out


def test_interpolate_contract_violation_exits_2(files, capsys):
    code, out, _ = run(
        capsys, "interpolate", files["block1"], files["block2"], "--scalars", "1,1,1,1", "--json"
    )
    assert code == 2
    assert json.loads(out)["error"]["code"] == "ContractViolated"


def test_interpolate_bad_scalars_exits_1(files, capsys):
    code, _, _ = run(capsys, "interpolate", files["block1"], files["block2"], "--scalars", "1,1")
    assert code == 1


# ---------------------------------------------------------------------------
# similarity and factorization


def test_similarity_with_canonical_dual_prints_inverse_witnesses(files, tmp_path, capsys):
    out_path = str(tmp_path / "dual.json")
    run(capsys, "canonical-dual", files["scaled"], "--out", out_path)
    code, out, _ = run(capsys, "similarity", files["scaled"], out_path, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "similar"
    # for S = 2I the witnesses are S^-1 = I/2
    assert np.allclose(doc["matrices"]["t_fg"], 0.5 * np.eye(2))
    assert np.allclose(doc["matrices"]["t_tau_omega"], 0.5 * np.eye(2))


def test_similarity_failure_exits_2(files, tmp_path, capsys):
    other = str(tmp_path / "other.json")
    save_frame(make_frame([[1, 0], [0, 1], [1, 1]], [[1, 0, 1], [0, 1, 1]]), other)
    this = str(tmp_path / "this.json")
    save_frame(make_frame([[1, 0], [0, 1], [0, 0]], [[1, 0, 0], [0, 1, 0]]), this)
    code, out, _ = run(capsys, "similarity", this, other)
    assert code == 2 and "not similar" in out


def test_similarity_forms_the_witness_once(files, tmp_path, capsys, monkeypatch):
    out_path = str(tmp_path / "dual.json")
    run(capsys, "canonical-dual", files["scaled"], "--out", out_path)
    formed = count_witnesses(monkeypatch)
    code, out, _ = run(capsys, "similarity", files["scaled"], out_path, "--json")
    assert code == 0 and json.loads(out)["verdict"] == "similar"
    assert len(formed) == 1


def test_similarity_prints_the_witness_of_a_pair_that_is_not_similar(tmp_path, capsys, monkeypatch):
    other = str(tmp_path / "other.json")
    save_frame(make_frame([[1, 0], [0, 1], [1, 1]], [[1, 0, 1], [0, 1, 1]]), other)
    this = str(tmp_path / "this.json")
    save_frame(make_frame([[1, 0], [0, 1], [0, 0]], [[1, 0, 0], [0, 1, 0]]), this)
    formed = count_witnesses(monkeypatch)
    code, out, _ = run(capsys, "similarity", this, other, "--json")
    assert code == 2 and len(formed) == 1
    doc = json.loads(out)
    assert doc["verdict"] == "not similar"
    # S1 = I, so the candidates are the leading blocks of f2 and tau2
    assert doc["matrices"]["t_fg"] == [[1.0, 0.0], [0.0, 1.0]]
    assert doc["matrices"]["t_tau_omega"] == [[1.0, 0.0], [0.0, 1.0]]


def test_factorize_writes_matrices(files, tmp_path, capsys):
    out_path = str(tmp_path / "fact.json")
    code, out, _ = run(capsys, "factorize", files["scaled"], "--out", out_path)
    assert code == 0
    doc = json.loads(pathlib.Path(out_path).read_text())
    assert doc["u"] == [[1.0, 0.0], [0.0, 1.0]]
    assert doc["v"] == [[2.0, 0.0], [0.0, 2.0]]


def test_factorize_invalid_frame_exits_2(files, capsys):
    code, _, _ = run(capsys, "factorize", files["rankdef"])
    assert code == 2


# ---------------------------------------------------------------------------
# tolerance plumbing and usage errors


def test_env_tolerance_is_used(files, capsys, monkeypatch):
    # S = diag(1.5, 1): a 0.6 tolerance is loose enough to call it Parseval
    # but does not swallow the pivots of S
    monkeypatch.setenv("PASF_TOL", "0.6")
    code, out, _ = run(capsys, "validate", files["near"])
    assert code == 0 and "(Parseval)" in out


def test_explicit_tol_beats_env(files, capsys, monkeypatch):
    monkeypatch.setenv("PASF_TOL", "0.6")
    code, out, _ = run(capsys, "validate", files["near"], "--tol", "1e-9")
    assert code == 0 and "(Parseval)" not in out


def test_invalid_env_tolerance_exits_1(files, capsys, monkeypatch):
    monkeypatch.setenv("PASF_TOL", "plenty")
    code, _, _ = run(capsys, "validate", files["standard"])
    assert code == 1


@pytest.mark.parametrize("bad", ["-1", "0", "nan", "inf"])
def test_tolerance_must_be_finite_and_positive(files, capsys, monkeypatch, bad):
    # on a singular frame an unchecked tolerance reaches LAPACK or json.dumps
    code, out, _ = run(capsys, "validate", files["rankdef"], "--tol", bad, "--json")
    assert code == 1
    assert len(out.splitlines()) == 1
    assert json.loads(out)["error"]["code"] == "FrameFormatError"
    monkeypatch.setenv("PASF_TOL", bad)
    code, out, _ = run(capsys, "validate", files["rankdef"], "--json")
    assert code == 1
    assert len(out.splitlines()) == 1
    assert json.loads(out)["error"]["code"] == "FrameFormatError"


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as info:
        main(["interpolate", "one.json"])
    assert info.value.code == 1


@pytest.mark.parametrize("argv", [
    ["validate", "a.json", "--json", "--bogus"],
    ["sample-duals", "a.json", "--count", "x", "--json"],
])
def test_usage_error_under_json_emits_one_error_object(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 1
    captured = capsys.readouterr()
    payload = json.loads(captured.out)  # fails on anything but one JSON object
    assert payload["command"] == argv[0] and payload["inputs"] == []
    assert payload["error"]["code"] == "UsageError"
    assert captured.err == ""


# command -> (usage line of `pasf <command> --help` at 200 columns, frame names, extra arguments)
SUBCOMMANDS = {
    "validate": ("usage: pasf validate [-h] [--matrices] [--tol TOL] [--json] file",
                 ["standard"], []),
    "canonical-dual": ("usage: pasf canonical-dual [-h] [--out OUT] [--tol TOL] [--json] file",
                       ["standard"], []),
    "check-dual": ("usage: pasf check-dual [-h] [--tol TOL] [--json] file1 file2",
                   ["standard", "scaled"], []),
    "check-orthogonal": ("usage: pasf check-orthogonal [-h] [--tol TOL] [--json] file1 file2",
                         ["block1", "block2"], []),
    "similarity": ("usage: pasf similarity [-h] [--tol TOL] [--json] file1 file2",
                   ["standard", "scaled"], []),
    "interpolate": ("usage: pasf interpolate [-h] --scalars a,b,c,d [--out OUT] [--tol TOL] [--json] file1 file2",
                    ["block1", "block2"], ["--scalars", "1,1,0.5,0.5"]),
    "sample-duals": ("usage: pasf sample-duals [-h] [--count COUNT] [--seed SEED] [--out-dir OUT_DIR] "
                     "[--tol TOL] [--json] file", ["standard"], ["--count", "2"]),
    "factorize": ("usage: pasf factorize [-h] [--out OUT] [--tol TOL] [--json] file",
                  ["standard"], []),
}


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_subcommand_usage_and_inputs(files, tmp_path, capsys, monkeypatch, command):
    usage, names, extra = SUBCOMMANDS[command]
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.splitlines()[0] == usage

    paths = [files[name] for name in names]
    code, out, _ = run(capsys, command, *paths, *extra, "--json")
    doc = json.loads(out)
    assert code in (0, 2) and "error" not in doc
    assert doc["command"] == command and doc["inputs"] == paths

    # every file is echoed, also those after the one that cannot be read
    paths[0] = str(tmp_path / "missing.json")
    code, out, _ = run(capsys, command, *paths, *extra, "--json")
    doc = json.loads(out)
    assert code == 1 and doc["error"]["code"] == "FileNotFoundError"
    assert doc["inputs"] == paths


@pytest.mark.parametrize("argv, code, names", [
    # --tol before the files and before the subcommand's own options
    (["validate", "missing.json", "--tol", "-1"], "FrameFormatError", "--tol"),
    (["sample-duals", "{standard}", "--count", "-2", "--tol", "0"], "FrameFormatError", "--tol"),
    # the files in order
    (["check-dual", "missing.json", "other.json"], "FileNotFoundError", "missing.json"),
    (["check-dual", "{standard}", "other.json"], "FileNotFoundError", "other.json"),
    (["similarity", "{bad}", "missing.json"], "FrameFormatError", "invalid JSON"),
    (["similarity", "missing.json", "{bad}"], "FileNotFoundError", "missing.json"),
    # the files before the subcommand's own options
    (["interpolate", "missing.json", "{block2}", "--scalars", "1,1"], "FileNotFoundError", "missing.json"),
    (["sample-duals", "missing.json", "--count", "-2"], "FileNotFoundError", "missing.json"),
    (["interpolate", "{block1}", "{block2}", "--scalars", "1,1"], "FrameFormatError", "--scalars"),
    (["sample-duals", "{standard}", "--count", "-2"], "FrameFormatError", "--count"),
])
def test_errors_come_tol_then_files_then_options(files, tmp_path, capsys, monkeypatch, argv, code, names):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.json").write_text("{not json")
    argv = [arg.format(**files, bad="bad.json") for arg in argv]
    exit_code, out, _ = run(capsys, *argv, "--json")
    doc = json.loads(out)
    assert exit_code == 1 and doc["error"]["code"] == code
    assert names in doc["error"]["message"]
    assert doc["inputs"] == argv[1:1 + len(SUBCOMMANDS[argv[0]][1])]



def test_cli_round_trip_bit_identical(files, tmp_path, capsys):
    frame_path = str(tmp_path / "frame.json")
    frame = random_frame(3, 6, p=1.5, q=3.0, seed=11)
    save_frame(frame, frame_path)
    out_path = str(tmp_path / "dual.json")
    run(capsys, "canonical-dual", frame_path, "--out", out_path)
    dual = load_frame(out_path)
    save_frame(dual, str(tmp_path / "dual2.json"))
    again = load_frame(str(tmp_path / "dual2.json"))
    assert np.array_equal(again.functionals, dual.functionals)
    assert np.array_equal(again.vectors, dual.vectors)


# ---------------------------------------------------------------------------
# numbers at the edges of the double range


def _doc(p, scale):
    return {"dim": 2, "count": 2, "p": p, "q": p,
            "functionals": [[scale, 2 * scale], [3 * scale, -scale]],
            "vectors": [[scale, 0.5 * scale], [-2 * scale, scale]]}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("p, scale", [(3, 1e110), (1e308, 1.0), (3, 1e-110)])
def test_validate_generic_p_norms_do_not_overflow(tmp_path, capsys, p, scale):
    path = tmp_path / "frame.json"
    path.write_text(json.dumps(_doc(p, scale)))
    code, out, _ = run(capsys, "validate", str(path), "--json")
    assert code == 0
    numbers = {item["label"]: item["value"] for item in json.loads(out)["numbers"]}
    assert numbers["lower bound a (lower)"] > 0
    assert numbers["lower bound a (lower)"] <= numbers["lower bound a (upper)"]


@pytest.mark.filterwarnings("error")
def test_result_out_of_double_range_exits_1(tmp_path, capsys):
    # S = 1e-300, so the witness theta_omega theta_f S^-1 is 1e300 * 1e300 = 1e600
    big = {"dim": 1, "count": 3, "p": 1, "q": 1,
           "functionals": [[0.0], [1.0], [0.0]], "vectors": [[0.0], [1e-300], [0.0]]}
    other = dict(big, functionals=[[0.0], [1.0], [1.0]], vectors=[[0.0], [1e300], [0.0]])
    paths = []
    for name, doc in (("big", big), ("other", other)):
        paths.append(str(tmp_path / f"{name}.json"))
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    code, out, _ = run(capsys, "similarity", *paths, "--json")
    assert code == 1
    assert json.loads(out)["error"]["code"] == "FrameFormatError"


@pytest.mark.parametrize("argv", [["canonical-dual"], ["sample-duals", "--count", "2"]])
def test_duals_out_of_double_range_exit_1(tmp_path, capsys, argv):
    # a valid frame whose duals overflow is an input out of range, not a property failure
    path = tmp_path / "frame.json"
    save_frame(beyond_range_dual_frame(), path)
    code, out, _ = run(capsys, *argv, str(path), "--json")
    assert code == 1
    assert json.loads(out)["error"]["code"] == "FrameFormatError"


def test_tol_below_double_precision_on_singular_frame_exits_2(tmp_path, capsys):
    doc = {"dim": 3, "count": 3, "p": 1, "q": 1,
           "functionals": [[0.0, 0.0, 0.0], [0.0, 1e300, 1e300], [1.0, 0.0, 0.0]],
           "vectors": [[0.0, 0.0, 0.0], [0.0, 2.0, 2.0], [0.0, 2.0, -2.0]]}
    path = tmp_path / "frame.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate", str(path), "--tol", "1e-300", "--json")
    assert code == 2
    assert json.loads(out)["verdict"].startswith("NotAFrame")


@pytest.mark.parametrize("p", [1, 3])
def test_frame_operator_with_inverse_beyond_double_range_is_not_a_frame(tmp_path, capsys, p):
    # S = 2.7e-11 * 1e-300 has full rank at relative tol, but 1 / S overflows
    doc = {"dim": 1, "count": 1, "p": p, "q": p,
           "functionals": [[2.6988241010019107e-11]], "vectors": [[1e-300]]}
    path = tmp_path / "frame.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate", str(path), "--json")
    assert code == 2
    assert json.loads(out)["verdict"] == "NotAFrame: rank 0 of 1"
    code, out, _ = run(capsys, "canonical-dual", str(path), "--json")
    assert code == 2
    assert json.loads(out)["error"]["code"] == "NotAFrame"


@pytest.mark.filterwarnings("error")
def test_frames_whose_product_terms_overflow_get_their_verdicts(tmp_path, capsys):
    # each product below is in range though its terms are not: S = 2^1010 for the first
    # frame, and the transport f1 T_fg = 2^1010 I from the second to its Parseval frame
    paths = {}
    for name, frame in (("s", overflowing_s_frame()), ("f", overflowing_terms_frame()),
                        ("parseval", parsevalize(overflowing_terms_frame())[0])):
        paths[name] = str(tmp_path / f"{name}.json")
        save_frame(frame, paths[name])
    for expected, argv in ((0, ["validate", paths["s"]]), (0, ["similarity", paths["f"], paths["parseval"]]),
                           (2, ["check-orthogonal", paths["f"], paths["f"]])):
        code, out, err = run(capsys, *argv, "--json")
        assert (code, err) == (expected, ""), argv
        assert "error" not in json.loads(out)


@pytest.mark.filterwarnings("error")
def test_reconstruction_oracle_rejects_overflowed_sums(tmp_path, capsys):
    # every reconstruction sum is 1e400 - 1e400, i.e. inf - inf = NaN
    doc = {"dim": 1, "count": 2, "p": 2, "q": 2,
           "functionals": [[1e200], [1e200]], "vectors": [[1e200], [-1e200]]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "check-dual", str(path), str(path), "--json")
    assert code == 2
    numbers = {item["label"]: item["value"] for item in json.loads(out)["numbers"]}
    assert numbers == {"criterion": False, "reconstruction oracle": False}

"""Command-line interface.

Grammar::

    pasf <subcommand> [files...] [--tol X] [--json] [--out PATH]
                      [--seed N] [--count N] [--scalars a,b,c,d]
                      [--matrices] [--out-dir DIR]

Exit codes are a contract scripts can branch on without parsing text:
0 = the property holds / the construction succeeded, 2 = the property
fails or a contract is violated, 1 = input error (unreadable or
malformed files, incompatible spaces, bad arguments). The environment
variable ``PASF_TOL`` overrides the default tolerance (1e-9) whenever
``--tol`` is absent; either must be a finite number > 0. With
``--json`` every invocation emits exactly one JSON object; matrices
there are raw doubles, while human output rounds to 6 significant
digits. Errors are reported in a fixed order: the tolerance first, then
each file in the order given, then the subcommand's own options.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import duality, fileio, frames, generators, orthogonality, similarity
from .errors import (
    DimensionMismatch,
    FrameFormatError,
    MixedExponents,
    NotAFrame,
    PasfError,
    SpaceMismatch,
)
from .spaces import DEFAULT_TOL, NormBound

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_FAIL = 2

_INPUT_ERRORS = (FrameFormatError, SpaceMismatch, DimensionMismatch, MixedExponents, OSError)


@dataclass
class Report:
    """Structured result of one invocation.

    Every number carries its label and the tolerance it was judged
    against; matrices are emitted only when a subcommand produces
    operator output worth inspecting.
    """

    command: str
    inputs: list[str]
    verdict: str = ""
    numbers: list[dict] = field(default_factory=list)
    matrices: dict = field(default_factory=dict)

    def add(self, label: str, value, tol: float) -> None:
        self.numbers.append({"label": label, "value": value, "tol": tol})

    def render_human(self) -> str:
        lines = [f"command: {self.command}"]
        if self.inputs:
            lines.append(f"inputs: {', '.join(self.inputs)}")
        lines.append(f"verdict: {self.verdict}")
        for item in self.numbers:
            lines.append(f"  {item['label']} = {_fmt(item['value'])}  (tol {_fmt(item['tol'])})")
        for name, matrix in self.matrices.items():
            lines.append(f"  {name}:")
            for row in matrix:
                lines.append("    [" + ", ".join(_fmt(x) for x in row) + "]")
        return "\n".join(lines)


def _fmt(x) -> str:
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


class UsageError(Exception):
    """A command line argparse rejects; ``parser`` is the one that rejected it."""

    def __init__(self, message: str, parser: argparse.ArgumentParser):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the exit-code contract reserves
    # 2 for property failures, so main reports usage errors with exit 1.
    def error(self, message):
        raise UsageError(message, self)


def _wants_json(argv: list[str]) -> bool:
    """Whether ``argv`` asks for ``--json``, as argparse reads it (any prefix of at least ``--j``)."""
    return any(len(arg) > 2 and "--json".startswith(arg) for arg in argv)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pasf", description="Frame pairs on finite-dimensional l^p spaces.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (_, help_, files, options) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_)
        for file in files:
            sp.add_argument(file)
        for flag, kwargs in options + _COMMON_OPTIONS:
            sp.add_argument(flag, **kwargs)
    return parser


def _resolve_tol(args) -> float:
    if args.tol is not None:
        tol, source = args.tol, "--tol"
    else:
        env = os.environ.get("PASF_TOL")
        if env is None:
            return DEFAULT_TOL
        try:
            tol = float(env)
        except ValueError:
            raise FrameFormatError(f"PASF_TOL is not a number: {env!r}")
        source = "PASF_TOL"
    if not (math.isfinite(tol) and tol > 0.0):
        raise FrameFormatError(f"{source} must be a finite number > 0, got {tol!r}")
    return tol


def _bound_numbers(report: Report, label: str, bound: NormBound, tol: float) -> None:
    if bound.exact:
        report.add(label, bound.value, tol)
    else:
        report.add(f"{label} (lower)", bound.lower, tol)
        report.add(f"{label} (upper)", bound.upper, tol)


def _require_finite(*results) -> None:
    if not all(np.isfinite(m).all() for m in results):
        raise FrameFormatError("a result is out of the double range: input entries too large or too small")


def _emit(report: Report, as_json: bool) -> None:
    if as_json:
        print(json.dumps(vars(report), allow_nan=False))
    else:
        print(report.render_human())


# ---------------------------------------------------------------------------
# subcommands: each takes the parsed arguments, the tolerance, the report
# and the frames its table entry names, loaded in that order


def _cmd_validate(args, tol: float, report: Report, frame) -> int:
    try:
        fr = frames.validate(frame, tol)
    except NotAFrame as exc:
        report.verdict = f"NotAFrame: rank {exc.rank} of {frame.dim}"
        report.add("frame operator rank", exc.rank, tol)
        return EXIT_FAIL
    report.verdict = "valid p-ASF" + (" (Parseval)" if fr.parseval else "")
    _bound_numbers(report, "lower bound a", fr.lower_bound, tol)
    _bound_numbers(report, "upper bound b", fr.upper_bound, tol)
    report.add("parseval", fr.parseval, tol)
    report.add("analysis injective", fr.analysis_injective, tol)
    report.add("synthesis surjective", fr.synthesis_surjective, tol)
    report.add("rcond", fr.rcond, tol)
    if args.matrices:
        report.matrices["frame_operator"] = fr.frame_op.entries.tolist()
        report.matrices["frame_operator_inverse"] = fr.frame_op_inv.entries.tolist()
    return EXIT_OK


def _cmd_canonical_dual(args, tol: float, report: Report, frame) -> int:
    fr = frames.validate(frame, tol)
    dual = duality.canonical_dual(frame, tol)
    lo, hi = duality.canonical_dual_bounds(fr)
    report.verdict = "canonical dual computed"
    _bound_numbers(report, "dual lower bound 1/b", lo, tol)
    _bound_numbers(report, "dual upper bound 1/a", hi, tol)
    if args.out:
        fileio.save_frame(dual, args.out)
        report.verdict = f"canonical dual written to {args.out}"
    else:
        report.matrices["dual_functionals"] = dual.functionals.tolist()
        report.matrices["dual_vectors"] = dual.vectors.tolist()
    return EXIT_OK


def _cmd_check_dual(args, tol: float, report: Report, frame, cand) -> int:
    holds = duality.is_dual(frame, cand, tol)
    report.verdict = "dual pair" if holds else "not a dual pair"
    report.add("criterion", holds, tol)
    report.add("reconstruction oracle", generators.reconstruction_oracle(frame, cand, tol), tol)
    return EXIT_OK if holds else EXIT_FAIL


def _cmd_check_orthogonal(args, tol: float, report: Report, frame1, frame2) -> int:
    holds = orthogonality.is_orthogonal(frame1, frame2, tol)
    report.verdict = "orthogonal" if holds else "not orthogonal"
    report.add("criterion", holds, tol)
    return EXIT_OK if holds else EXIT_FAIL


def _cmd_similarity(args, tol: float, report: Report, frame1, frame2) -> int:
    holds, witness, _ = similarity._similarity(frame1, frame2, tol)
    witness = witness or similarity.witness_from_frames(frame1, frame2, tol)
    report.verdict = "similar" if holds else "not similar"
    report.add("projection criterion", holds, tol)
    report.add("witnesses invertible", witness.invertible, tol)
    report.matrices["t_fg"] = witness.t_fg.entries.tolist()
    report.matrices["t_tau_omega"] = witness.t_tau_omega.entries.tolist()
    return EXIT_OK if holds else EXIT_FAIL


def _cmd_interpolate(args, tol: float, report: Report, frame1, frame2) -> int:
    try:
        a, b, c, d = (float(s) for s in args.scalars.split(","))
    except ValueError:
        raise FrameFormatError(f"--scalars must be four comma-separated numbers, got {args.scalars!r}")
    stitched = orthogonality.scalar_interpolate(frame1, frame2, a, b, c, d, tol)
    report.verdict = "Parseval frame stitched"
    report.add("c*a + d*b", c * a + d * b, tol)
    report.add("stitched parseval", frames._parseval(stitched, tol), tol)
    if args.out:
        fileio.save_frame(stitched, args.out)
        report.verdict = f"Parseval frame written to {args.out}"
    else:
        report.matrices["functionals"] = stitched.functionals.tolist()
        report.matrices["vectors"] = stitched.vectors.tolist()
    return EXIT_OK


def _cmd_sample_duals(args, tol: float, report: Report, frame) -> int:
    if args.count < 0:
        raise FrameFormatError(f"--count must be >= 0, got {args.count}")
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
    for i in range(args.count):
        cand = generators.random_dual(frame, args.seed + i)
        _require_finite(cand.frame.functionals, cand.frame.vectors)
        ok = duality.is_dual(frame, cand.frame, tol)
        report.add(f"sample {i} is_dual", ok, tol)
        report.add(f"sample {i} rcond", frames._canonical(cand.frame, tol).rcond, tol)
        if args.out_dir:
            fileio.save_frame(cand.frame, os.path.join(args.out_dir, f"dual_{i:03d}.json"))
    report.verdict = f"{args.count} duals sampled"
    return EXIT_OK


def _cmd_factorize(args, tol: float, report: Report, frame) -> int:
    u, v = frames.factorize(frame, tol)
    report.verdict = "factorization computed"
    report.matrices["u"] = u.entries.tolist()
    report.matrices["v"] = v.entries.tolist()
    if args.out:
        doc = {
            "dim": frame.dim,
            "count": frame.count,
            "u": report.matrices["u"],
            "v": report.matrices["v"],
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, allow_nan=False))
            fh.write("\n")
        report.verdict = f"factorization written to {args.out}"
    return EXIT_OK


#: name -> (handler, help, file arguments, own options as (flag, add_argument kwargs)),
#: in the order ``pasf --help`` lists them; every subcommand takes
#: ``_COMMON_OPTIONS`` after its own.
_COMMANDS = {
    "validate": (_cmd_validate, "decide the p-ASF property and report bounds", ["file"],
                 [("--matrices", {"action": "store_true", "help": "include S and S^-1 in the report"})]),
    "canonical-dual": (_cmd_canonical_dual, "compute the canonical dual", ["file"],
                       [("--out", {"help": "write the dual as a frame file"})]),
    "check-dual": (_cmd_check_dual, "test the dual criterion for two frames", ["file1", "file2"], []),
    "check-orthogonal": (_cmd_check_orthogonal, "test orthogonality of two frames", ["file1", "file2"], []),
    "similarity": (_cmd_similarity, "decide similarity and print the witnesses", ["file1", "file2"], []),
    "interpolate": (_cmd_interpolate, "stitch two orthogonal Parseval frames", ["file1", "file2"],
                    [("--scalars", {"required": True, "metavar": "a,b,c,d",
                                    "help": "scalars with c*a + d*b = 1"}),
                     ("--out", {"help": "write the stitched frame"})]),
    "sample-duals": (_cmd_sample_duals, "sample the dual family of a frame", ["file"],
                     [("--count", {"type": int, "default": 10}), ("--seed", {"type": int, "default": 0}),
                      ("--out-dir", {"help": "write each sample as a frame file here"})]),
    "factorize": (_cmd_factorize, "emit the analysis/synthesis factorization", ["file"],
                  [("--out", {"help": "write both matrices as a JSON file"})]),
}
_COMMON_OPTIONS = [
    ("--tol", {"type": float, "default": None, "help": "tolerance (default 1e-9 or $PASF_TOL)"}),
    ("--json", {"action": "store_true", "help": "emit one JSON object"}),
]


def _error_exit(report: Report, exc: Exception, as_json: bool, code: int) -> int:
    payload = {
        "command": report.command,
        "inputs": report.inputs,
        "error": {"code": type(exc).__name__, "message": str(exc)},
    }
    if as_json:
        print(json.dumps(payload, allow_nan=False))
    else:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _build_parser().parse_args(argv)
    except UsageError as exc:
        if _wants_json(argv):
            command = argv[0] if argv[0] in _COMMANDS else ""
            _error_exit(Report(command=command, inputs=[]), exc, True, EXIT_INPUT)
        else:
            exc.parser.print_usage(sys.stderr)
            print(f"{exc.parser.prog}: error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT) from None
    handler, _, files, _ = _COMMANDS[args.command]
    paths = [getattr(args, name) for name in files]
    report = Report(command=args.command, inputs=[path for path in paths if path])
    try:
        tol = _resolve_tol(args)
        loaded = [fileio.load_frame(path) for path in paths]
        code = handler(args, tol, report, *loaded)
        numbers = [item["value"] for item in report.numbers if isinstance(item["value"], float)]
        _require_finite(numbers, *report.matrices.values())
    except _INPUT_ERRORS as exc:
        return _error_exit(report, exc, args.json, EXIT_INPUT)
    except PasfError as exc:
        return _error_exit(report, exc, args.json, EXIT_FAIL)
    _emit(report, args.json)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark workloads: library pipelines and CLI sequences.

Every caller is closed-loop: one single-threaded client issues the next
call only after the previous one has returned. Inputs come from the
workload seed through ``pasf.generators`` (the library's portable PRNG),
so a seed gives the same inputs on every platform.

Each operation's output is checked outside the timed region. A check
that fails, or a call that raises, counts as one failed operation and
never stops the run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

import pasf
from pasf import generators

from tracing import Tracer

_MASK64 = (1 << 64) - 1
# Interpolation scalars: c*a + d*b = 0.6*0.6 + 0.8*0.8 = 1.
_SCALARS = (0.6, 0.8, 0.6, 0.8)
_CLI_DUALS = 20


@dataclass(frozen=True)
class LibSpec:
    d: int
    n: int
    p: float


@dataclass(frozen=True)
class CliSpec:
    d: int
    n: int
    p: float
    pairs: int  # frame pairs written during set-up, used in turn


WORKLOADS = {
    "lib-d64-p2": LibSpec(64, 64, 2.0),
    "lib-d64-p3": LibSpec(64, 64, 3.0),
    "lib-small": LibSpec(8, 16, 2.0),
    "cli-d64-p3": CliSpec(64, 64, 3.0, pairs=8),
}

#: Same shapes of work at a size the smoke test can afford.
TINY = {
    "lib-d64-p2": LibSpec(4, 4, 2.0),
    "lib-d64-p3": LibSpec(4, 4, 3.0),
    "lib-small": LibSpec(2, 4, 2.0),
    "cli-d64-p3": CliSpec(4, 4, 3.0, pairs=1),
}


def mix(*parts: int) -> int:
    """A 64-bit seed from integers (splitmix64 finalizer, chained)."""
    x = 0x9E3779B97F4A7C15
    for part in parts:
        x = (x ^ (part & _MASK64)) & _MASK64
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
        x ^= x >> 31
    return x


#: The check that the known ``are_similar`` defect fails (see README.md,
#: "Known defect"), and the largest share of its attempts it may fail
#: while the run still counts as correct. On ``lib-small`` the seed fails
#: it in 27 of the first 20,000 pipelines of seeds 1-10 (1.35e-3); the
#: ceiling is about 3.7 times that. Up to KNOWN_DEFECT_FLOOR failures are
#: tolerated in any run, because a short run can meet a cluster: seed 3
#: fails pipelines 94, 117 and 165.
KNOWN_DEFECT_CHECK = "are_similar"
KNOWN_DEFECT_CEILING = 5e-3
KNOWN_DEFECT_FLOOR = 3


@dataclass
class Checks:
    """Failure accounting: every checked operation is attempted once."""

    attempts: dict = field(default_factory=dict)
    failures: dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return sum(self.attempts.values())

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def record(self, name: str, ok: bool) -> bool:
        self.attempts[name] = self.attempts.get(name, 0) + 1
        if not ok:
            self.failures[name] = self.failures.get(name, 0) + 1
        return ok

    def correct(self) -> bool:
        """True when something was checked and every failure is the known
        ``are_similar`` false negative, at no more than its ceiling."""
        known = self.failures.get(KNOWN_DEFECT_CHECK, 0)
        attempts = self.attempts.get(KNOWN_DEFECT_CHECK, 0)
        allowed = max(KNOWN_DEFECT_FLOOR, KNOWN_DEFECT_CEILING * attempts)
        return self.attempted > 0 and self.failed == known and known <= allowed


def _dual_ok(frame, dual) -> bool:
    return pasf.is_dual(frame, dual) and generators.reconstruction_oracle(frame, dual)


def _bracket_gaps(report) -> list[float]:
    return [(b.upper - b.lower) / b.upper for b in (report.lower_bound, report.upper_bound)]


def _brackets_ok(frame, report, p: float) -> bool:
    """lower <= upper always; at p = 2 both bounds exact and equal to the
    extreme singular values of S, computed here independently."""
    if not all(b.lower <= b.upper for b in (report.lower_bound, report.upper_bound)):
        return False
    if p != 2.0:
        return True
    sv = np.linalg.svd(frame.vectors @ frame.functionals, compute_uv=False)
    return (report.lower_bound.exact and report.upper_bound.exact
            and abs(report.upper_bound.value - sv[0]) <= 1e-9 * sv[0]
            and abs(report.lower_bound.value - sv[-1]) <= 1e-8 * sv[-1])


class _Steps:
    """Times the calls of one pipeline and labels their spans."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.times: dict[str, list[float]] = {}
        self.total = 0.0

    def __call__(self, step: str, fn, *args, record: bool = True):
        if self.tracer is not None:
            self.tracer.step = step
        start = time.perf_counter()
        out = fn(*args)
        elapsed = time.perf_counter() - start
        self.total += elapsed
        if record:
            self.times.setdefault(step, []).append(elapsed)
        return out


@contextmanager
def _untimed(tracer: Tracer | None):
    """Pause tracing while output checks call library functions."""
    if tracer is None:
        yield
        return
    tracer.paused = True
    try:
        yield
    finally:
        tracer.paused = False


def run_pipeline(spec: LibSpec, seed: int, index: int, checks: Checks,
                 tracer: Tracer | None = None, gaps: list | None = None):
    """One library pipeline; returns its step timer, or None if a call raised."""
    d, n, p = spec.d, spec.n, spec.p
    steps = _Steps(tracer)
    step = "random_frame"
    try:
        frame = steps("random_frame", pasf.random_frame, d, n, p, None, mix(seed, index, 1))
        with _untimed(tracer):
            checks.record("random_frame", frame.dim == d and frame.count == n)

        step = "validate"
        report = steps("validate", pasf.validate, frame)
        with _untimed(tracer):
            checks.record("validate", report.rcond >= 1e-6 and _brackets_ok(frame, report, p))
            if gaps is not None:
                gaps.extend(_bracket_gaps(report))

        step = "canonical_dual"
        dual = steps("canonical_dual", pasf.canonical_dual, frame)
        with _untimed(tracer):
            checks.record("canonical_dual", _dual_ok(frame, dual))

        for k in range(3):
            step = "random_dual"
            cand = steps("random_dual", pasf.random_dual, frame, mix(seed, index, 2, k))
            with _untimed(tracer):
                checks.record("random_dual", _dual_ok(frame, cand.frame))

        step = "parsevalize"
        parseval = steps("parsevalize", pasf.parsevalize, frame)[0]
        step = "are_similar"
        similar = steps("are_similar", pasf.are_similar, frame, parseval)
        checks.record("are_similar", similar is True)

        if n > d:
            step = "are_similar_other"
            other = steps("random_frame_other", pasf.random_frame, d, n, p, None,
                          mix(seed, index, 3), record=False)
            similar = steps("are_similar_other", pasf.are_similar, frame, other)
            checks.record("are_similar_other", similar is False)

        step = "interpolate"
        f1, f2 = steps("orthogonal_pair", pasf.random_orthogonal_parseval_pair,
                       min(d, n // 2), n, p, mix(seed, index, 4), record=False)
        stitched = steps("interpolate", pasf.scalar_interpolate, f1, f2, *_SCALARS)
        with _untimed(tracer):
            checks.record("interpolate", pasf.validate(stitched).parseval)
    except Exception as exc:  # the run goes on; the failure is counted
        checks.record(f"{step} raised {type(exc).__name__}", False)
        return None
    return steps


# ---------------------------------------------------------------------------
# CLI


def make_frame_files(spec: CliSpec, seed: int, workdir: str) -> list[tuple[str, str]]:
    """Write the set-up frame pairs (A, parsevalize(A)[0]); names are relative."""
    os.makedirs(workdir, exist_ok=True)
    names = []
    for j in range(spec.pairs):
        a = pasf.random_frame(spec.d, spec.n, spec.p, seed=mix(seed, j, 5))
        b = pasf.parsevalize(a)[0]
        pair = (f"a{j}.json", f"b{j}.json")
        pasf.save_frame(a, os.path.join(workdir, pair[0]))
        pasf.save_frame(b, os.path.join(workdir, pair[1]))
        names.append(pair)
    return names


def cli_commands(pair: tuple[str, str]) -> list[tuple[str, list[str]]]:
    a, b = pair
    return [
        ("validate", ["validate", a, "--json"]),
        ("similarity", ["similarity", a, b, "--json"]),
        ("sample_duals", ["sample-duals", a, "--count", str(_CLI_DUALS), "--json"]),
    ]


@dataclass
class CliResult:
    code: int
    stdout: bytes
    seconds: float
    maxrss_kb: int


def run_cli(argv: list[str], workdir: str, env: dict, timeout: float = 170.0) -> CliResult:
    """Run one command to completion, timing it from spawn to exit.

    The child's resource usage comes from wait4, so its peak RSS is its
    own. Output goes to a file in ``workdir``, which keeps a large stdout
    from blocking the child.
    """
    with tempfile.TemporaryFile(dir=workdir) as out, open(os.devnull, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=workdir, env=env, stdout=out, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read()
    return CliResult(proc.returncode, stdout, seconds, usage.ru_maxrss)


def _one_json(stdout: bytes):
    """The single JSON object on stdout, or None if there is not exactly one."""
    text = stdout.decode("utf-8", errors="replace")
    try:
        doc, end = json.JSONDecoder().raw_decode(text.lstrip())
    except json.JSONDecodeError:
        return None
    if text.lstrip()[end:].strip() or not isinstance(doc, dict):
        return None
    return doc


def check_cli(name: str, result: CliResult, gaps: list | None = None) -> bool:
    """Exit code 0, exactly one JSON object, and the expected verdict."""
    doc = _one_json(result.stdout)
    if result.code != 0 or doc is None:
        return False
    numbers = {item["label"]: item["value"] for item in doc.get("numbers", [])}
    if name == "validate":
        pairs = [(numbers.get(f"{b} (lower)"), numbers.get(f"{b} (upper)"))
                 for b in ("lower bound a", "upper bound b")]
        if any(lo is None or hi is None or not lo <= hi for lo, hi in pairs):
            return False
        if gaps is not None:
            gaps.extend((hi - lo) / hi for lo, hi in pairs)
        return doc.get("verdict", "").startswith("valid p-ASF")
    if name == "similarity":
        return (doc.get("verdict") == "similar" and numbers.get("projection criterion") is True
                and numbers.get("witnesses invertible") is True)
    flags = [numbers.get(f"sample {i} is_dual") for i in range(_CLI_DUALS)]
    return doc.get("verdict") == f"{_CLI_DUALS} duals sampled" and all(f is True for f in flags)


def cli_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("PASF_TOL", None)
    return env


def plain_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "pasf.cli", *args]

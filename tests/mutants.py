"""A mutation gate for the criterion, certificate, bracket, product, retry and layout rules.

Each entry of ``MUTANTS`` is one exact text replacement in one file of
``src/pasf``; its old text must occur there exactly once. For each, the
tier-1 suite runs with ``-x`` on a temporary copy of the repository with
that one replacement made. A mutant marked "killed" must fail tier-1; one
marked "open" is a known gap whose reason its ``why`` gives, and it must
survive, so that a mark gone stale is noticed. The gate exits 1 on any
other outcome, and first checks that tier-1 passes on the unmutated copy.

Standard library only, and not collected by pytest. Run from anywhere:

    python tests/mutants.py          # every mutant, serially (a few minutes)
    python tests/mutants.py 3 17     # the mutants of those indices
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    file: str  # relative to src/pasf
    old: str
    new: str
    why: str
    status: str  # "killed" or "open"


MUTANTS = [
    # the criterion rule
    Mutant("spaces.py", "rounding = 32.0 * n * n * _EPS * summands()", "rounding = 0.0",
           "_agrees without its rounding term", "killed"),
    Mutant("spaces.py", "(diff - rounding) / max(1.0, scale) <= tol", "(diff - rounding) <= tol",
           "_agrees without its scale", "killed"),
    Mutant("spaces.py", "(diff - rounding) / max(1.0, scale) <= tol", "(diff - rounding) / max(1.0, scale) <= 2.0 * tol",
           "_agrees at 2 tol", "killed"),
    Mutant("spaces.py", "rounding = 32.0 * n * n", "rounding = 320.0 * n * n",
           "_agrees with 10x rounding", "killed"),
    Mutant("spaces.py", "lambda: _absmax(np.abs(a) @ np.abs(b)), a.shape[1])", "lambda: 0.0, a.shape[1])",
           "_product_agrees with its rounding summands at 0", "killed"),
    Mutant("frames.py", "_agrees(_absmax(s - eye), tol, _absmax(s))", "_agrees(_absmax(s - eye), tol, 1.0)",
           "_parseval scaled by 1, not by max|S|", "killed"),
    Mutant("orthogonality.py", "np.diag(np.full(space.dim, s))", "s * np.eye(space.dim)",
           "scalar_interpolate forming s I as s * I, which forms inf * 0 for an inf scalar", "killed"),
    Mutant("orthogonality.py", "    tol *= min(1.0, max(", "    tol *= max(1.0, max(",
           "is_orthogonal held to tol max(1, max|S|), absolute tol for small S", "killed"),
    Mutant("similarity.py", "agreement = max(tol, frame1.count * diff)", "agreement = tol",
           "similarity's transport limit at tol, not max(tol, n diff)", "killed"),
    Mutant("similarity.py", "agreement = max(tol, frame1.count * diff)", "agreement = max(tol, 10 * frame1.count * diff)",
           "similarity's transport limit at max(tol, 10 n diff)", "killed"),
    Mutant("duality.py", "_CROSS_CHECK_TOL = 1e-10", "_CROSS_CHECK_TOL = 1e-6",
           "the gate cross-check at 1e-6", "killed"),
    # the product rule
    Mutant("spaces.py", "if not _absmax(product) < INF and all(0.0 < _absmax(m) < INF for m in (a, b)):", "if False:",
           "_product without its re-form of non-finite entries", "killed"),
    Mutant("spaces.py", "    product = _product(a, b)\n",
           '    with np.errstate(over="ignore", invalid="ignore"):\n        product = a @ b\n',
           "_residual forming a @ b directly", "killed"),
    Mutant("frames.py", "    return LinearMap(frame.x_space, frame.x_space, _product(frame.vectors, frame.functionals))",
           '    with np.errstate(over="ignore", invalid="ignore"):\n'
           "        return LinearMap(frame.x_space, frame.x_space, frame.vectors @ frame.functionals)",
           "frame_operator as raw @ under errstate", "killed"),
    Mutant("spaces.py", "entries=_product(a.entries, b.entries))", "entries=a.entries @ b.entries)",
           "compose formed by raw @", "killed"),
    # rank, inversion and certificates
    Mutant("spaces.py", "found = min(int(np.linalg.matrix_rank(a)), n - 1)", "found = n - 1",
           "the double-precision rank fallback at n - 1", "killed"),
    Mutant("spaces.py", "(sa, ea), (sinv, einv) = _scaled(a), _scaled(inv)", "(sa, ea), (sinv, einv) = (a, 0), (inv, 0)",
           "rcond without _scaled", "killed"),
    Mutant("spaces.py", "_CERT_SLACK = 8.0", "_CERT_SLACK = 0.0",
           "_CERT_SLACK at 0; no test holds a map at the certificate's rounding allowance, which "
           "waits on an exact referee for rank (ROADMAP item 5)", "open"),
    # generation
    Mutant("generators.py", "        except GateSingular:\n            continue", "        except GateSingular:\n            raise",
           "random_dual giving up on its first singular gate", "killed"),
    # norms and brackets
    Mutant("spaces.py", "moving = m * root > cx * my * sy * (1.0 + 1e-12)", "moving = m * root > cx * my * sy * (1.0 + 1e-6)",
           "the ascent stopping at 1e-6, not 1e-12", "killed"),
    Mutant("spaces.py", "    upper = max(upper, lower)", "    upper = upper",
           "operator_norm without its crossing guard", "killed"),
    Mutant("spaces.py", "scaled = (m > 0.0) & np.isfinite(m)", "scaled = m > 0.0",
           "_lp_rows without its isfinite guard", "killed"),
    # the layout rule
    Mutant("spaces.py", 'np.array(arr, dtype=float, ndmin=ndmin, order="C")', "np.array(arr, dtype=float, ndmin=ndmin)",
           "_freeze keeping the layout it is passed", "killed"),
]


def _copy(dest: Path) -> None:
    """The files tier-1 reads: the package, the tests and pytest's settings."""
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _tier1_passes(root: Path) -> bool:
    """Whether tier-1 passes on the copy at ``root``, stopping at its first failure."""
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    # no bytecode cache: a mutant of the same length as its original, written in the
    # same second, could otherwise be run from the original's cached bytecode
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
            "--continue-on-collection-errors"]
    return subprocess.run(argv, cwd=root, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode == 0


def main(argv: list[str]) -> int:
    chosen = [int(a) for a in argv] if argv else range(len(MUTANTS))
    faults = 0
    with tempfile.TemporaryDirectory(prefix="pasf-mutants-") as tmp:
        root = Path(tmp)
        _copy(root)
        if not _tier1_passes(root):
            print("tier-1 fails on the unmutated copy; no mutant can be judged")
            return 1
        for index in chosen:
            mutant = MUTANTS[index]
            path = root / "src" / "pasf" / mutant.file
            original = path.read_text()
            found = original.count(mutant.old)
            if found != 1:
                print(f"[{index}] {mutant.why}: its old text occurs {found} times in {mutant.file}")
                faults += 1
                continue
            path.write_text(original.replace(mutant.old, mutant.new))
            start = time.perf_counter()
            try:
                killed = not _tier1_passes(root)
            finally:
                path.write_text(original)
            outcome = "killed" if killed else "survived"
            expected = "killed" if mutant.status == "killed" else "survived"
            mark = "ok" if outcome == expected else "FAULT"
            faults += outcome != expected
            print(f"[{index}] {mark}: {outcome}, marked {mutant.status}, "
                  f"{time.perf_counter() - start:.0f} s: {mutant.why}", flush=True)
    print(f"{faults} fault(s) in {len(chosen)} mutant(s)")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

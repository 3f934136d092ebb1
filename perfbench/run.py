"""pasf benchmark: library pipelines and CLI sequences, end to end or traced.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload lib-d64-p2 --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing. ``--trace 1``
alternates untraced and traced pipelines and reports the per-layer
metrics of the traced ones (see ``tracing.py``), plus the tracing
overhead. Every output is checked outside the timed region.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before
it print every metric by name with its unit, including the metrics that
apply to only some workloads, and the environment stamp. The full
record, and in traced runs every span, is written under ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Set-up is timed in this many fresh processes, spread evenly through
#: the measured run so that one swing of the machine's speed cannot catch
#: them all; the median is reported (see Window).
SETUP_PROBES = 9
#: Traced pipelines (or CLI sequences) whose spans give the count metrics.
#: A fixed prefix, so counts repeat exactly between traced runs of a seed.
COUNTED = {"lib": 10, "cli": 2}
#: The percentile that pipeline_tail_ms reports.
TAIL_PERCENTILE = 95
#: Fresh-process imports of pasf.cli timed by a traced library run.
IMPORT_PROBES = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "pipeline_p50_ms": "ms",
    "pipeline_tail_ms": "ms",
    "random_frame_p50_ms": "ms",
    "validate_p50_ms": "ms",
    "canonical_dual_p50_ms": "ms",
    "random_dual_p50_ms": "ms",
    "are_similar_p50_ms": "ms",
    "interpolate_p50_ms": "ms",
    "cli_validate_p50_ms": "ms",
    "cli_similarity_p50_ms": "ms",
    "cli_sample_duals_p50_ms": "ms",
    "failed_ratio": "ratio",
    "bound_gap_p50": "ratio",
    "peak_rss_mb": "MB",
}


def _cap_blas_threads() -> int:
    """Leave BLAS at no more threads than this process may run on."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def _git_commit() -> str:
    """HEAD of the checkout's own .git, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "pasf").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(seed: int, nproc: int) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy has no dict mode; the stamp says so
        pass
    return {
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": nproc,
        "machine": platform.machine(),
        "seed": seed,
    }


def median(values) -> float | None:
    """The median, or None (reported as absent) when there is no sample."""
    return float(statistics.median(values)) if len(values) else None


def _ms(seconds) -> float | None:
    value = median(seconds)
    return None if value is None else 1e3 * value


def tail(values: list) -> tuple[float | None, int, int]:
    """The 95th percentile (nearest rank), with the sample count and the
    number of samples beyond it.

    A fixed percentile, not the highest one with ten samples beyond it:
    that one moves with the sample count, to p99 on a thousand fast
    pipelines, where it reads scheduler noise rather than the program.
    """
    ordered = sorted(values)
    if not ordered:
        return None, 0, 0
    index = math.ceil(TAIL_PERCENTILE / 100 * len(ordered)) - 1
    return ordered[index], len(ordered), len(ordered) - index - 1


def _setup_probe(workload: str, seed: int, tiny: bool) -> float:
    """Wall time of a fresh process that imports pasf and makes the inputs."""
    import workloads

    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--setup-probe"] + (["--tiny"] if tiny else [])
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        result = workloads.run_cli(argv, workdir, dict(os.environ))
    if result.code != 0:
        raise SystemExit(f"set-up probe failed with exit code {result.code}")
    return result.seconds


class Window:
    """The measured run: ``seconds`` of pipelines (or CLI sequences), with
    set-up probes in fresh processes due at evenly spaced moments of it.
    A probe runs between pipelines and its own time is left out of the
    window, so probes do not thin out the pipelines measured."""

    def __init__(self, seconds: float, traced: bool, counted: int, probe_args: tuple,
                 probe_count: int):
        self.seconds, self.traced, self.counted = seconds, traced, counted
        self.probe_args = probe_args
        self.due = [seconds * (k + 0.5) / probe_count for k in range(probe_count)]
        self.samples: list[float] = []
        self.start = self.probing = 0.0

    def begin(self) -> None:
        self.start = time.perf_counter()

    def more(self, index: int) -> bool:
        """Run a probe if one is due, then say whether pipeline ``index`` runs.

        A traced run goes on past ``seconds`` until it has made its first
        ``counted`` traced pipelines (the odd indices), and no further, so
        a run whose traces go missing still ends."""
        elapsed = time.perf_counter() - self.start - self.probing
        if self.due and elapsed >= self.due[0]:
            self._probe()
        return elapsed < self.seconds or (self.traced and index < 2 * self.counted)

    def finish(self) -> None:
        """Run the probes still due when the window closed."""
        while self.due:
            self._probe()

    def _probe(self) -> None:
        self.due.pop(0)
        start = time.perf_counter()
        self.samples.append(_setup_probe(*self.probe_args))
        self.probing += time.perf_counter() - start


def _do_setup(workload: str, seed: int, tiny: bool, workdir: str):
    """Import the package and make the workload's inputs."""
    import workloads

    spec = (workloads.TINY if tiny else workloads.WORKLOADS)[workload]
    if isinstance(spec, workloads.CliSpec):
        return spec, workloads.make_frame_files(spec, seed, workdir)
    return spec, None


# ---------------------------------------------------------------------------
# library workloads


def _lib_run(spec, seed: int, window: Window) -> dict:
    import pasf.cli  # noqa: F401  (so the CLI's wrapped names resolve)
    import tracing
    import workloads

    checks = workloads.Checks()
    workloads.run_pipeline(spec, seed, -1, workloads.Checks())  # warm-up, unchecked
    tracer = tracing.Tracer()
    # Untraced runs keep only flat arrays of floats, a few bytes per
    # pipeline, so the peak RSS read at the end is the library's own.
    gaps = array("d")
    totals = {False: array("d"), True: array("d")}  # traced? -> pipeline seconds
    calls: dict[str, array] = {}                    # step -> untraced call seconds
    requests: list[int] = []                        # indices of traced pipelines
    window.begin()
    index = 0
    while window.more(index):
        trace_this = window.traced and index % 2 == 1
        if trace_this:
            tracer.request = index
            requests.append(index)
            tracer.install()
        try:
            steps = workloads.run_pipeline(spec, seed, index, checks,
                                           tracer if trace_this else None,
                                           None if trace_this else gaps)
        finally:
            if trace_this:
                tracer.uninstall()
        if steps is not None:
            totals[trace_this].append(steps.total)
            if not trace_this:
                for step, times in steps.times.items():
                    calls.setdefault(step, array("d")).extend(times)
        index += 1
    window.finish()
    return {"checks": checks, "gaps": gaps, "totals": totals, "calls": calls,
            "tracer": tracer, "requests": requests,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def _pipeline_metrics(totals) -> tuple[dict, dict]:
    """Throughput, median and tail of pipeline (or sequence) times in seconds."""
    value, n, beyond = tail([1e3 * t for t in totals])
    metrics = {
        "throughput_per_s": len(totals) / sum(totals) if n else None,
        "pipeline_p50_ms": _ms(totals),
        "pipeline_tail_ms": value,
    }
    info = {"percentile": TAIL_PERCENTILE, "samples": n, "beyond": beyond,
            "pipeline_ms": [round(1e3 * t, 3) for t in totals]}
    return metrics, info


def _lib_metrics(run: dict) -> tuple[dict, dict]:
    metrics, info = _pipeline_metrics(run["totals"][False])
    for step in ("random_frame", "validate", "canonical_dual", "random_dual",
                 "are_similar", "interpolate"):
        metrics[f"{step}_p50_ms"] = _ms(run["calls"].get(step, ()))
    metrics["bound_gap_p50"] = median(run["gaps"])
    return metrics, info


# ---------------------------------------------------------------------------
# CLI workload


def _cli_run(pairs, workdir: str, window: Window) -> dict:
    import workloads

    env = workloads.cli_env(str(SRC))
    cli_driver = str(HERE / "cli_driver.py")
    checks = workloads.Checks()
    workloads.run_cli(workloads.plain_argv(workloads.cli_commands(pairs[0])[0][1]),
                      workdir, env)  # warm-up: page cache and lazy imports
    gaps: list[float] = []
    totals = {False: [], True: []}  # traced? -> seconds of sequences that passed
    calls: dict[str, list] = {}     # command -> seconds, from untraced sequences that passed
    traces: dict[int, list] = {}    # sequence index -> cli_driver.py trace documents
    stdout_bytes: dict[int, int] = {}
    maxrss_kb = 0
    window.begin()
    index = 0
    while window.more(index):
        trace_this = window.traced and index % 2 == 1
        times, ok_all = {}, True
        # a traced run takes each pair twice, untraced then traced, so the
        # overhead ratio compares the same inputs
        pair = pairs[(index // 2 if window.traced else index) % len(pairs)]
        for name, args in workloads.cli_commands(pair):
            if trace_this:
                trace_file = os.path.join(workdir, "trace.json")
                argv = [sys.executable, cli_driver, trace_file, *args]
            else:
                argv = workloads.plain_argv(args)
            result = workloads.run_cli(argv, workdir, env)
            maxrss_kb = max(maxrss_kb, result.maxrss_kb)
            ok = checks.record(f"cli {name}", workloads.check_cli(
                name, result, None if trace_this else gaps))
            ok_all = ok_all and ok
            times[name] = result.seconds
            if trace_this and os.path.exists(trace_file):  # a killed child writes none
                with open(trace_file, encoding="utf-8") as fh:
                    traces.setdefault(index, []).append(json.load(fh))
                os.remove(trace_file)
                stdout_bytes[index] = stdout_bytes.get(index, 0) + len(result.stdout)
        if ok_all:
            totals[trace_this].append(sum(times.values()))
            if not trace_this:
                for name, seconds_taken in times.items():
                    calls.setdefault(name, []).append(seconds_taken)
        index += 1
    window.finish()
    return {"checks": checks, "gaps": gaps, "totals": totals, "calls": calls,
            "traces": traces, "stdout_bytes": stdout_bytes, "maxrss_kb": maxrss_kb}


def _cli_metrics(run: dict) -> tuple[dict, dict]:
    metrics, info = _pipeline_metrics(run["totals"][False])
    for name in ("validate", "similarity", "sample_duals"):
        metrics[f"cli_{name}_p50_ms"] = _ms(run["calls"].get(name, ()))
    metrics["bound_gap_p50"] = median(run["gaps"])
    return metrics, info


# ---------------------------------------------------------------------------
# per-layer metrics


def _layer_metrics(per_request: dict[int, list], counted_ids: list[int],
                   absent: list[str]) -> dict:
    """Counts: mean over the fixed counted prefix. Times: median over all.
    With no traced pipeline to read, every metric is absent."""
    import tracing

    totals = {rid: tracing.layer_totals(spans) for rid, spans in per_request.items()}
    out = dict.fromkeys(tracing.LAYER_METRICS)
    if not counted_ids:
        return out
    for metric, unit in tracing.LAYER_METRICS.items():
        if unit == "ms":
            out[metric] = median([t[metric] for t in totals.values()])
        else:
            out[metric] = sum(totals[rid][metric] for rid in counted_ids) / len(counted_ids)
    for metric in tracing.absent_metrics(absent):
        out[metric] = None
    return out


def _cli_import_ms() -> float:
    """Median import time of pasf.cli in fresh cli_driver.py processes given no command."""
    import workloads

    env = workloads.cli_env(str(SRC))
    samples = []
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        trace_file = os.path.join(workdir, "trace.json")
        for _ in range(IMPORT_PROBES):
            workloads.run_cli([sys.executable, str(HERE / "cli_driver.py"), trace_file],
                              workdir, env)
            with open(trace_file, encoding="utf-8") as fh:
                samples.append(json.load(fh)["import_ms"])
    return median([ms for ms in samples if ms is not None])


def _traced_lib(run: dict, counted: int) -> tuple[dict, dict, list]:
    import tracing

    tracer = run["tracer"]
    per_request: dict[int, list] = {rid: [] for rid in run["requests"]}
    for span in tracer.spans:
        per_request[span.request].append(span)
    layer = _layer_metrics(per_request, run["requests"][:counted], tracer.absent)
    layer["cli.import_ms"] = _cli_import_ms()
    layer["cli.stdout_bytes"] = 0.0
    layer["trace.overhead_ratio"] = _overhead(run["totals"])
    shares = _step_shares(tracing.step_self_ms(tracer.spans))
    return layer, shares, [s.to_json() for s in tracer.spans]


def _traced_cli(run: dict, counted: int) -> tuple[dict, dict, list]:
    import tracing

    per_request: dict[int, list] = {}
    spans_json = []
    imports, absent = [], []
    for rid, docs in run["traces"].items():
        for doc in docs:
            if doc["import_ms"] is None:  # pasf.cli failed to import; nothing was traced
                continue
            imports.append(doc["import_ms"])
            absent = doc["absent"]
            per_request.setdefault(rid, [])
            for item in doc["spans"]:
                item["request"] = rid
                spans_json.append(item)
                per_request.setdefault(rid, []).append(tracing.Span(**item))
    counted_ids = sorted(per_request)[:counted]
    layer = _layer_metrics(per_request, counted_ids, absent)
    layer["cli.import_ms"] = median(imports)
    layer["cli.stdout_bytes"] = (sum(run["stdout_bytes"][rid] for rid in counted_ids)
                                 / len(counted_ids)) if counted_ids else None
    layer["trace.overhead_ratio"] = _overhead(run["totals"])
    all_spans = [s for spans in per_request.values() for s in spans]
    shares = _step_shares(tracing.step_self_ms(all_spans))
    return layer, shares, spans_json


def _overhead(totals: dict) -> float | None:
    """Traced median pipeline time over the untraced one, minus 1."""
    traced, plain = median(totals[True]), median(totals[False])
    return None if traced is None or plain is None else traced / plain - 1.0


def _step_shares(per_step: dict) -> dict:
    """Share of each layer in the traced self time under each step."""
    shares = {}
    for step, layers in per_step.items():
        total = sum(layers.values())
        shares[step] = {layer: round(ms / total, 4) for layer, ms in
                        sorted(layers.items(), key=lambda kv: -kv[1])} if total else {}
    return shares


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs and one set-up probe, for the smoke test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "pasf" / "__init__.py").is_file():
        print(f"pasf sources not found under {SRC}", file=sys.stderr)
        return 2
    nproc = _cap_blas_threads()
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")

    if args.setup_probe:
        _do_setup(args.workload, args.seed, args.tiny, os.getcwd())
        return 0

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        return _measure(args, nproc, workdir)


def _measure(args, nproc: int, workdir: str) -> int:
    import workloads

    spec, pairs = _do_setup(args.workload, args.seed, args.tiny, workdir)
    kind = "cli" if isinstance(spec, workloads.CliSpec) else "lib"
    counted = 1 if args.tiny else COUNTED[kind]
    traced = bool(args.trace)
    window = Window(args.seconds, traced, counted, (args.workload, args.seed, args.tiny),
                    0 if traced else 1 if args.tiny else SETUP_PROBES)
    if kind == "lib":
        run = _lib_run(spec, args.seed, window)
        e2e, tail_info = _lib_metrics(run)
    else:
        run = _cli_run(pairs, workdir, window)
        e2e, tail_info = _cli_metrics(run)
    peak_kb = run["maxrss_kb"]
    checks = run["checks"]
    e2e["failed_ratio"] = checks.failed / max(1, checks.attempted)
    e2e["peak_rss_mb"] = peak_kb / 1024.0
    if window.samples:
        e2e["setup_s"] = median(window.samples)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "environment": environment(args.seed, nproc),
        "client": "closed loop, one single-threaded client",
        "end_to_end": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()},
        "tail": tail_info,
        "setup_samples_s": window.samples,
        "checks": {"correct": checks.correct(), "attempted": checks.attempted,
                   "failed": checks.failed, "failures": checks.failures},
    }
    spans = None
    if traced:
        import tracing

        layer, shares, spans = (_traced_lib if kind == "lib" else _traced_cli)(run, counted)
        units = dict(tracing.LAYER_METRICS, **{
            "cli.import_ms": "ms", "cli.stdout_bytes": "bytes", "trace.overhead_ratio": "ratio"})
        record["per_layer"] = {k: {"value": v, "unit": units[k]} for k, v in layer.items()}
        record["self_time_shares_by_step"] = shares

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{name}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if spans is not None:
        with open(OUT / f"{name}-spans.jsonl", "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")

    _print_report(record)
    chosen = _benchmark_metrics(args.trace)
    metrics = {}
    for section in ("end_to_end", "per_layer"):
        for key, entry in record.get(section, {}).items():
            if key in chosen:
                metrics[key] = dict(entry, status="absent") if entry["value"] is None else entry
    print(json.dumps({
        "correct": checks.correct(),
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0


def _benchmark_metrics(trace: int) -> set[str]:
    """The metric names BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def _print_report(record: dict) -> None:
    print(f"workload {record['workload']} seed {record['seed']} "
          f"({record['client']}, {record['seconds']:g} s measured)")
    print("environment " + json.dumps(record["environment"]))
    for section in ("end_to_end", "per_layer"):
        for key, entry in record.get(section, {}).items():
            value = "absent" if entry["value"] is None else f"{entry['value']:.6g}"
            print(f"  {key} = {value} {entry['unit']}")
    tail_info = record["tail"]
    print(f"  pipeline_tail_ms is p{tail_info['percentile']} of {tail_info['samples']} "
          f"untraced samples, {tail_info['beyond']} beyond it")
    checks = record["checks"]
    print(f"  checks: {checks['attempted']} attempted, {checks['failed']} failed, "
          f"correct {checks['correct']} "
          + json.dumps(checks["failures"]))
    for step, shares in record.get("self_time_shares_by_step", {}).items():
        top = ", ".join(f"{layer} {share:.0%}" for layer, share in list(shares.items())[:3])
        print(f"  self time under {step}: {top}")


if __name__ == "__main__":
    sys.exit(main())

"""Outside-in tracing of the pasf modules.

The tracer wraps library functions from outside the package: one table
names every wrapped function, and installing the tracer replaces that
function object wherever a ``pasf`` module holds it, because modules
import by name (``frames._eliminate`` and ``duality._eliminate`` are the
same object as ``spaces._eliminate``). Nothing inside ``src/`` is edited.

Each call becomes a span on an in-memory stack. A span's self time is
its duration minus the durations of the spans it directly caused, so
self times add up to the traced wall time without double counting.
Spans stay in memory and are written out once, at the end of a run.

The table lists the layers by package module. A wrapped name that a
later version of the package no longer has is reported as absent, never
as zero calls.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from dataclasses import asdict, dataclass, field

#: (module, attribute path, layer). Several functions may share a layer;
#: a call nested inside a span of its own layer is merged into the outer
#: one (``invert`` calls ``invert_with_rcond``, which is one inversion).
TABLE = (
    ("pasf.spaces", "_eliminate", "spaces.eliminate"),
    ("pasf.spaces", "invert", "spaces.invert"),
    ("pasf.spaces", "invert_with_rcond", "spaces.invert"),
    ("pasf.spaces", "operator_norm", "spaces.operator_norm"),
    ("pasf.frames", "_invert_frame_op", "frames.s_inversion"),
    ("pasf.frames", "validate", "frames.validate"),
    ("pasf.generators", "PortableRng.matrix", "generators.rng_fill"),
    ("pasf.generators", "random_frame", "generators.random_frame"),
    ("pasf.generators", "random_dual", "generators.random_dual"),
    ("pasf.duality", "canonical_dual", "duality.canonical_dual"),
    ("pasf.duality", "dual_from_parameters", "duality.dual_from_parameters"),
    ("pasf.similarity", "are_similar", "similarity.are_similar"),
    ("pasf.similarity", "witness_from_frames", "similarity.witness_from_frames"),
    ("pasf.orthogonality", "interpolate", "orthogonality.interpolate"),
    ("pasf.fileio", "load_frame", "fileio.load_frame"),
    ("pasf.cli", "main", "cli.main"),
    ("pasf.cli", "_emit", "cli.emit"),
)

#: Per-layer metrics derived from the spans, with their units. Counts are
#: per pipeline (or CLI sequence); ``self_ms`` excludes child spans and
#: ``ms`` includes them.
LAYER_METRICS = {
    "spaces.eliminate.calls": "count",
    "spaces.eliminate.self_ms": "ms",
    "spaces.invert.calls": "count",
    "spaces.invert.self_ms": "ms",
    "frames.s_inversions": "count",
    "spaces.operator_norm.exact_calls": "count",
    "spaces.operator_norm.bracket_calls": "count",
    "spaces.operator_norm.self_ms": "ms",
    "generators.rng_fill.calls": "count",
    "generators.rng_fill.entries": "count",
    "generators.rng_fill.self_ms": "ms",
    "generators.random_frame.draws": "count",
    "generators.random_dual.draws": "count",
    "frames.validate.calls": "count",
    "frames.validate.self_ms": "ms",
    "duality.dual_from_parameters.self_ms": "ms",
    "duality.canonical_dual.self_ms": "ms",
    "similarity.are_similar.self_ms": "ms",
    "similarity.witness_from_frames.calls": "count",
    "orthogonality.interpolate.self_ms": "ms",
    "fileio.load_frame.calls": "count",
    "fileio.load_frame.bytes": "bytes",
    "fileio.load_frame.ms": "ms",
    "cli.emit.ms": "ms",
    "cli.main.self_ms": "ms",
}

# Metrics not named after the layer they read, with every layer they read.
# A metric is absent when every function of one of its layers is.
_METRIC_LAYERS = {
    "frames.s_inversions": ("frames.s_inversion",),
    "generators.random_frame.draws": ("generators.random_frame", "frames.validate"),
    "generators.random_dual.draws": ("generators.random_dual", "duality.dual_from_parameters"),
}

#: Each random draw makes exactly one call to the function that accepts
#: or rejects it: (parent layer, child layer) -> draw metric.
_DRAWS = {
    ("generators.random_frame", "frames.validate"): "generators.random_frame.draws",
    ("generators.random_dual", "duality.dual_from_parameters"): "generators.random_dual.draws",
}


@dataclass
class Span:
    request: int
    step: str
    layer: str
    parent: str | None
    start: float
    end: float
    self_s: float
    info: float | None = None

    def to_json(self) -> dict:
        return asdict(self)


def _info(layer: str, args, result) -> float | None:
    """The number a span carries besides its times, read from outside."""
    if layer == "spaces.operator_norm":
        return 1.0 if result.exact else 0.0
    if layer == "generators.rng_fill":
        return float(result.size)
    if layer == "fileio.load_frame":
        return float(os.path.getsize(args[0]))
    return None


def _resolve(module, path: str):
    owner = module
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, name
    return owner, name


@dataclass
class Tracer:
    """Span stack and span store for one process.

    ``request`` and ``step`` label the spans that follow: the pipeline
    (or CLI sequence) they belong to and the pipeline step that caused
    them. ``paused`` lets untimed output checks call wrapped functions
    without recording spans.
    """

    spans: list[Span] = field(default_factory=list)
    absent: list[str] = field(default_factory=list)
    request: int = 0
    step: str = ""
    paused: bool = False
    _stack: list = field(default_factory=list)
    _saved: list = field(default_factory=list)

    def install(self) -> None:
        """Wrap every function in TABLE at every pasf module that holds it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "pasf" or name.startswith("pasf."))]
        self.absent = []
        for module_name, path, layer in TABLE:
            owner, name = _resolve(sys.modules.get(module_name), path)
            original = owner.__dict__.get(name) if owner is not None else None
            if original is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            wrapper = self._wrap(layer, original)
            if isinstance(owner, type):  # a method: the class is its only holder
                self._saved.append((owner, name, original))
                setattr(owner, name, wrapper)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, layer: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            return tracer._call(layer, fn, args, kwargs)

        return wrapper

    def _call(self, layer, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1][0] if stack else None
        frame = [layer, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][1] += duration
            info = _info(layer, args, result) if result is not None else None
            self.spans.append(Span(self.request, self.step, layer, parent,
                                   start, end, duration - frame[1], info))


def _outer(span: Span) -> bool:
    return span.parent != span.layer


def layer_totals(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals over ``spans`` (one pipeline or sequence).

    Every metric of LAYER_METRICS is present; a layer without spans
    reads 0, and ``absent`` is applied later by the caller.
    """
    out = dict.fromkeys(LAYER_METRICS, 0.0)
    for s in spans:
        base = s.layer
        if f"{base}.self_ms" in out:
            out[f"{base}.self_ms"] += 1e3 * s.self_s
        if _outer(s):
            if f"{base}.calls" in out:
                out[f"{base}.calls"] += 1
            if f"{base}.ms" in out:
                out[f"{base}.ms"] += 1e3 * (s.end - s.start)
        if base == "frames.s_inversion":
            out["frames.s_inversions"] += 1
        elif base == "spaces.operator_norm" and s.info is not None:
            out["spaces.operator_norm.exact_calls" if s.info else
                "spaces.operator_norm.bracket_calls"] += 1
        elif base == "generators.rng_fill":
            out["generators.rng_fill.entries"] += s.info or 0
        elif base == "fileio.load_frame" and _outer(s):
            out["fileio.load_frame.bytes"] += s.info or 0
        draw = _DRAWS.get((s.parent, base))
        if draw is not None:
            out[draw] += 1
    return out


def absent_metrics(absent_names: list[str]) -> set[str]:
    """Metrics that read a layer whose every wrapped function is absent."""
    present_layers = {layer for module, path, layer in TABLE
                      if f"{module}.{path}" not in absent_names}
    gone = set()
    for metric in LAYER_METRICS:
        layers = _METRIC_LAYERS.get(metric, (metric.rsplit(".", 1)[0],))
        if not present_layers.issuperset(layers):
            gone.add(metric)
    return gone


def step_self_ms(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Self time per layer under each pipeline step, in milliseconds."""
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        per_step = out.setdefault(s.step, {})
        per_step[s.layer] = per_step.get(s.layer, 0.0) + 1e3 * s.self_s
    return out

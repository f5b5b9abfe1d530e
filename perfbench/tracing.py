"""Spans and counters recorded from outside the simplexgrad package.

``Tracer.install`` replaces every public function of each layer at the
module attributes its callers look it up by (``experiments.simplex_gradient``,
``gsg.sample_radius``, ``limits.ball_nodes``, ...), plus a few methods on
their classes (``ScalarField.__call__``, the two ``to_csv`` writers), with
wrappers that record one span per call. ``uninstall`` puts the originals
back. Nothing under ``src/`` changes.

Spans live in memory as (name, start, end, parent, pass id, counts) and are
written out by the caller when the benchmark ends. Times come from a clock
that stops while the tracer computes counters from a call's result, so that
bookkeeping is charged to no span and to no traced pass.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("linalg", "regions", "gsg", "closed_forms", "quadrature", "limits", "bounds", "fields", "experiments", "cli")

SAMPLE_BUILDERS = ("regions.rect_grid_sample", "regions.rect_arbitrary_sample", "regions.ball_grid_sample")
NODE_BUILDERS = ("quadrature.ball_nodes", "quadrature.box_nodes")

# per-layer metric -> span names (or a whole layer, written "layer.*") whose self time it sums
SELF_TIME = {
    "regions.sample_s": SAMPLE_BUILDERS,
    "regions.radius_s": ("regions.sample_radius",),
    "regions.to_csv_s": ("regions.SampleMatrix.to_csv",),
    "fields.eval_s": ("fields.eval",),
    "gsg.increments_s": ("gsg.function_increments",),
    "gsg.solve_s": ("gsg.simplex_gradient",),
    "bounds.classical_s": ("bounds.classical_bound",),
    "bounds.centered_s": ("bounds.centered_bound",),
    "closed_forms.s": ("closed_forms.*",),
    "quadrature.nodes_s": ("quadrature.*",),
    "limits.moments_s": ("limits.*",),
    "experiments.antipodal_half_s": ("experiments.antipodal_half",),
    "experiments.to_csv_s": ("experiments.ConvergenceResult.to_csv",),
    "experiments.self_s": ("experiments.*",),
    "cli.self_s": ("cli.*",),
}
# a layer-wide self-time entry leaves out the spans another self-time metric names
_CLAIMED = frozenset(name for names in SELF_TIME.values() for name in names if not name.endswith(".*"))

# per-layer metric -> span names whose calls it counts
CALLS = {
    "regions.radius_calls": ("regions.sample_radius",),
    "gsg.calls": ("gsg.simplex_gradient",),
    "linalg.pinv_calls": ("linalg.pseudoinverse",),
    "bounds.calls": ("bounds.*",),
    "closed_forms.calls": ("closed_forms.*",),
    "limits.calls": ("limits.limit_gradient_box", "limits.limit_gradient_ball"),
}

# counters taken from call arguments and results, summed over a pass
COUNTERS = (
    "regions.columns",
    "regions.unique_columns",
    "regions.sample_bytes",
    "regions.csv_bytes",
    "fields.points",
    "quadrature.nodes",
    "quadrature.node_bytes",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a pass's root span
    pass_id: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest, so children never overlap and the part of a
    span's interval they cover is the sum of their durations.
    """
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def unique_columns(directions: np.ndarray) -> int:
    """Distinct columns, equal when they agree to 12 digits of the sample scale.

    The polar grid's pole columns differ only by ``sin(pi) ~ 1e-16`` terms, so
    bitwise comparison would call them distinct.
    """
    if directions.shape[1] == 0:
        return 0
    scale = float(np.max(np.abs(directions))) or 1.0
    q = np.round(directions / scale, 12) + 0.0  # + 0.0 folds -0.0 into 0.0
    q = q[:, np.lexsort(q[::-1])]
    return 1 + int(np.count_nonzero(np.any(q[:, 1:] != q[:, :-1], axis=0)))


def _matches(name: str, patterns, claimed=frozenset()) -> bool:
    for p in patterns:
        if p.endswith(".*"):
            if name.startswith(p[:-1]) and name not in claimed:
                return True
        elif name == p:
            return True
    return False


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer self times, call counts and counters of one pass's spans."""
    own = self_times(spans)
    out: dict[str, float] = {}
    for metric, patterns in SELF_TIME.items():
        out[metric] = sum(t for s, t in zip(spans, own) if _matches(s.name, patterns, _CLAIMED))
    for metric, patterns in CALLS.items():
        out[metric] = sum(1 for s in spans if _matches(s.name, patterns))
    for counter in COUNTERS:
        out[counter] = sum(s.counts.get(counter, 0) for s in spans)
    columns = out["regions.columns"]
    out["regions.unique_column_ratio"] = out["regions.unique_columns"] / columns if columns else 1.0
    return out


class Tracer:
    """In-memory span recorder that wraps simplexgrad's layers while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._paused = 0.0
        self._pass_id = -1
        self._patches: list[tuple[object, str, object]] = []

    def clock(self) -> float:
        return time.perf_counter() - self._paused

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), 0.0, parent, self._pass_id))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index].end = self.clock()
        self._stack.pop()

    def begin_pass(self, pass_id: int) -> None:
        self._pass_id = pass_id
        self._open("pass")

    def end_pass(self) -> Span:
        index = self._stack[0]
        self._close(index)
        if self._stack:
            raise RuntimeError("spans left open at the end of a pass")
        return self.spans[index]

    def pass_spans(self, pass_id: int) -> list[Span]:
        """Spans of one pass with parents re-indexed into the returned list."""
        picked = [i for i, s in enumerate(self.spans) if s.pass_id == pass_id]
        where = {old: new for new, old in enumerate(picked)}
        out = []
        for i in picked:
            s = self.spans[i]
            out.append(Span(s.name, s.start, s.end, where.get(s.parent, -1), s.pass_id, s.counts))
        return out

    # -- counters ------------------------------------------------------------

    def _count(self, index: int, args, result) -> None:
        started = time.perf_counter()
        span = self.spans[index]
        name = span.name
        if name in SAMPLE_BUILDERS:
            # rect_arbitrary_sample builds a grid sample inside: count the outer one only
            if span.parent < 0 or self.spans[span.parent].name not in SAMPLE_BUILDERS:
                span.counts = {
                    "regions.columns": result.n_columns,
                    "regions.unique_columns": unique_columns(result.directions),
                    "regions.sample_bytes": result.directions.nbytes + result.indices.nbytes,
                }
        elif name in NODE_BUILDERS:
            points, weights = result
            span.counts = {"quadrature.nodes": weights.size, "quadrature.node_bytes": points.nbytes + weights.nbytes}
        elif name == "fields.eval":
            points = np.asarray(args[1])
            span.counts = {"fields.points": 1 if points.ndim == 1 else points.shape[0]}
        elif name == "regions.SampleMatrix.to_csv":
            span.counts = {"regions.csv_bytes": len(result.encode("utf-8"))}
        self._paused += time.perf_counter() - started

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            tracer._count(index, args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name))

    def install(self) -> None:
        """Wrap each layer's public functions where callers look them up."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module(f"simplexgrad.{layer}") for layer in LAYERS}
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                layer = obj.__module__.rpartition(".")[2]
                if obj.__module__.startswith("simplexgrad.") and layer in modules:
                    self._patch(module, attr, f"{layer}.{obj.__name__}")
        self._patch(modules["gsg"].ScalarField, "__call__", "fields.eval")
        self._patch(modules["regions"].SampleMatrix, "to_csv", "regions.SampleMatrix.to_csv")
        self._patch(modules["experiments"].ConvergenceResult, "to_csv", "experiments.ConvergenceResult.to_csv")
        self._patch(modules["experiments"].ConvergenceResult, "dominated", "experiments.ConvergenceResult.dominated")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

"""In-memory span tracing of stabnode's public functions, installed from outside.

`installed(tracer)` replaces module functions and class methods of the
`stabnode` package with wrappers that record one span per call (name, start,
end, parent) plus optional counts, and restores the originals on exit.  No
file of the package changes.  A target that no longer exists is reported as
missing instead of failing the run, so renamed or deleted functions do not
stop a later commit from being measured.

`layer_metrics` turns the recorded spans into the per-layer metrics listed in
`LAYER_METRICS`.  A layer's self time is its span duration minus the part of
that interval covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

PACKAGE = "stabnode"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 at the root
    counts: dict | None = None


class Tracer:
    """Collects spans in call order; parents always precede their children."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), 0.0, parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def note_missing(self, what: str) -> None:
        if what not in self.missing:
            self.missing.append(what)

    def wrap(self, fn: Callable, name: str, counter: Callable | None = None):
        """Wrap `fn` so each call records a span; `counter(arg, result)`
        returns the span's counts, where `arg(pname)` reads an argument."""
        arg_reader = _arg_reader(fn) if counter is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                try:
                    span.counts = counter(
                        lambda pname: arg_reader(args, kwargs, pname), result)
                except (KeyError, IndexError, AttributeError, TypeError, OSError):
                    self.note_missing(f"{name}:counter")
            return result

        return traced


def _arg_reader(fn: Callable):
    params = inspect.signature(fn).parameters
    position = {p: i for i, p in enumerate(params)}
    defaults = {p: v.default for p, v in params.items()
                if v.default is not inspect.Parameter.empty}

    def read(args, kwargs, pname):
        if pname in kwargs:
            return kwargs[pname]
        i = position[pname]
        return args[i] if i < len(args) else defaults[pname]

    return read


# counters ------------------------------------------------------------------------

def mlp_forward_flops(layer_sizes, rows: int) -> int:
    """Computed multiply-add FLOPs of one forward pass: 2 * rows * sum(n_in * n_out)."""
    return 2 * rows * sum(a * b for a, b in zip(layer_sizes[:-1], layer_sizes[1:]))


def mlp_backward_flops(layer_sizes, rows: int) -> int:
    """Computed FLOPs of one backward pass: per layer the weight gradient
    (acts^T @ gz) and the input cotangent (gz @ W^T), 2 * rows * n_in * n_out each."""
    return 2 * mlp_forward_flops(layer_sizes, rows)


def _rows(x) -> int:
    return 1 if x.ndim == 1 else int(x.shape[0])


def _count_mlp_forward(arg, result):
    rows = _rows(arg("u"))
    return {"rows": rows,
            "flops": mlp_forward_flops(arg("params").layer_sizes, rows)}


def _count_mlp_backward(arg, result):
    rows = _rows(arg("cotangent"))
    return {"rows": rows,
            "flops": mlp_backward_flops(arg("params").layer_sizes, rows)}


def _count_steps(arg, result):
    return {"steps": int(arg("nsteps"))}


def _count_file(pname):
    def count(arg, result):
        return {"bytes": os.path.getsize(arg(pname))}
    return count


def _count_rom_steps(arg, result):
    n_save = int(round(arg("total_time") / arg("save_interval")))
    sub = int(round(arg("save_interval") / arg("dt")))
    return {"steps": n_save * sub}


def _count_samples(arg, result):
    return {"samples": int(arg("states").size)}


@dataclass(frozen=True)
class Target:
    module: str    # submodule of the package, e.g. "spectral"
    attr: str      # "write_dataset" or "VbeSolver.advance"
    span: str      # span name; several targets may share one
    counter: Callable | None = None


TARGETS = (
    Target("spectral", "VbeSolver.advance", "spectral.vbe_advance", _count_steps),
    Target("spectral", "KseSolver.advance", "spectral.kse_advance", _count_steps),
    Target("spectral", "write_dataset", "spectral.io", _count_file("path")),
    Target("spectral", "read_dataset", "spectral.io", _count_file("path")),
    Target("diffcore", "mlp_forward", "diffcore.mlp_forward", _count_mlp_forward),
    Target("diffcore", "mlp_backward", "diffcore.mlp_backward", _count_mlp_backward),
    Target("diffcore", "conv_apply", "diffcore.conv"),
    Target("diffcore", "conv_backward", "diffcore.conv"),
    Target("diffcore", "write_checkpoint", "diffcore.checkpoint", _count_file("path")),
    Target("diffcore", "read_checkpoint", "diffcore.checkpoint", _count_file("path")),
    Target("neural_ode", "loss_gradient", "neural_ode.loss_gradient"),
    Target("neural_ode", "integrate", "neural_ode.integrate"),
    Target("neural_ode", "AdamState.update", "neural_ode.adam_update"),
    Target("neural_ode", "TrueRhs.nonlinear", "neural_ode.true_rhs"),
    Target("neural_ode", "TrueRhs.linear_apply", "neural_ode.true_rhs"),
    Target("rom", "eig_symmetric", "rom.eig_symmetric"),
    Target("rom", "unresolved_correction", "rom.unresolved_correction"),
    Target("rom", "rom_integrate", "rom.rom_integrate", _count_rom_steps),
    Target("metrics", "joint_pdf", "metrics.joint_pdf", _count_samples),
    Target("metrics", "kl_divergence", "metrics.kl_divergence"),
    Target("metrics", "relative_error", "metrics.relative_error"),
    Target("cli", "sha256_file", "cli.sha256", _count_file("path")),
)


@contextmanager
def installed(tracer: Tracer, targets=TARGETS):
    """Wrap every present target for the duration of the block."""
    restore = []
    try:
        for target in targets:
            *path, leaf = target.attr.split(".")
            try:
                owner = importlib.import_module(f"{PACKAGE}.{target.module}")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                tracer.note_missing(f"{target.module}.{target.attr}")
                continue
            own = leaf in vars(owner)
            setattr(owner, leaf, tracer.wrap(original, target.span, target.counter))
            restore.append((owner, leaf, original, own))
        yield tracer
    finally:
        for owner, leaf, original, own in reversed(restore):
            if own:
                setattr(owner, leaf, original)
            else:
                delattr(owner, leaf)


# span arithmetic -------------------------------------------------------------------

def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [s.end - s.start - covered_length(kids, s.start, s.end)
            for s, kids in zip(spans, children)]


@dataclass
class LayerTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counts: dict | None = None


def summarize(spans: list[Span]) -> dict[str, LayerTotals]:
    out: dict[str, LayerTotals] = {}
    for span, own in zip(spans, self_times(spans)):
        t = out.setdefault(span.name, LayerTotals(counts={}))
        t.calls += 1
        t.total_s += span.end - span.start
        t.self_s += own
        for key, val in (span.counts or {}).items():
            t.counts[key] = t.counts.get(key, 0) + val
    return out


def calls_inside(spans: list[Span], name: str, ancestor: str) -> int:
    """Number of `name` spans with an `ancestor` span somewhere above them."""
    inside = [False] * len(spans)
    n = 0
    for i, span in enumerate(spans):
        if span.parent >= 0:
            parent = spans[span.parent]
            inside[i] = inside[span.parent] or parent.name == ancestor
        if inside[i] and span.name == name:
            n += 1
    return n


# per-layer metrics ------------------------------------------------------------------

STAGES = ("generate", "train", "evaluate", "rom")

# (name, unit, better); a layer that does not run in a workload reads 0
LAYER_METRICS = (
    ("spectral.vbe_advance.self_s", "s", "lower"),
    ("spectral.vbe_advance.steps", "count", "lower"),
    ("spectral.vbe_step_us", "us", "lower"),
    ("spectral.kse_advance.self_s", "s", "lower"),
    ("spectral.kse_advance.steps", "count", "lower"),
    ("spectral.kse_step_us", "us", "lower"),
    ("spectral.io.bytes", "B", "lower"),
    ("spectral.io.s", "s", "lower"),
    ("diffcore.mlp_forward.calls", "count", "lower"),
    ("diffcore.mlp_forward.rows", "count", "lower"),
    ("diffcore.mlp_forward.self_s", "s", "lower"),
    ("diffcore.mlp_forward.gflops", "GFLOP/s-computed", "higher"),
    ("diffcore.mlp_backward.calls", "count", "lower"),
    ("diffcore.mlp_backward.self_s", "s", "lower"),
    ("diffcore.mlp_backward.gflops", "GFLOP/s-computed", "higher"),
    ("diffcore.conv.calls", "count", "lower"),
    ("diffcore.conv.self_s", "s", "lower"),
    ("diffcore.checkpoint.bytes", "B", "lower"),
    ("diffcore.checkpoint.s", "s", "lower"),
    ("neural_ode.loss_gradient.calls", "count", "lower"),
    ("neural_ode.loss_gradient.self_s", "s", "lower"),
    ("neural_ode.loss_gradient.p50_ms", "ms", "lower"),
    ("neural_ode.loss_gradient.p75_ms", "ms", "lower"),
    ("neural_ode.forwards_per_gradient", "forwards/call", "lower"),
    ("neural_ode.integrate.calls", "count", "lower"),
    ("neural_ode.integrate.self_s", "s", "lower"),
    ("neural_ode.adam_update.self_s", "s", "lower"),
    ("neural_ode.true_rhs.calls", "count", "lower"),
    ("neural_ode.true_rhs.self_s", "s", "lower"),
    ("neural_ode.train_loss_final", "L1", "lower"),
    ("rom.eig_symmetric.s", "s", "lower"),
    ("rom.unresolved_correction.calls", "count", "lower"),
    ("rom.unresolved_correction.self_s", "s", "lower"),
    ("rom.rom_integrate.self_s", "s", "lower"),
    ("rom.reduced_step_us", "us", "lower"),
    ("rom.rows_ok_ratio", "ratio", "higher"),
    ("metrics.joint_pdf.self_s", "s", "lower"),
    ("metrics.joint_pdf.samples", "count", "lower"),
    ("metrics.kl_divergence.self_s", "s", "lower"),
    ("metrics.relative_error.self_s", "s", "lower"),
    ("cli.sha256.bytes", "B", "lower"),
    ("cli.sha256.s", "s", "lower"),
    ("cli.glue_s", "s", "lower"),
    ("cli.generate_s", "s", "lower"),
    ("cli.train_s", "s", "lower"),
    ("cli.evaluate_s", "s", "lower"),
    ("cli.rom_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.missing_names", "count", "lower"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, extras: dict) -> dict[str, float]:
    """Per-layer values of one traced repetition, except those that pool
    several repetitions: trace.overhead_pct and the loss_gradient percentiles.

    `extras` carries values read from the outputs: train_loss_final,
    rom_rows_ok and rom_rows.
    """
    spans = tracer.spans
    s = summarize(spans)
    get = lambda name: s.get(name, LayerTotals(counts={}))
    m = {}
    for layer in ("spectral.vbe_advance", "spectral.kse_advance"):
        m[f"{layer}.self_s"] = get(layer).self_s
        m[f"{layer}.steps"] = get(layer).counts.get("steps", 0)
    m["spectral.vbe_step_us"] = 1e6 * _ratio(get("spectral.vbe_advance").total_s,
                                             m["spectral.vbe_advance.steps"])
    m["spectral.kse_step_us"] = 1e6 * _ratio(get("spectral.kse_advance").total_s,
                                             m["spectral.kse_advance.steps"])
    for layer in ("spectral.io", "diffcore.checkpoint", "cli.sha256"):
        m[f"{layer}.bytes"] = get(layer).counts.get("bytes", 0)
        m[f"{layer}.s"] = get(layer).total_s
    for layer in ("diffcore.mlp_forward", "diffcore.mlp_backward"):
        t = get(layer)
        m[f"{layer}.calls"] = t.calls
        m[f"{layer}.self_s"] = t.self_s
        m[f"{layer}.gflops"] = 1e-9 * _ratio(t.counts.get("flops", 0), t.self_s)
    m["diffcore.mlp_forward.rows"] = get("diffcore.mlp_forward").counts.get("rows", 0)
    for layer in ("diffcore.conv", "neural_ode.loss_gradient", "neural_ode.integrate",
                  "neural_ode.true_rhs", "rom.unresolved_correction"):
        m[f"{layer}.calls"] = get(layer).calls
        m[f"{layer}.self_s"] = get(layer).self_s
    m["neural_ode.forwards_per_gradient"] = _ratio(
        calls_inside(spans, "diffcore.mlp_forward", "neural_ode.loss_gradient"),
        m["neural_ode.loss_gradient.calls"])
    m["neural_ode.adam_update.self_s"] = get("neural_ode.adam_update").self_s
    m["neural_ode.train_loss_final"] = extras.get("train_loss_final", 0.0)
    m["rom.eig_symmetric.s"] = get("rom.eig_symmetric").total_s
    rom_run = get("rom.rom_integrate")
    m["rom.rom_integrate.self_s"] = rom_run.self_s
    m["rom.reduced_step_us"] = 1e6 * _ratio(rom_run.total_s, rom_run.counts.get("steps", 0))
    m["rom.rows_ok_ratio"] = _ratio(extras.get("rom_rows_ok", 0), extras.get("rom_rows", 0))
    m["metrics.joint_pdf.self_s"] = get("metrics.joint_pdf").self_s
    m["metrics.joint_pdf.samples"] = get("metrics.joint_pdf").counts.get("samples", 0)
    m["metrics.kl_divergence.self_s"] = get("metrics.kl_divergence").self_s
    m["metrics.relative_error.self_s"] = get("metrics.relative_error").self_s
    m["cli.glue_s"] = sum(get(f"cli.{stage}").self_s for stage in STAGES)
    for stage in STAGES:
        m[f"cli.{stage}_s"] = get(f"cli.{stage}").total_s
    m["trace.spans"] = len(spans)
    m["trace.missing_names"] = len(tracer.missing)
    return m


def durations(tracer: Tracer, name: str) -> list[float]:
    return [s.end - s.start for s in tracer.spans if s.name == name]


def loss_gradient_percentiles(samples: list[float]) -> dict[str, float]:
    """p50 and p75 of loss_gradient wall times in ms, 0 without samples.

    Samples are pooled over a run's traced repetitions: two repetitions of 20
    epochs give 40, so p75 is the highest percentile with 10 samples beyond it.
    """
    def pct(p):
        if len(samples) < 2:
            return 1e3 * sum(samples)
        return 1e3 * statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
    return {"neural_ode.loss_gradient.p50_ms": pct(50),
            "neural_ode.loss_gradient.p75_ms": pct(75)}

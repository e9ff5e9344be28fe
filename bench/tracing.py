"""Per-layer tracing of steptuner, installed from outside the package.

The tracer replaces public functions of the steptuner modules with thin
wrappers. Modules bind names imported with ``from .x import y`` at import
time, so a wrapper is installed at every module attribute that holds the
original function, and on the class for methods. Functions called once
per row or per scalar get a counter only, so the trace does not distort
them; everything else records a span (name, layer, start, end, parent).

Spans are kept in memory, one list per traced iteration. A span's self
time is its duration minus the durations of its direct child spans; the
children of a span run on the span's own thread, one after the other, so
they never overlap. Work handed to a thread pool shows up as spans on the
worker threads without a parent.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional

# (layer, module, attribute, kind). kind "span" records a span; "count"
# increments a counter keyed by the layer of the innermost open span.
TARGETS = [
    ("rng", "steptuner.rng", "per_sample_map", "span"),
    ("rng", "steptuner.rng", "derive_rng", "count"),
    ("schedule", "steptuner.schedule", "NoiseSchedule.t_from_log_snr", "span"),
    ("schedule", "steptuner.schedule", "NoiseSchedule.alpha_sigma", "count"),
    ("schedule", "steptuner.schedule", "NoiseSchedule.log_snr", "count"),
    ("oracle", "steptuner.oracle", "GaussianMixtureOracle.epsilon", "span"),
    ("oracle", "steptuner.oracle", "GaussianMixtureOracle.sample_data", "span"),
    ("samplers", "steptuner.samplers", "ddim_step", "span"),
    ("samplers", "steptuner.samplers", "ddim_step_baseline", "span"),
    ("samplers", "steptuner.samplers", "dpm_solver2_step", "span"),
    ("samplers", "steptuner.samplers", "sample_path", "span"),
    ("tuner", "steptuner.tuner", "tune", "span"),
    ("tuner", "steptuner.tuner", "optimize_tau", "span"),
    ("analysis", "steptuner.analysis", "draw_start_states", "span"),
    ("analysis", "steptuner.analysis", "generate_paths", "span"),
    ("analysis", "steptuner.analysis", "reference_path", "span"),
    ("analysis", "steptuner.analysis", "gap_profile", "span"),
    ("analysis", "steptuner.analysis", "evaluate_samples", "span"),
    ("config", "steptuner.config", "load_config", "span"),
    ("cli", "steptuner.cli", "main", "span"),
]

STEP_FUNCTIONS = ("ddim_step", "ddim_step_baseline", "dpm_solver2_step")
# the loss callable handed to optimize_tau, wrapped by the optimize_tau span
LOSS_SPAN = "loss"
# what a span keeps of its return value: tune's records, the reference size
_INFO = {
    "tune": lambda result: result[1],
    "reference_path": lambda result: result.states.nbytes,
}


@dataclass
class Span:
    name: str
    layer: str
    start: float
    parent: Optional["Span"]
    end: float = 0.0
    child_s: float = 0.0
    rows: int = 0
    # small summary of the return value, kept only where a metric needs it
    info: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


@dataclass
class Trace:
    """Spans and counters of one traced iteration."""

    spans: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)  # (name, layer) -> calls


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list = []
        self.trace = Trace()

    def reset(self) -> Trace:
        """Start a new trace and return the finished one."""
        done, self.trace = self.trace, Trace()
        return done

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _run_span(self, name: str, layer: str, fn: Callable, args, kwargs, rows: int = 0):
        stack = self._stack()
        span = Span(name, layer, 0.0, stack[-1] if stack else None, rows=rows)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if name in _INFO:
                span.info = _INFO[name](result)
            return result
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if span.parent is not None:
                span.parent.child_s += span.duration
            self.trace.spans.append(span)

    def _span_wrapper(self, name: str, layer: str, fn: Callable) -> Callable:
        tracer = self
        if name == "GaussianMixtureOracle.epsilon":
            def wrapper(model, x, *args, **kwargs):
                rows = len(x) if getattr(x, "ndim", 1) == 2 else 1
                return tracer._run_span(name, layer, fn, (model, x) + args, kwargs, rows)
        elif name == "per_sample_map":
            def wrapper(fill, n, *args, **kwargs):
                return tracer._run_span(name, layer, fn, (fill, n) + args, kwargs, n)
        elif name == "optimize_tau":
            def wrapper(loss, *args, **kwargs):
                def traced_loss(tau):
                    return tracer._run_span(LOSS_SPAN, layer, loss, (tau,), {})
                return tracer._run_span(name, layer, fn, (traced_loss,) + args, kwargs)
        else:
            def wrapper(*args, **kwargs):
                return tracer._run_span(name, layer, fn, args, kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name: str, fn: Callable) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            key = (name, stack[-1].layer if stack else None)
            with tracer._lock:
                tracer.trace.counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every target at every steptuner module attribute bound to it."""
        for _, module_name, _, _ in TARGETS:
            importlib.import_module(module_name)
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == "steptuner" or name.startswith("steptuner."))
        ]
        for layer, module_name, attr, kind in TARGETS:
            owner = sys.modules[module_name]
            cls_name, _, name = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name)
            original = owner.__dict__[name]
            wrapped = (
                self._span_wrapper(attr, layer, original)
                if kind == "span"
                else self._count_wrapper(attr, original)
            )
            # a method has one binding, on its class; a function has one per
            # module that imported it
            sites = [owner] if cls_name else modules
            for site in sites:
                for key, value in list(vars(site).items()):
                    if value is original:
                        setattr(site, key, wrapped)
                        self._undo.append((site, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()


def layer_metrics(trace: Trace) -> dict:
    """Per-layer metrics of one traced iteration, as {name: (value, unit)}."""
    by_name: dict = {}
    for span in trace.spans:
        by_name.setdefault(span.name, []).append(span)

    def spans(*names):
        return [s for n in names for s in by_name.get(n, [])]

    def total(*names) -> float:
        return sum(s.duration for s in spans(*names))

    def count(name: str, layer=None) -> int:
        return sum(
            c for (n, lay), c in trace.counts.items()
            if n == name and (layer is None or lay == layer)
        )

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return scale * num / den if den else 0.0

    rng_rows = sum(s.rows for s in spans("per_sample_map"))
    rng_busy = total("per_sample_map")
    oracle = spans("GaussianMixtureOracle.epsilon")
    oracle_rows = sum(s.rows for s in oracle)
    oracle_busy = total("GaussianMixtureOracle.epsilon")
    loss_evals = len(spans(LOSS_SPAN))
    sites = len(spans("optimize_tau"))
    search_s = total("optimize_tau")
    records = [r for s in spans("tune") for r in s.info]
    # the tuner keeps the untuned times, and reports the baseline loss as the
    # tuned one, exactly when no candidate beat them
    fallback_steps = {r.step for r in records if r.loss_tuned == r.loss_baseline}
    reference_bytes = sum(s.info for s in spans("reference_path"))
    cli_self = sum(s.self_s for s in spans("main"))
    samplers_self = sum(
        s.self_s for s in spans(*STEP_FUNCTIONS, "sample_path")
    )
    return {
        "rng.generators": (count("derive_rng"), "count"),
        "rng.rows": (rng_rows, "count"),
        "rng.busy_s": (rng_busy, "s"),
        "rng.us_per_row": (ratio(rng_busy, rng_rows, 1e6), "us/row"),
        "schedule.inverse_calls": (len(spans("NoiseSchedule.t_from_log_snr")), "count"),
        "schedule.inverse_busy_s": (total("NoiseSchedule.t_from_log_snr"), "s"),
        "schedule.coeff_calls": (
            count("NoiseSchedule.alpha_sigma") + count("NoiseSchedule.log_snr"),
            "count",
        ),
        "oracle.calls": (len(oracle), "count"),
        "oracle.rows": (oracle_rows, "count"),
        "oracle.busy_s": (oracle_busy, "s"),
        "oracle.ns_per_row": (ratio(oracle_busy, oracle_rows, 1e9), "ns/row"),
        "samplers.steps": (len(spans(*STEP_FUNCTIONS)), "count"),
        "samplers.self_s": (samplers_self, "s"),
        "samplers.noise_generators": (count("derive_rng", layer="samplers"), "count"),
        "tuner.loss_evals": (loss_evals, "count"),
        "tuner.loss_evals_per_site": (ratio(loss_evals, sites), "count"),
        "tuner.ms_per_loss_eval": (ratio(total(LOSS_SPAN), loss_evals, 1e3), "ms"),
        "tuner.search_s": (search_s, "s"),
        "tuner.prep_s": (total("tune") - search_s, "s"),
        "tuner.fallbacks": (len(fallback_steps), "count"),
        "tuner.boundary_sites": (sum(r.boundary for r in records), "count"),
        "analysis.draw_s": (total("draw_start_states"), "s"),
        "analysis.paths_s": (total("generate_paths"), "s"),
        "analysis.metrics_s": (total("evaluate_samples", "gap_profile"), "s"),
        "analysis.reference_s": (total("reference_path"), "s"),
        "analysis.reference_mb": (reference_bytes / 1e6, "MB"),
        "config.load_s": (total("load_config"), "s"),
        "cli.self_s": (cli_self, "s"),
    }

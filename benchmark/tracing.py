"""Spans and counts around the calls into each cayley_mcmc module.

The tracer records spans from the benchmark's side: it replaces each public
function of the traced modules (plus the methods and helpers named in
``EXTRA``) with a wrapper, at every name a caller looks it up by. Modules
import each other's functions by name (``from .jacobian import
derivative_stiefel``), so patching only the defining module would miss most
calls. Nothing under ``src/`` is modified; ``uninstall`` restores every
original.

A span is ``(name, start, end, parent, op, note)``: ``parent`` is the index
of the enclosing span (-1 for a root), ``op`` the identifier shared by all
spans of one CLI invocation, and ``note`` a per-name observation of the call
(whether a step accepted, whether the target returned -inf, bytes written).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "cayley_mcmc"
LAYERS = ("cli", "experiments", "sampler", "densities", "jacobian", "cayley",
          "special_matrices", "diagnostics")
# (module, class or None, attribute): callables outside __all__ that carry a
# named per-layer metric.
EXTRA = (
    ("densities", "PullbackTarget", "__call__"),
    ("densities", "PullbackTarget", "gradient"),
    ("densities", "PullbackTarget", "point"),
    ("densities", "EntryMarginal", "cdf"),
    ("jacobian", None, "_log_jacobian_lowrank"),
)

NAME, START, END, PARENT, OP, NOTE = range(6)
STEPS = ("sampler.mh_step", "sampler.leapfrog_step")
TARGET = "densities.PullbackTarget.__call__"
GRAD = "densities.PullbackTarget.gradient"


def _accepted(args, result):
    return result.accept_count > args[0].accept_count


def _log_target(args, result):
    return result


def _file_bytes(args, result):
    return os.path.getsize(args[0])


def _matrix_bytes(args, result):
    # pk x d float64 entries: computed from the shape, not measured traffic.
    return result.matrix.size * 8


NOTES = {
    "sampler.mh_step": _accepted,
    "sampler.leapfrog_step": _accepted,
    TARGET: _log_target,
    "experiments.write_draws_csv": _file_bytes,
    "jacobian.derivative_stiefel": _matrix_bytes,
    "jacobian.derivative_grassmann": _matrix_bytes,
}


class Tracer:
    """Installs span-recording wrappers into the cayley_mcmc modules."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name):
        spans = self.spans
        stack = self._stack
        note = NOTES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # The slot is reserved on entry so that children can name their
            # parent; the finished span is stored as a tuple of scalars,
            # which the garbage collector stops tracking.
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op, None)
            if note is not None:
                spans[idx] = (name, start, end, parent, self.op, note(args, result))
            return result

        return traced

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        targets = []
        for layer, mod in modules.items():
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr)
                if inspect.isfunction(obj):
                    targets.append((obj, f"{layer}.{attr}"))
        aliases = [m for key, m in sys.modules.items()
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for fn, name in targets:
            wrapper = self._wrap(fn, name)
            for mod in aliases:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, attr, wrapper)
        for layer, cls_name, attr in EXTRA:
            owner = modules[layer]
            if cls_name is not None:
                owner = getattr(owner, cls_name)
            name = ".".join(part for part in (layer, cls_name, attr) if part)
            self._patch(owner, attr, self._wrap(vars(owner)[attr], name))

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children may overlap each other; the covered part is the union of their
    intervals, clipped to the parent's own interval.
    """
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for idx, span in enumerate(spans):
        start, end = span[START], span[END]
        clipped = [(max(a, start), min(b, end)) for a, b in children.get(idx, ())]
        covered = union_length([(a, b) for a, b in clipped if b > a])
        out.append((end - start) - covered)
    return out


class OpProfile:
    """Per-op aggregates of one traced op's spans, kept after the spans are dropped."""

    def __init__(self, spans):
        selfs = self_times(spans)
        self.calls = defaultdict(int)
        self.durations = defaultdict(list)
        self.self_s = defaultdict(float)
        self.layer_self_s = defaultdict(float)
        self.notes = defaultdict(list)
        self.step_target_calls = self.step_grad_calls = 0
        exits_in_step = set()
        for idx, span in enumerate(spans):
            name = span[NAME]
            self.calls[name] += 1
            self.durations[name].append(span[END] - span[START])
            self.self_s[name] += selfs[idx]
            self.layer_self_s[name.split(".", 1)[0]] += selfs[idx]
            if span[NOTE] is not None:
                self.notes[name].append(span[NOTE])
            parent = span[PARENT]
            if parent >= 0 and spans[parent][NAME] in STEPS:
                if name == TARGET:
                    self.step_target_calls += 1
                    if not np.isfinite(span[NOTE]):
                        exits_in_step.add(parent)
                elif name == GRAD:
                    self.step_grad_calls += 1
        self.reject_domain = sum(1 for i in exits_in_step if spans[i][NAME] == "sampler.mh_step")
        self.reject_midtrajectory = sum(1 for i in exits_in_step
                                        if spans[i][NAME] == "sampler.leapfrog_step")


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) * 1e6 if values else 0.0


def layer_metrics(profiles: list[OpProfile], ess_per_op: float, wall_untraced: float,
                  wall_traced: float, p11_gap: float) -> dict[str, float]:
    """Per-layer metrics, per op, from the profiles of identical traced ops.

    Counts are per op and repeat exactly, because every traced op runs the
    same command. Latency percentiles pool all ops; busy and self times are
    means per op. The two walls are medians per op, scaled to the reference
    machine as the end-to-end times are.
    """
    n = len(profiles)

    def calls(*names):
        return sum(p.calls[nm] for p in profiles for nm in names) / n

    def durations(*names):
        return [d for p in profiles for nm in names for d in p.durations[nm]]

    def busy(*names):
        return sum(durations(*names)) / n

    def self_s(*names):
        return sum(p.self_s[nm] for p in profiles for nm in names) / n

    def notes(name):
        return [v for p in profiles for v in p.notes[name]]

    deriv = ("jacobian.derivative_stiefel", "jacobian.derivative_grassmann")
    steps = calls(*STEPS)
    accepted = sum(1 for nm in STEPS for v in notes(nm) if v) / n
    target_calls = calls(TARGET)
    exits = sum(1 for v in notes(TARGET) if v == -np.inf) / n

    def per(x, y):
        return x / y if y else 0.0

    m = {
        "sampler.steps": steps,
        "sampler.step_us_p50": _pct(durations(*STEPS), 50),
        "sampler.step_us_p99": _pct(durations(*STEPS), 99),
        "sampler.accept_share": per(accepted, steps),
        "sampler.reject_domain": sum(p.reject_domain for p in profiles) / n,
        "sampler.reject_midtrajectory": sum(p.reject_midtrajectory for p in profiles) / n,
        "sampler.target_calls_per_step": per(sum(p.step_target_calls for p in profiles) / n, steps),
        "sampler.grad_calls_per_step": per(sum(p.step_grad_calls for p in profiles) / n, steps),
        "sampler.ess_per_kstep": per(1000.0 * ess_per_op, steps),
        "sampler.ess_per_s": per(ess_per_op, wall_untraced),
        "densities.target.calls": target_calls,
        "densities.target.us_p50": _pct(durations(TARGET), 50),
        "densities.target.us_p99": _pct(durations(TARGET), 99),
        "densities.target.self_s": self_s(TARGET, "densities.pullback_log_density"),
        "densities.grad.calls": calls(GRAD),
        "densities.grad.us_p50": _pct(durations(GRAD), 50),
        "densities.grad.us_p99": _pct(durations(GRAD), 99),
        "densities.grad.self_s": self_s(GRAD),
        "densities.domain_exit_share": per(exits, target_calls),
        "densities.point.busy_s": busy("densities.PullbackTarget.point"),
        "densities.entry_cdf.busy_s": busy("densities.EntryMarginal.cdf"),
        "jacobian.derivative.calls": calls(*deriv),
        "jacobian.derivative.us_p50": _pct(durations(*deriv), 50),
        "jacobian.derivative.busy_s": busy(*deriv),
        "jacobian.derivative.bytes_computed": sum(v for nm in deriv for v in notes(nm)) / n,
        "jacobian.closed.calls": calls("jacobian.log_jacobian_stiefel"),
        "jacobian.closed.us_p50": _pct(durations("jacobian.log_jacobian_stiefel"), 50),
        "jacobian.grad_closed.calls": calls("jacobian.grad_log_jacobian_stiefel"),
        "jacobian.grad_closed.us_p50": _pct(durations("jacobian.grad_log_jacobian_stiefel"), 50),
        "jacobian.lowrank.calls": calls("jacobian._log_jacobian_lowrank"),
        "jacobian.lowrank.us_p50": _pct(durations("jacobian._log_jacobian_lowrank"), 50),
        "jacobian.lowrank.busy_s": busy("jacobian._log_jacobian_lowrank"),
    }
    for short, name in (("forward_stiefel", "cayley.cayley_forward_stiefel"),
                        ("forward_grassmann", "cayley.cayley_forward_grassmann"),
                        ("inverse_stiefel", "cayley.cayley_inverse_stiefel")):
        m[f"cayley.{short}.calls"] = calls(name)
        m[f"cayley.{short}.us_p50"] = _pct(durations(name), 50)
        m[f"cayley.{short}.busy_s"] = busy(name)
    margin_calls = calls("cayley.grassmann_domain_margin")
    m.update({
        "cayley.domain_margin.calls": margin_calls,
        "cayley.domain_margin.per_target": per(margin_calls, target_calls),
        "special_matrices.skew_from_vech.calls": calls("special_matrices.skew_from_vech"),
        "special_matrices.dtilde.calls": calls("special_matrices.dtilde_matrix"),
        "diagnostics.haar.calls": calls("diagnostics.haar_stiefel_coupled"),
        "diagnostics.haar.us_p50": _pct(durations("diagnostics.haar_stiefel_coupled"), 50),
        "diagnostics.principal_angles.busy_s": busy("diagnostics.principal_angles"),
        "diagnostics.acf_ess.busy_s": busy("diagnostics.acf_ess"),
        "experiments.write_draws.busy_s": busy("experiments.write_draws_csv"),
        "experiments.write_draws.bytes": sum(notes("experiments.write_draws_csv")) / n,
    })
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(p.layer_self_s[layer] for p in profiles) / n
    m["trace.overhead_s"] = wall_traced - wall_untraced
    m["grassmann.p11_mean_gap"] = p11_gap
    return m

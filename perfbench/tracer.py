"""Span tracer for the dysonmap layers, installed from outside the package.

`Tracer.install()` replaces each traced function wherever a loaded dysonmap
module holds a reference to it, which is where its caller looks it up
(`dysonmap.diagnostics.propagate_dyson`, `dysonmap.model_oscillator.rk4_samples`,
...).  `GeneratorFn.__call__` and `FockOperator.__post_init__` are counted
but not timed: they run hundreds of thousands of times per workup, and a
span around each would cost more than the work it measures.

Spans stay in memory and are appended as one JSON line to
`<trace_dir>/spans-<pid>.jsonl` whenever the process's outermost span
closes.  Worker processes forked by `dysonmap sweep` inherit the installed
wrappers; the fork hook clears the inherited buffers, and each worker
flushes after every top-level call, because pool workers leave through
`os._exit` and never run exit handlers.  Spans a worker opens keep the
parent's open `cli.main` span as their parent.

`layer_metrics()` turns the flushed records into the per-layer metrics.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import os
import sys
import time
from pathlib import Path

# (module, function) pairs that get a span, named "<module>.<function>".
SPAN_TARGETS = (
    ("cli", "main"),
    ("cli", "scenario_from_doc"),
    ("diagnostics", "scenario_workup"),
    ("diagnostics", "metric_constancy"),
    ("diagnostics", "quasi_hermiticity_residuals"),
    ("diagnostics", "equivalence_checks"),
    ("diagnostics", "isospectrality_check"),
    ("diagnostics", "analytic_vs_numeric"),
    ("model_oscillator", "validated_scenario"),
    ("model_oscillator", "lr_pipeline"),
    ("model_oscillator", "pt_analysis"),
    ("propagation", "propagate_dyson"),
    ("propagation", "propagate_state"),
    ("propagation", "rk4_samples"),
)

# (module, class, method, counter name): calls counted, not timed.
COUNT_TARGETS = (
    ("propagation", "GeneratorFn", "__call__", "propagation.GeneratorFn.calls"),
    ("fock_algebra", "FockOperator", "__post_init__", "fock_algebra.FockOperator.constructed"),
)


def _steps(bound):
    return {"steps": int(bound.arguments["grid"].steps)}


def _etas_bytes(bound):
    # Computed, not measured: the (steps+1, dim, dim) complex128 array.
    grid, eta0 = bound.arguments["grid"], bound.arguments["eta0"]
    return {"etas_bytes": (grid.steps + 1) * eta0.dim**2 * 16}


def _state_digest(bound):
    vec = bound.arguments["psi0"].vec
    return {"psi0": hashlib.sha256(vec.tobytes()).hexdigest()[:16]}


# Span attributes read from the call's arguments, before it runs.
_ARG_ATTRS = {
    "propagation.rk4_samples": _steps,
    "propagation.propagate_dyson": _etas_bytes,
    "propagation.propagate_state": _state_digest,
}


def _residual_samples(result):
    r2, _ = result
    return {"samples": int(len(r2.samples))}


# Span attributes read from the call's result.
_RESULT_ATTRS = {
    "diagnostics.quasi_hermiticity_residuals": _residual_samples,
}


def _dysonmap_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "dysonmap" or name.startswith("dysonmap."))]


class Tracer:
    """Collects spans and call counts for one traced CLI invocation."""

    def __init__(self, trace_dir: str | os.PathLike, invocation: str):
        self.trace_dir = Path(trace_dir)
        self.invocation = invocation
        self.installed = False
        self._patches: list[tuple[object, str, object]] = []
        self._reset(base_depth=0)
        self._stack: list[str] = []
        self._next_id = 0
        os.register_at_fork(after_in_child=self._after_fork)

    def _reset(self, base_depth: int):
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.counts = {name: 0 for *_, name in COUNT_TARGETS}
        self._base_depth = base_depth

    def _after_fork(self):
        if self.installed:
            self._reset(base_depth=len(self._stack))

    # -- installation ----------------------------------------------------

    def install(self):
        """Patch every lookup site of the traced functions and classes."""
        import dysonmap.cli  # noqa: F401  (loads every dysonmap module)

        if self.installed:
            raise RuntimeError("tracer already installed")
        modules = _dysonmap_modules()
        for mod_name, fn_name in SPAN_TARGETS:
            home = sys.modules[f"dysonmap.{mod_name}"]
            original = getattr(home, fn_name)
            wrapper = self._span_wrapper(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)
        for mod_name, cls_name, method, counter in COUNT_TARGETS:
            cls = getattr(sys.modules[f"dysonmap.{mod_name}"], cls_name)
            self._patch(cls, method, self._count_wrapper(counter, vars(cls)[method]))
        self.installed = True

    def uninstall(self):
        """Restore every patched attribute to the original object."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.installed = False

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        signature = inspect.signature(fn)
        arg_attrs = _ARG_ATTRS.get(name)
        result_attrs = _RESULT_ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = arg_attrs(signature.bind(*args, **kwargs)) if arg_attrs else {}
            span_id = f"{self.pid}:{self._next_id}"
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.monotonic_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(name, span_id, parent, start, attrs)
                raise
            end = time.monotonic_ns()
            if result_attrs:
                attrs.update(result_attrs(result))
            self._close(name, span_id, parent, start, attrs, end)
            return result

        return wrapper

    def _close(self, name, span_id, parent, start, attrs, end=None):
        self.spans.append({
            "name": name, "id": span_id, "parent": parent,
            "start_ns": start, "end_ns": time.monotonic_ns() if end is None else end,
            "invocation": self.invocation, "attrs": attrs,
        })
        self._stack.pop()
        if len(self._stack) == self._base_depth:
            self.flush()

    def _count_wrapper(self, counter, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- output ------------------------------------------------------------

    def flush(self):
        """Append the buffered spans and counts to this process's file."""
        if not self.spans and not any(self.counts.values()):
            return
        record = {"pid": self.pid, "spans": self.spans, "counts": self.counts}
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        with open(self.trace_dir / f"spans-{self.pid}.jsonl", "a") as fh:
            fh.write(json.dumps(record) + "\n")
        self.spans = []
        self.counts = {name: 0 for name in self.counts}


def read_records(trace_dir: str | os.PathLike) -> list[dict]:
    records = []
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        records += [json.loads(line) for line in path.read_text().splitlines() if line]
    return records


def _covered_ns(start: int, end: int, intervals: list[tuple[int, int]]) -> int:
    """Length of the union of `intervals` clipped to [start, end]."""
    total, cursor = 0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> seconds not covered by the span's child spans.

    Children in forked workers run concurrently, so the covered time is the
    union of the child intervals, not their sum.
    """
    children: dict[str, list[tuple[int, int]]] = {}
    for sp in spans:
        if sp["parent"] is not None:
            children.setdefault(sp["parent"], []).append((sp["start_ns"], sp["end_ns"]))
    return {
        sp["id"]: (sp["end_ns"] - sp["start_ns"]
                   - _covered_ns(sp["start_ns"], sp["end_ns"], children.get(sp["id"], []))) / 1e9
        for sp in spans
    }


def layer_metrics(records: list[dict]) -> dict[str, float]:
    """Per-layer metrics, named `<module>.<function>.<quantity>`."""
    spans = [sp for rec in records for sp in rec["spans"]]
    own = self_times(spans)
    by_name: dict[str, list[dict]] = {f"{m}.{f}": [] for m, f in SPAN_TARGETS}
    for sp in spans:
        by_name[sp["name"]].append(sp)

    def self_s(name):
        return sum(own[sp["id"]] for sp in by_name[name])

    def attr_values(name, key):
        return [sp["attrs"][key] for sp in by_name[name] if key in sp["attrs"]]

    out: dict[str, float] = {}
    for name in by_name:
        out[f"{name}.self_s"] = self_s(name)
        out[f"{name}.calls"] = len(by_name[name])
    for *_, counter in COUNT_TARGETS:
        out[counter] = sum(rec["counts"].get(counter, 0) for rec in records)
    out["propagation.rk4_samples.steps"] = sum(attr_values("propagation.rk4_samples", "steps"))
    out["propagation.etas_bytes"] = max(attr_values("propagation.propagate_dyson", "etas_bytes"),
                                        default=0)
    states = attr_values("propagation.propagate_state", "psi0")
    out["propagation.propagate_state.unique_ratio"] = (
        len(set(states)) / len(states) if states else 0.0
    )
    out["diagnostics.quasi_hermiticity_residuals.samples"] = sum(
        attr_values("diagnostics.quasi_hermiticity_residuals", "samples")
    )
    return out

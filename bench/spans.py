"""In-memory spans around the package's layer boundaries.

``Tracer.install()`` rebinds the names the callers look up (for example
``gateselftest.families.sup_norm_report``) to wrappers that record a span:
name, start, end, parent span and operation index, plus a few attributes
(qubit count, number of starts, samples, nfev).  ``uninstall()`` puts the
originals back.  Spans stay in memory until ``write`` saves them as JSON
lines; ``layer_metrics`` turns them into the per-layer metrics, per traced
operation.  The speed samples taken while a traced round runs (speed.py) are
recorded as ``speed.kernel`` spans and taken out of every span around them.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import defaultdict

PACKAGE = "gateselftest"
KERNEL = "speed.kernel"


def _grid_starts() -> int:
    families = importlib.import_module(f"{PACKAGE}.families")
    return inspect.signature(families.dist_to_family).parameters["grid_starts"].default


def _norm_attrs(args, kwargs, result):
    return {"n": args[0].n, "starts": kwargs.get("starts")}


def _nfev_attrs(args, kwargs, result):
    return {"nfev": int(getattr(result, "nfev", 0))}


def _estimate_attrs(args, kwargs, result):
    return {"samples": int(args[2] if len(args) > 2 else kwargs["samples"])}


def _scan_attrs(args, kwargs, result):
    return {"points": len(args[2])}


# (module, attribute looked up by the callers, span name, attribute recorder)
LAYERS = (
    ("cli", "gate_from_spec", "channel.gate_from_spec", None),
    ("cli", "family_equations", "equations.family_equations", None),
    ("cli", "max_violation", "equations.max_violation", None),
    ("cli", "dist_to_family", "families.dist_to_family", None),
    ("cli", "run_tester", "tester.run_tester", None),
    ("cli", "noise_scan", "roblab.noise_scan", _scan_attrs),
    ("cli", "scan_csv_text", "roblab.scan_csv_text", None),
    ("roblab", "family_equations", "equations.family_equations", None),
    ("roblab", "max_violation", "equations.max_violation", None),
    ("roblab", "dist_to_family", "families.dist_to_family", None),
    ("roblab", "apply_noise", "channel.apply_noise", None),
    ("channel", "apply_noise", "channel.apply_noise", None),
    ("equations", "probability_term", "equations.probability_term", None),
    ("oracle", "probability_term", "equations.probability_term", None),
    ("oracle", "Oracle.estimate", "oracle.estimate", _estimate_attrs),
    ("families", "sup_norm_report", "channel.sup_norm_report", _norm_attrs),
    ("families", "minimize_scalar", "families.minimize_scalar", _nfev_attrs),
    ("families", "hadamard", "channel.member", None),
    ("families", "not_gate", "channel.member", None),
    ("families", "phase_gate", "channel.member", None),
    ("families", "rotation_gate", "channel.member", None),
    ("families", "cnot", "channel.member", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, attrs]
        self.op = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def call(self, name, fn, args=(), kwargs=None, attrs=None):
        """Run fn(*args, **kwargs) inside a span named ``name``."""
        kwargs = kwargs or {}
        index = len(self.spans)
        span = [name, time.perf_counter(), 0.0,
                self._stack[-1] if self._stack else -1, self.op, {}]
        self.spans.append(span)
        self._stack.append(index)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            if attrs is not None:
                span[5] = attrs(args, kwargs, result)

    def _wrap(self, name, fn, attrs):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs)

        return traced

    def install(self) -> None:
        for module, attribute, name, attrs in LAYERS:
            owner = importlib.import_module(f"{PACKAGE}.{module}")
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(name, original, attrs))

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for name, start, end, parent, op, attrs in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "op": op, **attrs}) + "\n")


def layer_metrics(spans, ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per traced operation, as {name: (value, unit)}.

    ``.calls`` and ``.s`` are totals divided by ``ops``; ``.self_s`` is a
    span's duration minus its direct children's; ``ms_per_call`` and
    ``samples_per_s`` are ratios of totals.  Durations leave out the
    ``speed.kernel`` spans nested in them.
    """
    grid_starts = _grid_starts()
    calls = defaultdict(int)
    secs = defaultdict(float)
    counts = defaultdict(int)
    net = [span[2] - span[1] for span in spans]
    for span in spans:
        if span[0] == KERNEL:
            parent = span[3]
            while parent >= 0:
                net[parent] -= span[2] - span[1]
                parent = spans[parent][3]
    child_s = defaultdict(float)
    for index, span in enumerate(spans):
        if span[3] >= 0 and span[0] != KERNEL:
            child_s[span[3]] += net[index]
    self_s = defaultdict(float)
    for index, (name, _start, _end, _parent, _op, attrs) in enumerate(spans):
        if name == KERNEL:
            continue
        dur = net[index]
        keys = [name]
        if name == "channel.sup_norm_report":
            keys.append(f"{name}.n{attrs['n']}")
            keys.append(f"{name}." + ("grid" if attrs["starts"] == grid_starts else "refine"))
        for key in keys:
            calls[key] += 1
            secs[key] += dur
        self_s[name] += dur - child_s[index]
        for attr in ("samples", "nfev", "points"):
            if attr in attrs:
                counts[f"{name}.{attr}"] += attrs[attr]

    out: dict[str, tuple[float, str]] = {}

    def per_op(key, value, unit):
        out[key] = (value / ops, unit)

    for base in ("n2", "n1"):
        key = f"channel.sup_norm_report.{base}"
        per_op(f"{key}.calls", calls[key], "count")
        per_op(f"{key}.s", secs[key], "s")
        out[f"{key}.ms_per_call"] = (1e3 * secs[key] / calls[key] if calls[key] else 0.0, "ms")
    for base in ("grid", "refine"):
        key = f"channel.sup_norm_report.{base}"
        per_op(f"{key}.calls", calls[key], "count")
        per_op(f"{key}.s", secs[key], "s")
    for key in ("channel.member", "channel.apply_noise", "channel.gate_from_spec",
                "equations.family_equations", "equations.max_violation",
                "equations.probability_term"):
        per_op(f"{key}.calls", calls[key], "count")
        per_op(f"{key}.s", secs[key], "s")
    for key in ("families.dist_to_family", "tester.run_tester", "roblab.noise_scan"):
        per_op(f"{key}.calls", calls[key], "count")
        per_op(f"{key}.s", secs[key], "s")
        per_op(f"{key}.self_s", self_s[key], "s")
    per_op("families.minimize_scalar.calls", calls["families.minimize_scalar"], "count")
    per_op("families.minimize_scalar.nfev", counts["families.minimize_scalar.nfev"], "count")
    per_op("families.minimize_scalar.s", secs["families.minimize_scalar"], "s")
    per_op("oracle.estimate.calls", calls["oracle.estimate"], "count")
    per_op("oracle.estimate.samples", counts["oracle.estimate.samples"], "count")
    per_op("oracle.estimate.s", secs["oracle.estimate"], "s")
    est_s = secs["oracle.estimate"]
    out["oracle.estimate.samples_per_s"] = (
        counts["oracle.estimate.samples"] / est_s if est_s else 0.0, "1/s")
    per_op("roblab.noise_scan.points", counts["roblab.noise_scan.points"], "count")
    per_op("roblab.scan_csv_text.s", secs["roblab.scan_csv_text"], "s")
    per_op("cli.self_s", self_s["cli"], "s")
    return out

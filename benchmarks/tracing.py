"""Layer spans recorded from outside the package.

Each traced public function is replaced, in every module namespace that
holds it, by a wrapper that records one span: name, start, end, parent
span, operation id and whatever the function returned that is worth
keeping (iteration counts, residuals, slot counts, condition numbers).
Patching every namespace matters because callers look names up in their
own module: ``simulation`` calls ``factorize`` through its own global,
so wrapping only ``factorization.factorize`` would miss those calls.

Spans stay in memory and are written once the run ends.  A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import time

import numpy as np

import mmwave_backhaul
from mmwave_backhaul import channel, cli, config, estimation, factorization, output, precoding, simulation

LAYER_MODULES = {
    "channel": channel,
    "precoding": precoding,
    "factorization": factorization,
    "estimation": estimation,
    "simulation": simulation,
    "config": config,
    "output": output,
    "cli": cli,
}
LAYERS = tuple(LAYER_MODULES)

# Public functions traced per layer; "Class.method" names a method.
TRACED = {
    "channel": ("sample_paths", "assemble_channel", "singular_energy_profile"),
    "precoding": ("truncated_svd", "mu_assemble", "mu_digital_precoder",
                  "equivalent_channel", "allocate_power"),
    "factorization": ("factorize", "factorize_combiner"),
    "estimation": ("ChannelOracle.observe", "coarse_sweep", "array_snapshot",
                   "line_spectrum_estimate", "estimate_gains", "estimate_channel"),
    "simulation": ("user_capacity", "full_digital_baseline", "run_scenario"),
    "config": ("parse_config", "parse_config_text", "preset_scenarios", "render_config"),
    "output": ("emit_csv", "write_manifest"),
    "cli": ("main",),
}


def _factorize_record(args, kwargs, result):
    opts = args[1] if len(args) > 1 else kwargs.get("opts")
    max_iterations = (opts or factorization.FactorizeOptions()).max_iterations
    return [result.iterations_used, result.residual, max_iterations]


def _estimate_record(args, kwargs, result):
    return [result.slots_phase1, result.slots_phase2, result.slots_phase3,
            result.paired_paths.n_paths]


_RECORDS = {
    "factorization.factorize": _factorize_record,
    "precoding.mu_digital_precoder": lambda args, kwargs, result: [result[1]],
    "estimation.estimate_channel": _estimate_record,
}


def _span_name(base, args):
    # The pencil runs at two sizes whose costs differ by orders of
    # magnitude (n=32 receive snapshots, n=512 transmit snapshots).
    if base == "estimation.line_spectrum_estimate":
        return f"{base}.n{np.size(args[0])}"
    return base


class Tracer:
    """Records spans while installed; ``op`` tags spans with the operation id."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index, op, record]
        self.op = -1
        self._stack = []
        self._patches = []

    def _wrap(self, base, fn):
        record = _RECORDS.get(base)

        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [_span_name(base, args), 0.0, 0.0,
                    self._stack[-1] if self._stack else -1, self.op, None]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if record is not None:
                span[5] = record(args, kwargs, result)
            return result

        return traced

    def install(self):
        namespaces = [mmwave_backhaul, *LAYER_MODULES.values()]
        for layer, names in TRACED.items():
            module = LAYER_MODULES[layer]
            for name in names:
                base = f"{layer}.{name.split('.')[-1]}"
                if "." in name:
                    owner, attr = getattr(module, name.split(".")[0]), name.split(".")[1]
                    self._patch(owner, attr, self._wrap(base, getattr(owner, attr)))
                    continue
                original = getattr(module, name)
                wrapper = self._wrap(base, original)
                for namespace in namespaces:
                    if getattr(namespace, name, None) is original:
                        self._patch(namespace, name, wrapper)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op, record in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "op": op, "record": record}))
                handle.write("\n")


def self_times(spans):
    """Per-span self time: duration minus the direct children's durations."""
    durations = np.array([end - start for _, start, end, *_ in spans])
    child = np.zeros(len(spans))
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    return durations, durations - child


# Per-function metrics: (span name, fields).  "calls" and "self_s" are per
# trial so that runs of different length and speed compare directly.
_FUNCTION_METRICS = (
    ("factorization.factorize", ("calls", "self_s", "call_s_p50", "call_s_p90")),
    ("factorization.factorize_combiner", ("calls", "self_s", "call_s_p50", "call_s_p90")),
    ("estimation.line_spectrum_estimate.n32", ("calls", "self_s", "call_s_p50")),
    ("estimation.line_spectrum_estimate.n512", ("calls", "self_s", "call_s_p50")),
    ("estimation.estimate_channel", ("calls", "self_s", "call_s_p50", "call_s_p90")),
    ("estimation.estimate_gains", ("calls", "self_s")),
    ("estimation.observe", ("calls",)),
    ("precoding.mu_digital_precoder", ("calls", "self_s")),
    ("precoding.truncated_svd", ("calls", "self_s")),
    ("precoding.allocate_power", ("calls", "self_s")),
    ("simulation.run_scenario", ("calls", "self_s")),
    ("simulation.user_capacity", ("calls", "self_s")),
    ("channel.assemble_channel", ("calls", "self_s")),
    ("channel.singular_energy_profile", ("self_s",)),
    ("output.emit_csv", ("self_s",)),
    ("output.write_manifest", ("self_s",)),
    ("cli.main", ("self_s",)),
    ("config.preset_scenarios", ("self_s",)),
)
_UNITS = {"calls": "1/trial", "self_s": "s/trial", "call_s_p50": "s", "call_s_p90": "s"}


def _percentile(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


def _records(spans, by_name, name):
    # Calls that raised returned nothing to record.
    return [spans[i][5] for i in by_name.get(name, []) if spans[i][5] is not None]


def per_layer_metrics(spans, trials, op_wall_s, untraced_wall_s, detected_true_path_ratio):
    """All per-layer metrics of one traced run, as ``{name: (value, unit)}``.

    ``op_wall_s`` is the summed wall time of the traced operations and
    ``untraced_wall_s`` that of the same operations run again untraced.
    """
    durations, selfs = self_times(spans)
    by_name = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(index)

    metrics = {}
    for name, fields in _FUNCTION_METRICS:
        idx = by_name.get(name, [])
        values = {
            "calls": len(idx) / trials,
            "self_s": float(selfs[idx].sum()) / trials,
            "call_s_p50": _percentile(durations[idx], 50),
            "call_s_p90": _percentile(durations[idx], 90),
        }
        for field in fields:
            metrics[f"{name}.{field}"] = (values[field], _UNITS[field])

    fact = _records(spans, by_name, "factorization.factorize")
    iterations = [r[0] for r in fact]
    residuals = [r[1] for r in fact]
    metrics["factorization.iterations_p50"] = (_percentile(iterations, 50), "iterations")
    metrics["factorization.iterations_max"] = (max(iterations, default=0), "iterations")
    metrics["factorization.cap_hit_ratio"] = (
        sum(r[0] == r[2] for r in fact) / len(fact) if fact else 0.0, "ratio")
    metrics["factorization.residual_p50"] = (_percentile(residuals, 50), "ratio")
    metrics["factorization.residual_max"] = (max(residuals, default=0.0), "ratio")

    estimates = _records(spans, by_name, "estimation.estimate_channel")
    for phase in (1, 2, 3):
        mean = float(np.mean([r[phase - 1] for r in estimates])) if estimates else 0.0
        metrics[f"estimation.slots_phase{phase}"] = (mean, "slots")
    metrics["estimation.detected_true_path_ratio"] = (detected_true_path_ratio, "ratio")

    conds = [r[0] for r in _records(spans, by_name, "precoding.mu_digital_precoder")]
    metrics["precoding.coupling_cond_p90"] = (_percentile(conds, 90), "ratio")

    layer_self = layer_self_times(spans, selfs)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (layer_self[layer] / trials, "s/trial")
        metrics[f"{layer}.self_share"] = (layer_self[layer] / op_wall_s, "ratio")
    covered = sum(layer_self.values())
    metrics["trace.uncovered_share"] = ((op_wall_s - covered) / op_wall_s, "ratio")
    metrics["trace.overhead_ratio"] = (op_wall_s / untraced_wall_s - 1.0, "ratio")
    return metrics


def layer_self_times(spans, selfs):
    totals = dict.fromkeys(LAYERS, 0.0)
    for span, own in zip(spans, selfs):
        totals[span[0].split(".")[0]] += own
    return totals


def self_time_table(spans, op_wall_s, top=12):
    """Text table: layer self time and share of wall, uncovered remainder,
    then the functions with the largest self time."""
    _, selfs = self_times(spans)
    layer_self = layer_self_times(spans, selfs)
    lines = [f"{'layer':<48} {'self_s':>10} {'share':>7}"]
    for layer, own in sorted(layer_self.items(), key=lambda item: -item[1]):
        lines.append(f"{layer:<48} {own:>10.4f} {own / op_wall_s:>7.1%}")
    uncovered = op_wall_s - sum(layer_self.values())
    lines.append(f"{'(uncovered)':<48} {uncovered:>10.4f} {uncovered / op_wall_s:>7.1%}")
    lines.append(f"{'(wall)':<48} {op_wall_s:>10.4f} {1:>7.1%}")
    per_function = {}
    for span, own in zip(spans, selfs):
        calls, total = per_function.get(span[0], (0, 0.0))
        per_function[span[0]] = (calls + 1, total + own)
    lines.append(f"{'function':<48} {'self_s':>10} {'share':>7} {'calls':>8}")
    ranked = sorted(per_function.items(), key=lambda item: -item[1][1])
    for name, (calls, own) in ranked[:top]:
        lines.append(f"{name:<48} {own:>10.4f} {own / op_wall_s:>7.1%} {calls:>8}")
    return lines

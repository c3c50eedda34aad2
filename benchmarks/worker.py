"""One workload process: set up, then optionally measure in a closed loop.

Started by ``run.py`` in a fresh interpreter for every set-up, with the
BLAS and OpenMP thread counts pinned to 1 before numpy is imported (the
capacity CSV depends on the BLAS thread count, so an unpinned run would
measure a different program).  Prints one JSON line: after set-up alone
``{"setup_s": ..., "setup_speed": ...}``, after a measurement the full
result.  ``setup_speed`` is the host's speed factor (``reference.py``)
from reference passes right after set-up, ``loop_speed`` that of the
passes interleaved with the operations; ``run.py`` scales the times by
them.
"""

from __future__ import annotations

import os
import sys
import time

PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def _require_pinned():
    if "numpy" in sys.modules:
        sys.exit("worker: numpy was imported before the thread counts were checked")
    for name, value in PINNED_THREADS.items():
        if os.environ.get(name) != value:
            sys.exit(f"worker: {name} must be {value} before numpy is imported")


_require_pinned()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import mmwave_backhaul  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _require_checkout_package(src_dir):
    # Measure the package in this checkout, never an installed copy.
    package_dir = os.path.dirname(os.path.abspath(mmwave_backhaul.__file__))
    if os.path.dirname(package_dir) != os.path.abspath(src_dir):
        sys.exit(f"worker: imported mmwave_backhaul from {package_dir}, not from {src_dir}")


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "threads": {name: os.environ.get(name) for name in PINNED_THREADS},
        "python": platform.python_version(),
    }


def _timed_op(workload, i):
    t0 = time.perf_counter()
    try:
        return workload.run_op(i), None, time.perf_counter() - t0
    except Exception as exc:  # the program failed this operation
        return None, f"{type(exc).__name__}: {exc}", time.perf_counter() - t0


# Passes of the reference kernel right after set-up.
SETUP_PASSES = 5
# A reference pass runs before the first operation and then once this much
# operation time has passed since the last one, so that the passes sample
# the host's speed evenly over the run.
PASS_EVERY_S = 0.25


def measure(workload, seconds, kernel, tracer=None):
    """Closed loop, one client: run operations back to back until ``seconds``
    of wall time have passed (at least one).  Returns per-op records.

    Between operations, outside their timers, ``kernel`` runs a reference
    pass every ``PASS_EVERY_S`` of operation time.

    An operation that raises is a failed operation; one whose output fails
    a check is a wrong result.  Both count as failed, and a wrong result
    also makes the run incorrect.  With a tracer, each operation runs
    traced and then again untraced, back to back so that drift in the
    machine's speed cancels out of the tracing overhead.
    """
    records = []
    since_pass = PASS_EVERY_S
    start = time.perf_counter()
    while True:
        i = len(records)
        if since_pass >= PASS_EVERY_S:
            kernel.run_pass()
            since_pass = 0.0
        if tracer is None:
            payload, error, duration = _timed_op(workload, i)
        else:
            tracer.op = i
            tracer.install()
            try:
                payload, error, duration = _timed_op(workload, i)
            finally:
                tracer.uninstall()
        record = {"op": i, "error": error, "failures": [], "data": None, "duration_s": duration}
        if tracer is not None:
            record["untraced_s"] = _timed_op(workload, i)[2]
        if error is None:
            try:
                record["failures"], record["data"] = workload.check(payload)
            except Exception:  # a malformed output the checks could not parse
                record["failures"] = [traceback.format_exc(limit=3)]
        records.append(record)
        since_pass += duration
        if time.perf_counter() - start >= seconds:
            return records


def summarize(workload, records):
    ok = [r for r in records if r["error"] is None and not r["failures"]]
    good = [r["data"] for r in records[: workload.quality_ops]
            if r["error"] is None and not r["failures"]]
    return {
        "attempted": len(records),
        "failed": len(records) - len(ok),
        "raised": sum(r["error"] is not None for r in records),
        "wrong": sum(bool(r["failures"]) for r in records),
        "failures": [r["error"] or "; ".join(r["failures"])
                     for r in records if r not in ok][:10],
        "trials": len(ok) * workload.trials_per_op,
        "op_wall_s": sum(r["duration_s"] for r in records),
        "op_s": [r["duration_s"] for r in records],
        "quality_ops": len(good),
        "quality": {name: {"value": v, "unit": u}
                    for name, (v, u) in (workload.quality(good).items() if good else ())},
        "capacity_csv_sha256": [r["data"]["sha256"] for r in ok if "sha256" in r["data"]],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="omit to set up only")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="where a traced run writes its spans")
    parser.add_argument("--src", required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    args = parser.parse_args(argv)
    _require_checkout_package(args.src)

    workload = workloads.WORKLOADS[args.workload](args.seed, args.tmp)
    workload.setup()
    setup_s = time.monotonic() - args.spawned_at
    kernel = reference.ReferenceKernel()
    setup_pass_s = float(np.median([kernel.run_pass() for _ in range(SETUP_PASSES)]))
    setup = {"setup_s": setup_s, "setup_pass_s": setup_pass_s,
             "setup_speed": reference.speed_factor(setup_pass_s)}
    if args.seconds is None:
        print(json.dumps(setup))
        return

    result = {**setup, "environment": environment()}
    kernel.passes.clear()
    if args.trace:
        tracer = tracing.Tracer()
        records = measure(workload, args.seconds, kernel, tracer)
        summary = summarize(workload, records)
        untraced_wall = sum(r["untraced_s"] for r in records)
        detected = (workloads.detected_true_path_ratio([r["data"] for r in records if r["data"]])
                    if args.workload == "estimation" else 0.0)
        metrics = tracing.per_layer_metrics(
            tracer.spans, summary["attempted"] * workload.trials_per_op, summary["op_wall_s"],
            untraced_wall, detected)
        result["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
        result["table"] = tracing.self_time_table(tracer.spans, summary["op_wall_s"])
        result["untraced_op_wall_s"] = untraced_wall
        if args.spans:
            tracer.write(args.spans)
    else:
        records = measure(workload, args.seconds, kernel)
        summary = summarize(workload, records)
    result.update(summary)
    result["pass_s"] = kernel.passes
    result["loop_speed"] = reference.speed_factor(float(np.mean(kernel.passes)))
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))


if __name__ == "__main__":
    main()

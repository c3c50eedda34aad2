"""Benchmark runner for the mmwave-backhaul simulator.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see README.md) from the root of a checkout.  Every
set-up happens in a fresh interpreter with ``OPENBLAS_NUM_THREADS`` and
``OMP_NUM_THREADS`` pinned to 1 and ``src/`` of this checkout on the
path: four set-up-only processes, then one that sets up and measures a
closed loop (one client, no worker pool) for ``--seconds``.  The
operations' outputs are checked as they complete.

Times are scaled to the host's nominal speed with a reference kernel
(``reference.py``) that the worker runs between operations, so that the
shared host's drift cancels; the wall-clock figures are printed and
stored beside them.  Prints every metric by name with its unit, writes
``benchmarks/out/BENCH_<workload>_seed<N>_trace<T>.json`` (and, traced,
the spans as JSON lines beside it), and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  Untraced runs report
the end-to-end metrics; traced runs (``--trace 1``) the per-layer ones.
Exits non-zero, printing no result, if the package or a process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
# The names of workloads.WORKLOADS, repeated so that this process never imports numpy.
WORKLOAD_NAMES = ("fig5_sweep", "ideal_capacity", "estimation", "rank_profile")
SETUPS = 5
# Every run, set-ups included, has to end well inside 180 s.
DEADLINE_S = 170.0
END_TO_END_UNITS = {"trials_per_s": "1/s", "setup_s": "s", "peak_rss_mib": "MiB"}


def _git_revision():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


class WorkerError(RuntimeError):
    pass


def _run_worker(args, tmp_dir, deadline, measure, spans_path=None):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=SRC, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--src", SRC, "--tmp", tmp_dir]
    if measure:
        command += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if spans_path:
            command += ["--spans", spans_path]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerError("out of time before starting a worker")
    command += ["--spawned-at", repr(time.monotonic())]
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker did not finish within {remaining:.0f} s") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise WorkerError(f"worker exited {done.returncode}")
    return json.loads(lines[-1])


def _print_metrics(title, metrics):
    print(title)
    for name, m in metrics.items():
        print(f"  {name:<52} {m['value']:>14.6g} {m['unit']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured wall time; the loop always runs at least one operation")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "mmwave_backhaul", "__init__.py")):
        print(f"run.py: no mmwave_backhaul package under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(OUT, exist_ok=True)
    label = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    spans_path = os.path.join(OUT, f"spans_{label}.jsonl") if args.trace else None
    tmp_dir = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    try:
        setups = [_run_worker(args, tmp_dir, deadline, measure=False)
                  for _ in range(SETUPS - 1)]
        result = _run_worker(args, tmp_dir, deadline, measure=True, spans_path=spans_path)
    except WorkerError as exc:
        print(f"run.py: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    setups.append(result)

    # Each set-up is scaled by the reference passes its own process ran
    # right after it; the loop by the passes interleaved with its operations.
    setup_scaled = [s["setup_s"] * s["setup_speed"] for s in setups]
    loop_speed = result["loop_speed"]
    trials_per_wall_s = result["trials"] / result["op_wall_s"]
    end_to_end = {
        "trials_per_s": trials_per_wall_s / loop_speed,
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mib": result["peak_rss_mib"],
    }
    end_to_end = {name: {"value": v, "unit": END_TO_END_UNITS[name]}
                  for name, v in end_to_end.items()}
    failed_fraction = result["failed"] / result["attempted"]
    metrics = result["metrics"] if args.trace else end_to_end

    report = {
        "label": label,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {**result["environment"], "git_revision": _git_revision(),
                        "nproc": os.cpu_count(), "cpu_model": _cpu_model()},
        "end_to_end": end_to_end,
        "failed_fraction": failed_fraction,
        "setup_s_samples": setup_scaled,
        "wall_clock": {"trials_per_s": trials_per_wall_s,
                       "setup_s": statistics.median(s["setup_s"] for s in setups),
                       "setup_s_samples": [s["setup_s"] for s in setups],
                       "setup_pass_s": [s["setup_pass_s"] for s in setups],
                       "loop_speed_factor": loop_speed},
        **{k: v for k, v in result.items()
           if k not in ("environment", "setup_s", "setup_pass_s", "setup_speed", "loop_speed",
                        "metrics")},
    }
    if args.trace:
        report["per_layer"] = result["metrics"]
        report["spans_file"] = os.path.basename(spans_path)
    results_path = os.path.join(OUT, f"BENCH_{label}.json")
    with open(results_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {result['attempted']}  trials {result['trials']}  "
          f"failed {result['failed']}/{result['attempted']} "
          f"(failed_fraction {failed_fraction:g}: {result['raised']} raised, "
          f"{result['wrong']} wrong results)")
    for failure in result["failures"]:
        print(f"  failed: {failure.strip()}")
    _print_metrics("end-to-end, at the host's nominal speed"
                   + (" (traced, not for comparison)" if args.trace else ""), end_to_end)
    print(f"wall clock: trials_per_s {trials_per_wall_s:.6g} 1/s, setup_s "
          f"{statistics.median(s['setup_s'] for s in setups):.6g} s, host speed factor "
          f"{loop_speed:.4g} in the loop")
    _print_metrics(f"quality (first {result['quality_ops']} ops)", result["quality"])
    if result["capacity_csv_sha256"]:
        print(f"capacity.csv sha256 of op 0: {result['capacity_csv_sha256'][0]}")
    if args.trace:
        print("self time by layer (traced operations)")
        for line in result["table"]:
            print("  " + line)
        _print_metrics("per-layer", result["metrics"])
    print(f"results: {os.path.relpath(results_path, ROOT)}")
    print(json.dumps({
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Smoke test of the benchmark harness: every workload at its minimum size.

    python3 benchmarks/smoke.py

For each workload ``run.py`` accepts, runs it untraced and traced with
``--seconds 0`` (the set-ups, then a single operation) and checks that
the last stdout line is the result object with exactly its four keys,
that its metrics are exactly those ``BENCHMARK.json`` lists for the
mode, each with a unit, and that the output checks ran on the operation.
Then feeds each workload's output check a deliberately wrong output and
checks that it is flagged.  Takes about a minute; exits 1 on the first
problem.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _fail(message):
    print(f"smoke: FAIL: {message}")
    sys.exit(1)


def check_runs(spec):
    # Every workload run.py accepts, including any BENCHMARK.json leaves out.
    sys.path.insert(0, HERE)
    from run import WORKLOAD_NAMES

    for workload in WORKLOAD_NAMES:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", "1", "--seconds", "0", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            if done.returncode != 0:
                _fail(f"{workload} trace {trace} exited {done.returncode}: {done.stderr}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if set(result) != RESULT_KEYS:
                _fail(f"{workload}: result keys {sorted(result)}")
            expected = {m["name"]: m["unit"] for m in spec[section]}
            units = {name: m.get("unit") for name, m in result["metrics"].items()}
            if units != expected:
                _fail(f"{workload} trace {trace}: metrics differ from BENCHMARK.json "
                      f"{section}: {sorted(set(units) ^ set(expected))} or units")
            if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
                _fail(f"{workload} trace {trace}: a metric value is not a number")
            if not (result["correct"] and result["attempted"] == 1 and result["failed"] == 0):
                _fail(f"{workload} trace {trace}: {result['attempted']} attempted, "
                      f"{result['failed']} failed, correct {result['correct']}")
            label = f"{workload}_seed1_trace{trace}"
            with open(os.path.join(HERE, "out", f"BENCH_{label}.json"), encoding="utf-8") as f:
                report = json.load(f)
            if report["quality_ops"] != 1 or not report["quality"]:
                _fail(f"{workload} trace {trace}: the output check produced no quality data")
            print(f"smoke: ok {workload} trace {trace} ({len(result['metrics'])} metrics)")


def check_output_checks():
    """Each workload's output check flags a wrong output."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np

    import workloads

    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "out")) as tmp:
        fig5 = workloads.Fig5Sweep(1, tmp)
        fig5.rows_per_op = 2
        out = os.path.join(tmp, "fig5")
        os.makedirs(out)
        with open(os.path.join(out, "capacity.csv"), "w", encoding="ascii") as f:
            f.write("scheme,allocation,snr_db,k_factor_db,trial,capacity_bpcu\n"
                    "hybrid_ideal,equal,20,0,0,10.5\n"
                    "hybrid_ideal,waterfilling,20,0,0,10\n")
        failures, _ = fig5.check(out)
        if not any("equal beats waterfilling" in f for f in failures):
            _fail(f"fig5_sweep check missed equal > waterfilling: {failures}")

        rank = workloads.RankProfile(1, tmp)
        rank.path_counts, rank.profile_length = range(1, 2), 3
        out = os.path.join(tmp, "rank")
        os.makedirs(out)
        with open(os.path.join(out, "rank_profile.csv"), "w", encoding="ascii") as f:
            f.write("l,index,mean_energy\n1,0,0.5\n1,1,0.6\n1,2,0\n")
        failures, _ = rank.check(out)
        if not any("non-increasing" in f for f in failures):
            _fail(f"rank_profile check missed an increasing profile: {failures}")

    class Report:
        reconstruction = np.full((2, 2), np.nan)
        training_slots_used = 1
        paired_paths = type("Paths", (), {"n_paths": 1})()

    failures, _ = workloads.Estimation(1, None).check((np.ones((2, 2)), Report.paired_paths,
                                                       Report()))
    if not failures:
        _fail("estimation check missed a non-finite NMSE")
    print("smoke: ok output checks flag wrong outputs")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    check_runs(spec)
    check_output_checks()
    print("smoke: PASS")


if __name__ == "__main__":
    main()

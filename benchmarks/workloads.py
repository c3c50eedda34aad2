"""The four benchmark workloads: inputs, one operation, output checks, quality.

A workload makes all of its measured inputs from the run seed through
``derive_seed``; the program only ever receives the derived values as a
``--seed`` argument or a ``master_seed``.  The warm-up trial of set-up
uses one fixed input, so that set-up time varies with the program and
the machine, not with the seed.  One operation is the unit the
closed loop times; ``trials_per_op`` converts operations into trials.
Quality figures are taken over the first ``quality_ops`` operations, so
at a given seed they repeat exactly whatever the machine speed.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import math
import os
import shutil
from collections import defaultdict

import numpy as np

from mmwave_backhaul import channel, cli, config, estimation, simulation

# Criterion 3 tolerance: equal power may not beat waterfilling by more.
WF_TOLERANCE = 1e-9
# Schemes designed on the true channel.  Waterfilling is only guaranteed
# not to lose to equal power on the design-side capacity, so for
# hybrid_estimated (designed on estimates, evaluated on the truth) equal
# power can win by a little; that gap is reported, not checked.
EXACT_CSI_SCHEMES = ("hybrid_ideal", "full_digital")
PROFILE_SUM_TOLERANCE = 1e-9
REPORT_SNR_DB = 20.0


def derive_seed(seed, *key) -> int:
    """Non-negative 63-bit seed determined by the run seed and a key."""
    digest = hashlib.sha256(repr((int(seed),) + key).encode("ascii")).digest()
    return int.from_bytes(digest[:8], "little") >> 1


class OperationFailed(RuntimeError):
    """The program reported a failure (a CLI exit code other than 0)."""


WARMUP_SEED = derive_seed(0, "warmup")


def _quiet_main(argv) -> None:
    # The subcommands print progress lines; keep them off the benchmark's
    # stdout, whose last line is the result.
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    if code != 0:
        raise OperationFailed(f"{argv[0]} exited {code}: {stderr.getvalue().strip()}")


def _sha256(path) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _read_csv(path):
    with open(path, newline="", encoding="ascii") as handle:
        return list(csv.DictReader(handle))


class Fig5Sweep:
    """``capacity-sweep --preset fig5`` through the CLI, one draw per operation."""

    name = "fig5_sweep"
    # 2 Rician factors x 2 allocations, each one K-user draw.
    trials_per_op = 4
    quality_ops = 2

    def __init__(self, seed, tmp_dir):
        self.seed = seed
        self.tmp_dir = tmp_dir

    def setup(self):
        scenarios = config.preset_scenarios("fig5", seed=WARMUP_SEED, trials=1)
        self.rows_per_op = sum(len(c.schemes) * len(c.snr_grid_db) * c.trials for c in scenarios)
        simulation.run_scenario(scenarios[0])

    def run_op(self, i):
        out = os.path.join(self.tmp_dir, f"op{i}")
        _quiet_main(["capacity-sweep", "--preset", "fig5", "--seed",
                     str(derive_seed(self.seed, i)), "--trials", "1", "--out", out])
        return out

    def check(self, out):
        failures = []
        path = os.path.join(out, "capacity.csv")
        if not os.path.exists(path):
            return ["capacity.csv was not written"], None
        rows = _read_csv(path)
        digest = _sha256(path)
        shutil.rmtree(out)
        if len(rows) != self.rows_per_op:
            failures.append(f"{len(rows)} rows, expected {self.rows_per_op}")
        values = {}
        for r in rows:
            value = float(r["capacity_bpcu"])
            if not math.isfinite(value) or value < 0:
                failures.append(f"capacity {value} is not finite and non-negative")
            values[(r["scheme"], r["allocation"], float(r["k_factor_db"]),
                    float(r["snr_db"]), int(r["trial"]))] = value
        for (scheme, allocation, k, snr, trial), value in values.items():
            if allocation != "equal" or scheme not in EXACT_CSI_SCHEMES:
                continue
            wf = values.get((scheme, "waterfilling", k, snr, trial))
            if wf is None:
                failures.append(f"no waterfilling row for {scheme} k={k} snr={snr}")
            elif value > wf + WF_TOLERANCE:
                failures.append(f"equal beats waterfilling by {value - wf:.3e} "
                                f"({scheme}, k={k}, snr={snr})")
        return failures, {"values": values, "sha256": digest}

    def quality(self, results):
        values = {}
        for i, result in enumerate(results):
            values.update({(s, a, k, snr, (i, t)): v
                           for (s, a, k, snr, t), v in result["values"].items()})
        return {**capacity_quality(values),
                "wf_equal_gap_max": (wf_equal_gap_max(values, EXACT_CSI_SCHEMES), "bpcu"),
                "wf_equal_gap_max_estimated": (
                    wf_equal_gap_max(values, ("hybrid_estimated",)), "bpcu"),
                "estimated_ideal_ratio": (
                    _mean(values, "hybrid_estimated", "waterfilling", REPORT_SNR_DB)
                    / _mean(values, "hybrid_ideal", "waterfilling", REPORT_SNR_DB), "ratio")}


class IdealCapacity:
    """``run_scenario`` on exact CSI: hybrid_ideal and full_digital, waterfilling."""

    name = "ideal_capacity"
    trials_per_op = 1
    quality_ops = 16

    def __init__(self, seed, tmp_dir):
        self.seed = seed

    def setup(self):
        scenarios = config.preset_scenarios("fig5", seed=WARMUP_SEED, trials=1)
        # One waterfilling scenario per Rician factor, estimation off.
        self.scenarios = [
            dataclasses.replace(c, schemes=("hybrid_ideal", "full_digital"), estimation=None)
            for c in scenarios if c.allocation == "waterfilling"
        ]
        self.rows_per_op = 2 * len(self.scenarios[0].snr_grid_db)
        simulation.run_scenario(self.scenarios[0])

    def run_op(self, i):
        cfg = dataclasses.replace(self.scenarios[i % len(self.scenarios)],
                                  master_seed=derive_seed(self.seed, i))
        return simulation.run_scenario(cfg)

    def check(self, result):
        failures = []
        if len(result.rows) != self.rows_per_op:
            failures.append(f"{len(result.rows)} rows, expected {self.rows_per_op}")
        values = {}
        for r in result.rows:
            if not math.isfinite(r.capacity_bpcu) or r.capacity_bpcu < 0:
                failures.append(f"capacity {r.capacity_bpcu} is not finite and non-negative")
            values[(r.scheme, r.allocation, r.k_factor_db, r.snr_db, r.trial)] = r.capacity_bpcu
        return failures, {"values": values}

    def quality(self, results):
        values = {}
        for i, result in enumerate(results):
            values.update({(s, a, k, snr, i): v for (s, a, k, snr, _), v in result["values"].items()})
        return capacity_quality(values)


class Estimation:
    """``estimate_channel`` on fresh oracles over fig5-law channels."""

    name = "estimation"
    trials_per_op = 1
    quality_ops = 32

    def __init__(self, seed, tmp_dir):
        self.seed = seed
        self.master_seed = derive_seed(seed)

    def setup(self):
        scenarios = [c for c in config.preset_scenarios("fig5") if c.allocation == "waterfilling"]
        cfg = scenarios[0]
        self.tx, self.rx = cfg.macro_geometry(), cfg.small_geometry()
        self.noise_var = simulation.observation_noise_var(cfg)
        self.est_cfg = dataclasses.replace(cfg.estimation, path_loss=cfg.path_loss)
        # Rician factors alternate 0 / 10 dB from one operation to the next.
        self.dists = [c.path_distribution() for c in scenarios]
        self._estimate(WARMUP_SEED, 0)

    def _estimate(self, master_seed, i):
        paths = channel.sample_paths(self.dists[i % len(self.dists)],
                                     simulation.derive_rng(master_seed, i, 0))
        h = channel.assemble_channel(self.tx, self.rx, paths)
        oracle = estimation.ChannelOracle(h, self.noise_var, simulation.derive_rng(master_seed, i, 1))
        report = estimation.estimate_channel(oracle, self.tx, self.rx, self.est_cfg)
        return h, paths, report

    def run_op(self, i):
        return self._estimate(self.master_seed, i)

    def check(self, payload):
        h, paths, report = payload
        nmse = float(np.linalg.norm(report.reconstruction - h) ** 2 / np.linalg.norm(h) ** 2)
        failures = [] if math.isfinite(nmse) else [f"NMSE {nmse} is not finite"]
        return failures, {"nmse": nmse, "slots": report.training_slots_used,
                          "detected": report.paired_paths.n_paths, "true": paths.n_paths}

    def quality(self, results):
        nmse = [r["nmse"] for r in results]
        return {
            "nmse_median": (float(np.median(nmse)), "ratio"),
            "nmse_mean": (float(np.mean(nmse)), "ratio"),
            "training_slots": (float(np.mean([r["slots"] for r in results])), "slots"),
            "detected_true_path_ratio": (detected_true_path_ratio(results), "ratio"),
        }


class RankProfile:
    """``rank-profile --preset fig2`` through the CLI."""

    name = "rank_profile"
    draws_per_path_count = 50
    quality_ops = 4

    def __init__(self, seed, tmp_dir):
        self.seed = seed
        self.tmp_dir = tmp_dir

    def setup(self):
        (cfg,) = config.preset_scenarios("fig2", seed=WARMUP_SEED)
        self.path_counts = range(cfg.l_min, cfg.l_max + 1)
        self.profile_length = min(cfg.n_ma, cfg.n_sm)
        self.trials_per_op = len(self.path_counts) * self.draws_per_path_count
        _quiet_main(["rank-profile", "--preset", "fig2", "--seed",
                     str(WARMUP_SEED), "--trials", "1",
                     "--out", os.path.join(self.tmp_dir, "warmup")])

    def run_op(self, i):
        out = os.path.join(self.tmp_dir, f"op{i}")
        _quiet_main(["rank-profile", "--preset", "fig2", "--seed", str(derive_seed(self.seed, i)),
                     "--trials", str(self.draws_per_path_count), "--out", out])
        return out

    def check(self, out):
        path = os.path.join(out, "rank_profile.csv")
        if not os.path.exists(path):
            return ["rank_profile.csv was not written"], None
        rows = _read_csv(path)
        shutil.rmtree(out)
        profiles = defaultdict(list)
        for r in rows:
            profiles[int(r["l"])].append((int(r["index"]), float(r["mean_energy"])))
        failures = []
        if sorted(profiles) != list(self.path_counts):
            failures.append(f"path counts {sorted(profiles)}")
        tails = {}
        for n_paths, entries in profiles.items():
            energy = np.array([e for _, e in sorted(entries)])
            if energy.size != self.profile_length or not np.all(np.isfinite(energy)):
                failures.append(f"L={n_paths}: {energy.size} finite entries expected "
                                f"{self.profile_length}")
                continue
            if np.any(np.diff(energy) > 0) or energy[-1] < 0:
                failures.append(f"L={n_paths}: profile is not non-increasing and non-negative")
            if abs(energy.sum() - 1.0) > PROFILE_SUM_TOLERANCE:
                failures.append(f"L={n_paths}: profile sums to {energy.sum()!r}")
            tails[n_paths] = float(energy[n_paths:].sum())
        return failures, {"tails": tails}

    def quality(self, results):
        return {"profile_tail_energy_max": (
            max(t for r in results for t in r["tails"].values()), "ratio")}


WORKLOADS = {w.name: w for w in (Fig5Sweep, IdealCapacity, Estimation, RankProfile)}


def _mean(values, scheme, allocation, snr, k_factor=None):
    return float(np.mean([v for (s, a, k, p, _), v in values.items()
                          if s == scheme and a == allocation and p == snr
                          and k_factor in (None, k)]))


def capacity_quality(values):
    """Mean hybrid_ideal waterfilling capacity at 20 dB, and the criterion-2
    ratio: min over Rician factor and SNR of mean hybrid_ideal / full_digital."""
    points = {(k, snr) for (_, a, k, snr, _) in values if a == "waterfilling"}
    ratio = min(_mean(values, "hybrid_ideal", "waterfilling", snr, k)
                / _mean(values, "full_digital", "waterfilling", snr, k) for k, snr in points)
    return {
        "hybrid_capacity_bpcu": (_mean(values, "hybrid_ideal", "waterfilling", REPORT_SNR_DB),
                                 "bpcu"),
        "hybrid_full_ratio_min": (ratio, "ratio"),
    }


def wf_equal_gap_max(values, schemes):
    """Criterion 3: max over points of equal minus waterfilling capacity."""
    return max(v - values[(s, "waterfilling", k, snr, t)]
               for (s, a, k, snr, t), v in values.items() if a == "equal" and s in schemes)


def detected_true_path_ratio(results):
    true = sum(r["true"] for r in results)
    return sum(r["detected"] for r in results) / true if true else 0.0

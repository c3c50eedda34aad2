"""End-to-end acceptance suite.

One test per release criterion, each enforcing its stated tolerance and
printing a PASS line with the measured numbers (visible under ``pytest -s``).
The heavy Monte Carlo runs are shared through module-scoped fixtures.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from mmwave_backhaul import (
    ArrayGeometry,
    ChannelOracle,
    EstimationConfig,
    PathDistribution,
    PathSet,
    ScenarioConfig,
    assemble_channel,
    derive_rng,
    estimate_channel,
    factorize,
    line_spectrum_estimate,
    mu_assemble,
    mu_digital_precoder,
    phase_project,
    run_scenario,
    sample_paths,
    singular_energy_profile,
    truncated_svd,
)
from mmwave_backhaul.precoding import allocate_power, equivalent_channel
from subprocess_env import child_env

MACRO = ArrayGeometry(512)
SMALL = ArrayGeometry(32)
SNR_GRID = tuple(float(s) for s in range(-10, 35, 5))
REFERENCE = dict(n_ma=512, n_sm=32, k_users=4, n_bb_ma=16, n_bb_sm=4)


def report(line):
    print(f"\n[acceptance] {line}")


@pytest.fixture(scope="module")
def capacity_runs():
    """100-trial reference runs for both Rician factors and allocations."""
    runs = {}
    elapsed = {}
    for k_factor in (0.0, 10.0):
        for allocation in ("waterfilling", "equal"):
            cfg = ScenarioConfig(
                k_factor_db=k_factor, snr_grid_db=SNR_GRID, trials=100,
                schemes=("hybrid_ideal", "full_digital"), allocation=allocation,
                master_seed=1, **REFERENCE,
            )
            start = time.perf_counter()
            runs[(k_factor, allocation)] = run_scenario(cfg)
            elapsed[(k_factor, allocation)] = time.perf_counter() - start
    return runs, elapsed


def test_criterion_1_low_rank_profile():
    start = time.perf_counter()
    top_energies = []
    for n_paths in range(1, 7):
        profile = singular_energy_profile(
            MACRO, SMALL, PathDistribution(n_paths, n_paths, 0.0), 1000,
            derive_rng(0, n_paths),
        )
        assert profile[n_paths:].sum() <= 1e-10, f"tail energy leaked at L={n_paths}"
        top_energies.append(profile[0])
    runtime = time.perf_counter() - start
    assert all(a > b for a, b in zip(top_energies, top_energies[1:])), top_energies
    assert runtime <= 120.0
    report(
        "criterion 1 PASS: tail beyond index L <= 1e-10; top-1 energy "
        + " > ".join(f"{e:.4f}" for e in top_energies)
        + f"; runtime {runtime:.1f}s <= 120s"
    )


def test_criterion_2_hybrid_near_full_digital(capacity_runs):
    runs, elapsed = capacity_runs
    worst = np.inf
    for k_factor in (0.0, 10.0):
        result = runs[(k_factor, "waterfilling")]
        for snr in SNR_GRID:
            ratio = (
                result.mean_capacity("hybrid_ideal", snr)
                / result.mean_capacity("full_digital", snr)
            )
            worst = min(worst, ratio)
            assert ratio >= 0.90, f"ratio {ratio:.4f} at snr={snr}, k_factor={k_factor}"
    runtime = elapsed[(0.0, "waterfilling")] + elapsed[(10.0, "waterfilling")]
    assert runtime <= 900.0
    report(
        f"criterion 2 PASS: min mean hybrid/full ratio {worst:.4f} >= 0.90 "
        f"over {len(SNR_GRID)} SNRs x 2 Rician factors; runtime {runtime:.0f}s <= 900s"
    )


def test_criterion_3_waterfilling_ordering(capacity_runs):
    runs, _ = capacity_runs
    worst_gap = -np.inf
    points = 0
    for k_factor in (0.0, 10.0):
        wf = {( r.scheme, r.snr_db, r.trial): r.capacity_bpcu
             for r in runs[(k_factor, "waterfilling")].rows}
        eq = {(r.scheme, r.snr_db, r.trial): r.capacity_bpcu
              for r in runs[(k_factor, "equal")].rows}
        for key, wf_capacity in wf.items():
            gap = eq[key] - wf_capacity
            worst_gap = max(worst_gap, gap)
            points += 1
            assert gap <= 1e-9, f"equal beats waterfilling by {gap:.3e} at {key}"
    report(
        f"criterion 3 PASS: waterfilling >= equal on all {points} points; "
        f"worst equal-minus-waterfilling gap {worst_gap:.3e} <= 1e-9"
    )


def test_criterion_4_estimation_approaches_ideal():
    base = dict(
        k_factor_db=0.0, snr_grid_db=(20.0,), trials=16, master_seed=42, **REFERENCE
    )
    ideal = run_scenario(
        ScenarioConfig(schemes=("hybrid_ideal",), **base)
    ).mean_capacity("hybrid_ideal", 20.0)
    means = {}
    for keep in (2, 4, 8):
        cfg = ScenarioConfig(
            schemes=("hybrid_estimated",), estimation=EstimationConfig(keep=keep), **base
        )
        means[keep] = run_scenario(cfg).mean_capacity("hybrid_estimated", 20.0)
    assert means[2] <= means[4] <= means[8], means
    assert means[8] >= 0.90 * ideal

    # Noiseless estimation with well-separated paths is essentially exact.
    rng = np.random.default_rng(11)
    while True:
        angles = rng.uniform(0, 2 * np.pi, (2, 3))
        if (np.min(np.diff(np.sort(np.sin(angles[0])))) >= 4.0 / 512
                and np.min(np.diff(np.sort(np.sin(angles[1])))) >= 2.0 / 32):
            break
    gains = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) / np.sqrt(6)
    h = assemble_channel(MACRO, SMALL, PathSet(gains=gains, aods=angles[0], aoas=angles[1]))
    rep = estimate_channel(
        ChannelOracle(h, 0.0, np.random.default_rng(0)), MACRO, SMALL, EstimationConfig()
    )
    nmse = np.linalg.norm(rep.reconstruction - h) ** 2 / np.linalg.norm(h) ** 2
    assert nmse <= 1e-6
    report(
        "criterion 4 PASS: mean capacity over probing budgets B=2/4/8 = "
        + "/".join(f"{means[b]:.1f}" for b in (2, 4, 8))
        + f" bpcu (non-decreasing), B=8 reaches {means[8] / ideal:.3f} of ideal "
        f"{ideal:.1f} (>= 0.90); noiseless NMSE {nmse:.2e} <= 1e-6"
    )


def test_criterion_5_factorization_quality():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng([13, seed])
        paths = sample_paths(PathDistribution(4, 4), rng)
        h = assemble_channel(MACRO, SMALL, paths)
        target = truncated_svd(h, 4).left.conj().T
        result = factorize(target)
        assert result.residual <= 0.1
        assert result.iterations_used <= 100
        first_analog = phase_project(target, result.modulus)
        first_digital = target @ np.linalg.pinv(first_analog)
        first = np.linalg.norm(target - first_digital @ first_analog) / np.linalg.norm(target)
        assert result.residual <= first + 1e-12
        worst = max(worst, result.residual)
    report(
        f"criterion 5 PASS: 100 rank-4 targets at 512x32 scale, worst relative "
        f"residual {worst:.2e} <= 0.1 within 100 iterations; returned iterate "
        f"never above the first"
    )


def _brute_force_waterfilling(gains, budget, step):
    grid = np.arange(0.0, budget + step / 2, step)
    best_value = -np.inf
    best = None
    g1, g2, g3 = gains
    for p1 in grid:
        p2 = grid[grid <= budget - p1 + 1e-15]
        p3 = budget - p1 - p2
        values = (
            np.log2(1 + p1 * g1) + np.log2(1 + p2 * g2) + np.log2(1 + np.maximum(p3, 0) * g3)
        )
        idx = int(np.argmax(values))
        if values[idx] > best_value:
            best_value = values[idx]
            best = (p1, p2[idx], p3[idx])
    return np.asarray(best)


def test_criterion_6_oracle_equivalences():
    # Waterfilling against an exhaustive grid search, three modes.
    step_report = []
    for gains, budget in (((4.0, 2.0, 1.0), 1.0), ((5.0, 1.3, 0.7), 2.0)):
        step = 1e-4 * budget
        brute = _brute_force_waterfilling(gains, budget, step)
        exact = allocate_power(gains, budget)
        deviation = np.max(np.abs(exact - brute))
        assert deviation <= 1e-4 * budget + step / 2
        step_report.append(deviation / budget)

    # Matrix-pencil exactness on length-32 snapshots with up to five tones.
    rng = np.random.default_rng(17)
    worst_tone = 0.0
    for _ in range(40):
        order = int(rng.integers(1, 6))
        freqs = np.sort(rng.uniform(-0.5, 0.49, order))
        while order > 1 and np.min(np.diff(freqs)) < 1.0 / 32:
            freqs = np.sort(rng.uniform(-0.5, 0.49, order))
        coefs = rng.uniform(0.5, 2.0, order) * np.exp(2j * np.pi * rng.uniform(0, 1, order))
        basis = np.exp(2j * np.pi * np.outer(np.arange(32), freqs)) / np.sqrt(32)
        spectrum = line_spectrum_estimate(basis @ coefs, 5, 1e-6)
        assert spectrum.order == order
        error = np.max(np.abs(np.sort(spectrum.frequencies) - freqs))
        assert error <= 1e-8
        worst_tone = max(worst_tone, error)

    # Exact factors diagonalize the equivalent channel.
    channels = []
    for seed in range(2):
        rng = np.random.default_rng([19, seed])
        channels.append(assemble_channel(
            ArrayGeometry(64), ArrayGeometry(16), sample_paths(PathDistribution(3, 3), rng)
        ))
    decs = [truncated_svd(h, 3) for h in channels]
    mu = mu_assemble(decs)
    p_a = mu.u_tilde.conj().T
    p_tilde_d = np.eye(6, dtype=complex)
    p_d, _ = mu_digital_precoder(p_tilde_d, p_a, mu.u_tilde)
    g = equivalent_channel(p_d, p_tilde_d, p_a, np.hstack(channels), mu.c_bar)
    off_energy = np.linalg.norm(g - np.diag(np.diag(g))) ** 2 / np.linalg.norm(g) ** 2
    assert off_energy <= 1e-18
    report(
        f"criterion 6 PASS: waterfilling within {max(step_report):.2e} of the "
        f"grid-search optimum; pencil error {worst_tone:.2e} <= 1e-8 over 40 "
        f"snapshots; exact-factor off-diagonal energy {off_energy:.2e} <= 1e-18"
    )


def test_criterion_7_cli_determinism(tmp_path):
    outputs = []
    for run_dir in ("first", "second"):
        out = tmp_path / run_dir
        proc = subprocess.run(
            [sys.executable, "-m", "mmwave_backhaul", "capacity-sweep",
             "--preset", "fig5", "--seed", "42", "--trials", "10", "--out", str(out)],
            capture_output=True, text=True, timeout=1800, env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((out / "capacity.csv").read_bytes())
    assert outputs[0] == outputs[1]
    n_rows = len(outputs[0].splitlines()) - 1
    report(
        f"criterion 7 PASS: two capacity-sweep runs (preset fig5, seed 42, "
        f"10 trials) produced byte-identical CSVs ({n_rows} rows)"
    )

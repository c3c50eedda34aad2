import dataclasses

import numpy as np
import pytest

from mmwave_backhaul import (
    ArrayGeometry,
    ChannelOracle,
    Codebook,
    EstimationConfig,
    EstimationFailedError,
    InsufficientMeasurementsError,
    PathDistribution,
    PathSet,
    array_snapshot,
    assemble_channel,
    coarse_sweep,
    dft_codebook,
    estimate_channel,
    estimate_gains,
    line_spectrum_estimate,
    sample_paths,
    steering_matrix,
    steering_vector,
)
from mmwave_backhaul import config, estimation, simulation

MACRO = ArrayGeometry(512)
SMALL = ArrayGeometry(32)


def fig5_draws(count, seed, **arrays):
    # Noisy fig5 estimation inputs: (h, fresh oracle, estimation config) per
    # draw, alternating the preset's Rician factors.  `arrays` overrides the
    # scenario's n_ma, n_sm, k_users and chains, with critically sampled
    # codebooks on the new arrays.
    scenarios = [c for c in config.preset_scenarios("fig5") if c.allocation == "waterfilling"]
    if arrays:
        scenarios = [dataclasses.replace(c, **arrays, estimation=dataclasses.replace(
            c.estimation, l_ma=arrays["n_ma"], l_sm=arrays["n_sm"])) for c in scenarios]
    tx, rx = scenarios[0].macro_geometry(), scenarios[0].small_geometry()
    for i in range(count):
        cfg = scenarios[i % len(scenarios)]
        paths = sample_paths(cfg.path_distribution(), simulation.derive_rng(seed, i, 0))
        h = assemble_channel(tx, rx, paths)
        oracle = ChannelOracle(h, simulation.observation_noise_var(cfg),
                               simulation.derive_rng(seed, i, 1))
        yield h, oracle, cfg.estimation


def separated_angles(rng, count, min_sin_gap):
    while True:
        angles = rng.uniform(0, 2 * np.pi, count)
        sines = np.sort(np.sin(angles))
        if count == 1 or np.min(np.diff(sines)) >= min_sin_gap:
            return angles


def separated_paths(seed, count, tx=MACRO, rx=SMALL):
    rng = np.random.default_rng(seed)
    aods = separated_angles(rng, count, 4.0 / tx.n_elements)
    aoas = separated_angles(rng, count, 2.0 / rx.n_elements)
    gains = (rng.standard_normal(count) + 1j * rng.standard_normal(count)) / np.sqrt(2 * count)
    return PathSet(gains=gains, aods=aods, aoas=aoas)


class TestDftCodebook:
    def test_single_beam(self):
        cb = dft_codebook(ArrayGeometry(4), 1)
        assert cb.beams.shape == (4, 1)
        assert abs(np.linalg.norm(cb.beams[:, 0]) - 1.0) <= 1e-12

    def test_critical_sampling_orthogonal(self):
        cb = dft_codebook(ArrayGeometry(8), 8)
        gram = cb.beams.conj().T @ cb.beams
        assert np.max(np.abs(gram - np.eye(8))) <= 1e-10

    def test_sizes_and_angle_range(self):
        cb = dft_codebook(MACRO, 64)
        assert cb.beams.shape == (512, 64)
        assert np.all(cb.angles >= 0) and np.all(cb.angles < 2 * np.pi)
        # Beam directions cover sin-space uniformly.
        sines = np.sin(cb.angles)
        np.testing.assert_allclose(np.sort(sines), -1 + (2 * np.arange(64) + 1) / 64, atol=1e-12)

    def test_cached_arrays_are_shared_read_only(self):
        first, second = dft_codebook(ArrayGeometry(16), 16), dft_codebook(ArrayGeometry(16), 16)
        assert first is not second
        assert first.beams is second.beams and first.angles is second.angles
        for array in (first.beams, first.angles):
            with pytest.raises(ValueError):
                array[0] = 0
        assert dft_codebook(ArrayGeometry(17), 16).beams is not first.beams

    def test_codebook_is_its_shape(self):
        cb = dft_codebook(ArrayGeometry(16), 4)
        assert cb == Codebook(16, 4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cb.size = 8
        for size in (0, -1):
            with pytest.raises(ValueError, match="size"):
                Codebook(16, size)
            with pytest.raises(ValueError, match="size"):
                dft_codebook(ArrayGeometry(16), size)

    def test_sweep_does_not_depend_on_the_cache(self):
        # A codebook observed again after four other shapes have been built
        # (and its cached arrays evicted) gives the same bits.
        tx, rx = ArrayGeometry(64), ArrayGeometry(8)
        tx_cb, rx_cb = dft_codebook(tx, 48), dft_codebook(rx, 6)
        h = assemble_channel(tx, rx, separated_paths(25, 3, tx, rx))
        oracle = ChannelOracle(h, 0.0, np.random.default_rng(26))
        first = oracle.observe(tx_cb, rx_cb)
        for size in (8, 16, 24, 32):
            assert dft_codebook(tx, size).beams.shape == (64, size)
        assert np.array_equal(oracle.observe(tx_cb, rx_cb), first)


class TestCoarseSweep:
    def best_powers(self, h, tx_cb, rx_cb):
        # Brute-force best received power of each transmit beam.
        return (np.abs(rx_cb.beams.conj().T @ h.conj().T @ tx_cb.beams) ** 2).max(axis=0)

    def test_on_grid_path_wins(self):
        tx_cb = dft_codebook(ArrayGeometry(8), 8)
        rx_cb = dft_codebook(ArrayGeometry(4), 4)
        paths = PathSet(gains=[1.0], aods=[tx_cb.angles[5]], aoas=[rx_cb.angles[2]])
        h = assemble_channel(ArrayGeometry(8), ArrayGeometry(4), paths)
        assert coarse_sweep(h, tx_cb, rx_cb, 0.0, 3, np.random.default_rng(0))[0] == 5

    def test_matches_brute_force_argmax(self):
        rng = np.random.default_rng(1)
        paths = sample_paths(PathDistribution(3, 3), rng)
        h = assemble_channel(ArrayGeometry(16), ArrayGeometry(8), paths)
        tx_cb = dft_codebook(ArrayGeometry(16), 16)
        rx_cb = dft_codebook(ArrayGeometry(8), 8)
        beams = coarse_sweep(h, tx_cb, rx_cb, 0.0, 1, np.random.default_rng(2))
        assert beams == [int(np.argmax(self.best_powers(h, tx_cb, rx_cb)))]

    def test_keep_truncation(self):
        h = assemble_channel(ArrayGeometry(8), ArrayGeometry(4), separated_paths(3, 2, ArrayGeometry(8), ArrayGeometry(4)))
        tx_cb = dft_codebook(ArrayGeometry(8), 6)
        rx_cb = dft_codebook(ArrayGeometry(4), 4)
        best = self.best_powers(h, tx_cb, rx_cb)
        for keep in (1, 5, 100):
            beams = coarse_sweep(h, tx_cb, rx_cb, 0.0, keep, np.random.default_rng(4))
            assert len(beams) == len(set(beams)) == min(keep, 6)
            powers = list(best[beams])
            assert powers == sorted(powers, reverse=True)

    def test_is_the_pipelines_phase_one(self, monkeypatch):
        # On the same noisy oracle stream, the pipeline's phase-2 snapshots
        # go out along exactly the beams coarse_sweep returns, in order.
        cfg = EstimationConfig(l_ma=128, l_sm=16, keep=5)
        h = assemble_channel(MACRO, SMALL, separated_paths(17, 4))
        probed = []
        observe = ChannelOracle.observe

        def recording(self, tx, rx):
            if rx is None:  # a receive-array snapshot
                probed.append(tx)
            return observe(self, tx, rx)

        monkeypatch.setattr(ChannelOracle, "observe", recording)
        estimate_channel(ChannelOracle(h, 0.01, np.random.default_rng(18)), MACRO, SMALL, cfg)
        tx_cb, rx_cb = dft_codebook(MACRO, cfg.l_ma), dft_codebook(SMALL, cfg.l_sm)
        beams = coarse_sweep(h, tx_cb, rx_cb, 0.01, cfg.keep, np.random.default_rng(18))
        assert len(probed) == len(beams) == cfg.keep
        for beam, index in zip(probed, beams):
            assert np.array_equal(beam, tx_cb.beams[:, index])


class TestCodebookSweep:
    @pytest.mark.parametrize("n, size", [(512, 512), (512, 128), (64, 48), (8, 6), (4, 8)])
    def test_matches_dense_beams(self, n, size):
        # A Codebook at either end is applied by FFT, folded where the size
        # does not divide the array, and matches the product with its beams
        # up to rounding (the beams themselves go through arcsin and sin).
        geom = ArrayGeometry(n)
        cb = dft_codebook(geom, size)
        rng = np.random.default_rng(n + size)
        h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        oracle = ChannelOracle(h, 0.0, rng)
        h_herm = h.conj().T
        for tx, rx, dense in ((cb, cb, cb.beams.conj().T @ h_herm @ cb.beams),
                              (cb, None, h_herm @ cb.beams),
                              (None, cb, cb.beams.conj().T @ h_herm)):
            got = oracle.observe(tx, rx)
            assert got.shape == dense.shape
            np.testing.assert_allclose(got, dense, rtol=0, atol=1e-11 * np.max(np.abs(dense)))

    def test_kept_beams_match_dense_ranking(self):
        # On noisy fig5 draws, the FFT sweep keeps the beams, in order, that
        # the same noise added to the dense product keeps.
        for h, oracle, cfg in fig5_draws(50, 2701):
            tx_cb = dft_codebook(MACRO, cfg.l_ma)
            rx_cb = dft_codebook(SMALL, cfg.l_sm)
            state = oracle._rng.bit_generator.state
            kept = estimation._strongest_tx_beams(oracle, tx_cb, rx_cb, cfg.keep)
            oracle._rng.bit_generator.state = state
            dense = (np.abs(oracle.observe(tx_cb.beams, rx_cb.beams)) ** 2).max(axis=0)
            assert kept == list(np.argsort(-dense, kind="stable")[:cfg.keep])

    def test_draws_the_noise_of_its_result(self):
        # The sweep's noise is one real and one imaginary block over its
        # (l_sm, l_ma) result: 2 * l_sm * l_ma normals, no more.
        tx_cb, rx_cb = dft_codebook(ArrayGeometry(64), 48), dft_codebook(ArrayGeometry(8), 6)
        h = assemble_channel(ArrayGeometry(64), ArrayGeometry(8),
                             separated_paths(21, 2, ArrayGeometry(64), ArrayGeometry(8)))
        swept, drawn = np.random.default_rng(22), np.random.default_rng(22)
        values = ChannelOracle(h, 0.1, swept).observe(tx_cb, rx_cb)
        assert values.shape == (6, 48)
        drawn.standard_normal(2 * 6 * 48)
        assert swept.bit_generator.state == drawn.bit_generator.state


class TestArraySnapshot:
    def test_full_chain_count_single_slot(self):
        h = assemble_channel(ArrayGeometry(16), ArrayGeometry(8), separated_paths(5, 2, ArrayGeometry(16), ArrayGeometry(8)))
        beam = steering_vector(ArrayGeometry(16), 0.3)
        snap, slots = array_snapshot(h, beam, ArrayGeometry(8), 8, 0.0, np.random.default_rng(0))
        assert slots == 1
        np.testing.assert_allclose(snap, h.conj().T @ beam, atol=1e-12)

    def test_chain_grouping_slot_count(self):
        paths = separated_paths(6, 2)
        h = assemble_channel(MACRO, SMALL, paths)
        beam = steering_vector(MACRO, 1.0)
        _, slots = array_snapshot(h, beam, SMALL, 4, 0.0, np.random.default_rng(1))
        assert slots == 8

    def test_single_path_snapshot_is_steering_vector(self):
        paths = PathSet(gains=[0.7 - 0.2j], aods=[0.4], aoas=[2.2])
        h = assemble_channel(ArrayGeometry(32), ArrayGeometry(16), paths)
        beam = steering_vector(ArrayGeometry(32), 0.4)
        snap, _ = array_snapshot(h, beam, ArrayGeometry(16), 4, 0.0, np.random.default_rng(2))
        reference = steering_vector(ArrayGeometry(16), 2.2)
        correlation = abs(reference.conj() @ snap) / (np.linalg.norm(snap))
        assert correlation >= 1.0 - 1e-10


    @pytest.mark.parametrize("n_tx, n_rx, n_chains, slots", [(512, 32, 4, 8), (64, 30, 4, 8),
                                                              (30, 8, 16, 1)])
    def test_is_one_observation(self, n_tx, n_rx, n_chains, slots):
        # A snapshot is one observe() call against the receive identity,
        # noise draws included, and costs ceil(n_rx / n_chains) slots.
        tx, rx = ArrayGeometry(n_tx), ArrayGeometry(n_rx)
        h = assemble_channel(tx, rx, separated_paths(11, 3, tx, rx))
        beam = steering_vector(tx, 0.7)
        for noise_var in (0.0, 0.3):
            streams = np.random.default_rng(12), np.random.default_rng(12)
            snap, used = array_snapshot(h, beam, rx, n_chains, noise_var, streams[0])
            expected = ChannelOracle(h, noise_var, streams[1]).observe(beam, None)
            assert expected.shape == (n_rx, 1)
            assert np.array_equal(snap, expected[:, 0])
            assert used == slots
            # Both leave their streams at the same point.
            assert streams[0].random() == streams[1].random()

    @pytest.mark.parametrize("n_tx, n_rx, n_chains, slots", [(512, 32, 4, 128), (64, 30, 4, 16),
                                                              (30, 8, 16, 2)])
    def test_transmit_side_observation(self, n_tx, n_rx, n_chains, slots):
        # observe(None, beam) samples the whole transmit array: the row
        # beam^H h^H, one per phase-3 snapshot, at ceil(n_tx / n_chains) slots.
        tx, rx = ArrayGeometry(n_tx), ArrayGeometry(n_rx)
        h = assemble_channel(tx, rx, separated_paths(11, 3, tx, rx))
        beam = steering_vector(rx, 0.7)
        oracle = ChannelOracle(h, 0.0, np.random.default_rng(0))
        row = oracle.observe(None, beam)
        assert row.shape == (1, n_tx)
        expected = beam.conj() @ h.conj().T
        np.testing.assert_allclose(row[0], expected, rtol=0, atol=1e-12 * np.max(np.abs(expected)))
        (probes, rows), _, used, _ = estimation._directions(oracle, [beam], False, tx, n_chains)
        assert np.array_equal(probes, beam[:, None])
        assert np.array_equal(rows, row)
        assert used == slots

    def test_rejects_zero_chains(self):
        h = np.ones((4, 4))
        with pytest.raises(ValueError):
            array_snapshot(h, np.ones(4), ArrayGeometry(4), 0, 0.0, np.random.default_rng(0))

    @pytest.mark.parametrize("noise_var", [-1.0, np.nan, np.inf])
    def test_rejects_bad_noise_var(self, noise_var):
        # The oracle's check covers every measurement built on it.
        geom, h = ArrayGeometry(4), np.ones((4, 4))
        cb = dft_codebook(geom, 4)
        rng = np.random.default_rng(0)
        for call in (lambda: ChannelOracle(h, noise_var, rng),
                     lambda: coarse_sweep(h, cb, cb, noise_var, 1, rng),
                     lambda: array_snapshot(h, np.ones(4), geom, 1, noise_var, rng)):
            with pytest.raises(ValueError, match="noise_var"):
                call()


class TestLineSpectrum:
    def synth(self, freqs, coefs, n):
        basis = np.exp(2j * np.pi * np.outer(np.arange(n), freqs)) / np.sqrt(n)
        return basis @ np.asarray(coefs, dtype=complex)

    def test_single_tone(self):
        snap = self.synth([0.123], [1.0 - 0.5j], 16)
        spec = line_spectrum_estimate(snap, 4, 1e-6)
        assert spec.order == 1
        assert abs(spec.frequencies[0] - 0.123) <= 1e-9

    def test_constant_snapshot(self):
        n = 16
        spec = line_spectrum_estimate(np.full(n, 2.0 + 1.0j), 4, 1e-6)
        assert spec.order == 1
        assert abs(spec.frequencies[0]) <= 1e-12
        np.testing.assert_allclose(spec.coefficients[0], (2.0 + 1.0j) * np.sqrt(n), atol=1e-9)

    def test_two_tones_exact(self):
        snap = self.synth([0.10, 0.25], [1.0, 0.8j], 16)
        spec = line_spectrum_estimate(snap, 4, 1e-8)
        assert spec.order == 2
        np.testing.assert_allclose(np.sort(spec.frequencies), [0.10, 0.25], atol=1e-8)
        assert spec.residual <= 1e-10

    def test_pencil_exactness_up_to_bound(self):
        # Noiseless sums of well-separated exponentials are recovered
        # exactly for orders up to len(snapshot)//2 - 1.
        rng = np.random.default_rng(7)
        n = 32
        for _ in range(40):
            order = int(rng.integers(1, 6))
            freqs = np.sort(rng.uniform(-0.5, 0.49, order))
            while order > 1 and np.min(np.diff(freqs)) < 1.0 / n:
                freqs = np.sort(rng.uniform(-0.5, 0.49, order))
            coefs = rng.uniform(0.5, 2.0, order) * np.exp(2j * np.pi * rng.uniform(0, 1, order))
            snap = self.synth(freqs, coefs, n)
            spec = line_spectrum_estimate(snap, 5, 1e-6)
            assert spec.order == order
            np.testing.assert_allclose(np.sort(spec.frequencies), freqs, atol=1e-8)
            assert spec.residual <= 1e-9 * np.linalg.norm(snap)

    def test_steering_vector_frequency_convention(self):
        geom = ArrayGeometry(24)
        angle = 2.0
        spec = line_spectrum_estimate(steering_vector(geom, angle), 3, 1e-6)
        assert abs(spec.frequencies[0] - 0.5 * np.sin(angle)) <= 1e-9

    def test_frequencies_in_range(self):
        rng = np.random.default_rng(8)
        snap = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        spec = line_spectrum_estimate(snap, 8, 1e-3)
        assert np.all(spec.frequencies >= -0.5) and np.all(spec.frequencies < 0.5)

    def test_order_cap_and_errors(self):
        snap = self.synth([0.1, 0.2, 0.3], [1, 1, 1], 16)
        spec = line_spectrum_estimate(snap, 2, 1e-8)
        assert spec.order == 2
        with pytest.raises(ValueError):
            line_spectrum_estimate(snap, 9, 1e-6)
        with pytest.raises(ValueError):
            line_spectrum_estimate(snap[:3], 1, 1e-6)
        # An order below 1 is refused too, at a dense (32) and a Lanczos (512) length.
        for n in (32, 512):
            for order in (-1, 0):
                with pytest.raises(ValueError, match="max_order"):
                    line_spectrum_estimate(np.ones(n, dtype=complex), order, 1e-6)

    def test_rank_threshold_range(self):
        # One tone in noise, 512 elements: a threshold of 0 keeps every
        # singular value up to the cap, 1 keeps only the largest.
        rng = np.random.default_rng(0)
        snap = self.synth([0.123], [1.0], 512) + 0.01 * (
            rng.standard_normal(512) + 1j * rng.standard_normal(512))
        assert line_spectrum_estimate(snap, 8, 0.0).order == 8
        assert line_spectrum_estimate(snap, 8, 1.0).order == 1
        for threshold in (1.5, np.nan, -0.5, np.inf):
            with pytest.raises(ValueError, match="rank_threshold"):
                line_spectrum_estimate(snap, 8, threshold)


class TestTruncatedPencil:
    """The n=512 pencil takes its leading triplets from a short Lanczos run."""

    n = 512

    def synth(self, freqs, coefs):
        basis = np.exp(2j * np.pi * np.outer(np.arange(self.n), freqs)) / np.sqrt(self.n)
        return basis @ np.asarray(coefs, dtype=complex)

    def dense_reference(self, snapshot, max_order, rank_threshold):
        # The pencil's order rule and shift-invariance step on a full SVD.
        pencil = self.n // 2
        rows = self.n - pencil
        hankel = snapshot[np.arange(rows)[:, None] + np.arange(pencil + 1)[None, :]]
        u, s, _ = np.linalg.svd(hankel, full_matrices=False)
        order = min(int(np.sum(s >= rank_threshold * s[0])), max_order, rows - 1)
        subspace = u[:, :order]
        roots = np.linalg.eigvals(np.linalg.pinv(subspace[:-1]) @ subspace[1:])
        freqs = np.sort(np.mod(np.angle(roots) / (2.0 * np.pi) + 0.5, 1.0) - 0.5)
        return order, freqs, s[order] / s[order - 1]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("order", range(1, 9))
    def test_noiseless_exponentials_exact(self, order):
        rng = np.random.default_rng(100 + order)
        freqs = np.sort(rng.uniform(-0.5, 0.49, order))
        while order > 1 and np.min(np.diff(freqs)) < 4.0 / self.n:
            freqs = np.sort(rng.uniform(-0.5, 0.49, order))
        coefs = rng.uniform(0.5, 2.0, order) * np.exp(2j * np.pi * rng.uniform(0, 1, order))
        snap = self.synth(freqs, coefs)
        spec = line_spectrum_estimate(snap, 8, 1e-6)
        assert spec.order == order
        np.testing.assert_allclose(np.sort(spec.frequencies), freqs, atol=1e-8)
        assert spec.residual <= 1e-9 * np.linalg.norm(snap)

    @pytest.mark.filterwarnings("error")
    def test_zero_and_low_rank_return_cleanly(self):
        # The Lanczos run stops when its next vector vanishes: at once for
        # a zero snapshot, after one and two steps for exactly rank-one
        # and rank-two Hankels.
        spec = line_spectrum_estimate(np.zeros(self.n, dtype=complex), 8, 1e-2)
        assert spec.order == 0 and spec.residual == 0.0
        # Zero first half: the Hankel's first row vanishes, the matrix does not.
        tail = np.zeros(self.n, dtype=complex)
        tail[self.n // 2 + 1:] = self.synth([0.3], [1.0])[self.n // 2 + 1:]
        assert line_spectrum_estimate(tail, 8, 1e-2).order >= 1
        snap = self.synth([-0.2], [0.4 + 0.3j])
        spec = line_spectrum_estimate(snap, 8, 1e-2)
        assert spec.order == 1
        assert abs(spec.frequencies[0] + 0.2) <= 1e-12
        np.testing.assert_allclose(spec.coefficients, [0.4 + 0.3j], atol=1e-12)
        spec = line_spectrum_estimate(self.synth([-0.2, 0.1], [0.4, 1j]), 8, 1e-2)
        assert spec.order == 2
        np.testing.assert_allclose(spec.frequencies, [-0.2, 0.1], atol=1e-12)

    def near_cut_snapshot(self):
        # Three tones in a noise cluster that straddles the 1e-2 cut.
        rng = np.random.default_rng([77, 88])
        tones = int(rng.integers(1, 4))
        freqs = rng.uniform(-0.5, 0.5, tones)
        coefs = rng.uniform(0.5, 1.0, tones) * np.exp(2j * np.pi * rng.uniform(0, 1, tones))
        snap = self.synth(freqs, coefs)
        return snap + 0.0027 * (rng.standard_normal(self.n) + 1j * rng.standard_normal(self.n))

    def test_order_near_the_cut_matches_dense_svd(self):
        # 32 Lanczos steps put 6 Ritz values above the cut where the dense
        # SVD has 7 singular values.  The first Ritz value below the cut
        # lies within its residual bound of it, so the order is left to
        # the dense SVD.
        snap = self.near_cut_snapshot()
        order, dense_freqs, _ = self.dense_reference(snap, 8, 1e-2)
        spec = line_spectrum_estimate(snap, 8, 1e-2)
        assert spec.lanczos_steps == 0
        assert spec.order == order == 7
        np.testing.assert_allclose(np.sort(spec.frequencies), dense_freqs, atol=1e-12)

    def noisy_snapshots(self):
        # Phase-3 transmit-array snapshots at 20 dB, one per true arrival
        # direction of 8 channel draws (34 snapshots).  These fixed inputs
        # keep their noise layout: one real and one imaginary block of 16
        # draws per group of 16 elements.
        for trial in range(8):
            rng = np.random.default_rng([40, trial])
            paths = sample_paths(PathDistribution(2, 6), rng)
            h_herm = assemble_channel(MACRO, SMALL, paths).conj().T
            noise_rng = np.random.default_rng([41, trial])
            for aoa in paths.aoas:
                draws = noise_rng.standard_normal((512 // 16, 2, 16))
                noise = (draws[:, 0] + 1j * draws[:, 1]).ravel()
                raw = steering_vector(SMALL, aoa).conj() @ h_herm + np.sqrt(0.01 / 2.0) * noise
                yield raw.conj()

    def test_noisy_snapshots_match_dense_svd(self):
        # The pencil's order must equal the dense SVD's, and its
        # frequencies must agree wherever the kept subspace is well
        # separated from the next singular value.  Most runs stop before
        # their 32-step depth.
        compared, steps = 0, []
        for snap in self.noisy_snapshots():
            spec = line_spectrum_estimate(snap, 8, 1e-2)
            order, freqs, gap = self.dense_reference(snap, 8, 1e-2)
            assert spec.order == order
            steps.append(spec.lanczos_steps)
            if gap < 0.9:
                np.testing.assert_allclose(np.sort(spec.frequencies), freqs, atol=1e-8)
                compared += 1
        assert compared >= 10
        assert 0 not in steps
        assert sum(k < 32 for k in steps) >= 0.6 * len(steps)

    def test_stack_rows_match_lone_runs(self):
        # Rows that stop at different depths, and rows that run all 32
        # steps, share lockstep runs in stacks of 1 to 8.  Each row keeps
        # its lone run's stop depth, order and singular triplets, and its
        # lone fit bit for bit.
        snaps = np.array(list(self.noisy_snapshots()))
        lone = [estimation._golub_kahan_lanczos(snap[None], 256, 32, 8, 1e-2)[0] for snap in snaps]
        lone_specs = [line_spectrum_estimate(snap, 8, 1e-2) for snap in snaps]
        assert {s.size for s, _, _ in lone} >= {8, 12, 32}
        for size in (1, 3, 8):
            for first in range(0, len(snaps), size):
                stack = snaps[first:first + size]
                runs = estimation._golub_kahan_lanczos(stack, 256, 32, 8, 1e-2)
                specs = line_spectrum_estimate(stack, 8, 1e-2)
                assert len(runs) == len(specs) == len(stack)
                for b, ((s, u, _), spec) in enumerate(zip(runs, specs)):
                    want_s, want_u, _ = lone[first + b]
                    assert s.size == want_s.size and u.shape == want_u.shape
                    np.testing.assert_allclose(s, want_s, rtol=1e-12)
                    np.testing.assert_allclose(u, want_u, rtol=0, atol=1e-12)
                    alone = lone_specs[first + b]
                    assert spec.lanczos_steps == alone.lanczos_steps
                    assert np.array_equal(spec.frequencies, alone.frequencies)
                    assert np.array_equal(spec.coefficients, alone.coefficients)
                    assert spec.residual == alone.residual

    def test_stack_of_one_is_the_single_call(self):
        for snap in list(self.noisy_snapshots())[:6]:
            single = line_spectrum_estimate(snap, 8, 1e-2)
            (stacked,) = line_spectrum_estimate(snap[None], 8, 1e-2)
            assert np.array_equal(stacked.frequencies, single.frequencies)
            assert np.array_equal(stacked.coefficients, single.coefficients)
            assert stacked.residual == single.residual
            assert stacked.lanczos_steps == single.lanczos_steps

    def test_closed_form_shift_matches_pinv(self):
        # The shift step on the kept left vectors of the noisy snapshots,
        # from their Lanczos runs and from dense SVDs, at every order up to
        # 8, one member at a time and as one stack per order.
        snaps = np.array(list(self.noisy_snapshots()))
        hankels = snaps[:, np.arange(256)[:, None] + np.arange(257)[None, :]]
        lefts = [u for _, u, _ in estimation._golub_kahan_lanczos(snaps, 256, 32, 8, 1e-2)]
        lefts += list(np.linalg.svd(hankels, full_matrices=False)[0][:, :, :8])
        for order in range(1, 9):
            stack = np.stack([u[:, :order] for u in lefts if u.shape[1] >= order])
            stacked = estimation._shift_operator(stack)
            for u, got in zip(stack, stacked):
                want = np.linalg.pinv(u[:-1]) @ u[1:]
                np.testing.assert_allclose(estimation._shift_operator(u[None])[0], want,
                                           rtol=0, atol=1e-12)
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert len(stack) == len(lefts) == 2 * len(snaps)

    def test_shift_step_falls_back_to_pinv(self):
        # Orthonormal columns whose last row holds almost all of the first
        # column's energy: 1 - |w|^2 is below the cut, so the member takes
        # pinv, bit for bit, alone and between two ordinary members.
        rng = np.random.default_rng(12)
        for rows, order in ((256, 3), (16, 2), (256, 8)):
            a = rng.standard_normal((rows, order)) + 1j * rng.standard_normal((rows, order))
            a[:, 0] *= 1e-3
            a[-1, 0] = 1.0
            u = np.linalg.qr(a)[0]
            assert 1.0 - np.linalg.norm(u[-1]) ** 2 < estimation._SHIFT_CUT
            ordinary = np.linalg.qr(rng.standard_normal((rows, order)))[0].astype(complex)
            want = np.linalg.pinv(u[:-1]) @ u[1:]
            assert np.array_equal(estimation._shift_operator(u[None])[0], want)
            assert np.array_equal(estimation._shift_operator(np.stack([ordinary, u, ordinary]))[1],
                                  want)

    def test_collapsed_row_leaves_its_group(self, monkeypatch):
        # A shift operator with a repeated eigenvalue in one row: that row
        # is fitted at its lower order, by least squares on its own
        # frequencies, and the other rows keep their lone fits.
        snaps = list(self.noisy_snapshots())
        lone = [line_spectrum_estimate(snap, 8, 1e-2) for snap in snaps]
        orders = [spec.order for spec in lone]
        order = max(set(orders), key=orders.count)
        group = [(snap, spec) for snap, spec in zip(snaps, lone) if spec.order == order][:4]
        assert len(group) >= 3
        shift = estimation._shift_operator

        def repeated(left):
            shifts = shift(left)
            if len(left) > 1:
                roots = np.exp(2j * np.pi * np.linspace(-0.4, 0.4, left.shape[2]))
                roots[1] = roots[0]
                shifts[1] = np.diag(roots)
            return shifts

        monkeypatch.setattr(estimation, "_shift_operator", repeated)
        specs = line_spectrum_estimate(np.array([snap for snap, _ in group]), 8, 1e-2)
        assert specs[1].order == order - 1
        basis = np.exp(2j * np.pi * np.outer(np.arange(self.n), specs[1].frequencies))
        want = np.linalg.lstsq(basis / np.sqrt(self.n), group[1][0], rcond=None)[0]
        np.testing.assert_allclose(specs[1].coefficients, want, rtol=1e-12)
        for b in [0] + list(range(2, len(group))):
            assert np.array_equal(specs[b].frequencies, group[b][1].frequencies)
            assert np.array_equal(specs[b].coefficients, group[b][1].coefficients)

    @pytest.mark.filterwarnings("error")
    def test_degenerate_rows_in_a_stack(self):
        # A zero snapshot (no Lanczos run), an exactly rank-two Hankel
        # (breakdown after two steps), a near-cut row (dense fallback) and
        # an ordinary noisy row: each comes back as it would alone.
        rows = [np.zeros(self.n, dtype=complex), self.synth([-0.2, 0.1], [0.4, 1j]),
                self.near_cut_snapshot(), next(self.noisy_snapshots())]
        specs = line_spectrum_estimate(np.array(rows), 8, 1e-2)
        assert [spec.lanczos_steps for spec in specs[:3]] == [0, 2, 0]
        assert specs[0].order == 0 and specs[0].residual == 0.0
        for row, spec in zip(rows, specs):
            alone = line_spectrum_estimate(row, 8, 1e-2)
            assert spec.order == alone.order
            assert spec.lanczos_steps == alone.lanczos_steps
            np.testing.assert_allclose(spec.frequencies, alone.frequencies, rtol=0, atol=1e-12)
            np.testing.assert_allclose(spec.coefficients, alone.coefficients, rtol=1e-12, atol=1e-15)

    def test_lanczos_depth_zero_where_dense_by_design(self):
        # The depth 4 * 8 = 32 runs only below the Hankel's n - n // 2 rows.
        assert [estimation._lanczos_depth(n) for n in (32, 64, 65, 512)] == [0, 0, 32, 32]
        assert estimation._lanczos_depth(64, 4) == 16
        for n, lanczos in ((64, False), (65, True)):
            basis = np.exp(2j * np.pi * np.outer(np.arange(n), [0.1, 0.3]))
            spec = line_spectrum_estimate(basis @ np.array([1.0, 0.5]), 8, 1e-2)
            assert spec.order == 2
            assert (spec.lanczos_steps > 0) == lanczos

    def test_early_stop_is_the_run_of_that_depth(self, monkeypatch):
        # A row that stops at depth k returns bit for bit what a stacked
        # run capped at k steps, with the stopping rule off, returns.
        snaps = np.array(list(self.noisy_snapshots()))
        runs = estimation._golub_kahan_lanczos(snaps, 256, 32, 8, 1e-2)
        stopped = [(snap, run) for snap, run in zip(snaps, runs) if run[0].size < 32]
        depths = sorted({run[0].size for _, run in stopped})
        assert len(stopped) >= 20
        assert set(depths) >= {8, 12}
        monkeypatch.setattr(estimation, "_CONVERGED_TOL", -1.0)
        for depth in depths:
            group = [(snap, run) for snap, run in stopped if run[0].size == depth]
            capped = estimation._golub_kahan_lanczos(np.array([snap for snap, _ in group]),
                                                     256, depth, 8, 1e-2)
            for (_, run), got in zip(group, capped):
                for got_part, want_part in zip(got, run):
                    assert np.array_equal(got_part, want_part)
        # With the rule off every row takes its full depth.
        assert {s.size for s, _, _ in estimation._golub_kahan_lanczos(snaps[:4], 256, 32, 8, 1e-2)} == {32}

    @pytest.mark.parametrize("n", [512, 513, 64, 31])
    def test_fft_products_match_dense_hankel(self, n):
        # H @ v and H^H @ u by FFT, row by row for a stack, for the
        # pencil's row count at even and odd lengths, against the dense
        # Hankel H[i, k] = x[b, i + k].
        rng = np.random.default_rng([9, n])
        x = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
        rows = n - n // 2
        cols = n - rows + 1
        v = rng.standard_normal((3, cols)) + 1j * rng.standard_normal((3, cols))
        u = rng.standard_normal((3, rows)) + 1j * rng.standard_normal((3, rows))
        forward = estimation._correlate(np.fft.fft(x), v, rows)
        adjoint = estimation._correlate(np.fft.fft(x.conj()), u, cols)
        assert forward.shape == (3, rows) and adjoint.shape == (3, cols)
        for b in range(3):
            hankel = x[b][np.arange(rows)[:, None] + np.arange(cols)[None, :]]
            expected = hankel @ v[b], hankel.conj().T @ u[b]
            for got, want in zip((forward[b], adjoint[b]), expected):
                assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize("n", [512, 513])
    def test_lanczos_start_and_breakdown_match_dense_svd(self, n):
        # One stack of a zero first Hankel row (the run starts from the
        # last row), and exactly rank-one and rank-two Hankels, where the
        # run stops after one and two steps with exact Ritz values.
        pencil = n // 2
        rows = n - pencil
        m = np.arange(n)
        tones = (np.exp(2j * np.pi * 0.3 * m), np.exp(2j * np.pi * -0.2 * m))
        tail = (tones[0] + 0.5j * tones[1]) * (m > pencil)
        cases = [(tail, None), (0.4 * tones[1], 1), (0.4 * tones[1] + 1j * tones[0], 2)]
        runs = estimation._golub_kahan_lanczos(np.array([snap for snap, _ in cases]), rows,
                                               32, 8, 1e-2)
        for (snap, rank), (s, u, bounds) in zip(cases, runs):
            hankel = snap[np.arange(rows)[:, None] + np.arange(pencil + 1)[None, :]]
            dense = np.linalg.svd(hankel, compute_uv=False)
            if rank is None:
                assert not np.any(hankel[0])
                assert s[0] > 0
            else:
                assert s.size == rank
                assert np.max(bounds) <= 1e-12 * s[0]
            k = min(s.size, 2)
            np.testing.assert_allclose(s[:k], dense[:k], rtol=1e-12)
            # The left Ritz vectors are orthonormal singular vectors.
            np.testing.assert_allclose(u[:, :k].conj().T @ u[:, :k], np.eye(k), atol=1e-12)
            np.testing.assert_allclose(np.linalg.norm(hankel.conj().T @ u[:, :k], axis=0),
                                       s[:k], rtol=1e-10)


class TestAmplitudeFit:
    """The pencil's amplitudes and residual, one augmented QR per model order."""

    @staticmethod
    def lstsq_fit(x, freqs):
        # The per-row reference: least squares on the unit-norm exponential basis.
        basis = np.exp(2j * np.pi * np.outer(np.arange(x.size), freqs)) / np.sqrt(x.size)
        return np.linalg.lstsq(basis, x, rcond=None)[0], basis

    def test_matches_per_row_lstsq(self, monkeypatch):
        # Every row of 20 fig5 snapshot stacks (both phases of 10 draws):
        # coefficients as least squares at the row's own frequencies, and a
        # residual equal to the norm of the row minus its model.  Neither
        # pinv nor lstsq runs on the way.
        stacks = []
        pencil = estimation.line_spectrum_estimate
        monkeypatch.setattr(estimation, "line_spectrum_estimate",
                            lambda x, *args: stacks.append(x) or pencil(x, *args))
        for _, oracle, cfg in fig5_draws(10, 2904):
            estimation.estimate_channel(oracle, MACRO, SMALL, cfg)
        assert len(stacks) == 20
        calls = []
        with monkeypatch.context() as patch:
            for name in ("lstsq", "pinv"):
                patch.setattr(np.linalg, name, lambda *a, name=name, **k: calls.append(name))
            fits = [pencil(x, estimation._order_cap(x.shape[1]), estimation._RANK_THRESHOLD)
                    for x in stacks]
        assert calls == []
        for x, specs in zip(stacks, fits):
            for row, spec in zip(x, specs):
                want, basis = self.lstsq_fit(row, spec.frequencies)
                assert np.linalg.norm(spec.coefficients - want) <= 1e-12 * np.linalg.norm(want)
                misfit = np.linalg.norm(row - basis @ spec.coefficients)
                assert abs(spec.residual - misfit) <= 1e-12 * np.linalg.norm(row)

    @pytest.mark.parametrize("n", [32, 512])
    def test_near_collinear_pair_takes_lstsq(self, n, monkeypatch):
        # -0.5 and 0.5 - 1e-13 are neighbours across the wrap, so they do
        # not collapse; their basis is numerically singular and the row
        # gets lstsq's result bit for bit, next to an ordinary row.
        rng = np.random.default_rng([29, n])
        x = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        freqs = np.array([[0.1, 0.3], [-0.5, 0.5 - 1e-13]])
        want, basis = self.lstsq_fit(x[1], freqs[1])
        calls = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(1) or lstsq(*a, **k))
        coefs, residuals = estimation._fit_amplitudes(x, freqs)
        assert len(calls) == 1
        assert np.array_equal(coefs[1], want)
        assert residuals[1] == np.linalg.norm(x[1] - basis @ want)
        ordinary, _ = self.lstsq_fit(x[0], freqs[0])
        np.testing.assert_allclose(coefs[0], ordinary, rtol=1e-12)


class TestEstimateGains:
    @staticmethod
    def _stacks(h, tx_beams, rx_beams):
        # Noiseless phase-2 and phase-3 stacks of the given beams.
        h_herm = np.asarray(h).conj().T
        return (tx_beams, (h_herm @ tx_beams).T), (rx_beams, rx_beams.conj().T @ h_herm)

    def test_diagonal_recovery(self):
        paths = separated_paths(10, 3, ArrayGeometry(64), ArrayGeometry(16))
        tx, rx = ArrayGeometry(64), ArrayGeometry(16)
        h = assemble_channel(tx, rx, paths)
        stacks = self._stacks(h, steering_matrix(tx, paths.aods), steering_matrix(rx, paths.aoas))
        coupling, residual = estimate_gains(*stacks, paths.aods, paths.aoas, tx, rx)
        off = coupling - np.diag(np.diag(coupling))
        assert np.max(np.abs(np.diag(coupling) - paths.gains)) <= 1e-8
        assert np.max(np.abs(off)) <= 1e-8 * np.max(np.abs(coupling))
        assert residual <= 1e-8

    def test_single_path_exact(self):
        tx, rx = ArrayGeometry(32), ArrayGeometry(8)
        paths = PathSet(gains=[0.3 + 0.9j], aods=[1.2], aoas=[2.5])
        h = assemble_channel(tx, rx, paths)
        stacks = self._stacks(h, steering_matrix(tx, paths.aods), np.empty((8, 0)))
        coupling, _ = estimate_gains(*stacks, paths.aods, paths.aoas, tx, rx)
        np.testing.assert_allclose(coupling, [[0.3 + 0.9j]], atol=1e-10)

    def test_zero_observations_give_zero(self):
        tx, rx = ArrayGeometry(16), ArrayGeometry(8)
        stacks = self._stacks(np.zeros((16, 8)), steering_matrix(tx, [0.5]),
                              steering_matrix(rx, [1.0]))
        coupling, residual = estimate_gains(*stacks, [0.5], [1.0], tx, rx)
        np.testing.assert_allclose(coupling, np.zeros((1, 1)), atol=1e-15)
        assert residual == 0.0

    def test_underdetermined_rejected(self):
        # One 4-element snapshot and no phase-3 rows cannot fix 3 x 2 gains.
        tx, rx = ArrayGeometry(16), ArrayGeometry(4)
        stacks = self._stacks(np.ones((16, 4)), steering_matrix(tx, [0.5]), np.empty((4, 0)))
        with pytest.raises(InsufficientMeasurementsError):
            estimate_gains(*stacks, [0.5, 0.6, 0.7], [1.0, 1.1], tx, rx)

    def test_counts_observations_before_compression(self):
        # One receive-array snapshot is 8 scalar observations, though it
        # compresses to one row per arrival angle.
        tx, rx = ArrayGeometry(16), ArrayGeometry(8)
        snapshot = (steering_matrix(tx, [0.5]), np.ones((1, 8), complex))
        no_rows = (np.empty((8, 0)), np.empty((0, 16)))
        with pytest.raises(InsufficientMeasurementsError):
            estimate_gains(snapshot, no_rows, np.linspace(0.1, 0.9, 5), [1.0, 1.1], tx, rx)
        coupling, _ = estimate_gains(snapshot, no_rows, np.linspace(0.1, 0.9, 4), [1.0, 1.1],
                                     tx, rx)
        assert coupling.shape == (4, 2)

    @staticmethod
    def full_design_gains(measurements, aods, aoas, tx_geom, rx_geom, path_loss):
        # The fit on every scalar observation, one design row each, as
        # estimate_gains took it before it compressed probes onto the
        # steering span.
        a_tx, a_rx = steering_matrix(tx_geom, aods), steering_matrix(rx_geom, aoas)
        scale = np.sqrt(tx_geom.n_elements * rx_geom.n_elements / path_loss)
        rows, rhs = [], []
        for tx, rx, values in measurements:
            v, u = a_tx.conj().T, a_rx.conj().T
            if tx is not None:
                v = v @ np.asarray(tx).reshape(tx_geom.n_elements, -1)
            if rx is not None:
                u = u @ np.asarray(rx).reshape(rx_geom.n_elements, -1)
            block = np.einsum("ip,jq->pqij", u.conj(), v) * scale
            rows.append(block.reshape(-1, aoas.size * aods.size))
            rhs.append(np.asarray(values).ravel())
        design, rhs = np.vstack(rows), np.concatenate(rhs)
        solution, *_ = np.linalg.lstsq(design, rhs, rcond=estimation._GAIN_FIT_RCOND)
        rhs_norm = np.linalg.norm(rhs)
        residual = np.linalg.norm(design @ solution - rhs) / rhs_norm if rhs_norm > 0 else 0.0
        return solution.reshape(aoas.size, aods.size).conj().T, residual

    @staticmethod
    def triples(receive, transmit):
        # The two stacks as full_design_gains' (tx, rx, values) triples.
        (tx_probes, snapshots), (rx_probes, rows) = receive, transmit
        return ([(p, None, y[:, None]) for p, y in zip(tx_probes.T, snapshots)]
                + [(None, p, y[None, :]) for p, y in zip(rx_probes.T, rows)])

    def test_projected_fit_matches_full_design(self, monkeypatch):
        # On the pipeline's own measurements and on zero observations, the
        # projected design gives the full design's fit up to rounding: on
        # fig5 draws, and on 8/4 arrays, where a fit can have more arrival
        # angles than receive elements.
        fits = []
        monkeypatch.setattr(estimation, "estimate_gains",
                            lambda *args: fits.append(args) or estimate_gains(*args))
        wide = 0
        for tx, rx, draws in ((MACRO, SMALL, fig5_draws(20, 2702)),
                              (ArrayGeometry(8), ArrayGeometry(4),
                               fig5_draws(60, 2703, n_ma=8, n_sm=4, k_users=1,
                                          n_bb_ma=2, n_bb_sm=1))):
            for h, oracle, cfg in draws:
                estimation.estimate_channel(oracle, tx, rx, cfg)
                receive, transmit, aods, aoas, *_ = fits[-1]
                wide += aoas.size > rx.n_elements
                zero = [(probes, np.zeros_like(values)) for probes, values in (receive, transmit)]
                for case in ((receive, transmit), zero):
                    coupling, residual = estimate_gains(*case, aods, aoas, tx, rx, cfg.path_loss)
                    ref_coupling, ref_residual = self.full_design_gains(
                        self.triples(*case), aods, aoas, tx, rx, cfg.path_loss)
                    assert coupling.shape == ref_coupling.shape
                    np.testing.assert_allclose(coupling, ref_coupling, rtol=0,
                                               atol=1e-10 * np.max(np.abs(ref_coupling)))
                    assert abs(residual - ref_residual) <= 1e-10 * ref_residual
        assert len(fits) == 80
        assert wide > 0


class TestEstimateChannel:
    def test_noiseless_well_separated_recovery(self):
        paths = separated_paths(11, 3)
        h = assemble_channel(MACRO, SMALL, paths)
        oracle = ChannelOracle(h, 0.0, np.random.default_rng(0))
        report = estimate_channel(oracle, MACRO, SMALL, EstimationConfig())
        nmse = np.linalg.norm(report.reconstruction - h) ** 2 / np.linalg.norm(h) ** 2
        assert nmse <= 1e-6

    def test_slot_accounting(self):
        cfg = EstimationConfig(l_ma=128, l_sm=16, keep=5, n_bb_ma=16, n_bb_sm=4)
        paths = separated_paths(12, 2)
        h = assemble_channel(MACRO, SMALL, paths)
        oracle = ChannelOracle(h, 0.0, np.random.default_rng(1))
        report = estimate_channel(oracle, MACRO, SMALL, cfg)
        assert report.slots_phase1 == 128 * 16
        assert report.slots_phase2 == 5 * int(np.ceil(32 / 4))
        assert report.slots_phase3 == report.aoas.size * int(np.ceil(512 / 16))
        assert report.training_slots_used == (
            report.slots_phase1 + report.slots_phase2 + report.slots_phase3
        )
        # One pencil per departure-phase snapshot; the noiseless n=512
        # pencils take the Lanczos path.
        assert len(report.lanczos_steps_phase3) == report.aoas.size
        assert all(0 < k <= 32 for k in report.lanczos_steps_phase3)

    def test_snapshots_drawn_in_beam_order(self, monkeypatch):
        # Each phase takes all of its snapshots before fitting them as one
        # stack.  The oracle's noise still goes out one beam at a time in
        # probing order: replaying the beams on a fresh oracle of the same
        # seed, after the same phase-1 sweep, returns the same observations.
        cfg = EstimationConfig(l_ma=128, l_sm=16, keep=5, n_bb_ma=16, n_bb_sm=4)
        h = assemble_channel(MACRO, SMALL, separated_paths(19, 4))
        calls = []
        observe = ChannelOracle.observe

        def recording(self, tx, rx):
            result = observe(self, tx, rx)
            if tx is None or rx is None:  # a whole-array snapshot
                calls.append((tx, rx, result))
            return result

        monkeypatch.setattr(ChannelOracle, "observe", recording)
        report = estimate_channel(ChannelOracle(h, 0.01, np.random.default_rng(20)), MACRO, SMALL, cfg)
        monkeypatch.setattr(ChannelOracle, "observe", observe)
        replay = ChannelOracle(h, 0.01, np.random.default_rng(20))
        tx_cb, rx_cb = dft_codebook(MACRO, cfg.l_ma), dft_codebook(SMALL, cfg.l_sm)
        kept = estimation._strongest_tx_beams(replay, tx_cb, rx_cb, cfg.keep)
        probes = [(tx_cb.beams[:, i], None, (32, 1), cfg.n_bb_sm) for i in kept]
        probes += [(None, steering_vector(SMALL, aoa), (1, 512), cfg.n_bb_ma) for aoa in report.aoas]
        assert len(calls) == len(probes) == cfg.keep + report.aoas.size
        slots = 0
        for (tx, rx, values), (want_tx, want_rx, shape, n_chains) in zip(calls, probes):
            for probe, want in ((tx, want_tx), (rx, want_rx)):
                assert probe is want is None or np.array_equal(probe, want)
            assert values.shape == shape
            assert np.array_equal(values, replay.observe(want_tx, want_rx))
            slots += -(-values.size // n_chains)
        assert report.training_slots_used == cfg.l_ma * cfg.l_sm + slots

    def test_paired_paths_bounded(self):
        paths = separated_paths(13, 4)
        h = assemble_channel(MACRO, SMALL, paths)
        oracle = ChannelOracle(h, 0.0, np.random.default_rng(2))
        report = estimate_channel(oracle, MACRO, SMALL, EstimationConfig())
        assert report.paired_paths.n_paths <= min(report.aods.size, report.aoas.size)
        assert report.gain_matrix.shape == (report.aods.size, report.aoas.size)

    def test_deterministic_given_oracle_stream(self):
        paths = separated_paths(14, 3)
        h = assemble_channel(MACRO, SMALL, paths)
        reports = [
            estimate_channel(
                ChannelOracle(h, 0.01, np.random.default_rng(42)), MACRO, SMALL, EstimationConfig()
            )
            for _ in range(2)
        ]
        assert np.array_equal(reports[0].reconstruction, reports[1].reconstruction)
        assert reports[0].training_slots_used == reports[1].training_slots_used

    def test_zero_channel_fails_cleanly(self):
        oracle = ChannelOracle(np.zeros((512, 32), complex), 0.0, np.random.default_rng(3))
        with pytest.raises(EstimationFailedError):
            estimate_channel(oracle, MACRO, SMALL, EstimationConfig())

    def test_noisy_regression_at_20db(self):
        # Regression targets frozen from this 200-trial run: mean NMSE
        # 1.378e-2 (tail dominated by draws with colliding arrival
        # angles), median 1.73e-5, with the truncated pencil and with the
        # dense SVD alike.
        noise_var = 0.01
        values = []
        for trial in range(200):
            rng = np.random.default_rng([5, trial])
            paths = sample_paths(PathDistribution(2, 6), rng)
            h = assemble_channel(MACRO, SMALL, paths)
            oracle = ChannelOracle(h, noise_var, np.random.default_rng([6, trial]))
            report = estimate_channel(oracle, MACRO, SMALL, EstimationConfig())
            values.append(
                np.linalg.norm(report.reconstruction - h) ** 2 / np.linalg.norm(h) ** 2
            )
        values = np.asarray(values)
        assert np.mean(values) <= 0.03
        assert np.median(values) <= 5e-5

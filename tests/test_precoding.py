import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmwave_backhaul import (
    ArrayGeometry,
    PathDistribution,
    PathSet,
    SingularCouplingError,
    allocate_power,
    assemble_channel,
    equivalent_channel,
    factored_svd,
    factorize,
    factorize_combiner,
    mu_assemble,
    mu_digital_precoder,
    sample_paths,
    steering_matrix,
    truncated_svd,
)
from mmwave_backhaul.precoding import _block_diag, _fix_phases


def assert_orthonormal(dec):
    # Both factors have orthonormal columns; TruncatedSvd does not check it,
    # as its builders take them from an SVD and QRs.
    eye = np.eye(dec.rank_used)
    for factor in (dec.left, dec.right):
        np.testing.assert_allclose(factor.conj().T @ factor, eye, rtol=0, atol=1e-10)


def random_channel(n_tx, n_rx, n_paths, seed):
    rng = np.random.default_rng(seed)
    paths = sample_paths(PathDistribution(n_paths, n_paths), rng)
    return assemble_channel(ArrayGeometry(n_tx), ArrayGeometry(n_rx), paths)


class TestTruncatedSvd:
    def test_diagonal_example(self):
        h = np.diag([3.0, 1.0]).astype(complex)
        dec = truncated_svd(h, 1)
        np.testing.assert_allclose(dec.sigmas, [3.0])
        recon = dec.left @ np.diag(dec.sigmas) @ dec.right.conj().T
        assert abs(np.linalg.norm(h - recon) ** 2 - 1.0) <= 1e-9

    def test_low_rank_channel_exact(self):
        h = random_channel(32, 8, 4, seed=0)
        dec = truncated_svd(h, 4)
        assert_orthonormal(dec)
        recon = dec.left @ np.diag(dec.sigmas) @ dec.right.conj().T
        assert np.linalg.norm(h - recon) <= 1e-9 * np.linalg.norm(h)

    def test_reference_dimensions(self):
        h = random_channel(512, 32, 4, seed=1)
        dec = truncated_svd(h, 4)
        assert dec.left.shape == (512, 4)
        assert dec.right.shape == (32, 4)

    def test_error_decreases_with_rank(self):
        rng = np.random.default_rng(2)
        h = rng.standard_normal((12, 10)) + 1j * rng.standard_normal((12, 10))
        errors = []
        for rank in range(1, 9):
            dec = truncated_svd(h, rank)
            assert_orthonormal(dec)
            recon = dec.left @ np.diag(dec.sigmas) @ dec.right.conj().T
            errors.append(np.linalg.norm(h - recon))
        assert all(errors[i] >= errors[i + 1] - 1e-12 for i in range(len(errors) - 1))

    def test_reconstruction_error_matches_tail(self):
        rng = np.random.default_rng(3)
        h = rng.standard_normal((10, 6)) + 1j * rng.standard_normal((10, 6))
        s = np.linalg.svd(h, compute_uv=False)
        dec = truncated_svd(h, 3)
        recon = dec.left @ np.diag(dec.sigmas) @ dec.right.conj().T
        tail = np.sum(s[3:] ** 2)
        assert abs(np.linalg.norm(h - recon) ** 2 - tail) <= 1e-9 * tail

    def test_phase_convention_deterministic(self):
        h = random_channel(16, 8, 3, seed=4)
        dec = truncated_svd(h, 3)
        for i in range(3):
            col = dec.left[:, i]
            lead = col[np.argmax(np.abs(col) > 1e-12 * np.abs(col).max())]
            assert abs(lead.imag) <= 1e-12 * abs(lead)
            assert lead.real > 0

    @pytest.mark.parametrize("n_tx, n_rx, rank", [(512, 32, 4), (32, 32, 32), (32, 512, 4),
                                                  (5, 3, 3), (1, 7, 1), (7, 1, 1), (1, 1, 1)])
    def test_fix_phases_is_the_per_column_loop(self, n_tx, n_rx, rank):
        def loop(u, v):
            for i in range(u.shape[1]):
                col = u[:, i]
                mags = np.abs(col)
                ref = col[int(np.argmax(mags > 1e-12 * mags.max()))]
                phase = ref / abs(ref)
                u[:, i] = col * np.conj(phase)
                v[:, i] = v[:, i] * np.conj(phase)

        rng = np.random.default_rng([91, n_tx, rank])
        for _ in range(20):
            u = rng.standard_normal((n_tx, rank)) + 1j * rng.standard_normal((n_tx, rank))
            v = rng.standard_normal((n_rx, rank)) + 1j * rng.standard_normal((n_rx, rank))
            # Leading entries of some columns fall below the 1e-12 cut, one
            # of them just above it.
            for col in range(0, rank, 2):
                lead = int(rng.integers(0, n_tx))
                u[:lead, col] *= 1e-13 * rng.random(lead)
            u[0, rank - 1] = 2e-12 * np.abs(u[:, rank - 1]).max()
            expected_u, expected_v = u.copy(), v.copy()
            loop(expected_u, expected_v)
            _fix_phases(u, v)
            assert np.array_equal(u, expected_u) and np.array_equal(v, expected_v)

    def test_rank_out_of_range(self):
        h = np.eye(4, 3, dtype=complex)
        for bad in (0, 4):
            with pytest.raises(ValueError):
                truncated_svd(h, bad)


def path_core_svd(tx, rx, paths, max_rank):
    scale = np.sqrt(tx.n_elements * rx.n_elements / paths.path_loss)
    return factored_svd(steering_matrix(tx, paths.aods), scale * paths.gains,
                        steering_matrix(rx, paths.aoas), max_rank)


def assert_same_subspace(a, b):
    np.testing.assert_allclose(a @ a.conj().T, b @ b.conj().T, rtol=0, atol=1e-10)


class TestFactoredSvd:
    @pytest.mark.parametrize("n_paths", range(1, 7))
    def test_matches_dense_svd(self, n_paths):
        tx, rx = ArrayGeometry(512), ArrayGeometry(32)
        for seed in range(5):
            paths = sample_paths(PathDistribution(n_paths, n_paths, path_loss=3.0),
                                 np.random.default_rng([71, n_paths, seed]))
            h = assemble_channel(tx, rx, paths)
            dense = truncated_svd(h, 32)
            assert_orthonormal(dense)
            for max_rank in (4, 32):
                dec = path_core_svd(tx, rx, paths, max_rank)
                rank = min(n_paths, max_rank)
                assert dec.rank_used == rank
                assert_orthonormal(dec)
                np.testing.assert_allclose(dec.sigmas, dense.sigmas[:rank], rtol=0,
                                           atol=1e-12 * dense.sigmas[0])
                assert_same_subspace(dec.left, dense.left[:, :rank])
                assert_same_subspace(dec.right, dense.right[:, :rank])
                recon = dec.left @ np.diag(dec.sigmas) @ dec.right.conj().T
                tail = np.sum(dense.sigmas[rank:] ** 2)
                assert abs(np.linalg.norm(h - recon) ** 2 - tail) <= 1e-12 * np.sum(dense.sigmas ** 2)

    @pytest.mark.parametrize("shared", ["aods", "aoas"])
    def test_shared_end_drops_a_stream(self, shared):
        # Two estimated pairs that share one end span a rank-one channel.
        angles = {"aods": [0.4, 1.3], "aoas": [2.2, 5.0]}
        angles[shared] = [angles[shared][0]] * 2
        paths = PathSet(gains=[0.8 + 0.1j, -0.3 + 0.5j], **angles)
        dec = path_core_svd(ArrayGeometry(512), ArrayGeometry(32), paths, 4)
        assert dec.rank_used == 1
        assert_orthonormal(dec)
        h = assemble_channel(ArrayGeometry(512), ArrayGeometry(32), paths)
        np.testing.assert_allclose(dec.sigmas, np.linalg.svd(h, compute_uv=False)[:1], rtol=1e-12)

    def test_matrix_factors(self):
        h = random_channel(64, 8, 3, seed=72)
        dec = factored_svd(h, np.ones(8), np.eye(8, dtype=complex), 8)
        dense = truncated_svd(h, 3)
        assert dec.rank_used == 3
        assert_orthonormal(dec)
        np.testing.assert_allclose(dec.sigmas, dense.sigmas, rtol=1e-12)
        assert_same_subspace(dec.left, dense.left)

    def test_zero_channel_keeps_one_stream(self):
        dec = factored_svd(np.eye(8, 2, dtype=complex), np.zeros(2), np.eye(4, 2, dtype=complex), 4)
        assert dec.rank_used == 1
        assert dec.sigmas[0] == 0.0
        assert_orthonormal(dec)


class TestMuAssemble:
    def test_single_user_passthrough(self):
        dec = truncated_svd(random_channel(16, 4, 2, seed=5), 2)
        mu = mu_assemble([dec])
        assert np.array_equal(mu.u_tilde, dec.left)
        assert np.array_equal(mu.c_bar, dec.right)

    def test_two_user_shapes(self):
        decs = [truncated_svd(random_channel(8, 4, 2, seed=s), 2) for s in (6, 7)]
        mu = mu_assemble(decs)
        assert mu.u_tilde.shape == (8, 4)
        assert mu.c_bar.shape == (8, 4)
        assert mu.sigma_stack.shape == (4,)

    def test_reference_scale_shapes(self):
        decs = [truncated_svd(random_channel(512, 32, 4, seed=s), 4) for s in range(4)]
        mu = mu_assemble(decs)
        assert mu.u_tilde.shape == (512, 16)

    def test_rank_mismatch_rejected(self):
        a = truncated_svd(random_channel(16, 8, 3, seed=8), 3)
        b = truncated_svd(random_channel(16, 8, 3, seed=9), 2)
        with pytest.raises(ValueError):
            mu_assemble([a, b])

    def test_overfull_stack_rejected(self):
        decs = [truncated_svd(random_channel(4, 4, 3, seed=s), 3) for s in (10, 11)]
        with pytest.raises(ValueError):
            mu_assemble(decs)


class TestMuDigitalPrecoder:
    def test_orthonormal_stack_gives_identity(self):
        u_tilde = np.eye(8, 4, dtype=complex)
        p_a = u_tilde.conj().T
        p_d, cond = mu_digital_precoder(np.eye(4, dtype=complex), p_a, u_tilde)
        np.testing.assert_allclose(p_d, np.eye(4), atol=1e-12)
        assert cond == pytest.approx(1.0)

    def test_scaled_identity(self):
        eye = np.eye(3, dtype=complex)
        p_d, _ = mu_digital_precoder(2.0 * eye, eye, eye)
        np.testing.assert_allclose(p_d, 0.5 * eye, atol=1e-14)

    def test_singular_coupling_rejected(self):
        t = np.diag([1.0, 1e-15]).astype(complex)
        with pytest.raises(SingularCouplingError):
            mu_digital_precoder(t, np.eye(2, dtype=complex), np.eye(2, dtype=complex))

    def test_near_parallel_users_stay_invertible(self):
        # Two users whose departure directions differ by 2e-9 in sin: the
        # coupling matrix u^H u has a condition number above the 1e12
        # limit, but each factor of its QR-split inverse has about the
        # square root of it.
        tx = ArrayGeometry(512)
        u_tilde = steering_matrix(tx, np.arcsin([0.3, 0.3 + 2e-9]))
        assert np.linalg.cond(u_tilde.conj().T @ u_tilde) > 1e12
        p_d, cond = mu_digital_precoder(np.eye(2, dtype=complex), u_tilde.conj().T, u_tilde)
        assert 1e5 < cond < 1e8
        # For exact factors inv(u^H u) = inv(R) inv(R)^H, an independent route.
        r_inv = np.linalg.inv(np.linalg.qr(u_tilde, mode="r"))
        reference = r_inv @ r_inv.conj().T
        assert np.linalg.norm(p_d - reference) <= 1e-8 * np.linalg.norm(reference)

    def test_hybrid_inputs_invert_exactly(self):
        # Factorized inputs at reference scale: the returned inverse must
        # agree with a direct linear solve and invert T to 1e-9.
        decs = [truncated_svd(random_channel(512, 32, 4, seed=s), 4) for s in range(12, 16)]
        mu = mu_assemble(decs)
        precs = [factorize(d.left.conj().T) for d in decs]
        p_tilde_d = _block_diag([p.digital for p in precs])
        p_a = np.vstack([p.analog for p in precs])
        p_d, _ = mu_digital_precoder(p_tilde_d, p_a, mu.u_tilde)
        t = p_tilde_d @ p_a @ mu.u_tilde
        assert np.linalg.norm(p_d @ t - np.eye(16)) <= 1e-9
        np.testing.assert_allclose(p_d, np.linalg.solve(t, np.eye(16)), atol=1e-9)


class TestEquivalentChannel:
    def _exact_factors(self, seeds, n_tx=32, n_rx=8, rank=3):
        channels = [random_channel(n_tx, n_rx, rank, seed=s) for s in seeds]
        decs = [truncated_svd(h, rank) for h in channels]
        mu = mu_assemble(decs)
        p_a = mu.u_tilde.conj().T
        p_tilde_d = np.eye(len(seeds) * rank, dtype=complex)
        p_d, _ = mu_digital_precoder(p_tilde_d, p_a, mu.u_tilde)
        h_stack = np.hstack(channels)
        return p_d, p_tilde_d, p_a, h_stack, mu

    def test_single_user_diagonalizes(self):
        p_d, p_tilde_d, p_a, h_stack, mu = self._exact_factors([20])
        g = equivalent_channel(p_d, p_tilde_d, p_a, h_stack, mu.c_bar)
        np.testing.assert_allclose(g, np.diag(mu.sigma_stack), atol=1e-9)

    def test_two_user_off_diagonal_energy(self):
        p_d, p_tilde_d, p_a, h_stack, mu = self._exact_factors([21, 22])
        g = equivalent_channel(p_d, p_tilde_d, p_a, h_stack, mu.c_bar)
        off = g - np.diag(np.diag(g))
        assert np.linalg.norm(off) ** 2 <= 1e-18 * np.linalg.norm(g) ** 2

    def test_hybrid_factors_leakage_is_small(self):
        # Measured leakage of the factorized design at reference scale.
        channels = [random_channel(512, 32, 4, seed=s) for s in (23, 24, 25, 26)]
        decs = [truncated_svd(h, 4) for h in channels]
        mu = mu_assemble(decs)
        precs = [factorize(d.left.conj().T) for d in decs]
        combs = [factorize_combiner(d.right) for d in decs]
        p_tilde_d = _block_diag([p.digital for p in precs])
        p_a = np.vstack([p.analog for p in precs])
        c_bar = _block_diag([c.analog @ c.digital for c in combs])
        p_d, _ = mu_digital_precoder(p_tilde_d, p_a, mu.u_tilde)
        g = equivalent_channel(p_d, p_tilde_d, p_a, np.hstack(channels), c_bar)
        off = g - np.diag(np.diag(g))
        rel = np.linalg.norm(off) ** 2 / np.linalg.norm(g) ** 2
        assert rel < 1e-4

    def test_shape_mismatch_rejected(self):
        eye = np.eye(4, dtype=complex)
        with pytest.raises(ValueError):
            equivalent_channel(eye, eye, np.ones((4, 8), complex), np.ones((6, 4), complex), eye)


class TestAllocatePower:
    def test_symmetric_split(self):
        powers = allocate_power([2.5, 2.5], 3.0)
        np.testing.assert_allclose(powers, [1.5, 1.5], atol=1e-12)

    def test_two_mode_closed_form(self):
        powers = allocate_power([4.0, 1.0], 1.0)
        np.testing.assert_allclose(powers, [0.875, 0.125], atol=1e-12)

    def test_tiny_budget_single_mode(self):
        powers = allocate_power([10.0, 0.1], 1e-9)
        assert powers[1] == 0.0
        assert powers[0] == pytest.approx(1e-9)

    def test_equal_strategy(self):
        powers = allocate_power([5.0, 1.0, 0.2], 6.0, "equal")
        np.testing.assert_allclose(powers, [2.0, 2.0, 2.0])

    @pytest.mark.parametrize("strategy", ["waterfilling", "equal"])
    def test_plain_finite_nonnegative_powers(self, strategy):
        gains = np.array([1e-300, 1e-6, 1.0, 1e6, 1e300])
        for budget in (1e-9, 1.0, 1e9):
            powers = allocate_power(gains, budget, strategy)
            assert type(powers) is np.ndarray and powers.dtype == float
            assert powers.shape == gains.shape
            assert np.all(np.isfinite(powers)) and np.all(powers >= 0)

    def test_budget_conserved(self):
        rng = np.random.default_rng(30)
        for _ in range(100):
            gains = rng.uniform(0.01, 10.0, int(rng.integers(1, 12)))
            budget = float(rng.uniform(0.01, 100.0))
            powers = allocate_power(gains, budget)
            assert abs(powers.sum() - budget) <= 1e-9 * budget
            assert np.all(powers >= 0)

    def test_kkt_conditions(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            gains = rng.uniform(0.01, 10.0, 8)
            budget = float(rng.uniform(0.1, 50.0))
            powers = allocate_power(gains, budget)
            active = powers > 0
            levels = powers[active] + 1.0 / gains[active]
            assert np.ptp(levels) <= 1e-9 * levels.max()
            if np.any(~active):
                assert np.all(1.0 / gains[~active] >= levels.max() - 1e-9)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=16),
        st.floats(1e-6, 1e6),
    )
    def test_waterfilling_kkt_property(self, gains, budget):
        gains = np.asarray(gains)
        powers = allocate_power(gains, budget)
        assert np.all(powers >= 0)
        assert abs(powers.sum() - budget) <= 1e-12 * budget
        active = powers > 0
        levels = powers[active] + 1.0 / gains[active]
        level = levels.max()
        assert np.ptp(levels) <= 1e-12 * level
        assert np.all(1.0 / gains[~active] >= level * (1 - 1e-12))

    def test_beats_equal_split(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            gains = rng.uniform(0.01, 10.0, 6)
            budget = float(rng.uniform(0.1, 50.0))
            wf = allocate_power(gains, budget)
            eq = allocate_power(gains, budget, "equal")
            assert np.sum(np.log2(1 + wf * gains)) >= np.sum(np.log2(1 + eq * gains)) - 1e-12

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            allocate_power([], 1.0)
        with pytest.raises(ValueError):
            allocate_power([1.0, -0.5], 1.0)
        with pytest.raises(ValueError):
            allocate_power([1.0], 0.0)
        with pytest.raises(ValueError):
            allocate_power([1.0], 1.0, "greedy")

import numpy as np
import pytest

from mmwave_backhaul import (
    ArrayGeometry,
    PathDistribution,
    PathSet,
    assemble_channel,
    derive_rng,
    sample_paths,
    singular_energy_profile,
    steering_matrix,
    steering_vector,
)
from mmwave_backhaul import channel


class TestSteeringVector:
    def test_broadside_is_uniform(self):
        v = steering_vector(ArrayGeometry(4), 0.0)
        np.testing.assert_allclose(v, 0.5 * np.ones(4), atol=1e-15)

    def test_endfire_two_elements(self):
        v = steering_vector(ArrayGeometry(2), np.pi / 2)
        np.testing.assert_allclose(v, np.array([1.0, -1.0]) / np.sqrt(2), atol=1e-15)

    def test_unit_norm_large_array(self):
        v = steering_vector(ArrayGeometry(512), 1.234)
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12

    def test_unit_norm_random_angles(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            geom = ArrayGeometry(int(rng.integers(1, 100)))
            v = steering_vector(geom, rng.uniform(0, 2 * np.pi))
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-12

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            ArrayGeometry(0)


class TestSamplePaths:
    def test_single_path_unit_mean_power(self):
        rng = np.random.default_rng(1)
        dist = PathDistribution(1, 1, k_factor_db=7.0)
        powers = [np.abs(sample_paths(dist, rng).gains[0]) ** 2 for _ in range(4000)]
        assert sample_paths(dist, rng).n_paths == 1
        assert abs(np.mean(powers) - 1.0) < 0.06

    def test_zero_k_factor_equal_powers(self):
        rng = np.random.default_rng(2)
        dist = PathDistribution(3, 3, k_factor_db=0.0)
        acc = np.zeros(3)
        n = 5000
        for _ in range(n):
            acc += np.abs(sample_paths(dist, rng).gains) ** 2
        np.testing.assert_allclose(acc / n, np.full(3, 1.0 / 3.0), atol=0.02)

    def test_k_factor_power_ratio_and_total(self):
        rng = np.random.default_rng(3)
        dist = PathDistribution(4, 4, k_factor_db=10.0)
        acc = np.zeros(4)
        n = 20000
        for _ in range(n):
            acc += np.abs(sample_paths(dist, rng).gains) ** 2
        mean = acc / n
        # LOS power is 10x each NLOS power; total mean power is 1.
        assert abs(mean[0] / np.mean(mean[1:]) - 10.0) < 0.5
        assert abs(mean.sum() - 1.0) < 0.02

    def test_path_count_histogram_uniform(self):
        rng = np.random.default_rng(4)
        dist = PathDistribution(2, 6)
        counts = np.zeros(7)
        draws = 100000
        for _ in range(draws):
            counts[sample_paths(dist, rng).n_paths] += 1
        freqs = counts[2:7] / draws
        np.testing.assert_allclose(freqs, 0.2, rtol=0.02)

    def test_angles_in_range(self):
        rng = np.random.default_rng(5)
        paths = sample_paths(PathDistribution(6, 6), rng)
        for angles in (paths.aods, paths.aoas):
            assert np.all(angles >= 0.0) and np.all(angles < 2 * np.pi)


class TestAssembleChannel:
    def test_single_path_frobenius_norm(self):
        tx, rx = ArrayGeometry(4), ArrayGeometry(2)
        h = assemble_channel(tx, rx, PathSet(gains=[1.0], aods=[0.3], aoas=[1.1]))
        assert h.shape == (4, 2)
        assert abs(np.linalg.norm(h) - np.sqrt(8.0)) <= 1e-12

    def test_rank_bounded_by_path_count(self):
        rng = np.random.default_rng(6)
        tx, rx = ArrayGeometry(16), ArrayGeometry(8)
        paths = sample_paths(PathDistribution(3, 3), rng)
        s = np.linalg.svd(assemble_channel(tx, rx, paths), compute_uv=False)
        assert np.all(s[3:] <= 1e-10 * s[0])

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        tx, rx = ArrayGeometry(32), ArrayGeometry(8)
        paths = sample_paths(PathDistribution(4, 4), rng)
        h1 = assemble_channel(tx, rx, paths)
        h2 = assemble_channel(tx, rx, paths)
        assert np.array_equal(h1, h2)

    def test_linear_in_gains(self):
        rng = np.random.default_rng(8)
        tx, rx = ArrayGeometry(16), ArrayGeometry(4)
        paths = sample_paths(PathDistribution(3, 3), rng)
        h = assemble_channel(tx, rx, paths)
        # Power-of-two scaling is exact in floating point.
        doubled = PathSet(2.0 * paths.gains, paths.aods, paths.aoas, paths.path_loss)
        assert np.array_equal(assemble_channel(tx, rx, doubled), 2.0 * h)
        c = complex(rng.standard_normal(), rng.standard_normal())
        scaled = PathSet(c * paths.gains, paths.aods, paths.aoas, paths.path_loss)
        np.testing.assert_allclose(assemble_channel(tx, rx, scaled), c * h, rtol=1e-12)

    def test_path_loss_scaling(self):
        tx, rx = ArrayGeometry(4), ArrayGeometry(4)
        base = PathSet(gains=[1.0 + 1.0j], aods=[0.2], aoas=[0.4], path_loss=1.0)
        quartered = PathSet(gains=[1.0 + 1.0j], aods=[0.2], aoas=[0.4], path_loss=4.0)
        np.testing.assert_allclose(
            assemble_channel(tx, rx, quartered), 0.5 * assemble_channel(tx, rx, base), rtol=1e-14
        )

    def test_pathset_validation(self):
        with pytest.raises(ValueError):
            PathSet(gains=[1.0, 2.0], aods=[0.1], aoas=[0.2])
        with pytest.raises(ValueError):
            PathSet(gains=[1.0], aods=[0.1], aoas=[0.2], path_loss=0.0)


def dense_profile(tx, rx, dist, trials, rng):
    """The profile from full SVDs of assembled channels, on the same draws."""
    profile = np.zeros(min(tx.n_elements, rx.n_elements))
    for _ in range(trials):
        h = assemble_channel(tx, rx, channel.sample_paths(dist, rng))
        energy = np.linalg.svd(h, compute_uv=False) ** 2
        profile += energy / energy.sum()
    return profile / trials


def assert_matches_dense(tx, rx, dist, trials, seed):
    prof = singular_energy_profile(tx, rx, dist, trials, np.random.default_rng(seed))
    dense = dense_profile(tx, rx, dist, trials, np.random.default_rng(seed))
    np.testing.assert_allclose(prof, dense, rtol=0, atol=1e-12)
    # Rank is at most L: the tail is exactly zero, not rounding noise.
    assert np.all(prof[dist.l_max:] == 0.0)
    return prof


class TestSteeringGram:
    @pytest.mark.parametrize("theta", [0.3, 0.5, 1.0, 1.5])
    @pytest.mark.parametrize("n", [4, 16, 32, 512])
    def test_matches_dense_gram(self, n, theta):
        geom = ArrayGeometry(n)
        # An exact collision, equal sines (theta and pi - theta), the
        # endfire pair (pi/2 against 3*pi/2, where x = -pi and N*sin(x) is
        # rounding, not 0), then random angles.
        angles = np.concatenate([[theta, theta, np.pi - theta, np.pi / 2, 1.5 * np.pi],
                                 np.random.default_rng(n).uniform(0.0, 2.0 * np.pi, 5)])
        a = steering_matrix(geom, angles)
        gram = channel._steering_gram(geom, angles)
        np.testing.assert_allclose(gram, a.conj().T @ a, rtol=0, atol=1e-11)
        assert np.all(np.diag(gram) == 1.0)
        assert gram[0, 1] == gram[1, 0] == 1.0

    def test_stacked_angles(self):
        geom = ArrayGeometry(32)
        angles = np.random.default_rng(3).uniform(0.0, 2.0 * np.pi, (3, 4))
        stacked = channel._steering_gram(geom, angles)
        assert stacked.shape == (3, 4, 4)
        for row, gram in zip(angles, stacked):
            np.testing.assert_array_equal(gram, channel._steering_gram(geom, row))

    @staticmethod
    def full_matrix_gram(geom, angles):
        # Every entry from the closed form, the limit taken wherever
        # N*sin(x) is 0: the reference the triangle route must match.
        n = geom.n_elements
        sines = np.sin(angles)
        x = np.pi * channel._SPACING * (sines[..., None, :] - sines[..., :, None])
        den = n * np.sin(x)
        limit = den == 0
        ratio = (np.where(limit, np.cos(n * x), np.sin(n * x))
                 / np.where(limit, np.cos(x), den))
        return np.exp(1j * (n - 1) * x) * ratio

    @pytest.mark.parametrize("theta", [0.3, 0.5, 1.0, 1.5])
    @pytest.mark.parametrize("n", [4, 16, 32, 512])
    def test_bit_for_bit_full_matrix(self, n, theta):
        # Compared as raw bits, so a -0 where the formula gives +0 fails.
        geom = ArrayGeometry(n)
        rng = np.random.default_rng(n)
        # An exact collision, equal sines, the endfire pair (x = -pi).
        special = [theta, theta, np.pi - theta, np.pi / 2, 1.5 * np.pi]
        for size in range(1, 9):
            angles = rng.uniform(0.0, 2.0 * np.pi, (3, size))
            angles[0] = special[:size] + [0.1 * k for k in range(size - len(special))]
            for case in (angles, angles[1]):
                gram = channel._steering_gram(geom, case)
                reference = self.full_matrix_gram(geom, case)
                assert gram.shape == reference.shape == case.shape + (size,)
                np.testing.assert_array_equal(gram.view(np.uint64), reference.view(np.uint64))


class TestSingularEnergyProfile:
    @pytest.mark.parametrize("n_paths", range(1, 7))
    def test_matches_dense_svd_fig2_arrays(self, n_paths):
        assert_matches_dense(ArrayGeometry(512), ArrayGeometry(32),
                             PathDistribution(n_paths, n_paths), 20, 100 + n_paths)

    def test_matches_dense_svd_colliding_angles(self, monkeypatch):
        draw = channel._draw_layout

        def colliding(rng, angles, normals):
            draw(rng, angles, normals)
            angles[1] = angles[0]  # departures 0 and 1 share an angle
            angles[7] = angles[6]  # arrivals 2 and 3 (entries L + 2, L + 3) too

        # Both the profile and the dense reference's sample_paths draw
        # through _draw_layout.
        monkeypatch.setattr(channel, "_draw_layout", colliding)
        prof = assert_matches_dense(ArrayGeometry(512), ArrayGeometry(32),
                                    PathDistribution(4, 4), 20, 7)
        assert prof[3] <= 1e-12  # two shared ends leave rank 3

    @pytest.mark.parametrize("n_tx, n_rx, n_paths", [
        (16, 4, 6),  # every receive Gram is singular
        (4, 16, 6),  # every transmit Gram is singular
        # Odd tiny transmit arrays: the computed Gram can be indefinite
        # by thousands of L*eps, far more than rounding.
        (5, 16, 7),
        (3, 8, 8),
    ])
    def test_matches_dense_svd_more_paths_than_elements(self, monkeypatch, n_tx, n_rx, n_paths):
        fallback = []
        factor = channel._transmit_factor

        def recording(gram):
            fallback.append(gram)
            return factor(gram)

        monkeypatch.setattr(channel, "_transmit_factor", recording)
        trials = 30
        prof = assert_matches_dense(ArrayGeometry(n_tx), ArrayGeometry(n_rx),
                                    PathDistribution(n_paths, n_paths), trials, 8)
        assert prof.shape == (min(n_tx, n_rx),)
        assert np.all(prof > 0)
        # A singular transmit Gram sends the chunk's draws one at a time.
        assert len(fallback) == (trials if n_paths > n_tx else 0)

    def test_matches_dense_svd_with_path_loss(self):
        assert_matches_dense(ArrayGeometry(64), ArrayGeometry(16),
                             PathDistribution(3, 3, k_factor_db=5.0, path_loss=40.0), 20, 9)

    def test_single_path_all_energy_in_first(self):
        tx, rx = ArrayGeometry(32), ArrayGeometry(8)
        prof = singular_energy_profile(tx, rx, PathDistribution(1, 1), 20, np.random.default_rng(9))
        assert abs(prof[0] - 1.0) <= 1e-9
        assert np.all(prof[1:] <= 1e-20)

    def test_profile_shape_properties(self):
        tx, rx = ArrayGeometry(64), ArrayGeometry(16)
        prof = singular_energy_profile(tx, rx, PathDistribution(4, 4), 50, np.random.default_rng(10))
        assert prof.shape == (16,)
        assert np.all(prof >= 0)
        assert np.all(np.diff(prof) <= 1e-15)
        assert abs(prof.sum() - 1.0) <= 1e-9

    def test_rank_three_top_energy_regression(self):
        # Regression values frozen from this 1000-trial run (seed path (0, 3)).
        tx, rx = ArrayGeometry(512), ArrayGeometry(32)
        prof = singular_energy_profile(
            tx, rx, PathDistribution(3, 3, 0.0), 1000, derive_rng(0, 3)
        )
        assert abs(prof[:3].sum() - 1.0) <= 1e-9
        np.testing.assert_allclose(
            prof[:3],
            [0.641481169815, 0.265165196518, 0.093353633666],
            atol=1e-6,
        )

    def test_chunk_size_changes_no_bit(self, monkeypatch):
        tx, rx = ArrayGeometry(64), ArrayGeometry(16)
        dist = PathDistribution(4, 4)
        draw = channel._draw_layout
        collided = []

        def sometimes_colliding(rng, angles, normals):
            draw(rng, angles, normals)
            collided.append(normals[0] > 0)  # the stream picks the draws
            if collided[-1]:
                angles[1] = angles[0]  # departures 0 and 1 share an angle

        # With collisions on some draws only, a stack mixes Cholesky
        # factors with eigendecomposition roots.
        for layout in (draw, sometimes_colliding):
            monkeypatch.setattr(channel, "_draw_layout", layout)
            profiles = []
            for chunk in (1024, 7, 1):
                monkeypatch.setattr(channel, "_PROFILE_CHUNK", chunk)
                rng = np.random.default_rng(11)
                profiles.append(singular_energy_profile(tx, rx, dist, 40, rng))
            for profile in profiles[1:]:
                assert np.array_equal(profile, profiles[0])
        assert 0 < sum(collided) < len(collided)

    @pytest.mark.parametrize("n_paths", range(1, 7))
    def test_cholesky_route_moves_results_by_rounding_only(self, n_paths):
        tx, rx = ArrayGeometry(512), ArrayGeometry(32)
        dist, trials, seed = PathDistribution(n_paths, n_paths), 200, 300 + n_paths
        prof = singular_energy_profile(tx, rx, dist, trials, np.random.default_rng(seed))
        gains, aods, aoas = channel._draw_paths(dist.k_factor_db, n_paths, trials,
                                                np.random.default_rng(seed))
        # The reference factors every transmit Gram by its eigendecomposition
        # root, eigenvalues clipped at 0.
        w, v = np.linalg.eigh(channel._steering_gram(tx, aods))
        root = (v * np.sqrt(np.clip(w, 0.0, None))[:, None, :]) @ v.conj().transpose(0, 2, 1)
        core = gains[:, :, None] * channel._steering_gram(rx, aoas) * gains.conj()[:, None, :]
        energy = np.clip(np.linalg.eigvalsh(root @ core @ root)[:, ::-1], 0.0, None)
        reference = np.mean(energy / energy.sum(axis=1, keepdims=True), axis=0)
        np.testing.assert_allclose(prof[:n_paths], reference, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("k_factor_db", [0.0, 10.0])
    @pytest.mark.parametrize("n_paths", range(1, 7))
    def test_draws_are_the_sample_paths_stream(self, monkeypatch, n_paths, k_factor_db):
        dist = PathDistribution(n_paths, n_paths, k_factor_db, path_loss=40.0)
        trials, seed = 5, 60 + n_paths
        expected_rng = np.random.default_rng(seed)
        expected = [channel.sample_paths(dist, expected_rng) for _ in range(trials)]

        drawn = []
        draw = channel._draw_paths

        def recording(*args):
            drawn.append(draw(*args))
            return drawn[-1]

        monkeypatch.setattr(channel, "_draw_paths", recording)
        monkeypatch.setattr(channel, "_PROFILE_CHUNK", 2)
        rng = np.random.default_rng(seed)
        singular_energy_profile(ArrayGeometry(16), ArrayGeometry(4), dist, trials, rng)
        for got, field in zip(zip(*drawn), ("gains", "aods", "aoas")):
            want = np.array([getattr(p, field) for p in expected])
            assert np.concatenate(got).tobytes() == want.tobytes()  # bit for bit
        # The skipped integers(L, L + 1) call of a fixed count consumes nothing.
        assert rng.bit_generator.state == expected_rng.bit_generator.state

    def test_requires_fixed_path_count(self):
        tx, rx = ArrayGeometry(8), ArrayGeometry(4)
        with pytest.raises(ValueError):
            singular_energy_profile(tx, rx, PathDistribution(2, 6), 5, np.random.default_rng(0))
        with pytest.raises(ValueError):
            singular_energy_profile(tx, rx, PathDistribution(2, 2), 0, np.random.default_rng(0))

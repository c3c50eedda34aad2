import itertools
import warnings

import numpy as np
import pytest

from mmwave_backhaul import (
    ArrayGeometry,
    FactorizeOptions,
    PathDistribution,
    assemble_channel,
    factorize,
    factorize_combiner,
    factored_svd,
    phase_project,
    sample_paths,
    steering_matrix,
    truncated_svd,
)
from mmwave_backhaul.factorization import (
    _MAX_COND,
    _STALL_TOLERANCE,
    _STALL_WINDOW,
    _checked_inverse,
    _step,
)
from mmwave_backhaul.simulation import _LINK_FACTORIZE_OPTS


def channel_svd(n_tx, n_rx, n_paths, rank, seed):
    rng = np.random.default_rng(seed)
    paths = sample_paths(PathDistribution(n_paths, n_paths), rng)
    h = assemble_channel(ArrayGeometry(n_tx), ArrayGeometry(n_rx), paths)
    return truncated_svd(h, rank)


def precoder_target(n_tx, n_rx, n_paths, rank, seed):
    return channel_svd(n_tx, n_rx, n_paths, rank, seed).left.conj().T


def combiner_target(n_tx, n_rx, n_paths, rank, seed):
    """The (rank, n_rx) target that factorize_combiner hands to factorize."""
    return channel_svd(n_tx, n_rx, n_paths, rank, seed).right.conj().T


def path_svd(n_tx, n_rx, n_paths, rank, seed):
    """Steering matrices of one draw and its path-core SVD, as the link builds them."""
    tx, rx = ArrayGeometry(n_tx), ArrayGeometry(n_rx)
    paths = sample_paths(PathDistribution(n_paths, n_paths), np.random.default_rng(seed))
    a_tx, a_rx = steering_matrix(tx, paths.aods), steering_matrix(rx, paths.aoas)
    return a_tx, a_rx, factored_svd(a_tx, np.sqrt(n_tx * n_rx) * paths.gains, a_rx, rank)


def first_iterate_residual(target, modulus):
    analog = phase_project(target, modulus)
    digital = target @ np.linalg.pinv(analog)
    return np.linalg.norm(target - digital @ analog) / np.linalg.norm(target)


def residual_trajectory(target, steps):
    """Relative residual after each of ``steps`` iterations, with no stopping rule."""
    target_norm = np.linalg.norm(target)
    modulus = 1.0 / np.sqrt(target.shape[1])
    shadow, residuals = target, []
    for _ in range(steps):
        analog, digital, _, shadow, _ = _step(target, shadow, modulus)
        residuals.append(np.linalg.norm(target - digital @ analog) / target_norm)
    return np.array(residuals)


def textbook_factorize(target, max_iterations):
    """The alternating iteration in its plain form, with the same stopping rule.

    Phases from cos/sin of the angle, the digital refit ``target @
    pinv(analog)`` and the next phase-copy target ``pinv(digital) @
    target``; returns the steps taken and the best relative residual.
    """
    target_norm = np.linalg.norm(target)
    modulus = 1.0 / np.sqrt(target.shape[1])
    shadow, best, history = target, np.inf, []
    for step in range(1, max_iterations + 1):
        theta = np.angle(shadow)
        analog = modulus * (np.cos(theta) + 1j * np.sin(theta))
        digital = target @ np.linalg.pinv(analog)
        best = min(best, np.linalg.norm(target - digital @ analog) / target_norm)
        history.append(best)
        if best <= _STALL_TOLERANCE or (
                step > _STALL_WINDOW
                and history[-_STALL_WINDOW - 1] - best <= _STALL_WINDOW * _STALL_TOLERANCE):
            break
        shadow = np.linalg.pinv(digital) @ target
    return step, best


def rank_deficient_targets():
    rng = np.random.default_rng(11)
    base = rng.standard_normal((3, 24)) + 1j * rng.standard_normal((3, 24))
    duplicated = base.copy()
    duplicated[1] = duplicated[0]
    zero_row = base.copy()
    zero_row[2] = 0
    u = rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))
    v = rng.standard_normal((1, 24)) + 1j * rng.standard_normal((1, 24))
    return {"duplicated_rows": duplicated, "zero_row": zero_row, "rank_one": u @ v}


class TestPhaseProject:
    def test_basic_example(self):
        out = phase_project(np.array([2.0, -3.0j]), 1.0)
        np.testing.assert_allclose(out, [1.0, -1.0j], atol=1e-15)

    def test_already_constant_modulus_unchanged(self):
        rng = np.random.default_rng(0)
        m = 0.3 * np.exp(1j * rng.uniform(0, 2 * np.pi, (3, 5)))
        np.testing.assert_allclose(phase_project(m, 0.3), m, atol=1e-15)

    def test_zero_maps_to_phase_zero(self):
        out = phase_project(np.array([0.0 + 0.0j, 1.0j]), 0.25)
        assert out[0] == 0.25
        np.testing.assert_allclose(out[1], 0.25j, atol=1e-16)

    def test_matches_complex_exponential(self):
        rng = np.random.default_rng(12)
        m = rng.standard_normal((4, 64)) + 1j * rng.standard_normal((4, 64))
        m[0, :5] = 0
        m[1, :3] = rng.standard_normal(3)  # real entries of both signs
        modulus = 1.0 / np.sqrt(64)
        expected = modulus * np.exp(1j * np.angle(m))
        np.testing.assert_allclose(phase_project(m, modulus), expected, rtol=0, atol=1e-15)


class TestFactorize:
    def test_feasible_target_is_exact(self):
        rng = np.random.default_rng(1)
        n = 16
        c = 1.0 / np.sqrt(n)
        target = c * np.exp(1j * rng.uniform(0, 2 * np.pi, (1, n)))
        result = factorize(target)
        assert result.residual <= 1e-12
        assert abs(abs(result.digital[0, 0]) - 1.0) <= 1e-12

    def test_single_row_matches_one_step_oracle(self):
        rng = np.random.default_rng(2)
        row = (rng.standard_normal((1, 12)) + 1j * rng.standard_normal((1, 12)))
        result = factorize(row)
        analog = phase_project(row, result.modulus)
        digital = row @ np.linalg.pinv(analog)
        oracle = np.linalg.norm(row - digital @ analog) / np.linalg.norm(row)
        assert abs(result.residual - oracle) <= 1e-12
        # The analog factor is reproduced up to one global phase.
        ratio = result.analog / analog
        assert np.max(np.abs(np.abs(ratio) - 1.0)) <= 1e-12
        assert np.max(np.abs(ratio - ratio[0, 0])) <= 1e-9

    def test_reference_scale_residual_bound(self):
        target = precoder_target(512, 32, 4, 4, seed=3)
        result = factorize(target)
        assert result.residual <= 0.1
        assert result.iterations_used <= 100

    def test_analog_modulus_exact(self):
        target = precoder_target(64, 16, 4, 4, seed=4)
        result = factorize(target)
        deviation = np.abs(np.abs(result.analog) ** 2 - result.modulus**2)
        assert np.max(deviation) <= 1e-15

    def test_returned_iterate_no_worse_than_first(self):
        targets = [np.random.default_rng(seed).standard_normal((3, 24))
                   + 1j * np.random.default_rng(seed + 100).standard_normal((3, 24))
                   for seed in range(10)]
        # The link's iterated combiners, which overshoot and oscillate.
        targets += [path_svd(512, 32, n_paths, 4, seed=seed)[2].right.conj().T
                    for n_paths, seed in [(5, 273), (6, 99), (6, 16), (5, 25)]]
        for target, opts in itertools.product(targets, [None, _LINK_FACTORIZE_OPTS]):
            result = factorize(target, opts)
            modulus = result.modulus
            first_analog = phase_project(target, modulus)
            first_digital = target @ np.linalg.pinv(first_analog)
            first = np.linalg.norm(target - first_digital @ first_analog) / np.linalg.norm(target)
            assert result.residual <= first + 1e-12

    def test_digital_refit_is_global_optimum(self):
        rng = np.random.default_rng(6)
        target = rng.standard_normal((3, 20)) + 1j * rng.standard_normal((3, 20))
        analog = phase_project(target, 1.0 / np.sqrt(20))
        digital = target @ np.linalg.pinv(analog)
        best = np.linalg.norm(target - digital @ analog)
        for _ in range(100):
            other = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            assert best <= np.linalg.norm(target - other @ analog) + 1e-12

    def test_deterministic(self):
        target = precoder_target(64, 16, 3, 3, seed=7)
        a = factorize(target)
        b = factorize(target)
        assert np.array_equal(a.analog, b.analog)
        assert np.array_equal(a.digital, b.digital)
        assert a.residual == b.residual

    @pytest.mark.parametrize("target", [
        precoder_target(512, 32, 2, 4, seed=13),
        precoder_target(512, 32, 5, 4, seed=14),
        combiner_target(512, 32, 2, 4, seed=15),
        combiner_target(512, 32, 5, 4, seed=16),
        # Its analog stage drifts toward rank deficiency while the best
        # residual still falls (about 370 steps at the link options), so
        # most late steps must take the pseudoinverse.
        combiner_target(512, 32, 3, 4, seed=51),
    ], ids=["precoder_2_paths", "precoder_5_paths", "combiner_2_paths", "combiner_5_paths",
            "combiner_ill_conditioned"])
    def test_link_options_refit_is_least_squares(self, target):
        result = factorize(target, _LINK_FACTORIZE_OPTS)
        oracle = target @ np.linalg.pinv(result.analog)
        rel = np.linalg.norm(result.digital - oracle) / np.linalg.norm(oracle)
        assert rel <= 1e-10
        recon = np.linalg.norm(target - result.digital @ result.analog) / np.linalg.norm(target)
        assert abs(result.residual - recon) <= 1e-12

    @pytest.mark.parametrize("opts", [None, _LINK_FACTORIZE_OPTS], ids=["default", "link"])
    @pytest.mark.parametrize("name", ["duplicated_rows", "zero_row", "rank_one"])
    def test_rank_deficient_target_takes_pseudoinverse(self, name, opts, monkeypatch):
        target = rank_deficient_targets()[name]
        first = first_iterate_residual(target, 1.0 / np.sqrt(target.shape[1]))
        pinv_calls = []
        pinv = np.linalg.pinv
        monkeypatch.setattr(np.linalg, "pinv", lambda m: pinv_calls.append(m) or pinv(m))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = factorize(target, opts)
        assert pinv_calls
        # A step takes one pseudoinverse for the refreshed target, and one
        # more when the refit needs it too.
        assert result.pinv_steps <= len(pinv_calls) <= 2 * result.pinv_steps
        assert np.all(np.isfinite(result.digital)) and np.all(np.isfinite(result.analog))
        assert result.residual <= first + 1e-12

    @pytest.mark.parametrize("n_paths", [2, 3, 4])
    def test_steering_start_is_exact_when_every_path_is_a_stream(self, n_paths):
        for seed in range(5):
            a_tx, a_rx, svd = path_svd(512, 32, n_paths, 4, seed=[61, n_paths, seed])
            assert svd.rank_used == n_paths
            prec = factorize(svd.left.conj().T, _LINK_FACTORIZE_OPTS, start=a_tx.conj().T)
            comb = factorize_combiner(svd.right, _LINK_FACTORIZE_OPTS, start=a_rx)
            for result in (prec, comb):
                assert result.residual <= 1e-12
                assert result.iterations_used <= 3
            recon = comb.analog @ comb.digital
            assert np.linalg.norm(recon - svd.right) <= 1e-12 * np.linalg.norm(svd.right)

    @pytest.mark.parametrize("n_paths", [5, 6])
    def test_more_paths_than_streams_iterates_as_before(self, n_paths):
        # The link used to take its targets from a dense SVD of the
        # assembled channel; the path-core targets follow the same
        # iteration from the target itself.
        for seed in range(4):
            _, _, svd = path_svd(512, 32, n_paths, 4, seed=seed)
            dense = channel_svd(512, 32, n_paths, 4, seed=seed)
            assert svd.rank_used == 4
            pairs = [(factorize(svd.left.conj().T, _LINK_FACTORIZE_OPTS),
                      factorize(dense.left.conj().T, _LINK_FACTORIZE_OPTS)),
                     (factorize_combiner(svd.right, _LINK_FACTORIZE_OPTS),
                      factorize_combiner(dense.right, _LINK_FACTORIZE_OPTS))]
            for new, old in pairs:
                assert new.iterations_used == old.iterations_used
                assert abs(new.residual - old.residual) <= 1e-9 * old.residual

    @pytest.mark.parametrize("n_paths", [5, 6])
    def test_iterated_link_targets_follow_the_textbook_iteration(self, n_paths):
        for seed in range(20):
            _, _, svd = path_svd(512, 32, n_paths, 4, seed=seed)
            for target in (svd.left.conj().T, svd.right.conj().T):
                result = factorize(target, _LINK_FACTORIZE_OPTS)
                steps, residual = textbook_factorize(target, _LINK_FACTORIZE_OPTS.max_iterations)
                assert result.iterations_used == steps > 1
                assert abs(result.residual - residual) <= 1e-9 * residual

    @pytest.mark.parametrize("n_paths, seed", [(6, 16), (5, 25)])
    def test_plateaued_oscillating_combiner_stops_early(self, n_paths, seed):
        # The raw residual of these combiners oscillates for hundreds of
        # steps after the best has settled, so a step-to-step stall test
        # never fires and the old rule ran them to the 600-step cap.
        target = path_svd(512, 32, n_paths, 4, seed=seed)[2].right.conj().T
        deep = residual_trajectory(target, 600)
        assert np.sum(np.diff(deep[100:]) > 0) >= 100
        result = factorize(target, _LINK_FACTORIZE_OPTS)
        assert result.iterations_used <= 150
        # Within 0.1% of the best residual that 600 steps reach.
        assert result.residual <= deep.min() * (1 + 1e-3)

    @pytest.mark.parametrize("n_paths, seed, overshoot", [(5, 273, 12), (6, 99, 3)])
    def test_overshooting_combiner_does_not_stop_in_the_window(self, n_paths, seed, overshoot):
        # The residual rises above its best and stays there for
        # ``overshoot`` steps before falling far below it; a window of
        # one would stop at the first rise, and the 12-step case
        # outlasts a window of ten.
        target = path_svd(512, 32, n_paths, 4, seed=seed)[2].right.conj().T
        deep = residual_trajectory(target, 60)
        rise = int(np.argmax(np.diff(deep) > 0)) + 1
        before = deep[:rise].min()
        assert np.all(deep[rise:rise + overshoot] >= before)
        result = factorize(target, _LINK_FACTORIZE_OPTS)
        assert result.iterations_used > rise + overshoot
        assert result.residual <= 0.7 * before

    def test_start_none_is_the_target(self):
        target = precoder_target(64, 16, 3, 3, seed=7)
        a = factorize(target)
        b = factorize(target, start=target)
        assert np.array_equal(a.analog, b.analog) and np.array_equal(a.digital, b.digital)
        with pytest.raises(ValueError):
            factorize(target, start=target[:2])

    def test_invalid_targets(self):
        with pytest.raises(ValueError):
            factorize(np.zeros((2, 8), dtype=complex))
        with pytest.raises(ValueError):
            factorize(np.ones((8, 2), dtype=complex))
        with pytest.raises(ValueError):
            FactorizeOptions(max_iterations=0)


class TestCheckedInverse:
    @pytest.mark.parametrize("rank", range(1, 7))
    def test_well_conditioned_stack_is_the_plain_inverse(self, rank):
        rng = np.random.default_rng([71, rank])
        stack = (np.eye(rank) * 4 + rng.standard_normal((2, rank, rank))
                 + 1j * rng.standard_normal((2, rank, rank)))
        inverses = _checked_inverse(stack)
        assert np.array_equal(inverses, np.linalg.inv(stack))
        # A stack of one takes the same bits as the matrix alone.
        for matrix in stack:
            assert np.array_equal(_checked_inverse(matrix[np.newaxis])[0], np.linalg.inv(matrix))

    @pytest.mark.parametrize("bad", [0, 1])
    def test_one_ill_conditioned_matrix_rejects_the_stack(self, bad):
        stack = np.array([np.eye(2), np.eye(2)], dtype=complex)
        # Its inverse's largest entry is ten times _MAX_COND over its own.
        stack[bad] = np.diag([1.0, 0.1 / _MAX_COND])
        assert np.isfinite(np.linalg.inv(stack)).all()
        assert _checked_inverse(stack) is None
        assert _checked_inverse(stack[1 - bad:2 - bad]) is not None

    def test_singular_stack_is_rejected(self):
        stack = np.array([np.eye(2), [[1.0, 2.0], [2.0, 4.0]]], dtype=complex)
        assert _checked_inverse(stack) is None


class TestFactorizeCombiner:
    # Three paths on four streams are closed form from the steering start;
    # five paths iterate.
    @pytest.mark.parametrize("n_paths, start", [(3, None), (3, "steering"), (5, None),
                                                (5, "random")])
    def test_is_factorize_of_the_conjugate_transpose(self, n_paths, start):
        _, a_rx, svd = path_svd(512, 32, n_paths, 4, seed=[81, n_paths])
        if start == "steering":
            start = a_rx
        elif start == "random":
            rng = np.random.default_rng(82)
            start = rng.standard_normal(svd.right.shape) + 1j * rng.standard_normal(svd.right.shape)
        comb = factorize_combiner(svd.right, _LINK_FACTORIZE_OPTS, start)
        prec = factorize(svd.right.conj().T, _LINK_FACTORIZE_OPTS,
                         None if start is None else start.conj().T)
        assert np.array_equal(comb.analog, prec.analog.conj().T)
        assert np.array_equal(comb.digital, prec.digital.conj().T)
        assert (comb.modulus, comb.residual, comb.iterations_used, comb.pinv_steps) == (
            prec.modulus, prec.residual, prec.iterations_used, prec.pinv_steps)

    def test_reconstruction_matches_residual(self):
        rng = np.random.default_rng(9)
        paths = sample_paths(PathDistribution(4, 4), rng)
        h = assemble_channel(ArrayGeometry(128), ArrayGeometry(32), paths)
        combiner = truncated_svd(h, 4).right
        result = factorize_combiner(combiner)
        recon = result.analog @ result.digital
        rel = np.linalg.norm(combiner - recon) / np.linalg.norm(combiner)
        assert abs(rel - result.residual) <= 1e-12

    def test_shapes_and_modulus(self):
        rng = np.random.default_rng(10)
        combiner = rng.standard_normal((32, 4)) + 1j * rng.standard_normal((32, 4))
        result = factorize_combiner(combiner)
        assert result.analog.shape == (32, 4)
        assert result.digital.shape == (4, 4)
        assert np.max(np.abs(np.abs(result.analog) - result.modulus)) <= 1e-15

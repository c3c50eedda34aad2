import hashlib
import importlib.util
import json
import platform
import subprocess
import sys

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from mmwave_backhaul import (
    ALLOCATIONS,
    SCHEMES,
    CapacityResult,
    CapacityRow,
    ConfigNotFoundError,
    ConfigSyntaxError,
    ConfigValidationError,
    EstimationConfig,
    RankProfileTable,
    ScenarioConfig,
    SingularCouplingError,
    emit_csv,
    parse_config,
    write_manifest,
)
from mmwave_backhaul import cli, config
from mmwave_backhaul.config import parse_config_text, preset_scenarios, render_config
from subprocess_env import child_env

MINIMAL = """\
n_ma: 64
n_sm: 8
k_users: 2
n_bb_ma: 4
n_bb_sm: 2
"""

# dB values whose linear ratios are finite and positive.
DECIBELS = st.floats(-300.0, 300.0)
# Path losses whose steering scale, and observation noise variance over
# such SNRs, are finite.
PATH_LOSSES = st.floats(1e-250, 1e250)
COUNTS = st.integers(1, 64)

ESTIMATIONS = st.builds(
    EstimationConfig,
    l_ma=COUNTS, l_sm=COUNTS, keep=COUNTS,
    snr_db=DECIBELS,
)


@st.composite
def scenarios(draw):
    """Valid scenarios over the whole schema, with and without estimation."""
    k_users = draw(st.integers(1, 4))
    n_bb_sm = draw(st.integers(1, 4))
    n_bb_ma = draw(st.integers(k_users * n_bb_sm, 20))
    estimation = draw(st.none() | ESTIMATIONS)
    n_min = 4 if estimation else 1  # the snapshot fit needs 4 elements per array
    n_sm = draw(st.integers(max(n_bb_sm, n_min), 40))
    allowed = SCHEMES if estimation else tuple(s for s in SCHEMES if s != "hybrid_estimated")
    schemes = tuple(draw(st.lists(st.sampled_from(allowed), min_size=1, unique=True)))
    n_ma_min = max(n_bb_ma, n_min, k_users * n_sm if "full_digital" in schemes else 1)
    l_min = draw(st.integers(1, 8))
    return ScenarioConfig(
        n_ma=draw(st.integers(n_ma_min, 1024)), n_sm=n_sm, k_users=k_users,
        n_bb_ma=n_bb_ma, n_bb_sm=n_bb_sm,
        k_factor_db=draw(DECIBELS), l_min=l_min, l_max=draw(st.integers(l_min, 12)),
        path_loss=draw(PATH_LOSSES),
        snr_grid_db=tuple(draw(st.lists(DECIBELS, min_size=1, max_size=5, unique=True))),
        trials=draw(st.integers(1, 10**6)), schemes=schemes,
        allocation=draw(st.sampled_from(ALLOCATIONS)), estimation=estimation,
        master_seed=draw(st.integers(0, 2**64 - 1)),
    )


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = parse_config_text(MINIMAL)
        assert cfg.path_loss == 1.0
        assert (cfg.l_min, cfg.l_max) == (2, 6)
        assert cfg.allocation == "waterfilling"
        assert cfg.estimation is None

    def test_invariant_violation_names_it(self):
        bad = MINIMAL.replace("k_users: 2", "k_users: 3")
        with pytest.raises(ConfigValidationError, match="k_users\\*n_bb_sm <= n_bb_ma"):
            parse_config_text(bad)

    def test_unknown_key_rejected_with_line(self):
        # The noise variance is fixed at 1, the arrays are half-wavelength,
        # and the estimator's rank threshold, path cap and merge gate are
        # constants: none is a key.
        for extra, key, line in (("beam_count: 7\n", "beam_count", 6),
                                 ("noise_var: 1.0\n", "noise_var", 6),
                                 ("spacing: 0.5\n", "spacing", 6),
                                 ("estimation:\n  rank_threshold: 0.01\n", "rank_threshold", 7),
                                 ("estimation:\n  keep: 8\n  max_paths: 8\n", "max_paths", 8),
                                 ("estimation:\n  merge_tol: 0.01\n", "merge_tol", 7)):
            with pytest.raises(ConfigValidationError, match=f"line {line}: unknown .*'{key}'"):
                parse_config_text(MINIMAL + extra)

    def test_syntax_error_category(self):
        with pytest.raises(ConfigSyntaxError):
            parse_config_text("n_ma: [unclosed\n")

    def test_missing_file_category(self, tmp_path):
        with pytest.raises(ConfigNotFoundError):
            parse_config(tmp_path / "nope.yaml")

    def test_missing_required_key(self):
        with pytest.raises(ConfigValidationError, match="n_bb_sm"):
            parse_config_text("n_ma: 64\nn_sm: 8\nk_users: 2\nn_bb_ma: 4\n")

    def test_estimation_section(self):
        cfg = parse_config_text(MINIMAL + "estimation:\n  keep: 4\n  snr_db: 15\n")
        assert cfg.estimation.keep == 4
        assert cfg.estimation.snr_db == 15.0
        with pytest.raises(ConfigValidationError, match="unknown estimation key"):
            parse_config_text(MINIMAL + "estimation:\n  beams: 4\n")

    def test_estimation_follows_the_scenario(self):
        # The estimator samples the scenario's arrays with the scenario's
        # chains, at its path loss; none of the three is an estimation key.
        cfg = parse_config_text(MINIMAL + "path_loss: 2.5\nestimation:\n  keep: 4\n")
        assert (cfg.estimation.n_bb_ma, cfg.estimation.n_bb_sm) == (4, 2)
        assert cfg.estimation.path_loss == 2.5

    def test_type_errors(self):
        with pytest.raises(ConfigValidationError, match="must be a int"):
            parse_config_text(MINIMAL.replace("n_ma: 64", "n_ma: 64.5"))
        with pytest.raises(ConfigValidationError, match="non-empty list"):
            parse_config_text(MINIMAL + "snr_grid_db: []\n")

    @pytest.mark.parametrize("extra, key, line", [
        ("trials: null\n", "trials", 6),
        ("k_factor_db: null\n", "k_factor_db", 6),
        ("spacing: .nan\n", "spacing", 6),
        ("noise_var: .inf\n", "noise_var", 6),  # spacing, noise_var, merge_tol: unknown keys
        ("k_factor_db: true\n", "k_factor_db", 6),
        ("snr_grid_db: [true, 10]\n", "snr_grid_db", 6),
        ("estimation: {keep: null}\n", "keep", 6),
        ("estimation:\n  snr_db: .nan\n", "snr_db", 7),
        ("l_min: 2\npath_loss: 1.0\nmaster_seed: -1\n", "master_seed", 8),
        ("schemes: [hybrid_ideal, full_digital, hybrid_ideal]\n", "schemes", 6),
        ("snr_grid_db: [0, 10, 0.0]\n", "snr_grid_db", 6),
        ("schemes: [hybrid_estimated]\n", "schemes", 6),
        ("estimation:\n  merge_tol: 0\n", "merge_tol", 7),
        ("estimation:\n  merge_tol: -1\n", "merge_tol", 7),
    ])
    def test_bad_value_names_its_line(self, extra, key, line):
        with pytest.raises(ConfigValidationError, match=f"line {line}: .*{key}"):
            parse_config_text(MINIMAL + extra)

    def test_round_trip_identity(self):
        for text in (
            MINIMAL,
            MINIMAL + "schemes: [hybrid_ideal]\nsnr_grid_db: [0, 5, 10]\ntrials: 7\n",
            MINIMAL + "estimation:\n  keep: 3\n  l_ma: 64\n  l_sm: 8\n",
        ):
            cfg = parse_config_text(text)
            assert parse_config_text(render_config(cfg)) == cfg

    @settings(max_examples=100, deadline=None)
    @given(scenarios())
    def test_round_trip_property(self, cfg):
        text = render_config(cfg)
        assert parse_config_text(text) == cfg
        assert text == yaml.safe_dump(config._plain(cfg), sort_keys=True, default_flow_style=None)

    def test_file_parsing(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text(MINIMAL)
        assert parse_config(path) == parse_config_text(MINIMAL)


class TestPresets:
    def test_fig5_reference_setup(self):
        scenarios = preset_scenarios("fig5")
        assert len(scenarios) == 4  # two Rician factors x two allocations
        first = scenarios[0]
        assert (first.n_ma, first.n_sm, first.k_users) == (512, 32, 4)
        assert (first.n_bb_ma, first.n_bb_sm) == (16, 4)
        assert sorted({c.k_factor_db for c in scenarios}) == [0.0, 10.0]
        assert sorted({c.allocation for c in scenarios}) == ["equal", "waterfilling"]
        assert first.snr_grid_db == tuple(float(s) for s in range(-10, 35, 5))
        assert set(first.schemes) == {"hybrid_ideal", "hybrid_estimated", "full_digital"}

    def test_fig2_setup(self):
        (cfg,) = preset_scenarios("fig2")
        assert (cfg.n_ma, cfg.n_sm) == (512, 32)
        assert (cfg.l_min, cfg.l_max) == (1, 6)
        assert cfg.trials == 1000

    def test_overrides(self):
        (cfg,) = preset_scenarios("fig2", seed=99, trials=5)
        assert cfg.master_seed == 99
        assert cfg.trials == 5

    def test_unknown_preset(self):
        with pytest.raises(ConfigValidationError):
            preset_scenarios("fig9")


class TestDigestRendering:
    """A preset's config_digest hashes its scenarios rendered as YAML."""

    @pytest.mark.parametrize("name", ["fig2", "fig5"])
    def test_render_is_the_safe_dump(self, name):
        # Whichever emitter render_config uses writes SafeDumper's text.
        for seed in (None, 0, 1, 42, 2**63 - 1, 2**64 - 1):
            for trials in (None, 1, 50, 10**6):
                for cfg in preset_scenarios(name, seed=seed, trials=trials):
                    assert render_config(cfg) == yaml.safe_dump(
                        config._plain(cfg), sort_keys=True, default_flow_style=None)

    def test_digest_without_libyaml(self, tmp_path, monkeypatch):
        def digest(out):
            argv = ["rank-profile", "--preset", "fig2", "--trials", "2", "--out", str(out)]
            assert cli.main(argv) == 0
            return json.loads((out / "manifest.json").read_text())["config_digest"]

        with_default = digest(tmp_path / "default")
        # A second copy of the config module, loaded as if PyYAML had no
        # libyaml; the package's own modules stay as they are.
        monkeypatch.delattr(yaml, "CSafeDumper", raising=False)
        spec = importlib.util.find_spec("mmwave_backhaul.config")
        pure = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(pure)
        assert pure._DUMPER is yaml.SafeDumper
        monkeypatch.setattr(cli, "render_config", pure.render_config)
        assert digest(tmp_path / "pure") == with_default

    def test_keys_reflected_once_and_read_only(self):
        keys = config._keys(ScenarioConfig)
        assert config._keys(ScenarioConfig) is keys
        with pytest.raises(TypeError):
            keys["trials"] = (int, False)


class TestEmitCsv:
    def rows(self):
        return [
            CapacityRow("hybrid_ideal", "waterfilling", 0.0, 0.0, 0, 12.345678901234),
            CapacityRow("full_digital", "waterfilling", -5.0, 10.0, 1, 3.25),
        ]

    def test_empty_result_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv(CapacityResult(rows=[]), path)
        assert path.read_text() == "scheme,allocation,snr_db,k_factor_db,trial,capacity_bpcu\n"

    def test_single_row(self, tmp_path):
        path = tmp_path / "one.csv"
        emit_csv(CapacityResult(rows=self.rows()[:1]), path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1] == "hybrid_ideal,waterfilling,0,0,0,12.3456789012"

    def test_rows_sorted_and_stable(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(CapacityResult(rows=self.rows()), a)
        emit_csv(CapacityResult(rows=list(reversed(self.rows()))), b)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().splitlines()[1].startswith("full_digital")

    def test_profile_table(self, tmp_path):
        path = tmp_path / "profile.csv"
        emit_csv(RankProfileTable(rows=[(2, 1, 0.25), (1, 0, 1.0)]), path)
        assert path.read_text() == "l,index,mean_energy\n1,0,1\n2,1,0.25\n"

    def test_twelve_significant_digits(self, tmp_path):
        path = tmp_path / "digits.csv"
        rows = [CapacityRow("hybrid_ideal", "equal", 0.0, 0.0, 0, np.pi * 100)]
        emit_csv(CapacityResult(rows=rows), path)
        assert path.read_text().splitlines()[1].endswith("314.159265359")

    def test_unknown_table_type(self, tmp_path):
        with pytest.raises(TypeError):
            emit_csv([(1, 2, 3)], tmp_path / "x.csv")


def load_manifest(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


class TestManifest:
    def test_digest_round_trip(self, tmp_path):
        config_bytes = MINIMAL.encode()
        manifest = load_manifest(write_manifest(tmp_path, config_bytes, 7, 3,
                                                [tmp_path / "capacity.csv"]))
        assert manifest["master_seed"] == 7
        assert manifest["trials"] == 3
        assert manifest["outputs"] == ["capacity.csv"]
        assert manifest["config_digest"] == hashlib.sha256(config_bytes).hexdigest()

    def test_keys_are_the_documented_set(self, tmp_path):
        manifest = load_manifest(write_manifest(tmp_path, b"", 7, 3, []))
        assert set(manifest) == {
            "config_digest", "tool_version", "master_seed", "trials", "timestamp", "outputs",
            "python_version", "numpy_version", "blas_name", "blas_version", "thread_env",
            "stage_seconds",
        }

    def test_environment_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        manifest = load_manifest(write_manifest(tmp_path, MINIMAL.encode(), 7, 3,
                                                [tmp_path / "capacity.csv"]))
        assert manifest["python_version"] == platform.python_version()
        assert manifest["numpy_version"] == np.__version__
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert (manifest["blas_name"], manifest["blas_version"]) == (blas["name"], blas["version"])
        assert manifest["blas_name"]
        assert manifest["thread_env"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None}

    def test_stage_seconds_round_trip(self, tmp_path):
        stages = {"l=1": 0.25, "l=2": 1.5}
        assert load_manifest(write_manifest(tmp_path, MINIMAL.encode(), 7, 3, [], stages))[
            "stage_seconds"] == stages
        assert load_manifest(write_manifest(tmp_path, b"", 7, 3, []))["stage_seconds"] == {}

    def test_digest_is_sha256(self, tmp_path):
        assert load_manifest(write_manifest(tmp_path, b"abc", 7, 3, []))["config_digest"] == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "mmwave_backhaul", *args],
        capture_output=True,
        text=True,
        timeout=600,
        env=child_env(env),
    )


class TestCliEndToEnd:
    def write_config(self, tmp_path, extra=""):
        path = tmp_path / "scenario.yaml"
        path.write_text(
            MINIMAL
            + "l_min: 1\nl_max: 2\ntrials: 2\nsnr_grid_db: [0, 10]\n"
            + extra
        )
        return path

    def test_capacity_sweep_with_config(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "out"
        proc = run_cli("capacity-sweep", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        lines = (out / "capacity.csv").read_text().splitlines()
        assert lines[0] == "scheme,allocation,snr_db,k_factor_db,trial,capacity_bpcu"
        assert len(lines) == 1 + 2 * 2 * 2  # schemes x snrs x trials
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == ["capacity.csv"]
        assert manifest["config_digest"] == hashlib.sha256(cfg.read_bytes()).hexdigest()
        [stage] = manifest["stage_seconds"]
        assert stage.startswith("k_factor_db=")
        assert manifest["stage_seconds"][stage] > 0

    def test_rank_profile_with_config(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "rp"
        proc = run_cli("rank-profile", "--config", str(cfg), "--trials", "3", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        lines = (out / "rank_profile.csv").read_text().splitlines()
        assert lines[0] == "l,index,mean_energy"
        assert len(lines) == 1 + 2 * 8  # l in {1,2}, 8 singular indices
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest["stage_seconds"]) == ["l=1", "l=2"]
        assert all(s > 0 for s in manifest["stage_seconds"].values())

    def test_rank_profile_independent_of_blas_threads(self, tmp_path):
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            proc = run_cli("rank-profile", "--preset", "fig2", "--seed", "42", "--trials", "20",
                           "--out", str(out),
                           env={"OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads})
            assert proc.returncode == 0, proc.stderr
            outputs.append((out / "rank_profile.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_capacity_sweep_independent_of_blas_threads(self, tmp_path):
        # Exact-CSI schemes at the fig5 array sizes; users with fewer paths
        # than streams used to pad their designs with singular vectors that
        # moved with the BLAS threading.
        cfg = tmp_path / "exact.yaml"
        cfg.write_text("n_ma: 512\nn_sm: 32\nk_users: 4\nn_bb_ma: 16\nn_bb_sm: 4\n"
                       "trials: 3\nsnr_grid_db: [0, 20]\nmaster_seed: 42\n"
                       "schemes: [hybrid_ideal, full_digital]\n")
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            proc = run_cli("capacity-sweep", "--config", str(cfg), "--out", str(out),
                           env={"OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads})
            assert proc.returncode == 0, proc.stderr
            outputs.append((out / "capacity.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_estimate_demo(self, tmp_path):
        cfg = self.write_config(
            tmp_path,
            "estimation:\n  l_ma: 64\n  l_sm: 8\n  keep: 4\n",
        )
        proc = run_cli("estimate-demo", "--config", str(cfg), "--out", str(tmp_path / "demo"))
        assert proc.returncode == 0, proc.stderr
        assert "channel NMSE" in proc.stdout
        assert "training slots" in proc.stdout
        # A 64-element pencil's Lanczos depth, 32, would cover its 32-row
        # Hankel, so every departure pencil is dense by design.
        assert ("(dense SVD by design: 64 elements are too few for the truncated pencil)"
                in proc.stdout)
        assert "fallbacks" not in proc.stdout
        proc = run_cli("estimate-demo", "--preset", "fig5", "--out", str(tmp_path / "fig5"))
        assert proc.returncode == 0, proc.stderr
        assert "at the full depth 32," in proc.stdout

    def test_factorize_report(self, tmp_path):
        cfg = self.write_config(tmp_path)
        proc = run_cli("factorize", "--config", str(cfg), "--trials", "2",
                       "--out", str(tmp_path / "fz"))
        assert proc.returncode == 0, proc.stderr
        assert "relative residual" in proc.stdout
        assert "closed form:" in proc.stdout
        assert "precoders (64 elements):" in proc.stdout
        assert "combiners (8 elements):" in proc.stdout
        assert proc.stdout.count("relative residual") == 2
        assert proc.stdout.count("at max_iterations (600)") == 2
        assert proc.stdout.count("iterated targets:   median ") == 2
        assert proc.stdout.count("pseudoinverse steps: ") == 2

    def test_factorize_uses_config_trials(self, tmp_path):
        cfg = self.write_config(tmp_path)  # trials: 2, k_users: 2
        proc = run_cli("factorize", "--config", str(cfg), "--out", str(tmp_path / "fz"))
        assert proc.returncode == 0, proc.stderr
        assert "targets factorized: 4 " in proc.stdout

    def test_config_error_exit_code(self, tmp_path):
        proc = run_cli("capacity-sweep", "--config", str(tmp_path / "missing.yaml"))
        assert proc.returncode == 2
        assert "config error" in proc.stderr

    def test_validation_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text(MINIMAL.replace("k_users: 2", "k_users: 3"))
        proc = run_cli("capacity-sweep", "--config", str(bad))
        assert proc.returncode == 2

    def test_null_value_exit_code(self, tmp_path):
        bad = tmp_path / "null.yaml"
        bad.write_text(MINIMAL + "trials: null\n")
        proc = run_cli("capacity-sweep", "--config", str(bad), "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert "line 6" in proc.stderr

    @pytest.mark.parametrize("extra, key, line", [
        ("snr_grid_db: [-4000.0]\n", "snr_grid_db", 6),
        ("k_factor_db: 4000.0\n", "k_factor_db", 6),
        ("schemes: [hybrid_estimated]\nestimation:\n  snr_db: 4000.0\n", "snr_db", 8),
        ("schemes: [hybrid_estimated]\nestimation:\n  snr_db: -4000.0\n", "snr_db", 8),
        ("path_loss: 1.0e-320\n", "path_loss", 6),
        ("path_loss: 1.0e-300\nschemes: [hybrid_estimated]\nestimation:\n  snr_db: -100.0\n",
         "path_loss", 6),
    ], ids=["budget_underflow", "k_factor_overflow", "snr_overflow", "snr_underflow",
            "steering_scale_overflow", "observation_noise_overflow"])
    def test_db_value_without_finite_positive_ratio_is_config_error(
            self, tmp_path, capsys, extra, key, line):
        # Each parsed once and failed during the run, with exit code 3.
        bad = tmp_path / "db.yaml"
        bad.write_text(MINIMAL + extra)
        assert cli.main(["capacity-sweep", "--config", str(bad),
                         "--out", str(tmp_path / "out")]) == 2
        assert f"line {line}: {key} must" in capsys.readouterr().err

    def test_config_and_preset_conflict(self, tmp_path):
        cfg = self.write_config(tmp_path)
        proc = run_cli("capacity-sweep", "--config", str(cfg), "--preset", "fig5")
        assert proc.returncode == 2
        assert "not both" in proc.stderr

    def test_estimation_chain_key_is_config_error(self, tmp_path):
        cfg = tmp_path / "chains.yaml"
        cfg.write_text(MINIMAL + "estimation: {n_bb_sm: 2}\n")
        proc = run_cli("estimate-demo", "--config", str(cfg), "--out", str(tmp_path / "demo"))
        assert proc.returncode == 2
        assert "line 6: unknown estimation key 'n_bb_sm'" in proc.stderr

    def test_pencil_too_short_is_config_error(self, tmp_path):
        # A two-element receive array cannot support the line-spectral
        # snapshot fit, so the config is rejected when it is parsed.
        cfg = tmp_path / "tiny.yaml"
        cfg.write_text(
            "n_ma: 16\nn_sm: 2\nk_users: 1\nn_bb_ma: 2\nn_bb_sm: 1\n"
            "estimation:\n  l_ma: 8\n  l_sm: 2\n  keep: 2\n"
        )
        proc = run_cli("estimate-demo", "--config", str(cfg))
        assert proc.returncode == 2
        assert "line 2: n_sm must be >= 4" in proc.stderr

    def test_runtime_error_exit_code(self, tmp_path, monkeypatch, capsys):
        def singular(*args, **kwargs):
            raise SingularCouplingError("coupling matrix is singular")

        monkeypatch.setattr(cli, "run_scenario", singular)
        cfg = self.write_config(tmp_path)
        assert cli.main(["capacity-sweep", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 3
        assert "SingularCouplingError" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()  # a failed run writes nothing

    def test_debug_prints_traceback(self, tmp_path, monkeypatch, capsys):
        def singular(*args, **kwargs):
            raise SingularCouplingError("coupling matrix is singular")

        monkeypatch.setattr(cli, "run_scenario", singular)
        argv = ["capacity-sweep", "--config", str(self.write_config(tmp_path)),
                "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 3
        assert "Traceback" not in capsys.readouterr().err
        assert cli.main(argv + ["--debug"]) == 3
        err = capsys.readouterr().err
        assert "Traceback (most recent call last)" in err
        assert "in singular" in err
        assert err.rstrip().endswith("error: SingularCouplingError: coupling matrix is singular")
        assert not (tmp_path / "out").exists()

    def test_parser_reused_across_runs(self, tmp_path):
        # One process, one parser: a rank profile, a capacity sweep, then
        # the first rank profile again.  Each matches its own run in a
        # fresh process.
        cfg = self.write_config(tmp_path)
        rank = ["rank-profile", "--config", str(cfg), "--seed", "5", "--trials", "3"]
        sweep = ["capacity-sweep", "--config", str(cfg), "--seed", "6"]
        runs = [(rank, "rank_profile.csv"), (sweep, "capacity.csv"), (rank, "rank_profile.csv")]
        outputs = []
        for i, (argv, name) in enumerate(runs):
            assert cli.main(argv + ["--out", str(tmp_path / f"run{i}")]) == 0
            outputs.append((tmp_path / f"run{i}" / name).read_bytes())
        assert cli.build_parser() is cli.build_parser()
        assert outputs[0] == outputs[2]
        for i, (argv, name) in enumerate(runs[:2]):
            out = tmp_path / f"child{i}"
            proc = run_cli(*argv, "--out", str(out))
            assert proc.returncode == 0, proc.stderr
            assert (out / name).read_bytes() == outputs[i]

    def test_seed_override_changes_output(self, tmp_path):
        cfg = self.write_config(tmp_path)
        outs = []
        for seed in ("1", "2"):
            out = tmp_path / f"seed{seed}"
            proc = run_cli("capacity-sweep", "--config", str(cfg), "--seed", seed,
                           "--out", str(out))
            assert proc.returncode == 0, proc.stderr
            outs.append((out / "capacity.csv").read_bytes())
        assert outs[0] != outs[1]

    def test_manifest_records_trials_override(self, tmp_path):
        # A config file's digest hashes its bytes, which do not show --trials.
        cfg = self.write_config(tmp_path)
        manifests = []
        for trials in ("1", "2"):
            out = tmp_path / f"trials{trials}"
            assert cli.main(["capacity-sweep", "--config", str(cfg), "--trials", trials,
                             "--out", str(out)]) == 0
            assert len((out / "capacity.csv").read_text().splitlines()) == 1 + 2 * 2 * int(trials)
            manifests.append(load_manifest(out / "manifest.json"))
        assert [m["trials"] for m in manifests] == [1, 2]
        assert manifests[0]["config_digest"] == manifests[1]["config_digest"]

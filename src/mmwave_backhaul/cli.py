"""Command-line interface.

Subcommands, one per reproducible experiment:

* ``rank-profile``    ``rank_profile.csv``, mean singular-energy profiles per path count
* ``capacity-sweep``  ``capacity.csv``, Monte Carlo capacity rows over an SNR grid, and
  ``diagnostics.csv``, each (scheme, trial, user)'s factor and estimate internals

Exit codes: 0 success, 2 configuration error, 3 runtime/numerical error.
With ``--debug`` a runtime error also prints its traceback.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
import traceback

from .channel import PathDistribution, singular_energy_profile
from .config import PRESET_NAMES, _with_overrides, parse_config, preset_scenarios, render_config
from .errors import ConfigError
from .output import DiagnosticsTable, RankProfileTable, emit_csv, write_manifest
from .simulation import CapacityResult, ScenarioConfig, derive_rng, run_scenario


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # Built once per process; parse_args leaves the parser as it was.
    parser = argparse.ArgumentParser(
        prog="mmwave-backhaul",
        description="Link-level simulator for multi-user mmWave massive-MIMO backhaul.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text, default_preset in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func, default_preset=default_preset)
        p.add_argument("--config", metavar="PATH", help="YAML scenario config")
        p.add_argument("--preset", choices=PRESET_NAMES, help="built-in scenario preset")
        p.add_argument("--seed", type=int, metavar="U64", help="override the master seed")
        p.add_argument("--out", default="out", metavar="DIR", help="output directory")
        p.add_argument("--trials", type=int, metavar="N", help="override the trial count")
        p.add_argument("--debug", action="store_true",
                       help="print the traceback of a runtime error (exit code 3)")
    return parser


def _load_scenarios(args) -> list[ScenarioConfig]:
    if args.config and args.preset:
        raise ConfigError("provide either --config or --preset, not both")
    if not args.config:
        return preset_scenarios(args.preset or args.default_preset,
                                seed=args.seed, trials=args.trials)
    return _with_overrides([parse_config(args.config)], args.seed, args.trials)


def _config_bytes(args, scenarios) -> bytes:
    if args.config:
        with open(args.config, "rb") as handle:
            return handle.read()
    return "\n---\n".join(render_config(c) for c in scenarios).encode("utf-8")


def cmd_rank_profile(scenarios):
    if len(scenarios) > 1:
        raise ConfigError(f"rank-profile profiles one scenario; this run has {len(scenarios)}")
    [cfg] = scenarios
    rows = []
    stage_seconds = {}
    for n_paths in range(cfg.l_min, cfg.l_max + 1):
        start = time.perf_counter()
        dist = PathDistribution(n_paths, n_paths, cfg.k_factor_db, cfg.path_loss)
        profile = singular_energy_profile(
            cfg.macro_geometry(), cfg.small_geometry(), dist, cfg.trials,
            derive_rng(cfg.master_seed, n_paths),
        )
        stage_seconds[f"l={n_paths}"] = time.perf_counter() - start
        rows.extend((n_paths, i, e) for i, e in enumerate(profile))
        print(f"L={n_paths}: top-3 mean energy "
              + ", ".join(f"{e:.4f}" for e in profile[:3]))
    return {"rank_profile.csv": RankProfileTable(rows)}, stage_seconds


def cmd_capacity_sweep(scenarios):
    rows, diagnostics = [], []
    stage_seconds = {}
    for cfg in scenarios:
        start = time.perf_counter()
        result = run_scenario(cfg)
        stage = f"k_factor_db={cfg.k_factor_db:g},allocation={cfg.allocation}"
        stage_seconds[stage] = time.perf_counter() - start
        rows.extend(result.rows)
        diagnostics.extend(result.diagnostics)
        print(f"k_factor={cfg.k_factor_db:g} dB, allocation={cfg.allocation}: "
              f"{len(result.rows)} rows")
    return {"capacity.csv": CapacityResult(rows=rows),
            "diagnostics.csv": DiagnosticsTable(diagnostics)}, stage_seconds


# name, handler, help, default preset; a handler maps the scenarios to
# ({output file name: table}, {stage: wall seconds}).
_COMMANDS = (
    ("rank-profile", cmd_rank_profile, "mean singular-energy profiles per path count", "fig2"),
    ("capacity-sweep", cmd_capacity_sweep, "Monte Carlo capacity and link diagnostics", "fig5"),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = os.fspath(args.out)
    try:
        existing = out_dir  # --out, or its nearest ancestor that exists
        while existing and not os.path.exists(existing):
            existing = os.path.dirname(existing)
        if existing and not os.path.isdir(existing):
            raise ConfigError(f"--out {out_dir} needs a directory, but {existing} is a file")
        scenarios = _load_scenarios(args)
        tables, stage_seconds = args.func(scenarios)
        # Nothing is written until the command has finished.
        os.makedirs(out_dir, exist_ok=True)
        paths = [os.path.join(out_dir, name) for name in tables]
        for path, table in zip(paths, tables.values()):
            emit_csv(table, path)
            print(f"wrote {path} ({len(table.rows)} rows)")
        write_manifest(out_dir, _config_bytes(args, scenarios), scenarios[0].master_seed,
                       scenarios[0].trials, paths, stage_seconds)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime/numerical failures map to exit 3
        if args.debug:
            traceback.print_exc()
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    raise SystemExit(main())

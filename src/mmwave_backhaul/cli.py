"""Command-line interface.

Subcommands, one per reproducible experiment:

* ``rank-profile``    mean singular-energy profiles per path count
* ``capacity-sweep``  Monte Carlo capacity rows over an SNR grid
* ``estimate-demo``   one estimation run with diagnostics
* ``factorize``       factorization report of the ``hybrid_ideal`` links

Exit codes: 0 success, 2 configuration error, 3 runtime/numerical error.
With ``--debug`` a runtime error also prints its traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
import time
import traceback

import numpy as np

from . import estimation
from .channel import PathDistribution, singular_energy_profile
from .config import PRESET_NAMES, _with_overrides, parse_config, preset_scenarios, render_config
from .errors import ConfigError
from .output import RankProfileTable, emit_csv, write_manifest
from .simulation import (
    CapacityResult,
    ScenarioConfig,
    _LINK_FACTORIZE_OPTS,
    _trial_estimates,
    _trial_links,
    _trial_paths,
    derive_rng,
    run_scenario,
)


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
    cfg = scenarios[0]
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
    rows = []
    stage_seconds = {}
    for cfg in scenarios:
        start = time.perf_counter()
        result = run_scenario(cfg)
        stage = f"k_factor_db={cfg.k_factor_db:g},allocation={cfg.allocation}"
        stage_seconds[stage] = time.perf_counter() - start
        rows.extend(result.rows)
        print(f"k_factor={cfg.k_factor_db:g} dB, allocation={cfg.allocation}: "
              f"{len(result.rows)} rows")
    return {"capacity.csv": CapacityResult(rows=rows)}, stage_seconds


def cmd_estimate_demo(scenarios):
    cfg = scenarios[0]
    if cfg.estimation is None:
        raise ConfigError("estimate-demo needs an estimation section in the config")
    paths = _trial_paths(cfg, 0)[:1]  # trial 0's first user
    h, report = next(_trial_estimates(cfg, 0, paths))
    nmse = np.linalg.norm(report.reconstruction - h) ** 2 / np.linalg.norm(h) ** 2
    print(f"true paths:        {paths[0].n_paths}")
    print(f"estimated paths:   {report.paired_paths.n_paths} "
          f"(departures {report.aods.size}, arrivals {report.aoas.size})")
    print(f"channel NMSE:      {nmse:.3e}")
    print(f"gain-fit residual: {report.gain_residual:.3e}")
    print(f"training slots:    {report.training_slots_used} "
          f"(sweep {report.slots_phase1}, arrival {report.slots_phase2}, "
          f"departure {report.slots_phase3})")
    pencils = len(report.lanczos_steps_phase3)
    depth = estimation._lanczos_depth(cfg.n_ma)
    detail = f"dense SVD by design: {cfg.n_ma} elements are too few for the truncated pencil"
    if depth:
        steps = [k for k in report.lanczos_steps_phase3 if k]
        mean_steps = f"{np.mean(steps):.1f}" if steps else "-"
        # A pencil that never met the stop rule ran the whole Krylov depth.
        detail = (f"mean Lanczos steps {mean_steps}, {steps.count(depth)} at the full depth "
                  f"{depth}, dense SVD fallbacks {pencils - len(steps)}")
    print(f"departure pencils: {pencils} ({detail})")
    return {}, {}


def cmd_factorize(scenarios):
    # The factors of each trial's hybrid_ideal link: each user's precoder
    # and combiner from its min(n_bb_sm, rank) singular vectors.
    cfg = dataclasses.replace(scenarios[0], schemes=("hybrid_ideal",))
    links = [_trial_links(cfg, trial)["hybrid_ideal"] for trial in range(cfg.trials)]
    precoders, combiners, closed_form = zip(*(f for link in links for f in link.factors))
    streams = sum(link.offsets[-1] for link in links)
    iterated = ~np.asarray(closed_form)
    cap = _LINK_FACTORIZE_OPTS.max_iterations
    print(f"targets factorized: {iterated.size} per kind, a precoder and a combiner per user "
          f"({streams} streams, at most {cfg.n_bb_sm} per user)")
    print(f"closed form:        {iterated.size - iterated.sum()} users (every path a stream), "
          f"iterated: {iterated.sum()}")
    for kind, n_elements, results in (("precoders", cfg.n_ma, precoders),
                                       ("combiners", cfg.n_sm, combiners)):
        residuals = np.array([r.residual for r in results])
        iterations = np.array([r.iterations_used for r in results])[iterated]
        median = f"{np.median(iterations):g}" if iterations.size else "-"
        print(f"{kind} ({n_elements} elements):")
        print(f"  relative residual:  min {residuals.min():.4f}  "
              f"mean {residuals.mean():.4f}  max {residuals.max():.4f}")
        print(f"  residual <= 0.1:    {np.mean(residuals <= 0.1) * 100:.1f}%")
        print(f"  iterated targets:   median {median} iterations, "
              f"{np.sum(iterations >= cap)} at max_iterations ({cap})")
        print(f"  pseudoinverse steps: {sum(r.pinv_steps for r in results)} "
              f"of {sum(r.iterations_used for r in results)}")
    return {}, {}


# name, handler, help, default preset; a handler maps the scenarios to
# ({output file name: table}, {stage: wall seconds}).
_COMMANDS = (
    ("rank-profile", cmd_rank_profile, "mean singular-energy profiles per path count", "fig2"),
    ("capacity-sweep", cmd_capacity_sweep, "Monte Carlo capacity rows over an SNR grid", "fig5"),
    ("estimate-demo", cmd_estimate_demo, "single estimation run with diagnostics", "fig5"),
    ("factorize", cmd_factorize, "constant-modulus factorization residual report", "fig5"),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenarios = _load_scenarios(args)
        tables, stage_seconds = args.func(scenarios)
        # Nothing is written until the command has finished.
        out_dir = os.fspath(args.out)
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

"""CSV emission and run manifests.

CSV output is byte-stable: fixed column order, 12 significant digits,
rows pre-sorted, LF newlines.  Every CLI run writes a manifest holding
the SHA-256 digest of the exact config bytes it ran (hash a config the
same way to check that it is the one a run used), its trial count after
any ``--trials`` override (which a config file's bytes do not show), the
environment the numbers came from (the Python and numpy versions,
numpy's BLAS library and its thread variables) and the wall time of each
stage.  Nothing in the package reads a manifest back.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import os
import platform
from dataclasses import dataclass

import numpy as np

from .simulation import CapacityResult

__all__ = [
    "RankProfileTable",
    "emit_csv",
    "write_manifest",
]

CAPACITY_COLUMNS = "scheme,allocation,snr_db,k_factor_db,trial,capacity_bpcu"
PROFILE_COLUMNS = "l,index,mean_energy"

# The last digits of some capacities follow the BLAS thread count.
_THREAD_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


@dataclass
class RankProfileTable:
    """Rows of (path count, singular index, mean normalized energy)."""

    rows: list

    def __post_init__(self):
        self.rows = sorted((int(l), int(i), float(e)) for l, i, e in self.rows)


def _fmt(value: float) -> str:
    return format(float(value), ".12g")


def emit_csv(table, path) -> None:
    """Write a capacity or rank-profile table as a deterministic CSV file."""
    if isinstance(table, CapacityResult):
        header = CAPACITY_COLUMNS
        lines = [
            f"{r.scheme},{r.allocation},{_fmt(r.snr_db)},{_fmt(r.k_factor_db)},{r.trial},{_fmt(r.capacity_bpcu)}"
            for r in table.rows
        ]
    elif isinstance(table, RankProfileTable):
        header = PROFILE_COLUMNS
        lines = [f"{l},{i},{_fmt(e)}" for l, i, e in table.rows]
    else:
        raise TypeError(f"cannot emit rows of type {type(table).__name__}")
    with open(path, "w", encoding="ascii", newline="\n") as handle:
        handle.write(header + "\n")
        for line in lines:
            handle.write(line + "\n")


def write_manifest(out_dir, config_bytes: bytes, master_seed: int, trials: int, outputs,
                   stage_seconds=None) -> str:
    """Write manifest.json next to the outputs; returns its path."""
    from . import __version__

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    manifest = {
        "config_digest": hashlib.sha256(config_bytes).hexdigest(),
        "tool_version": __version__,
        "master_seed": int(master_seed),
        "trials": int(trials),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": [os.path.basename(os.fspath(p)) for p in outputs],
        # The run's environment.  ``thread_env`` maps each of
        # _THREAD_ENV_VARS to its value, or to None when it was unset.
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        # The BLAS library numpy was built against, from numpy.show_config.
        "blas_name": blas.get("name", ""),
        "blas_version": blas.get("version", ""),
        "thread_env": {name: os.environ.get(name) for name in _THREAD_ENV_VARS},
        # Wall seconds per stage of the run (a path count of rank-profile, a
        # scenario of capacity-sweep); empty for commands without stages.
        "stage_seconds": dict(stage_seconds or {}),
    }
    path = os.path.join(os.fspath(out_dir), "manifest.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path

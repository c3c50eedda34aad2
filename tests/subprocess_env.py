"""Environment for test subprocesses that run the package from this checkout."""

import os
from pathlib import Path

import mmwave_backhaul


def child_env(extra=None):
    """``os.environ`` plus ``extra``, with this checkout's ``src`` first on ``PYTHONPATH``.

    pytest's ``pythonpath`` setting changes only the test process's
    ``sys.path``; a ``python -m mmwave_backhaul`` child needs the
    directory in its environment to import the package.
    """
    src = str(Path(mmwave_backhaul.__file__).resolve().parent.parent)
    env = {**os.environ, **(extra or {})}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env

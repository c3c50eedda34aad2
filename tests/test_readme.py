"""The README's library example runs as written."""

import re
import subprocess
import sys
from pathlib import Path

from subprocess_env import child_env

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    [example] = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    proc = subprocess.run([sys.executable, "-c", example], capture_output=True, text=True,
                          timeout=300, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 3  # one line per print

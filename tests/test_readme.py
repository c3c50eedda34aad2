"""The README's library example runs as written, and its config block is the schema."""

import re
import subprocess
import sys
from pathlib import Path

import yaml

from mmwave_backhaul import EstimationConfig, ScenarioConfig
from mmwave_backhaul.config import _keys, parse_config_text
from subprocess_env import child_env

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    [example] = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    proc = subprocess.run([sys.executable, "-c", example], capture_output=True, text=True,
                          timeout=300, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 3  # one line per print


def test_config_block_is_the_schema():
    # The documented config parses, and it names every key of both levels.
    [block] = re.findall(r"```yaml\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    cfg = parse_config_text(block, source="README.md")
    assert cfg.estimation is not None
    data = yaml.safe_load(block)
    assert set(data) == set(_keys(ScenarioConfig))
    assert set(data["estimation"]) == set(_keys(EstimationConfig))

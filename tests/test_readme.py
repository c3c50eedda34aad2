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


def test_diagnostics_recipe_prints_what_it_shows(tmp_path):
    # The shell recipe's sweep, run through the module, then its script on
    # the sweep's diagnostics.csv; the README shows the script's output.
    text = README.read_text(encoding="utf-8")
    [recipe] = [b for b in re.findall(r"```sh\n(.*?)```", text, re.S) if "diagnostics.csv" in b]
    sweep, script = re.fullmatch(
        r"mmwave-backhaul (.*?) --out runs/d\n"
        r"python - runs/d/diagnostics.csv <<'EOF'\n(.*)EOF\n", recipe, re.S).groups()
    proc = subprocess.run([sys.executable, "-m", "mmwave_backhaul", *sweep.split(),
                           "--out", str(tmp_path)], capture_output=True, text=True,
                          timeout=300, env=child_env())
    assert proc.returncode == 0, proc.stderr
    proc = subprocess.run([sys.executable, "-", str(tmp_path / "diagnostics.csv")], input=script,
                          capture_output=True, text=True, timeout=300, env=child_env())
    assert proc.returncode == 0, proc.stderr
    [shown] = re.findall(r"```text\n(paths .*?)```", text, re.S)
    assert proc.stdout == shown

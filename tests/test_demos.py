"""Smoke test: the quick demos and the README's Quick start run to completion from
the repo root."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _run(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("MARLAB_SEED", None)
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120)


@pytest.mark.parametrize("name", ["01_autodiff_from_scratch.py", "02_games_and_oracles.py",
                                  "03_value_factorization.py", "04_selfplay_pennies.py",
                                  "05_maddpg_continuous.py", "06_learning_to_signal.py"])
def test_demo_runs(name):
    proc = _run([str(ROOT / "demos" / name)])
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_prints_what_its_comments_say():
    section = (ROOT / "README.md").read_text().split("\n## Quick start\n")[1].split("\n## ")[0]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    proc = _run(["-c", code])
    assert proc.returncode == 0, proc.stderr
    # each print's comment opens with the text it prints, up to the first comma
    said = re.findall(r"^print\(.*#\s*([^,\n]*)", code, re.M)
    assert said and proc.stdout.splitlines() == said

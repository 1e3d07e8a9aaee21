"""Smoke test: the quick demos run to completion from the repo root."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", ["01_autodiff_from_scratch.py", "02_games_and_oracles.py",
                                  "03_value_factorization.py", "04_selfplay_pennies.py",
                                  "05_maddpg_continuous.py", "06_learning_to_signal.py"])
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("MARLAB_SEED", None)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr

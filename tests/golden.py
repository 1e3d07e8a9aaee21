"""Golden runs: the sha256 of every file that 16 fixed runs leave behind.

Each of the 8 algorithms trains on its home game at seeds 0 and 7 for 300
steps, evaluating every 100 steps over 20 episodes, and `marlab eval` then
scores its checkpoint over 50 episodes.  The bytes depend on numpy and on the
BLAS it calls, so golden.json records both beside the digests.

Regenerate golden.json from the repository root with

    PYTHONPATH=src python tests/golden.py

which also prints each key whose digest differs from the file it replaces.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import tempfile

import numpy as np

from marlab import cli

GOLDEN = pathlib.Path(__file__).with_name("golden.json")

HOME_ENVS = {"iql": "two_step_coop", "vdn": "coop_climb", "qmix": "two_step_coop",
             "maddpg_ctde": "coop_cts", "maddpg_dec": "two_step_coop",
             "selfplay": "rock_paper_scissors", "dial": "signal_relay",
             "rial": "signal_relay"}
SEEDS = (0, 7)
TRAIN = ["--total-steps", "300", "--eval-interval", "100", "--eval-episodes", "20"]
EVAL = ["--episodes", "50"]


def build():
    """numpy's version and the BLAS it was built against."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):   # numpy before 1.25 reports no dict
        blas = {}
    return {"numpy": np.__version__,
            "blas": " ".join(str(blas.get(k)) for k in
                             ("name", "version", "openblas configuration"))}


def _main(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"marlab {' '.join(argv)} exited {rc}")


def digests():
    """{"<algo>/seed<seed>/<file>": sha256} over every file the runs leave,
    each run writing to a directory relative to the working directory, so
    that the configs it echoes do not depend on where it ran."""
    out = {}
    for algo, env in HOME_ENVS.items():
        for seed in SEEDS:
            run = pathlib.Path(f"{algo}-s{seed}")
            _main(["train", "--algo", algo, "--env", env, "--seed", str(seed),
                   "--out-dir", str(run), *TRAIN])
            _main(["eval", "--checkpoint", str(run / "checkpoint.json"), *EVAL])
            for path in sorted(run.iterdir()):
                out[f"{algo}/seed{seed}/{path.name}"] = \
                    hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def changed(want, got):
    """The keys of two digest maps whose digests differ, or that only one holds."""
    return [k for k in sorted(set(want) | set(got)) if want.get(k) != got.get(k)]


if __name__ == "__main__":
    os.environ.pop("MARLAB_SEED", None)
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            found = digests()
        finally:
            os.chdir(home)
    moved = changed(json.loads(GOLDEN.read_text())["digests"] if GOLDEN.exists() else {},
                    found)
    GOLDEN.write_text(json.dumps({"build": build(), "digests": found},
                                 indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(found)} digests to {GOLDEN}; {len(moved)} moved:", *moved, sep="\n")

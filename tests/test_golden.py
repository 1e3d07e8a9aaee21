"""Fixed runs keep their bytes: every artifact of the golden runs hashes to the
digest in golden.json (see golden.py, which regenerates it)."""

import json
import warnings

import golden


def _digests_in(folder, monkeypatch):
    folder.mkdir()
    monkeypatch.chdir(folder)
    return golden.digests()


def test_golden_runs_keep_their_bytes(tmp_path, monkeypatch):
    monkeypatch.delenv("MARLAB_SEED", raising=False)
    recorded = json.loads(golden.GOLDEN.read_text())
    got = _digests_in(tmp_path / "first", monkeypatch)
    assert len(got) == 68
    if recorded["build"] == golden.build():
        changed = golden.changed(recorded["digests"], got)
        assert not changed, "artifacts whose bytes changed: " + ", ".join(changed)
        return
    warnings.warn(f"golden.json was made with {recorded['build']}, not "
                  f"{golden.build()}; only two runs of this tree are compared")
    changed = golden.changed(got, _digests_in(tmp_path / "second", monkeypatch))
    assert not changed, "artifacts that differ between two runs: " + ", ".join(changed)

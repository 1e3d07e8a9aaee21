"""Tests of the benchmark itself; run with `python3 -m pytest perfbench/tests`."""

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import spec  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
# enough steps for every learner to update (maddpg waits for a batch of 64)
TINY_STEPS = 100


def _declared(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_workloads_match_benchmark_json():
    assert list(spec.WORKLOADS) == [w["name"] for w in BENCHMARK["workloads"]]
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_passes_its_checks_and_prints_the_declared_metrics(workload, trace):
    result, lines = run.run(workload, seed=1, seconds=0.0, trace=trace, steps=TINY_STEPS)
    assert result["correct"], [ln for ln in lines if ln.startswith("failure")]
    assert result["failed"] == 0 and result["attempted"] > 0
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_traced_self_shares_sum_to_one_without_the_benchmarks_own_checks():
    result, lines = run.run("value_replay", seed=2, seconds=0.0, trace=1, steps=TINY_STEPS)
    assert result["correct"], [ln for ln in lines if ln.startswith("failure")]
    shares = [v["value"] for k, v in result["metrics"].items() if k.endswith(".self_share")]
    assert len(shares) == len(spec.LAYERS) - 1      # oracle is left off the result line
    assert sum(shares) == pytest.approx(1.0, abs=1e-9)
    assert result["metrics"]["ndiff.self_share"]["value"] > 0.3
    oracle_row = next(ln for ln in lines if ln.startswith("oracle    "))
    assert float(oracle_row.split()[1]) == 0.0      # the checks ran untraced


def test_tampered_checkpoint_counts_as_a_failed_operation(tmp_path):
    bench = run.Bench(run.load_marlab(), "value_replay", 1, tmp_path)
    bench.solve_references()
    job = spec.Job("iql", "two_step_coop", 40, 10)
    out = tmp_path / "job"
    assert bench.operation("train", lambda: bench.train(job, 7, out)) is not None
    ckpt = out / "checkpoint.json"
    blob = json.loads(ckpt.read_text())
    psi = blob["payload"]["psi"]
    psi[sorted(psi)[0]][0] += 1.0
    ckpt.write_text(json.dumps(blob))

    seconds = bench.operation("eval", lambda: bench.evaluate(job, 7, ckpt, out / "eval.json"))
    assert seconds is None
    assert (bench.attempted, bench.failed) == (2, 1)
    assert "sha256" in bench.failures[0]


def test_a_return_above_the_exact_optimum_fails_its_check():
    ref = run.Reference(run.load_marlab(), "two_step_coop")
    assert ref.optimum == pytest.approx(9.9)
    assert ref.check([9.9, 9.9], {}) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(run.CheckFailed):
        ref.check([9.9 + 1e-6, 9.9 + 1e-6], {})


def _bench_cmd(seed="1"):
    return [sys.executable, "perfbench/run.py", "--workload", "tape_check",
            "--seed", seed, "--seconds", "1", "--trace", "0"]


def test_refuses_to_run_when_marlab_seed_is_set():
    env = dict(os.environ, MARLAB_SEED="3")
    proc = subprocess.run(_bench_cmd(), cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == run.EXIT_USAGE
    assert proc.stdout == ""
    assert "MARLAB_SEED" in proc.stderr


def test_fails_without_printing_a_result_where_marlab_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "MARLAB_SEED")}
    proc = subprocess.run(_bench_cmd(), cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""

import dataclasses
import json
import re

import numpy as np
import pytest

from marlab import cli, envs, ndiff
from marlab.cli import (
    IncompatibleAlgoEnv,
    InvalidConfig,
    build_config,
    check_compat,
)
from marlab.envs import fixture_by_name, game_to_dict, two_step_coop

from calls import count_calls


def _train(tmp_path, name, *flags):
    out = tmp_path / name
    rc = cli.main(["train", "--out-dir", str(out), *flags])
    return rc, out


def _read(path):
    return path.read_bytes()


# -- configuration ----------------------------------------------------------

def test_defaults_resolve_per_algo():
    cfg = build_config({"algo": "selfplay", "env": "matching_pennies"})
    assert cfg.lr == 0.05 and cfg.batch_size == 256
    cfg = build_config({"algo": "qmix"})
    assert cfg.lr == 5e-3 and cfg.hidden_sizes == [32]
    assert cfg.env == "two_step_coop"


def test_flags_beat_file_beats_defaults():
    cfg = build_config({"algo": "qmix", "lr": 0.1}, {"lr": 0.2})
    assert cfg.lr == 0.2
    cfg = build_config({"algo": "qmix", "lr": 0.1})
    assert cfg.lr == 0.1


def test_unknown_config_key_rejected():
    with pytest.raises(InvalidConfig):
        build_config({"algo": "qmix", "learning_rate": 0.1})


@pytest.mark.parametrize("bad", [
    {"lr": -1.0},
    {"lr": 0.0},
    {"epsilon_start": 1.5},
    {"epsilon_end": -0.1},
    {"tau": 0.0},
    {"total_steps": 0},
    {"batch_size": 0},
    {"gamma": 1.5},
    {"algo": "ppo"},
    {"hidden_sizes": [0]},
])
def test_invalid_values_rejected(bad):
    base = {"algo": "qmix", "env": "two_step_coop"}
    with pytest.raises(InvalidConfig):
        build_config({**base, **bad})


def test_config_file_unknown_key_exits_2(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"algo": "qmix", "nosuch": 1}))
    assert cli.main(["train", "--config", str(cfgfile)]) == 2


def test_missing_config_file_exits_2(tmp_path):
    assert cli.main(["train", "--config", str(tmp_path / "nope.json")]) == 2


def test_unknown_flag_exits_2():
    assert cli.main(["train", "--nonsense", "1"]) == 2


def test_marlab_seed_env_var_overrides(monkeypatch):
    monkeypatch.setenv("MARLAB_SEED", "123")
    cfg = build_config({"algo": "qmix", "seed": 5})
    assert cfg.seed == 123
    monkeypatch.setenv("MARLAB_SEED", "abc")
    with pytest.raises(InvalidConfig):
        build_config({"algo": "qmix"})


# -- algo/env compatibility --------------------------------------------------

def test_qmix_needs_cooperative():
    with pytest.raises(IncompatibleAlgoEnv):
        check_compat("qmix", fixture_by_name("matching_pennies"))
    with pytest.raises(IncompatibleAlgoEnv):
        check_compat("vdn", fixture_by_name("rock_paper_scissors"))
    check_compat("iql", fixture_by_name("matching_pennies"))


def test_value_heads_need_discrete_actions():
    cts = fixture_by_name("coop_cts")
    with pytest.raises(IncompatibleAlgoEnv):
        check_compat("qmix", cts)
    with pytest.raises(IncompatibleAlgoEnv):
        check_compat("maddpg_dec", cts)
    check_compat("maddpg_ctde", cts)


def test_selfplay_and_comm_gates():
    with pytest.raises(IncompatibleAlgoEnv):
        check_compat("selfplay", fixture_by_name("coop_climb"))
    with pytest.raises(IncompatibleAlgoEnv):
        check_compat("dial", fixture_by_name("coop_climb"))
    with pytest.raises(IncompatibleAlgoEnv):
        check_compat("rial", fixture_by_name("matching_pennies"))
    check_compat("selfplay", fixture_by_name("matching_pennies"))
    check_compat("dial", fixture_by_name("signal_relay"))


def test_train_incompatible_pair_exits_2(tmp_path):
    rc, _ = _train(tmp_path, "bad", "--algo", "qmix", "--env", "matching_pennies")
    assert rc == 2


# -- train artifacts ---------------------------------------------------------

QUICK = ["--total-steps", "150", "--eval-interval", "75", "--eval-episodes", "5"]


def test_train_writes_all_artifacts(tmp_path):
    rc, out = _train(tmp_path, "run", "--algo", "vdn", "--env", "coop_climb", *QUICK)
    assert rc == 0
    assert (out / "metrics.csv").exists()
    assert (out / "checkpoint.json").exists()
    assert (out / "config_echo.json").exists()


def test_metrics_header_is_exact(tmp_path):
    _, out = _train(tmp_path, "run", "--algo", "vdn", "--env", "coop_climb", *QUICK)
    first = (out / "metrics.csv").read_text().splitlines()[0]
    assert first == "step,episodes,loss,epsilon,eval_return_mean,eval_return_per_agent,extra"


def test_same_seed_metrics_byte_identical(tmp_path):
    _, a = _train(tmp_path, "a", "--algo", "qmix", "--seed", "4", *QUICK)
    _, b = _train(tmp_path, "b", "--algo", "qmix", "--seed", "4", *QUICK)
    assert _read(a / "metrics.csv") == _read(b / "metrics.csv")
    _, c = _train(tmp_path, "c", "--algo", "qmix", "--seed", "5", *QUICK)
    assert _read(a / "metrics.csv") != _read(c / "metrics.csv")


def test_config_echo_round_trip_stable(tmp_path):
    _, out = _train(tmp_path, "run", "--algo", "vdn", "--env", "coop_climb", *QUICK)
    echo = json.loads((out / "config_echo.json").read_text())
    again = build_config(echo)
    assert dataclasses.asdict(again) == echo


def test_threads_flag_is_gone_and_selfplay_is_deterministic(tmp_path):
    rc, _ = _train(tmp_path, "x", "--threads", "2")
    assert rc == 2
    flags = ["--algo", "selfplay", "--env", "matching_pennies", "--seed", "7",
             "--total-steps", "40", "--eval-interval", "20", "--eval-episodes", "50"]
    rc_a, a = _train(tmp_path, "sp1", *flags)
    rc_b, b = _train(tmp_path, "sp2", *flags)
    assert rc_a == rc_b == 0
    assert _read(a / "metrics.csv") == _read(b / "metrics.csv")


def test_comm_run_writes_channel_csv(tmp_path):
    rc, out = _train(tmp_path, "d", "--algo", "dial", "--env", "signal_relay",
                     "--total-steps", "60", "--eval-interval", "30",
                     "--eval-episodes", "20")
    assert rc == 0
    lines = (out / "dial_metrics.csv").read_text().splitlines()
    assert lines[0] == "step,loss,eval_accuracy"
    assert len(lines) == 3


def test_metrics_rows_parse_and_progress(tmp_path):
    import csv as csvmod
    _, out = _train(tmp_path, "run", "--algo", "qmix",
                    "--total-steps", "400", "--eval-interval", "100",
                    "--eval-episodes", "10")
    with open(out / "metrics.csv") as fh:
        rows = list(csvmod.DictReader(fh))
    assert [int(r["step"]) for r in rows] == [100, 200, 300, 400]
    for r in rows:
        per_agent = json.loads(r["eval_return_per_agent"])
        assert len(per_agent) == 2
        assert float(r["eval_return_mean"]) == pytest.approx(np.mean(per_agent))
        assert int(r["episodes"]) == int(r["step"]) // 2   # two steps per episode


# -- eval subcommand ----------------------------------------------------------

def test_eval_missing_checkpoint_exits_1(tmp_path):
    assert cli.main(["eval", "--checkpoint", str(tmp_path / "nope.json")]) == 1


def test_eval_detects_tampering(tmp_path):
    _, out = _train(tmp_path, "run", "--algo", "vdn", "--env", "coop_climb", *QUICK)
    blob = json.loads((out / "checkpoint.json").read_text())
    blob["payload"]["mode"] = "qmix"
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(blob))
    assert cli.main(["eval", "--checkpoint", str(bad)]) == 1


def test_eval_rejects_truncated_checkpoint(tmp_path):
    bad = tmp_path / "half.json"
    bad.write_text(json.dumps({"algo": "vdn", "payload": {}}))
    assert cli.main(["eval", "--checkpoint", str(bad)]) == 1
    bad.write_text("{not json")
    assert cli.main(["eval", "--checkpoint", str(bad)]) == 1


@pytest.mark.parametrize("blob", [
    5, "algo env payload sha256",
    {"algo": "vdn", "env": "coop_climb", "payload": 5, "sha256": cli._digest(5)}])
def test_eval_rejects_malformed_checkpoint(tmp_path, capsys, blob):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(blob))
    assert cli.main(["eval", "--checkpoint", str(bad)]) == 1
    assert "error: malformed checkpoint" in capsys.readouterr().err


@pytest.mark.parametrize("algo,env", [("vdn", "coop_climb"), ("dial", "signal_relay")])
def test_eval_episodes_below_one_exits_2(tmp_path, capsys, algo, env):
    _, out = _train(tmp_path, "run", "--algo", algo, "--env", env, "--batch-size", "8",
                    "--total-steps", "20", "--eval-interval", "20", "--eval-episodes", "5")
    for episodes in ("0", "-1"):
        rc = cli.main(["eval", "--checkpoint", str(out / "checkpoint.json"),
                       "--episodes", episodes])
        assert rc == 2
        assert "--episodes must be at least 1" in capsys.readouterr().err
        assert not (out / "eval.json").exists()


def test_eval_greedy_policy_is_constant_on_deterministic_game(tmp_path, capsys):
    _, out = _train(tmp_path, "run", "--algo", "vdn", "--env", "coop_climb", *QUICK)
    capsys.readouterr()
    means = []
    for seed, episodes in ((0, 7), (9, 23)):
        rc = cli.main(["eval", "--checkpoint", str(out / "checkpoint.json"),
                       "--episodes", str(episodes), "--seed", str(seed)])
        assert rc == 0
        means.append(json.loads(capsys.readouterr().out)["mean_return"])
    assert means[0] == means[1]
    assert (out / "eval.json").exists()


def test_eval_fresh_selfplay_policy_is_balanced(tmp_path, capsys):
    _, out = _train(tmp_path, "sp", "--algo", "selfplay", "--env", "matching_pennies",
                    "--total-steps", "5", "--eval-interval", "5",
                    "--eval-episodes", "20")
    capsys.readouterr()
    rc = cli.main(["eval", "--checkpoint", str(out / "checkpoint.json"),
                   "--episodes", "4000"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert abs(summary["mean_return_per_agent"][0]) <= 0.05
    assert "win_rate_per_agent" in summary and "draw_rate" in summary


HOME_ENVS = {"iql": "two_step_coop", "vdn": "coop_climb", "qmix": "two_step_coop",
             "maddpg_ctde": "coop_cts", "maddpg_dec": "two_step_coop",
             "selfplay": "rock_paper_scissors", "dial": "signal_relay",
             "rial": "signal_relay"}


@pytest.mark.parametrize("algo", cli.ALGOS)
def test_train_then_eval_every_algo(tmp_path, capsys, algo):
    rc, out = _train(tmp_path, algo, "--algo", algo, "--env", HOME_ENVS[algo],
                     "--batch-size", "8", "--total-steps", "40",
                     "--eval-interval", "20", "--eval-episodes", "5")
    assert rc == 0
    capsys.readouterr()
    rc = cli.main(["eval", "--checkpoint", str(out / "checkpoint.json"),
                   "--episodes", "7"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["algo"] == algo and summary["episodes"] == 7
    assert len(summary["mean_return_per_agent"]) == 2
    assert np.all(np.isfinite(summary["mean_return_per_agent"]))
    assert (out / "dial_metrics.csv").exists() == (algo in ("dial", "rial"))


@pytest.mark.parametrize("algo", ["qmix", "maddpg_ctde", "dial", "rial"])
def test_eval_steps_all_episodes_together(tmp_path, capsys, monkeypatch, algo):
    rc, out = _train(tmp_path, algo, "--algo", algo, "--env", HOME_ENVS[algo],
                     "--batch-size", "8", "--total-steps", "20",
                     "--eval-interval", "20", "--eval-episodes", "5")
    assert rc == 0
    capsys.readouterr()
    calls = count_calls(monkeypatch, envs.MarkovGame, ["step", "step_batch"])
    assert cli.main(["eval", "--checkpoint", str(out / "checkpoint.json"),
                     "--episodes", "500"]) == 0
    assert json.loads(capsys.readouterr().out)["episodes"] == 500
    horizon = fixture_by_name(HOME_ENVS[algo]).horizon
    assert calls["step"] == 0
    assert 1 <= calls["step_batch"] <= horizon


def _started(algo, seed=0):
    cfg = build_config(flag_dict={"algo": algo, "env": HOME_ENVS[algo], "seed": seed,
                                  "batch_size": 8})
    env = envs.resolve_env(cfg.env)
    learner, step, _ = cli.ALGO_SPECS[algo].start(cfg, env, np.random.default_rng(seed))
    return learner, step


def _optimizers(learner):
    """Every AdamState a learner holds, directly or in a list or dict."""
    found = {}
    for v in vars(learner).values():
        items = v.values() if isinstance(v, dict) else v if isinstance(v, list) else [v]
        found.update((id(x), x) for x in items if isinstance(x, ndiff.AdamState))
    return list(found.values())


def _checkpoint_bytes(learner):
    return json.dumps(learner.to_checkpoint(), sort_keys=True)


_ADAM_ALGOS = [a for a in cli.ALGOS if a != "selfplay"]


@pytest.mark.parametrize("algo", _ADAM_ALGOS)
def test_every_optimizer_keeps_its_params_in_one_vector(algo):
    learner, _ = _started(algo)
    opts = _optimizers(learner)
    assert opts
    for opt in opts:
        assert opt.value.ndim == 1 and opt.value.size == sum(p.value.size for p in opt.params)
        for moment in (opt.m, opt.v):
            assert isinstance(moment, np.ndarray) and moment.shape == opt.value.shape
        for p in opt.params:
            assert p.value.base is opt.value and p.grad.base is opt.grad


@pytest.mark.parametrize("algo", ["qmix", "maddpg_dec", "dial", "rial"])
def test_checkpoint_load_into_fresh_learner_keeps_bytes(algo):
    learner, step = _started(algo)
    for t in range(1, 41):
        step(t)
    blob = _checkpoint_bytes(learner)
    fresh, _ = _started(algo, seed=1)
    assert _checkpoint_bytes(fresh) != blob
    fresh.load_checkpoint(json.loads(blob))
    assert _checkpoint_bytes(fresh) == blob
    for opt in _optimizers(fresh):
        assert all(p.value.base is opt.value for p in opt.params)


def _huge_reward_game():
    obj = game_to_dict(envs.coop_climb())
    obj["rewards"][0][0][0] = [1e308, 1e308]
    return json.dumps(obj)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_non_finite_gradient_stops_the_run_with_checkpoint_untouched(tmp_path, capsys):
    game = _game_file(tmp_path, _huge_reward_game())
    argv = ["--algo", "vdn", "--env", game, "--total-steps", "300"]
    rc, out = _train(tmp_path, "fresh", *argv)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "non-finite gradient" in err
    assert not (out / "checkpoint.json").exists()

    rc, out = _train(tmp_path, "kept", "--algo", "vdn", "--env", "coop_climb",
                     "--total-steps", "40", "--batch-size", "8")
    assert rc == 0
    kept = _read(out / "checkpoint.json")
    capsys.readouterr()
    rc, _ = _train(tmp_path, "kept", *argv)
    assert rc == 1 and capsys.readouterr().err.startswith("error: ")
    assert _read(out / "checkpoint.json") == kept


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_non_finite_gradient_error_names_the_algorithm_and_training_step(tmp_path, capsys):
    game = _game_file(tmp_path, _huge_reward_game())
    rc, _ = _train(tmp_path, "fresh", "--algo", "vdn", "--env", game, "--total-steps", "300")
    assert rc == 1
    err = capsys.readouterr().err
    found = re.fullmatch(r"error: vdn training step (\d+): non-finite gradient at Adam step (\d+)\n",
                         err)
    assert found and int(found[1]) > int(found[2])


def test_a_failed_artifact_write_keeps_the_old_file_and_leaves_no_temporary(tmp_path):
    path = tmp_path / "metrics.csv"
    cli._write_csv(path, cli.METRICS_HEADER, [[1, 1, "", "", "0.0", "[0.0]", ""]])
    before = path.read_bytes()

    def rows():
        yield [2, 2, "", "", "1.0", "[1.0]", ""]
        raise RuntimeError("writer died midway")

    with pytest.raises(RuntimeError):
        cli._write_csv(path, cli.METRICS_HEADER, rows())
    assert path.read_bytes() == before
    (tmp_path / "eval.json").mkdir()
    with pytest.raises(cli.IoError):
        cli._write_text(tmp_path / "eval.json", "{}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["eval.json", "metrics.csv"]


def _game_file(tmp_path, text):
    path = tmp_path / "game.json"
    path.write_text(text)
    return str(path)


def _malformed(**changes):
    obj = game_to_dict(two_step_coop())
    obj.update(changes)
    return json.dumps(obj)


_NEGATIVE_ROW = np.zeros((2, 2, 2, 2))
_NEGATIVE_ROW[..., 0] = 1.0
_NEGATIVE_ROW[1, 1, 1] = [1.5, -0.5]


@pytest.mark.parametrize("text", [
    "{not json",
    "[1, 2]",
    "5",
    _malformed(flags=5),
    _malformed(actions=[2, "x"]),
    _malformed(horizon="2"),
    _malformed(init_dist=[1.5, -0.5]),
    _malformed(transition=_NEGATIVE_ROW.tolist()),
], ids=["invalid-json", "list", "number", "flags", "actions", "horizon",
        "negative-init", "negative-transition"])
def test_train_rejects_malformed_game_file(tmp_path, capsys, text):
    rc, _ = _train(tmp_path, "run", "--algo", "iql", "--env", _game_file(tmp_path, text),
                   "--total-steps", "2")
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and "Traceback" not in err


# -- oracle subcommand ---------------------------------------------------------

def _oracle_json(capsys, *argv):
    rc = cli.main(["oracle", *argv])
    out = capsys.readouterr().out
    return rc, json.loads(out)


def test_oracle_nash_pennies(capsys):
    rc, out = _oracle_json(capsys, "nash", "matching_pennies")
    assert rc == 0
    assert out == {"mix1": [0.5, 0.5], "mix2": [0.5, 0.5], "value": 0.0}


def test_oracle_argmax_coop_climb(capsys):
    rc, out = _oracle_json(capsys, "argmax", "coop_climb")
    assert rc == 0
    assert out["joint"] == [0, 0] and out["value"] == 11.0


def test_oracle_qiter_two_step(capsys):
    rc, out = _oracle_json(capsys, "qiter", "two_step_coop")
    assert rc == 0
    assert out["value_per_state"] == pytest.approx([9.9, 10.0])
    assert out["greedy_joint_per_state"] == [[0, 0], [1, 1]]


def test_oracle_bestresp(capsys):
    rc, out = _oracle_json(capsys, "bestresp", "matching_pennies",
                           "--me", "1", "--mix", "0.7,0.3")
    assert rc == 0
    assert out["action"] == 1 and out["value"] == pytest.approx(0.4)


def test_oracle_bad_fixture_exits_2():
    assert cli.main(["oracle", "nash", "no_such_game"]) == 2


def test_oracle_argmax_needs_cooperative():
    assert cli.main(["oracle", "argmax", "matching_pennies"]) == 2


@pytest.mark.parametrize("argv,message", [
    (["argmax", "coop_climb", "--state", "5"], "--state must be in [0, 1), got 5"),
    (["argmax", "coop_climb", "--state", "-1"], "--state must be in [0, 1), got -1"),
    (["qiter", "two_step_coop", "--gamma", "-1"], "--gamma must be in [0, 1], got -1.0"),
    (["qiter", "two_step_coop", "--gamma", "1.5"], "--gamma must be in [0, 1], got 1.5"),
])
def test_oracle_rejects_out_of_range_input(capsys, argv, message):
    assert cli.main(["oracle", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"error: {message}\n" == captured.err


@pytest.mark.parametrize("mix", ["0.5,abc", "0.5,0.6"])
def test_oracle_bestresp_bad_mix_exits_2(capsys, mix):
    assert cli.main(["oracle", "bestresp", "matching_pennies", "--me", "1", "--mix", mix]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error: " in captured.err


# -- gradcheck subcommand --------------------------------------------------------

def test_gradcheck_reports_both_suites(capsys):
    rc = cli.main(["gradcheck", "--instances", "3"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0 and report["pass"]
    assert set(report["suites"]) == {"ndiff", "dial_bptt"}
    for suite in report["suites"].values():
        assert suite["max_rel_error"] < 1e-4


def test_gradcheck_instances_below_one_exits_2(capsys):
    for instances in ("0", "-1"):
        rc = cli.main(["gradcheck", "--instances", instances])
        captured = capsys.readouterr()
        assert rc == 2
        assert "--instances must be at least 1" in captured.err
        assert captured.out == ""


def test_gradcheck_catches_broken_activation_backward(capsys, monkeypatch):
    fw, _ = ndiff.OPS["elu"]

    def bad_bw(ctx, vals, g):
        (x,) = vals
        return (g * np.where(x >= 0.0, 1.0, -np.exp(x)),)

    monkeypatch.setitem(ndiff.OPS, "elu", (fw, bad_bw))
    rc = cli.main(["gradcheck", "--instances", "2"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert not report["suites"]["ndiff"]["pass"]

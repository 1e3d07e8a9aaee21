import base64
import csv
import dataclasses
import json
import math
import os
import pathlib
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from marlab import cli, envs, ndiff
from marlab.cli import (
    IncompatibleAlgoEnv,
    InvalidConfig,
    build_config,
)
from marlab.envs import fixture_by_name, game_to_dict, two_step_coop

from calls import count_calls
from golden import HOME_ENVS
from nets import reachable_dense_nets


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
    {"total_steps": float("inf")},
    {"embed_dim": float("nan")},
    {"lr": float("inf")},
    {"beta": float("nan")},
])
def test_invalid_values_rejected(bad):
    base = {"algo": "qmix", "env": "two_step_coop"}
    with pytest.raises(InvalidConfig):
        build_config({**base, **bad})


_HUGE = 10 ** 400    # a JSON integer past float64's range
_CONFIG_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.integers(-_HUGE, _HUGE),
    st.sampled_from([_HUGE, -_HUGE]), st.floats(), st.floats(0.0, 1.0), st.text(max_size=4),
    st.sampled_from(list(cli.ALGOS) + ["two_step_coop", "matching_pennies"]),
    st.lists(st.one_of(st.integers(-2, 64), st.floats(), st.just(_HUGE)), max_size=3))


@given(algo=st.sampled_from(cli.ALGOS),
       rest=st.dictionaries(st.sampled_from([f.name for f in cli.CONFIG_FIELDS]),
                            _CONFIG_VALUES, max_size=6))
@example(algo="qmix", rest={"lr": _HUGE})
@example(algo="dial", rest={"beta": -_HUGE})
@settings(max_examples=150, derandomize=True, deadline=None)
def test_build_config_gives_finite_in_range_values_or_refuses_them(algo, rest):
    with mock.patch.dict(os.environ):
        os.environ.pop("MARLAB_SEED", None)
        try:
            cfg = build_config({"algo": algo, **rest})
        except InvalidConfig:
            return
    for f in cli.CONFIG_FIELDS:
        v = getattr(cfg, f.name)
        if v is None:
            assert f.name == "gamma"
            continue
        if f.type is float:
            assert type(v) is float and math.isfinite(v), f.name
        elif f.type is list:
            assert all(type(h) is int for h in v), f.name
        else:
            assert type(v) is f.type, f.name
        check = f.metadata["check"]
        assert check is None or check(v), f.name


@pytest.mark.parametrize("key", ["lr", "gamma", "tau", "beta", "epsilon_start", "epsilon_end"])
def test_config_file_number_past_float_range_exits_2_naming_the_key(tmp_path, capsys, key):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({key: _HUGE}))
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(cfgfile), "--out-dir", str(out)]) == 2
    assert f"error: {key} must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_integer_too_long_to_parse_exits_2(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text('{"lr": ' + "9" * 5000 + "}")
    assert cli.main(["train", "--config", str(cfgfile), "--out-dir", str(tmp_path / "run")]) == 2
    assert "cannot parse config file" in capsys.readouterr().err


@pytest.mark.parametrize("field,path", [("gamma", ()), ("init_dist", (0,)),
                                        ("rewards", (0, 0, 0, 0)), ("transition", (1, 1, 1, 0))])
def test_game_file_number_past_float_range_exits_2_naming_the_field(
        tmp_path, capsys, field, path):
    game = game_to_dict(two_step_coop())
    if path:
        cell = game[field]
        for i in path[:-1]:
            cell = cell[i]
        cell[path[-1]] = _HUGE
    else:
        game[field] = _HUGE
    game_file = tmp_path / "game.json"
    game_file.write_text(json.dumps(game))
    for argv in (["train", "--env", str(game_file), "--out-dir", str(tmp_path / "run")],
                 ["oracle", "qiter", str(game_file)]):
        assert cli.main(argv) == 2
        assert f"error: {field} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_config_file_unknown_key_exits_2(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"algo": "qmix", "nosuch": 1}))
    assert cli.main(["train", "--config", str(cfgfile)]) == 2


def test_missing_config_file_exits_2(tmp_path):
    assert cli.main(["train", "--config", str(tmp_path / "nope.json")]) == 2


@pytest.mark.parametrize("flag,value", [("--lr", "inf"), ("--lr", "nan"),
                                        ("--total-steps", "inf")])
def test_non_finite_flag_exits_2(tmp_path, flag, value):
    assert cli.main(["train", flag, value, "--out-dir", str(tmp_path / "run")]) == 2
    assert not (tmp_path / "run").exists()


def test_game_file_with_a_nan_reward_exits_2(tmp_path, capsys):
    game = game_to_dict(two_step_coop())
    game["rewards"][0][0][0][0] = float("nan")
    path = tmp_path / "nan_game.json"
    path.write_text(json.dumps(game))    # json writes NaN, and reads it back
    assert cli.main(["train", "--env", str(path), "--out-dir", str(tmp_path / "run")]) == 2
    assert "rewards must be finite" in capsys.readouterr().err


def test_unknown_flag_exits_2():
    assert cli.main(["train", "--nonsense", "1"]) == 2


def test_marlab_seed_env_var_overrides(monkeypatch):
    monkeypatch.setenv("MARLAB_SEED", "123")
    cfg = build_config({"algo": "qmix", "seed": 5})
    assert cfg.seed == 123
    monkeypatch.setenv("MARLAB_SEED", "abc")
    with pytest.raises(InvalidConfig):
        build_config({"algo": "qmix"})


REPLAY_ALGOS = {"iql", "vdn", "qmix", "maddpg_ctde", "maddpg_dec", "rial"}


@pytest.mark.parametrize("algo", cli.ALGOS)
def test_a_replay_smaller_than_one_batch_is_refused(tmp_path, capsys, algo):
    # such a replay never holds a batch, so the run would never learn; dial
    # and self-play keep no replay
    rc, out = _train(tmp_path, algo, "--algo", algo, "--env", HOME_ENVS[algo],
                     "--batch-size", "8", "--buffer-capacity", "7", "--total-steps", "4",
                     "--eval-interval", "4", "--eval-episodes", "2")
    if algo in REPLAY_ALGOS:
        assert rc == 2
        err = capsys.readouterr().err
        assert "buffer_capacity" in err and "batch_size" in err
        assert not out.exists()
    else:
        assert rc == 0
    build_config({"algo": algo, "batch_size": 8, "buffer_capacity": 8})


# -- algo/env compatibility --------------------------------------------------

TWO_STEP_FILE = str(pathlib.Path(envs.__file__).parent / "fixtures" / "two_step_coop.json")
GAMES = (*envs.FIXTURES, TWO_STEP_FILE)
DISCRETE = {"two_step_coop", "coop_climb", "matching_pennies", "rock_paper_scissors",
            "signal_relay", TWO_STEP_FILE}
SHARED_REWARD = {"two_step_coop", "coop_climb", "signal_relay", TWO_STEP_FILE}
# the 31 of 56 pairs that train: value heads need discrete actions and, to
# factorize one team value, a shared reward; decentralized maddpg models
# discrete co-actors; self-play needs a symmetric zero-sum matrix game and the
# communication learners a signalling fixture
ACCEPTED = {"iql": DISCRETE, "vdn": SHARED_REWARD, "qmix": SHARED_REWARD,
            "maddpg_ctde": set(GAMES), "maddpg_dec": DISCRETE,
            "selfplay": {"matching_pennies", "rock_paper_scissors"},
            "dial": {"signal_relay"}, "rial": {"signal_relay"}}


@pytest.mark.parametrize("algo", cli.ALGOS)
def test_each_algo_trains_on_exactly_the_games_its_learner_accepts(tmp_path, algo):
    cfg = build_config({"algo": algo})
    accepted = set()
    for i, game in enumerate(GAMES):
        try:
            cli.Run(cfg, envs.resolve_env(game), 0)
            accepted.add(game)
        except IncompatibleAlgoEnv:
            rc, out = _train(tmp_path, f"refused{i}", "--algo", algo, "--env", game)
            assert rc == 2, game
            assert not out.exists(), game
    assert accepted == ACCEPTED[algo]


def test_train_incompatible_pair_exits_2(tmp_path):
    rc, out = _train(tmp_path, "bad", "--algo", "qmix", "--env", "matching_pennies")
    assert rc == 2
    assert not out.exists()     # refused before the out dir or its config echo


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


def test_eval_checks_fresh_files_by_hashing_and_older_layouts_by_reserializing(
        tmp_path, capsys, monkeypatch):
    _, out = _train(tmp_path, "run", "--algo", "vdn", "--env", "coop_climb",
                    "--total-steps", "40", "--eval-interval", "20", "--eval-episodes", "5")
    fresh = out / "checkpoint.json"
    blob = json.loads(fresh.read_text())
    assert fresh.read_text() == json.dumps(blob, sort_keys=True, separators=(",", ":"))
    # the first layout is the one earlier versions wrote
    layouts = [json.dumps(blob, sort_keys=True), json.dumps(blob, sort_keys=True, indent=1)]
    capsys.readouterr()

    def evaluated(path, digests):
        calls = count_calls(monkeypatch, cli, ["_digest"])
        assert cli.main(["eval", "--checkpoint", str(path), "--episodes", "30",
                         "--out", str(tmp_path / "eval.json")]) == 0
        assert calls["_digest"] == digests
        return capsys.readouterr().out

    summary = evaluated(fresh, 0)
    for i, text in enumerate(layouts):
        older = tmp_path / f"layout{i}.json"
        older.write_text(text)
        assert evaluated(older, 1) == summary


# strings that hold the envelope's markers, quotes, backslashes and non-ASCII text
_TRICKY = st.lists(st.sampled_from(['"', "\\", ",", ":", "é", "☃", "\n", "x",
                                    ',"payload":', ',"sha256":"', '"}']),
                   max_size=6).map("".join)


@given(payload=st.fixed_dictionaries(
           {"config": st.fixed_dictionaries({"out_dir": _TRICKY, "seed": st.integers(0, 9)}),
            "psi": st.dictionaries(_TRICKY, st.lists(st.floats(allow_nan=False), max_size=3),
                                   max_size=3)}),
       env=_TRICKY, where=st.floats(0.0, 1.0, exclude_max=True),
       byte=st.one_of(st.sampled_from(b"0123456789"), st.integers(0, 255)))
@settings(max_examples=30, derandomize=True, deadline=None)
def test_checkpoint_envelope_round_trips_and_rejects_any_changed_payload_byte(
        tmp_path_factory, payload, env, where, byte):
    path = tmp_path_factory.mktemp("ckpt") / "checkpoint.json"
    text = cli._checkpoint_text("vdn", env, payload)
    blob = {"algo": "vdn", "env": env, "format": "marlab-checkpoint-v2",
            "payload": payload, "sha256": cli._digest(payload)}
    assert text == json.dumps(blob, sort_keys=True, separators=(",", ":"))
    path.write_text(text)
    with pytest.MonkeyPatch.context() as mp:
        calls = count_calls(mp, cli, ["_digest"])
        assert cli._load_checkpoint_file(path) == blob
        assert calls["_digest"] == 0

    # change one byte of the payload as written
    data = bytearray(path.read_bytes())
    start = data.index(b',"payload":') + len(b',"payload":')
    at = start + int(where * (data.rindex(b',"sha256":"') - start))
    if data[at] == byte:
        return
    data[at] = byte
    path.write_bytes(bytes(data))
    try:
        loaded = cli._load_checkpoint_file(path)
    except cli.ChecksumMismatch as e:
        assert re.search("malformed checkpoint|failed its sha256 check", str(e))
    else:
        # only a change that keeps the value, such as the case of a \u escape's hex digits
        assert loaded["payload"] == payload


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


def test_eval_negative_seed_exits_2(tmp_path, capsys):
    _, out = _train(tmp_path, "run", "--algo", "vdn", "--env", "coop_climb", *QUICK)
    rc = cli.main(["eval", "--checkpoint", str(out / "checkpoint.json"), "--seed", "-1"])
    assert rc == 2
    assert "--seed must be non-negative" in capsys.readouterr().err
    assert not (out / "eval.json").exists()


@pytest.mark.parametrize("fmt", ["marlab-checkpoint-v3", "", None])
def test_eval_refuses_an_unknown_checkpoint_format(tmp_path, capsys, fmt):
    _, out = _train(tmp_path, "run", "--algo", "vdn", "--env", "coop_climb", *QUICK)
    blob = json.loads((out / "checkpoint.json").read_text())
    blob["format"] = fmt
    (out / "checkpoint.json").write_text(cli._canonical(blob))
    capsys.readouterr()
    assert cli.main(["eval", "--checkpoint", str(out / "checkpoint.json")]) == 1
    assert f"unsupported checkpoint format {fmt!r}" in capsys.readouterr().err
    assert not (out / "eval.json").exists()


def test_eval_refuses_a_checkpoint_whose_algo_differs_from_its_config(tmp_path, capsys):
    _, out = _train(tmp_path, "run", "--algo", "vdn", "--env", "coop_climb", *QUICK)
    payload = json.loads((out / "checkpoint.json").read_text())["payload"]
    bad = tmp_path / "checkpoint.json"
    bad.write_text(cli._checkpoint_text("qmix", "coop_climb", payload))
    capsys.readouterr()
    assert cli.main(["eval", "--checkpoint", str(bad)]) == 2
    assert "checkpoint algo 'qmix' differs from its payload's config algo 'vdn'" \
        in capsys.readouterr().err
    assert not (tmp_path / "eval.json").exists()


def test_eval_of_a_payload_without_config_builds_the_envelopes_algo(tmp_path, capsys):
    _, out = _train(tmp_path, "run", "--algo", "vdn", "--env", "coop_climb", *QUICK)
    payload = json.loads((out / "checkpoint.json").read_text())["payload"]
    del payload["config"]
    bare = tmp_path / "bare.json"
    bare.write_text(cli._checkpoint_text("vdn", "coop_climb", payload))
    capsys.readouterr()
    for path in (out / "checkpoint.json", bare):
        assert cli.main(["eval", "--checkpoint", str(path), "--out",
                         str(path.with_suffix(".eval"))]) == 0
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert summary["algo"] == "vdn"
    assert (bare.with_suffix(".eval")).read_bytes() == (out / "checkpoint.eval").read_bytes()


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


@pytest.mark.parametrize("algo,home,other", [("qmix", "two_step_coop", "coop_climb"),
                                              ("vdn", "coop_climb", "rock_paper_scissors"),
                                              ("maddpg_ctde", "coop_cts", "two_step_coop"),
                                              ("selfplay", "rock_paper_scissors",
                                               "matching_pennies"),
                                              ("iql", "two_step_coop", "coop_cts"),
                                              ("maddpg_dec", "two_step_coop", "coop_cts"),
                                              ("selfplay", "rock_paper_scissors", "coop_climb"),
                                              ("rial", "signal_relay", "two_step_coop")])
def test_eval_on_a_game_the_checkpoint_does_not_fit_exits_2(tmp_path, capsys, algo, home,
                                                           other):
    rc, out = _train(tmp_path, algo, "--algo", algo, "--env", home, "--batch-size", "8",
                     "--total-steps", "20", "--eval-interval", "20", "--eval-episodes", "5")
    assert rc == 0
    capsys.readouterr()
    rc = cli.main(["eval", "--checkpoint", str(out / "checkpoint.json"), "--env", other])
    assert rc == 2
    assert f"checkpoint does not fit {other}" in capsys.readouterr().err
    assert not (out / "eval.json").exists()


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """algo -> (home game, checkpoint payload, the run's config echo)."""
    runs = {}
    for algo, env in (("qmix", "two_step_coop"), ("maddpg_ctde", "coop_cts"),
                      ("dial", "signal_relay")):
        rc, out = _train(tmp_path_factory.mktemp(algo), "run", "--algo", algo, "--env", env,
                         "--batch-size", "8", "--total-steps", "20", "--eval-interval", "20",
                         "--eval-episodes", "5")
        assert rc == 0
        runs[algo] = (env, json.loads((out / "checkpoint.json").read_text())["payload"],
                      json.loads((out / "config_echo.json").read_text()))
    return runs


def _resize_leaf(tensors, extra):
    """Add extra zero bytes to, or cut -extra bytes from, the first tensor's base64 bytes."""
    name = sorted(tensors)[0]
    raw = base64.b64decode(tensors[name])
    tensors[name] = base64.b64encode(raw + bytes(extra) if extra > 0 else raw[:extra]).decode()


def _poison_leaf(tensors, value, as_list=False):
    """Set the first value of the first tensor to value, in base64 or as a v1 list."""
    name = sorted(tensors)[0]
    values = np.frombuffer(base64.b64decode(tensors[name]), "<f8").copy()
    values[0] = value
    tensors[name] = values.tolist() if as_list else base64.b64encode(values.tobytes()).decode()


@pytest.mark.parametrize("algo,edit,path", [
    ("qmix", lambda p: p.pop("psi"), "payload/psi: missing"),
    ("qmix", lambda p: p.update(mode="vdn"), "payload/mode: 'vdn', expected 'qmix'"),
    ("qmix", lambda p: p["psi"].pop("agent1/b0"), "payload/psi/agent1/b0: missing"),
    ("qmix", lambda p: p.update(config=5), "payload/config: a int, expected a dict"),
    ("maddpg_ctde", lambda p: p.pop("critics"), "payload/critics: missing"),
    ("maddpg_ctde", lambda p: p.update(actors=p["actors"][:1]), "payload/actors/1: missing"),
    ("maddpg_ctde", lambda p: p["targets"]["critics"].append({}),
     "payload/targets/critics/2: unexpected"),
    ("dial", lambda p: p.update(cells=p["cells"][:1]), "payload/cells/1: missing"),
    ("dial", lambda p: p.update(cells=[]), "payload/cells/0: missing"),
    ("dial", lambda p: p["cells"].append(p["cells"][0]), "payload/cells/2: unexpected"),
    ("dial", lambda p: p.update(channel="zeroed"), "payload/channel: 'zeroed', expected 'on'"),
    ("qmix", lambda p: p["psi"].update({"agent1/b0": "*" + p["psi"]["agent1/b0"]}),
     "payload/psi/agent1/b0: does not fill shape (1, 32)"),
    ("maddpg_ctde", lambda p: _resize_leaf(p["critics"][1], 8),
     "payload/critics/1/critic1/W0: does not fill shape (3, 64)"),
    ("maddpg_ctde", lambda p: _resize_leaf(p["targets"]["actors"][0], -8),
     "payload/targets/actors/0/actor0/W0: does not fill shape (1, 64)"),
    ("qmix", lambda p: _poison_leaf(p["psi"], np.nan),
     "payload/psi/agent0/W0: holds a NaN or infinite value"),
    ("maddpg_ctde", lambda p: _poison_leaf(p["critics"][1], np.inf, as_list=True),
     "payload/critics/1/critic1/W0: holds a NaN or infinite value"),
    ("dial", lambda p: _poison_leaf(p["cells"][1], -np.inf),
     "payload/cells/1/cell1/W0: holds a NaN or infinite value"),
    ("qmix", lambda p: p["config"].update(lr=_HUGE), "error: lr must be finite"),
    ("dial", lambda p: p["config"].update(beta=-_HUGE), "error: beta must be finite"),
])
def test_eval_rejects_a_checksummed_payload_that_does_not_fit_its_learner(
        tmp_path, capsys, trained, algo, edit, path):
    env, payload, config = trained[algo]
    assert payload["config"] == config
    payload = json.loads(json.dumps(payload))
    edit(payload)
    bad = tmp_path / "checkpoint.json"
    bad.write_text(cli._checkpoint_text(algo, env, payload))
    assert cli.main(["eval", "--checkpoint", str(bad), "--episodes", "5"]) == 2
    assert path in capsys.readouterr().err
    assert not (tmp_path / "eval.json").exists()


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
    calls = count_calls(monkeypatch, envs.MarkovGame, ["step_batch"])
    assert cli.main(["eval", "--checkpoint", str(out / "checkpoint.json"),
                     "--episodes", "500"]) == 0
    assert json.loads(capsys.readouterr().out)["episodes"] == 500
    horizon = fixture_by_name(HOME_ENVS[algo]).horizon
    assert 1 <= calls["step_batch"] <= horizon


def _started(algo, seed=0):
    cfg = build_config(flag_dict={"algo": algo, "env": HOME_ENVS[algo], "seed": seed,
                                  "batch_size": 8})
    return cli.Run(cfg, envs.resolve_env(cfg.env), seed)


@pytest.mark.parametrize("algo", ["iql", "rial"])
def test_a_run_keeps_its_state_as_attributes(tmp_path, algo):
    k, flags = 12, ["--algo", algo, "--env", HOME_ENVS[algo], "--batch-size", "8",
                    "--total-steps", "12", "--eval-interval", "5", "--eval-episodes", "5"]
    cfg = cli._config_from_args(cli.build_parser().parse_args(["train", *flags]))
    run = cli.Run(cfg, envs.resolve_env(cfg.env), cfg.seed)
    for step in range(1, k + 1):
        run.step()
        assert run.steps == step
        assert len(run.rows) == len(run.acc_rows) == step // 5 + (step == k)    # one per eval
    b = run.buffer.contents()
    ended = b.done.reshape(len(b.done), -1).all(axis=1)
    assert run.episodes == ended.sum()
    if algo == "iql":
        assert len(run.buffer) == k
        # the live episode goes on from the last record, or starts afresh after an ending
        index, t = run.live
        assert t == k - (np.flatnonzero(ended)[-1] + 1 if ended.any() else 0)
        assert index.shape == (1,) and (t == 0 or index[0] == b.next_state[-1])
    else:
        assert run.live is None     # RIAL plays whole episodes
        assert len(run.buffer) == run.env.horizon * k and run.episodes == k
    assert run.loss is not None and run.rows[-1][2] == cli._fmt(run.loss)
    # the rows are the ones `marlab train` writes for the same flags
    rc, out = _train(tmp_path, "run", *flags)
    assert rc == 0
    with open(out / "metrics.csv", newline="") as f:
        assert list(csv.reader(f))[1:] == [[str(v) for v in row] for row in run.rows]


def _optimizers(learner):
    """Every AdamState a learner holds, directly or in a list or dict."""
    found = {}
    for v in vars(learner).values():
        items = v.values() if isinstance(v, dict) else v if isinstance(v, list) else [v]
        found.update((id(x), x) for x in items if isinstance(x, ndiff.AdamState))
    return list(found.values())


def _checkpoint_bytes(learner):
    return json.dumps(ndiff.tree_to_json(learner.checkpoint_tree()), sort_keys=True)


_ADAM_ALGOS = [a for a in cli.ALGOS if a != "selfplay"]


@pytest.mark.parametrize("algo", _ADAM_ALGOS)
def test_every_optimizer_keeps_its_params_in_one_vector(algo):
    learner = _started(algo).learner
    opts = _optimizers(learner)
    assert opts
    for opt in opts:
        assert opt.value.ndim == 1 and opt.value.size == sum(p.value.size for p in opt.params)
        for moment in (opt.m, opt.v):
            assert isinstance(moment, np.ndarray) and moment.shape == opt.value.shape
        for p in opt.params:
            assert p.value.base is opt.value and p.grad.base is opt.grad


@pytest.mark.parametrize("algo", _ADAM_ALGOS)
def test_every_reachable_net_steps_with_an_optimizer(algo):
    # a target network is the live net run on the target graph, not a model of its own
    learner = _started(algo).learner
    owned = {id(p) for opt in _optimizers(learner) for p in opt.params}
    nets = reachable_dense_nets(learner)
    assert nets
    for net in nets:
        assert all(id(p) in owned for p in net.params), net.name


@pytest.mark.parametrize("algo", ["qmix", "maddpg_dec", "dial", "rial"])
def test_checkpoint_load_into_fresh_learner_keeps_bytes(algo):
    run = _started(algo)
    for _ in range(40):
        run.step()
    blob = _checkpoint_bytes(run.learner)
    fresh = _started(algo, seed=1).learner
    assert _checkpoint_bytes(fresh) != blob
    ndiff.tree_from_json(json.loads(blob), fresh.checkpoint_tree())
    assert _checkpoint_bytes(fresh) == blob
    for opt in _optimizers(fresh):
        assert all(p.value.base is opt.value for p in opt.params)


def _v1_json(tree):
    """The tree as v1 checkpoints held it: each tensor a flat list of floats."""
    if isinstance(tree, list) and all(isinstance(p, ndiff.Tensor) for p in tree):
        return {p.name: p.value.reshape(-1).tolist() for p in tree}
    if isinstance(tree, list):
        return [_v1_json(v) for v in tree]
    if isinstance(tree, dict):
        return {k: _v1_json(v) for k, v in tree.items()}
    return tree


@pytest.mark.parametrize("algo", cli.ALGOS)
def test_v1_and_v2_files_of_one_tree_load_alike_and_evaluate_alike(tmp_path, algo):
    run = _started(algo)
    for _ in range(40):
        run.step()
    learner = run.learner
    config = dataclasses.asdict(build_config(flag_dict={"algo": algo, "env": HOME_ENVS[algo],
                                                        "batch_size": 8}))
    tree = learner.checkpoint_tree()
    v1 = {**_v1_json(tree), "config": config}
    v2 = {**ndiff.tree_to_json(tree), "config": config}
    files = {"v1": cli._canonical({"algo": algo, "env": HOME_ENVS[algo],
                                   "format": "marlab-checkpoint-v1", "payload": v1,
                                   "sha256": cli._digest(v1)}),
             "v2": cli._checkpoint_text(algo, HOME_ENVS[algo], v2)}
    assert json.loads(files["v2"])["format"] == "marlab-checkpoint-v2"
    for name, text in files.items():
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        payload = dict(cli._load_checkpoint_file(path)["payload"])
        del payload["config"]
        fresh = _started(algo, seed=1).learner
        ndiff.tree_from_json(payload, fresh.checkpoint_tree())
        assert _checkpoint_bytes(fresh) == _checkpoint_bytes(learner)
        assert cli.main(["eval", "--checkpoint", str(path), "--episodes", "20",
                         "--out", str(tmp_path / f"{name}.eval.json")]) == 0
    assert (tmp_path / "v1.eval.json").read_bytes() == (tmp_path / "v2.eval.json").read_bytes()


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


def test_parser_is_built_once_per_process(tmp_path, capsys):
    cli.build_parser.cache_clear()
    _, out = _train(tmp_path, "run", "--algo", "vdn", "--env", "coop_climb", *QUICK)
    assert cli.main(["eval"]) == 2
    capsys.readouterr()
    assert cli.main(["eval", "--checkpoint", str(out / "checkpoint.json"),
                     "--episodes", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["episodes"] == 3
    rc, mix = _oracle_json(capsys, "nash", "matching_pennies")
    assert rc == 0 and mix["value"] == 0.0
    assert cli.build_parser.cache_info().misses == 1


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


def test_oracle_nash_on_continuous_actions_exits_2(capsys):
    assert cli.main(["oracle", "nash", "coop_cts"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: matrix oracles need discrete actions\n"


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


@pytest.mark.parametrize("mix", ["0.5,abc", "0.5,0.6", "nan,0.5"])
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


def test_gradcheck_fails_a_backward_that_returns_nan(capsys, monkeypatch):
    fw, _ = ndiff.OPS["elu"]
    monkeypatch.setitem(ndiff.OPS, "elu", (fw, lambda ctx, vals, g: (g * np.nan,)))
    rc = cli.main(["gradcheck", "--instances", "2"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert not report["suites"]["ndiff"]["pass"]


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

"""Experiment runner: config ingestion, training orchestration, metric
emission, checkpointing, oracle queries, and a gradient self-test.

Config is a single JSON file; command-line flags override file keys and both
override built-in defaults.  The environment variable MARLAB_SEED, when set,
overrides the seed from either source.  Exit codes: 0 success, 1 runtime
failure, 2 usage or config error.

Every training run leaves three artifacts in its output directory:
metrics.csv (fixed column schema), checkpoint.json (parameters plus a
sha256 checksum over the payload), and config_echo.json (the fully resolved
config, byte-stable under reload).  Communication runs additionally write
dial_metrics.csv with step, loss and evaluation accuracy.
"""

import argparse
import csv
import dataclasses
import functools
import hashlib
import io
import json
import os
import pathlib
import sys
import time
import typing

import numpy as np

from . import dial as dialmod
from . import envs, maddpg, ndiff, oracle, qmix, selfplay
from .buffer import JointTransition, ReplayBuffer
from .ndiff import DenseNet, Graph, grad_check


class CliError(Exception):
    exit_code = 1


class InvalidConfig(CliError):
    exit_code = 2


class IncompatibleAlgoEnv(CliError):
    exit_code = 2


class IoError(CliError):
    exit_code = 1


class ChecksumMismatch(CliError):
    exit_code = 1


METRICS_HEADER = ["step", "episodes", "loss", "epsilon",
                  "eval_return_mean", "eval_return_per_agent", "extra"]

GRADCHECK_TOL = 1e-4


# ---------------------------------------------------------------------------
# artifact plumbing
# ---------------------------------------------------------------------------

def _digest(payload):
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _write_text(path, text):
    """Write a sibling temporary file and move it over path, so path holds
    either its old bytes or all of text; the temporary file never stays."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, newline="")
        os.replace(tmp, path)
    except OSError as e:
        raise IoError(f"cannot write {path}: {e}")
    finally:
        tmp.unlink(missing_ok=True)


def _write_csv(path, header, rows):
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    _write_text(path, buf.getvalue())


def _fmt(x):
    return "" if x is None else repr(float(x))


def _row(step, episodes, loss, eps, per_agent, extra):
    per_agent = [float(v) for v in per_agent]
    return [step, episodes, _fmt(loss), _fmt(eps),
            _fmt(float(np.mean(per_agent))),
            json.dumps(per_agent),
            json.dumps(extra, sort_keys=True) if extra else ""]


def _eval_rng(seed, step):
    return np.random.default_rng([seed, step])


def rollout_returns(env, policy, episodes, gamma, rng):
    """Discounted per-agent returns, one row per episode.  All episodes step
    together, one env.step_batch call per timestep over those still running;
    policy maps an (n,) state-index array to (n, n_agents) joint actions."""
    totals = np.zeros((episodes, env.n_agents))
    live = np.arange(episodes)
    index = env.reset_batch(episodes, rng)
    disc = 1.0
    for t in range(env.horizon):
        index, rewards, done = env.step_batch(index, t, policy(index), rng)
        totals[live] += disc * rewards
        disc *= gamma
        live, index = live[~done], index[~done]
    return totals


# ---------------------------------------------------------------------------
# the algorithm table
# ---------------------------------------------------------------------------

class AlgoSpec(typing.NamedTuple):
    """start(cfg, env, rng) builds the learner and returns (learner, step,
    evaluate).  step(t) does training step t (from 1), drawing from rng in
    the learner's own order, and returns (episodes finished, loss, epsilon,
    extra); a loss of None means no update, so rows keep the last loss and
    extra.  evaluate(episodes, rng) returns (per-episode returns, the metrics
    row's per-agent returns, info); the training rows and `marlab eval` both
    call it."""
    start: typing.Callable
    defaults: dict              # values for the config keys left unset
    extra_csv: tuple = ()       # files of (step, loss, eval accuracy) rows


# the info keys `marlab eval` adds to its summary
EVAL_SUMMARY_KEYS = ("accuracy", "policy")


def _epsilon(cfg, t):
    return qmix.epsilon_at(t - 1, cfg.epsilon_start, cfg.epsilon_end,
                           cfg.epsilon_decay_steps)


def _rollout(env, gamma, policy):
    def evaluate(episodes, rng):
        # a greedy policy depends only on the state, so one forward over the
        # n_states rows tabulates it; on a one-state game that forward is a
        # batch of one, whose float bits a larger batch need not reproduce
        table = policy(np.arange(env.n_states))
        totals = rollout_returns(env, lambda index: table[index], episodes, gamma, rng)
        return totals, totals.mean(axis=0), {}
    return evaluate


def _q_start(mode, cfg, env, rng):
    learner = qmix.QmixLearner(
        env, mode, rng, hidden=tuple(cfg.hidden_sizes), embed_dim=cfg.embed_dim,
        gamma=cfg.gamma, lr=cfg.lr, target_interval=cfg.target_update_interval)
    buf, state = ReplayBuffer(cfg.buffer_capacity), env.reset(rng)

    def step(t):
        nonlocal state
        eps = _epsilon(cfg, t)
        tr, state = qmix.collect_step(env, learner, state, eps, rng)
        buf.push(tr)
        if len(buf) < cfg.batch_size:
            return int(tr.done), None, eps, {}
        return int(tr.done), learner.td_update(buf.sample(cfg.batch_size, rng)), eps, {}
    return learner, step, _rollout(env, learner.gamma, learner.greedy_joint)


def _maddpg_start(decentralized, cfg, env, rng):
    learner = maddpg.MaddpgLearner(
        env, rng, hidden=tuple(cfg.hidden_sizes), lr=cfg.lr, gamma=cfg.gamma,
        tau=cfg.tau, beta=cfg.beta, decentralized=decentralized)
    buf, state = ReplayBuffer(cfg.buffer_capacity), env.reset(rng)

    def step(t):
        nonlocal state
        joint = learner.act([state.index], rng, explore=True)[0]
        nxt, rewards, done = env.step(state, joint, rng)
        buf.push(JointTransition(state=state.index, actions=joint,
                                 rewards=tuple(float(r) for r in rewards),
                                 next_state=nxt.index, done=done))
        state = env.reset(rng) if done else nxt
        if len(buf) < cfg.batch_size:
            return int(done), None, None, {}
        out = learner.learner_step(buf.sample(cfg.batch_size, rng), rng)
        return int(done), out["critic_loss"], None, out
    return learner, step, _rollout(env, learner.gamma,
                                   lambda index: learner.act(index, None, explore=False))


def _selfplay_start(cfg, env, rng):
    run = selfplay.SelfPlayRun(env, lr=cfg.lr, batch_episodes=cfg.batch_size)
    uniform = np.full(run.k, 1.0 / run.k)

    def step(t):
        reported = selfplay.selfplay_step(run, env, cfg.batch_size, rng)
        return cfg.batch_size, run.last_loss, None, {"train_batch_mean": reported}

    def evaluate(episodes, erng):
        p = run.policy()
        _, _, r1, r2 = selfplay.play_batch(env, p, p, episodes, erng)
        # as in training, a fair coin picks the seat whose payoff the row reports
        m = float(np.where(erng.random(episodes) < 0.5, r1, r2).mean())
        info = {"policy": [float(x) for x in p],
                "tv_from_uniform": selfplay.total_variation(p, uniform)}
        return np.stack([r1, r2], axis=1), [m, -m], info
    return run, step, evaluate


def _comm_eval(cfg, env, system):
    gamma = env.gamma if cfg.gamma is None else cfg.gamma

    def evaluate(episodes, rng):
        acc = system.evaluate(episodes, rng)
        # the shared reward is 1 on the final step iff the listener matches the
        # bit, so the discounted per-agent return is gamma^(horizon-1) * accuracy
        returns = [(gamma ** (env.horizon - 1)) * acc] * env.n_agents
        return np.tile(returns, (episodes, 1)), returns, {"accuracy": float(acc)}
    return evaluate


def _dial_start(cfg, env, rng):
    system = dialmod.DialSystem(env, rng, net_hidden=tuple(cfg.hidden_sizes), lr=cfg.lr)

    def step(t):
        return cfg.batch_size, system.train_step(cfg.batch_size, rng), None, {}
    return system, step, _comm_eval(cfg, env, system)


def _rial_start(cfg, env, rng):
    system = dialmod.RialSystem(
        env, rng, net_hidden=tuple(cfg.hidden_sizes), lr=cfg.lr, gamma=cfg.gamma,
        target_interval=cfg.target_update_interval,
        buffer_capacity=cfg.buffer_capacity, batch_size=cfg.batch_size)

    def step(t):
        eps = _epsilon(cfg, t)
        return 1, system.step(rng, eps), eps, {}
    return system, step, _comm_eval(cfg, env, system)


_VALUE = {"lr": 5e-3, "batch_size": 32, "hidden_sizes": [32]}
_ACTOR_CRITIC = {"lr": 1e-3, "batch_size": 64, "hidden_sizes": [64, 64]}
_COMM_CSV = ("dial_metrics.csv",)

ALGO_SPECS = {
    "iql": AlgoSpec(functools.partial(_q_start, "independent"), _VALUE),
    "vdn": AlgoSpec(functools.partial(_q_start, "vdn"), _VALUE),
    "qmix": AlgoSpec(functools.partial(_q_start, "qmix"), _VALUE),
    "maddpg_ctde": AlgoSpec(functools.partial(_maddpg_start, False), _ACTOR_CRITIC),
    "maddpg_dec": AlgoSpec(functools.partial(_maddpg_start, True), _ACTOR_CRITIC),
    "selfplay": AlgoSpec(_selfplay_start, {"lr": 0.05, "batch_size": 256, "hidden_sizes": []}),
    "dial": AlgoSpec(_dial_start, {"lr": 5e-3, "batch_size": 32, "hidden_sizes": [16]},
                     _COMM_CSV),
    "rial": AlgoSpec(_rial_start, _VALUE, _COMM_CSV),
}

ALGOS = tuple(ALGO_SPECS)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def _key(default, check=None, rule="", **flag):
    """A config key: its default (None: set per algo, by the env, or derived),
    a range check on the converted value with what it demands, and extra
    argparse settings for its flag."""
    return dataclasses.field(default=default,
                             metadata={"check": check, "rule": rule, "flag": flag})


_POSITIVE = (lambda v: v > 0, "must be positive")
_UNIT = (lambda v: 0.0 <= v <= 1.0, "must be in [0, 1]")


@dataclasses.dataclass
class RunConfig:
    algo: str = _key("qmix", choices=ALGOS)
    env: str = _key("two_step_coop", bool, "must be a fixture name or game-file path",
                    help="fixture name or game-file path")
    seed: int = _key(0, lambda v: v >= 0, "must be non-negative")
    gamma: float = _key(None, *_UNIT)          # None: the env's own discount
    lr: float = _key(None, *_POSITIVE)
    total_steps: int = _key(20000, *_POSITIVE)
    batch_size: int = _key(None, *_POSITIVE)
    buffer_capacity: int = _key(5000, *_POSITIVE)
    target_update_interval: int = _key(200, *_POSITIVE)
    tau: float = _key(0.01, lambda v: 0 < v <= 1, "must be in (0, 1]")
    epsilon_start: float = _key(1.0, *_UNIT)
    epsilon_end: float = _key(0.05, *_UNIT)
    epsilon_decay_steps: int = _key(10000, lambda v: v >= 0, "must be non-negative")
    hidden_sizes: list = _key(None, lambda v: all(h > 0 for h in v), "must be positive",
                              help="comma-separated layer widths, e.g. 64,64")
    embed_dim: int = _key(8, *_POSITIVE)
    beta: float = _key(0.01)
    eval_interval: int = _key(1000, *_POSITIVE)
    eval_episodes: int = _key(200, *_POSITIVE)
    out_dir: str = _key(None, bool, "must be a path")   # None: runs/<algo>-<env>-s<seed>


CONFIG_FIELDS = dataclasses.fields(RunConfig)


def _as_int(name, v):
    if isinstance(v, bool) or not isinstance(v, (int, float)) or int(v) != v:
        raise InvalidConfig(f"{name} must be an integer, got {v!r}")
    return int(v)


def _as_float(name, v):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise InvalidConfig(f"{name} must be a number, got {v!r}")
    return float(v)


def _as_str(name, v):
    if not isinstance(v, str):
        raise InvalidConfig(f"{name} must be a string, got {v!r}")
    return v


def _as_widths(name, v):
    if not isinstance(v, (list, tuple)):
        raise InvalidConfig(f"{name} must be a list of layer widths")
    return [_as_int("hidden size", h) for h in v]


_CONVERT = {int: _as_int, float: _as_float, str: _as_str, list: _as_widths}


def build_config(file_dict=None, flag_dict=None):
    """Merge defaults, config-file keys, and flag overrides into a validated
    RunConfig.  Precedence: flags > file > defaults."""
    file_dict = dict(file_dict or {})
    flag_dict = dict(flag_dict or {})
    for source, label in ((file_dict, "config file"), (flag_dict, "flags")):
        unknown = set(source) - {f.name for f in CONFIG_FIELDS}
        if unknown:
            raise InvalidConfig(f"unknown {label} keys: {sorted(unknown)}")

    merged = {f.name: f.default for f in CONFIG_FIELDS}
    merged.update(file_dict)
    merged.update(flag_dict)

    algo = merged["algo"]
    if algo not in ALGOS:
        raise InvalidConfig(f"algo must be one of {ALGOS}, got {algo!r}")
    for key, val in ALGO_SPECS[algo].defaults.items():
        if merged[key] is None:
            merged[key] = val

    if "MARLAB_SEED" in os.environ:
        try:
            merged["seed"] = int(os.environ["MARLAB_SEED"])
        except ValueError:
            raise InvalidConfig("MARLAB_SEED must be an integer")

    merged["seed"] = _as_int("seed", merged["seed"])
    if merged["out_dir"] is None:
        stem = pathlib.Path(str(merged["env"])).stem
        merged["out_dir"] = f"runs/{algo}-{stem}-s{merged['seed']}"

    for f in CONFIG_FIELDS:
        v = merged[f.name]
        if v is None and f.default is None:
            continue    # only gamma is still unset here
        merged[f.name] = v = _CONVERT[f.type](f.name, v)
        check = f.metadata["check"]
        if check is not None and not check(v):
            raise InvalidConfig(f"{f.name} {f.metadata['rule']}")
    return RunConfig(**merged)


def check_compat(algo, env):
    """Reject algo/env pairings the learner cannot represent."""
    if algo in ("iql", "vdn", "qmix"):
        if not env.all_discrete():
            raise IncompatibleAlgoEnv(f"{algo} needs discrete action spaces")
        if algo != "iql" and not env.cooperative:
            raise IncompatibleAlgoEnv(
                f"{algo} factorizes one shared value; {env.name} is not cooperative")
    elif algo == "maddpg_dec":
        if not env.all_discrete():
            raise IncompatibleAlgoEnv(
                "decentralized targets model opponents with categorical "
                "distributions; continuous co-actors are not supported")
    elif algo == "selfplay":
        try:
            selfplay.check_selfplay_env(env)
        except (envs.NotZeroSum, envs.NotSymmetric) as e:
            raise IncompatibleAlgoEnv(str(e))
    elif algo in ("dial", "rial"):
        if not env.meta.get("comm"):
            raise IncompatibleAlgoEnv(f"{algo} needs a signalling fixture")


# ---------------------------------------------------------------------------
# train subcommand
# ---------------------------------------------------------------------------

def train(cfg, env):
    """The one training loop.  Returns the metrics rows, the checkpoint
    payload and the (step, loss, eval accuracy) rows."""
    spec = ALGO_SPECS[cfg.algo]
    learner, step, evaluate = spec.start(cfg, env, np.random.default_rng(cfg.seed))
    episodes, loss, extra, rows, acc_rows = 0, None, {}, [], []
    for t in range(1, cfg.total_steps + 1):
        try:
            done, step_loss, eps, step_extra = step(t)
        except ndiff.NonFiniteGradient as e:
            raise ndiff.NonFiniteGradient(f"{cfg.algo} training step {t}: {e}") from e
        episodes += done
        if step_loss is not None:
            loss, extra = step_loss, step_extra
        if t % cfg.eval_interval == 0 or t == cfg.total_steps:
            _, returns, info = evaluate(cfg.eval_episodes, _eval_rng(cfg.seed, t))
            rows.append(_row(t, episodes, loss, eps, returns, {**info, **extra}))
            acc_rows.append([t, _fmt(loss), _fmt(info.get("accuracy"))])
    return rows, learner.to_checkpoint(config_echo=dataclasses.asdict(cfg)), acc_rows


def cmd_train(cfg):
    env = envs.resolve_env(cfg.env)
    check_compat(cfg.algo, env)
    out = pathlib.Path(cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise IoError(f"cannot create {out}: {e}")
    _write_text(out / "config_echo.json",
                json.dumps(dataclasses.asdict(cfg), indent=1, sort_keys=True) + "\n")

    rows, payload, acc_rows = train(cfg, env)
    _write_csv(out / "metrics.csv", METRICS_HEADER, rows)
    for name in ALGO_SPECS[cfg.algo].extra_csv:
        _write_csv(out / name, ["step", "loss", "eval_accuracy"], acc_rows)
    checkpoint = {"format": "marlab-checkpoint-v1", "algo": cfg.algo,
                  "env": cfg.env, "payload": payload, "sha256": _digest(payload)}
    _write_text(out / "checkpoint.json", json.dumps(checkpoint, sort_keys=True))

    final = dict(zip(METRICS_HEADER, rows[-1]))
    print(json.dumps({"out_dir": str(out), "final_step": final["step"],
                      "eval_return_mean": final["eval_return_mean"]},
                     sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# eval subcommand
# ---------------------------------------------------------------------------

def _load_checkpoint_file(path):
    path = pathlib.Path(path)
    if not path.exists():
        raise IoError(f"no such checkpoint: {path}")
    try:
        blob = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise ChecksumMismatch(f"malformed checkpoint {path}: {e}")
    if not isinstance(blob, dict) or not isinstance(blob.get("payload", {}), dict):
        raise ChecksumMismatch(f"malformed checkpoint {path}: "
                               "the file and its payload must be JSON objects")
    for key in ("algo", "env", "payload", "sha256"):
        if key not in blob:
            raise ChecksumMismatch(f"checkpoint {path} is missing {key!r}")
    if _digest(blob["payload"]) != blob["sha256"]:
        raise ChecksumMismatch(f"checkpoint {path} failed its sha256 check")
    return blob


def evaluate_checkpoint(blob, env, episodes, seed):
    cfg = build_config(blob["payload"].get("config") or {})
    spec = ALGO_SPECS[cfg.algo]
    try:
        # an untrained learner shaped like the one that wrote the checkpoint
        learner, _, evaluate = spec.start(cfg, env, np.random.default_rng(seed))
        learner.load_checkpoint(blob["payload"])
    except (envs.EnvError, qmix.QmixError, maddpg.MaddpgError,
            dialmod.DialError) as e:
        raise IncompatibleAlgoEnv(f"checkpoint does not fit {env.name}: {e}")
    totals, _, info = evaluate(episodes, _eval_rng(seed, 0))

    per_agent = [float(v) for v in totals.mean(axis=0)]
    summary = {"algo": cfg.algo, "episodes": int(totals.shape[0]),
               "mean_return_per_agent": per_agent,
               "mean_return": float(np.mean(per_agent))}
    if env.zero_sum:
        tol = 1e-12
        summary["win_rate_per_agent"] = [float((totals[:, i] > tol).mean())
                                         for i in range(env.n_agents)]
        summary["draw_rate"] = float((np.abs(totals[:, 0]) <= tol).mean())
    summary.update((k, info[k]) for k in EVAL_SUMMARY_KEYS if k in info)
    return summary


def cmd_eval(args):
    if args.episodes < 1:
        raise InvalidConfig(f"--episodes must be at least 1, got {args.episodes}")
    blob = _load_checkpoint_file(args.checkpoint)
    env = envs.resolve_env(args.env or blob["env"])
    summary = evaluate_checkpoint(blob, env, args.episodes, args.seed)
    text = json.dumps(summary, sort_keys=True)
    print(text)
    out = pathlib.Path(args.out) if args.out else \
        pathlib.Path(args.checkpoint).parent / "eval.json"
    _write_text(out, text + "\n")
    return 0


# ---------------------------------------------------------------------------
# oracle subcommand
# ---------------------------------------------------------------------------

def cmd_oracle(args):
    env = envs.resolve_env(args.game)
    sub = args.oracle_cmd
    if sub == "nash":
        if all(sp.n == 2 for sp in env.action_space):
            p1, p2, v = oracle.nash_2x2_zero_sum(env)
        else:
            p1, p2, v = oracle.nash_zero_sum_enumerate(env)
        out = {"mix1": [float(x) for x in p1], "mix2": [float(x) for x in p2],
               "value": float(v) + 0.0}
    elif sub == "argmax":
        if not env.cooperative:
            raise IncompatibleAlgoEnv("argmax scans a shared reward; "
                                      f"{env.name} is not cooperative")
        s = args.state
        if not 0 <= s < env.n_states:
            raise InvalidConfig(f"--state must be in [0, {env.n_states}), got {s}")
        joint, value = oracle.joint_argmax(
            lambda j: env.reward_vector(s, j)[0], env)
        out = {"state": s, "joint": [int(a) for a in joint], "value": float(value)}
    elif sub == "qiter":
        if args.gamma is not None and not 0.0 <= args.gamma <= 1.0:
            raise InvalidConfig(f"--gamma must be in [0, 1], got {args.gamma}")
        tab = oracle.tabular_q_iteration(env, gamma=args.gamma)
        out = {"gamma": float(tab.gamma),
               "value_per_state": [tab.value(s) for s in range(env.n_states)],
               "greedy_joint_per_state": [[int(a) for a in tab.greedy(s)]
                                          for s in range(env.n_states)]}
    else:
        br, value = oracle.best_response_value(env, args.me, args.mix)
        out = {"me": args.me, "best_response": [float(x) for x in br],
               "action": int(np.argmax(br)), "value": float(value)}
    print(json.dumps(out, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# gradcheck subcommand
# ---------------------------------------------------------------------------

def ndiff_gradcheck_suite(instances=100, seed=1234):
    """Finite differences vs reverse-mode on random layered nets under three
    loss styles; returns the worst relative error.  Instance 0 is a fixed
    small net with an exponential-linear hidden layer so a broken backward
    rule for that activation is caught even at low instance counts."""
    rng = np.random.default_rng(seed)
    acts = ["relu", "elu", "tanh", "sigmoid"]
    worst = 0.0
    for trial in range(instances):
        if trial == 0:
            sizes = [3, 5, 2]
            layer_acts = ["elu", "identity"]
        else:
            depth = int(rng.integers(1, 4))
            sizes = [int(rng.integers(1, 9)) for _ in range(depth + 1)]
            layer_acts = [acts[int(rng.integers(0, 4))]
                          for _ in range(depth - 1)] + ["identity"]
        net = DenseNet(sizes, layer_acts, rng, name=f"g{trial}")
        x = np.asarray(rng.normal(size=(3, sizes[0])))
        target = np.asarray(rng.normal(size=(3, sizes[-1])))
        style = trial % 3

        def f():
            g = Graph()
            out = net.forward(g, g.constant(x))
            if style == 0:
                return g, g.mean(g.square(g.sub(out, g.constant(target))))
            if style == 1:
                return g, g.sum(g.mul(g.softmax(out), g.constant(target)))
            return g, g.mean(g.abs(g.tanh(out)))

        worst = max(worst, grad_check(f, net.params))
    return worst


def dial_gradcheck_suite(instances=100, seed=1234):
    """Finite differences vs reverse-mode through full communication unrolls,
    messages crossing agents between timesteps; returns the worst relative
    error."""
    rng = np.random.default_rng(seed)
    env = envs.signal_relay()
    worst = 0.0
    for case in range(instances):
        hidden_dim = int(rng.integers(1, 4))
        msg_dim = int(rng.integers(1, 3))
        net_hidden = [(), (4,)][case % 2]
        channel = "on" if case % 3 else "zeroed"
        system = dialmod.DialSystem(env, rng, msg_dim=msg_dim,
                                    hidden_dim=hidden_dim,
                                    net_hidden=net_hidden, channel=channel)
        for p in system.params():
            p.value[...] = rng.normal(scale=0.7, size=p.value.shape)
        bits = rng.integers(2, size=3)

        def f():
            u = system.unroll(None, np.random.default_rng(0), bits=bits)
            return u.graph, system.loss_tensor(u)

        worst = max(worst, grad_check(f, system.params()))
    return worst


def cmd_gradcheck(args):
    if args.instances < 1:
        raise InvalidConfig(f"--instances must be at least 1, got {args.instances}")
    t0 = time.perf_counter()
    suites = {"ndiff": ndiff_gradcheck_suite(args.instances),
              "dial_bptt": dial_gradcheck_suite(args.instances)}
    report = {
        "suites": {name: {"instances": args.instances,
                          "max_rel_error": float(err),
                          "pass": bool(err < GRADCHECK_TOL)}
                   for name, err in suites.items()},
        "threshold": GRADCHECK_TOL,
        "elapsed_seconds": round(time.perf_counter() - t0, 3),
    }
    report["pass"] = all(s["pass"] for s in report["suites"].values())
    print(json.dumps(report, sort_keys=True))
    return 0 if report["pass"] else 1


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _widths(text):
    try:
        return [int(t) for t in text.strip().split(",") if t]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not comma-separated widths: {text!r}")


def _mix(text):
    try:
        return [float(t) for t in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not comma-separated probabilities: {text!r}")


_FLAG_TYPES = {int: int, float: float, str: str, list: _widths}


def _add_train_flags(p):
    p.add_argument("--config", help="JSON config file")
    for f in CONFIG_FIELDS:
        p.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                       type=_FLAG_TYPES[f.type], **f.metadata["flag"])


def build_parser():
    parser = argparse.ArgumentParser(
        prog="marlab",
        description="desk-scale multi-agent reinforcement learning runs")
    sub = parser.add_subparsers(dest="cmd", required=True)

    _add_train_flags(sub.add_parser("train", help="run one training job"))

    e = sub.add_parser("eval", help="evaluate a saved checkpoint")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--env", help="override the checkpoint's environment")
    e.add_argument("--episodes", type=int, default=500)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--out", help="where to write eval.json")

    o = sub.add_parser("oracle", help="query exact small-game solvers")
    osub = o.add_subparsers(dest="oracle_cmd", required=True)
    n = osub.add_parser("nash", help="zero-sum matrix equilibrium")
    n.add_argument("game")
    a = osub.add_parser("argmax", help="joint argmax of a shared reward")
    a.add_argument("game")
    a.add_argument("--state", type=int, default=0)
    q = osub.add_parser("qiter", help="tabular value iteration over joints")
    q.add_argument("game")
    q.add_argument("--gamma", type=float, default=None)
    b = osub.add_parser("bestresp", help="best pure reply to a frozen mix")
    b.add_argument("game")
    b.add_argument("--me", type=int, required=True)
    b.add_argument("--mix", required=True, type=_mix,
                   help="comma-separated opponent mix, e.g. 0.7,0.3")

    g = sub.add_parser("gradcheck", help="finite-difference gradient suites")
    g.add_argument("--instances", type=int, default=100)
    return parser


def _config_from_args(args):
    file_dict = {}
    if args.config:
        path = pathlib.Path(args.config)
        if not path.exists():
            raise InvalidConfig(f"config file not found: {path}")
        try:
            file_dict = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as e:
            raise InvalidConfig(f"cannot parse config file: {e}")
        if not isinstance(file_dict, dict):
            raise InvalidConfig("config file must hold a JSON object")
    flags = {f.name: getattr(args, f.name) for f in CONFIG_FIELDS
             if getattr(args, f.name) is not None}
    return build_config(file_dict, flags)


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        if args.cmd == "train":
            return cmd_train(_config_from_args(args))
        if args.cmd == "eval":
            return cmd_eval(args)
        if args.cmd == "oracle":
            return cmd_oracle(args)
        return cmd_gradcheck(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code
    except (envs.EnvError, oracle.OracleError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (qmix.QmixError, maddpg.MaddpgError, dialmod.DialError,
            ndiff.NdiffError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()

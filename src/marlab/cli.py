"""Experiment runner: config ingestion, training orchestration, metric
emission, checkpointing, oracle queries, and a gradient self-test.

Config is a single JSON file; command-line flags override file keys and both
override built-in defaults.  The environment variable MARLAB_SEED, when set,
overrides the seed from either source.  Exit codes: 0 success, 1 runtime
failure, 2 usage or config error, such as a game the learner's constructor
refuses or, for vdn and qmix, a game without a shared reward.

Every training run leaves three artifacts in its output directory:
metrics.csv (fixed column schema), checkpoint.json (parameters plus a
sha256 checksum over the payload), and config_echo.json (the fully resolved
config, byte-stable under reload).  Communication runs additionally write
dial_metrics.csv with step, loss and evaluation accuracy.

The checksum is taken over the payload's compact sorted JSON, and
checkpoint.json stores the payload as exactly that text, so `marlab eval`
verifies a checkpoint by hashing those bytes of the file.  Older or
re-formatted checkpoint files are verified by re-serializing their parsed
payload.  The payload is the learner's checkpoint tree plus the run's config;
format marlab-checkpoint-v2 stores each tensor as the base64 text of its
little-endian float64 bytes, so its bits round-trip without float parsing.
v1 files, whose tensors are lists of floats, load by the same reader, which
takes a tensor's form from its JSON type.  Any other format is refused.
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
from .buffer import ReplayBuffer
from .ndiff import DenseNet, grad_check


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

def _canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _digest(payload):
    return hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()


# checkpoint.json is the canonical text of {algo, env, format, payload,
# sha256}; sorted, the payload's key comes after the first three and before
# the checksum, and neither marker can occur inside a JSON string
_PAYLOAD_AT = ',"payload":'
_SHA256_AT = ',"sha256":"'
# the formats eval reads; train writes the last
CHECKPOINT_FORMATS = ("marlab-checkpoint-v1", "marlab-checkpoint-v2")


def _checkpoint_text(algo, env, payload):
    """checkpoint.json's text, equal to _canonical of the whole checkpoint;
    the payload is serialized once, and its sha256 is taken over the very
    text the file holds."""
    text = _canonical(payload)
    head = _canonical({"algo": algo, "env": env, "format": CHECKPOINT_FORMATS[-1]})
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return f'{head[:-1]}{_PAYLOAD_AT}{text}{_SHA256_AT}{digest}"}}'


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
    """An algorithm as plain functions of its Run.  build(cfg, env, rng) returns the
    learner; step(run, t) does training step t (from 1), drawing from run.rng in the
    learner's own order, and returns (episodes finished, loss, epsilon, extra), a loss
    of None meaning no update; evaluate(run, episodes, rng) returns (per-episode
    returns, the metrics row's per-agent returns, info) for the rows and `marlab eval`."""
    build: typing.Callable
    step: typing.Callable
    evaluate: typing.Callable
    defaults: dict              # values for the config keys left unset
    extra_csv: tuple = ()       # files of (step, loss, eval accuracy) rows
    replay: bool = True         # learns from batches of the run's replay


# the info keys `marlab eval` adds to its summary
EVAL_SUMMARY_KEYS = ("accuracy", "policy")


def _epsilon(cfg, t):
    return qmix.epsilon_at(t - 1, cfg.epsilon_start, cfg.epsilon_end,
                           cfg.epsilon_decay_steps)


def _greedy_rollout(run, episodes, rng, policy=None):
    """Per-episode returns of policy(state indices) -> joint actions, or of greedy_joint."""
    # a greedy policy depends only on the state, so one call on every state index
    # tabulates it for all the episodes
    table = (policy or run.learner.greedy_joint)(np.arange(run.env.n_states))
    totals = rollout_returns(run.env, lambda index: table[index], episodes, run.learner.gamma, rng)
    return totals, totals.mean(axis=0), {}


def _collect(run, act, *args):
    """The transition of one qmix.collect_step of the live episode, started at the
    first call, acting by act(index, *args)."""
    if run.live is None:
        run.live = (run.env.reset_batch(1, run.rng), 0)
    tr, run.live = qmix.collect_step(run.env, act, run.live, run.rng, *args)
    return tr


def _replay_draw(run, records, shape=()):
    """The one replay loop: push a step's records into the run's replay and, once it holds
    a batch, return a draw of shape + (batch_size,) records to learn from, else None."""
    for record in records:
        run.buffer.push(record)
    if len(run.buffer) >= run.cfg.batch_size:
        return run.buffer.sample(shape + (run.cfg.batch_size,), run.rng)
    return None


def _q_build(mode, cfg, env, rng):
    if mode != "independent" and not env.cooperative:
        raise qmix.NonCooperative(f"{mode} needs a shared reward; {env.name} is not cooperative")
    return qmix.QmixLearner(
        env, mode, rng, hidden=tuple(cfg.hidden_sizes), embed_dim=cfg.embed_dim,
        gamma=cfg.gamma, lr=cfg.lr, target_interval=cfg.target_update_interval)


def _q_step(run, t):
    # the step's one forward of the live heads: acting reads it, and the update extends it
    eps, learner, g = _epsilon(run.cfg, t), run.learner, ndiff.Graph()
    heads = learner.forward(g)
    tr = _collect(run, learner.act, run.rng, eps, heads)
    batch = _replay_draw(run, [tr])
    return int(tr.done), None if batch is None else learner.td_update(batch, g, heads), eps, {}


def _maddpg_build(decentralized, cfg, env, rng):
    return maddpg.MaddpgLearner(
        env, rng, hidden=tuple(cfg.hidden_sizes), lr=cfg.lr, gamma=cfg.gamma,
        tau=cfg.tau, beta=cfg.beta, decentralized=decentralized)


def _maddpg_step(run, t):
    tr = _collect(run, run.learner.act, run.rng)
    batch = _replay_draw(run, [tr])
    out = {} if batch is None else run.learner.learner_step(batch, run.rng)
    return int(tr.done), out.get("critic_loss"), None, out


def _maddpg_evaluate(run, episodes, rng):
    return _greedy_rollout(run, episodes, rng,
                           lambda index: run.learner.act(index, None, explore=False))


def _selfplay_step(run, t):
    reported = selfplay.selfplay_step(run.learner, run.cfg.batch_size, run.rng)
    return run.cfg.batch_size, run.learner.last_loss, None, {"train_batch_mean": reported}


def _selfplay_evaluate(run, episodes, rng):
    p = run.learner.policy()
    _, _, r1, r2 = selfplay.play_batch(run.env, p, p, episodes, rng)
    # as in training, a fair coin picks the seat whose payoff the row reports
    m = float(np.where(rng.random(episodes) < 0.5, r1, r2).mean())
    info = {"policy": [float(x) for x in p],
            "tv_from_uniform": selfplay.total_variation(p, np.full(len(p), 1.0 / len(p)))}
    return np.stack([r1, r2], axis=1), [m, -m], info


def _comm_evaluate(run, episodes, rng):
    env, cfg = run.env, run.cfg
    gamma = env.gamma if cfg.gamma is None else cfg.gamma
    acc = run.learner.evaluate(episodes, rng)
    # the shared reward is 1 on the final step iff the listener matches the
    # bit, so the discounted per-agent return is gamma^(horizon-1) * accuracy
    returns = [(gamma ** (env.horizon - 1)) * acc] * env.n_agents
    return np.tile(returns, (episodes, 1)), returns, {"accuracy": float(acc)}


def _dial_step(run, t):
    return run.cfg.batch_size, run.learner.train_step(run.cfg.batch_size, run.rng), None, {}


def _rial_step(run, t):
    eps, learner = _epsilon(run.cfg, t), run.learner
    # one episode's records; each agent learns on its own row of the draw
    records = learner.play_episode(run.rng, eps)
    sample = _replay_draw(run, records, (learner.n_agents,))
    return (int(records[-1].done.all()), None if sample is None else learner.td_update(sample),
            eps, {})


_VALUE = {"lr": 5e-3, "batch_size": 32, "hidden_sizes": [32]}
_ACTOR_CRITIC = {"lr": 1e-3, "batch_size": 64, "hidden_sizes": [64, 64]}
_COMM_CSV = ("dial_metrics.csv",)

ALGO_SPECS = {
    "iql": AlgoSpec(functools.partial(_q_build, "independent"), _q_step, _greedy_rollout, _VALUE),
    "vdn": AlgoSpec(functools.partial(_q_build, "vdn"), _q_step, _greedy_rollout, _VALUE),
    "qmix": AlgoSpec(functools.partial(_q_build, "qmix"), _q_step, _greedy_rollout, _VALUE),
    "maddpg_ctde": AlgoSpec(functools.partial(_maddpg_build, False), _maddpg_step,
                            _maddpg_evaluate, _ACTOR_CRITIC),
    "maddpg_dec": AlgoSpec(functools.partial(_maddpg_build, True), _maddpg_step,
                           _maddpg_evaluate, _ACTOR_CRITIC),
    "selfplay": AlgoSpec(lambda cfg, env, rng: selfplay.SelfPlayRun(env, lr=cfg.lr),
                         _selfplay_step, _selfplay_evaluate,
                         {"lr": 0.05, "batch_size": 256, "hidden_sizes": []}, replay=False),
    "dial": AlgoSpec(lambda cfg, env, rng: dialmod.DialSystem(
        env, rng, net_hidden=tuple(cfg.hidden_sizes), lr=cfg.lr), _dial_step, _comm_evaluate,
        {"lr": 5e-3, "batch_size": 32, "hidden_sizes": [16]}, _COMM_CSV, replay=False),
    "rial": AlgoSpec(lambda cfg, env, rng: dialmod.RialSystem(
        env, rng, net_hidden=tuple(cfg.hidden_sizes), lr=cfg.lr, gamma=cfg.gamma,
        target_interval=cfg.target_update_interval), _rial_step, _comm_evaluate, _VALUE,
        _COMM_CSV),
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


_POSITIVE = (lambda v: 0 < v < float("inf"), "must be positive and finite")
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
    beta: float = _key(0.01, lambda v: abs(v) < float("inf"), "must be finite")
    eval_interval: int = _key(1000, *_POSITIVE)
    eval_episodes: int = _key(200, *_POSITIVE)
    out_dir: str = _key(None, bool, "must be a path")   # None: runs/<algo>-<env>-s<seed>


CONFIG_FIELDS = dataclasses.fields(RunConfig)


def _as_int(name, v):
    if type(v) not in (int, float) or type(v) is float and not v.is_integer():    # inf, NaN too
        raise InvalidConfig(f"{name} must be an integer, got {v!r}")
    return int(v)


def _as_float(name, v):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise InvalidConfig(f"{name} must be a number, got {v!r}")
    try:
        return float(v)
    except OverflowError:    # an integer past float64's range
        raise InvalidConfig(f"{name} must be finite") from None


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
    if ALGO_SPECS[algo].replay and merged["buffer_capacity"] < merged["batch_size"]:
        raise InvalidConfig(f"buffer_capacity must be at least batch_size ({merged['batch_size']})")
    return RunConfig(**merged)


# ---------------------------------------------------------------------------
# train subcommand
# ---------------------------------------------------------------------------

class Run:
    """One training run's state, as plain attributes: the learner and the generator of
    every training draw; the one replay, which every replay learner pushes into and
    samples from; the live episode (state index, timestep) of the learners that collect
    one, None before the first collect; steps, episodes finished, and the last loss,
    epsilon and extra; and the metrics and (step, loss, eval accuracy) rows so far.
    A game the learner's constructor refuses raises IncompatibleAlgoEnv."""

    def __init__(self, cfg, env, seed):
        self.cfg, self.env, self.seed, self.spec = cfg, env, seed, ALGO_SPECS[cfg.algo]
        self.rng = np.random.default_rng(seed)
        try:
            self.learner = self.spec.build(cfg, env, self.rng)
        except (envs.EnvError, qmix.QmixError, maddpg.MaddpgError, dialmod.DialError) as e:
            raise IncompatibleAlgoEnv(f"{cfg.algo} cannot learn on {env.name}: {e}") from e
        self.buffer, self.live = ReplayBuffer(cfg.buffer_capacity), None
        self.steps, self.episodes, self.loss, self.eps, self.extra = 0, 0, None, None, {}
        self.rows, self.acc_rows = [], []

    def step(self):
        """Training step steps + 1; at an eval step, that step's rows too."""
        t, cfg = self.steps + 1, self.cfg
        try:
            done, loss, self.eps, extra = self.spec.step(self, t)
        except ndiff.NonFiniteGradient as e:
            raise ndiff.NonFiniteGradient(f"{cfg.algo} training step {t}: {e}") from e
        self.steps, self.episodes = t, self.episodes + done
        if loss is not None:
            self.loss, self.extra = loss, extra
        if t % cfg.eval_interval == 0 or t == cfg.total_steps:
            _, returns, info = self.spec.evaluate(self, cfg.eval_episodes, _eval_rng(self.seed, t))
            per_agent, extra = [float(v) for v in returns], {**info, **self.extra}
            self.rows.append([t, self.episodes, _fmt(self.loss), _fmt(self.eps),
                              _fmt(float(np.mean(per_agent))), json.dumps(per_agent),
                              json.dumps(extra, sort_keys=True) if extra else ""])
            self.acc_rows.append([t, _fmt(self.loss), _fmt(info.get("accuracy"))])


def cmd_train(cfg):
    run = Run(cfg, envs.resolve_env(cfg.env), cfg.seed)
    out = pathlib.Path(cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise IoError(f"cannot create {out}: {e}")
    _write_text(out / "config_echo.json",
                json.dumps(dataclasses.asdict(cfg), indent=1, sort_keys=True) + "\n")

    while run.steps < cfg.total_steps:     # the one training loop
        run.step()
    _write_csv(out / "metrics.csv", METRICS_HEADER, run.rows)
    for name in run.spec.extra_csv:
        _write_csv(out / name, ["step", "loss", "eval_accuracy"], run.acc_rows)
    payload = {**ndiff.tree_to_json(run.learner.checkpoint_tree()),
               "config": dataclasses.asdict(cfg)}
    _write_text(out / "checkpoint.json", _checkpoint_text(cfg.algo, cfg.env, payload))

    final = dict(zip(METRICS_HEADER, run.rows[-1]))
    print(json.dumps({"out_dir": str(out), "final_step": final["step"],
                      "eval_return_mean": final["eval_return_mean"]},
                     sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# eval subcommand
# ---------------------------------------------------------------------------

def _parse_checkpoint(data):
    """The checkpoint parsed from the file's bytes, and whether its sha256 was
    verified on the way: when the bytes between the payload and checksum
    markers hash to the checksum the file ends with, as in every file
    _checkpoint_text wrote, only they and the envelope are parsed.  Any other
    file, such as one with other separators, is parsed whole, unverified."""
    start, end = data.find(_PAYLOAD_AT.encode()), data.rfind(_SHA256_AT.encode())
    if 0 <= start < end:
        text = memoryview(data)[start + len(_PAYLOAD_AT):end]
        digest = hashlib.sha256(text).hexdigest()
        if data[end:] == f'{_SHA256_AT}{digest}"}}'.encode():
            # the appended brace can only close an object; a non-empty one
            # means the whole file is that object with the payload and
            # checksum keys appended
            head = json.loads(data[:start] + b"}")
            if head:
                return {**head, "payload": json.loads(str(text, "utf-8")),
                        "sha256": digest}, True
    return json.loads(data), False


def _load_checkpoint_file(path):
    path = pathlib.Path(path)
    if not path.exists():
        raise IoError(f"no such checkpoint: {path}")
    try:
        blob, verified = _parse_checkpoint(path.read_bytes())
    except (OSError, ValueError) as e:
        raise ChecksumMismatch(f"malformed checkpoint {path}: {e}")
    if not isinstance(blob, dict) or not isinstance(blob.get("payload", {}), dict):
        raise ChecksumMismatch(f"malformed checkpoint {path}: "
                               "the file and its payload must be JSON objects")
    for key in ("algo", "env", "format", "payload", "sha256"):
        if key not in blob:
            raise ChecksumMismatch(f"checkpoint {path} is missing {key!r}")
    if blob["format"] not in CHECKPOINT_FORMATS:
        raise CliError(f"{path}: unsupported checkpoint format {blob['format']!r}")
    if not verified and _digest(blob["payload"]) != blob["sha256"]:
        raise ChecksumMismatch(f"checkpoint {path} failed its sha256 check")
    return blob


def evaluate_checkpoint(blob, env, episodes, seed):
    payload = dict(blob["payload"])
    config = payload.pop("config", {})
    if not isinstance(config, dict):
        raise IncompatibleAlgoEnv(f"payload/config: a {type(config).__name__}, expected a dict")
    cfg = build_config({"algo": blob["algo"], **config})
    if cfg.algo != blob["algo"]:
        raise IncompatibleAlgoEnv(f"checkpoint algo {blob['algo']!r} differs from "
                                  f"its payload's config algo {cfg.algo!r}")
    try:
        # an untrained run like the one that wrote the checkpoint, on a game it fits
        run = Run(cfg, env, seed)
        ndiff.tree_from_json(payload, run.learner.checkpoint_tree())
    except (IncompatibleAlgoEnv, ndiff.NdiffError) as e:
        raise IncompatibleAlgoEnv(f"checkpoint does not fit {env.name}: {e}")
    totals, _, info = run.spec.evaluate(run, episodes, _eval_rng(seed, 0))

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
    if args.seed < 0:
        raise InvalidConfig(f"--seed must be non-negative, got {args.seed}")
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
        if env.all_discrete() and all(sp.n == 2 for sp in env.action_space):
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

        def f(g):
            out = net.forward(g, g.constant(x))
            if style == 0:
                return g.mean(g.square(g.sub(out, g.constant(target))))
            if style == 1:
                return g.sum(g.mul(g.softmax(out), g.constant(target)))
            return g.mean(g.abs(g.tanh(out)))

        worst = np.maximum(worst, grad_check(f, net.params))
    return float(worst)


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

        def f(g):
            return system.loss_tensor(system.unroll(g, None, np.random.default_rng(0), bits=bits))

        worst = np.maximum(worst, grad_check(f, system.params()))
    return float(worst)


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


@functools.cache
def build_parser():
    """The one argument parser, built on first use; parsing keeps no state
    in it, so every main call shares it."""
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
        except (OSError, ValueError) as e:     # ValueError: JSONDecodeError, an over-long integer
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

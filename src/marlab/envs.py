"""Small Markov games: tabular dynamics, fixtures, and induced MDPs.

Games are immutable; episodes (state index arrays and a shared timestep) live
in the caller.  Stateless matrix games are wrapped as one-state, horizon-1
games.  Rewards are always a vector with one entry per agent.
"""

import itertools
import json
import pathlib

import numpy as np


class EnvError(Exception):
    pass


class InvalidAction(EnvError):
    pass


class NonDiscrete(EnvError):
    pass


class NotZeroSum(EnvError):
    pass


class NotSymmetric(EnvError):
    pass


class Discrete:
    __slots__ = ("n",)

    def __init__(self, n):
        self.n = int(n)

    def __repr__(self):
        return f"Discrete({self.n})"

    def __eq__(self, other):
        return isinstance(other, Discrete) and other.n == self.n


class Box1D:
    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo, self.hi = float(lo), float(hi)
        if not self.lo < self.hi:
            raise EnvError(f"empty box [{lo}, {hi}]")

    def __repr__(self):
        return f"Box1D({self.lo}, {self.hi})"

    def __eq__(self, other):
        return isinstance(other, Box1D) and (other.lo, other.hi) == (self.lo, self.hi)


_FLAG_TOL = 1e-12


def _cdf(p):
    """Row-normalized cumulative sums over the last axis, as Generator.choice
    forms them before its one uniform draw."""
    c = p.cumsum(axis=-1)
    return c / c[..., -1:]


def _draw(cdf, rng):
    """One uniform u per row of cdf and the first entry above it, which is
    Generator.choice's searchsorted(cdf, u, side="right")."""
    return (cdf > rng.random((len(cdf), 1))).argmax(axis=1)


def _float64(field, value):
    """value as a float64 array; an integer past float64's range is not finite."""
    try:
        return np.asarray(value, dtype=np.float64)
    except OverflowError:
        raise EnvError(f"{field} must be finite") from None


class MarkovGame:
    """N-agent Markov game over a finite state set.

    Discrete games carry dense tables:
      rewards[s, a1, ..., aN, agent], transition[s, a1, ..., aN, s'],
      terminal_after[s, a1, ..., aN] (episode ends after that step).
    Continuous-action games provide reward_fn(actions) instead and keep a
    single state; actions[i] is agent i's action, a number or an (n,) column
    of n episodes, and the result stacks the per-agent rewards on axis 0.

    reset_batch/step_batch are the only transition path: they move arrays
    of episodes, a training step's live episode being an array of one, by
    table lookups over cumulative transition rows built once here.  Agent
    observations are the tables obs_tables[agent][s], the one-hot state
    when there are no obs_fns.
    """

    def __init__(self, name, action_space, horizon, gamma, cooperative, zero_sum,
                 n_states=1, rewards=None, transition=None, terminal_after=None,
                 init_dist=None, reward_fn=None, obs_fns=None, meta=None):
        self.name = name
        self.action_space = list(action_space)
        self.n_agents = len(self.action_space)
        self.n_states = int(n_states)
        self.horizon = int(horizon)
        self.gamma = float(_float64("gamma", gamma))
        self.cooperative = bool(cooperative)
        self.zero_sum = bool(zero_sum)
        self.meta = dict(meta or {})
        self.obs_fns = obs_fns
        if self.horizon < 1:
            raise EnvError("horizon must be at least 1")
        if not 0.0 <= self.gamma <= 1.0:    # NaN too
            raise EnvError(f"gamma must be in [0, 1], got {self.gamma}")

        if self.all_discrete():
            shape = (self.n_states,) + tuple(sp.n for sp in self.action_space)
            self.rewards = _float64("rewards", rewards)
            self.transition = _float64("transition", transition)
            for field, table, last in (("rewards", self.rewards, self.n_agents),
                                       ("transition", self.transition, self.n_states)):
                if table.shape != shape + (last,):
                    raise EnvError(f"{field} shape {table.shape}, expected {shape + (last,)}")
                if not np.isfinite(table).all():
                    raise EnvError(f"{field} must be finite")
            if (self.transition < 0).any():
                raise EnvError("transition probabilities must be non-negative")
            rowsums = self.transition.sum(axis=-1)
            if np.abs(rowsums - 1.0).max() > _FLAG_TOL:
                raise EnvError("transition rows must sum to 1")
            if terminal_after is None:
                terminal_after = np.zeros(shape, dtype=bool)
            self.terminal_after = np.asarray(terminal_after, dtype=bool)
            if self.terminal_after.shape != shape:
                raise EnvError(f"terminal_after shape {self.terminal_after.shape}, expected {shape}")
            # the tables with one row per (state, joint action), as step_batch reads them
            self._joint_shape = shape
            self._cdf_rows = _cdf(self.transition).reshape(-1, self.n_states)
            self._reward_rows = self.rewards.reshape(-1, self.n_agents)
            self._terminal_rows = self.terminal_after.reshape(-1)
            self.reward_fn = None
            self._check_flags_discrete()
        else:
            if reward_fn is None:
                raise EnvError("continuous games need reward_fn")
            if self.n_states != 1 or self.horizon != 1:
                raise EnvError("continuous games are single-state, horizon-1")
            self.reward_fn = reward_fn
            self.rewards = self.transition = None
            self.terminal_after = None
            self._check_flags_grid()

        if init_dist is None:
            init_dist = np.zeros(self.n_states)
            init_dist[0] = 1.0
        self.init_dist = _float64("init_dist", init_dist)
        if (self.init_dist.shape != (self.n_states,) or not (self.init_dist >= 0).all()
                or abs(self.init_dist.sum() - 1.0) > _FLAG_TOL):
            raise EnvError("init_dist must be a distribution over states")
        self._init_cdf = _cdf(self.init_dist)

        self.obs_tables = ([np.eye(self.n_states)] * self.n_agents if obs_fns is None else
                           [np.array([f(s) for s in range(self.n_states)], dtype=np.float64)
                            for f in obs_fns])
        for table in self.obs_tables:
            table.setflags(write=False)

    # -- validation ---------------------------------------------------------
    def _check_flags_discrete(self):
        if self.cooperative:
            spread = np.abs(self.rewards - self.rewards[..., :1]).max()
            if spread > _FLAG_TOL:
                raise EnvError("cooperative flag set but agent rewards differ")
        if self.zero_sum:
            if np.abs(self.rewards.sum(axis=-1)).max() > _FLAG_TOL:
                raise EnvError("zero_sum flag set but rewards do not cancel")

    def _check_flags_grid(self):
        grid = np.linspace(-1.0, 1.0, 5)
        joints = np.array(list(itertools.product(grid, repeat=self.n_agents)))
        lo = [sp.lo for sp in self.action_space]
        hi = [sp.hi for sp in self.action_space]
        r = np.asarray(self.reward_fn(np.clip(joints, lo, hi).T), dtype=np.float64)
        if r.shape != (self.n_agents, len(joints)):
            raise EnvError("reward_fn must return one value per agent")
        if self.cooperative and np.abs(r - r[0]).max() > _FLAG_TOL:
            raise EnvError("cooperative flag set but agent rewards differ")
        if self.zero_sum and np.abs(r.sum(axis=0)).max() > _FLAG_TOL:
            raise EnvError("zero_sum flag set but rewards do not cancel")

    def all_discrete(self):
        return all(isinstance(sp, Discrete) for sp in self.action_space)

    # -- episode interface ---------------------------------------------------
    def reset_batch(self, n, rng):
        """Initial state indices of n episodes, one uniform draw each, as _draw makes it."""
        return (self._init_cdf > rng.random((n, 1))).argmax(axis=1)

    def step_batch(self, index, t, actions, rng):
        """Advance n live episodes, all at timestep t, from (n,) state indices
        by (n, n_agents) joint actions; returns (next_index, rewards (n,
        n_agents), done (n,)).  In a discrete game each episode draws one
        uniform, by inverse CDF over its transition row as Generator.choice
        does, so a batch draws what its episodes stepped one by one would."""
        index = np.asarray(index)
        try:
            a = np.asarray(actions)
        except ValueError:
            raise InvalidAction(f"ragged actions {actions!r}")
        if a.dtype.kind not in "iuf" or a.shape != (len(index), self.n_agents):
            raise InvalidAction(f"actions must be numbers of shape ({len(index)}, "
                                f"{self.n_agents}), got {a.dtype} of shape {a.shape}")
        if self.reward_fn is not None:
            a = a.astype(np.float64)
            self._check_actions(a)
            rewards = np.asarray(self.reward_fn(a.T), dtype=np.float64).T
            return np.zeros_like(index), rewards, np.ones(len(index), dtype=bool)
        row = self._joint_row(index, a)
        nxt = _draw(self._cdf_rows[row], rng)
        done = self._terminal_rows[row] | (t + 1 >= self.horizon)
        return nxt, self._reward_rows[row], done

    def _joint_row(self, index, a):
        """Row of each episode's (state, joint action) in the flattened
        tables; ravel_multi_index checks the range of integer actions."""
        if a.dtype.kind == "f":
            self._check_actions(a)
        try:
            return np.ravel_multi_index((index, *a.astype(np.intp, copy=False).T),
                                        self._joint_shape)
        except ValueError:
            self._check_actions(a)
            raise EnvError(f"state index outside [0, {self.n_states})")

    def _check_actions(self, a):
        for i, sp in enumerate(self.action_space):
            col, box = a[:, i], isinstance(sp, Box1D)
            lo, hi = (sp.lo, sp.hi) if box else (0, sp.n - 1)
            ok = (lo <= col) & (col <= hi) & (box | (col == np.floor(col)))
            if np.count_nonzero(ok) != len(col):
                raise InvalidAction(f"action {col[~ok][0]!r} of agent {i} outside {sp!r}")

    # -- encodings -----------------------------------------------------------
    @property
    def state_dim(self):
        return self.n_states

    def obs_dim(self, agent):
        return self.obs_tables[agent].shape[1]

    def reward_vector(self, state_index, joint):
        if not self.all_discrete():
            return np.asarray(self.reward_fn(joint), dtype=np.float64)
        return self.rewards[(int(state_index),) + tuple(joint)]


def enumerate_joint_actions(env):
    """All joint actions in lexicographic order (last agent fastest)."""
    for sp in env.action_space:
        if not isinstance(sp, Discrete):
            raise NonDiscrete(f"cannot enumerate {sp!r}")
    return list(itertools.product(*(range(sp.n) for sp in env.action_space)))


# ---------------------------------------------------------------------------
# induced single-agent MDP under frozen opponents
# ---------------------------------------------------------------------------

class InducedMdp:
    """The MDP one agent faces when every other agent plays a fixed policy.

    kernel[s, a, s'] marginalizes the joint transition over opponent play
    (rows sum to 1); cont_kernel carries only the non-terminating share of
    that mass, which is what value iteration should bootstrap through.
    """

    def __init__(self, base, me, opponents, reward, kernel, cont_kernel):
        self.base = base
        self.me = me
        self.opponents = opponents
        self.reward = reward
        self.kernel = kernel
        self.cont_kernel = cont_kernel
        self.n_states = base.n_states
        self.n_actions = base.action_space[me].n
        self.gamma = base.gamma


def induce_mdp(env, me, opponent_policies):
    """Marginalize a discrete game over fixed opponent policies.

    opponent_policies maps agent index -> array (n_states, n_actions_j);
    the entry for `me` is ignored and may be absent.
    """
    if not env.all_discrete():
        raise NonDiscrete("induced MDPs require discrete action spaces")
    if not 0 <= me < env.n_agents:
        raise EnvError(f"no agent {me}")
    pols = {}
    for j in range(env.n_agents):
        if j == me:
            continue
        pi = np.asarray(opponent_policies[j], dtype=np.float64)
        if pi.shape != (env.n_states, env.action_space[j].n):
            raise EnvError(f"policy for agent {j} has shape {pi.shape}")
        # NaN fails both comparisons
        if not pi.min() >= 0 or not np.abs(pi.sum(axis=-1) - 1.0).max() <= _FLAG_TOL:
            raise EnvError(f"policy for agent {j} is not a distribution")
        pols[j] = pi

    # w[s, a_0, ..., a_n-1, 0]: the opponents' joint probability, each
    # policy broadcast along its agent's axis and multiplied in agent order
    w = np.ones((env.n_states,) + (1,) * (env.n_agents + 1))
    for j, pi in pols.items():
        w = w * np.expand_dims(pi, tuple(i for i in range(1, env.n_agents + 2) if i != 1 + j))
    theirs = tuple(1 + j for j in pols)
    reward = (w[..., 0] * env.rewards[..., me]).sum(axis=theirs)
    kernel = (w * env.transition).sum(axis=theirs)
    cont = (w * np.where(env.terminal_after[..., None], 0.0, env.transition)).sum(axis=theirs)
    return InducedMdp(env, me, pols, reward, kernel, cont)


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

def _matrix_game(name, payoffs, cooperative, zero_sum):
    payoffs = np.asarray(payoffs, dtype=np.float64)
    ks = payoffs.shape[:-1]
    shape = (1,) + ks
    transition = np.ones(shape + (1,))
    terminal = np.ones(shape, dtype=bool)
    return MarkovGame(
        name=name,
        action_space=[Discrete(k) for k in ks],
        horizon=1,
        gamma=1.0,
        cooperative=cooperative,
        zero_sum=zero_sum,
        n_states=1,
        rewards=payoffs[np.newaxis, ...],
        transition=transition,
        terminal_after=terminal,
    )


def matching_pennies():
    r1 = np.array([[1.0, -1.0], [-1.0, 1.0]])
    payoffs = np.stack([r1, -r1], axis=-1)
    return _matrix_game("matching_pennies", payoffs, cooperative=False, zero_sum=True)


def rock_paper_scissors():
    r1 = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])
    payoffs = np.stack([r1, -r1], axis=-1)
    return _matrix_game("rock_paper_scissors", payoffs, cooperative=False, zero_sum=True)


def coop_climb():
    shared = np.array([[11.0, -30.0, 0.0], [-30.0, 7.0, 6.0], [0.0, 0.0, 5.0]])
    payoffs = np.stack([shared, shared], axis=-1)
    return _matrix_game("coop_climb", payoffs, cooperative=True, zero_sum=False)


def two_step_coop():
    # s0: joint (0,0) moves to s1, anything else stays in s0, reward 0 either
    # way; s1: joint (1,1) pays +10 shared, every joint ends the episode.
    rewards = np.zeros((2, 2, 2, 2))
    rewards[1, 1, 1] = [10.0, 10.0]
    transition = np.zeros((2, 2, 2, 2))
    transition[0, :, :, 0] = 1.0
    transition[0, 0, 0] = [0.0, 1.0]
    transition[1, :, :, 1] = 1.0
    terminal = np.zeros((2, 2, 2), dtype=bool)
    terminal[1] = True
    return MarkovGame(
        name="two_step_coop",
        action_space=[Discrete(2), Discrete(2)],
        horizon=2,
        gamma=0.99,
        cooperative=True,
        zero_sum=False,
        n_states=2,
        rewards=rewards,
        transition=transition,
        terminal_after=terminal,
    )


def coop_cts():
    def shared_reward(actions):
        # float_power calls C pow per element, as Python's float ** does; an
        # array ** 2 multiplies instead and differs in the last bit on about
        # 0.1% of inputs, which would change the rewards of recorded runs
        v = -np.float_power(actions[0] + actions[1] - 1.0, 2)
        return np.array([v, v])

    return MarkovGame(
        name="coop_cts",
        action_space=[Box1D(-1.0, 1.0), Box1D(-1.0, 1.0)],
        horizon=1,
        gamma=1.0,
        cooperative=True,
        zero_sum=False,
        n_states=1,
        reward_fn=shared_reward,
    )


def signal_relay():
    # states: 0=(t0,bit0) 1=(t0,bit1) 2=(t1,bit0) 3=(t1,bit1); agent 0 sees
    # the bit, agent 1 sees a constant; at t1 agent 1's action is graded
    # against the bit and the shared reward is 1 on a match.
    rewards = np.zeros((4, 2, 2, 2))
    for bit in (0, 1):
        s = 2 + bit
        rewards[s, :, bit, :] = 1.0
    transition = np.zeros((4, 2, 2, 4))
    transition[0, :, :, 2] = 1.0
    transition[1, :, :, 3] = 1.0
    transition[2, :, :, 2] = 1.0
    transition[3, :, :, 3] = 1.0
    terminal = np.zeros((4, 2, 2), dtype=bool)
    terminal[2] = terminal[3] = True
    bit_of_state = [0, 1, 0, 1]
    obs_fns = [
        lambda s: np.array([float(bit_of_state[s])]),
        lambda s: np.array([0.0]),
    ]
    return MarkovGame(
        name="signal_relay",
        action_space=[Discrete(2), Discrete(2)],
        horizon=2,
        gamma=0.99,
        cooperative=True,
        zero_sum=False,
        n_states=4,
        rewards=rewards,
        transition=transition,
        terminal_after=terminal,
        init_dist=[0.5, 0.5, 0.0, 0.0],
        obs_fns=obs_fns,
        meta={"comm": True, "bit_of_state": bit_of_state, "speaker": 0, "listener": 1},
    )


FIXTURES = {
    "matching_pennies": matching_pennies,
    "coop_climb": coop_climb,
    "coop_cts": coop_cts,
    "two_step_coop": two_step_coop,
    "signal_relay": signal_relay,
    "rock_paper_scissors": rock_paper_scissors,
}


def fixture_by_name(name):
    if name not in FIXTURES:
        raise EnvError(f"unknown fixture {name!r}; have {sorted(FIXTURES)}")
    return FIXTURES[name]()


# ---------------------------------------------------------------------------
# game files
# ---------------------------------------------------------------------------

def game_to_dict(env):
    """Serializable description of a discrete game."""
    if not env.all_discrete():
        raise NonDiscrete(f"{env.name}: continuous games are shipped as named builtins")
    if env.obs_fns is not None:
        raise EnvError(f"{env.name}: per-agent observation maps do not serialize")
    return {
        "name": env.name,
        "n_agents": env.n_agents,
        "actions": [sp.n for sp in env.action_space],
        "states": env.n_states,
        "rewards": env.rewards.tolist(),
        "transition": env.transition.tolist(),
        "flags": {"cooperative": env.cooperative, "zero_sum": env.zero_sum},
        "horizon": env.horizon,
        "gamma": env.gamma,
        "init_dist": env.init_dist.tolist(),
        "terminal_after": env.terminal_after.tolist(),
    }


def game_from_dict(obj):
    """A discrete game from its serialized description; malformed content
    raises EnvError."""
    if not isinstance(obj, dict):
        raise EnvError("a game file must hold a JSON object")
    required = {"n_agents", "actions", "states", "rewards", "transition", "flags", "horizon"}
    missing = required - set(obj)
    if missing:
        raise EnvError(f"game file missing keys {sorted(missing)}")
    actions, flags = obj["actions"], obj["flags"]
    if not isinstance(actions, list):
        raise EnvError("actions must be a list of action counts")
    if not isinstance(flags, dict) or not all(isinstance(v, bool) for v in flags.values()):
        raise EnvError("flags must be an object of true/false values")
    counts = [(obj[k], k) for k in ("n_agents", "states", "horizon")]
    for value, what in counts + [(k, "each action count") for k in actions]:
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise EnvError(f"{what} must be a positive integer, got {value!r}")
    if len(actions) != obj["n_agents"]:
        raise EnvError("actions list length must equal n_agents")
    try:
        return MarkovGame(
            name=obj.get("name", "game"),
            action_space=[Discrete(k) for k in actions],
            horizon=obj["horizon"],
            gamma=obj.get("gamma", 0.99 if obj["horizon"] > 1 else 1.0),
            cooperative=flags.get("cooperative", False),
            zero_sum=flags.get("zero_sum", False),
            n_states=obj["states"],
            rewards=obj["rewards"],
            transition=obj["transition"],
            terminal_after=obj.get("terminal_after"),
            init_dist=obj.get("init_dist"),
        )
    except (TypeError, ValueError) as e:
        raise EnvError(f"malformed game: {e}")


def load_game(path):
    try:
        obj = json.loads(pathlib.Path(path).read_text())
    except ValueError as e:
        raise EnvError(f"{path} is not JSON: {e}")
    return game_from_dict(obj)


def resolve_env(spec_str):
    """A fixture name, or a path to a game file."""
    if spec_str in FIXTURES:
        return FIXTURES[spec_str]()
    p = pathlib.Path(spec_str)
    if p.suffix == ".json" and p.exists():
        return load_game(p)
    raise EnvError(f"cannot resolve environment {spec_str!r}")

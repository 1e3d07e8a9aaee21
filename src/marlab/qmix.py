"""Value factorization for cooperative play: independent Q-learning, additive
decomposition (sum of per-agent utilities), and a state-conditioned monotone
mixing network whose weights come from hypernetworks.

Greedy joint actions are taken per agent on the utility heads; the mixing
network exists so that this decentralized argmax coincides with the argmax
of the mixed joint value.  The learner's inputs are one-hot states, so every
net runs once per state and each batch row reads its state's row: the live
nets on the tape, where a training step's one forward serves both acting and
the update, and the target nets off it, in a table of their value at every
state built at the first update after each target sync.
"""

import numpy as np

from . import ndiff
from .buffer import JointTransition
from .ndiff import (EVAL, AdamState, DenseNet, Graph, adam_step, clip_grad_norm, copy_params,
                    target_graph, value_of)

MODES = ("independent", "vdn", "qmix")
MAX_GRAD_NORM = 10.0


class QmixError(Exception):
    pass


class ModeMismatch(QmixError):
    pass


class NonCooperative(QmixError):
    pass


class MixingNet:
    """Two-layer monotone mixer: q_tot = w2(s) . elu(W1(s) q + b1(s)) + b2(s).

    All multiplicative weights pass through |.|, which keeps every partial derivative of q_tot
    with respect to a utility nonnegative; biases are unconstrained.  Weights are emitted per
    state by dense hypernetworks: b1 and w2, of one shape, by a stack of two.  The mixer itself
    is one `mix` op, which routes each row's utilities through its own (e, n) block W1, the
    hypernets' output at row rows[b] of s if rows is given; s None stands for eye(state_dim).
    """

    def __init__(self, state_dim, n_agents, embed_dim, hyper_hidden, rng):
        self.n_agents = n_agents
        self.embed_dim = embed_dim
        self.nets = [DenseNet([state_dim, hyper_hidden, out], ["relu", "identity"], rng, name)
                     for out, name in ((n_agents * embed_dim, "hyper_w1"),
                                       (embed_dim, ["hyper_b1", "hyper_w2"]), (1, "hyper_b2"))]
        self.hyper_w1, self.hyper_b1w2, self.hyper_b2 = self.nets

    @property
    def params(self):
        return [p for net in self.nets for p in net.params]

    def forward(self, g, q, s, rows=None):
        return g.op("mix", (q, *(net.forward(g, s) for net in self.nets)), rows=rows)


class QmixLearner:
    """Joint TD learner over per-agent utility heads.

    mode "independent": each head bootstraps on its own reward and max.
    mode "vdn": heads are summed into q_tot.
    mode "qmix": heads are mixed by a monotone state-conditioned MixingNet.
    """

    def __init__(self, env, mode, rng, hidden=(32,), embed_dim=8, hyper_hidden=16,
                 gamma=None, lr=5e-3, share_params=False, target_interval=200):
        if mode not in MODES:
            raise ModeMismatch(f"mode must be one of {MODES}, got {mode!r}")
        if not env.all_discrete():
            raise QmixError("utility heads need discrete actions")
        self.env = env
        self.cooperative = env.cooperative
        self.mode = mode
        self.gamma = env.gamma if gamma is None else float(gamma)
        self.target_interval = int(target_interval)
        self.learn_steps = 0
        self.n_agents = env.n_agents
        self.n_actions = [sp.n for sp in env.action_space]
        state_dim = env.state_dim

        if share_params and len(set(self.n_actions)) != 1:
            raise QmixError("shared parameters need identical action counts")
        # one stacked head per run of agents with equal action counts; shared, a stack of one
        cuts = [i for i in range(1, self.n_agents) if self.n_actions[i] != self.n_actions[i - 1]]
        self.runs = [range(a, b) for a, b in zip([0] + cuts, cuts + [self.n_agents])]
        self.heads = [DenseNet([state_dim, *hidden, self.n_actions[run[0]]],
                               ["relu"] * len(hidden) + ["identity"], rng,
                               ["agents_shared"] if share_params else [f"agent{i}" for i in run])
                      for run in self.runs]
        self.mixing = None
        if mode == "qmix":
            self.mixing = MixingNet(state_dim, self.n_agents, embed_dim, hyper_hidden, rng)
        # laid net by net, so the flat vector and its clip norm run agent by agent
        nets = self.heads + (self.mixing.nets if self.mixing else [])
        self.opt = AdamState(sum(([n.params] if n.stacked else n.params for n in nets), []), lr)
        (self.target_value,), self.target = target_graph([self.opt])
        self._targets = None    # the target table, built at the first update after a sync

    def checkpoint_tree(self):
        psi, theta = ([p for net in nets for ps in net.net_params() for p in ps]
                      for nets in (self.heads, self.mixing.nets if self.mixing else []))
        return {"mode": self.mode, "psi": psi, "theta": theta}

    # -- acting ---------------------------------------------------------------
    def forward(self, g):
        """Per run, its heads' (n, n_states, k) utilities at every state, a shared stack of one
        (1, n_states, k), on graph g: a training step's one forward, which act reads and
        td_update extends to the loss."""
        return [net.forward(g, None) for net in self.heads]

    def _per_agent(self, us):
        """Per run, the (n, B, k) utilities of its n agents from its heads' values in us."""
        for u, run in zip(us, self.runs):
            yield u if len(u) == len(run) else np.broadcast_to(u, (len(run),) + u.shape[1:])

    def _rows(self, index, heads=None):
        """Per run, the (n, B, k) utilities of its n agents at a (B,) array of state indices,
        read from heads, a step's forward (see forward), or from the current heads' own."""
        heads = self.forward(EVAL) if heads is None else heads
        return self._per_agent(value_of(u)[:, index] for u in heads)

    def utilities(self, index):
        """Per-agent utility vectors at one state index, from the current heads."""
        return [u for us in self._rows([index]) for u in us[:, 0]]

    def greedy_joint(self, index, heads=None):
        """Per-agent argmax of the current heads, or of heads (see _rows), at an (n,) array of
        state indices: (n, n_agents) joint actions."""
        return np.hstack([u.argmax(axis=2).T for u in self._rows(index, heads)])

    def act(self, index, rng, epsilon, heads=None):
        """Epsilon-greedy joint actions at an (n,) array of state indices, (n, n_agents):
        the greedy joint (of heads, if given), each choice then made uniform with chance
        epsilon, one uniform per choice and one integer per replaced choice, drawn agent by
        agent, row by row."""
        joint = self.greedy_joint(index, heads)
        for i, k in enumerate(self.n_actions):
            for row in range(len(joint)):
                if rng.random() < epsilon:
                    joint[row, i] = rng.integers(k)
        return joint

    # -- mixing ---------------------------------------------------------------
    def mix(self, q_taken, index):
        """Scalar q_tot for given per-agent utilities at one state index."""
        q = np.asarray(q_taken, dtype=np.float64)[np.newaxis, :]
        if q.shape[1] != self.n_agents:
            raise QmixError(f"need {self.n_agents} utilities, got {q.shape[1]}")
        return float(self._mix(EVAL, q, [index])[0, 0])

    def _mix(self, g, q, rows=None):
        """(n, 1) q_tot of the utility columns q at the states rows, or at every state."""
        if self.mode == "independent":
            raise ModeMismatch("independent mode has no joint mixer")
        if self.mode == "vdn":
            return g.sum(q, axis=1)
        return self.mixing.forward(g, q, None, rows)

    # -- learning -------------------------------------------------------------
    def target_table(self):
        """The target nets' bootstrap value at every state, built off the tape once per sync:
        each agent's greedy utility, (n_states, n_agents), or their mixed q_tot, (n_states, 1)."""
        if self._targets is None:
            best = np.hstack([u.max(axis=2).T for u in self._per_agent(self.forward(self.target))])
            self._targets = best if self.mode == "independent" else self._mix(self.target, best)
        return self._targets

    def td_loss(self, g, batch, y, heads=None):
        """The mean squared error of the live nets' taken values, mixed in the joint modes,
        against the TD targets y, on graph g.  The nets run once per state, the heads in heads
        (see forward) if given, and each batch row reads its state's row."""
        heads = self.forward(g) if heads is None else heads
        taken = [g.pick(u, batch.actions[:, run], batch.state) for u, run in zip(heads, self.runs)]
        q_taken = taken[0] if len(taken) == 1 else g.concat(*taken)
        if self.mode != "independent":
            q_taken = self._mix(g, q_taken, batch.state)
        return g.mean(g.square(g.sub(q_taken, g.constant(y))))

    def td_update(self, batch, g=None, heads=None):
        """One optimization step on a stacked batch of joint transitions, its loss built on
        graph g over heads, a step's forward there (see forward), if given; returns the
        pre-step loss."""
        if self.mode != "independent" and not self.cooperative:
            raise NonCooperative(f"{self.mode} needs a shared reward; {self.env.name} has none")
        rewards, done = batch.rewards, batch.done

        target = self.target_table()[batch.next_state]
        if self.mode == "independent":
            y = rewards + self.gamma * (1.0 - done)[:, None] * target
        else:
            y = (rewards[:, 0] + self.gamma * (1.0 - done) * target[:, 0])[:, None]

        g = Graph() if g is None else g
        loss = self.td_loss(g, batch, y, heads)
        self.opt.grad[...] = 0.0
        ndiff.backward(g, loss)
        clip_grad_norm(self.opt.grad, MAX_GRAD_NORM)
        adam_step(self.opt.params, self.opt)

        self.learn_steps += 1
        if self.learn_steps % self.target_interval == 0:
            self.sync_targets()
        return float(loss.value)

    def sync_targets(self):
        copy_params(self.opt.value, self.target_value)
        self._targets = None


def epsilon_at(step, start, end, decay_steps):
    """Linear schedule from start to end over decay_steps."""
    if decay_steps <= 0 or step >= decay_steps:
        return end
    frac = step / decay_steps
    return start + (end - start) * frac


def collect_step(env, act, live, rng, *args):
    """One env step of the live episode (index, t), index a (1,) state index array, by
    act(index, *args)'s (1, n_agents) joint actions.  Returns the transition and the live
    episode after it, a fresh one from reset_batch(1, rng) when this one ended."""
    index, t = live
    joint = act(index, *args)
    nxt, rewards, done = env.step_batch(index, t, joint, rng)
    tr = JointTransition(state=index[0], actions=joint[0], rewards=rewards[0],
                         next_state=nxt[0], done=done[0])
    return tr, ((env.reset_batch(1, rng), 0) if tr.done else (nxt, t + 1))

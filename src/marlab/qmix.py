"""Value factorization for cooperative play: independent Q-learning, additive
decomposition (sum of per-agent utilities), and a state-conditioned monotone
mixing network whose weights come from hypernetworks.

Greedy joint actions are taken per agent on the utility heads; the mixing
network exists so that this decentralized argmax coincides with the argmax
of the mixed joint value.  The learner's inputs are one-hot states, so the TD
targets bootstrap from a table of the target nets' value at every state,
built off the tape at the first update after each target sync.
"""

import numpy as np

from . import ndiff
from .buffer import JointTransition
from .ndiff import (EVAL, AdamState, DenseNet, Graph, adam_step, clip_grad_norm, copy_params,
                    target_graph)

MODES = ("independent", "vdn", "qmix")
MAX_GRAD_NORM = 10.0


class QmixError(Exception):
    pass


class ModeMismatch(QmixError):
    pass


class NonCooperative(QmixError):
    pass


_COOP_TOL = 1e-12


class MixingNet:
    """Two-layer monotone mixer: q_tot = w2(s) . elu(W1(s) q + b1(s)) + b2(s).

    All multiplicative weights pass through |.|, which keeps every partial
    derivative of q_tot with respect to a utility nonnegative; biases are
    unconstrained.  Weights are emitted per state by dense hypernetworks: b1
    and w2, of one shape, by a stack of two.  The mixer itself is one `mix`
    op, which routes each row's utilities through its own (e, n) block W1.
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

    def forward(self, g, q, s):
        return g.op("mix", (q, *(net.forward(g, s) for net in self.nets)))


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
        self.mode = mode
        self.gamma = env.gamma if gamma is None else float(gamma)
        self.target_interval = int(target_interval)
        self.learn_steps = 0
        self.n_agents = env.n_agents
        self.n_actions = [sp.n for sp in env.action_space]
        state_dim = env.state_dim
        self._eye = np.eye(state_dim)

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
    def _head_values(self, g, x):
        """Per run, the (n, B, k) utilities of its n agents at encoded states x, off the tape."""
        for net, run in zip(self.heads, self.runs):
            u = net.forward(g, x)
            yield u if len(u) == len(run) else np.broadcast_to(u, (len(run),) + u.shape[1:])

    def utilities(self, index):
        """Per-agent utility vectors at one state index, from the current heads."""
        return [u for us in self._head_values(EVAL, self._eye[[index]]) for u in us[:, 0]]

    def greedy_joint(self, index):
        """Per-agent argmax of the current heads at an (n,) array of state
        indices: (n, n_agents) joint actions."""
        x = self._eye[np.asarray(index)]
        return np.hstack([u.argmax(axis=2).T for u in self._head_values(EVAL, x)])

    def act(self, index, rng, epsilon):
        """Epsilon-greedy joint actions at an (n,) array of state indices, (n, n_agents):
        the greedy joint, each choice then made uniform with chance epsilon, one uniform
        per choice and one integer per replaced choice, drawn agent by agent, row by row."""
        joint = self.greedy_joint(index)
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
        return float(self._mix(EVAL, q, self._eye[[index]])[0, 0])

    def _mix(self, g, q, s):
        """(n, 1) q_tot of the utility columns q at encoded states s."""
        if self.mode == "independent":
            raise ModeMismatch("independent mode has no joint mixer")
        if self.mode == "vdn":
            return g.sum(q, axis=1)
        return self.mixing.forward(g, q, s)

    # -- learning -------------------------------------------------------------
    def target_table(self):
        """The target nets' bootstrap value at every state, built off the tape once per sync:
        each agent's greedy utility, (n_states, n_agents), or their mixed q_tot, (n_states, 1)."""
        if self._targets is None:
            best = np.hstack([u.max(axis=2).T for u in self._head_values(self.target, self._eye)])
            self._targets = (best if self.mode == "independent"
                             else self._mix(self.target, best, self._eye))
        return self._targets

    def td_loss(self, g, batch, y):
        """The mean squared error of the live nets' taken values, mixed in the joint modes,
        against the TD targets y, on graph g."""
        s_t = g.constant(self._eye[batch.state])
        taken = [g.pick(net.forward(g, s_t), batch.actions[:, run])
                 for net, run in zip(self.heads, self.runs)]
        q_taken = taken[0] if len(taken) == 1 else g.concat(*taken)
        if self.mode != "independent":
            q_taken = self._mix(g, q_taken, s_t)
        return g.mean(g.square(g.sub(q_taken, g.constant(y))))

    def td_update(self, batch):
        """One optimization step on a stacked batch of joint transitions;
        returns the pre-step loss."""
        rewards, done = batch.rewards, batch.done
        if self.mode != "independent":
            spread = np.abs(rewards - rewards[:, :1]).max()
            if spread > _COOP_TOL:
                raise NonCooperative(f"joint modes need a shared reward (spread {spread:.3g})")

        target = self.target_table()[batch.next_state]
        if self.mode == "independent":
            y = rewards + self.gamma * (1.0 - done)[:, None] * target
        else:
            y = (rewards[:, 0] + self.gamma * (1.0 - done) * target[:, 0])[:, None]

        g = Graph()
        loss = self.td_loss(g, batch, y)
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


def collect_step(env, act, live, rng):
    """One env step of the live episode (index, t), index a (1,) state index array, by
    act(index)'s (1, n_agents) joint actions.  Returns the transition and the live
    episode after it, a fresh one from reset_batch(1, rng) when this one ended."""
    index, t = live
    joint = act(index)
    nxt, rewards, done = env.step_batch(index, t, joint, rng)
    tr = JointTransition(state=index[0], actions=joint[0], rewards=rewards[0],
                         next_state=nxt[0], done=done[0])
    return tr, ((env.reset_batch(1, rng), 0) if tr.done else (nxt, t + 1))

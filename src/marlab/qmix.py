"""Value factorization for cooperative play: independent Q-learning, additive
decomposition (sum of per-agent utilities), and a state-conditioned monotone
mixing network whose weights come from hypernetworks.

Greedy joint actions are taken per agent on the utility heads; the mixing
network exists so that this decentralized argmax coincides with the argmax
of the mixed joint value.
"""

import copy

import numpy as np

from . import ndiff
from .buffer import JointTransition
from .ndiff import AdamState, DenseNet, Graph, adam_step, clip_grad_norm, copy_params

MODES = ("independent", "vdn", "qmix")


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
    unconstrained.  Weights are emitted per state by dense hypernetworks.
    """

    def __init__(self, state_dim, n_agents, embed_dim, hyper_hidden, rng):
        self.n_agents = n_agents
        self.embed_dim = embed_dim
        sizes = [state_dim, hyper_hidden]
        self.hyper_w1 = DenseNet(sizes + [n_agents * embed_dim], ["relu", "identity"], rng, "hyper_w1")
        self.hyper_b1 = DenseNet(sizes + [embed_dim], ["relu", "identity"], rng, "hyper_b1")
        self.hyper_w2 = DenseNet(sizes + [embed_dim], ["relu", "identity"], rng, "hyper_w2")
        self.hyper_b2 = DenseNet(sizes + [1], ["relu", "identity"], rng, "hyper_b2")
        # constant routing matrices: tile repeats the agent axis per embedding
        # row, group sums each embedding row back to one column
        self._tile = np.tile(np.eye(n_agents), (1, embed_dim))
        self._group = np.repeat(np.eye(embed_dim), n_agents, axis=0)

    @property
    def nets(self):
        return [self.hyper_w1, self.hyper_b1, self.hyper_w2, self.hyper_b2]

    @property
    def params(self):
        return [p for net in self.nets for p in net.params]

    def forward(self, g, q, s):
        w1 = g.abs(self.hyper_w1.forward(g, s))
        b1 = self.hyper_b1.forward(g, s)
        w2 = g.abs(self.hyper_w2.forward(g, s))
        b2 = self.hyper_b2.forward(g, s)
        tiled = g.matmul(q, g.constant(self._tile))
        hidden = g.elu(g.add(g.matmul(g.mul(w1, tiled), g.constant(self._group)), b1))
        return g.add(g.sum(g.mul(w2, hidden), axis=1), b2)

    def forward_np(self, q, s):
        w1 = np.abs(self.hyper_w1.forward_np(s))
        b1 = self.hyper_b1.forward_np(s)
        w2 = np.abs(self.hyper_w2.forward_np(s))
        b2 = self.hyper_b2.forward_np(s)
        pre = (w1 * (q @ self._tile)) @ self._group + b1
        hidden = ndiff.apply_np("elu", pre)
        return (w2 * hidden).sum(axis=1, keepdims=True) + b2


class QmixLearner:
    """Joint TD learner over per-agent utility heads.

    mode "independent": each head bootstraps on its own reward and max.
    mode "vdn": heads are summed into q_tot.
    mode "qmix": heads are mixed by a monotone state-conditioned MixingNet.
    """

    def __init__(self, env, mode, rng, hidden=(32,), embed_dim=8, hyper_hidden=16,
                 gamma=None, lr=5e-3, share_params=False, target_interval=200,
                 max_grad_norm=10.0):
        if mode not in MODES:
            raise ModeMismatch(f"mode must be one of {MODES}, got {mode!r}")
        if not env.all_discrete():
            raise QmixError("utility heads need discrete actions")
        self.env = env
        self.mode = mode
        self.gamma = env.gamma if gamma is None else float(gamma)
        self.target_interval = int(target_interval)
        self.max_grad_norm = float(max_grad_norm)
        self.share_params = bool(share_params)
        self.learn_steps = 0
        self.n_agents = env.n_agents
        self.n_actions = [sp.n for sp in env.action_space]
        state_dim = env.state_dim
        self._eye = np.eye(state_dim)

        if share_params:
            if len(set(self.n_actions)) != 1:
                raise QmixError("shared parameters need identical action counts")
            net = DenseNet([state_dim, *hidden, self.n_actions[0]],
                           ["relu"] * len(hidden) + ["identity"], rng, "agents_shared")
            self.agent_nets = [net] * self.n_agents
        else:
            self.agent_nets = [
                DenseNet([state_dim, *hidden, k], ["relu"] * len(hidden) + ["identity"],
                         rng, f"agent{i}")
                for i, k in enumerate(self.n_actions)
            ]
        self.mixing = None
        if mode == "qmix":
            self.mixing = MixingNet(state_dim, self.n_agents, embed_dim, hyper_hidden, rng)
        psi, theta = self.named_params()
        live = [p for _, p in psi + theta]
        # one deepcopy memo: a shared head stays shared, and target_params are
        # the target nets' own tensors, laid out like the live ones in self.opt
        self.target_agent_nets, self.target_mixing, target_params = copy.deepcopy(
            (self.agent_nets, self.mixing, live))
        self.opt = AdamState(live, lr=lr)
        self.target_value, _ = ndiff.flatten(target_params)

    def _unique_agent_nets(self, nets):
        return nets[:1] if self.share_params else nets

    def named_params(self):
        psi = [(p.name, p) for net in self._unique_agent_nets(self.agent_nets) for p in net.params]
        theta = [(p.name, p) for p in (self.mixing.params if self.mixing else [])]
        return psi, theta

    # -- acting ---------------------------------------------------------------
    def _encode(self, state):
        index = state.index if hasattr(state, "index") else int(state)
        return self._eye[index]

    def utilities(self, state):
        """Per-agent utility vectors at one state, from the current heads."""
        x = self._encode(state)[np.newaxis, :]
        return [net.forward_np(x)[0] for net in self.agent_nets]

    def greedy_joint(self, index):
        """Per-agent argmax of the current heads at an (n,) array of state
        indices: (n, n_agents) joint actions."""
        x = self._eye[np.asarray(index)]
        return np.stack([net.forward_np(x).argmax(axis=1) for net in self.agent_nets], axis=1)

    def act_epsilon_greedy(self, state, epsilon, rng):
        joint = []
        utils = self.utilities(state)
        for k, u in zip(self.n_actions, utils):
            if rng.random() < epsilon:
                joint.append(int(rng.integers(k)))
            else:
                joint.append(int(np.argmax(u)))
        return tuple(joint)

    # -- mixing ---------------------------------------------------------------
    def mix(self, q_taken, state):
        """Scalar q_tot for given per-agent utilities at one state."""
        q = np.asarray(q_taken, dtype=np.float64)[np.newaxis, :]
        if q.shape[1] != self.n_agents:
            raise QmixError(f"need {self.n_agents} utilities, got {q.shape[1]}")
        s = self._encode(state)[np.newaxis, :]
        return float(self._mix_np(q, s)[0, 0])

    def _mix_np(self, q, s, mixing=None):
        if self.mode == "independent":
            raise ModeMismatch("independent mode has no joint mixer")
        if self.mode == "vdn":
            return q.sum(axis=1, keepdims=True)
        return (mixing or self.mixing).forward_np(q, s)

    def _mix_graph(self, g, q, s_np):
        if self.mode == "vdn":
            return g.sum(q, axis=1)
        return self.mixing.forward(g, q, g.constant(s_np))

    # -- learning -------------------------------------------------------------
    def td_update(self, batch):
        """One optimization step on a stacked batch of joint transitions;
        returns the pre-step loss."""
        rewards, done = batch.rewards, batch.done
        n = len(rewards)
        s_np = self._eye[batch.state]
        s2_np = self._eye[batch.next_state]

        if self.mode != "independent":
            spread = np.abs(rewards - rewards[:, :1]).max()
            if spread > _COOP_TOL:
                raise NonCooperative(f"joint modes need a shared reward (spread {spread:.3g})")

        # targets are pure numpy: greedy per-agent argmax on target heads,
        # then the target mixer on the next state
        target_q = np.empty((n, self.n_agents))
        for i, net in enumerate(self.target_agent_nets):
            tu = net.forward_np(s2_np)
            target_q[:, i] = tu[np.arange(n), tu.argmax(axis=1)]
        if self.mode == "independent":
            y = rewards + self.gamma * (1.0 - done)[:, None] * target_q
        else:
            tot2 = self._mix_np(target_q, s2_np, mixing=self.target_mixing)[:, 0]
            y = (rewards[:, 0] + self.gamma * (1.0 - done) * tot2)[:, None]

        g = Graph()
        s_t = g.constant(s_np)
        taken = [g.pick(net.forward(g, s_t), batch.actions[:, i])
                 for i, net in enumerate(self.agent_nets)]
        q_taken = taken[0] if self.n_agents == 1 else g.concat(*taken)

        if self.mode == "independent":
            err = g.sub(q_taken, g.constant(y))
        else:
            err = g.sub(self._mix_graph(g, q_taken, s_np), g.constant(y))
        loss = g.mean(g.square(err))

        self.opt.grad[...] = 0.0
        ndiff.backward(g, loss)
        clip_grad_norm(self.opt.grad, self.max_grad_norm)
        adam_step(self.opt.params, self.opt)

        self.learn_steps += 1
        if self.learn_steps % self.target_interval == 0:
            self.sync_targets()
        return float(loss.value)

    def sync_targets(self):
        copy_params(self.opt.value, self.target_value)

    # -- serialization --------------------------------------------------------
    def to_checkpoint(self, config_echo=None):
        psi, theta = self.named_params()
        return {
            "mode": self.mode,
            "psi": ndiff.params_to_json(psi),
            "theta": ndiff.params_to_json(theta),
            "config": dict(config_echo or {}),
        }

    def load_checkpoint(self, blob):
        if blob.get("mode") != self.mode:
            raise ModeMismatch(f"checkpoint is {blob.get('mode')!r}, learner is {self.mode!r}")
        psi, theta = self.named_params()
        ndiff.params_from_json(blob["psi"], psi)
        ndiff.params_from_json(blob["theta"], theta)
        self.sync_targets()


def epsilon_at(step, start, end, decay_steps):
    """Linear schedule from start to end over decay_steps."""
    if decay_steps <= 0 or step >= decay_steps:
        return end
    frac = step / decay_steps
    return start + (end - start) * frac


def collect_step(env, learner, state, epsilon, rng, scripted=None):
    """Act epsilon-greedily (optionally overriding some seats with scripted
    policies), step the env, and return (transition, next_state)."""
    joint = list(learner.act_epsilon_greedy(state, epsilon, rng))
    if scripted:
        for seat, policy in scripted.items():
            joint[seat] = int(rng.choice(len(policy[state.index]), p=policy[state.index]))
    nxt, rewards, done = env.step(state, tuple(joint), rng)
    tr = JointTransition(state=state.index, actions=tuple(joint),
                         rewards=tuple(rewards), next_state=nxt.index, done=bool(done))
    return tr, (env.reset(rng) if done else nxt)

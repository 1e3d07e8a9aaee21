"""Learning to communicate on a signalling task.

Two training regimes over the same two-step relay environment: real-valued
messages carried between agents inside one computation graph, so the loss
gradient flows backward through the channel (the differentiable regime), and
a non-differentiable baseline that treats a discrete message as a second
action learned by factored Q-heads.

Messages are pure communication: they are routed between agent inputs and
never enter the environment's transition or reward computations.
"""

import copy
import typing
from dataclasses import dataclass

import numpy as np

from . import ndiff
from .buffer import ReplayBuffer
from .ndiff import AdamState, DenseNet, Graph, adam_step, backward, copy_params

CHANNEL_MODES = ("on", "zeroed")


class DialError(Exception):
    pass


class StaleTrace(DialError):
    pass


def _check_comm_env(env):
    if not env.meta.get("comm"):
        raise DialError(f"{env.name} is not a signalling fixture")
    if not env.all_discrete():
        raise DialError("communication learners need discrete actions")
    if env.horizon < 2:
        raise DialError("need at least two steps for a message to arrive")


class CommAgentCell:
    """One agent's step function: concat(observation, incoming messages, own
    hidden state) -> (action scores, bounded outgoing message, next hidden
    state).  Recurrence is threaded by the caller."""

    def __init__(self, obs_dim, n_actions, msg_dim, hidden_dim, in_msg_dim,
                 net_hidden, rng, name):
        self.n_actions = n_actions
        self.msg_dim = msg_dim
        self.hidden_dim = hidden_dim
        self.in_dim = obs_dim + in_msg_dim + hidden_dim
        out_dim = n_actions + msg_dim + hidden_dim
        self.net = DenseNet([self.in_dim, *net_hidden, out_dim],
                            ["relu"] * len(net_hidden) + ["identity"], rng, name)

    def forward(self, g, obs_t, msg_t, h_t):
        out = self.net.forward(g, g.concat(obs_t, msg_t, h_t))
        a, d = self.n_actions, self.msg_dim
        scores = g.slice(out, 0, a)
        message = g.tanh(g.slice(out, a, a + d))
        hidden = g.tanh(g.slice(out, a + d, a + d + self.hidden_dim))
        return scores, message, hidden


@dataclass
class Unroll:
    """One batched on-policy rollout and its computation graph; `actions` and
    `rewards` hold each step's joint actions and rewards, (horizon, batch,
    n_agents), as one env.step_batch call per timestep returned them."""

    graph: Graph
    actions: np.ndarray
    rewards: np.ndarray
    bits: np.ndarray
    listener_scores: object
    messages: dict
    incoming: dict
    version: int


class DialSystem:
    """All agents' cells plus one optimizer; channel "on" routes each agent's
    message tensor into the other agents' next-step inputs, channel "zeroed"
    replaces every incoming message with a zero constant (the
    no-communication control)."""

    def __init__(self, env, rng, msg_dim=1, hidden_dim=4, net_hidden=(16,),
                 lr=5e-3, channel="on"):
        _check_comm_env(env)
        if channel not in CHANNEL_MODES:
            raise DialError(f"channel must be one of {CHANNEL_MODES}, got {channel!r}")
        self.env = env
        self.channel = channel
        self.msg_dim = msg_dim
        self.hidden_dim = hidden_dim
        self.n_agents = env.n_agents
        in_msg_dim = (self.n_agents - 1) * msg_dim
        self.cells = [
            CommAgentCell(env.obs_dim(i), env.action_space[i].n, msg_dim,
                          hidden_dim, in_msg_dim, net_hidden, rng, f"cell{i}")
            for i in range(self.n_agents)
        ]
        self.opt = AdamState(self.params(), lr=lr)
        self.version = 0

    def params(self):
        return [p for cell in self.cells for p in cell.net.params]

    def _route_graph(self, g, messages_prev, agent, batch):
        """Incoming message tensor for one agent: others' previous messages
        concatenated in agent order, or zeros when the channel is closed."""
        if self.channel == "zeroed" or messages_prev is None:
            width = (self.n_agents - 1) * self.msg_dim
            return g.constant(np.zeros((batch, width)))
        others = [messages_prev[j] for j in range(self.n_agents) if j != agent]
        return others[0] if len(others) == 1 else g.concat(*others)

    def unroll(self, batch_size, rng, bits=None):
        """Play batch_size two-step episodes with greedy actions, building one
        graph across agents and timesteps; messages emitted at t=0 enter the
        other agents' inputs at t=1.  All episodes step together, and every
        signalling episode lasts the horizon."""
        env = self.env
        if bits is None:
            index = env.reset_batch(batch_size, rng)
        else:
            index = np.asarray(bits, dtype=int)
            batch_size = len(index)
        bits_arr = np.asarray(env.meta["bit_of_state"])[index]

        g = Graph()
        h = [g.constant(np.zeros((batch_size, self.hidden_dim)))
             for _ in range(self.n_agents)]
        messages_prev = None
        shape = (env.horizon, batch_size, self.n_agents)
        actions_taken, rewards_got = np.empty(shape, dtype=int), np.empty(shape)
        messages_out = {}
        incoming_by_agent = {}

        for t in range(env.horizon):
            scores_t, msg_t, joint = [], [], []
            for i, cell in enumerate(self.cells):
                obs = g.constant(env.obs_tables[i][index])
                incoming = self._route_graph(g, messages_prev, i, batch_size)
                scores, message, h_next = cell.forward(g, obs, incoming, h[i])
                scores_t.append(scores)
                msg_t.append(message)
                h[i] = h_next
                joint.append(scores.value.argmax(axis=1))
                messages_out[(i, t)] = message
                incoming_by_agent[(i, t)] = incoming
            actions_taken[t] = np.stack(joint, axis=1)
            index, rewards_got[t], _ = env.step_batch(index, t, actions_taken[t], rng)
            messages_prev = msg_t

        return Unroll(graph=g, actions=actions_taken, rewards=rewards_got, bits=bits_arr,
                      listener_scores=scores_t[env.meta["listener"]], messages=messages_out,
                      incoming=incoming_by_agent, version=self.version)

    def loss_tensor(self, unroll):
        """Cross-entropy of the listener's final-step action scores against
        the episode's bit, on the unroll's own graph."""
        g = unroll.graph
        logp = g.log_softmax(unroll.listener_scores)
        return g.neg(g.mean(g.pick(logp, unroll.bits)))

    def update(self, unroll):
        """One optimization step on the unroll's loss; rejects rollouts made
        by older parameters."""
        if unroll.version != self.version:
            raise StaleTrace(f"trace from version {unroll.version}, "
                             f"parameters at {self.version}")
        loss = self.loss_tensor(unroll)
        backward(unroll.graph, loss)
        adam_step(self.opt.params, self.opt)
        self.version += 1
        return float(loss.value)

    def train_step(self, batch_size, rng):
        return self.update(self.unroll(batch_size, rng))

    def evaluate(self, episodes, rng):
        """Greedy accuracy over one unroll of fresh episodes: the fraction in
        which the listener's final action equals the bit."""
        u = self.unroll(episodes, rng)
        return float((u.actions[-1, :, self.env.meta["listener"]] == u.bits).mean())

    def to_checkpoint(self, config_echo=None):
        return {
            "cells": [ndiff.params_to_json([(p.name, p) for p in c.net.params])
                      for c in self.cells],
            "channel": self.channel,
            "config": dict(config_echo or {}),
        }

    def load_checkpoint(self, blob):
        for cell, obj in zip(self.cells, blob["cells"]):
            ndiff.params_from_json(obj, [(p.name, p) for p in cell.net.params])


# ---------------------------------------------------------------------------
# factored-Q baseline with a discrete message alphabet
# ---------------------------------------------------------------------------

class RialTransition(typing.NamedTuple):
    x: np.ndarray
    action: int
    message: int
    reward: float
    x_next: np.ndarray
    done: bool


class FactoredQHead:
    """One trunk, two heads: utilities over environment actions and utilities
    over the message alphabet."""

    def __init__(self, in_dim, n_actions, n_messages, net_hidden, rng, name):
        self.n_actions = n_actions
        self.n_messages = n_messages
        self.net = DenseNet([in_dim, *net_hidden, n_actions + n_messages],
                            ["relu"] * len(net_hidden) + ["identity"], rng, name)

    def values_np(self, x):
        out = self.net.forward_np(x)
        return out[:, :self.n_actions], out[:, self.n_actions:]

    def forward(self, g, x_t):
        out = self.net.forward(g, x_t)
        return (g.slice(out, 0, self.n_actions),
                g.slice(out, self.n_actions, self.n_actions + self.n_messages))


def greedy_factored(qa, qm):
    """Independent argmax per head, per row; equals the joint argmax of
    qa[a] + qm[m] because the sum separates."""
    return qa.argmax(axis=-1), qm.argmax(axis=-1)


class RialSystem:
    """Discrete-message baseline: each agent learns factored Q-heads by TD on
    its own replay of (input, action, message) choices.  An agent's input is
    its observation, the other agents' previous messages one-hot, and its own
    previous message one-hot (needed so its value function can see what it
    signalled)."""

    def __init__(self, env, rng, n_messages=2, net_hidden=(32,), lr=5e-3,
                 gamma=None, target_interval=100,
                 buffer_capacity=5000, batch_size=32):
        _check_comm_env(env)
        self.env = env
        self.n_messages = int(n_messages)
        self.gamma = env.gamma if gamma is None else float(gamma)
        self.batch_size = int(batch_size)
        self.target_interval = int(target_interval)
        self.n_agents = env.n_agents
        m = self.n_messages
        self.in_dims = [env.obs_dim(i) + (self.n_agents - 1) * m + m
                        for i in range(self.n_agents)]
        self.heads = [FactoredQHead(self.in_dims[i], env.action_space[i].n, m,
                                    net_hidden, rng, f"rial{i}")
                      for i in range(self.n_agents)]
        self.targets = copy.deepcopy(self.heads)
        self.opts = [AdamState(h.net.params, lr=lr) for h in self.heads]
        self.target_values = [ndiff.flatten(t.net.params)[0] for t in self.targets]
        self.buffers = [ReplayBuffer(buffer_capacity) for _ in range(self.n_agents)]
        self.learn_steps = 0

    def _input(self, agent, index, prev_msgs):
        """Agent inputs at one state index or an (n,) array of them: the
        observation, the other agents' previous messages one-hot in agent
        order, then its own.  prev_msgs holds per-agent message ints, (...,
        n_agents), or is None at t=0 (all-zero blocks)."""
        m = self.n_messages
        obs = self.env.obs_tables[agent][index]
        if prev_msgs is None:
            blocks = np.zeros(obs.shape[:-1] + (self.n_agents * m,))
        else:
            order = [j for j in range(self.n_agents) if j != agent] + [agent]
            blocks = np.eye(m)[np.asarray(prev_msgs)[..., order]]
            blocks = blocks.reshape(obs.shape[:-1] + (self.n_agents * m,))
        return np.concatenate([obs, blocks], axis=-1)

    def _choose(self, agent, x, epsilon, rng):
        qa, qm = self.heads[agent].values_np(x[np.newaxis, :])
        a = int(rng.integers(len(qa[0]))) if rng.random() < epsilon else int(np.argmax(qa[0]))
        msg = int(rng.integers(len(qm[0]))) if rng.random() < epsilon else int(np.argmax(qm[0]))
        return a, msg

    def play_episode(self, rng, epsilon):
        """One env episode with per-head epsilon-greedy choices; pushes each
        agent's transitions into its replay; returns the final shared reward."""
        env = self.env
        state = env.reset(rng)
        prev_msgs = None
        pending = [None] * self.n_agents
        final_reward = 0.0
        while not state.done:
            xs = [self._input(i, state.index, prev_msgs) for i in range(self.n_agents)]
            choices = [self._choose(i, xs[i], epsilon, rng) for i in range(self.n_agents)]
            actions = tuple(c[0] for c in choices)
            msgs = [c[1] for c in choices]
            nxt, rewards, done = env.step(state, actions, rng)
            for i in range(self.n_agents):
                if pending[i] is not None:
                    px, pa, pm, pr = pending[i]
                    self.buffers[i].push(RialTransition(px, pa, pm, pr, xs[i], False))
                pending[i] = (xs[i], actions[i], msgs[i], float(rewards[i]))
            if done:
                x_terminal = [self._input(i, nxt.index, msgs) for i in range(self.n_agents)]
                for i in range(self.n_agents):
                    px, pa, pm, pr = pending[i]
                    self.buffers[i].push(RialTransition(px, pa, pm, pr, x_terminal[i], True))
                final_reward = float(rewards[0])
            state = nxt
            prev_msgs = msgs
        return final_reward

    def td_update(self, rng):
        """One factored TD step per agent: predicted Qa[a] + Qm[m] regresses
        onto r + gamma (1-done) (max Qa' + max Qm') from the target head."""
        total = 0.0
        for i, head in enumerate(self.heads):
            b = self.buffers[i].sample(self.batch_size, rng)
            qa2, qm2 = self.targets[i].values_np(b.x_next)
            y = b.reward + self.gamma * (1.0 - b.done) * (qa2.max(axis=1) + qm2.max(axis=1))

            g = Graph()
            qa_t, qm_t = head.forward(g, g.constant(b.x))
            taken = g.add(g.pick(qa_t, b.action), g.pick(qm_t, b.message))
            loss = g.mean(g.square(g.sub(taken, g.constant(y[:, None]))))
            backward(g, loss)
            adam_step(self.opts[i].params, self.opts[i])
            total += float(loss.value)
        self.learn_steps += 1
        if self.learn_steps % self.target_interval == 0:
            for opt, target in zip(self.opts, self.target_values):
                copy_params(opt.value, target)
        return total

    def step(self, rng, epsilon):
        """Collect one episode, then learn if the replays have a batch."""
        self.play_episode(rng, epsilon)
        if len(self.buffers[0]) >= self.batch_size:
            return self.td_update(rng)
        return None

    def evaluate(self, episodes, rng):
        """Greedy accuracy over fresh episodes, all stepped together."""
        env = self.env
        index = env.reset_batch(episodes, rng)
        bits = np.asarray(env.meta["bit_of_state"])[index]
        msgs = None
        for t in range(env.horizon):
            choices = [greedy_factored(*self.heads[i].values_np(self._input(i, index, msgs)))
                       for i in range(self.n_agents)]
            actions = np.stack([a for a, _ in choices], axis=1)
            msgs = np.stack([m for _, m in choices], axis=1)
            index, _, _ = env.step_batch(index, t, actions, rng)
        return float((actions[:, env.meta["listener"]] == bits).mean())

    def to_checkpoint(self, config_echo=None):
        return {
            "heads": [ndiff.params_to_json([(p.name, p) for p in h.net.params])
                      for h in self.heads],
            "config": dict(config_echo or {}),
        }

    def load_checkpoint(self, blob):
        for head, tgt, obj in zip(self.heads, self.targets, blob["heads"]):
            ndiff.params_from_json(obj, [(p.name, p) for p in head.net.params])
            ndiff.params_from_json(obj, [(p.name, p) for p in tgt.net.params])

"""Learning to communicate on a signalling task.

Two training regimes over the same two-step relay environment: real-valued
messages carried between agents inside one computation graph, so the loss
gradient flows backward through the channel (the differentiable regime), and
a non-differentiable baseline that treats a discrete message as a second
action learned by factored Q-heads, each input a row of one table.

All agents run as one stack of nets, on (n_agents, batch, width) arrays.
Messages are pure communication: the take op routes them between the agents'
slices, and they never enter the environment's transition or reward.
"""

import typing
from dataclasses import dataclass

import numpy as np

from .ndiff import (EVAL, AdamState, DenseNet, Graph, adam_step, backward, copy_params,
                    target_graph, value_of)

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
    if len({(env.obs_dim(i), env.action_space[i].n) for i in range(env.n_agents)}) > 1:
        raise DialError("one stack of agents needs equal observation widths and action counts")
    if env.horizon < 2:
        raise DialError("need at least two steps for a message to arrive")


class CommAgentCell:
    """The step function of the agents named, one stack of nets: concat(observation,
    incoming messages, own hidden state) -> (action scores, bounded outgoing message,
    next hidden state), each (n, B, .).  The caller threads recurrence."""

    def __init__(self, obs_dim, n_actions, msg_dim, hidden_dim, in_msg_dim,
                 net_hidden, rng, name):
        self.n_actions = n_actions
        self.msg_dim = msg_dim
        self.hidden_dim = hidden_dim
        self.in_dim = obs_dim + in_msg_dim + hidden_dim
        out_dim = n_actions + msg_dim + hidden_dim
        self.net = DenseNet([self.in_dim, *net_hidden, out_dim],
                            ["relu"] * len(net_hidden) + ["identity"], rng, name)

    def forward(self, g, obs_t, msg_t, h_t, last=False):
        """On the last step only the scores are recorded; message and hidden state are None."""
        out = self.net.forward(g, g.concat(obs_t, msg_t, h_t))
        a, d = self.n_actions, self.msg_dim
        scores = g.slice(out, 0, a)
        if last:
            return scores, None, None
        message = g.tanh(g.slice(out, a, a + d))
        hidden = g.tanh(g.slice(out, a + d, a + d + self.hidden_dim))
        return scores, message, hidden


@dataclass
class Unroll:
    """One batched on-policy rollout and the graph it ran on; `actions` and
    `rewards` hold each step's joint actions and rewards, (horizon, batch,
    n_agents), as one env.step_batch call per timestep returned them; `messages`
    and `incoming`, the (n_agents, batch, .) messages sent at every step but the
    last and received at every step."""

    graph: Graph
    actions: np.ndarray
    rewards: np.ndarray
    bits: np.ndarray
    listener_scores: object
    messages: list
    incoming: list
    version: int


class DialSystem:
    """All agents' cells as one stack plus one optimizer; channel "on" routes each agent's
    message through take into the other agents' next-step inputs, channel "zeroed" replaces
    every incoming message with a zero constant (the no-communication control)."""

    def __init__(self, env, rng, msg_dim=1, hidden_dim=4, net_hidden=(16,),
                 lr=5e-3, channel="on"):
        _check_comm_env(env)
        if channel not in CHANNEL_MODES:
            raise DialError(f"channel must be one of {CHANNEL_MODES}, got {channel!r}")
        self.env = env
        self.channel = channel
        self.msg_dim = msg_dim
        self.hidden_dim = hidden_dim
        n = self.n_agents = env.n_agents
        self.cells = CommAgentCell(env.obs_dim(0), env.action_space[0].n, msg_dim, hidden_dim,
                                   (n - 1) * msg_dim, net_hidden, rng,
                                   [f"cell{i}" for i in range(n)])
        # column k: the k-th other agent of each agent, in agent order
        self._others = np.array([[j for j in range(n) if j != i] for i in range(n)]).T
        self._obs = np.stack(env.obs_tables, axis=1)   # (state, agent, obs)
        self._bit_of_state = np.asarray(env.meta["bit_of_state"])
        self.opt = AdamState([self.params()], lr=lr)
        self.version = 0

    def params(self):
        return self.cells.net.params

    def unroll(self, g, batch_size, rng, bits=None):
        """Play batch_size two-step episodes with greedy actions, running
        every agent and timestep on graph g; messages emitted at t=0 enter
        the other agents' inputs at t=1.  All episodes step together, and
        every signalling episode lasts the horizon.  On a Stacked graph each
        copy plays the episodes as episodes of its own, so actions and
        rewards gain the copy axis after the horizon axis."""
        env = self.env
        if bits is None:
            index = env.reset_batch(batch_size, rng)
        else:
            index = np.asarray(bits, dtype=int)
            batch_size = len(index)
        bits_arr = self._bit_of_state[index]

        n = self.n_agents
        h = g.constant(np.zeros((n, batch_size, self.hidden_dim)))
        incoming = g.constant(np.zeros((n, batch_size, (n - 1) * self.msg_dim)))
        actions_taken, rewards_got, messages, incomings = [], [], [], []
        for t in range(env.horizon):
            if t and self.channel == "on":
                parts = [g.take(messages[-1], col) for col in self._others]
                incoming = parts[0] if len(parts) == 1 else g.concat(*parts)
            obs = g.constant(np.swapaxes(self._obs[index], -3, -2))
            scores, message, h = self.cells.forward(g, obs, incoming, h, last=t + 1 == env.horizon)
            messages.append(message)
            incomings.append(incoming)
            joint = np.swapaxes(value_of(scores).argmax(axis=-1), -2, -1)
            episodes = joint.shape[:-1]
            flat = (index if index.shape == episodes else np.broadcast_to(index, episodes)).ravel()
            index, rewards, _ = env.step_batch(flat, t, joint.reshape(-1, n), rng)
            index = index.reshape(episodes)
            actions_taken.append(joint)
            rewards_got.append(rewards.reshape(joint.shape))

        return Unroll(graph=g, actions=np.array(actions_taken), rewards=np.array(rewards_got),
                      bits=bits_arr, listener_scores=g.take(scores, env.meta["listener"]),
                      messages=messages[:-1], incoming=incomings, version=self.version)

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
        return self.update(self.unroll(Graph(), batch_size, rng))

    def evaluate(self, episodes, rng):
        """Greedy accuracy over one unroll of fresh episodes: the fraction in
        which the listener's final action equals the bit."""
        u = self.unroll(EVAL, episodes, rng)
        return float((u.actions[-1, :, self.env.meta["listener"]] == u.bits).mean())

    def checkpoint_tree(self):
        return {"cells": self.cells.net.net_params(), "channel": self.channel}


# ---------------------------------------------------------------------------
# factored-Q baseline with a discrete message alphabet
# ---------------------------------------------------------------------------

class RialTransition(typing.NamedTuple):
    """One env step of every agent, each field (n_agents,): the input-table rows read at
    the step and after it, actions, messages, rewards and done flags."""
    row: np.ndarray
    action: np.ndarray
    message: np.ndarray
    reward: np.ndarray
    row_next: np.ndarray
    done: np.ndarray


class FactoredQHead:
    """One trunk, two heads: utilities over environment actions and utilities
    over the message alphabet; named by a list of names, a stack of them."""

    def __init__(self, in_dim, n_actions, n_messages, net_hidden, rng, name):
        self.n_actions = n_actions
        self.n_messages = n_messages
        self.net = DenseNet([in_dim, *net_hidden, n_actions + n_messages],
                            ["relu"] * len(net_hidden) + ["identity"], rng, name)

    def forward(self, g, x):
        """(action utilities, message utilities) per row of x."""
        out = self.net.forward(g, x)
        return (g.slice(out, 0, self.n_actions),
                g.slice(out, self.n_actions, self.n_actions + self.n_messages))


def greedy_factored(qa, qm):
    """Independent argmax per head, per row; equals the joint argmax of
    qa[a] + qm[m] because the sum separates."""
    return qa.argmax(axis=-1), qm.argmax(axis=-1)


class RialSystem:
    """Discrete-message baseline: each agent learns factored Q-heads by TD on replayed
    (input, action, message) choices.  An agent's input is its observation, the other
    agents' previous messages one-hot, and its own previous message one-hot (needed so
    its value function can see what it signalled), a row of one table (see _row).  The
    heads are one stack, one optimizer and one target; the caller's replay holds every
    agent's records by row, one per env step; one batched episode loop plays and evaluates."""

    def __init__(self, env, rng, n_messages=2, net_hidden=(32,), lr=5e-3,
                 gamma=None, target_interval=100):
        _check_comm_env(env)
        self.env = env
        self.n_messages = int(n_messages)
        self.gamma = env.gamma if gamma is None else float(gamma)
        self.target_interval = int(target_interval)
        n = self.n_agents = env.n_agents
        self.in_dim = env.obs_dim(0) + n * self.n_messages
        self.heads = FactoredQHead(self.in_dim, env.action_space[0].n, self.n_messages,
                                   net_hidden, rng, [f"rial{i}" for i in range(n)])
        self.opt = AdamState([self.heads.net.params], lr=lr)
        (self.target_value,), self.target = target_graph([self.opt])
        self._order = np.array([[j for j in range(n) if j != i] + [i] for i in range(n)])
        self._obs = np.stack(env.obs_tables)   # (agent, state, obs)
        states, msgs = np.arange(env.n_states), np.indices((self.n_messages,) * n).reshape(n, -1).T
        self.table = np.concatenate([self._input(states, None), self._input(
            np.tile(states, len(msgs)), np.repeat(msgs, len(states), axis=0))], axis=1)
        self._radix = env.n_states * self.n_messages ** np.arange(n)[::-1]
        self._targets = None    # the target table, built at the first update after a sync
        self.learn_steps = 0

    def _input(self, index, prev_msgs):
        """(n_agents, ..., in_dim) inputs at one state index or an (n,) array of
        them: each agent's observation, the other agents' previous messages
        one-hot in agent order, then its own.  prev_msgs holds per-agent message
        ints, (..., n_agents), or is None at t=0 (all-zero blocks)."""
        obs = self._obs[:, index]
        if prev_msgs is None:
            blocks = np.zeros(obs.shape[:-1] + (self.n_agents * self.n_messages,))
        else:
            blocks = np.eye(self.n_messages)[np.asarray(prev_msgs)[..., self._order]]
            blocks = blocks.reshape(blocks.shape[:-2] + (-1,)).swapaxes(0, -2)
        return np.concatenate([obs, blocks], axis=-1)

    def _row(self, index, msgs):
        """Each episode's input row, index + n_states * (1 + code) after the (n, n_agents)
        previous messages msgs, code their base-n_messages number, or index at t=0."""
        return index if msgs is None else index + self.env.n_states + msgs @ self._radix

    def rollout(self, episodes, rng, epsilon=None):
        """Play fresh episodes together for the horizon, one step_batch call per step,
        each greedy choice read by row from one forward over the table; given epsilon,
        each is then made uniform with that chance, drawn agent by agent, episode by
        episode, action before message.  Returns the episodes' bits and their
        transitions, one RialTransition whose fields lead with (horizon, episodes)."""
        env = self.env
        index = env.reset_batch(episodes, rng)
        bits = np.asarray(env.meta["bit_of_state"])[index]
        greedy = np.array(greedy_factored(*self.heads.forward(EVAL, self.table)))
        rows, steps, msgs = [], [], None
        for t in range(env.horizon):
            rows.append(self._row(index, msgs))
            choice = greedy[:, :, rows[-1]]    # (head, agent, episode)
            if epsilon is not None:
                for i, e, k in np.ndindex(self.n_agents, episodes, 2):
                    if rng.random() < epsilon:
                        choice[k, i, e] = rng.integers((self.heads.n_actions, self.n_messages)[k])
            actions, msgs = choice.swapaxes(1, 2)
            index, rewards, done = env.step_batch(index, t, actions, rng)
            steps.append((actions, msgs, rewards, done[:, None].repeat(self.n_agents, axis=1)))
        rows = np.array(rows + [self._row(index, msgs)])[..., None].repeat(self.n_agents, axis=2)
        actions, msgs, rewards, done = map(np.array, zip(*steps))
        return bits, RialTransition(rows[:-1], actions, msgs, rewards, rows[1:], done)

    def play_episode(self, rng, epsilon):
        """One epsilon-greedy episode, a rollout of one; returns its records for the
        replay, one RialTransition per env step."""
        _, steps = self.rollout(1, rng, epsilon)
        return [RialTransition._make(field[t, 0] for field in steps)
                for t in range(self.env.horizon)]

    def td_update(self, sample):
        """One factored TD step for every agent on one tape: each head's Qa[a] +
        Qm[m] regresses onto r + gamma (1-done) (max Qa' + max Qm') from its
        target table, on its own batch of replayed records, row i of sample, a
        replay's draw of shape (n_agents, batch) made before any forward; one
        backward, one Adam step.  The root is n_agents times the mean squared
        error; returns the per-agent means' sum, folded agent by agent."""
        own = np.arange(self.n_agents)
        b = RialTransition._make(col[own, :, own] for col in sample)
        y = b.reward + self.gamma * (1.0 - b.done) * self.target_table()[own[:, None], b.row_next]
        g = Graph()
        loss, sq = self.td_loss(g, b, y)
        backward(g, loss)
        adam_step(self.opt.params, self.opt)
        self.learn_steps += 1
        if self.learn_steps % self.target_interval == 0:
            self.sync_targets()
        return float(sum(col.mean() for col in sq.value.T))

    def target_table(self):
        """Target max Qa + max Qm at every table row, (n_agents, rows), built once per sync."""
        if self._targets is None:
            qa, qm = self.heads.forward(self.target, self.table)
            self._targets = qa.max(axis=2) + qm.max(axis=2)
        return self._targets

    def td_loss(self, g, b, y):
        """The root of td_update on graph g, n_agents times the mean squared error of the
        live heads' taken Qa[a] + Qm[m], two picks of one output, against the TD targets
        y, (n_agents, batch), of stacked batch b; and the (batch, n_agents) squared errors."""
        x = self.table[np.arange(self.n_agents)[:, None], b.row]
        out = self.heads.net.forward(g, g.constant(x))
        taken = g.add(g.pick(out, b.action.T), g.pick(out, b.message.T + self.heads.n_actions))
        sq = g.square(g.sub(taken, g.constant(y.T)))
        return g.mul(g.mean(sq), g.constant(float(self.n_agents))), sq

    def sync_targets(self):
        copy_params(self.opt.value, self.target_value)
        self._targets = None

    def evaluate(self, episodes, rng):
        """Greedy accuracy over fresh episodes, all stepped together."""
        bits, steps = self.rollout(episodes, rng)
        return float((steps.action[-1, :, self.env.meta["listener"]] == bits).mean())

    def checkpoint_tree(self):
        return {"heads": self.heads.net.net_params()}

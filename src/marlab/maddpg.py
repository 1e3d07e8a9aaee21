"""Actor-critic learning for mixed games: each agent owns a critic over the
full joint action (trained centrally) and an actor executed from local state.
A learner models its co-actors' policies exactly when it is decentralized, so
its targets and actor updates never see them.  Each update phase is one graph.
"""

import numpy as np

from . import envs
from .envs import Box1D, Discrete
from .ndiff import (EVAL, AdamState, DenseNet, Graph, adam_step, backward, polyak_update,
                    target_graph)

SIGMA_EXPLORE = 0.1


class MaddpgError(Exception):
    pass


class ContinuousOpponent(MaddpgError):
    pass


def _draw(logits, rng):
    """One categorical draw per row of softmax(logits), as Generator.choice picks."""
    return envs._draw(envs._cdf(EVAL.softmax(logits)), rng)


class Actor:
    """Deterministic tanh policy on a box, or categorical softmax policy on a
    finite set, mapping encoded state to an action."""

    def __init__(self, state_dim, space, hidden, rng, name):
        self.space = space
        if isinstance(space, Box1D):
            self.kind = "box"
            self.net = DenseNet([state_dim, *hidden, 1],
                                ["relu"] * len(hidden) + ["tanh"], rng, name)
            self._mid = (space.hi + space.lo) / 2.0
            self._half = (space.hi - space.lo) / 2.0
        elif isinstance(space, Discrete):
            self.kind = "cat"
            self.net = DenseNet([state_dim, *hidden, space.n],
                                ["relu"] * len(hidden) + ["identity"], rng, name)
        else:
            raise MaddpgError(f"unsupported action space {space!r}")

    def forward(self, g, s):
        """Per row, the box action (tanh mean scaled into the space) as an
        (n, 1) column, or the categorical logits."""
        out = self.net.forward(g, s)
        if self.kind == "box":
            return g.add(g.mul(out, g.constant(self._half)), g.constant(self._mid))
        return out

    def greedy_np(self, g, s):
        """Deterministic action per row: tanh mean for boxes, argmax for
        categorical policies."""
        out = self.forward(g, s)
        return out[:, 0] if self.kind == "box" else out.argmax(axis=1)

    def sample_np(self, g, s, rng):
        """Behavior action per row: clipped Gaussian around the mean, or a
        categorical draw."""
        out = self.forward(g, s)
        if self.kind == "box":
            a = out[:, 0] + rng.normal(0.0, SIGMA_EXPLORE, size=len(out))
            return np.clip(a, self.space.lo, self.space.hi)
        return _draw(out, rng)

    def co_action_np(self, g, s, rng):
        """Action per row as co-actors see it: a categorical draw, or the noiseless box action."""
        return self.sample_np(g, s, rng) if self.kind == "cat" else self.greedy_np(g, s)

    def probs_np(self, g, s):
        if self.kind != "cat":
            raise MaddpgError("probabilities exist only for categorical actors")
        return g.softmax(self.forward(g, s))


class MaddpgLearner:
    """Per-agent critics Q_i(s, a_1..a_N) and actors, both run as targets on
    self.target.  A decentralized learner, and no other, holds categorical
    opponent models mu_ij(a_j | s) for every owner i and discrete co-actor j.

    Critic inputs are laid out as (state, a_1, ..., a_N) in agent order; box
    actions enter raw, finite actions one-hot.
    """

    def __init__(self, env, rng, hidden=(64, 64), lr=1e-3, gamma=None, tau=0.01,
                 beta=0.01, decentralized=False):
        self.env = env
        self.n_agents = env.n_agents
        self.gamma = env.gamma if gamma is None else float(gamma)
        self.tau = float(tau)
        self.beta = float(beta)
        self.decentralized = bool(decentralized)
        self.state_dim = env.state_dim
        self._eye = np.eye(self.state_dim)

        self.enc_dims = [1 if isinstance(sp, Box1D) else sp.n for sp in env.action_space]
        critic_in = self.state_dim + sum(self.enc_dims)

        self.actors = [Actor(self.state_dim, sp, hidden, rng, f"actor{i}")
                       for i, sp in enumerate(env.action_space)]
        self.critics = [DenseNet([critic_in, *hidden, 1],
                                 ["relu"] * len(hidden) + ["identity"], rng, f"critic{i}")
                        for i in range(self.n_agents)]

        self.opponent_models = {}
        if self.decentralized:
            for i in range(self.n_agents):
                for j in range(self.n_agents):
                    if j == i:
                        continue
                    sp = env.action_space[j]
                    if not isinstance(sp, Discrete):
                        raise ContinuousOpponent(f"agent {j} has a continuous action space")
                    self.opponent_models[(i, j)] = DenseNet(
                        [self.state_dim, *hidden, sp.n],
                        ["relu"] * len(hidden) + ["identity"], rng, f"mu{i}_{j}")

        self.actor_opts = [AdamState(a.net.params, lr=lr) for a in self.actors]
        self.critic_opts = [AdamState(c.params, lr=lr) for c in self.critics]
        self.model_opts = {key: AdamState(net.params, lr=lr)
                           for key, net in self.opponent_models.items()}
        self.opts = [*self.actor_opts, *self.critic_opts, *self.model_opts.values()]
        # target value vectors of the actors then the critics, in agent order
        self.target_values, self.target = target_graph(self.actor_opts + self.critic_opts)

    # -- plumbing -------------------------------------------------------------
    def _encode_states(self, indices):
        return self._eye[np.asarray(indices, dtype=int)]

    def _encode_action_col(self, i, a):
        """(B,) raw actions of agent i -> (B, enc_dim_i) critic input block."""
        a = np.asarray(a)
        if isinstance(self.env.action_space[i], Box1D):
            return a.reshape(-1, 1).astype(np.float64)
        out = np.zeros((len(a), self.enc_dims[i]))
        out[np.arange(len(a)), a.astype(int)] = 1.0
        return out

    def critic_input(self, s_enc, action_cols):
        return np.concatenate([s_enc] + list(action_cols), axis=1)

    # -- acting ---------------------------------------------------------------
    def act(self, index, rng, explore=True):
        """Joint actions at an (n,) array of state indices, (n, n_agents):
        sampled behavior actions, or greedy ones when explore is False.
        Each actor draws for all n rows at once, in agent order."""
        s = self._encode_states(index)
        return np.stack([actor.sample_np(EVAL, s, rng) if explore else actor.greedy_np(EVAL, s)
                         for actor in self.actors], axis=1)

    def _modelled_action(self, owner, j, s, rng):
        """Agent j's action per row, drawn from owner's model of it."""
        return _draw(self.opponent_models[(owner, j)].forward(EVAL, s), rng)

    def _bootstrap(self, batch, i, s2, a2):
        """Agent i's y = r_i + gamma (1-done) Q'_i(s', a') per row, a' being a2 in agent order."""
        x2 = self.critic_input(s2, [self._encode_action_col(j, a) for j, a in enumerate(a2)])
        q2 = self.critics[i].forward(self.target, x2)[:, 0]
        return batch.rewards[:, i] + self.gamma * (1.0 - batch.done) * q2

    def target_ctde(self, batch, rng):
        """Numpy per-agent targets y_i, (n, n_agents), with a' from the target actors."""
        s2 = self._encode_states(batch.next_state)
        a2 = [actor.co_action_np(self.target, s2, rng) for actor in self.actors]
        return np.stack([self._bootstrap(batch, i, s2, a2) for i in range(self.n_agents)], axis=1)

    def target_decentralized(self, batch, owner, rng):
        """Numpy target for one agent with co-actions drawn from its own
        opponent models instead of the live target actors."""
        s2 = self._encode_states(batch.next_state)
        a2 = [self.actors[j].co_action_np(self.target, s2, rng) if j == owner
              else self._modelled_action(owner, j, s2, rng) for j in range(self.n_agents)]
        return self._bootstrap(batch, owner, s2, a2)

    # -- updates ----------------------------------------------------------
    def critic_update(self, batch, rng):
        """One TD regression step on every critic, on one graph; y bootstraps
        through the target actors, or when decentralized through each owner's
        models, drawn owner by owner first.  Returns the pre-step summed loss."""
        if self.decentralized:
            y = [self.target_decentralized(batch, i, rng) for i in range(self.n_agents)]
        else:
            y = self.target_ctde(batch, rng).T
        cols = [self._encode_action_col(i, batch.actions[:, i]) for i in range(self.n_agents)]
        g = Graph()
        x = g.constant(self.critic_input(self._encode_states(batch.state), cols))
        loss = None
        for critic, y_i in zip(self.critics, y):
            term = g.mean(g.square(g.sub(critic.forward(g, x), g.constant(y_i[:, None]))))
            loss = term if loss is None else g.add(loss, term)
        self._descend(g, loss, self.critic_opts)
        return float(loss.value)

    def _descend(self, g, loss, opts):
        backward(g, loss)
        for opt in opts:
            adam_step(opt.params, opt)
        for opt in self.opts:    # backward also reached nets that did not step
            opt.grad[...] = 0.0

    def actor_update(self, batch, i, rng):
        """One ascent step on agent i's objective; co-actions come from the
        live co-actors (or this agent's opponent models when decentralized).
        Only theta_i moves. Returns the pre-step objective estimate."""
        s = self._encode_states(batch.state)
        actor = self.actors[i]
        cols = {j: self._encode_action_col(j, self._modelled_action(i, j, s, rng)
                                           if self.decentralized
                                           else self.actors[j].co_action_np(EVAL, s, rng))
                for j in range(self.n_agents) if j != i}

        if actor.kind == "box":
            g = Graph()
            s_t = g.constant(s)
            a_i = actor.forward(g, s_t)
            parts = [g.constant(cols[j]) if j != i else a_i for j in range(self.n_agents)]
            q = self.critics[i].forward(g, g.concat(s_t, *parts))
            objective = g.mean(q)
            loss = g.neg(objective)
        else:
            a_i = actor.sample_np(EVAL, s, rng)
            parts = [cols[j] if j != i else self._encode_action_col(i, a_i)
                     for j in range(self.n_agents)]
            q = self.critics[i].forward(EVAL, self.critic_input(s, parts))[:, 0]
            adv = q - q.mean()
            g = Graph()
            logp = g.log_softmax(actor.forward(g, g.constant(s)))
            picked = g.pick(logp, a_i)
            objective_value = float(q.mean())
            loss = g.neg(g.mean(g.mul(picked, g.constant(adv[:, None]))))

        self._descend(g, loss, [self.actor_opts[i]])
        return float(objective.value) if actor.kind == "box" else objective_value

    def opponent_model_update(self, batch):
        """Max-likelihood step of every opponent model, all on one graph, with
        an entropy bonus weighted by beta; returns the batch NLL summed over
        the models in (owner, co-actor) order."""
        if not self.opponent_models:
            raise MaddpgError("a CTDE learner models no opponents")
        g = Graph()
        s_t = g.constant(self._encode_states(batch.state))
        total = None
        nll_value = 0.0
        for (_, j), model in self.opponent_models.items():
            logits = model.forward(g, s_t)
            logp = g.log_softmax(logits)
            nll = g.neg(g.mean(g.pick(logp, batch.actions[:, j])))
            entropy = g.neg(g.mean(g.sum(g.mul(g.softmax(logits), logp), axis=1)))
            term = g.sub(nll, g.mul(g.constant(np.asarray(self.beta)), entropy))
            total = term if total is None else g.add(total, term)
            nll_value += float(nll.value)
        self._descend(g, total, self.model_opts.values())
        return nll_value

    def model_probs(self, owner, j, index):
        s = self._encode_states([index])
        return EVAL.softmax(self.opponent_models[(owner, j)].forward(EVAL, s))[0]

    # -- full step ----------------------------------------------------------
    def learner_step(self, batch, rng):
        """Critics, then actors agent by agent, then (if decentralized) opponent
        models, each critic or model phase one graph and one backward; targets
        then track the live nets by polyak averaging."""
        out = {"critic_loss": self.critic_update(batch, rng),
               "actor_objective": sum(self.actor_update(batch, i, rng)
                                      for i in range(self.n_agents))}
        if self.decentralized:
            out["model_nll"] = self.opponent_model_update(batch)
        self.sync_targets()
        return out

    def sync_targets(self):
        for opt, target in zip(self.actor_opts + self.critic_opts, self.target_values):
            polyak_update(opt.value, target, self.tau)

    def checkpoint_tree(self):
        return {"actors": [a.net.params for a in self.actors],
                "critics": [c.params for c in self.critics],
                "opponent_models": {f"{i}_{j}": net.params
                                    for (i, j), net in self.opponent_models.items()},
                "targets": {"actors": [self.target.tensors(a.net.params) for a in self.actors],
                            "critics": [self.target.tensors(c.params) for c in self.critics]}}

"""Actor-critic learning for mixed games: each agent owns a critic over the
full joint action (trained centrally), an actor executed from local state,
and optionally categorical models of the other agents' policies so that the
critic target can be formed without seeing the co-actors at training time.
"""

import copy

import numpy as np

from . import ndiff
from .envs import Box1D, Discrete
from .ndiff import AdamState, DenseNet, Graph, adam_step, backward, polyak_update

SIGMA_EXPLORE = 0.1


class MaddpgError(Exception):
    pass


class ContinuousOpponent(MaddpgError):
    pass


def _draw(logits, rng):
    """One categorical draw per row of softmax(logits), by inverse CDF."""
    p = ndiff.apply_np("softmax", logits)
    u = rng.random((len(p), 1))
    return (p.cumsum(axis=1) > u).argmax(axis=1)


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

    def greedy_np(self, s):
        """Deterministic action per row: tanh mean for boxes, argmax for
        categorical policies."""
        out = self.net.forward_np(s)
        if self.kind == "box":
            return self._mid + self._half * out[:, 0]
        return out.argmax(axis=1)

    def sample_np(self, s, rng):
        """Behavior action per row: clipped Gaussian around the mean, or a
        categorical draw."""
        out = self.net.forward_np(s)
        if self.kind == "box":
            a = self._mid + self._half * out[:, 0]
            a = a + rng.normal(0.0, SIGMA_EXPLORE, size=a.shape)
            return np.clip(a, self.space.lo, self.space.hi)
        return _draw(out, rng)

    def co_action_np(self, s, rng):
        """Action per row as co-actors see it: a categorical draw, or the noiseless box action."""
        return self.sample_np(s, rng) if self.kind == "cat" else self.greedy_np(s)

    def probs_np(self, s):
        if self.kind != "cat":
            raise MaddpgError("probabilities exist only for categorical actors")
        return ndiff.apply_np("softmax", self.net.forward_np(s))

    def scaled_graph(self, g, s_t):
        """Graph forward for pathwise gradients (box actors only)."""
        if self.kind != "box":
            raise MaddpgError("pathwise actions exist only for box actors")
        out = self.net.forward(g, s_t)
        return g.add(g.mul(out, g.constant(np.asarray(self._half))),
                     g.constant(np.asarray(self._mid)))


class MaddpgLearner:
    """Per-agent critics Q_i(s, a_1..a_N) with target copies, per-agent
    actors, and categorical opponent models mu_ij(a_j | s) for discrete
    co-actors.

    Critic inputs are laid out as (state, a_1, ..., a_N) in agent order; box
    actions enter raw, finite actions one-hot.
    """

    def __init__(self, env, rng, hidden=(64, 64), lr=1e-3, gamma=None, tau=0.01,
                 beta=0.01, decentralized=False, model_opponents=None):
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
        self.target_actors = copy.deepcopy(self.actors)
        self.target_critics = copy.deepcopy(self.critics)

        if model_opponents is None:
            model_opponents = decentralized
        self.opponent_models = {}
        if model_opponents:
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
        # (live, target) value vectors, actors then critics, in agent order
        targets = [ta.net for ta in self.target_actors] + self.target_critics
        self.target_pairs = [(opt.value, ndiff.flatten(net.params)[0])
                             for opt, net in zip(self.actor_opts + self.critic_opts, targets)]

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
        return np.stack([actor.sample_np(s, rng) if explore else actor.greedy_np(s)
                         for actor in self.actors], axis=1)

    def target_ctde(self, batch, rng):
        """Numpy per-agent targets y_i = r_i + gamma (1-done) Q'_i(s', a'),
        with a' from the target actors."""
        s2 = self._encode_states(batch.next_state)
        cols = [self._encode_action_col(i, ta.co_action_np(s2, rng))
                for i, ta in enumerate(self.target_actors)]
        x2 = self.critic_input(s2, cols)
        y = np.empty_like(batch.rewards)
        for i, tc in enumerate(self.target_critics):
            q2 = tc.forward_np(x2)[:, 0]
            y[:, i] = batch.rewards[:, i] + self.gamma * (1.0 - batch.done) * q2
        return y

    def target_decentralized(self, batch, owner, rng):
        """Numpy target for one agent with co-actions drawn from its own
        opponent models instead of the live target actors."""
        s2 = self._encode_states(batch.next_state)
        cols = []
        for j in range(self.n_agents):
            if j == owner:
                aj = self.target_actors[j].co_action_np(s2, rng)
            else:
                if (owner, j) not in self.opponent_models:
                    raise MaddpgError("decentralized target needs opponent models")
                aj = _draw(self.opponent_models[(owner, j)].forward_np(s2), rng)
            cols.append(self._encode_action_col(j, aj))
        x2 = self.critic_input(s2, cols)
        q2 = self.target_critics[owner].forward_np(x2)[:, 0]
        return batch.rewards[:, owner] + self.gamma * (1.0 - batch.done) * q2

    # -- updates ----------------------------------------------------------
    def _critic_loss_graph(self, g, batch, owners, y_cols):
        cols = [self._encode_action_col(i, batch.actions[:, i]) for i in range(self.n_agents)]
        x = g.constant(self.critic_input(self._encode_states(batch.state), cols))
        total = None
        for i in owners:
            err = g.sub(self.critics[i].forward(g, x), g.constant(y_cols[i][:, None]))
            term = g.mean(g.square(err))
            total = term if total is None else g.add(total, term)
        return total

    def critic_update_ctde(self, batch, rng):
        """One TD regression step on every critic against target-actor
        bootstraps; returns the pre-step summed loss."""
        y = self.target_ctde(batch, rng)
        g = Graph()
        loss = self._critic_loss_graph(g, batch, range(self.n_agents),
                                       [y[:, i] for i in range(self.n_agents)])
        self._descend(g, loss, [self.critic_opts[i] for i in range(self.n_agents)])
        return float(loss.value)

    def critic_update_decentralized(self, batch, owner, rng):
        """Same regression for one critic, bootstrapping through the owner's
        opponent models; returns the pre-step loss."""
        y = self.target_decentralized(batch, owner, rng)
        g = Graph()
        loss = self._critic_loss_graph(g, batch, [owner], {owner: y})
        self._descend(g, loss, [self.critic_opts[owner]])
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
        cols = {}
        for j in range(self.n_agents):
            if j == i:
                continue
            if self.decentralized:
                if (i, j) not in self.opponent_models:
                    raise MaddpgError("decentralized actor update needs opponent models")
                aj = _draw(self.opponent_models[(i, j)].forward_np(s), rng)
            else:
                aj = self.actors[j].co_action_np(s, rng)
            cols[j] = self._encode_action_col(j, aj)

        if actor.kind == "box":
            g = Graph()
            s_t = g.constant(s)
            a_i = actor.scaled_graph(g, s_t)
            parts = [g.constant(cols[j]) if j != i else a_i for j in range(self.n_agents)]
            q = self.critics[i].forward(g, g.concat(s_t, *parts))
            objective = g.mean(q)
            loss = g.neg(objective)
        else:
            a_i = actor.sample_np(s, rng)
            parts = [cols[j] if j != i else self._encode_action_col(i, a_i)
                     for j in range(self.n_agents)]
            q = self.critics[i].forward_np(self.critic_input(s, parts))[:, 0]
            adv = q - q.mean()
            g = Graph()
            logp = g.log_softmax(actor.net.forward(g, g.constant(s)))
            picked = g.pick(logp, a_i)
            objective_value = float(q.mean())
            loss = g.neg(g.mean(g.mul(picked, g.constant(adv[:, None]))))

        self._descend(g, loss, [self.actor_opts[i]])
        return float(objective.value) if actor.kind == "box" else objective_value

    def opponent_model_update(self, batch, owner):
        """Max-likelihood step of owner's models of every co-actor, with an
        entropy bonus weighted by beta; returns the batch NLL summed over
        modeled co-actors."""
        if not any(key[0] == owner for key in self.opponent_models):
            raise ContinuousOpponent(f"agent {owner} models no opponents")
        g = Graph()
        s_t = g.constant(self._encode_states(batch.state))
        total = None
        nll_value = 0.0
        opts = []
        for j in range(self.n_agents):
            if (owner, j) not in self.opponent_models:
                continue
            logits = self.opponent_models[(owner, j)].forward(g, s_t)
            logp = g.log_softmax(logits)
            nll = g.neg(g.mean(g.pick(logp, batch.actions[:, j])))
            entropy = g.neg(g.mean(g.sum(g.mul(g.softmax(logits), logp), axis=1)))
            term = g.sub(nll, g.mul(g.constant(np.asarray(self.beta)), entropy))
            total = term if total is None else g.add(total, term)
            nll_value += float(nll.value)
            opts.append(self.model_opts[(owner, j)])
        self._descend(g, total, opts)
        return nll_value

    def model_probs(self, owner, j, state):
        s = self._encode_states([state.index if hasattr(state, "index") else state])
        return ndiff.apply_np("softmax", self.opponent_models[(owner, j)].forward_np(s))[0]

    # -- full step ----------------------------------------------------------
    def learner_step(self, batch, rng):
        """Critics, then actors, then opponent models, agent by agent; targets
        then track the live nets by polyak averaging."""
        out = {}
        if self.decentralized:
            out["critic_loss"] = sum(
                self.critic_update_decentralized(batch, i, rng) for i in range(self.n_agents))
        else:
            out["critic_loss"] = self.critic_update_ctde(batch, rng)
        out["actor_objective"] = sum(
            self.actor_update(batch, i, rng) for i in range(self.n_agents))
        if self.opponent_models:
            out["model_nll"] = sum(
                self.opponent_model_update(batch, i) for i in range(self.n_agents))
        self.sync_targets()
        return out

    def sync_targets(self):
        for live, target in self.target_pairs:
            polyak_update(live, target, self.tau)

    # -- serialization ------------------------------------------------------
    def to_checkpoint(self, config_echo=None):
        def dump(net):
            return ndiff.params_to_json([(p.name, p) for p in net.params])

        return {
            "actors": [dump(a.net) for a in self.actors],
            "critics": [dump(c) for c in self.critics],
            "opponent_models": {f"{i}_{j}": dump(net)
                                for (i, j), net in sorted(self.opponent_models.items())},
            "targets": {
                "actors": [dump(a.net) for a in self.target_actors],
                "critics": [dump(c) for c in self.target_critics],
            },
            "config": dict(config_echo or {}),
        }

    def load_checkpoint(self, blob):
        def load(net, obj):
            ndiff.params_from_json(obj, [(p.name, p) for p in net.params])

        for a, obj in zip(self.actors, blob["actors"]):
            load(a.net, obj)
        for c, obj in zip(self.critics, blob["critics"]):
            load(c, obj)
        for (i, j), net in self.opponent_models.items():
            load(net, blob["opponent_models"][f"{i}_{j}"])
        for a, obj in zip(self.target_actors, blob["targets"]["actors"]):
            load(a.net, obj)
        for c, obj in zip(self.target_critics, blob["targets"]["critics"]):
            load(c, obj)

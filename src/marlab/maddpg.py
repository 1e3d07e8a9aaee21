"""Actor-critic learning for mixed games: each agent owns a critic over the
full joint action (trained centrally) and an actor executed from local state.
A learner models its co-actors' policies exactly when it is decentralized, so
its targets and actor updates never see them.  Each update phase is one graph.
"""

import functools
import itertools

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


def _draw(logits, index, rng):
    """One categorical draw per state index from its row of softmax(logits), as
    Generator.choice picks."""
    return envs._draw(envs._cdf(EVAL.softmax(logits))[index], rng)


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

    def greedy(self, table, index):
        """Deterministic action at each index into forward's rows: the box action or argmax."""
        return table[index, 0] if self.kind == "box" else table.argmax(axis=1)[index]

    def sample(self, table, index, rng):
        """Behavior action at each index into forward's rows: clipped Gaussian around
        the mean, or a categorical draw."""
        if self.kind == "box":
            a = table[index, 0] + rng.normal(0.0, SIGMA_EXPLORE, size=len(index))
            return np.clip(a, self.space.lo, self.space.hi)
        return _draw(table, index, rng)

    def co_action(self, table, index, rng):
        """Action as co-actors see it: a categorical draw, or the noiseless box action."""
        return self.sample(table, index, rng) if self.kind == "cat" else self.greedy(table, index)

    def sample_np(self, g, s, rng):
        return self.sample(self.forward(g, s), np.arange(len(s)), rng)

    def probs_np(self, g, s):
        if self.kind != "cat":
            raise MaddpgError("probabilities exist only for categorical actors")
        return g.softmax(self.forward(g, s))


class MaddpgLearner:
    """Per-agent critics Q_i(s, a_1..a_N), one stack, and actors, both run as targets on
    self.target.  A decentralized learner, and no other, holds categorical opponent
    models mu_ij(a_j | s) for every owner i and co-actor j, a stack per run of
    consecutive (i, j) keys whose co-actors have equal action counts.  Critic inputs are
    laid out as (state, a_1, ..., a_N) in agent order; box actions enter raw, finite
    actions one-hot.  States are one-hot, so a net that reads only the state (an actor,
    live or target, or a model) runs once on every state; a batch row reads its row.
    """

    def __init__(self, env, rng, hidden=(64, 64), lr=1e-3, gamma=None, tau=0.01,
                 beta=0.01, decentralized=False):
        self.env = env
        self.n_agents = n = env.n_agents
        self.gamma = env.gamma if gamma is None else float(gamma)
        self.tau = float(tau)
        self.beta = float(beta)
        self.decentralized = bool(decentralized)
        self.state_dim = env.state_dim
        self._eye = np.eye(self.state_dim)
        self.enc_dims = [1 if isinstance(sp, Box1D) else sp.n for sp in env.action_space]
        acts = ["relu"] * len(hidden) + ["identity"]

        self.actors = [Actor(self.state_dim, sp, hidden, rng, f"actor{i}")
                       for i, sp in enumerate(env.action_space)]
        self.critics = DenseNet([self.state_dim + sum(self.enc_dims), *hidden, 1], acts, rng,
                                [f"critic{i}" for i in range(n)])
        keys = [(i, j) for i in range(n) for j in range(n) if j != i] if self.decentralized else []
        if any(not isinstance(env.action_space[j], Discrete) for _, j in keys):
            raise ContinuousOpponent("an opponent model needs a co-actor with discrete actions")
        self.model_runs = [list(run) for _, run in
                           itertools.groupby(keys, lambda key: self.enc_dims[key[1]])]
        self.opponent_models = [DenseNet([self.state_dim, *hidden, self.enc_dims[run[0][1]]],
                                         acts, rng, [f"mu{i}_{j}" for i, j in run])
                                for run in self.model_runs]

        self.actor_opts = [AdamState(a.net.params, lr=lr) for a in self.actors]
        self.critic_opt = AdamState([self.critics.params], lr=lr)
        self.model_opt = AdamState([net.params for net in self.opponent_models], lr=lr)
        self._critic_views = self.critics.net_params()    # each critic alone, for its actor
        # target value vectors of the actors in agent order, then of the critic stack
        self.target_values, self.target = target_graph(self.actor_opts + [self.critic_opt])

    # -- plumbing -------------------------------------------------------------
    def _encode(self, j, a):
        """(B,) raw actions of agent j as its critic input block: raw on a box, else one-hot."""
        sp = self.env.action_space[j]
        if isinstance(sp, Box1D):
            return np.asarray(a, dtype=np.float64).reshape(-1, 1)
        return np.eye(sp.n)[np.asarray(a).astype(int)]

    def critic_input(self, index, actions):
        """Critic input rows at state indices, given each agent's (B,) raw actions."""
        return np.concatenate([self._eye[index]] + [self._encode(j, a)
                                                    for j, a in enumerate(actions)], axis=1)

    def _model_tables(self):
        """Each opponent model's logits at every state, by (owner, co-actor) key."""
        return {key: table for net, run in zip(self.opponent_models, self.model_runs)
                for key, table in zip(run, net.forward(EVAL, self._eye))}

    # -- acting ---------------------------------------------------------------
    def act(self, index, rng, explore=True):
        """Joint actions at an (n,) array of state indices, (n, n_agents):
        sampled behavior actions, or greedy ones when explore is False.
        Each actor draws for all n rows at once, in agent order."""
        tables = [actor.forward(EVAL, self._eye) for actor in self.actors]
        return np.array([actor.sample(t, index, rng) if explore else actor.greedy(t, index)
                         for actor, t in zip(self.actors, tables)]).T

    def _bootstrap(self, batch, x2):
        """y_i = r_i + gamma (1-done) Q'_i(s', a'), (n_agents, B), from one forward of the
        target critic stack on x2: shared, or each owner's own (n_agents, B, in)."""
        q2 = self.critics.forward(self.target, x2)[:, :, 0]
        return batch.rewards.T + self.gamma * (1.0 - batch.done) * q2

    def target_ctde(self, batch, rng):
        """Numpy per-agent targets y_i, (n, n_agents), with a' from the target actors."""
        tables = [actor.forward(self.target, self._eye) for actor in self.actors]
        a2 = [actor.co_action(t, batch.next_state, rng) for actor, t in zip(self.actors, tables)]
        return self._bootstrap(batch, self.critic_input(batch.next_state, a2)).T

    def _owner_x2(self, batch, owner, rng, models):
        """Owner's critic input at the next states, the others' actions drawn from its models."""
        s2, own = batch.next_state, self.actors[owner]
        a2 = [own.co_action(own.forward(self.target, self._eye), s2, rng) if j == owner
              else _draw(models[(owner, j)], s2, rng) for j in range(self.n_agents)]
        return self.critic_input(s2, a2)

    def target_decentralized(self, batch, owner, rng):
        """Numpy target for one agent with co-actions drawn from its own
        opponent models instead of the live target actors."""
        x2 = self._owner_x2(batch, owner, rng, self._model_tables())
        return self._bootstrap(batch, x2)[owner]

    # -- updates ----------------------------------------------------------
    def critic_loss(self, g, batch, y):
        """The critics' mean squared errors against the targets y, one (B,) row per agent,
        summed in agent order on graph g, from one forward of the stack."""
        x = g.constant(self.critic_input(batch.state, batch.actions.T))
        err = g.square(g.sub(self.critics.forward(g, x), g.constant(y[:, :, None])))
        return functools.reduce(g.add, [g.mean(g.take(err, i)) for i in range(self.n_agents)])

    def critic_update(self, batch, rng):
        """One TD regression step on every critic, on one graph; y bootstraps
        through the target actors, or when decentralized through each owner's
        models, drawn owner by owner first.  Returns the pre-step summed loss."""
        if self.decentralized:
            models = self._model_tables()
            y = self._bootstrap(batch, np.array([self._owner_x2(batch, i, rng, models)
                                                 for i in range(self.n_agents)]))
        else:
            y = self.target_ctde(batch, rng).T
        g = Graph()
        loss = self.critic_loss(g, batch, y)
        self._descend(g, loss, self.critic_opt)
        return float(loss.value)

    def _descend(self, g, loss, opt):
        # opt's params are all that g needs gradients for: an actor reads its critic by views
        backward(g, loss)
        adam_step(opt.params, opt)

    def box_actor_loss(self, g, batch, i, co):
        """Minus critic i's batch mean on graph g: box actor i's action taken per row from
        its table on the tape, the co-actors' raw actions co[j] fixed."""
        a_i = g.take(self.actors[i].forward(g, g.constant(self._eye)), batch.state)
        parts = [a_i if j == i else g.constant(self._encode(j, co[j]))
                 for j in range(self.n_agents)]
        x = g.concat(g.constant(self._eye[batch.state]), *parts)
        return g.neg(g.mean(self.critics.forward(g, x, self._critic_views[i])))

    def cat_actor_loss(self, g, batch, i, a_i, adv):
        """The score-function loss of categorical actor i on graph g: minus the batch mean of
        log pi_i(a_i | s) times the advantages adv, as the log-probabilities at every state
        weighted by the advantages summed per (state, action) over B."""
        k = self.actors[i].space.n
        w = np.bincount(batch.state * k + a_i, adv, self.state_dim * k) / len(adv)
        logp = g.log_softmax(self.actors[i].forward(g, g.constant(self._eye)))
        return g.neg(g.sum(g.mul(logp, g.constant(w.reshape(-1, k)))))

    def actor_update(self, batch, i, rng):
        """One ascent step on agent i's objective; co-actions come from the
        live co-actors (or this agent's opponent models when decentralized).
        Only theta_i moves. Returns the pre-step objective estimate."""
        s, actor = batch.state, self.actors[i]
        models = self._model_tables() if self.decentralized else None
        co = {j: _draw(models[(i, j)], s, rng) if self.decentralized
              else self.actors[j].co_action(self.actors[j].forward(EVAL, self._eye), s, rng)
              for j in range(self.n_agents) if j != i}
        g = Graph()
        if actor.kind == "box":
            loss = self.box_actor_loss(g, batch, i, co)
            objective = -float(loss.value)
        else:
            a_i = actor.sample(actor.forward(EVAL, self._eye), s, rng)
            x = self.critic_input(s, [co.get(j, a_i) for j in range(self.n_agents)])
            q = self.critics.forward(EVAL, x, self._critic_views[i])[:, 0]
            objective = float(q.mean())
            loss = self.cat_actor_loss(g, batch, i, a_i, q - objective)
        self._descend(g, loss, self.actor_opts[i])
        return objective

    def model_loss(self, g, batch):
        """Every opponent model's batch NLL minus beta times its entropy, on graph g: per
        stack, its log-probabilities at every state weighted by the batch's per-(state,
        co-action) counts over B, its entropies by per-state counts over B.  Returns the
        root and each stack's NLL node."""
        s, size, n_s = batch.state, len(batch.state), self.state_dim
        per_state = np.bincount(s, minlength=n_s)[:, None] / size
        total, nlls = None, []
        for net, run in zip(self.opponent_models, self.model_runs):
            k = net.layer_sizes[-1]
            counts = np.array([np.bincount(s * k + batch.actions[:, j], minlength=n_s * k)
                               for _, j in run]).reshape(len(run), n_s, k) / size
            logits = net.forward(g, g.constant(self._eye))
            logp = g.log_softmax(logits)
            nll = g.neg(g.sum(g.mul(logp, g.constant(counts))))
            entropy = g.neg(g.sum(g.mul(g.mul(g.softmax(logits), logp),
                                        g.constant(np.broadcast_to(per_state, counts.shape)))))
            term = g.sub(nll, g.mul(g.constant(np.asarray(self.beta)), entropy))
            total = term if total is None else g.add(total, term)
            nlls.append(nll)
        return total, nlls

    def opponent_model_update(self, batch):
        """Max-likelihood step of every opponent model, all on one graph, with
        an entropy bonus weighted by beta; returns the summed batch NLL."""
        if not self.opponent_models:
            raise MaddpgError("a CTDE learner models no opponents")
        g = Graph()
        total, nlls = self.model_loss(g, batch)
        self._descend(g, total, self.model_opt)
        return sum(float(nll.value) for nll in nlls)

    def model_probs(self, owner, j, index):
        return EVAL.softmax(self._model_tables()[(owner, j)][index])

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
        for opt, target in zip(self.actor_opts + [self.critic_opt], self.target_values):
            polyak_update(opt.value, target, self.tau)

    def checkpoint_tree(self):
        models = {f"{i}_{j}": ps for net, run in zip(self.opponent_models, self.model_runs)
                  for (i, j), ps in zip(run, net.net_params())}
        return {"actors": [a.net.params for a in self.actors],
                "critics": self.critics.net_params(), "opponent_models": models,
                "targets": {"actors": [self.target.tensors(a.net.params) for a in self.actors],
                            "critics": self.critics.net_params(
                                self.target.tensors(self.critics.params))}}

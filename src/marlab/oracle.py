"""Exact solvers for the small games: every learner answer has one of these
to be checked against.  Everything here is enumeration or linear algebra;
nothing is learned."""

import itertools

import numpy as np

from . import envs
from .envs import NonDiscrete, NotZeroSum


class OracleError(Exception):
    pass


class WrongShape(OracleError):
    pass


class NonFinite(OracleError):
    pass


def _payoff_matrix(game, agent=0):
    """agent's payoffs in a 2-player, 1-state discrete game, rows indexed by
    seat 0's action: a view of the game's reward table."""
    if not game.all_discrete():
        raise NonDiscrete("matrix oracles need discrete actions")
    if game.n_agents != 2 or game.n_states != 1:
        raise WrongShape("expected a 2-player, 1-state matrix game")
    return game.rewards[0, ..., agent]


def nash_2x2_zero_sum(game):
    """Equilibrium of a 2x2 zero-sum matrix game.

    Scans the four cells for a pure saddle point first (ties resolved toward
    the lowest indices); otherwise applies the closed-form mixing formula.
    Returns (p1_mix, p2_mix, value) with value from player 1's side.
    """
    r1 = _payoff_matrix(game, 0)
    if not game.zero_sum:
        raise NotZeroSum(f"{game.name} is not flagged zero-sum")
    if r1.shape != (2, 2):
        raise WrongShape(f"payoff matrix is {r1.shape}, need (2, 2)")
    for i, j in itertools.product(range(2), range(2)):
        if r1[i, j] >= r1[:, j].max() and r1[i, j] <= r1[i, :].min():
            p1 = np.eye(2)[i]
            p2 = np.eye(2)[j]
            return p1, p2, float(r1[i, j])
    a, b = r1[0]
    c, d = r1[1]
    denom = a - b - c + d
    p = (d - c) / denom
    q = (d - b) / denom
    value = (a * d - b * c) / denom
    return np.array([p, 1 - p]), np.array([q, 1 - q]), float(value)


def nash_zero_sum_enumerate(game, tol=1e-9):
    """Support enumeration for small zero-sum matrix games.

    Solves the equalization system for every equal-size support pair in
    lexicographic order and returns the first consistent solution.  An
    independent route to the same answers as nash_2x2_zero_sum.
    """
    r1 = _payoff_matrix(game, 0)
    if not game.zero_sum:
        raise NotZeroSum(f"{game.name} is not flagged zero-sum")
    k1, k2 = r1.shape

    def equalize(sub):
        """Mix on sub's columns and value v that pay v against every row of
        sub; the last equation makes the mix sum to one."""
        m = len(sub)
        lhs = np.zeros((m + 1, m + 1))
        lhs[:m, :m] = sub
        lhs[:m, m] = -1.0
        lhs[m, :m] = 1.0
        return np.linalg.solve(lhs, np.eye(m + 1)[m])

    for m in range(1, min(k1, k2) + 1):
        for s1 in itertools.combinations(range(k1), m):
            for s2 in itertools.combinations(range(k2), m):
                sub = r1[np.ix_(s1, s2)]
                try:
                    qv, pv = equalize(sub), equalize(sub.T)
                except np.linalg.LinAlgError:
                    continue
                q_s, v = qv[:m], qv[m]
                p_s, v2 = pv[:m], pv[m]
                if abs(v - v2) > tol or q_s.min() < -tol or p_s.min() < -tol:
                    continue
                p = np.zeros(k1)
                q = np.zeros(k2)
                p[list(s1)] = np.clip(p_s, 0.0, None)
                q[list(s2)] = np.clip(q_s, 0.0, None)
                p /= p.sum()
                q /= q.sum()
                # off-support deviations must not profit
                if (r1 @ q).max() > v + tol:
                    continue
                if (p @ r1).min() < v - tol:
                    continue
                return p, q, float(v)
    raise OracleError("no equilibrium found (should not happen for finite games)")


def best_response_value(game, me, frozen_mix):
    """Best pure reply and its expected payoff against a fixed opponent mix
    in a 2-player matrix game."""
    if me not in (0, 1):
        raise WrongShape(f"no seat {me}")
    mine = _payoff_matrix(game, me)
    if me == 1:
        mine = mine.T     # rows are my actions either way
    mix = np.asarray(frozen_mix, dtype=np.float64)
    k_other = mine.shape[1]
    # NaN fails both comparisons
    if mix.shape != (k_other,) or not mix.min() >= 0 or not abs(mix.sum() - 1.0) <= 1e-9:
        raise WrongShape(f"frozen_mix must be a distribution over {k_other} actions")
    values = (mine * mix).sum(axis=1)
    best = int(np.argmax(values))   # lowest index wins ties
    br = np.zeros(len(values))
    br[best] = 1.0
    return br, float(values[best])


def is_equilibrium(game, mix1, mix2, tol=1e-9):
    """No seat can gain more than tol by deviating from (mix1, mix2)."""
    mix1 = np.asarray(mix1, dtype=np.float64)
    mix2 = np.asarray(mix2, dtype=np.float64)
    _, br0 = best_response_value(game, 0, mix2)
    _, br1 = best_response_value(game, 1, mix1)
    value = (mix1[:, None, None] * mix2[:, None] * game.rewards[0]).sum(axis=(0, 1))
    return br0 <= value[0] + tol and br1 <= value[1] + tol


def joint_argmax(fn, env):
    """Exhaustive maximization of fn over joint actions; ties go to the
    lexicographically first joint."""
    best_joint, best_value = None, None
    for joint in envs.enumerate_joint_actions(env):
        v = float(fn(joint))
        if best_value is None or v > best_value:
            best_joint, best_value = joint, v
    return best_joint, best_value


class TabularQ:
    def __init__(self, q, actions, gamma):
        self.q = q
        self.actions = list(actions)
        self.gamma = gamma

    def greedy(self, s):
        return self.actions[int(np.argmax(self.q[s]))]

    def value(self, s):
        return float(self.q[s].max())

    def q_of(self, s, action):
        return float(self.q[s, self.actions.index(action)])


def tabular_q_iteration(model, gamma=None, tol=1e-10, max_sweeps=100_000):
    """Value iteration on Q until the sup-norm change drops below tol.

    Accepts an InducedMdp, or a cooperative discrete MarkovGame treated as a
    single-agent MDP over joint actions.  Termination mass is absorbed at
    value zero, so successive sweep deltas contract.
    """
    if isinstance(model, envs.InducedMdp):
        reward = model.reward
        cont = model.cont_kernel
        actions = list(range(model.n_actions))
        g = model.gamma if gamma is None else float(gamma)
    elif isinstance(model, envs.MarkovGame):
        if not model.all_discrete():
            raise NonDiscrete("q iteration needs discrete actions")
        if not model.cooperative:
            raise OracleError("joint-action q iteration is defined for cooperative games")
        actions = envs.enumerate_joint_actions(model)
        n_s = model.n_states
        # one row per (state, joint action), joints in the order of `actions`
        reward = model.rewards[..., 0].reshape(n_s, -1)
        cont = np.where(model.terminal_after[..., None], 0.0,
                        model.transition).reshape(n_s, -1, n_s)
        g = model.gamma if gamma is None else float(gamma)
    else:
        raise OracleError(f"cannot run q iteration on {type(model).__name__}")

    if not np.isfinite(reward).all():
        raise NonFinite("rewards must be finite")
    if g >= 1.0 and cont.sum() > 0.0:
        raise NonFinite("gamma >= 1 with non-terminating transitions diverges")

    q = np.zeros_like(reward)
    deltas = []
    for _ in range(max_sweeps):
        v = q.max(axis=-1)
        q_next = reward + g * cont @ v
        delta = float(np.abs(q_next - q).max())
        deltas.append(delta)
        q = q_next
        if delta < tol:
            break
    else:
        raise NonFinite("value iteration did not converge")
    out = TabularQ(q, actions, g)
    out.deltas = deltas
    return out

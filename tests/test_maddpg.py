import numpy as np
import pytest

from marlab import envs
from marlab.buffer import JointTransition
from marlab.maddpg import Actor, ContinuousOpponent, MaddpgLearner
from marlab.ndiff import AdamState, Graph, adam_step, backward, copy_params

from batches import stacked


def cts_learner(seed=0, **kw):
    env = envs.fixture_by_name("coop_cts")
    kw.setdefault("hidden", (16,))
    return MaddpgLearner(env, np.random.default_rng(seed), **kw), env


def disc_learner(env_name="matching_pennies", seed=0, **kw):
    env = envs.fixture_by_name(env_name)
    kw.setdefault("hidden", (16,))
    return MaddpgLearner(env, np.random.default_rng(seed), **kw), env


def cts_batch(env, rng, n, explore=lambda rng: rng.uniform(-1.0, 1.0, size=2)):
    out = []
    for _ in range(n):
        st = env.reset(rng)
        a = tuple(float(x) for x in explore(rng))
        nxt, r, done = env.step(st, a, rng)
        out.append(JointTransition(st.index, a, tuple(r), nxt.index, bool(done)))
    return stacked(out)


def test_box_actor_respects_bounds():
    rng = np.random.default_rng(3)
    actor = Actor(4, envs.Box1D(-0.5, 2.0), (8,), rng, "a")
    s = rng.normal(size=(200, 4))
    greedy = actor.greedy_np(s)
    assert np.all(greedy > -0.5) and np.all(greedy < 2.0)
    sampled = actor.sample_np(s, rng)
    assert np.all(sampled >= -0.5) and np.all(sampled <= 2.0)


def test_categorical_actor_outputs_distributions():
    rng = np.random.default_rng(4)
    actor = Actor(3, envs.Discrete(5), (8,), rng, "a")
    s = rng.normal(size=(50, 3))
    p = actor.probs_np(s)
    assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-9
    assert np.all(p > 0)


def test_critic_input_order_is_not_symmetric():
    learner, _ = disc_learner(seed=9)
    s = np.ones((1, 1))
    x01 = learner.critic_input(s, [np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])])
    x10 = learner.critic_input(s, [np.array([[0.0, 1.0]]), np.array([[1.0, 0.0]])])
    q01 = learner.critics[0].forward_np(x01)[0, 0]
    q10 = learner.critics[0].forward_np(x10)[0, 0]
    assert abs(q01 - q10) > 1e-6


def test_terminal_targets_equal_rewards():
    learner, env = cts_learner(seed=1)
    rng = np.random.default_rng(0)
    batch = cts_batch(env, rng, 16)
    assert batch.done.all()
    y = learner.target_ctde(batch, rng)
    assert np.max(np.abs(y - batch.rewards)) < 1e-12


def test_gamma_zero_targets_equal_rewards():
    learner, env = disc_learner("two_step_coop", seed=2, gamma=0.0)
    rng = np.random.default_rng(1)
    batch = stacked([JointTransition(0, (0, 0), (0.0, 0.0), 1, False),
                     JointTransition(1, (1, 1), (10.0, 10.0), 1, True)])
    y = learner.target_ctde(batch, rng)
    assert np.array_equal(y, np.array([[0.0, 0.0], [10.0, 10.0]]))


def test_constant_critic_leaves_actor_untouched():
    learner, env = cts_learner(seed=5)
    for c in learner.critics:
        for p in c.params:
            p.value[...] = 0.0
        c.biases[-1].value[...] = 3.0
    rng = np.random.default_rng(2)
    batch = cts_batch(env, rng, 8)
    before = [p.value.copy() for p in learner.actors[0].net.params]
    objective = learner.actor_update(batch, 0, rng)
    assert abs(objective - 3.0) < 1e-12
    for p, b in zip(learner.actors[0].net.params, before):
        assert np.array_equal(p.value, b)


def test_actor_update_isolates_other_parameters():
    learner, env = cts_learner(seed=6)
    rng = np.random.default_rng(3)
    batch = cts_batch(env, rng, 8)
    frozen = [p.value.copy() for p in learner.actors[1].net.params]
    frozen += [p.value.copy() for c in learner.critics for p in c.params]
    own_before = [p.value.copy() for p in learner.actors[0].net.params]
    learner.actor_update(batch, 0, rng)
    current = [p.value for p in learner.actors[1].net.params]
    current += [p.value for c in learner.critics for p in c.params]
    for b, c in zip(frozen, current):
        assert np.array_equal(b, c)
    assert any(np.max(np.abs(p.value - b)) > 0
               for p, b in zip(learner.actors[0].net.params, own_before))
    for opt in learner.opts:
        assert np.all(opt.grad == 0.0)


def test_exact_critic_gradient_field_reaches_cooperation():
    # substitute the analytic value -(a1+a2-1)^2 for the critic and run
    # simultaneous pathwise ascent on both tanh actors
    rng = np.random.default_rng(7)
    actors = [Actor(1, envs.Box1D(-1.0, 1.0), (16,), rng, f"a{i}") for i in range(2)]
    opts = [AdamState(a.net.params, lr=5e-3) for a in actors]
    s = np.ones((1, 1))
    for _ in range(2000):
        others = [a.greedy_np(s)[0] for a in actors]
        for i in (0, 1):
            g = Graph()
            a_i = actors[i].scaled_graph(g, g.constant(s))
            off = g.constant(np.asarray(others[1 - i] - 1.0))
            loss = g.mean(g.square(g.add(a_i, off)))
            backward(g, loss)
            adam_step(opts[i].params, opts[i])
    total = actors[0].greedy_np(s)[0] + actors[1].greedy_np(s)[0]
    assert abs(total - 1.0) < 0.05


def test_score_function_ascent_prefers_dominant_action():
    learner, env = disc_learner(seed=8)
    rng = np.random.default_rng(4)
    # supervised fit of critic 0 to Q = 1 when its own action is 1, else 0
    critic = learner.critics[0]
    opt = AdamState(critic.params, lr=1e-2)
    s = np.ones((64, 1))
    for _ in range(500):
        a0 = rng.integers(2, size=64)
        a1 = rng.integers(2, size=64)
        x = learner.critic_input(s, [learner._encode_action_col(0, a0),
                                     learner._encode_action_col(1, a1)])
        g = Graph()
        err = g.sub(critic.forward(g, g.constant(x)),
                    g.constant(a0.astype(np.float64)[:, None]))
        loss = g.mean(g.square(err))
        backward(g, loss)
        adam_step(opt.params, opt)
    probe = learner.critic_input(np.ones((2, 1)),
                                 [np.eye(2)[::-1].copy(), np.ones((2, 2)) * 0.5])
    q_vals = critic.forward_np(probe)[:, 0]
    assert q_vals[0] - q_vals[1] > 0.8

    batch = stacked([JointTransition(0, (0, 0), (0.0, 0.0), 0, True) for _ in range(32)])
    for _ in range(3000):
        learner.actor_update(batch, 0, rng)
    assert learner.actors[0].probs_np(np.ones((1, 1)))[0, 1] > 0.9


def make_model_batches(a1_draw, rng, n=32):
    return stacked([JointTransition(0, (int(rng.integers(2)), int(a1_draw(rng))),
                                    (0.0, 0.0), 0, True) for _ in range(n)])


def test_opponent_model_fits_constant_opponent():
    learner, _ = disc_learner(seed=10, model_opponents=True, beta=0.0)
    rng = np.random.default_rng(5)
    for _ in range(2000):
        learner.opponent_model_update(make_model_batches(lambda r: 0, rng), 0)
    assert learner.model_probs(0, 1, 0)[0] >= 0.95


def test_opponent_model_fits_uniform_opponent():
    learner, _ = disc_learner(seed=11, model_opponents=True)
    rng = np.random.default_rng(6)
    for _ in range(2000):
        learner.opponent_model_update(make_model_batches(lambda r: r.integers(2), rng), 0)
    p = learner.model_probs(0, 1, 0)
    assert 0.45 <= p[0] <= 0.55


def test_large_entropy_weight_pins_model_to_uniform():
    learner, _ = disc_learner(seed=12, model_opponents=True, beta=10.0)
    rng = np.random.default_rng(7)
    for _ in range(2000):
        learner.opponent_model_update(make_model_batches(lambda r: 0, rng), 0)
    p = learner.model_probs(0, 1, 0)
    assert np.max(np.abs(p - 0.5)) < 0.05


def test_opponent_models_stay_distributions_during_training():
    learner, _ = disc_learner(seed=13, model_opponents=True)
    rng = np.random.default_rng(8)
    for _ in range(50):
        learner.opponent_model_update(make_model_batches(lambda r: r.integers(2), rng), 0)
        p = learner.model_probs(0, 1, 0)
        assert abs(p.sum() - 1.0) < 1e-9
        assert np.all(p > 0)


def test_continuous_opponents_cannot_be_modeled():
    env = envs.fixture_by_name("coop_cts")
    with pytest.raises(ContinuousOpponent):
        MaddpgLearner(env, np.random.default_rng(0), hidden=(8,), decentralized=True)


def test_decentralized_target_matches_ctde_with_true_models():
    learner, env = disc_learner("two_step_coop", seed=14, model_opponents=True)
    # target_pairs lists the actors' (live, target) vectors first, in agent order
    copy_params(learner.target_pairs[1][1], learner.model_opts[(0, 1)].value)
    rng = np.random.default_rng(9)
    batch = stacked([JointTransition(0, (0, 1), (0.0, 0.0), 1, False) for _ in range(10000)])
    y_ctde = learner.target_ctde(batch, rng)[:, 0]
    y_dec = learner.target_decentralized(batch, 0, rng)
    assert abs(y_ctde.mean() - y_dec.mean()) < 0.02


def test_ctde_critic_regression_converges_on_fixed_batch():
    learner, env = cts_learner(seed=15, lr=1e-2)
    rng = np.random.default_rng(10)
    batch = cts_batch(env, rng, 32)
    first = learner.critic_update_ctde(batch, rng)
    for _ in range(500):
        last = learner.critic_update_ctde(batch, rng)
    assert last < first * 0.05


def test_learner_step_moves_targets_by_polyak():
    learner, env = cts_learner(seed=16, tau=0.5)
    rng = np.random.default_rng(11)
    batch = cts_batch(env, rng, 16)
    live_before = learner.actors[0].net.params[0].value.copy()
    tgt_before = learner.target_actors[0].net.params[0].value.copy()
    assert np.array_equal(live_before, tgt_before)
    out = learner.learner_step(batch, rng)
    assert set(out) == {"critic_loss", "actor_objective"}
    live, tgt = learner.actors[0].net.params[0].value, learner.target_actors[0].net.params[0].value
    assert np.max(np.abs(tgt - (0.5 * live + 0.5 * live_before))) < 1e-12


def test_live_vector_moves_reach_targets_only_on_sync():
    learner, _ = disc_learner("two_step_coop", seed=19, tau=0.25, decentralized=True)
    before = [target.copy() for _, target in learner.target_pairs]
    for opt in learner.opts:
        opt.value += 1.0
    for (_, target), kept in zip(learner.target_pairs, before):
        assert np.array_equal(target, kept)
    learner.sync_targets()
    for (live, target), kept in zip(learner.target_pairs, before):
        assert np.max(np.abs(target - (0.75 * kept + 0.25 * live))) < 1e-12
    assert learner.target_critics[1].weights[0].value.base is learner.target_pairs[-1][1]


def test_act_explores_inside_box_and_greedy_is_deterministic():
    learner, env = cts_learner(seed=17)
    rng = np.random.default_rng(12)
    st = env.reset(rng)
    for _ in range(100):
        a = learner.act([st.index], rng, explore=True)[0]
        assert all(-1.0 <= x <= 1.0 for x in a)
    g1 = learner.act([st.index], rng, explore=False)
    g2 = learner.act([st.index], rng, explore=False)
    assert np.array_equal(g1, g2)


def test_checkpoint_roundtrip_restores_behavior():
    learner, env = disc_learner(seed=18, model_opponents=True)
    rng = np.random.default_rng(13)
    blob = learner.to_checkpoint({"algo": "maddpg_ctde"})
    p_before = learner.actors[0].probs_np(np.ones((1, 1))).copy()
    for opt in learner.opts:
        opt.value += 0.25
    learner.load_checkpoint(blob)
    assert np.array_equal(learner.actors[0].probs_np(np.ones((1, 1))), p_before)
    assert blob["config"]["algo"] == "maddpg_ctde"

import numpy as np
import pytest

from marlab import cli, envs, maddpg
from marlab.buffer import JointTransition
from marlab.maddpg import Actor, ContinuousOpponent, MaddpgError, MaddpgLearner
from marlab.ndiff import (EVAL, AdamState, DenseNet, Graph, adam_step, backward, grad_check,
                          tree_from_json, tree_to_json)

from batches import stacked
from calls import count_calls


def cts_learner(seed=0, **kw):
    env = envs.fixture_by_name("coop_cts")
    kw.setdefault("hidden", (16,))
    return MaddpgLearner(env, np.random.default_rng(seed), **kw), env


def disc_learner(env_name="matching_pennies", seed=0, **kw):
    env = envs.fixture_by_name(env_name)
    kw.setdefault("hidden", (16,))
    return MaddpgLearner(env, np.random.default_rng(seed), **kw), env


def optimizers(learner):
    return [*learner.actor_opts, learner.critic_opt, learner.model_opt]


def cts_batch(env, rng, n, explore=lambda rng: rng.uniform(-1.0, 1.0, size=2)):
    out = []
    for _ in range(n):
        index = env.reset_batch(1, rng)
        a = tuple(float(x) for x in explore(rng))
        nxt, r, done = env.step_batch(index, 0, [a], rng)
        out.append(JointTransition(index[0], a, tuple(r[0]), nxt[0], bool(done[0])))
    return stacked(out)


def test_box_actor_respects_bounds():
    rng = np.random.default_rng(3)
    actor = Actor(4, envs.Box1D(-0.5, 2.0), (8,), rng, "a")
    s = rng.normal(size=(200, 4))
    greedy = actor.greedy(actor.forward(EVAL, s), np.arange(200))
    assert np.all(greedy > -0.5) and np.all(greedy < 2.0)
    sampled = actor.sample_np(EVAL, s, rng)
    assert np.all(sampled >= -0.5) and np.all(sampled <= 2.0)


def test_categorical_actor_outputs_distributions():
    rng = np.random.default_rng(4)
    actor = Actor(3, envs.Discrete(5), (8,), rng, "a")
    s = rng.normal(size=(50, 3))
    p = actor.probs_np(EVAL, s)
    assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-9
    assert np.all(p > 0)


def test_categorical_draw_reaches_the_last_action():
    # ten equal logits: the unnormalized cumsum ends at 0.9999999999999999, so
    # a uniform just below 1 once found no entry above it and drew action 0
    class TopUniform:
        def random(self, size):
            return np.full(size, np.nextafter(1.0, 0.0))

    assert maddpg._draw(np.zeros((1, 10)), np.array([0]), TopUniform()).tolist() == [9]


def test_critic_input_order_is_not_symmetric():
    learner, _ = disc_learner(seed=9)
    s = np.array([0])
    x01 = learner.critic_input(s, [np.array([0]), np.array([1])])
    x10 = learner.critic_input(s, [np.array([1]), np.array([0])])
    q01 = learner.critics.forward(EVAL, x01)[0, 0, 0]
    q10 = learner.critics.forward(EVAL, x10)[0, 0, 0]
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
    for p in learner.critics.params:
        p.value[...] = 0.0
    learner.critics.biases[-1].value[...] = 3.0
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
    frozen += [p.value.copy() for p in learner.critics.params]
    own_before = [p.value.copy() for p in learner.actors[0].net.params]
    learner.actor_update(batch, 0, rng)
    current = [p.value for p in learner.actors[1].net.params]
    current += [p.value for p in learner.critics.params]
    for b, c in zip(frozen, current):
        assert np.array_equal(b, c)
    assert any(np.max(np.abs(p.value - b)) > 0
               for p, b in zip(learner.actors[0].net.params, own_before))
    for opt in optimizers(learner):
        assert np.all(opt.grad == 0.0)


def test_exact_critic_gradient_field_reaches_cooperation():
    # substitute the analytic value -(a1+a2-1)^2 for the critic and run
    # simultaneous pathwise ascent on both tanh actors
    rng = np.random.default_rng(7)
    actors = [Actor(1, envs.Box1D(-1.0, 1.0), (16,), rng, f"a{i}") for i in range(2)]
    opts = [AdamState(a.net.params, lr=5e-3) for a in actors]
    s = np.ones((1, 1))
    for _ in range(2000):
        others = [a.forward(EVAL, s)[0, 0] for a in actors]
        for i in (0, 1):
            g = Graph()
            a_i = actors[i].forward(g, g.constant(s))
            off = g.constant(np.asarray(others[1 - i] - 1.0))
            loss = g.mean(g.square(g.add(a_i, off)))
            backward(g, loss)
            adam_step(opts[i].params, opts[i])
    total = actors[0].forward(EVAL, s)[0, 0] + actors[1].forward(EVAL, s)[0, 0]
    assert abs(total - 1.0) < 0.05


def test_score_function_ascent_prefers_dominant_action():
    learner, env = disc_learner(seed=8)
    rng = np.random.default_rng(4)
    # supervised fit of critic 0 to Q = 1 when its own action is 1, else 0
    critic, opt = learner.critics, learner.critic_opt
    opt.lr = 1e-2
    for _ in range(500):
        a0 = rng.integers(2, size=64)
        a1 = rng.integers(2, size=64)
        x = learner.critic_input(np.zeros(64, dtype=int), [a0, a1])
        g = Graph()
        err = g.sub(g.take(critic.forward(g, g.constant(x)), 0),
                    g.constant(a0.astype(np.float64)[:, None]))
        loss = g.mean(g.square(err))
        backward(g, loss)
        adam_step(opt.params, opt)
    # (state, own action 1 or 0 one-hot, the co-actor's action half and half)
    probe = np.array([[1.0, 0.0, 1.0, 0.5, 0.5], [1.0, 1.0, 0.0, 0.5, 0.5]])
    q_vals = critic.forward(EVAL, probe)[0, :, 0]
    assert q_vals[0] - q_vals[1] > 0.8

    batch = stacked([JointTransition(0, (0, 0), (0.0, 0.0), 0, True) for _ in range(32)])
    for _ in range(3000):
        learner.actor_update(batch, 0, rng)
    assert learner.actors[0].probs_np(EVAL, np.ones((1, 1)))[0, 1] > 0.9


def make_model_batches(a1_draw, rng, n=32):
    return stacked([JointTransition(0, (int(rng.integers(2)), int(a1_draw(rng))),
                                    (0.0, 0.0), 0, True) for _ in range(n)])


def test_opponent_model_fits_constant_opponent():
    learner, _ = disc_learner(seed=10, decentralized=True, beta=0.0)
    rng = np.random.default_rng(5)
    for _ in range(2000):
        learner.opponent_model_update(make_model_batches(lambda r: 0, rng))
    assert learner.model_probs(0, 1, 0)[0] >= 0.95


def test_opponent_model_fits_uniform_opponent():
    learner, _ = disc_learner(seed=11, decentralized=True)
    rng = np.random.default_rng(6)
    for _ in range(2000):
        learner.opponent_model_update(make_model_batches(lambda r: r.integers(2), rng))
    p = learner.model_probs(0, 1, 0)
    assert 0.45 <= p[0] <= 0.55


def test_large_entropy_weight_pins_model_to_uniform():
    learner, _ = disc_learner(seed=12, decentralized=True, beta=10.0)
    rng = np.random.default_rng(7)
    for _ in range(2000):
        learner.opponent_model_update(make_model_batches(lambda r: 0, rng))
    p = learner.model_probs(0, 1, 0)
    assert np.max(np.abs(p - 0.5)) < 0.05


def test_opponent_models_stay_distributions_during_training():
    learner, _ = disc_learner(seed=13, decentralized=True)
    rng = np.random.default_rng(8)
    for _ in range(50):
        learner.opponent_model_update(make_model_batches(lambda r: r.integers(2), rng))
        p = learner.model_probs(0, 1, 0)
        assert abs(p.sum() - 1.0) < 1e-9
        assert np.all(p > 0)


def test_continuous_opponents_cannot_be_modeled():
    env = envs.fixture_by_name("coop_cts")
    with pytest.raises(ContinuousOpponent):
        MaddpgLearner(env, np.random.default_rng(0), hidden=(8,), decentralized=True)


def test_decentralized_target_matches_ctde_with_true_models():
    learner, env = disc_learner("two_step_coop", seed=14, decentralized=True)
    # owner 0's model of agent 1 becomes agent 1's target actor: the first model of the stack
    assert learner.model_runs == [[(0, 1), (1, 0)]]
    target = learner.target.tensors(learner.actors[1].net.params)
    for view, p in zip(learner.opponent_models[0].net_params()[0], target):
        view.value[...] = p.value
    rng = np.random.default_rng(9)
    batch = stacked([JointTransition(0, (0, 1), (0.0, 0.0), 1, False) for _ in range(10000)])
    y_ctde = learner.target_ctde(batch, rng)[:, 0]
    y_dec = learner.target_decentralized(batch, 0, rng)
    assert abs(y_ctde.mean() - y_dec.mean()) < 0.02


def three_agent_game():
    """A random cooperative game over two states for three discrete agents of
    2, 3 and 2 actions."""
    shape = (2, 2, 3, 2)
    rewards = np.random.default_rng(0).normal(size=shape + (1,))
    return envs.MarkovGame(
        name="coop3", action_space=[envs.Discrete(k) for k in shape[1:]], horizon=2,
        gamma=0.9, cooperative=True, zero_sum=False, n_states=2,
        rewards=np.repeat(rewards, 3, axis=-1), transition=np.full(shape + (2,), 0.5),
        terminal_after=np.zeros(shape, dtype=bool))


def random_batch(env, rng, n=32):
    return stacked([JointTransition(int(rng.integers(env.n_states)),
                                    tuple(int(rng.integers(sp.n)) for sp in env.action_space),
                                    tuple(rng.normal(size=env.n_agents)),
                                    int(rng.integers(env.n_states)), bool(rng.integers(2)))
                    for _ in range(n)])


def lone_nets(stack):
    """Each net of a stack as a lone DenseNet holding a copy of its values, and the
    stack's views that a lone net's values are written back to."""
    views = stack.net_params()
    nets = [DenseNet(stack.layer_sizes, stack.activations, np.random.default_rng(0), name)
            for name in stack.names]
    for net, ps in zip(nets, views):
        for p, view in zip(net.params, ps):
            p.value[...] = view.value
    return nets, views


def table_model_term(g, net, batch, j, beta, n_states):
    """One lone opponent model's NLL of co-actor j's batch actions minus beta times its
    entropy, from its log-probabilities at every state weighted by the batch's counts."""
    s, size, k = batch.state, len(batch.state), net.layer_sizes[-1]
    counts = np.bincount(s * k + batch.actions[:, j], minlength=n_states * k)
    per_state = np.bincount(s, minlength=n_states)[:, None] / size
    logits = net.forward(g, g.constant(np.eye(n_states)))
    logp = g.log_softmax(logits)
    nll = g.neg(g.sum(g.mul(logp, g.constant(counts.reshape(-1, k) / size))))
    entropy = g.neg(g.sum(g.mul(g.mul(g.softmax(logits), logp),
                                g.constant(np.broadcast_to(per_state, logits.shape)))))
    return g.sub(nll, g.mul(g.constant(np.asarray(beta)), entropy)), nll


def per_owner_updates(learner, critics, models, batch, rng):
    """The decentralized critic and opponent-model steps built one graph per owner, on
    lone nets (critics[i] and models[(i, j)], each a lone net with its own AdamState):
    owner i draws its targets, its critic steps, then the next owner draws; then owner
    by owner, one graph of its models of the co-actors, in the table form.  The models'
    new values are written back to learner's stacks, which draw the next targets.
    Returns the summed critic loss and the NLL summed owner by owner."""
    n = learner.n_agents
    x = learner.critic_input(batch.state, batch.actions.T)
    critic_loss = 0.0
    for i, (net, opt) in enumerate(critics):
        y = learner.target_decentralized(batch, i, rng)
        g = Graph()
        loss = g.mean(g.square(g.sub(net.forward(g, g.constant(x)), g.constant(y[:, None]))))
        backward(g, loss)
        adam_step(opt.params, opt)
        critic_loss += float(loss.value)
    model_nll = 0.0
    for i in range(n):
        g = Graph()
        total, owner_nll = None, 0.0
        co_actors = [j for j in range(n) if j != i]
        for j in co_actors:
            term, nll = table_model_term(g, models[(i, j)][0], batch, j, learner.beta,
                                         learner.state_dim)
            total = term if total is None else g.add(total, term)
            owner_nll += float(nll.value)
        backward(g, total)
        for j in co_actors:
            net, opt, views = models[(i, j)]
            adam_step(opt.params, opt)
            for p, view in zip(net.params, views):
                view.value[...] = p.value
        model_nll += owner_nll
    return critic_loss, model_nll


def test_decentralized_updates_equal_per_owner_graphs():
    env = three_agent_game()
    merged, ref = (MaddpgLearner(env, np.random.default_rng(20), hidden=(16,),
                                 decentralized=True) for _ in range(2))
    # models of co-actors with 3, 2, 2, 2, 2 and 3 actions: stacks of one, four and one
    assert [len(run) for run in merged.model_runs] == [1, 4, 1]
    critics = [(net, AdamState(net.params, lr=1e-3)) for net in lone_nets(ref.critics)[0]]
    models = {}
    for net, run in zip(ref.opponent_models, ref.model_runs):
        for key, lone, views in zip(run, *lone_nets(net)):
            models[key] = (lone, AdamState(lone.params, lr=1e-3), views)
    start = [merged.critic_opt.value.copy(), merged.model_opt.value.copy()]
    rng_merged, rng_ref = np.random.default_rng(21), np.random.default_rng(21)
    for step in range(3):
        batch = random_batch(env, np.random.default_rng(22 + step))
        loss = merged.critic_update(batch, rng_merged)
        nll = merged.opponent_model_update(batch)
        ref_loss, ref_nll = per_owner_updates(ref, critics, models, batch, rng_ref)
        assert loss == ref_loss
        # sums over stacks against per-owner subtotals: the last bits may move
        assert np.allclose(nll, ref_nll, rtol=1e-14, atol=0.0)
        assert rng_merged.bit_generator.state == rng_ref.bit_generator.state
    lone = [np.concatenate([opt.value for _, opt in critics]),
            np.concatenate([models[key][1].value for run in ref.model_runs for key in run])]
    for opt, ref_value, kept in zip([merged.critic_opt, merged.model_opt], lone, start):
        assert np.array_equal(opt.value, ref_value)
        assert not np.array_equal(opt.value, kept)
    for opt in optimizers(merged):
        assert np.all(opt.grad == 0.0)


@pytest.mark.parametrize("decentralized,passes", [(False, 3), (True, 4)])
def test_learner_step_runs_one_backward_per_update_phase(monkeypatch, decentralized, passes):
    learner, env = disc_learner("two_step_coop", seed=21, decentralized=decentralized)
    batch = random_batch(env, np.random.default_rng(23))
    calls = count_calls(monkeypatch, maddpg, ["backward"])
    learner.learner_step(batch, np.random.default_rng(24))
    assert calls == {"backward": passes}


def test_ctde_learner_has_no_opponent_models_to_update():
    learner, env = disc_learner("two_step_coop", seed=22)
    assert learner.opponent_models == [] and learner.model_opt.params == []
    with pytest.raises(MaddpgError, match="models no opponents"):
        learner.opponent_model_update(random_batch(env, np.random.default_rng(25)))


def test_ctde_critic_regression_converges_on_fixed_batch():
    learner, env = cts_learner(seed=15, lr=1e-2)
    rng = np.random.default_rng(10)
    batch = cts_batch(env, rng, 32)
    first = learner.critic_update(batch, rng)
    for _ in range(500):
        last = learner.critic_update(batch, rng)
    assert last < first * 0.05


def test_learner_step_moves_targets_by_polyak():
    learner, env = cts_learner(seed=16, tau=0.5)
    rng = np.random.default_rng(11)
    batch = cts_batch(env, rng, 16)
    w = learner.actors[0].net.params[0]
    live_before = w.value.copy()
    tgt_before = learner.target.reads[w].copy()
    assert np.array_equal(live_before, tgt_before)
    out = learner.learner_step(batch, rng)
    assert set(out) == {"critic_loss", "actor_objective"}
    live, tgt = w.value, learner.target.reads[w]
    assert np.max(np.abs(tgt - (0.5 * live + 0.5 * live_before))) < 1e-12


def test_live_vector_moves_reach_targets_only_on_sync():
    learner, _ = disc_learner("two_step_coop", seed=19, tau=0.25, decentralized=True)
    before = [target.copy() for target in learner.target_values]
    for opt in optimizers(learner):
        opt.value += 1.0
    for target, kept in zip(learner.target_values, before):
        assert np.array_equal(target, kept)
    learner.sync_targets()
    tracked = learner.actor_opts + [learner.critic_opt]
    for opt, target, kept in zip(tracked, learner.target_values, before):
        assert np.max(np.abs(target - (0.75 * kept + 0.25 * opt.value))) < 1e-12
    assert learner.target.reads[learner.critics.weights[0]].base is learner.target_values[-1]


def test_act_explores_inside_box_and_greedy_is_deterministic():
    learner, env = cts_learner(seed=17)
    rng = np.random.default_rng(12)
    index = env.reset_batch(1, rng)
    for _ in range(100):
        a = learner.act(index, rng, explore=True)[0]
        assert all(-1.0 <= x <= 1.0 for x in a)
    g1 = learner.act(index, rng, explore=False)
    g2 = learner.act(index, rng, explore=False)
    assert np.array_equal(g1, g2)


def test_checkpoint_roundtrip_restores_behavior():
    learner, env = disc_learner(seed=18, decentralized=True)
    rng = np.random.default_rng(13)
    blob = tree_to_json(learner.checkpoint_tree())
    p_before = learner.actors[0].probs_np(EVAL, np.ones((1, 1))).copy()
    saved = [v.copy() for v in [opt.value for opt in optimizers(learner)] + learner.target_values]
    for v in [opt.value for opt in optimizers(learner)] + learner.target_values:
        v += 0.25
    tree_from_json(blob, learner.checkpoint_tree())
    assert np.array_equal(learner.actors[0].probs_np(EVAL, np.ones((1, 1))), p_before)
    # the critic and model stacks load through views of their slices, targets too
    for v, kept in zip([opt.value for opt in optimizers(learner)] + learner.target_values, saved):
        assert np.array_equal(v, kept)
    assert set(blob["opponent_models"]) == {"0_1", "1_0"}


def random_case(name, seed, hidden, size):
    """A learner on the named game, decentralized when its actions are discrete, with every
    parameter, biases too, drawn away from zero (at zero biases one-hot inputs put relu
    inputs at the kink), and a random batch of the given size."""
    rng = np.random.default_rng(seed)
    env = three_agent_game() if name == "coop3" else envs.fixture_by_name(name)
    learner = MaddpgLearner(env, rng, hidden=hidden, decentralized=env.all_discrete())
    for opt in optimizers(learner):
        opt.value[...] = rng.choice([-1.0, 1.0], size=opt.value.shape) \
            * rng.uniform(0.2, 1.0, size=opt.value.shape)
    batch = random_batch(env, rng, size) if env.all_discrete() else cts_batch(env, rng, size)
    return learner, batch, rng


@pytest.mark.parametrize("name", ["coop_cts", "two_step_coop", "coop3"])
def test_update_losses_gradients_match_finite_differences(name):
    learner, batch, rng = random_case(name, 31, (6,), 8)
    n, size = learner.n_agents, len(batch.done)
    critic = learner.critic_opt.params
    y = rng.normal(size=(n, size))
    errs = [grad_check(lambda g: learner.critic_loss(g, batch, y), critic)]
    for i, actor in enumerate(learner.actors):
        if actor.kind == "box":
            co = {j: rng.normal(size=size) for j in range(n) if j != i}
            loss = lambda g: learner.box_actor_loss(g, batch, i, co)
        else:
            a_i, adv = rng.integers(actor.space.n, size=size), rng.normal(size=size)
            loss = lambda g: learner.cat_actor_loss(g, batch, i, a_i, adv)
        errs.append(grad_check(loss, actor.net.params))
    if learner.decentralized:
        errs.append(grad_check(lambda g: learner.model_loss(g, batch)[0], learner.model_opt.params))
    assert len(errs) == 1 + n + learner.decentralized
    assert max(errs) < cli.GRADCHECK_TOL, errs


# -- tables against batch rows ------------------------------------------------------
# Each net that reads only the state runs once on every state, and a batch row reads its
# state's row.  The batch-row forms below run the same nets on every row's one-hot state.

def _grads(params, g, root):
    for p in params:
        p.grad[...] = 0.0
    backward(g, root)
    out = [p.grad.copy() for p in params]
    for p in params:
        p.grad[...] = 0.0
    return out


def _assert_close(a, b):
    assert np.allclose(a, b, rtol=1e-12, atol=1e-15), np.max(np.abs(np.subtract(a, b)))


@pytest.mark.parametrize("name", ["coop_cts", "two_step_coop", "coop3"])
def test_actor_tables_give_the_batch_rows_greedy_and_sampled_actions(name):
    learner, batch, _ = random_case(name, 41, (8,), 48)
    index, rows = batch.state, learner._eye[batch.state]
    for graph in (EVAL, learner.target):
        for actor in learner.actors:
            table, per_row = actor.forward(graph, learner._eye), actor.forward(graph, rows)
            _assert_close(table[index], per_row)
            greedy, ref = actor.greedy(table, index), actor.greedy(per_row, np.arange(len(index)))
            if actor.kind == "box":
                _assert_close(greedy, ref)
            else:
                assert np.array_equal(greedy, ref)
    got, ref = np.random.default_rng(3), np.random.default_rng(3)
    sampled = learner.act(index, got)
    expect = np.stack([actor.sample_np(EVAL, rows, ref) for actor in learner.actors], axis=1)
    _assert_close(sampled, expect)
    assert got.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("name", ["two_step_coop", "coop3"])
def test_model_tables_give_the_batch_rows_draws_loss_and_gradients(name):
    learner, batch, _ = random_case(name, 41, (8,), 48)
    rows, params = learner._eye[batch.state], learner.model_opt.params
    tables = learner._model_tables()
    got, ref = np.random.default_rng(4), np.random.default_rng(4)
    g_ref, total, nll_ref = Graph(), None, 0.0
    for net, run in zip(learner.opponent_models, learner.model_runs):
        per_row = net.forward(EVAL, rows)
        for key, logits in zip(run, per_row):
            _assert_close(tables[key][batch.state], logits)
            draws = maddpg._draw(tables[key], batch.state, got)
            assert np.array_equal(draws, maddpg._draw(logits, np.arange(len(logits)), ref))
        # the loss as the batch rows give it: per model, mean NLL and mean entropy over rows
        stack = net.forward(g_ref, g_ref.constant(rows))
        for m, (_, j) in enumerate(run):
            logits = g_ref.take(stack, m)
            logp = g_ref.log_softmax(logits)
            nll = g_ref.neg(g_ref.mean(g_ref.pick(logp, batch.actions[:, j])))
            entropy = g_ref.neg(g_ref.mean(g_ref.sum(g_ref.mul(g_ref.softmax(logits), logp),
                                                     axis=1)))
            term = g_ref.sub(nll, g_ref.mul(g_ref.constant(np.asarray(learner.beta)), entropy))
            total = term if total is None else g_ref.add(total, term)
            nll_ref += float(nll.value)
    assert got.bit_generator.state == ref.bit_generator.state
    g = Graph()
    root, nlls = learner.model_loss(g, batch)
    _assert_close(root.value, total.value)
    _assert_close(sum(float(nll.value) for nll in nlls), nll_ref)
    for a, b in zip(_grads(params, g, root), _grads(params, g_ref, total)):
        _assert_close(a, b)


@pytest.mark.parametrize("name", ["coop_cts", "two_step_coop", "coop3"])
def test_actor_losses_from_tables_equal_the_batch_rows_losses_and_gradients(name):
    learner, batch, _ = random_case(name, 41, (8,), 48)
    rng = np.random.default_rng(5)
    s, size, n = batch.state, len(batch.state), learner.n_agents
    for i, actor in enumerate(learner.actors):
        g, g_ref, params = Graph(), Graph(), actor.net.params
        per_row = actor.forward(g_ref, g_ref.constant(learner._eye[s]))
        if actor.kind == "box":
            co = {j: rng.uniform(-1.0, 1.0, size=size) for j in range(n) if j != i}
            root = learner.box_actor_loss(g, batch, i, co)
            parts = [per_row if j == i else g_ref.constant(co[j][:, None]) for j in range(n)]
            x = g_ref.concat(g_ref.constant(learner._eye[s]), *parts)
            q = learner.critics.forward(g_ref, x, learner.critics.net_params()[i])
            ref = g_ref.neg(g_ref.mean(q))
        else:
            a_i, adv = rng.integers(actor.space.n, size=size), rng.normal(size=size)
            root = learner.cat_actor_loss(g, batch, i, a_i, adv)
            picked = g_ref.pick(g_ref.log_softmax(per_row), a_i)
            ref = g_ref.neg(g_ref.mean(g_ref.mul(picked, g_ref.constant(adv[:, None]))))
        _assert_close(root.value, ref.value)
        for a, b in zip(_grads(params, g, root), _grads(params, g_ref, ref)):
            _assert_close(a, b)

import ast
import functools
import inspect
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marlab import cli, envs, ndiff, oracle, qmix
from marlab.buffer import JointTransition, ReplayBuffer
from marlab.maddpg import MaddpgLearner
from marlab.ndiff import EVAL, DenseNet, Graph, backward, grad_check, param
from marlab.qmix import (
    MODES,
    MixingNet,
    ModeMismatch,
    NonCooperative,
    QmixError,
    QmixLearner,
    collect_step,
    epsilon_at,
)

from batches import stacked
from calls import count_calls


def make(mode, env_name="two_step_coop", seed=0, **kw):
    env = envs.fixture_by_name(env_name)
    return QmixLearner(env, mode, np.random.default_rng(seed), **kw), env


def zero_all(learner):
    for p in learner.opt.params:
        p.value[...] = 0.0
    learner.sync_targets()


def three_agent_coop(rng, arities=(2, 3, 2), n_states=1):
    """Random shared-reward table game with three agents, of mixed arity by default."""
    shape = (n_states, *arities)
    base = rng.normal(size=shape)
    rewards = np.repeat(base[..., np.newaxis], 3, axis=-1)
    transition = np.full(shape + (n_states,), 1.0 / n_states)
    return envs.MarkovGame(
        name="coop3", action_space=[envs.Discrete(k) for k in shape[1:]],
        horizon=1, gamma=1.0, cooperative=True, zero_sum=False,
        n_states=n_states, rewards=rewards, transition=transition,
        terminal_after=np.ones(shape, dtype=bool),
    )


def test_unknown_mode_rejected():
    with pytest.raises(ModeMismatch):
        make("qmi")


def test_continuous_actions_rejected():
    env = envs.fixture_by_name("coop_cts")
    with pytest.raises(QmixError):
        QmixLearner(env, "vdn", np.random.default_rng(0))


def test_vdn_mix_is_plain_sum():
    learner, _ = make("vdn")
    assert learner.mix([0.5, -0.25], 0) == 0.25
    assert learner.mix([3.0, 4.0], 1) == 7.0


def test_independent_mode_has_no_mixer():
    learner, _ = make("independent")
    with pytest.raises(ModeMismatch):
        learner.mix([0.0, 0.0], 0)


def test_identity_hypernet_reproduces_vdn_on_nonnegative_utilities():
    learner, env = make("qmix", seed=3)
    mixing = learner.mixing
    for net in mixing.nets:
        for p in net.params:
            p.value[...] = 0.0
    n, e = mixing.n_agents, mixing.embed_dim
    w1_bias = np.zeros(n * e)
    w1_bias[:n] = 1.0
    mixing.hyper_w1.biases[-1].value[...] = w1_bias
    w2_bias = np.zeros(e)
    w2_bias[0] = 1.0
    mixing.hyper_b1w2.biases[-1].value[1] = w2_bias    # the stack's second net emits w2

    vdn, _ = make("vdn")
    rng = np.random.default_rng(7)
    for _ in range(20):
        q = rng.uniform(0.0, 5.0, size=2)
        for s in range(env.n_states):
            assert abs(learner.mix(q, s) - vdn.mix(q, s)) < 1e-12


def test_batched_mixer_matches_per_sample_loop():
    learner, env = make("qmix", seed=11)
    mixing = learner.mixing
    rng = np.random.default_rng(5)
    b = 17
    q = rng.normal(size=(b, 2))
    s = np.eye(env.n_states)[rng.integers(env.n_states, size=b)]

    batched = mixing.forward(EVAL, q, s)
    for i in range(b):
        w1 = np.abs(mixing.hyper_w1.forward(EVAL, s[i : i + 1]))[0].reshape(mixing.embed_dim, 2)
        b1, w2 = mixing.hyper_b1w2.forward(EVAL, s[i : i + 1])[:, 0]
        w2 = np.abs(w2)
        b2 = mixing.hyper_b2.forward(EVAL, s[i : i + 1])[0, 0]
        pre = w1 @ q[i] + b1
        hidden = np.where(pre >= 0.0, pre, np.expm1(pre))
        assert abs(batched[i, 0] - (w2 @ hidden + b2)) < 1e-12

    g = Graph()
    out = mixing.forward(g, g.constant(q), g.constant(s))
    assert np.max(np.abs(out.value - batched)) < 1e-12


def random_mixer(seed, state_dim, n_agents, embed_dim, hyper_hidden):
    """A MixingNet with every weight and bias drawn at random."""
    rng = np.random.default_rng(seed)
    mixing = MixingNet(state_dim, n_agents, embed_dim, hyper_hidden, rng)
    for p in mixing.params:
        p.value[...] = rng.normal(size=p.shape)
    return mixing, rng


_MIXER_SIZES = dict(state_dim=st.integers(1, 5), n_agents=st.integers(1, 4),
                    embed_dim=st.integers(1, 6), hyper_hidden=st.integers(1, 6),
                    batch=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1))


@given(**_MIXER_SIZES)
@settings(max_examples=25, derandomize=True, deadline=None)
def test_mixer_off_tape_forward_equals_the_tape(state_dim, n_agents, embed_dim, hyper_hidden,
                                                batch, seed):
    mixing, rng = random_mixer(seed, state_dim, n_agents, embed_dim, hyper_hidden)
    q = rng.normal(scale=2.0, size=(batch, n_agents))
    s = rng.normal(size=(batch, state_dim))
    g = Graph()
    taped = mixing.forward(g, g.constant(q), g.constant(s)).value
    assert np.array_equal(mixing.forward(EVAL, q, s), taped)


@given(**_MIXER_SIZES)
@settings(max_examples=25, derandomize=True, deadline=None)
def test_mixer_is_monotone_in_every_utility(state_dim, n_agents, embed_dim, hyper_hidden,
                                            batch, seed):
    # each row's q_tot depends on its own utilities only, so the gradient of
    # the summed q_tot holds d q_tot / d q_i for every row
    mixing, rng = random_mixer(seed, state_dim, n_agents, embed_dim, hyper_hidden)
    q = param(rng.normal(scale=2.0, size=(batch, n_agents)), name="q")
    s = rng.normal(size=(batch, state_dim))
    g = Graph()
    backward(g, g.sum(mixing.forward(g, q, g.constant(s))))
    assert (q.grad >= 0.0).all()


def test_mixer_gradients_match_finite_differences_and_are_monotone():
    learner, env = make("qmix", seed=21)
    rng = np.random.default_rng(9)
    h = 1e-6
    for _ in range(50):
        s = np.eye(env.n_states)[[rng.integers(env.n_states)]]
        q0 = rng.normal(size=(1, 2))

        g = Graph()
        q = param(q0, name="q")
        out = learner.mixing.forward(g, q, g.constant(s))
        backward(g, out)

        for i in range(2):
            lo, hi = q0.copy(), q0.copy()
            lo[0, i] -= h
            hi[0, i] += h
            fd = (learner.mixing.forward(EVAL, hi, s) - learner.mixing.forward(EVAL, lo, s))[0, 0] / (2 * h)
            assert abs(fd - q.grad[0, i]) < 1e-6
            assert q.grad[0, i] >= -1e-8
            assert fd >= -1e-8


def test_noncooperative_batch_rejected_in_joint_modes():
    learner, _ = make("vdn", env_name="matching_pennies")
    tr = JointTransition(state=0, actions=(0, 1), rewards=(1.0, -1.0), next_state=0, done=True)
    with pytest.raises(NonCooperative):
        learner.td_update(stacked([tr]))


def test_independent_mode_accepts_opposed_rewards():
    learner, _ = make("independent", env_name="matching_pennies")
    tr = JointTransition(state=0, actions=(0, 1), rewards=(1.0, -1.0), next_state=0, done=True)
    loss = learner.td_update(stacked([tr]))
    assert np.isfinite(loss)


def test_terminal_transition_loss_is_squared_reward():
    learner, _ = make("vdn")
    zero_all(learner)
    tr = JointTransition(state=1, actions=(1, 1), rewards=(10.0, 10.0), next_state=1, done=True)
    assert learner.td_update(stacked([tr])) == 100.0


def test_gamma_zero_bootstraps_to_reward_only():
    learner, _ = make("independent", env_name="matching_pennies", gamma=0.0)
    zero_all(learner)
    tr = JointTransition(state=0, actions=(0, 0), rewards=(1.0, -1.0), next_state=0, done=False)
    assert learner.td_update(stacked([tr])) == 1.0


def test_nonterminal_target_uses_target_net_max():
    learner, _ = make("vdn", gamma=0.5)
    zero_all(learner)
    learner.target.reads[learner.heads[0].biases[-1]][...] = [[[1.0, 3.0]], [[2.0, 4.0]]]
    # target maxes are 3 and 4, y = 1 + 0.5 * 7 = 4.5, q_taken = 0
    tr = JointTransition(state=0, actions=(0, 0), rewards=(1.0, 1.0), next_state=1, done=False)
    assert abs(learner.td_update(stacked([tr])) - 4.5 ** 2) < 1e-12


def test_greedy_ties_break_to_lowest_index():
    learner, env = make("vdn")
    zero_all(learner)
    assert learner.greedy_joint(env.reset_batch(1, np.random.default_rng(0))).tolist() == [[0, 0]]


def test_epsilon_extremes():
    learner, env = make("vdn", seed=2)
    zero_all(learner)
    learner.heads[0].biases[-1].value[...] = np.array([0.0, 2.0])
    index = env.reset_batch(1, np.random.default_rng(0))
    rng = np.random.default_rng(123)
    assert learner.act(index, rng, 0.0).tolist() == [[1, 1]]

    a = learner.act(np.repeat(index, 4000), rng, 1.0)
    assert 0.45 < np.mean(a[:, 0] == 0) < 0.55


def test_epsilon_schedule_endpoints():
    assert epsilon_at(0, 1.0, 0.05, 1000) == 1.0
    assert epsilon_at(1000, 1.0, 0.05, 1000) == 0.05
    assert epsilon_at(5000, 1.0, 0.05, 1000) == 0.05
    assert abs(epsilon_at(500, 1.0, 0.0, 1000) - 0.5) < 1e-12


def test_decentralized_argmax_matches_exhaustive_joint_scan():
    rng = np.random.default_rng(31)
    cases = []
    for seed in range(8):
        cases.append(make("qmix", env_name="coop_climb", seed=seed))
        cases.append(make("qmix", env_name="two_step_coop", seed=100 + seed))
    env3 = three_agent_coop(rng)
    for seed in range(8):
        cases.append((QmixLearner(env3, "qmix", np.random.default_rng(200 + seed)), env3))

    for learner, env in cases:
        for s in range(env.n_states):
            utils = learner.utilities(s)
            best_joint, best_val = None, -np.inf
            for joint in envs.enumerate_joint_actions(env):
                val = learner.mix([utils[i][a] for i, a in enumerate(joint)], s)
                if val > best_val:
                    best_joint, best_val = joint, val
            dec = tuple(learner.greedy_joint([s])[0])
            assert abs(learner.mix([utils[i][a] for i, a in enumerate(dec)], s) - best_val) < 1e-10
            assert dec == best_joint


def _lone_heads(learner, reads):
    """Plain per-agent DenseNets holding each agent's head values, read through reads."""
    nets = []
    for head, run in zip(learner.heads, learner.runs):
        for i in run:
            net = DenseNet(head.layer_sizes, head.activations, np.random.default_rng(0))
            for p, stack in zip(net.params, head.params):
                p.value[...] = reads(stack)[(i - run[0]) % len(stack.value)]
            nets.append(net)
    return nets


def _per_agent_loss(learner, batch, shared):
    """The TD loss as per-agent heads compute it, one record per agent and layer, its
    gradient laid out as the learner's, and those heads."""
    live = _lone_heads(learner, lambda t: t.value)
    target = _lone_heads(learner, learner.target.reads.get)
    # the target table: each target net's greedy value at every state, mixed in joint modes
    eye = np.eye(learner.env.n_states)
    best = np.empty((len(eye), learner.n_agents))
    for i, net in enumerate(target):
        tu = net.forward(EVAL, eye)
        best[:, i] = tu[np.arange(len(eye)), tu.argmax(axis=1)]
    if learner.mode == "independent":
        target_q = best[batch.next_state]
        y = batch.rewards + learner.gamma * (1.0 - batch.done)[:, None] * target_q
    else:
        tot2 = learner._mix(learner.target, best)[batch.next_state, 0]
        y = (batch.rewards[:, 0] + learner.gamma * (1.0 - batch.done) * tot2)[:, None]
    # each head runs once per state, and each batch row reads its state's row
    g = Graph()
    s_t = g.constant(eye)
    taken = [g.pick(net.forward(g, s_t), batch.actions[:, i], batch.state)
             for i, net in enumerate(live)]
    q = taken[0] if len(taken) == 1 else g.concat(*taken)
    q = q if learner.mode == "independent" else learner._mix(g, q, batch.state)
    loss = g.mean(g.square(g.sub(q, g.constant(y))))
    backward(g, loss)
    heads = [[p.grad for p in net.params] for net in live]
    if shared:    # the shared head's adjoints, summed last agent first
        heads = [[functools.reduce(np.add, grads) for grads in zip(*heads[::-1])]]
    # the mixer's params are the learner's own, their adjoints already laid in its vector
    heads = np.concatenate([a.reshape(-1) for a in sum(heads, [])])
    grad = np.concatenate([heads, learner.opt.grad[heads.size:]])
    learner.opt.grad[...] = 0.0
    return float(loss.value), grad, live


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("arities,share", [((2, 3, 2), False), ((3, 3, 3), True),
                                           ((2, 2, 3), False)])
def test_stacked_heads_match_per_agent_heads_bit_for_bit(monkeypatch, mode, arities, share):
    clipped = []
    monkeypatch.setattr(qmix, "clip_grad_norm",
                        lambda grad, norm, clip=qmix.clip_grad_norm: clipped.append(grad.copy())
                        or clip(grad, norm))
    rng = np.random.default_rng(17)
    env = three_agent_coop(rng, arities)
    learner = QmixLearner(env, mode, np.random.default_rng(5), hidden=(6,), share_params=share,
                          target_interval=3)
    assert [len(h.weights[0].value) for h in learner.heads] == (
        [1] if share else [len(r) for r in learner.runs])
    for step in range(7):
        actions = rng.integers(arities, size=(16, 3))
        rewards = np.repeat(rng.normal(size=(16, 1)), 3, axis=1)
        trs = [JointTransition(state=0, actions=tuple(a), rewards=tuple(r), next_state=0,
                               done=bool(step % 2 and i % 2))
               for i, (a, r) in enumerate(zip(actions, rewards))]
        batch = stacked(trs)
        expect, grad, live = _per_agent_loss(learner, batch, share)
        x = np.eye(env.n_states)[[0]]
        assert learner.greedy_joint([0]).tolist() == [[int(net.forward(EVAL, x).argmax())
                                                       for net in live]]
        for u, net in zip(learner.utilities(0), live):
            assert np.array_equal(u, net.forward(EVAL, x)[0])
        joint, ref = (np.random.default_rng(step) for _ in range(2))
        expect_joint = tuple(int(ref.integers(k)) if ref.random() < 0.5
                             else int(net.forward(EVAL, x).argmax())
                             for k, net in zip(arities, live))
        assert learner.act(np.array([0]), joint, 0.5).tolist() == [list(expect_joint)]
        assert learner.td_update(batch) == expect
        # a shared head sums its agents' adjoints in another order than separate records do
        assert np.array_equal(clipped[-1], grad) or share and np.allclose(clipped[-1], grad)


def _random_batch(rng, env, size):
    """A stacked batch of random joint transitions with a shared reward."""
    return stacked([JointTransition(state=int(rng.integers(env.n_states)),
                                    actions=tuple(int(rng.integers(a.n)) for a in env.action_space),
                                    rewards=(float(rng.normal()),) * env.n_agents,
                                    next_state=int(rng.integers(env.n_states)),
                                    done=bool(rng.integers(2)))
                    for _ in range(size)])


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("arities,share", [((2, 3, 2), False), ((3, 3, 3), True),
                                           ((2, 2, 3), False)])
def test_td_loss_gradients_match_finite_differences(mode, arities, share):
    rng = np.random.default_rng(23)
    env = three_agent_coop(rng, arities, n_states=3)
    learner = QmixLearner(env, mode, rng, hidden=(4,), embed_dim=3, hyper_hidden=4,
                          share_params=share)
    # every parameter, biases too, away from zero: the hypernets' weights pass through |.|
    for p in learner.opt.params:
        p.value[...] = rng.choice([-1.0, 1.0], size=p.shape) * rng.uniform(0.2, 1.0, size=p.shape)
    batch = _random_batch(rng, env, 8)
    y = rng.normal(size=(8, 3 if mode == "independent" else 1))
    err = grad_check(lambda g: learner.td_loss(g, batch, y), learner.opt.params)
    assert err < cli.GRADCHECK_TOL


def _batch_row_loss(learner, g, batch, y):
    """The TD loss as the learner once computed it: the heads, and qmix's hypernets, run
    on the one-hot state of every batch row rather than once per state."""
    s_t = g.constant(np.eye(learner.env.n_states)[batch.state])
    taken = [g.pick(net.forward(g, s_t), batch.actions[:, run])
             for net, run in zip(learner.heads, learner.runs)]
    q_taken = taken[0] if len(taken) == 1 else g.concat(*taken)
    if learner.mode == "vdn":
        q_taken = g.sum(q_taken, axis=1)
    elif learner.mode == "qmix":
        q_taken = g.op("mix", (q_taken, *(net.forward(g, s_t) for net in learner.mixing.nets)))
    return g.mean(g.square(g.sub(q_taken, g.constant(y))))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("arities,share", [((2, 3, 2), False), ((3, 3, 3), True),
                                           ((2, 2, 3), False)])
def test_table_reads_give_the_batch_row_loss_and_gradient(mode, arities, share):
    rng = np.random.default_rng(29)
    env = three_agent_coop(rng, arities, n_states=3)
    learner = QmixLearner(env, mode, rng, hidden=(5,), embed_dim=3, hyper_hidden=4,
                          share_params=share)
    for p in learner.opt.params:    # biases too, so that every path carries a gradient
        p.value[...] = rng.normal(size=p.shape)
    batch = _random_batch(rng, env, 32)
    y = rng.normal(size=(32, 3 if mode == "independent" else 1))
    losses, grads = [], []
    for loss_of in (learner.td_loss, functools.partial(_batch_row_loss, learner)):
        g = Graph()
        loss = loss_of(g, batch, y)
        backward(g, loss)
        losses.append(float(loss.value))
        grads.append(learner.opt.grad.copy())
        learner.opt.grad[...] = 0.0
    assert np.isclose(losses[0], losses[1], rtol=1e-12, atol=0.0)
    assert np.allclose(grads[0], grads[1], rtol=1e-12, atol=1e-15) and grads[1].any()


def _target_forward(learner, index):
    """The bootstrap values at a batch of next states, by the target graph's batch forward."""
    s2 = np.eye(learner.env.n_states)[index]
    best = np.hstack([u.max(axis=2).T for u in learner._per_agent(
        net.forward(learner.target, s2) for net in learner.heads)])
    if learner.mode == "qmix":
        return learner.mixing.forward(learner.target, best, s2)
    return best if learner.mode == "independent" else learner.target.sum(best, axis=1)


@pytest.mark.parametrize("mode", MODES)
def test_target_table_equals_the_target_graph_forward_after_syncs(mode):
    learner, env = make(mode, seed=12, target_interval=3)
    rng = np.random.default_rng(3)
    index = rng.integers(env.n_states, size=32)
    tables = []
    for updates in (0, 3, 6):    # 0, 1 and 3 syncs
        for _ in range(updates):
            learner.td_update(_random_batch(rng, env, 32))
        table = learner.target_table()
        assert table.shape == (env.n_states, env.n_agents if mode == "independent" else 1)
        assert np.allclose(table[index], _target_forward(learner, index), rtol=1e-12, atol=0.0)
        tables.append(table.copy())
    assert not np.allclose(tables[0], tables[1]) and not np.allclose(tables[1], tables[2])


@pytest.mark.parametrize("mode", MODES)
def test_td_update_runs_the_target_nets_only_after_a_sync(monkeypatch, mode):
    learner, env = make(mode, seed=13, target_interval=3)
    calls = count_calls(monkeypatch, learner.target, ["op"])
    assert calls["op"] == 0    # a new learner builds no table until it learns
    rng = np.random.default_rng(4)
    counts = []
    for _ in range(7):
        learner.td_update(_random_batch(rng, env, 32))
        counts.append(calls["op"])
    per_build = counts[0]
    assert per_build > 0
    assert counts == [per_build] * 3 + [2 * per_build] * 3 + [3 * per_build]


def test_td_update_moves_hypernet_parameters():
    learner, _ = make("qmix", seed=4)
    before = [p.value.copy() for p in learner.mixing.params]
    tr = JointTransition(state=0, actions=(0, 0), rewards=(5.0, 5.0), next_state=1, done=False)
    learner.td_update(stacked([tr] * 8))
    moved = any(np.max(np.abs(p.value - b)) > 0 for p, b in zip(learner.mixing.params, before))
    assert moved


@pytest.mark.parametrize("mode", MODES)
def test_an_update_above_the_clip_norm_hands_adam_the_clipped_gradient(monkeypatch, mode):
    learner, _ = make(mode, seed=8)
    tr = JointTransition(state=0, actions=(0, 1), rewards=(1e3, 1e3), next_state=1, done=True)
    batch = stacked([tr] * 4)
    g = Graph()    # a terminal batch's TD targets are its rewards
    backward(g, learner.td_loss(g, batch, batch.rewards[:, :1 if mode != "independent" else 2]))
    raw, norm = learner.opt.grad.copy(), np.linalg.norm(learner.opt.grad)
    learner.opt.grad[...] = 0.0
    assert norm > 10 * qmix.MAX_GRAD_NORM
    handed = []
    monkeypatch.setattr(qmix, "adam_step", lambda params, state, step=qmix.adam_step:
                        handed.append(state.grad.copy()) or step(params, state))
    learner.td_update(batch)
    assert np.allclose(handed[0], raw * (qmix.MAX_GRAD_NORM / norm), rtol=1e-12, atol=0.0)
    assert np.isclose(np.linalg.norm(handed[0]), qmix.MAX_GRAD_NORM, rtol=1e-12)


@pytest.mark.parametrize("mode,records", [("qmix", 13), ("vdn", 7), ("independent", 6)])
def test_td_update_tape_length(monkeypatch, mode, records):
    # the two agents' heads are one stack: one dense record per layer and one pick for both
    learner, _ = make(mode, seed=6)
    lengths = []
    real_backward = ndiff.backward
    monkeypatch.setattr(ndiff, "backward",
                        lambda g, root: (lengths.append(len(g.records)), real_backward(g, root)))
    tr = JointTransition(state=0, actions=(0, 1), rewards=(5.0, 5.0), next_state=1, done=False)
    learner.td_update(stacked([tr] * 32))
    assert lengths == [records]


@pytest.mark.parametrize("mode", MODES)
def test_acting_runs_one_off_tape_dense_per_layer(monkeypatch, mode):
    learner, env = make(mode, seed=6, hidden=(8, 8))
    calls = count_calls(monkeypatch, ndiff.OffTape, ["op"])
    learner.greedy_joint(np.arange(env.n_states))
    assert calls["op"] == 3
    learner.act(env.reset_batch(1, np.random.default_rng(0)), np.random.default_rng(1), 0.5)
    assert calls["op"] == 6


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("share", [False, True])
def test_greedy_joint_reads_the_rows_of_a_steps_forward(mode, share):
    learner, env = make(mode, seed=9, share_params=share)
    rng = np.random.default_rng(10)
    for p in learner.opt.params:
        p.value[...] = rng.normal(size=p.shape)
    g = Graph()
    heads = learner.forward(g)
    assert g.records    # on the tape, for the update to extend
    for index in ([0], [1], [1, 0, 1]):
        # each head run on the one-hot states of the rows alone
        per_row = learner._per_agent(net.forward(EVAL, np.eye(env.n_states)[index])
                                     for net in learner.heads)
        expect = np.hstack([u.argmax(axis=2).T for u in per_row])
        assert np.array_equal(learner.greedy_joint(index, heads), expect)
        assert np.array_equal(learner.greedy_joint(index), expect)
        joint, ref = np.random.default_rng(3), np.random.default_rng(3)
        assert np.array_equal(learner.act(np.array(index), joint, 0.5, heads),
                              learner.act(np.array(index), ref, 0.5))


@pytest.mark.parametrize("mode", MODES)
def test_a_step_on_many_states_holds_no_state_by_state_array(mode):
    # each net's first layer is its weight's rows, never an (n_states, n_states) one-hot product,
    # so a step's cost grows with the state count once, as the batch rows' one-hot input did
    n = 200
    rng = np.random.default_rng(4)
    env = three_agent_coop(rng, (2, 2, 2), n_states=n)
    learner = QmixLearner(env, mode, rng, hidden=(8,))
    g = Graph()
    heads = learner.forward(g)
    learner.act(np.array([7]), rng, 0.5, heads)
    learner.td_update(_random_batch(rng, env, 32), g, heads)
    sizes = [t.value.size for rec in g.records for t in (*rec.inputs, rec.output)]
    assert len(g.records) == {"qmix": 13, "vdn": 7, "independent": 6}[mode]
    assert max(sizes) < n * n // 4


@pytest.mark.parametrize("algo,env_name", [("iql", "two_step_coop"), ("vdn", "coop_climb"),
                                           ("qmix", "two_step_coop")])
def test_a_training_step_runs_one_forward_of_the_live_heads(monkeypatch, algo, env_name):
    cfg = cli.build_config(None, {"algo": algo, "env": env_name, "total_steps": 100,
                                  "eval_interval": 100})
    run = cli.Run(cfg, envs.resolve_env(env_name), 0)
    for _ in range(40):    # past the first batch and the first target table
        run.step()
    calls = count_calls(monkeypatch, QmixLearner, ["forward", "td_update"])
    off_tape = count_calls(monkeypatch, ndiff.OffTape, ["op"])
    for _ in range(20):
        run.step()
    assert calls == {"forward": 20, "td_update": 20} and off_tape["op"] == 0


def test_the_value_step_builds_no_closure():
    tree = ast.parse(textwrap.dedent(inspect.getsource(cli._q_step)))
    assert not [n for n in ast.walk(tree) if isinstance(n, (ast.Lambda, ast.GeneratorExp))
                or isinstance(n, ast.FunctionDef) and n.name != "_q_step"
                or isinstance(n, ast.Attribute) and n.attr == "partial"]


def test_target_nets_sync_on_interval():
    learner, _ = make("qmix", seed=5, target_interval=3)
    tr = JointTransition(state=0, actions=(0, 0), rewards=(5.0, 5.0), next_state=1, done=False)
    learner.td_update(stacked([tr] * 4))
    learner.td_update(stacked([tr] * 4))
    reads = learner.target.reads
    gap = max(np.max(np.abs(p.value - reads[p])) for p in learner.heads[0].params)
    assert gap > 0
    learner.td_update(stacked([tr] * 4))
    assert learner.learn_steps == 3
    for net in learner.heads:
        for p in net.params:
            assert np.array_equal(p.value, reads[p])


def test_shared_parameters_tie_agent_heads():
    learner, _ = make("vdn", env_name="coop_climb", seed=6, share_params=True)
    u = learner.utilities(0)
    assert np.array_equal(u[0], u[1])
    psi = learner.checkpoint_tree()["psi"]
    assert psi and all(p.name.startswith("agents_shared/") for p in psi)
    tr = JointTransition(state=0, actions=(0, 1), rewards=(-30.0, -30.0), next_state=0, done=True)
    learner.td_update(stacked([tr] * 4))
    u2 = learner.utilities(0)
    assert np.array_equal(u2[0], u2[1])


def test_independent_learner_recovers_value_against_scripted_coin():
    env = envs.fixture_by_name("matching_pennies")
    rng = np.random.default_rng(42)
    learner = QmixLearner(env, "independent", rng, hidden=(16,), lr=1e-3)
    buf = ReplayBuffer(5000)
    coin = np.array([[0.7, 0.3]])

    def act(index):    # seat 1 plays the coin after the learner's epsilon draws
        joint = learner.act(index, rng, 0.5)
        joint[:, 1] = rng.choice(2, p=coin[index[0]])
        return joint
    live = (env.reset_batch(1, rng), 0)
    for step in range(5000):
        tr, live = collect_step(env, act, live, rng)
        buf.push(tr)
        if step == 3500:
            learner.opt.lr = 1e-4
        if step >= 128:
            learner.td_update(buf.sample(64, rng))
    q0 = learner.utilities(0)[0]
    mdp = envs.induce_mdp(env, 0, {1: coin})
    expect = oracle.tabular_q_iteration(mdp).q[0]
    # sampled +/-1 rewards leave a sampling-noise floor of about 0.013 on
    # each arm after 5000 steps, so raw play is checked at 3e-2; the
    # expected-reward variant in the acceptance suite reaches 1e-2
    assert np.max(np.abs(q0 - expect)) < 3e-2
    assert np.max(np.abs(expect - np.array([0.4, -0.4]))) < 1e-12


def test_shared_head_appears_once_in_the_vectors():
    learner, _ = make("qmix", share_params=True, hidden=(5,))
    unique = learner.heads + learner.mixing.nets
    floats = sum(p.value.size for net in unique for p in net.params)
    assert learner.opt.value.size == learner.opt.m.size == floats
    assert learner.target_value.size == floats
    assert len(learner.target.reads) == len(learner.opt.params)
    assert learner.target.reads[learner.heads[0].weights[0]].base is learner.target_value


def test_live_vector_moves_reach_targets_only_on_sync():
    learner, _ = make("qmix", seed=3)
    before = learner.target_value.copy()
    learner.opt.value += 0.5
    assert np.array_equal(learner.target_value, before)
    learner.sync_targets()
    assert np.array_equal(learner.target_value, learner.opt.value)
    b2 = learner.mixing.hyper_b2.biases[-1]
    assert np.array_equal(learner.target.reads[b2], b2.value)


def test_checkpoint_roundtrip_restores_utilities():
    learner, _ = make("qmix", seed=8)
    blob = ndiff.tree_to_json(learner.checkpoint_tree())
    before = [u.copy() for u in learner.utilities(0)]
    for p in learner.opt.params:
        p.value[...] += 1.0
    ndiff.tree_from_json(blob, learner.checkpoint_tree())
    after = learner.utilities(0)
    for b, a in zip(before, after):
        assert np.array_equal(b, a)
    assert blob["mode"] == "qmix"

    other, _ = make("vdn", seed=8)
    with pytest.raises(ndiff.NdiffError, match="payload/mode"):
        ndiff.tree_from_json(blob, other.checkpoint_tree())


# -- the collector ----------------------------------------------------------------

def _collector_case(algo, env_name, epsilon=0.5):
    """The game, a learner's behaviour act(index, rng) and, for a value learner, the same
    actions drawn by a per-agent epsilon-greedy loop: per agent one uniform, then one
    integer if it explores."""
    env = envs.fixture_by_name(env_name)
    if algo == "maddpg":
        learner = MaddpgLearner(env, np.random.default_rng(1), hidden=(8,))
        return env, learner.act, learner.act
    mode = {"iql": "independent", "qmix": "qmix"}[algo]
    learner = QmixLearner(env, mode, np.random.default_rng(1), hidden=(8,))

    def loop(index, rng):
        u = learner.utilities(index[0])
        return np.array([[rng.integers(k) if rng.random() < epsilon else u_i.argmax()
                          for k, u_i in zip(learner.n_actions, u)]])
    return env, lambda index, rng: learner.act(index, rng, epsilon), loop


def _reference_collect(env, act, n, rng):
    """n transitions by table lookups and Generator.choice: the start state's one uniform,
    then per step act's draws, the transition's one uniform (none in a continuous game),
    and a fresh start's one uniform when the episode ends."""
    out, s, t = [], rng.choice(env.n_states, p=env.init_dist), 0
    for _ in range(n):
        joint = act(np.array([s]), rng)[0]
        if env.all_discrete():
            key = (s, *joint)
            nxt, r = rng.choice(env.n_states, p=env.transition[key]), env.rewards[key]
            done = env.terminal_after[key] or t + 1 >= env.horizon
        else:
            nxt, r, done = 0, env.reward_fn(joint), True
        out.append(JointTransition(s, joint, r, nxt, done))
        s, t = (rng.choice(env.n_states, p=env.init_dist), 0) if done else (nxt, t + 1)
    return out


@pytest.mark.parametrize("algo,env_name", [("iql", "two_step_coop"), ("iql", "coop_climb"),
                                           ("qmix", "two_step_coop"), ("maddpg", "two_step_coop"),
                                           ("maddpg", "coop_cts")])
def test_collect_step_keeps_the_reference_draw_order(algo, env_name):
    env, act, loop = _collector_case(algo, env_name)
    rng = np.random.default_rng(9)
    live, got = (env.reset_batch(1, rng), 0), []
    for _ in range(40):
        tr, live = collect_step(env, lambda index: act(index, rng), live, rng)
        got.append(tr)
    ref = np.random.default_rng(9)
    expect = _reference_collect(env, loop, 40, ref)
    for tr, want in zip(got, expect):
        for field, a, b in zip(JointTransition._fields, tr, want):
            assert np.array_equal(a, b), (field, a, b)
    assert rng.bit_generator.state == ref.bit_generator.state
    assert sum(tr.done for tr in got) >= 10    # every horizon-1 step, half the two-step ones


@pytest.mark.parametrize("algo", ["iql", "qmix", "maddpg"])
def test_collect_step_cycles_the_timestep_and_resets_with_one_uniform(algo):
    env, act, _ = _collector_case(algo, "two_step_coop", epsilon=0.0)
    rng = np.random.default_rng(2)
    live, ts = (env.reset_batch(1, rng), 0), []
    for _ in range(6):
        ts.append(live[1])
        _, live = collect_step(env, lambda index: act(index, rng), live, rng)
    assert ts == [0, 1] * 3
    # one uniform per agent's action (no exploring integer at epsilon 0) and per
    # transition, and one per reset: the start and the three finished episodes
    ref = np.random.default_rng(2)
    ref.random(6 * (env.n_agents + 1) + 4)
    assert rng.bit_generator.state == ref.bit_generator.state

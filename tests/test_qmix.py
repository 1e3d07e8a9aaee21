import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marlab import envs, ndiff, oracle
from marlab.buffer import JointTransition, ReplayBuffer
from marlab.ndiff import EVAL, Graph, backward, param
from marlab.qmix import (
    MixingNet,
    ModeMismatch,
    NonCooperative,
    QmixError,
    QmixLearner,
    collect_step,
    epsilon_at,
)

from batches import stacked


def make(mode, env_name="two_step_coop", seed=0, **kw):
    env = envs.fixture_by_name(env_name)
    return QmixLearner(env, mode, np.random.default_rng(seed), **kw), env


def zero_all(learner):
    for p in learner.opt.params:
        p.value[...] = 0.0
    learner.sync_targets()


def three_agent_coop(rng):
    """Random shared-reward table game with three agents of mixed arity."""
    shape = (1, 2, 3, 2)
    base = rng.normal(size=shape)
    rewards = np.repeat(base[..., np.newaxis], 3, axis=-1)
    transition = np.ones(shape + (1,))
    return envs.MarkovGame(
        name="coop3", action_space=[envs.Discrete(k) for k in shape[1:]],
        horizon=1, gamma=1.0, cooperative=True, zero_sum=False,
        n_states=1, rewards=rewards, transition=transition,
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
    learner, env = make("vdn")
    s = env.reset(np.random.default_rng(0))
    assert learner.mix([0.5, -0.25], s) == 0.25
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
    mixing.hyper_w2.biases[-1].value[...] = w2_bias

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
        b1 = mixing.hyper_b1.forward(EVAL, s[i : i + 1])[0]
        w2 = np.abs(mixing.hyper_w2.forward(EVAL, s[i : i + 1]))[0]
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
    for i, net in enumerate(learner.target_agent_nets):
        net.biases[-1].value[...] = np.array([[1.0 + i, 3.0 + i]])
    # target maxes are 3 and 4, y = 1 + 0.5 * 7 = 4.5, q_taken = 0
    tr = JointTransition(state=0, actions=(0, 0), rewards=(1.0, 1.0), next_state=1, done=False)
    assert abs(learner.td_update(stacked([tr])) - 4.5 ** 2) < 1e-12


def test_greedy_ties_break_to_lowest_index():
    learner, env = make("vdn")
    zero_all(learner)
    assert learner.greedy_joint([env.reset(np.random.default_rng(0)).index]).tolist() == [[0, 0]]


def test_epsilon_extremes():
    learner, env = make("vdn", seed=2)
    zero_all(learner)
    for net in learner.agent_nets:
        net.biases[-1].value[...] = np.array([[0.0, 2.0]])
    s = env.reset(np.random.default_rng(0))
    rng = np.random.default_rng(123)
    assert learner.act_epsilon_greedy(s, 0.0, rng) == (1, 1)

    counts = np.zeros(2)
    for _ in range(4000):
        a = learner.act_epsilon_greedy(s, 1.0, rng)
        counts[a[0]] += 1
    freq = counts / counts.sum()
    assert 0.45 < freq[0] < 0.55


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


def test_td_update_moves_hypernet_parameters():
    learner, _ = make("qmix", seed=4)
    before = [p.value.copy() for p in learner.mixing.params]
    tr = JointTransition(state=0, actions=(0, 0), rewards=(5.0, 5.0), next_state=1, done=False)
    learner.td_update(stacked([tr] * 8))
    moved = any(np.max(np.abs(p.value - b)) > 0 for p, b in zip(learner.mixing.params, before))
    assert moved


@pytest.mark.parametrize("mode,records", [("qmix", 29), ("vdn", 12), ("independent", 11)])
def test_td_update_tape_length(monkeypatch, mode, records):
    # one dense record per layer, one pick per agent
    learner, _ = make(mode, seed=6)
    lengths = []
    real_backward = ndiff.backward
    monkeypatch.setattr(ndiff, "backward",
                        lambda g, root: (lengths.append(len(g.records)), real_backward(g, root)))
    tr = JointTransition(state=0, actions=(0, 1), rewards=(5.0, 5.0), next_state=1, done=False)
    learner.td_update(stacked([tr] * 32))
    assert lengths == [records]


def test_target_nets_sync_on_interval():
    learner, _ = make("qmix", seed=5, target_interval=3)
    tr = JointTransition(state=0, actions=(0, 0), rewards=(5.0, 5.0), next_state=1, done=False)
    learner.td_update(stacked([tr] * 4))
    learner.td_update(stacked([tr] * 4))
    gap = max(
        np.max(np.abs(p.value - t.value))
        for p, t in zip(learner.agent_nets[0].params, learner.target_agent_nets[0].params)
    )
    assert gap > 0
    learner.td_update(stacked([tr] * 4))
    assert learner.learn_steps == 3
    for net, tgt in zip(learner.agent_nets, learner.target_agent_nets):
        for p, t in zip(net.params, tgt.params):
            assert np.array_equal(p.value, t.value)


def test_shared_parameters_tie_agent_heads():
    learner, env = make("vdn", env_name="coop_climb", seed=6, share_params=True)
    s = env.reset(np.random.default_rng(0))
    u = learner.utilities(s)
    assert np.array_equal(u[0], u[1])
    psi, _ = learner.named_params()
    assert all(name.startswith("agents_shared/") for name, _ in psi)
    tr = JointTransition(state=0, actions=(0, 1), rewards=(-30.0, -30.0), next_state=0, done=True)
    learner.td_update(stacked([tr] * 4))
    u2 = learner.utilities(s)
    assert np.array_equal(u2[0], u2[1])


def test_independent_learner_recovers_value_against_scripted_coin():
    env = envs.fixture_by_name("matching_pennies")
    rng = np.random.default_rng(42)
    learner = QmixLearner(env, "independent", rng, hidden=(16,), lr=1e-3)
    buf = ReplayBuffer(5000)
    scripted = {1: np.array([[0.7, 0.3]])}
    state = env.reset(rng)
    for step in range(5000):
        tr, state = collect_step(env, learner, state, 0.5, rng, scripted=scripted)
        buf.push(tr)
        if step == 3500:
            learner.opt.lr = 1e-4
        if step >= 128:
            learner.td_update(buf.sample(64, rng))
    q0 = learner.utilities(0)[0]
    mdp = envs.induce_mdp(env, 0, {1: scripted[1]})
    expect = oracle.tabular_q_iteration(mdp).q[0]
    # sampled +/-1 rewards leave a sampling-noise floor of about 0.013 on
    # each arm after 5000 steps, so raw play is checked at 3e-2; the
    # expected-reward variant in the acceptance suite reaches 1e-2
    assert np.max(np.abs(q0 - expect)) < 3e-2
    assert np.max(np.abs(expect - np.array([0.4, -0.4]))) < 1e-12


def test_shared_head_appears_once_in_the_vectors():
    learner, _ = make("qmix", share_params=True, hidden=(5,))
    unique = [learner.agent_nets[0]] + learner.mixing.nets
    floats = sum(p.value.size for net in unique for p in net.params)
    assert learner.opt.value.size == learner.opt.m.size == floats
    assert learner.target_value.size == floats
    assert learner.target_agent_nets[0] is learner.target_agent_nets[1]
    assert learner.target_agent_nets[0].weights[0].value.base is learner.target_value


def test_live_vector_moves_reach_targets_only_on_sync():
    learner, _ = make("qmix", seed=3)
    before = learner.target_value.copy()
    learner.opt.value += 0.5
    assert np.array_equal(learner.target_value, before)
    learner.sync_targets()
    assert np.array_equal(learner.target_value, learner.opt.value)
    assert np.array_equal(learner.target_mixing.hyper_b2.biases[-1].value,
                          learner.mixing.hyper_b2.biases[-1].value)


def test_checkpoint_roundtrip_restores_utilities():
    learner, env = make("qmix", seed=8)
    s = env.reset(np.random.default_rng(0))
    blob = learner.to_checkpoint(config_echo={"algo": "qmix"})
    before = [u.copy() for u in learner.utilities(s)]
    for p in learner.opt.params:
        p.value[...] += 1.0
    learner.load_checkpoint(blob)
    after = learner.utilities(s)
    for b, a in zip(before, after):
        assert np.array_equal(b, a)
    assert blob["config"] == {"algo": "qmix"}

    other, _ = make("vdn", seed=8)
    with pytest.raises(ModeMismatch):
        other.load_checkpoint(blob)

import itertools

import numpy as np
import pytest

from marlab import cli, dial, envs, ndiff
from marlab.buffer import ReplayBuffer
from marlab.dial import (
    CHANNEL_MODES,
    DialError,
    DialSystem,
    RialSystem,
    RialTransition,
    StaleTrace,
    greedy_factored,
)
from marlab.ndiff import (EVAL, AdamState, Graph, Stacked, adam_step, backward, grad_check,
                          target_graph, tree_from_json, tree_to_json)

from calls import count_calls


def relay():
    return envs.fixture_by_name("signal_relay")


def make_system(seed=0, **kw):
    return DialSystem(relay(), np.random.default_rng(seed), **kw)


def fill(sys_, buf, rng, episodes, epsilon=0.5):
    """Push the records of RIAL episodes into buf, one record per env step."""
    for _ in range(episodes):
        for record in sys_.play_episode(rng, epsilon):
            buf.push(record)


def rial_step(sys_, buf, rng, epsilon, batch_size=32):
    """One RIAL training step as a run takes it: an episode into the replay, then,
    once it holds a batch, one TD update on an (n_agents, batch_size) draw."""
    fill(sys_, buf, rng, 1, epsilon)
    if len(buf) >= batch_size:
        return sys_.td_update(buf.sample((sys_.n_agents, batch_size), rng))
    return None


def test_channel_mode_validated():
    with pytest.raises(DialError):
        make_system(channel="off")


def test_non_signalling_env_rejected():
    with pytest.raises(DialError):
        DialSystem(envs.fixture_by_name("matching_pennies"), np.random.default_rng(0))


def test_listener_receives_speaker_message_verbatim():
    sys_ = make_system(seed=1)
    u = sys_.unroll(Graph(), None, np.random.default_rng(0), bits=[0, 1, 1, 0])
    speaker, listener = relay().meta["speaker"], relay().meta["listener"]
    assert np.array_equal(u.incoming[1].value[listener], u.messages[0].value[speaker])
    assert np.array_equal(u.incoming[1].value[speaker], u.messages[0].value[listener])
    assert np.all(u.incoming[0].value[listener] == 0.0)


def test_zeroed_message_weights_silence_the_channel():
    sys_ = make_system(seed=2)
    cell = sys_.cells
    a, d = cell.n_actions, cell.msg_dim
    cell.net.weights[-1].value[0, :, a:a + d] = 0.0
    cell.net.biases[-1].value[0, :, a:a + d] = 0.0
    u = sys_.unroll(Graph(), None, np.random.default_rng(0), bits=[0, 1])
    assert np.all(u.messages[0].value[0] == 0.0)
    assert np.all(u.incoming[1].value[1] == 0.0)


def test_loss_gradient_crosses_the_channel():
    sys_ = make_system(seed=3)
    u = sys_.unroll(Graph(), None, np.random.default_rng(0), bits=[0, 1, 0, 1])
    loss = sys_.loss_tensor(u)
    backward(u.graph, loss)
    speaker = relay().meta["speaker"]
    cell = sys_.cells
    a, d = cell.n_actions, cell.msg_dim
    msg_grad = cell.net.weights[-1].grad[speaker, :, a:a + d]
    assert np.max(np.abs(msg_grad)) > 0.0


def test_zeroed_channel_blocks_the_gradient():
    sys_ = make_system(seed=3, channel="zeroed")
    u = sys_.unroll(Graph(), None, np.random.default_rng(0), bits=[0, 1, 0, 1])
    loss = sys_.loss_tensor(u)
    backward(u.graph, loss)
    speaker = relay().meta["speaker"]
    cell = sys_.cells
    a, d = cell.n_actions, cell.msg_dim
    assert np.all(cell.net.weights[-1].grad[speaker, :, a:a + d] == 0.0)


def test_unrolled_graph_gradients_match_finite_differences():
    rng = np.random.default_rng(1234)
    worst = 0.0
    for case in range(100):
        hidden_dim = int(rng.integers(1, 4))
        msg_dim = int(rng.integers(1, 3))
        net_hidden = [(), (4,)][case % 2]
        channel = "on" if case % 3 else "zeroed"
        sys_ = DialSystem(relay(), rng, msg_dim=msg_dim, hidden_dim=hidden_dim,
                          net_hidden=net_hidden, channel=channel)
        for p in sys_.params():
            p.value[...] = rng.normal(scale=0.7, size=p.value.shape)
        bits = rng.integers(2, size=3)

        def f(g):
            return sys_.loss_tensor(sys_.unroll(g, None, np.random.default_rng(0), bits=bits))

        worst = max(worst, grad_check(f, sys_.params()))
    assert worst < 1e-4


@pytest.mark.parametrize("channel", CHANNEL_MODES)
@pytest.mark.parametrize("net_hidden", [(), (4,)])
def test_stacked_unroll_losses_equal_separate_tape_unrolls(channel, net_hidden):
    """Copy c's loss from one unroll on a Stacked graph of every +-h
    perturbation equals, by ==, the loss of a tape unroll at copy c's
    parameters.  This holds because signal_relay's transitions ignore actions
    and are deterministic: on a stochastic game the copies, stepped as extra
    episodes, draw other uniforms than separate unrolls would."""
    rng = np.random.default_rng(21)
    h = 1e-5
    for _ in range(2):
        sys_ = DialSystem(relay(), rng, msg_dim=int(rng.integers(1, 3)),
                          hidden_dim=int(rng.integers(1, 4)), net_hidden=net_hidden,
                          channel=channel)
        params = sys_.params()
        for p in params:
            p.value[...] = rng.normal(scale=0.7, size=p.value.shape)
        bits = rng.integers(2, size=3)
        n = sum(p.value.size for p in params)
        stacks, offset = {}, 0
        for p in params:
            stack = np.repeat(p.value[None], 2 * n, axis=0)
            flat = stack.reshape(2 * n, -1)
            for i in range(flat.shape[1]):
                flat[offset + i, i] += h
                flat[n + offset + i, i] -= h
            stacks[p] = stack
            offset += flat.shape[1]
        u = sys_.unroll(Stacked(stacks), None, np.random.default_rng(0), bits=bits)
        losses = sys_.loss_tensor(u)
        assert losses.shape == (2 * n,)
        assert u.actions.shape == (2, 2 * n, 3, 2)
        saved = [p.value.copy() for p in params]
        for c in range(2 * n):
            for p in params:
                p.value[...] = stacks[p][c]
            one = sys_.unroll(Graph(), None, np.random.default_rng(0), bits=bits)
            assert sys_.loss_tensor(one).value == losses[c]
            assert np.array_equal(one.actions, u.actions[:, c])
        for p, v in zip(params, saved):
            p.value[...] = v


def test_evaluate_runs_off_the_tape_on_the_tape_unrolls_actions(monkeypatch):
    sys_ = make_system(seed=6)
    u = sys_.unroll(Graph(), 64, np.random.default_rng(3))
    listener = relay().meta["listener"]
    tape_acc = float((u.actions[-1, :, listener] == u.bits).mean())
    calls = count_calls(monkeypatch, Graph, ["op"])
    assert sys_.evaluate(64, np.random.default_rng(3)) == tape_acc
    assert calls["op"] == 0
    assert np.array_equal(sys_.unroll(EVAL, 64, np.random.default_rng(3)).actions, u.actions)


def test_memorizes_a_constant_bit_batch():
    sys_ = make_system(seed=4)
    rng = np.random.default_rng(0)
    bits = [1] * 8
    for _ in range(500):
        u = sys_.unroll(Graph(), None, rng, bits=bits)
        sys_.update(u)
    u = sys_.unroll(Graph(), None, rng, bits=bits)
    assert np.all(u.listener_scores.value.argmax(axis=1) == 1)


def test_stale_unroll_rejected_after_update():
    sys_ = make_system(seed=5)
    rng = np.random.default_rng(0)
    u = sys_.unroll(Graph(), 8, rng)
    sys_.update(u)
    with pytest.raises(StaleTrace):
        sys_.update(u)
    assert sys_.version == 1


def test_open_channel_solves_the_relay():
    sys_ = make_system(seed=0)
    rng = np.random.default_rng(0)
    for _ in range(800):
        sys_.train_step(32, rng)
    assert sys_.evaluate(1000, rng) >= 0.95


def test_zeroed_channel_plateaus_at_chance():
    sys_ = make_system(seed=0, channel="zeroed")
    rng = np.random.default_rng(0)
    for _ in range(800):
        sys_.train_step(32, rng)
    acc = sys_.evaluate(1000, rng)
    assert 0.45 <= acc <= 0.55


def test_env_outputs_are_pure_functions_of_state_and_actions():
    env = relay()
    sys_ = make_system(seed=6)
    u = sys_.unroll(Graph(), None, np.random.default_rng(0), bits=[0, 1])
    for e, bit in enumerate(u.bits):
        expected = env.reward_vector(2 + bit, u.actions[1, e])
        assert np.array_equal(u.rewards[1, e], expected)
        assert np.array_equal(u.rewards[0, e], (0.0, 0.0))


def test_checkpoint_roundtrip():
    sys_ = make_system(seed=7)
    rng = np.random.default_rng(0)
    for _ in range(20):
        sys_.train_step(8, rng)
    blob = tree_to_json(sys_.checkpoint_tree())
    acc_before = sys_.evaluate(200, np.random.default_rng(1))
    for p in sys_.params():
        p.value[...] = 0.0
    tree_from_json(blob, sys_.checkpoint_tree())
    assert sys_.evaluate(200, np.random.default_rng(1)) == acc_before
    assert blob["channel"] == "on"


# -- factored-Q baseline ------------------------------------------------------

def test_factored_greedy_equals_joint_argmax_of_sum():
    rng = np.random.default_rng(8)
    for _ in range(50):
        qa = rng.normal(size=4)
        qm = rng.normal(size=3)
        a, m = greedy_factored(qa, qm)
        table = qa[:, None] + qm[None, :]
        best = np.unravel_index(np.argmax(table), table.shape)
        assert (a, m) == best


def test_epsilon_one_is_uniform_over_action_message_combos():
    sys_ = RialSystem(relay(), np.random.default_rng(9))
    _, steps = sys_.rollout(10000, np.random.default_rng(10), 1.0)
    counts = np.zeros((2, 2))
    np.add.at(counts, (steps.action[0, :, 0], steps.message[0, :, 0]), 1)
    chi2 = float((((counts - 2500.0) ** 2) / 2500.0).sum())
    assert chi2 < 11.34  # chi-square critical value, 3 dof, p=0.01


def test_input_layout_carries_own_previous_message():
    sys_ = RialSystem(relay(), np.random.default_rng(11))
    x0 = sys_._input(0, None)[0]
    assert x0.shape == (5,)
    assert np.array_equal(x0[1:], np.zeros(4))
    x1 = sys_._input(2, [1, 0])[0]
    # layout: obs, other agent's message one-hot, own message one-hot
    assert np.array_equal(x1[1:3], [1.0, 0.0])
    assert np.array_equal(x1[3:5], [0.0, 1.0])
    # agent 1 reads agent 0's message first, then its own
    assert np.array_equal(sys_._input(2, [1, 0])[1], [0.0, 0.0, 1.0, 1.0, 0.0])


def test_every_input_table_row_is_the_input_it_stands_for():
    sys_ = RialSystem(relay(), np.random.default_rng(11), n_messages=3)
    n_states = relay().n_states
    assert sys_.table.shape == (2, n_states * (1 + 3 ** 2), sys_.in_dim)
    rows = []
    for s in range(n_states):
        rows.append(sys_._row(np.array([s]), None)[0])
        assert np.array_equal(sys_.table[:, rows[-1]], sys_._input(s, None))
        for msgs in itertools.product(range(3), repeat=2):
            rows.append(sys_._row(np.array([s]), np.array([msgs]))[0])
            assert np.array_equal(sys_.table[:, rows[-1]], sys_._input(s, list(msgs)))
    assert sorted(rows) == list(range(len(sys_.table[0])))


def test_td_update_runs_the_target_heads_only_after_a_sync(monkeypatch):
    sys_ = RialSystem(relay(), np.random.default_rng(17), target_interval=3)
    rng, buf = np.random.default_rng(6), ReplayBuffer(5000)
    while len(buf) < 4:
        fill(sys_, buf, rng, 1)
    calls = count_calls(monkeypatch, sys_.target, ["op"])
    counts = []
    for _ in range(7):
        sys_.td_update(buf.sample((2, 4), rng))
        counts.append(calls["op"])
    per_build = counts[0]
    assert per_build > 0
    assert counts == [per_build] * 3 + [2 * per_build] * 3 + [3 * per_build]
    qa, qm = sys_.heads.forward(sys_.target, sys_.table)
    assert np.array_equal(sys_.target_table(), qa.max(axis=2) + qm.max(axis=2))


def test_factored_td_terminal_loss_is_squared_reward():
    sys_ = RialSystem(relay(), np.random.default_rng(12))
    sys_.opt.value[...] = 0.0
    sys_.target_value[...] = 0.0
    zero = np.zeros(2, dtype=int)    # row 0: state 0 at t=0
    buf = ReplayBuffer(5000)
    buf.push(RialTransition(zero, zero, zero, np.ones(2), zero, np.ones(2, dtype=bool)))
    loss = sys_.td_update(buf.sample((2, 1), np.random.default_rng(0)))
    assert loss == 2.0


def test_td_update_runs_one_backward_for_all_heads(monkeypatch):
    sys_ = RialSystem(relay(), np.random.default_rng(13))
    rng, buf = np.random.default_rng(1), ReplayBuffer(5000)
    while len(buf) < 4:
        fill(sys_, buf, rng, 1)
    calls = count_calls(monkeypatch, dial, ["backward", "adam_step"])
    sys_.td_update(buf.sample((2, 4), rng))
    assert calls == {"backward": 1, "adam_step": 1}


def test_rial_learns_to_signal():
    env = relay()
    rng = np.random.default_rng(0)
    sys_ = RialSystem(env, rng)
    buf = ReplayBuffer(5000)
    acc = 0.0
    for step in range(12000):
        rial_step(sys_, buf, rng, 0.15)
        if step % 1000 == 999:
            acc = sys_.evaluate(300, rng)
            if acc >= 0.9:
                break
    assert acc >= 0.9


def test_rial_reaches_the_env_only_through_its_batched_calls(monkeypatch):
    sys_ = RialSystem(relay(), np.random.default_rng(15))
    calls = count_calls(monkeypatch, envs.MarkovGame, ["reset_batch", "step_batch"])
    rng, buf = np.random.default_rng(4), ReplayBuffer(5000)
    losses = [rial_step(sys_, buf, rng, 0.3, batch_size=4) for _ in range(5)]
    assert losses[0] is None and losses[-1] is not None
    sys_.evaluate(50, rng)
    horizon = relay().horizon
    assert calls == {"reset_batch": 6, "step_batch": 6 * horizon}


def test_play_episode_returns_one_record_per_env_step(monkeypatch):
    sys_ = RialSystem(relay(), np.random.default_rng(16))
    calls = count_calls(monkeypatch, envs.MarkovGame, ["step_batch"])
    records = sys_.play_episode(np.random.default_rng(5), 0.5)
    assert len(records) == calls["step_batch"] == relay().horizon
    buf = ReplayBuffer(5000)
    for record in records:
        buf.push(record)
    b = buf.contents()
    assert b.row.shape == b.row_next.shape == (relay().horizon, 2)
    assert b.row.dtype.kind == "i" and (b.row == b.row[:, :1]).all()
    assert np.array_equal(b.row_next[0], b.row[1])
    assert b.row[0, 0] < relay().n_states <= b.row[1, 0]    # no messages yet, then some
    assert b.done.tolist() == [[False, False], [True, True]]
    # the same draws as a rollout of one: the final shared reward is the rollout's
    _, steps = sys_.rollout(1, np.random.default_rng(5), 0.5)
    assert steps.reward[-1, 0, 0] == b.reward[-1, 0]


def test_unroll_steps_all_episodes_together(monkeypatch):
    calls = count_calls(monkeypatch, envs.MarkovGame, ["step_batch"])
    u = make_system(seed=4).unroll(Graph(), 32, np.random.default_rng(0))
    assert u.actions.shape == (2, 32, 2)
    assert calls == {"step_batch": 2}


# -- one stack for all agents -------------------------------------------------

@pytest.mark.parametrize("learner", [DialSystem, RialSystem])
@pytest.mark.parametrize("edit", ["obs", "actions"])
def test_comm_learners_refuse_unequal_agents(learner, edit):
    env = relay()
    if edit == "obs":
        env.obs_tables = [env.obs_tables[0], np.zeros((env.n_states, 2))]
    else:
        env.action_space = [env.action_space[0], envs.Discrete(3)]
    with pytest.raises(DialError, match="equal observation widths and action counts"):
        learner(env, np.random.default_rng(0))


def _per_agent_unroll(sys_, cells, bits):
    """The unroll as per-agent cells run it, each agent's records apart; returns the loss
    after its backward."""
    env, n, g = sys_.env, sys_.n_agents, Graph()
    index = np.asarray(bits)
    h = [g.constant(np.zeros((len(bits), sys_.hidden_dim))) for _ in cells]
    prev = None
    for t in range(env.horizon):
        scores, msgs = [], []
        for i, cell in enumerate(cells):
            if sys_.channel == "zeroed" or prev is None:
                incoming = g.constant(np.zeros((len(bits), (n - 1) * sys_.msg_dim)))
            else:
                others = [prev[j] for j in range(n) if j != i]
                incoming = others[0] if len(others) == 1 else g.concat(*others)
            obs = g.constant(env.obs_tables[i][index])
            score, msg, h[i] = cell.forward(g, obs, incoming, h[i])
            scores.append(score)
            msgs.append(msg)
        joint = np.stack([s.value.argmax(axis=-1) for s in scores], axis=-1)
        index, _, _ = env.step_batch(index, t, joint, np.random.default_rng(0))
        prev = msgs
    logp = g.log_softmax(scores[env.meta["listener"]])
    loss = g.neg(g.mean(g.pick(logp, np.asarray(env.meta["bit_of_state"])[bits])))
    backward(g, loss)
    return loss


@pytest.mark.parametrize("channel", CHANNEL_MODES)
@pytest.mark.parametrize("net_hidden", [(), (16,)])
def test_stacked_unroll_equals_per_agent_cells_bit_for_bit(channel, net_hidden):
    rng = np.random.default_rng(31)
    sys_ = DialSystem(relay(), rng, msg_dim=2, hidden_dim=3, net_hidden=net_hidden,
                      channel=channel)
    for p in sys_.params():
        p.value[...] = rng.normal(scale=0.7, size=p.value.shape)
    cells = [dial.CommAgentCell(1, 2, 2, 3, 2, net_hidden, rng, f"ref{i}") for i in range(2)]
    for cell, views in zip(cells, sys_.checkpoint_tree()["cells"]):
        for p, view in zip(cell.net.params, views):
            p.value[...] = view.value
    bits = rng.integers(2, size=16)
    u = sys_.unroll(Graph(), None, np.random.default_rng(0), bits=bits)
    loss = sys_.loss_tensor(u)
    backward(u.graph, loss)
    assert loss.value == _per_agent_unroll(sys_, cells, bits).value
    for i, cell in enumerate(cells):
        for stacked, p in zip(sys_.params(), cell.net.params):
            assert stacked.grad[i].tobytes() == p.grad.tobytes()
    assert np.any(sys_.params()[0].grad[relay().meta["listener"]])


def test_rial_td_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(21)
    sys_ = RialSystem(relay(), rng, net_hidden=(6,))
    buf = ReplayBuffer(5000)
    fill(sys_, buf, rng, 4)
    # every parameter, biases too, away from zero: at their initial zero biases, all-zero
    # input rows put relu inputs at the kink, where finite differences straddle it
    for p in sys_.opt.params:
        p.value[...] = rng.choice([-1.0, 1.0], size=p.shape) * rng.uniform(0.2, 1.0, size=p.shape)
    own = np.arange(sys_.n_agents)
    b = RialTransition._make(col[own, :, own] for col in buf.sample((2, 6), rng))
    y = rng.normal(size=(sys_.n_agents, 6))
    err = grad_check(lambda g: sys_.td_loss(g, b, y)[0], sys_.opt.params)
    assert err < cli.GRADCHECK_TOL


def test_stacked_td_update_equals_per_head_updates_bit_for_bit():
    sys_ = RialSystem(relay(), np.random.default_rng(14), target_interval=7)
    rng, buf = np.random.default_rng(2), ReplayBuffer(5000)
    for _ in range(30):
        rial_step(sys_, buf, rng, 0.5, batch_size=8)   # Adam moments, a target synced at 7, 14 ...
    assert sys_.learn_steps % 7 and sys_.opt.step_count > 7
    heads, opts, targets = [], [], []
    for i, views in enumerate(sys_.checkpoint_tree()["heads"]):
        head = dial.FactoredQHead(sys_.in_dim, 2, 2, (32,), np.random.default_rng(0), f"ref{i}")
        for p, view in zip(head.net.params, views):
            p.value[...] = view.value
        opt = AdamState(head.net.params, lr=5e-3)
        opt.m[...], opt.v[...] = np.split(sys_.opt.m, 2)[i], np.split(sys_.opt.v, 2)[i]
        opt.step_count = sys_.opt.step_count
        (vector,), target = target_graph([opt])
        vector[...] = np.split(sys_.target_value, 2)[i]
        heads.append(head)
        opts.append(opt)
        targets.append(target)

    ref_rng = np.random.default_rng(3)
    g, total = Graph(), None
    for i, (head, target) in enumerate(zip(heads, targets)):
        # agent i's own size-B draw, in agent order, of its column of the replay
        b = RialTransition._make(col[:, i] for col in buf.sample(8, ref_rng))
        qa2, qm2 = head.forward(target, sys_.table[i])
        y = b.reward + sys_.gamma * (1.0 - b.done) * (qa2.max(axis=1) + qm2.max(axis=1))[b.row_next]
        qa, qm = head.forward(g, g.constant(sys_.table[i][b.row]))
        taken = g.add(g.pick(qa, b.action), g.pick(qm, b.message))
        term = g.mean(g.square(g.sub(taken, g.constant(y[:, None]))))
        total = term if total is None else g.add(total, term)
    backward(g, total)
    for opt in opts:
        adam_step(opt.params, opt)

    rng = np.random.default_rng(3)
    assert sys_.td_update(buf.sample((2, 8), rng)) == float(total.value)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    for i, opt in enumerate(opts):
        for mine, ref in ((sys_.opt.value, opt.value), (sys_.opt.m, opt.m), (sys_.opt.v, opt.v)):
            assert np.split(mine, 2)[i].tobytes() == ref.tobytes()


def test_one_update_records_one_stack_of_ops(monkeypatch):
    sys_ = make_system(seed=9)
    u = sys_.unroll(Graph(), 32, np.random.default_rng(0))
    sys_.update(u)
    assert len(u.graph.records) <= 17    # t=0 concatenates constants alone: no record
    assert len(u.messages) == relay().horizon - 1
    assert [r.kind for r in u.graph.records].count("dense") == 2 * relay().horizon

    rial = RialSystem(relay(), np.random.default_rng(13))
    rng, buf = np.random.default_rng(1), ReplayBuffer(5000)
    while len(buf) < 4:
        fill(rial, buf, rng, 1)
    sample = buf.sample((2, 4), rng)
    records = count_calls(monkeypatch, ndiff, ["forward_op"])
    steps = count_calls(monkeypatch, dial, ["adam_step"])
    rial.td_update(sample)
    assert records["forward_op"] <= 10
    assert steps["adam_step"] == 1

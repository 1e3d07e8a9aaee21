import numpy as np
import pytest

from marlab import dial, envs
from marlab.dial import (
    CHANNEL_MODES,
    DialError,
    DialSystem,
    RialSystem,
    RialTransition,
    StaleTrace,
    greedy_factored,
)
from marlab.ndiff import EVAL, Graph, Stacked, grad_check, tree_from_json, tree_to_json

from calls import count_calls


def relay():
    return envs.fixture_by_name("signal_relay")


def make_system(seed=0, **kw):
    return DialSystem(relay(), np.random.default_rng(seed), **kw)


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
    assert np.array_equal(u.incoming[(listener, 1)].value, u.messages[(speaker, 0)].value)
    assert np.array_equal(u.incoming[(speaker, 1)].value, u.messages[(listener, 0)].value)
    assert np.all(u.incoming[(listener, 0)].value == 0.0)


def test_zeroed_message_weights_silence_the_channel():
    sys_ = make_system(seed=2)
    cell = sys_.cells[0]
    a, d = cell.n_actions, cell.msg_dim
    cell.net.weights[-1].value[:, a:a + d] = 0.0
    cell.net.biases[-1].value[:, a:a + d] = 0.0
    u = sys_.unroll(Graph(), None, np.random.default_rng(0), bits=[0, 1])
    assert np.all(u.messages[(0, 0)].value == 0.0)
    assert np.all(u.incoming[(1, 1)].value == 0.0)


def test_loss_gradient_crosses_the_channel():
    sys_ = make_system(seed=3)
    u = sys_.unroll(Graph(), None, np.random.default_rng(0), bits=[0, 1, 0, 1])
    loss = sys_.loss_tensor(u)
    from marlab.ndiff import backward

    backward(u.graph, loss)
    speaker = relay().meta["speaker"]
    cell = sys_.cells[speaker]
    a, d = cell.n_actions, cell.msg_dim
    msg_grad = cell.net.weights[-1].grad[:, a:a + d]
    assert np.max(np.abs(msg_grad)) > 0.0


def test_zeroed_channel_blocks_the_gradient():
    sys_ = make_system(seed=3, channel="zeroed")
    u = sys_.unroll(Graph(), None, np.random.default_rng(0), bits=[0, 1, 0, 1])
    loss = sys_.loss_tensor(u)
    from marlab.ndiff import backward

    backward(u.graph, loss)
    speaker = relay().meta["speaker"]
    cell = sys_.cells[speaker]
    a, d = cell.n_actions, cell.msg_dim
    assert np.all(cell.net.weights[-1].grad[:, a:a + d] == 0.0)


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
    rng = np.random.default_rng(10)
    x = sys_._input(0, 0, None)
    counts = np.zeros((2, 2))
    for _ in range(10000):
        a, m = sys_._choose(0, x, 1.0, rng)
        counts[a, m] += 1
    chi2 = float((((counts - 2500.0) ** 2) / 2500.0).sum())
    assert chi2 < 11.34  # chi-square critical value, 3 dof, p=0.01


def test_input_layout_carries_own_previous_message():
    sys_ = RialSystem(relay(), np.random.default_rng(11))
    x0 = sys_._input(0, 0, None)
    assert x0.shape == (5,)
    assert np.array_equal(x0[1:], np.zeros(4))
    x1 = sys_._input(0, 2, [1, 0])
    # layout: obs, other agent's message one-hot, own message one-hot
    assert np.array_equal(x1[1:3], [1.0, 0.0])
    assert np.array_equal(x1[3:5], [0.0, 1.0])


def test_factored_td_terminal_loss_is_squared_reward():
    sys_ = RialSystem(relay(), np.random.default_rng(12), batch_size=1)
    for opt, target in zip(sys_.opts, sys_.target_values):
        opt.value[...] = 0.0
        target[...] = 0.0
    for i in range(2):
        x = tuple(np.zeros(sys_.in_dims[i]))
        sys_.buffers[i].push(RialTransition(x, 0, 0, 1.0, x, True))
    loss = sys_.td_update(np.random.default_rng(0))
    assert loss == 2.0


def test_td_update_runs_one_backward_for_all_heads(monkeypatch):
    sys_ = RialSystem(relay(), np.random.default_rng(13), batch_size=4)
    rng = np.random.default_rng(1)
    while len(sys_.buffers[0]) < 4:
        sys_.play_episode(rng, 0.5)
    calls = count_calls(monkeypatch, dial, ["backward", "adam_step"])
    sys_.td_update(rng)
    assert calls == {"backward": 1, "adam_step": 2}


def test_rial_learns_to_signal():
    env = relay()
    rng = np.random.default_rng(0)
    sys_ = RialSystem(env, rng)
    acc = 0.0
    for step in range(12000):
        sys_.step(rng, 0.15)
        if step % 1000 == 999:
            acc = sys_.evaluate(300, rng)
            if acc >= 0.9:
                break
    assert acc >= 0.9


def test_unroll_steps_all_episodes_together(monkeypatch):
    calls = count_calls(monkeypatch, envs.MarkovGame, ["step", "step_batch"])
    u = make_system(seed=4).unroll(Graph(), 32, np.random.default_rng(0))
    assert u.actions.shape == (2, 32, 2)
    assert calls == {"step": 0, "step_batch": 2}

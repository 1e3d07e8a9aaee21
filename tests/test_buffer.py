import numpy as np
import pytest

from marlab.buffer import Empty, EpisodeTrace, JointTransition, ReplayBuffer


def test_fifo_overwrite():
    buf = ReplayBuffer(2)
    for i in (1, 2, 3):
        buf.push(i)
    assert len(buf) == 2
    assert sorted(buf.contents()) == [2, 3]
    assert buf.contents() == [2, 3]


def test_contents_keep_push_order():
    buf = ReplayBuffer(3)
    for i in range(7):
        buf.push(i)
    assert buf.contents() == [4, 5, 6]


def test_singleton_sample():
    buf = ReplayBuffer(4)
    buf.push("only")
    assert buf.sample(3, np.random.default_rng(0)) == ["only"] * 3


def test_sample_uniformity():
    buf = ReplayBuffer(10)
    for i in range(2):
        buf.push(i)
    rng = np.random.default_rng(7)
    draws = buf.sample(10_000, rng)
    freq = sum(draws) / len(draws)
    assert 0.45 < freq < 0.55


def test_sample_determinism():
    buf = ReplayBuffer(5)
    for i in range(5):
        buf.push(i)
    a = buf.sample(20, np.random.default_rng(3))
    b = buf.sample(20, np.random.default_rng(3))
    assert a == b


def test_sample_larger_than_len_allowed():
    buf = ReplayBuffer(5)
    buf.push(1)
    buf.push(2)
    out = buf.sample(50, np.random.default_rng(1))
    assert len(out) == 50 and set(out) <= {1, 2}


def test_empty_raises():
    with pytest.raises(Empty):
        ReplayBuffer(3).sample(1, np.random.default_rng(0))


def test_joint_transition_fields():
    t = JointTransition(state=0, actions=(1, 0), rewards=(1.0, -1.0),
                        next_state=0, done=True)
    assert t.actions == (1, 0)


def test_episode_trace_length():
    tr = EpisodeTrace()
    tr.actions.append((0, 1))
    tr.rewards.append((0.0, 0.0))
    assert len(tr) == 1

import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marlab.buffer import Empty, JointTransition, ReplayBuffer


class Item(typing.NamedTuple):
    value: object


def filled(capacity, values):
    buf = ReplayBuffer(capacity)
    for v in values:
        buf.push(Item(v))
    return buf


def test_fifo_overwrite():
    buf = filled(2, (1, 2, 3))
    assert len(buf) == 2
    assert sorted(buf.contents().value) == [2, 3]
    assert buf.contents().value.tolist() == [2, 3]


def test_contents_keep_push_order():
    buf = filled(3, range(7))
    assert buf.contents().value.tolist() == [4, 5, 6]


@given(capacity=st.integers(1, 7), pushes=st.integers(1, 30), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, derandomize=True, deadline=None)
def test_ring_keeps_the_last_records_in_push_order(capacity, pushes, seed):
    values = np.random.default_rng(seed).normal(size=pushes).tolist()
    buf = filled(capacity, values)
    kept = values[-min(pushes, capacity):]
    assert buf.contents().value.tolist() == kept
    assert set(buf.sample(20, np.random.default_rng(seed)).value.tolist()) <= set(kept)


def test_singleton_sample():
    buf = filled(4, ["only"])
    assert buf.sample(3, np.random.default_rng(0)).value.tolist() == ["only"] * 3


def test_sample_uniformity():
    buf = filled(10, range(2))
    rng = np.random.default_rng(7)
    draws = buf.sample(10_000, rng).value
    freq = sum(draws) / len(draws)
    assert 0.45 < freq < 0.55


def test_sample_determinism():
    buf = filled(5, range(5))
    a = buf.sample(20, np.random.default_rng(3))
    b = buf.sample(20, np.random.default_rng(3))
    assert np.array_equal(a.value, b.value)


def test_sample_larger_than_len_allowed():
    buf = filled(5, (1, 2))
    out = buf.sample(50, np.random.default_rng(1)).value
    assert len(out) == 50 and set(out.tolist()) <= {1, 2}


def test_empty_raises():
    with pytest.raises(Empty):
        ReplayBuffer(3).sample(1, np.random.default_rng(0))
    with pytest.raises(Empty):
        ReplayBuffer(3).contents()


def test_joint_transition_fields():
    t = JointTransition(state=0, actions=(1, 0), rewards=(1.0, -1.0),
                        next_state=0, done=True)
    assert t.actions == (1, 0)


@pytest.mark.parametrize("pushes", [3, 12])
def test_sample_stacks_the_records_at_the_drawn_slots(pushes):
    # the reference is a list ring: record p sits in slot p % capacity
    rng = np.random.default_rng(pushes)
    capacity, ring = 5, [None] * 5
    buf = ReplayBuffer(capacity)
    for p in range(pushes):
        tr = JointTransition(state=int(rng.integers(4)), actions=tuple(rng.integers(3, size=2)),
                             rewards=tuple(rng.normal(size=2)),
                             next_state=int(rng.integers(4)), done=bool(rng.random() < 0.5))
        ring[p % capacity] = tr
        buf.push(tr)
    idx = np.random.default_rng(9).integers(0, len(buf), size=40)
    batch = buf.sample(40, np.random.default_rng(9))
    assert isinstance(batch, JointTransition)
    for name, col in zip(JointTransition._fields, batch):
        assert np.array_equal(col, np.array([getattr(ring[i], name) for i in idx]))


@pytest.mark.parametrize("bad", [
    JointTransition(state=0.5, actions=(0, 1), rewards=(1.0, 1.0), next_state=1, done=False),
    JointTransition(state=3, actions=1, rewards=(1.0, 1.0), next_state=1, done=False),
])
def test_value_its_column_cannot_hold_raises(bad):
    buf = ReplayBuffer(1)
    buf.push(JointTransition(state=0, actions=(0, 1), rewards=(1.0, 1.0),
                             next_state=1, done=False))
    with pytest.raises(TypeError):
        buf.push(bad)
    assert len(buf) == 1 and buf.contents().state.tolist() == [0]
    assert buf.contents().actions.tolist() == [[0, 1]]


def test_a_record_of_other_dtypes_its_columns_hold_without_loss_writes():
    buf = ReplayBuffer(2)
    buf.push(JointTransition(state=0, actions=(0, 1), rewards=(1.0, 1.0),
                             next_state=1, done=False))
    buf.push(JointTransition(state=np.int8(3), actions=np.array([2, 0], np.int32),
                             rewards=np.array([0.5, -2.0], np.float32), next_state=np.uint8(2),
                             done=np.True_))
    got = buf.contents()
    assert got.state.tolist() == [0, 3] and got.actions.tolist() == [[0, 1], [2, 0]]
    assert got.rewards.tolist() == [[1.0, 1.0], [0.5, -2.0]] and got.rewards.dtype == np.float64
    assert got.next_state.tolist() == [1, 2] and got.done.tolist() == [False, True]


@pytest.mark.parametrize("pushes", [1, 5, 12])
@pytest.mark.parametrize("batch", [1, 3, 32])
def test_sample_of_a_shape_equals_one_call_per_row_in_order(pushes, batch):
    buf = filled(7, range(pushes))
    for seed in range(20):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        rows = buf.sample((3, batch), rng).value
        assert rows.shape == (3, batch)
        assert np.array_equal(rows, [buf.sample(batch, ref).value for _ in range(3)])
        assert rng.bit_generator.state == ref.bit_generator.state

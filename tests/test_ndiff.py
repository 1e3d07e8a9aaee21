import copy
import gc
import importlib
import pkgutil
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import marlab
from marlab import dial, envs, maddpg, ndiff, qmix, selfplay
from marlab.ndiff import (
    EVAL,
    AdamState,
    DenseNet,
    Graph,
    NdiffError,
    NonFiniteGradient,
    NonScalarRoot,
    ShapeMismatch,
    StaleState,
    Tensor,
    UnknownOp,
    adam_step,
    backward,
    clip_grad_norm,
    copy_params,
    flatten,
    forward_op,
    grad_check,
    param,
    params_from_json,
    params_to_json,
    polyak_update,
    sgd_step,
)

from calls import count_calls


def test_matmul_forward():
    g = Graph()
    a = g.constant([[1.0, 2.0]])
    b = g.constant([[3.0], [4.0]])
    out = forward_op(g, "matmul", (a, b))
    assert out.value.shape == (1, 1)
    assert out.value[0, 0] == 11.0


def test_matmul_shape_mismatch():
    g = Graph()
    a = g.constant(np.zeros((2, 3)))
    b = g.constant(np.zeros((2, 3)))
    with pytest.raises(ShapeMismatch):
        g.matmul(a, b)


def test_add_shape_mismatch():
    g = Graph()
    with pytest.raises(ShapeMismatch):
        g.add(g.constant(np.zeros((2, 3))), g.constant(np.zeros((3, 2))))


def test_row_broadcast_shape_mismatch():
    g = Graph()
    with pytest.raises(ShapeMismatch):
        g.add(g.constant(np.zeros((2, 3))), g.constant(np.zeros((1, 2))))
    with pytest.raises(ShapeMismatch):
        g.mul(g.constant(np.zeros((2, 3))), g.constant(np.zeros((2, 1))))


def test_pick_shape_mismatch():
    g = Graph()
    x = g.constant(np.zeros((3, 2)))
    with pytest.raises(ShapeMismatch):
        g.pick(x, [0, 1])
    with pytest.raises(ShapeMismatch):
        g.pick(x, [[0], [1], [1]])


# each case: op name -> (tape forward of (x, row, index), plain numpy forward)
_WIDENED_OPS = {
    "pick": (lambda g, x, row, idx: g.pick(x, idx),
             lambda x, row, idx: x[np.arange(len(x)), idx][:, None]),
    "log_softmax": (lambda g, x, row, idx: g.log_softmax(x),
                    lambda x, row, idx: np.log(np.exp(x) / np.exp(x).sum(axis=1, keepdims=True))),
    "add_row": (lambda g, x, row, idx: g.add(x, row), lambda x, row, idx: x + row),
    "row_add": (lambda g, x, row, idx: g.add(row, x), lambda x, row, idx: row + x),
    "mul_row": (lambda g, x, row, idx: g.mul(x, row), lambda x, row, idx: x * row),
    "row_mul": (lambda g, x, row, idx: g.mul(row, x), lambda x, row, idx: row * x),
    "sum_axis1": (lambda g, x, row, idx: g.sum(x, axis=1),
                  lambda x, row, idx: x.sum(axis=1, keepdims=True)),
}


@pytest.mark.parametrize("kind", sorted(_WIDENED_OPS))
@given(n=st.integers(1, 5), k=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=15, derandomize=True, deadline=None)
def test_pick_log_softmax_and_broadcasts_match_numpy_and_finite_differences(kind, n, k, seed):
    # entries and weights are kept away from zero so that no gradient
    # coordinate is small enough for finite-difference rounding to dominate
    rng = np.random.default_rng(seed)
    x = param(rng.uniform(0.5, 1.5, size=(n, k)))
    row = param(rng.uniform(0.5, 1.5, size=(1, k)))
    idx = rng.integers(k, size=n)
    tape_fw, numpy_fw = _WIDENED_OPS[kind]
    g = Graph()
    out = tape_fw(g, x, row, idx)
    expect = numpy_fw(x.value, row.value, idx)
    assert out.shape == expect.shape
    if kind == "log_softmax":
        assert np.allclose(out.value, expect, rtol=0.0, atol=1e-12)
    else:
        assert np.array_equal(out.value, expect)
    weights = rng.uniform(0.5, 1.5, size=expect.shape)

    def f():
        g = Graph()
        return g, g.sum(g.mul(tape_fw(g, x, row, idx), g.constant(weights)))

    assert grad_check(f, [x, row]) < 1e-6


def test_log_softmax_and_pick_stay_finite_on_far_apart_logits():
    # log(softmax(x)) underflows to log(0) = -inf here, and its gradient is nan
    for index in (0, 1):
        x = param(np.array([[0.0, 800.0]]))
        g = Graph()
        loss = g.neg(g.sum(g.pick(g.log_softmax(x), [index])))
        backward(g, loss)
        assert loss.item() == [800.0, 0.0][index]
        assert np.array_equal(x.grad, [[-1.0, 1.0]] if index == 0 else [[0.0, 0.0]])
    logits = param(np.array([[0.0, 800.0]]))
    loss = selfplay._policy_gradient_step(logits, 0.05, np.array([1.0, 0.0]), 1.0)
    assert np.isfinite(loss) and loss == 800.0
    assert np.all(np.isfinite(logits.value))
    assert np.allclose(logits.value, [[0.05, 799.95]], rtol=0.0, atol=1e-9)


def _op_cases():
    """(kind, input arrays, attrs) covering every kind in the op table."""
    rng = np.random.default_rng(17)
    x = rng.normal(size=(3, 4))
    cases = [("matmul", [x, rng.normal(size=(4, 2))], {}),
             ("concat", [x, rng.normal(size=(3, 2)), rng.normal(size=(3, 1))], {}),
             ("slice", [x], {"start": 1, "stop": 3}),
             ("pick", [x], {"index": [3, 0, 2]}),
             ("sum", [x], {}),
             ("sum", [x], {"axis": 1}),
             ("log", [rng.uniform(0.5, 2.0, size=(3, 4))], {})]
    for kind in ("add", "mul"):
        cases += [(kind, [x, rng.normal(size=(3, 4))], {}),
                  (kind, [x, rng.normal(size=(1, 4))], {}),
                  (kind, [np.array(2.5), x], {})]
    cases += [("dense", [x, rng.normal(size=(4, 2)), rng.normal(size=(1, 2))], {"act": act})
              for act in ndiff._ACTIVATIONS]
    cases += [(kind, [x], {}) for kind in ndiff.OPS if kind not in {k for k, _, _ in cases}]
    return cases


def _case_id(case):
    kind, arrays, attrs = case
    shapes = ",".join("x".join(map(str, a.shape)) or "scalar" for a in arrays)
    return f"{kind}[{shapes}]" + ("-axis1" if attrs.get("axis") else "") + (
        f"-{attrs['act']}" if "act" in attrs else "")


@pytest.mark.parametrize("kind, arrays, attrs", _op_cases(),
                         ids=[_case_id(c) for c in _op_cases()])
def test_off_tape_op_equals_the_recorded_op(kind, arrays, attrs):
    g = Graph()
    recorded = forward_op(g, kind, [g.constant(a) for a in arrays], **attrs).value
    off = EVAL.op(kind, arrays, **attrs)
    assert type(off) is np.ndarray
    assert off.shape == recorded.shape and np.array_equal(off, recorded)
    assert EVAL.records == []


def test_off_tape_reads_tensors_and_cannot_be_differentiated():
    w = param(np.ones((2, 2)))
    out = EVAL.sum(EVAL.matmul(np.ones((1, 2)), w))
    assert type(out) is np.ndarray and out == 4.0
    assert isinstance(EVAL, Graph) and EVAL.records == []
    with pytest.raises(NdiffError):
        backward(EVAL, out)
    with pytest.raises(UnknownOp):
        EVAL.op("conv2d", [np.zeros((2, 2))])


def test_no_model_keeps_a_second_forward():
    assert not hasattr(ndiff, "apply_np")
    twins = {"forward_np", "values_np", "_mix_np", "_mix_graph", "scaled_graph"}
    for info in pkgutil.iter_modules(marlab.__path__):
        mod = importlib.import_module(f"marlab.{info.name}")
        for name, cls in vars(mod).items():
            if isinstance(cls, type) and cls.__module__ == mod.__name__:
                assert not twins & set(vars(cls)), f"{mod.__name__}.{name}"


@given(sizes=st.lists(st.integers(1, 6), min_size=2, max_size=4),
       acts=st.lists(st.sampled_from(ndiff._ACTIVATIONS),
                     min_size=3, max_size=3),
       batch=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, derandomize=True, deadline=None)
def test_dense_net_off_tape_forward_equals_the_tape(sizes, acts, batch, seed):
    rng = np.random.default_rng(seed)
    net = DenseNet(sizes, acts[:len(sizes) - 1], rng)
    for b in net.biases:
        b.value[...] = rng.normal(size=b.shape)
    x = rng.normal(size=(batch, sizes[0]))
    g = Graph()
    assert np.array_equal(net.forward(EVAL, x), net.forward(g, g.constant(x)).value)


def _dense_chain(g, x, w, b, act, fused):
    if fused:
        return g.op("dense", (x, w, b), act=act)
    h = g.add(g.matmul(x, w), b)
    return h if act == "identity" else g.op(act, (h,))


@pytest.mark.parametrize("act", ndiff._ACTIVATIONS)
@pytest.mark.parametrize("batch", [1, 4])
@given(n_in=st.integers(1, 4), n_out=st.integers(1, 4), x_on_path=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=10, derandomize=True, deadline=None)
def test_dense_record_equals_the_unfused_chain_bit_for_bit(act, batch, n_in, n_out, x_on_path,
                                                           seed):
    rng = np.random.default_rng(seed)
    arrays = (rng.normal(size=(batch, n_in)), rng.normal(size=(n_in, n_out)),
              rng.normal(size=(1, n_out)))
    weights = rng.normal(size=(batch, n_out))
    results = []
    for fused in (True, False):
        g = Graph()
        x, w, b = (param(a) for a in arrays)
        xin = x if x_on_path else g.constant(arrays[0])
        out = _dense_chain(g, xin, w, b, act, fused)
        backward(g, g.sum(g.mul(out, g.constant(weights))))
        results.append([out.value, x.grad, w.grad, b.grad])
    for fused_value, chain_value in zip(*results):
        assert np.array_equal(fused_value, chain_value)
    assert x_on_path or not np.any(results[0][1])


def test_dense_net_forward_is_one_record_or_off_tape_op_per_layer(monkeypatch):
    rng = np.random.default_rng(5)
    net = DenseNet([3, 5, 4, 2], ["relu", "tanh", "identity"], rng)
    x = rng.normal(size=(2, 3))
    g = Graph()
    net.forward(g, g.constant(x))
    assert [r.kind for r in g.records] == ["dense"] * (len(net.layer_sizes) - 1)
    calls = count_calls(monkeypatch, ndiff.OffTape, ["op"])
    net.forward(EVAL, x)
    assert calls["op"] == len(net.layer_sizes) - 1


def test_scalar_broadcast_add_and_mul():
    g = Graph()
    x = param(np.array([[1.0, 2.0], [3.0, 4.0]]))
    c = g.constant(np.array(10.0))
    y = g.sum(g.mul(g.add(x, c), c))
    assert y.item() == (np.array([[11.0, 12.0], [13.0, 14.0]]) * 10).sum()
    backward(g, y)
    assert np.allclose(x.grad, 10.0)


def test_unknown_op():
    g = Graph()
    with pytest.raises(UnknownOp):
        forward_op(g, "conv2d", (g.constant(np.zeros((2, 2))),))


def test_backward_sum_of_squares():
    g = Graph()
    x = param(np.array([1.0, 2.0, 3.0]))
    y = g.sum(g.square(x))
    assert y.item() == 14.0
    backward(g, y)
    assert np.array_equal(x.grad, np.array([2.0, 4.0, 6.0]))


def test_backward_requires_scalar_root():
    g = Graph()
    x = param(np.array([1.0, 2.0]))
    y = g.square(x)
    with pytest.raises(NonScalarRoot):
        backward(g, y)


def test_backward_fan_out_accumulates():
    # x feeds two ops: y = sum(x*x + x) so dy/dx = 2x + 1
    g = Graph()
    x = param(np.array([1.0, -2.0, 0.5]))
    y = g.sum(g.add(g.mul(x, x), x))
    backward(g, y)
    assert np.allclose(x.grad, 2.0 * x.value + 1.0)


def test_backward_accumulates_across_calls():
    x = param(np.array([3.0]))
    for _ in range(2):
        g = Graph()
        y = g.sum(g.square(x))
        backward(g, y)
    assert np.allclose(x.grad, 2.0 * 2.0 * 3.0)


def test_constants_get_no_grad():
    g = Graph()
    x = param(np.array([2.0]))
    c = g.constant(np.array([5.0]))
    y = g.sum(g.mul(x, c))
    backward(g, y)
    assert np.allclose(x.grad, 5.0)
    assert c.grad is None


def test_op_outputs_carry_no_grad_buffer():
    rng = np.random.default_rng(11)
    net = DenseNet([2, 2, 1], ["relu", "identity"], rng)
    g = Graph()
    c = g.constant(np.ones((1, 2)))
    frozen = g.tanh(c)
    out = g.sum(net.forward(g, c))
    assert not frozen.requires_grad
    assert out.requires_grad
    backward(g, out)
    assert all(rec.output.grad is None for rec in g.records)
    assert all(p.grad.shape == p.value.shape for p in net.params)
    assert c.grad is None


def test_backward_rejects_a_root_off_the_graph():
    x = param(np.array([1.0, 2.0]))
    g1 = Graph()
    root = g1.sum(g1.square(x))
    g2 = Graph()
    g2.sum(x)
    with pytest.raises(NdiffError):
        backward(g2, root)
    with pytest.raises(NdiffError):
        backward(g1, x)
    assert np.array_equal(x.grad, [0.0, 0.0])


def test_dropped_graph_is_freed_without_the_cyclic_collector():
    net = DenseNet([3, 4, 1], ["tanh", "identity"], np.random.default_rng(0))
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        g = Graph()
        loss = g.mean(g.square(net.forward(g, g.constant(np.ones((2, 3))))))
        backward(g, loss)
        tape = weakref.ref(g)
        del g, loss
        assert tape() is None
    finally:
        if was_enabled:
            gc.enable()


def test_relu_and_elu_values():
    g = Graph()
    x = g.constant(np.array([-1.0, 0.0, 2.0]))
    assert np.array_equal(g.relu(x).value, [0.0, 0.0, 2.0])
    e = g.elu(x).value
    assert np.allclose(e, [np.expm1(-1.0), 0.0, 2.0])


def test_softmax_rows_sum_to_one():
    g = Graph()
    x = g.constant(np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]))
    y = g.softmax(x).value
    assert np.allclose(y.sum(axis=-1), 1.0)
    assert np.allclose(y[1], [1 / 3, 1 / 3, 1 / 3])


def test_slice_forward_backward():
    g = Graph()
    x = param(np.arange(12.0).reshape(3, 4))
    y = g.sum(g.slice(x, 1, 3))
    backward(g, y)
    expect = np.zeros((3, 4))
    expect[:, 1:3] = 1.0
    assert np.array_equal(x.grad, expect)
    with pytest.raises(ShapeMismatch):
        g.slice(x, 2, 1)


def test_concat_backward_splits():
    g = Graph()
    a = param(np.ones((2, 2)))
    b = param(np.ones((2, 3)))
    y = g.sum(g.mul(g.concat(a, b), g.constant(np.arange(10.0).reshape(2, 5))))
    backward(g, y)
    assert np.array_equal(a.grad, [[0.0, 1.0], [5.0, 6.0]])
    assert np.array_equal(b.grad, [[2.0, 3.0, 4.0], [7.0, 8.0, 9.0]])


def test_grad_check_linear_is_exact():
    x = param(np.array([1.0, -2.0, 0.5]))

    def f():
        g = Graph()
        return g, g.sum(x)

    assert grad_check(f, [x]) < 1e-10


def test_grad_check_skips_frozen_params():
    x = param(np.array([1.0]))
    frozen = Tensor(np.array([2.0]), requires_grad=False)

    def f():
        g = Graph()
        return g, g.sum(g.mul(x, frozen))

    err = grad_check(f, [x, frozen])
    assert err < 1e-8
    assert np.allclose(frozen.grad, 0.0)


def test_grad_check_dense_net_mse():
    rng = np.random.default_rng(7)
    net = DenseNet([3, 5, 2], ["tanh", "identity"], rng)
    x = np.asarray(rng.normal(size=(4, 3)))
    target = np.asarray(rng.normal(size=(4, 2)))

    def f():
        g = Graph()
        pred = net.forward(g, g.constant(x))
        return g, g.mean(g.square(g.sub(pred, g.constant(target))))

    assert grad_check(f, net.params) < 1e-4


def test_grad_check_random_net_suite():
    # broad sweep over op compositions; doubles as the autodiff half of the
    # finite-difference cross-validation suite
    rng = np.random.default_rng(1234)
    acts = ["relu", "elu", "tanh", "sigmoid"]
    worst = 0.0
    for trial in range(100):
        depth = int(rng.integers(1, 4))
        sizes = [int(rng.integers(1, 9)) for _ in range(depth + 1)]
        layer_acts = [acts[int(rng.integers(0, 4))] for _ in range(depth - 1)] + ["identity"]
        net = DenseNet(sizes, layer_acts, rng, name=f"n{trial}")
        x = np.asarray(rng.normal(size=(3, sizes[0])))
        target = np.asarray(rng.normal(size=(3, sizes[-1])))
        style = trial % 3

        def f():
            g = Graph()
            out = net.forward(g, g.constant(x))
            if style == 0:
                return g, g.mean(g.square(g.sub(out, g.constant(target))))
            if style == 1:
                return g, g.sum(g.mul(g.softmax(out), g.constant(target)))
            return g, g.mean(g.abs(g.tanh(out)))

        worst = max(worst, grad_check(f, net.params))
    assert worst < 1e-4


def test_adam_first_step_is_bias_corrected():
    w = param(np.array([0.0]))
    st = AdamState([w], lr=0.1)
    w.grad[...] = 1.0
    adam_step([w], st)
    assert st.step_count == 1
    assert np.allclose(w.grad, 0.0)
    assert abs(w.value[0] + 0.1) < 1e-8


def test_adam_zero_grad_leaves_params():
    w = param(np.array([1.5]))
    st = AdamState([w], lr=0.1)
    adam_step([w], st)
    assert w.value[0] == 1.5


def test_adam_quadratic_descent_matches_reference():
    # independent scalar Adam written out by hand, then compared step by step
    w = param(np.array([0.0]))
    st = AdamState([w], lr=0.3)
    ref_w, ref_m, ref_v = 0.0, 0.0, 0.0
    for t in range(1, 51):
        g = Graph()
        loss = g.square(g.sub(w, g.constant(np.array([3.0]))))
        backward(g, g.sum(loss))
        grad = 2.0 * (ref_w - 3.0)
        ref_m = 0.9 * ref_m + 0.1 * grad
        ref_v = 0.999 * ref_v + 0.001 * grad * grad
        mhat = ref_m / (1.0 - 0.9 ** t)
        vhat = ref_v / (1.0 - 0.999 ** t)
        ref_w -= 0.3 * mhat / (np.sqrt(vhat) + 1e-8)
        adam_step([w], st)
        assert abs(w.value[0] - ref_w) < 1e-12
    assert abs(w.value[0] - 3.0) < 0.1


def test_adam_stale_state():
    w = param(np.zeros((2,)))
    st = AdamState([w], lr=0.1)
    w.value = np.zeros((3,))
    w.grad = np.zeros((3,))
    with pytest.raises(StaleState):
        adam_step([w], st)
    other = param(np.zeros((2,)))
    with pytest.raises(StaleState):
        adam_step([other], AdamState([param(np.zeros((2,))), other], lr=0.1))


def test_flatten_views_accumulate_across_backward_calls():
    w = param(np.array([[1.0, 2.0], [3.0, 4.0]]))
    b = param(np.array([[0.5, -0.5]]))
    value, grad = flatten([w, b])
    assert np.array_equal(value, [1.0, 2.0, 3.0, 4.0, 0.5, -0.5])
    x = np.array([[1.0, 1.0]])
    for _ in range(2):
        g = Graph()
        backward(g, g.sum(g.add(g.matmul(g.constant(x), w), b)))
    assert np.array_equal(grad, [2.0, 2.0, 2.0, 2.0, 2.0, 2.0])
    for p in (w, b):
        assert p.value.base is value and p.grad.base is grad
    value[0] = 9.0
    assert w.value[0, 0] == 9.0


def test_flatten_rejects_a_duplicated_tensor():
    w = param(np.zeros((2,)))
    with pytest.raises(NdiffError):
        flatten([w, param(np.ones((1,))), w])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_gradient_raises_before_any_update(bad):
    w = param(np.array([1.0, 2.0]))
    st = AdamState([w], lr=0.1)
    w.grad[...] = 1.0
    adam_step([w], st)
    before = (w.value.copy(), st.m.copy(), st.v.copy())
    w.grad[...] = [0.5, bad]
    with pytest.raises(NonFiniteGradient, match="Adam step 2"):
        adam_step([w], st)
    assert st.step_count == 1
    for kept, now in zip(before, (w.value, st.m, st.v)):
        assert np.array_equal(kept, now)
    s = param(np.array([1.0]))
    s.grad[...] = bad
    with pytest.raises(NonFiniteGradient):
        sgd_step([s], 0.1)
    assert s.value[0] == 1.0


def test_polyak_endpoints_and_midpoint():
    src = [param(np.array([2.0, 4.0]))]
    dst = [param(np.array([0.0, 0.0]))]
    (src_vec, _), (dst_vec, _) = flatten(src), flatten(dst)
    polyak_update(src_vec, dst_vec, 0.0)
    assert np.array_equal(dst[0].value, [0.0, 0.0])
    polyak_update(src_vec, dst_vec, 0.5)
    assert np.array_equal(dst[0].value, [1.0, 2.0])
    copy_params(src_vec, dst_vec)
    assert np.array_equal(dst[0].value, [2.0, 4.0])
    with pytest.raises(ShapeMismatch):
        polyak_update(src_vec, flatten([param(np.zeros((3,)))])[0], 0.5)
    with pytest.raises(ValueError):
        polyak_update(src_vec, dst_vec, 1.5)


def test_clip_grad_norm():
    a = param(np.array([3.0]))
    b = param(np.array([4.0]))
    _, grad = flatten([a, b])
    a.grad[...] = 3.0
    b.grad[...] = 4.0
    total = clip_grad_norm(grad, max_norm=10.0)
    assert total == 5.0
    assert a.grad[0] == 3.0
    a.grad[...] = 30.0
    b.grad[...] = 40.0
    clip_grad_norm(grad, max_norm=10.0)
    assert np.allclose([a.grad[0], b.grad[0]], [6.0, 8.0])


def test_dense_net_init_and_forward_paths_agree():
    rng = np.random.default_rng(0)
    net = DenseNet([4, 6, 3], ["elu", "identity"], rng)
    for b in net.biases:
        assert np.array_equal(b.value, np.zeros_like(b.value))
    bound = np.sqrt(6.0 / (4 + 6))
    assert np.abs(net.weights[0].value).max() <= bound
    x = np.asarray(rng.normal(size=(5, 4)))
    g = Graph()
    out = net.forward(g, g.constant(x))
    assert np.array_equal(out.value, net.forward(EVAL, x))


def test_dense_net_clone_is_detached():
    rng = np.random.default_rng(3)
    net = DenseNet([2, 2], ["identity"], rng)
    twin = copy.deepcopy(net)
    assert [p.name for p in twin.params] == [p.name for p in net.params]
    assert np.array_equal(twin.weights[0].value, net.weights[0].value)
    twin.weights[0].value[...] = 0.0
    assert not np.array_equal(net.weights[0].value, twin.weights[0].value)


def test_determinism_over_100_adam_steps():
    def run():
        rng = np.random.default_rng(42)
        net = DenseNet([3, 4, 1], ["tanh", "identity"], rng)
        st = AdamState(net.params, lr=1e-2)
        x = np.asarray(rng.normal(size=(8, 3)))
        y = np.asarray(rng.normal(size=(8, 1)))
        for _ in range(100):
            g = Graph()
            loss = g.mean(g.square(g.sub(net.forward(g, g.constant(x)), g.constant(y))))
            backward(g, loss)
            adam_step(net.params, st)
        return [p.value.copy() for p in net.params]

    first, second = run(), run()
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


def test_param_json_round_trip():
    rng = np.random.default_rng(5)
    net = DenseNet([2, 3], ["identity"], rng, name="net")
    named = [(p.name, p) for p in net.params]
    blob = params_to_json(named)
    assert set(blob) == {"net/W0", "net/b0"}
    twin = DenseNet([2, 3], ["identity"], np.random.default_rng(99), name="net")
    params_from_json(blob, [(p.name, p) for p in twin.params])
    assert np.array_equal(twin.weights[0].value, net.weights[0].value)
    with pytest.raises(ndiff.NdiffError):
        params_from_json({}, named)



def _live_and_target_params(algo, share_params):
    rng = np.random.default_rng(4)
    if algo == "qmix":
        learner = qmix.QmixLearner(envs.two_step_coop(), "qmix", rng, share_params=share_params)
        targets = learner.target_agent_nets + [learner.target_mixing]
        return learner, learner.agent_nets + [learner.mixing], targets
    if algo == "maddpg_ctde":
        learner = maddpg.MaddpgLearner(envs.coop_cts(), rng)
        return (learner, [a.net for a in learner.actors] + learner.critics,
                [a.net for a in learner.target_actors] + learner.target_critics)
    system = dial.RialSystem(envs.signal_relay(), rng)
    return system, [h.net for h in system.heads], [h.net for h in system.targets]


@pytest.mark.parametrize("algo,share_params", [("qmix", False), ("qmix", True),
                                               ("maddpg_ctde", False), ("rial", False)])
def test_target_copies_share_no_memory_with_live_nets(algo, share_params):
    learner, live, targets = _live_and_target_params(algo, share_params)
    live_params = [p for net in live for p in net.params]
    target_params = [p for net in targets for p in net.params]
    assert len(live_params) == len(target_params)
    for p, q in zip(live_params, target_params):
        assert p is not q and p.name == q.name
        assert np.array_equal(p.value, q.value)
        for a in (p.value, p.grad):
            for b in (q.value, q.grad):
                assert not np.shares_memory(a, b)
    if algo == "qmix":
        tied = learner.target_agent_nets[0] is learner.target_agent_nets[1]
        assert tied == share_params

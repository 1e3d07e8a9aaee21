import ast
import base64
import copy
import functools
import gc
import importlib
import inspect
import json
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
    Stacked,
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
    polyak_update,
    sgd_step,
    tree_from_json,
    tree_to_json,
)

from calls import count_calls
from nets import reachable_dense_nets


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

    def f(g):
        return g.sum(g.mul(tape_fw(g, x, row, idx), g.constant(weights)))

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
             ("take", [x], {"index": 1}),
             ("take", [x], {"index": [2, 0, 2, 1]}),
             ("sum", [x], {}),
             ("sum", [x], {"axis": 1}),
             ("log", [rng.uniform(0.5, 2.0, size=(3, 4))], {})]
    for kind in ("add", "mul"):
        cases += [(kind, [x, rng.normal(size=(3, 4))], {}),
                  (kind, [x, rng.normal(size=(1, 4))], {}),
                  (kind, [np.array(2.5), x], {})]
    cases += [("dense", [x, rng.normal(size=(4, 2)), rng.normal(size=(1, 2))], {"act": act})
              for act in ndiff._ACTIVATIONS]
    # 3 rows of 4 utilities mixed through an embedding of 2
    cases += [("mix", [x, rng.normal(size=(3, 8)), rng.normal(size=(2, 3, 2)),
                       rng.normal(size=(3, 1))], {})]
    cases += [(kind, [x], {}) for kind in ndiff.OPS if kind not in {k for k, _, _ in cases}]
    return cases


def _case_id(case):
    kind, arrays, attrs = case
    shapes = ",".join("x".join(map(str, a.shape)) or "scalar" for a in arrays)
    return f"{kind}[{shapes}]" + ("-axis1" if attrs.get("axis") else "") + (
        f"-{attrs['act']}" if "act" in attrs else "") + (
        "-int" if isinstance(attrs.get("index"), int) else "")


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


def test_stacked_runs_the_op_tables_own_forwards():
    # a Stacked graph keeps no second forward table: each forward reads the copied flags itself
    names = set(vars(ndiff))
    assert not {"_STACKED_FW", "_LAST_AXIS", "_stack_shapes"} & names
    assert not [name for name in names if name.startswith("_stk_")]
    for kind, (fw, _) in ndiff.OPS.items():
        assert list(inspect.signature(fw).parameters) == ["vals", "attrs"], kind


def test_no_module_draws_with_generator_choice():
    # every categorical draw goes through envs._cdf/envs._draw, which match
    # Generator.choice's draws without re-checking p and rebuilding its CDF per call
    for info in pkgutil.iter_modules(marlab.__path__):
        tree = ast.parse(inspect.getsource(importlib.import_module(f"marlab.{info.name}")))
        calls = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Call)
                 and isinstance(n.func, ast.Attribute) and n.func.attr == "choice"]
        assert not calls, f"{info.name}: .choice( at lines {calls}"


def test_no_module_imports_copy():
    # a target is a copy of a value vector that the live model's forward reads,
    # never a second model object
    for info in pkgutil.iter_modules(marlab.__path__):
        tree = ast.parse(inspect.getsource(importlib.import_module(f"marlab.{info.name}")))
        imported = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
        imported |= {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
        assert "copy" not in imported, info.name


def test_only_the_run_constructs_a_replay():
    # every replay learner, RIAL included, pushes into and samples from the one
    # replay its cli.Run holds
    built = {}
    for info in pkgutil.iter_modules(marlab.__path__):
        tree = ast.parse(inspect.getsource(importlib.import_module(f"marlab.{info.name}")))
        calls = [n.func for n in ast.walk(tree) if isinstance(n, ast.Call)]
        built[info.name] = sum(getattr(f, "id", getattr(f, "attr", None)) == "ReplayBuffer"
                               for f in calls)
    assert {name: n for name, n in built.items() if n} == {"cli": 1}


def _callers(name):
    """The qualified names of the functions in marlab that call name."""
    found = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, f"{where}.{child.name}")
                continue
            if isinstance(child, ast.Call) and name in (getattr(child.func, "id", None),
                                                        getattr(child.func, "attr", None)):
                found.add(where)
            visit(child, where)

    for info in pkgutil.iter_modules(marlab.__path__):
        visit(ast.parse(inspect.getsource(importlib.import_module(f"marlab.{info.name}"))),
              info.name)
    return found


def test_each_learner_checks_its_game_once_where_it_is_built():
    # the learners' constructors decide which games they learn on; cli keeps no
    # second copy of those rules, and a self-play step does not re-check its game
    tree = ast.parse(inspect.getsource(importlib.import_module("marlab.cli")))
    assert "check_compat" not in {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    # exploit still checks the game its caller passes in
    assert _callers("check_selfplay_env") == {"selfplay.SelfPlayRun.__init__", "selfplay.exploit"}
    assert _callers("_check_comm_env") == {"dial.DialSystem.__init__", "dial.RialSystem.__init__"}


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


def _picked_root(g, picked, weights):
    return g.sum(g.mul(picked, g.constant(weights)))


@pytest.mark.parametrize("act", ndiff._ACTIVATIONS)
@pytest.mark.parametrize("batch", [1, 32])
@given(n=st.integers(1, 3), n_in=st.integers(1, 4), n_out=st.integers(1, 4),
       per_agent_x=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=10, derandomize=True, deadline=None)
def test_stacked_dense_and_pick_equal_per_agent_records_bit_for_bit(act, batch, n, n_in, n_out,
                                                                     per_agent_x, seed):
    rng = np.random.default_rng(seed)
    xs = rng.normal(size=(n, batch, n_in) if per_agent_x else (batch, n_in))
    ws, bs = rng.normal(size=(n, n_in, n_out)), rng.normal(size=(n, 1, n_out))
    index = rng.integers(n_out, size=(batch, n))
    weights = rng.normal(size=(batch, n))

    g = Graph()
    x, w, b = param(xs), param(ws), param(bs)
    out = g.op("dense", (x, w, b), act=act)
    picked = g.pick(out, index)
    backward(g, _picked_root(g, picked, weights))

    g = Graph()
    xi = [param(v) for v in xs] if per_agent_x else [param(xs)] * n
    wi, bi = [param(v) for v in ws], [param(v) for v in bs]
    outs = [g.op("dense", (xi[i], wi[i], bi[i]), act=act) for i in range(n)]
    picks = [g.pick(o, index[:, i]) for i, o in enumerate(outs)]
    joined = picks[0] if n == 1 else g.concat(*picks)
    backward(g, _picked_root(g, joined, weights))

    assert out.shape == (n, batch, n_out) and picked.shape == (batch, n)
    assert np.array_equal(picked.value, joined.value)
    for i in range(n):
        assert np.array_equal(out.value[i], outs[i].value)
        assert np.array_equal(w.grad[i], wi[i].grad)
        assert np.array_equal(b.grad[i], bi[i].grad)
        if per_agent_x:
            assert np.array_equal(x.grad[i], xi[i].grad)
    if not per_agent_x:
        assert np.array_equal(x.grad, xi[0].grad)
    assert np.array_equal(EVAL.pick(EVAL.op("dense", (xs, ws, bs), act=act), index), picked.value)


def test_a_stack_of_one_picks_for_every_column():
    rng = np.random.default_rng(3)
    x = param(rng.normal(size=(1, 5, 3)))
    index = rng.integers(3, size=(5, 4))
    g = Graph()
    picked = g.pick(x, index)
    backward(g, g.sum(picked))
    assert np.array_equal(picked.value, np.take_along_axis(x.value[0], index, axis=1))
    expect = np.zeros((5, 3))
    for col in index.T:
        expect[np.arange(5), col] += 1.0
    assert np.array_equal(x.grad[0], expect)


MALFORMED_DENSE = [
    ((4, 3), (2, 3, 5), (2, 1, 4)),
    ((4, 3), (2, 3, 5), (3, 1, 5)),
    ((4, 3), (2, 3, 5), (2, 5)),
    ((4, 3), (2, 3, 5), (1, 5)),
    ((4, 2), (2, 3, 5), (2, 1, 5)),
    ((3, 4, 3), (2, 3, 5), (2, 1, 5)),
    ((3,), (2, 3, 5), (2, 1, 5)),
    ((1, 2, 4, 3), (2, 3, 5), (2, 1, 5)),
    ((2, 4, 3), (3, 5), (1, 5)),
    ((4, 3), (1, 2, 3, 5), (1, 2, 1, 5)),
    # a lone layer's bias is one (1, out) row: neither a (B, out) matrix nor a scalar
    ((4, 3), (3, 5), (4, 5)),
    ((4, 3), (3, 5), ()),
]


@pytest.mark.parametrize("act", ndiff._ACTIVATIONS)
@pytest.mark.parametrize("lead", [(), (3,)])
def test_dense_without_x_equals_dense_on_the_identity_bit_for_bit(act, lead):
    rng = np.random.default_rng(31)
    w, b = param(rng.normal(size=lead + (5, 2))), param(rng.normal(size=lead + (1, 2)))
    weights = rng.normal(size=lead + (5, 2))
    runs = []
    for inputs in ((w, b), (Graph().constant(np.eye(5)), w, b)):
        g = Graph()
        out = g.op("dense", inputs, act=act)
        assert np.array_equal(EVAL.op("dense", inputs, act=act), out.value)
        backward(g, g.sum(g.mul(out, g.constant(weights))))
        runs.append([out.value, w.grad.copy(), b.grad.copy()])
        w.grad[...], b.grad[...] = 0.0, 0.0
    assert all(np.array_equal(one, eye) for one, eye in zip(*runs))


@pytest.mark.parametrize("w,b", [((5,), (1, 5)), ((3, 2), (2,)), ((2, 3, 2), (1, 2)),
                                 ((4, 2, 3, 2), (4, 2, 1, 2))])
def test_dense_without_x_rejects_malformed_shapes(w, b):
    for graph in (EVAL, Graph()):
        with pytest.raises(ShapeMismatch):
            graph.op("dense", (param(np.ones(w)), param(np.ones(b))), act="relu")


@pytest.mark.parametrize("x,w,b", MALFORMED_DENSE)
def test_stacked_dense_rejects_malformed_shapes(x, w, b):
    vals = [np.ones(shape) for shape in (x, w, b)]
    g = Graph()
    for graph, inputs in ((EVAL, vals), (g, [g.constant(v) for v in vals])):
        with pytest.raises(ShapeMismatch):
            graph.op("dense", inputs, act="relu")


@pytest.mark.parametrize("x,w,b", MALFORMED_DENSE)
@pytest.mark.parametrize("mask", range(1, 8))
def test_copied_dense_rejects_each_copy_of_malformed_shapes(x, w, b, mask):
    # two copies of the operands that mask picks, the others shared
    g = Stacked({})
    inputs = []
    for j, shape in enumerate((x, w, b)):
        if mask >> j & 1:
            inputs.append(param(np.ones(shape)))
            g.reads[inputs[-1]] = np.ones((2,) + shape)
        else:
            inputs.append(g.constant(np.ones(shape)))
    with pytest.raises(ShapeMismatch):
        g.op("dense", inputs, act="relu")


@pytest.mark.parametrize("x,index", [
    ((2, 4, 3), (4,)), ((2, 4, 3), (4, 3)), ((2, 4, 3), (3, 2)), ((2, 4, 3), (4, 2, 1)),
    ((3, 4, 3), (4, 2)), ((4, 3), (4, 2)), ((2, 2, 4, 3), (4, 2)),
])
def test_stacked_pick_rejects_malformed_shapes(x, index):
    with pytest.raises(ShapeMismatch):
        EVAL.pick(np.ones(x), np.zeros(index, dtype=int))


@pytest.mark.parametrize("copied", ["W0", "b1", "x", "none"])
def test_copy_axis_runs_a_stacked_net_like_eval_or_raises(copied):
    # a stacked net on the Stacked graph gives each copy what EVAL gives it, or raises;
    # never numbers of another shape
    rng = np.random.default_rng(8)
    net = DenseNet([3, 4, 2], ["tanh", "identity"], rng, ["a", "b"])
    x = param(rng.normal(size=(5, 3)))
    chosen = {"W0": net.weights[0], "b1": net.biases[1], "x": x}.get(copied)
    stacks = {} if chosen is None else {
        chosen: chosen.value + rng.normal(size=(3,) + chosen.shape)}
    try:
        out = net.forward(Stacked(stacks), x)
    except ShapeMismatch:
        return
    for c in range(3):
        reads = {t: v[c] for t, v in stacks.items()}
        expect = net.forward(ndiff.OffTape(reads), reads.get(x, x.value))
        assert np.array_equal(out if chosen is None else out[c], expect)


def test_stacked_net_draws_its_nets_in_order_and_names_their_params_alike():
    stack = DenseNet([3, 4, 2], ["relu", "identity"], np.random.default_rng(0), ["a", "b"])
    rng = np.random.default_rng(0)
    lone = [DenseNet([3, 4, 2], ["relu", "identity"], rng, name) for name in ("a", "b")]
    x = np.random.default_rng(1).normal(size=(6, 3))
    out = stack.forward(EVAL, x)
    for i, net in enumerate(lone):
        assert np.array_equal(out[i], net.forward(EVAL, x))
    assert [len(ps) for ps in stack.net_params()] == [4, 4]
    views = [p for ps in stack.net_params() for p in ps]
    assert [p.name for p in views] == [p.name for net in lone for p in net.params]
    for view, p in zip(views, (p for net in lone for p in net.params)):
        assert np.array_equal(view.value, p.value)
    views[4].value[...] = 7.0
    assert (stack.weights[0].value[1] == 7.0).all()


def test_a_stack_is_laid_net_by_net_in_the_flat_vector():
    stack = DenseNet([3, 4, 2], ["relu", "identity"], np.random.default_rng(0), ["a", "b"])
    lone = DenseNet([2, 1], ["identity"], np.random.default_rng(1), "c")
    opt = AdamState([stack.params, lone.weights[0]], lr=0.1)
    expect = np.concatenate([p.value.reshape(-1) for ps in stack.net_params() for p in ps]
                            + [lone.weights[0].value.reshape(-1)])
    assert np.array_equal(opt.value, expect)
    for p in opt.params:
        assert p.value.base is opt.value and p.grad.base is opt.grad
    vectors, target = ndiff.target_graph([opt])
    assert np.array_equal(target.reads[stack.biases[1]], stack.biases[1].value)
    assert target.reads[stack.weights[1]].base is vectors[0]
    with pytest.raises(ShapeMismatch):
        flatten([[stack.weights[0], lone.biases[0]]])


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


def test_an_op_of_constants_alone_runs_without_a_record():
    g = Graph()
    a, b = np.array([[1.0, -2.0]]), np.array([[3.0], [0.5]])
    out = g.matmul(g.constant(a), g.constant(b))
    assert np.array_equal(out.value, a @ b) and not out.requires_grad
    assert g.records == []
    x = param(np.array([[2.0]]))
    y = g.sum(g.mul(out, x))
    assert [r.kind for r in g.records] == ["mul", "sum"]
    backward(g, y)
    assert np.array_equal(x.grad, out.value)


def test_backward_refuses_a_root_of_constants_alone():
    # it has no record to start the sweep from, and no parameter it could move
    x = param(np.array([1.0, 2.0]))
    g = Graph()
    g.sum(g.square(x))
    root = g.sum(g.square(g.constant([1.0, 2.0])))
    assert root.item() == 5.0 and len(g.records) == 2
    with pytest.raises(NdiffError, match="not recorded"):
        backward(g, root)
    assert np.array_equal(x.grad, [0.0, 0.0])


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

    def f(g):
        return g.sum(x)

    assert grad_check(f, [x]) < 1e-10


def test_grad_check_skips_frozen_params():
    x = param(np.array([1.0]))
    frozen = Tensor(np.array([2.0]), requires_grad=False)

    def f(g):
        return g.sum(g.mul(x, frozen))

    err = grad_check(f, [x, frozen])
    assert err < 1e-8
    assert np.allclose(frozen.grad, 0.0)


def test_grad_check_dense_net_mse():
    rng = np.random.default_rng(7)
    net = DenseNet([3, 5, 2], ["tanh", "identity"], rng)
    x = np.asarray(rng.normal(size=(4, 3)))
    target = np.asarray(rng.normal(size=(4, 2)))

    def f(g):
        pred = net.forward(g, g.constant(x))
        return g.mean(g.square(g.sub(pred, g.constant(target))))

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

        def f(g):
            out = net.forward(g, g.constant(x))
            if style == 0:
                return g.mean(g.square(g.sub(out, g.constant(target))))
            if style == 1:
                return g.sum(g.mul(g.softmax(out), g.constant(target)))
            return g.mean(g.abs(g.tanh(out)))

        worst = max(worst, grad_check(f, net.params))
    assert worst < 1e-4


def test_grad_check_rejects_a_tensor_listed_twice():
    # the stacks would give the tensor one set of copies and the gradient
    # vector two, so the coordinates would pair up wrongly
    x = param(np.array([1.0, 2.0]))
    with pytest.raises(NdiffError):
        grad_check(lambda g: g.sum(g.square(x)), [x, x])


def test_grad_check_rejects_a_root_that_is_not_scalar_per_copy():
    x = param(np.array([1.0, 2.0]))
    with pytest.raises(NonScalarRoot):
        grad_check(lambda g: g.square(x), [x])
    with pytest.raises(NonScalarRoot):
        grad_check(lambda g: g.square(x) if isinstance(g, Stacked) else g.sum(x), [x])


def _stacked_case(kind, rng, n, k):
    """Per-copy operands and attributes of one valid op of this kind."""
    def draw(*shape):
        if kind == "log":
            return rng.uniform(0.5, 1.5, size=shape)
        return np.asarray(rng.normal(size=shape))

    m = int(rng.integers(1, 4))
    if kind == "matmul":
        return [draw(n, k), draw(k, m)], {}
    if kind in ("add", "mul"):
        # equal shapes, a (1, k) bias row in either order, a scalar
        pairs = [((n, k), (n, k)), ((n, k), (1, k)), ((1, k), (n, k)), ((n, k), ()), ((), (1, k))]
        return [draw(*shape) for shape in pairs[int(rng.integers(len(pairs)))]], {}
    if kind == "concat":
        return [draw(n, int(rng.integers(1, 4))) for _ in range(3)], {}
    if kind == "dense":
        act = ndiff._ACTIVATIONS[int(rng.integers(len(ndiff._ACTIVATIONS)))]
        # a lone layer, or a stack of n layers on one (B, k) x or on each its own (B, k) slice
        b = int(rng.integers(1, 4))
        # layer or stack at every one-hot input, given no x
        forms = [lambda: [draw(n, k), draw(k, m), draw(1, m)],
                 lambda: [draw(b, k), draw(n, k, m), draw(n, 1, m)],
                 lambda: [draw(n, b, k), draw(n, k, m), draw(n, 1, m)],
                 lambda: [draw(k, m), draw(1, m)],
                 lambda: [draw(n, k, m), draw(n, 1, m)]]
        return forms[int(rng.integers(5))](), {"act": act}
    if kind == "sum":
        return [draw(n, k)], {"axis": [None, 0, 1, -1][int(rng.integers(4))]}
    if kind == "slice":
        start = int(rng.integers(k))
        return [draw(n, k)], {"start": start, "stop": int(rng.integers(start + 1, k + 1))}
    if kind == "pick":
        # one (n, k) x, or a stack of n (B, k) x with a (B, n) index; or, reading rows that
        # may repeat, n rows of an (r, k) x, or B rows of a stack of n or one (r, k) x
        b, r = (int(v) for v in rng.integers(1, 4, size=2))
        forms = [lambda: ([draw(n, k)], {"index": rng.integers(k, size=n)}),
                 lambda: ([draw(n, b, k)], {"index": rng.integers(k, size=(b, n))}),
                 lambda: ([draw(r, k)], {"index": rng.integers(k, size=n),
                                         "rows": rng.integers(r, size=n)}),
                 lambda: ([draw(int(rng.choice([1, n])), r, k)],
                          {"index": rng.integers(k, size=(b, n)), "rows": rng.integers(r, size=b)})]
        return forms[int(rng.integers(4))]()
    if kind == "mix":
        # n rows of k utilities, an embedding of m; the hyper outputs on n rows, or on r
        # rows that the n rows read
        r = int(rng.integers(1, 4))
        if rng.integers(2):
            return ([draw(n, k), draw(r, k * m), draw(2, r, m), draw(r, 1)],
                    {"rows": rng.integers(r, size=n)})
        return [draw(n, k), draw(n, k * m), draw(2, n, m), draw(n, 1)], {}
    if kind == "take":
        # an int, or an index array that may repeat and reorder the rows
        return [draw(n, k)], {"index": [int(rng.integers(n)), rng.integers(n, size=k)][k % 2]}
    return [draw(n, k)], {}


@pytest.mark.parametrize("kind", sorted(ndiff.OPS))
@given(copies=st.integers(1, 4), n=st.integers(1, 4), k=st.integers(1, 5),
       mask=st.integers(1, 15), shared_as_tensor=st.booleans(), through_result=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=20, derandomize=True, deadline=None)
def test_stacked_op_slices_equal_eval_on_each_copy(kind, copies, n, k, mask, shared_as_tensor,
                                                   through_result, seed):
    rng = np.random.default_rng(seed)
    operands, attrs = _stacked_case(kind, rng, n, k)
    stacked = [bool(mask >> j & 1) for j in range(len(operands))]
    stacked[0] = stacked[0] or not any(stacked)
    g = Stacked({})
    inputs, per_copy = [], []
    for value, is_stacked in zip(operands, stacked):
        if is_stacked:
            stack = value + rng.normal(size=(copies,) + value.shape)
            if kind == "log":
                stack = np.abs(stack)
            t = param(stack[0])
            g.reads[t] = stack
            # neg(neg(x)) == x exactly, and reaches the op as a stacked result
            inputs.append(g.neg(g.neg(t)) if through_result else t)
            per_copy.append(stack)
        else:
            inputs.append(Tensor(value) if shared_as_tensor else g.constant(value))
            per_copy.append(np.broadcast_to(value, (copies,) + value.shape))
    out = g.op(kind, inputs, **attrs)
    for c in range(copies):
        expect = EVAL.op(kind, [v[c] for v in per_copy], **attrs)
        assert out[c].shape == expect.shape
        assert np.array_equal(out[c], expect)


def test_take_routes_rows_and_sums_the_gradients_of_a_repeated_index():
    rng = np.random.default_rng(12)
    x = param(rng.normal(size=(3, 4, 2)))
    weights = rng.normal(size=(4, 4, 2))
    g = Graph()
    routed = g.take(x, [2, 0, 2, 2])
    picked = g.take(x, 1)
    assert routed.shape == (4, 4, 2) and picked.shape == (4, 2)
    assert np.array_equal(routed.value, x.value[[2, 0, 2, 2]])
    backward(g, g.add(g.sum(g.mul(routed, g.constant(weights))), g.sum(picked)))
    assert np.array_equal(x.grad, [weights[1], np.ones((4, 2)),
                                   weights[0] + weights[2] + weights[3]])

    def f(g):
        both = g.mul(g.take(x, [0, 0, 1, 0]), g.constant(weights))
        return g.add(g.sum(g.square(both)), g.sum(g.tanh(g.take(x, 0))))

    assert grad_check(f, [x]) < 1e-6


@pytest.mark.parametrize("shape,index", [
    ((3, 2), 3), ((3, 2), -1), ((3, 2), [0, 3]), ((3, 2), [[0, 1]]), ((3, 2), [0.5]),
    ((3, 2), [True, False, True]), ((3, 2), []), ((3, 2), [[0], [1, 2]]), ((), 0),
])
def test_take_rejects_a_malformed_index(shape, index):
    x = param(np.ones(shape))
    for g in (Graph(), EVAL, Stacked({x: np.ones((2,) + shape)})):
        with pytest.raises(ShapeMismatch):
            g.take(x, index)


def test_mix_matches_the_per_row_mixer_and_finite_differences():
    rng = np.random.default_rng(8)
    b, n, e = 5, 3, 4
    # every operand away from zero, where |.| has its kink
    q, w1, hyper, b2 = (param(rng.choice([-1.0, 1.0], size=s) * rng.uniform(0.2, 1.5, size=s))
                        for s in ((b, n), (b, e * n), (2, b, e), (b, 1)))
    out = EVAL.op("mix", (q, w1, hyper, b2))
    for i in range(b):
        pre = np.abs(w1.value[i]).reshape(e, n) @ q.value[i] + hyper.value[0, i]
        hidden = np.where(pre >= 0.0, pre, np.expm1(pre))
        assert np.isclose(out[i, 0], np.abs(hyper.value[1, i]) @ hidden + b2.value[i, 0],
                          rtol=1e-13, atol=0.0)
    weights = rng.normal(size=(b, 1))
    assert grad_check(lambda g: g.sum(g.mul(g.op("mix", (q, w1, hyper, b2)),
                                            g.constant(weights))), [q, w1, hyper, b2]) < 1e-6


@pytest.mark.parametrize("shapes", [
    ((3, 2), (3, 4), (2, 3, 2), (3,)), ((3, 2), (3, 5), (2, 3, 2), (3, 1)),
    ((3, 2), (3, 4), (3, 3, 2), (3, 1)), ((3, 2), (3, 4), (2, 2, 2), (3, 1)),
    ((3, 2), (2, 3, 4), (2, 3, 2), (3, 1)), ((2,), (3, 4), (2, 3, 2), (3, 1)),
    ((2, 3, 2), (3, 4), (2, 3, 2), (3, 1)), ((3, 2), (3, 4), (2, 3, 2, 1), (3, 1)),
])
def test_mix_rejects_malformed_operands(shapes):
    vals = [np.ones(shape) for shape in shapes]
    g = Graph()
    stacks = {param(v): np.ones((2,) + v.shape) for v in vals}    # two copies of each
    for graph, inputs in ((EVAL, vals), (g, [g.constant(v) for v in vals]),
                          (Stacked(stacks), list(stacks))):
        with pytest.raises(ShapeMismatch):
            graph.op("mix", inputs)


@pytest.mark.parametrize("stack", [None, 1, 3])
def test_pick_reads_rows_and_sums_the_gradients_of_repeated_reads(stack):
    # 8 reads of 3 rows, each row read more than once; a stack of one serves all 3 columns
    rng = np.random.default_rng(14)
    rows = np.array([2, 0, 2, 1, 0, 0, 2, 1])
    index = rng.integers(4, size=(8,) if stack is None else (8, 3))
    x = param(rng.normal(size=(3, 4) if stack is None else (stack, 3, 4)))
    reads = (rows, index) if stack is None else (np.arange(3) % stack, rows[:, None], index)
    weights = rng.normal(size=(8, 1 if stack is None else 3))
    g = Graph()
    picked = g.pick(x, index, rows)
    assert np.array_equal(picked.value, x.value[reads].reshape(weights.shape))
    backward(g, g.sum(g.mul(picked, g.constant(weights))))
    expect = np.zeros_like(x.value)
    np.add.at(expect, reads, weights.reshape(index.shape))
    assert np.array_equal(x.grad, expect)
    assert grad_check(lambda g: g.sum(g.square(g.pick(x, index, rows))), [x]) < 1e-6


def test_mix_on_rows_equals_mix_on_the_rows_it_reads():
    rng = np.random.default_rng(15)
    b, r, n, e = 6, 3, 2, 4
    rows = np.array([1, 1, 0, 2, 0, 1])
    q, w1, hyper, b2 = (param(rng.choice([-1.0, 1.0], size=s) * rng.uniform(0.2, 1.5, size=s))
                        for s in ((b, n), (r, e * n), (2, r, e), (r, 1)))
    out = EVAL.op("mix", (q, w1, hyper, b2), rows=rows)
    assert np.array_equal(out, EVAL.op("mix", (q.value, w1.value[rows], hyper.value[:, rows],
                                               b2.value[rows])))
    weights = rng.normal(size=(b, 1))
    assert grad_check(lambda g: g.sum(g.mul(g.op("mix", (q, w1, hyper, b2), rows=rows),
                                            g.constant(weights))), [q, w1, hyper, b2]) < 1e-6


@pytest.mark.parametrize("kind,shapes,attrs", [
    ("pick", [(3, 4)], {"index": [0, 1], "rows": [0, 1, 2]}),
    ("pick", [(3, 4)], {"index": [[0], [1]], "rows": [[0], [1]]}),
    ("pick", [(2, 3, 4)], {"index": np.zeros((5, 2), int), "rows": [0, 1]}),
    ("mix", [(5, 2), (3, 4), (2, 3, 2), (3, 1)], {"rows": [0, 1, 2]}),
    ("mix", [(3, 2), (3, 4), (2, 3, 2), (3, 1)], {"rows": [[0, 1, 2]]}),
])
def test_pick_and_mix_reject_rows_of_another_shape(kind, shapes, attrs):
    vals = [np.ones(shape) for shape in shapes]
    stacks = {param(v): np.ones((2,) + v.shape) for v in vals}
    for graph, inputs in ((EVAL, vals), (Graph(), [param(v) for v in vals]),
                          (Stacked(stacks), list(stacks))):
        with pytest.raises(ShapeMismatch):
            graph.op(kind, inputs, **attrs)


def test_stacked_unknown_op_raises_like_off_tape():
    x = param(np.zeros((2, 2)))
    g = Stacked({x: np.zeros((3, 2, 2))})
    with pytest.raises(UnknownOp):
        g.op("conv2d", (x,))


@pytest.mark.parametrize("build", [
    lambda g, x: g.softmax(g.sum(x)),
    lambda g, x: g.log_softmax(g.sum(x)),
    lambda g, x: g.slice(g.mean(x), 0, 1),
    lambda g, x: g.concat(g.sum(x), g.sum(x)),
    lambda g, x: g.matmul(x, g.constant(np.ones((3, 1)))),
    lambda g, x: g.add(x, g.constant(np.ones((3, 2)))),
    lambda g, x: g.pick(x, [0, 1, 0]),
    lambda g, x: g.take(x, 2),
    lambda g, x: g.take(g.sum(x), 0),
    lambda g, x: g.op("mix", (x, x, g.constant(np.ones((2, 2, 1))), g.sum(x))),
])
def test_stacked_rejects_each_copy_that_eval_rejects(build):
    # a stacked (S,) per-copy scalar or an (S, 2, 2) stack has shapes that
    # numpy would broadcast; each op must check the shapes of one copy
    x = param(np.ones((2, 2)))
    with pytest.raises(ShapeMismatch):
        build(EVAL, x)
    with pytest.raises(ShapeMismatch):
        build(Stacked({x: np.ones((3, 2, 2))}), x)


@pytest.mark.parametrize("kind", ["softmax", "log_softmax"])
def test_a_rank_0_input_to_softmax_or_log_softmax_is_refused_on_every_graph(kind):
    x = param(np.array(1.5))
    for g in (Graph(), EVAL, Stacked({x: np.array([1.5, 2.0])})):
        with pytest.raises(ShapeMismatch):
            g.op(kind, (x,))


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


def _tree(seed):
    """A checkpoint tree with every kind of node: a dict, a list, a string, a
    tensor list and an empty tensor list."""
    nets = [DenseNet([2, 3], ["identity"], np.random.default_rng(seed + i), name=f"net{i}")
            for i in range(2)]
    return {"mode": "vdn", "nets": [n.params for n in nets],
            "inner": {"scalar": [param(np.full((1, 1), float(seed)), name="s")], "none": []}}


def test_tree_json_round_trip():
    tree, twin = _tree(5), _tree(99)
    blob = tree_to_json(tree)
    # 5.0's little-endian float64 bytes, 00 00 00 00 00 00 14 40, in base64
    assert blob["mode"] == "vdn" and blob["inner"] == {"scalar": {"s": "AAAAAAAAFEA="},
                                                       "none": {}}
    assert [set(x) for x in blob["nets"]] == [{"net0/W0", "net0/b0"}, {"net1/W0", "net1/b0"}]
    assert tree_to_json(twin) != blob
    tree_from_json(json.loads(json.dumps(blob)), twin)
    assert tree_to_json(twin) == blob
    assert np.array_equal(twin["nets"][1][0].value, tree["nets"][1][0].value)


# float64 values a decimal round trip or a float parser could change: signed zeros,
# the smallest subnormals and normal, the largest finite values, infinities and NaNs
_EDGE_BITS = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072004e-308, 2.2250738585072014e-308,
                       np.finfo(np.float64).max, -np.finfo(np.float64).max,
                       np.inf, -np.inf, np.nan]).view(np.uint64).tolist() + [0x7FF0000000000001,
                                                                              0xFFF8DEADBEEF0000]


@given(bits=st.lists(st.integers(0, 2 ** 64 - 1), max_size=11), rows=st.integers(1, 3))
@settings(max_examples=40, derandomize=True, deadline=None)
def test_tree_json_keeps_every_float64_bit(bits, rows):
    bits = np.array((_EDGE_BITS + bits) * rows, dtype=np.uint64)
    finite = bits[np.isfinite(bits.view(np.float64))]
    value = finite.view(np.float64).reshape(rows, -1)
    tree = {"t": [param(value, name="t")]}
    twin = {"t": [param(np.zeros_like(value), name="t")]}
    tree_from_json(json.loads(json.dumps(tree_to_json(tree))), twin)
    assert np.array_equal(twin["t"][0].value.view(np.uint64).reshape(-1), finite)
    # every bit pattern of an infinity or a NaN is refused
    blob = json.loads(json.dumps(tree_to_json({"t": [param(bits.view(np.float64), name="t")]})))
    with pytest.raises(NdiffError, match="payload/t/t: holds a NaN or infinite value"):
        tree_from_json(blob, {"t": [param(np.zeros(len(bits)), name="t")]})


def test_tree_rejects_a_duplicate_tensor_name():
    a, b = param(np.zeros((1, 1)), name="w"), param(np.ones((1, 1)), name="w")
    with pytest.raises(NdiffError, match="payload/x: two tensors share a name"):
        tree_to_json({"x": [a, b]})
    with pytest.raises(NdiffError, match="payload/x: two tensors share a name"):
        tree_from_json({"x": {"w": [0.0]}}, {"x": [a, b]})
    # a shared head is one set of tensors, listed once
    learner = qmix.QmixLearner(envs.coop_climb(), "vdn", np.random.default_rng(0),
                               share_params=True)
    tree = learner.checkpoint_tree()
    assert len(tree["psi"]) == len(learner.heads[0].params)
    tree_from_json(tree_to_json(tree), tree)


def _edited(blob, edit):
    blob = json.loads(json.dumps(blob))
    edit(blob)
    return blob


@pytest.mark.parametrize("edit,path,error", [
    (lambda b: b.pop("mode"), "payload/mode: missing", NdiffError),
    (lambda b: b["inner"].pop("none"), "payload/inner/none: missing", NdiffError),
    (lambda b: b.update(extra=1), "payload/extra: unexpected", NdiffError),
    (lambda b: b["nets"][0].update({"net0/W1": [0.0]}), "payload/nets/0/net0/W1: unexpected",
     NdiffError),
    (lambda b: b["nets"].pop(), "payload/nets/1: missing", NdiffError),
    (lambda b: b["nets"].append({}), "payload/nets/2: unexpected", NdiffError),
    (lambda b: b.update(mode="qmix"), "payload/mode: 'qmix', expected 'vdn'", NdiffError),
    (lambda b: b.update(nets={}), "payload/nets: a dict, expected a list", NdiffError),
    (lambda b: b["inner"]["scalar"].update(s=[1.0, 2.0]),
     r"payload/inner/scalar/s: does not fill shape \(1, 1\)", ShapeMismatch),
    (lambda b: b["nets"][1].update({"net1/b0": "abc"}),
     r"payload/nets/1/net1/b0: does not fill shape \(1, 3\)", ShapeMismatch),
    (lambda b: b["nets"][1].update({"net1/b0": tree_to_json(param([[0.0, np.nan, 0.0]]))}),
     "payload/nets/1/net1/b0: holds a NaN or infinite value", NdiffError),
    (lambda b: b["nets"][0].update({"net0/W0": tree_to_json(param(np.full((2, 3), np.inf)))}),
     "payload/nets/0/net0/W0: holds a NaN or infinite value", NdiffError),
    (lambda b: b["nets"][1].update({"net1/b0": [[0.0, 0.0, np.nan]]}),
     "payload/nets/1/net1/b0: holds a NaN or infinite value", NdiffError),
    (lambda b: b["inner"]["scalar"].update(s=[[-np.inf]]),
     "payload/inner/scalar/s: holds a NaN or infinite value", NdiffError),
])
def test_tree_from_json_names_the_path_that_does_not_fit(edit, path, error):
    tree = _tree(5)
    blob = tree_to_json(tree)
    with pytest.raises(error, match=path):
        tree_from_json(_edited(blob, edit), _tree(5))


def _json_paths(node, path=()):
    """Every path into a JSON tree, the root's () first."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) \
        if isinstance(node, list) else ()
    for k, v in items:
        yield from _json_paths(v, path + (k,))


_JSON = st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
                     lambda kids: st.lists(kids, max_size=3)
                     | st.dictionaries(st.text(max_size=4), kids, max_size=3), max_leaves=5)


def _edited_leaf(text, data):
    """A base64 tensor leaf made bad base64, a byte or a float short or long, or holding a
    NaN or an infinity; or the v1 list of its floats, as is or holding a NaN, an infinity
    or an integer past float64's range."""
    try:
        raw = base64.b64decode(text, validate=True)
        values = np.frombuffer(raw, "<f8").copy()
    except ValueError:    # an earlier edit broke it: replace it
        return data.draw(_JSON)
    if not values.size:    # an earlier edit emptied it
        return data.draw(_JSON)
    at = data.draw(st.integers(0, len(values) - 1))
    edit = data.draw(st.sampled_from(["bad", "byte", "short", "long", "non-finite", "list",
                                      "v1"]))
    if edit == "bad":
        cut = data.draw(st.integers(0, len(text) - 1))
        return text[:cut] + data.draw(st.sampled_from(["*", "", "=", " "])) + text[cut + 1:]
    if edit == "byte":
        return base64.b64encode(raw[:-1] if data.draw(st.booleans()) else raw + b"\0").decode()
    if edit in ("list", "v1"):
        values = values.tolist()
        if edit == "list":
            values[at] = data.draw(st.sampled_from([np.nan, np.inf, -(10 ** 400)]))
        return values
    if edit == "non-finite":
        values[at] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    else:
        values = values[:-1] if edit == "short" else np.append(values, 0.5)
    return base64.b64encode(values.astype("<f8").tobytes()).decode()


@given(data=st.data())
@settings(max_examples=80, derandomize=True, deadline=None)
def test_tree_from_json_loads_a_mutated_maddpg_dec_payload_finite_or_refuses_it(data):
    # the decentralized learner's critics and models are stacks, loaded through slice views
    learner = maddpg.MaddpgLearner(envs.two_step_coop(), np.random.default_rng(0), hidden=(3,),
                                   decentralized=True)
    blob = tree_to_json(learner.checkpoint_tree())
    for _ in range(data.draw(st.integers(1, 2))):
        paths = list(_json_paths(blob))[1:]
        leaves = [p for p in paths if isinstance(functools.reduce(lambda n, k: n[k], p, blob), str)]
        edit = data.draw(st.sampled_from(["leaf", "leaf", "drop", "extra", "replace"]))
        path = data.draw(st.sampled_from(leaves if edit == "leaf" and leaves else paths))
        parent = functools.reduce(lambda node, k: node[k], path[:-1], blob)
        node = parent[path[-1]]
        if edit == "drop":
            del parent[path[-1]]
        elif edit == "extra" and isinstance(node, dict):
            node[data.draw(st.text(max_size=6))] = data.draw(_JSON)
        elif edit == "extra" and isinstance(node, list):
            node.insert(data.draw(st.integers(0, len(node))), data.draw(_JSON))
        elif edit == "leaf" and isinstance(node, str):
            parent[path[-1]] = _edited_leaf(node, data)
        else:
            parent[path[-1]] = data.draw(_JSON)
    try:
        tree_from_json(blob, learner.checkpoint_tree())
    except NdiffError:
        return
    for vector in [opt.value for opt in [*learner.actor_opts, learner.critic_opt,
                                         learner.model_opt]] + learner.target_values:
        assert np.isfinite(vector).all()


def _with_targets(algo, share_params=False, seed=4, **kw):
    """A learner, the optimizers whose value vectors its target graph lags,
    and those lagged vectors."""
    rng = np.random.default_rng(seed)
    if algo == "qmix":
        learner = qmix.QmixLearner(envs.two_step_coop(), "qmix", rng,
                                   share_params=share_params, **kw)
        return learner, [learner.opt], [learner.target_value]
    if algo.startswith("maddpg"):
        env = envs.coop_cts() if algo == "maddpg_ctde" else envs.two_step_coop()
        learner = maddpg.MaddpgLearner(env, rng, hidden=(8,),
                                       decentralized=algo == "maddpg_dec", **kw)
        return learner, learner.actor_opts + [learner.critic_opt], learner.target_values
    system = dial.RialSystem(envs.signal_relay(), rng, **kw)
    return system, [system.opt], [system.target_value]


@pytest.mark.parametrize("algo,share_params", [("qmix", False), ("qmix", True),
                                               ("maddpg_ctde", False), ("rial", False)])
def test_target_copies_share_no_memory_with_live_nets(algo, share_params):
    learner, opts, vectors = _with_targets(algo, share_params)
    reads = learner.target.reads
    # each live tensor, a shared head's too, is read once, from a view into its opt's copy
    assert list(reads) == [p for opt in opts for p in opt.params]
    for opt, vector in zip(opts, vectors):
        assert np.array_equal(vector, opt.value)
        for p in opt.params:
            assert reads[p].base is vector and reads[p].shape == p.shape
            for a in (p.value, p.grad):
                assert not np.shares_memory(a, vector)
    if algo == "qmix":
        tied = len(learner.heads[0].weights[0].value) < learner.n_agents
        assert tied == share_params


_TARGET_ALGOS = [("qmix", False), ("qmix", True), ("maddpg_ctde", False),
                 ("maddpg_dec", False), ("rial", False)]


def _target_tracked_nets(learner):
    return [net for net in reachable_dense_nets(learner) if net.weights[0] in learner.target.reads]


def _forwards(nets, g, xs):
    return [net.forward(g, x) for net, x in zip(nets, xs)]


@pytest.mark.parametrize("algo,share_params", _TARGET_ALGOS)
@given(seed=st.integers(0, 10 ** 6), shift=st.floats(0.01, 1.0))
@settings(max_examples=5, derandomize=True, deadline=None)
def test_target_forward_reads_only_the_target_vectors(algo, share_params, seed, shift):
    # tau 1 makes maddpg's Polyak sync a full copy, as qmix's and rial's are
    tau = {"tau": 1.0} if algo.startswith("maddpg") else {}
    learner, opts, vectors = _with_targets(algo, share_params, seed, **tau)
    nets = _target_tracked_nets(learner)
    assert {id(p) for net in nets for p in net.params} == {id(p) for p in learner.target.reads}
    rng = np.random.default_rng(seed)
    xs = [rng.normal(size=(3, net.layer_sizes[0])) for net in nets]
    before = _forwards(nets, learner.target, xs)
    for opt in opts:
        opt.value += shift
    for a, b in zip(_forwards(nets, learner.target, xs), before):
        assert np.array_equal(a, b)
    learner.sync_targets()
    for a, b in zip(_forwards(nets, learner.target, xs), _forwards(nets, EVAL, xs)):
        assert np.array_equal(a, b)

    # a loaded payload fills the target vectors if it holds them, and leaves them otherwise
    for vector in vectors:
        vector -= shift
    saved = learner.checkpoint_tree()
    blob = tree_to_json(saved)
    fresh, _, _ = _with_targets(algo, share_params, seed + 1)
    fresh_nets = _target_tracked_nets(fresh)
    kept = _forwards(fresh_nets, fresh.target, xs)
    tree_from_json(blob, fresh.checkpoint_tree())
    expect = _forwards(nets, learner.target, xs) if "targets" in saved else kept
    for a, b in zip(_forwards(fresh_nets, fresh.target, xs), expect):
        assert np.array_equal(a, b)
    for a, b in zip(_forwards(fresh_nets, EVAL, xs), _forwards(nets, EVAL, xs)):
        assert np.array_equal(a, b)

"""Reverse-mode automatic differentiation on float64 numpy buffers.

A Graph records ops as they execute (define-by-run); backward replays the
tape in reverse from a scalar root.  Graphs are meant to be rebuilt every
training step and are single-threaded.  EVAL runs the same ops on plain
arrays and records nothing, so one forward per model serves the tape and the
numpy-only paths.  Tensors hold no reference to a graph: the tape points at
its tensors, never the reverse, so a dropped tape is freed at once and a
model is plain data that copy.deepcopy copies.
"""

import numpy as np


class NdiffError(Exception):
    pass


class ShapeMismatch(NdiffError):
    pass


class UnknownOp(NdiffError):
    pass


class NonScalarRoot(NdiffError):
    pass


class StaleState(NdiffError):
    pass


class NonFiniteGradient(NdiffError):
    pass


class Tensor:
    """A float64 array.  A leaf made here or by param carries a gradient
    buffer of the same shape; a Graph.constant or an op output carries grad
    None (backward keeps an op output's adjoint only for the sweep)."""

    __slots__ = ("value", "grad", "requires_grad", "name")

    def __init__(self, value, requires_grad=False, name=None):
        self.value = np.array(value, dtype=np.float64, order="C")
        self.grad = np.zeros_like(self.value)
        self.requires_grad = requires_grad
        self.name = name

    @property
    def shape(self):
        return self.value.shape

    def item(self):
        return float(self.value.reshape(-1)[0])

    def __repr__(self):
        tag = self.name or "tensor"
        return f"Tensor({tag}, shape={self.shape}, requires_grad={self.requires_grad})"


def param(value, name=None):
    return Tensor(value, requires_grad=True, name=name)


def _wrap(value, requires_grad):
    t = Tensor.__new__(Tensor)
    t.value = value
    t.grad = None
    t.requires_grad = requires_grad
    t.name = None
    return t


class _Record:
    __slots__ = ("kind", "inputs", "output", "ctx")

    def __init__(self, kind, inputs, output, ctx):
        self.kind = kind
        self.inputs = inputs
        self.output = output
        self.ctx = ctx


# ---------------------------------------------------------------------------
# op table: kind -> (forward, backward)
# forward(values, attrs) -> (out_value, ctx); backward(ctx, values, out_grad)
# -> per-input gradient arrays (None for inputs that need no gradient)
#
# add and mul broadcast one way only: the operands match exactly, or one is a
# scalar (size 1), or one is a (1, k) row repeated over the rows of an (n, k)
# matrix (a bias).  Anything else is a ShapeMismatch.
# ---------------------------------------------------------------------------

def _binary_shapes(a, b, kind):
    if a.shape == b.shape or a.size == 1 or b.size == 1:
        return
    if a.ndim == b.ndim == 2 and a.shape[1] == b.shape[1] and 1 in (a.shape[0], b.shape[0]):
        return
    raise ShapeMismatch(f"{kind}: {a.shape} vs {b.shape} (exact match, scalar or (1, k) row only)")


def _reduce_to(g, shape):
    # collapse a broadcast gradient back onto a size-1 operand or a (1, k) row
    if g.shape == shape:
        return g
    if len(shape) == 2 and shape[0] == 1 and shape[1] > 1:
        return g.sum(axis=0, keepdims=True)
    return np.full(shape, g.sum(), dtype=np.float64)


def _fw_matmul(vals, attrs):
    a, b = vals
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeMismatch(f"matmul: {a.shape} @ {b.shape}")
    return a @ b, None


def _bw_matmul(ctx, vals, g):
    a, b = vals
    return g @ b.T, a.T @ g


def _fw_add(vals, attrs):
    a, b = vals
    _binary_shapes(a, b, "add")
    return a + b, None


def _bw_add(ctx, vals, g):
    a, b = vals
    return _reduce_to(g, a.shape), _reduce_to(g, b.shape)


def _fw_mul(vals, attrs):
    a, b = vals
    _binary_shapes(a, b, "mul")
    return a * b, None


def _bw_mul(ctx, vals, g):
    a, b = vals
    return _reduce_to(g * b, a.shape), _reduce_to(g * a, b.shape)


def _fw_concat(vals, attrs):
    if not vals:
        raise ShapeMismatch("concat: no inputs")
    nd = vals[0].ndim
    if nd == 0:
        raise ShapeMismatch("concat: inputs must have rank >= 1")
    for v in vals:
        if v.ndim != nd or v.shape[:-1] != vals[0].shape[:-1]:
            raise ShapeMismatch(f"concat: {[x.shape for x in vals]}")
    widths = [v.shape[-1] for v in vals]
    return np.concatenate(vals, axis=-1), widths


def _bw_concat(ctx, vals, g):
    out, offset = [], 0
    for w in ctx:
        out.append(np.ascontiguousarray(g[..., offset:offset + w]))
        offset += w
    return out


def _fw_relu(vals, attrs):
    (x,) = vals
    return np.maximum(x, 0.0), None


def _bw_relu(ctx, vals, g):
    (x,) = vals
    return (g * (x > 0.0),)


def _fw_elu(vals, attrs):
    (x,) = vals
    return np.where(x >= 0.0, x, np.expm1(x)), None


def _bw_elu(ctx, vals, g):
    (x,) = vals
    return (g * np.where(x >= 0.0, 1.0, np.exp(x)),)


def _fw_tanh(vals, attrs):
    (x,) = vals
    return np.tanh(x), None


def _bw_tanh(ctx, vals, g):
    y = ctx
    return (g * (1.0 - y * y),)


def _fw_sigmoid(vals, attrs):
    (x,) = vals
    out = np.empty_like(x)
    pos = x >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out, None


def _bw_sigmoid(ctx, vals, g):
    y = ctx
    return (g * y * (1.0 - y),)


def _fw_softmax(vals, attrs):
    (x,) = vals
    if x.ndim == 0:
        raise ShapeMismatch("softmax: rank >= 1 required")
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True), None


def _bw_softmax(ctx, vals, g):
    y = ctx
    dot = (g * y).sum(axis=-1, keepdims=True)
    return (y * (g - dot),)


def _fw_log_softmax(vals, attrs):
    # log(softmax(x)) without forming softmax: finite however far apart x's entries are
    (x,) = vals
    z = x - x.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True)), None


def _bw_log_softmax(ctx, vals, g):
    y = ctx
    return (g - np.exp(y) * g.sum(axis=-1, keepdims=True),)


def _fw_log(vals, attrs):
    (x,) = vals
    return np.log(x), None


def _bw_log(ctx, vals, g):
    (x,) = vals
    return (g / x,)


def _fw_sum(vals, attrs):
    # the sum of all entries, or the sums along `axis` with that dim kept (size 1)
    (x,) = vals
    axis = attrs.get("axis")
    return (np.asarray(x.sum()) if axis is None else x.sum(axis=axis, keepdims=True)), None


def _bw_sum(ctx, vals, g):
    (x,) = vals
    return (np.broadcast_to(g, x.shape).copy(),)


def _fw_mean(vals, attrs):
    (x,) = vals
    return np.asarray(x.mean()), None


def _bw_mean(ctx, vals, g):
    (x,) = vals
    return (np.full_like(x, float(g) / x.size),)


def _fw_square(vals, attrs):
    (x,) = vals
    return x * x, None


def _bw_square(ctx, vals, g):
    (x,) = vals
    return (2.0 * x * g,)


def _fw_abs(vals, attrs):
    (x,) = vals
    return np.abs(x), None


def _bw_abs(ctx, vals, g):
    (x,) = vals
    return (g * np.sign(x),)


def _fw_neg(vals, attrs):
    (x,) = vals
    return -x, None


def _bw_neg(ctx, vals, g):
    return (-g,)


def _fw_slice(vals, attrs):
    (x,) = vals
    start, stop = attrs["start"], attrs["stop"]
    if x.ndim == 0:
        raise ShapeMismatch("slice: rank >= 1 required")
    width = x.shape[-1]
    if not (0 <= start < stop <= width):
        raise ShapeMismatch(f"slice: [{start}:{stop}] on width {width}")
    return np.ascontiguousarray(x[..., start:stop]), (start, stop)


def _bw_slice(ctx, vals, g):
    (x,) = vals
    start, stop = ctx
    out = np.zeros_like(x)
    out[..., start:stop] = g
    return (out,)


def _fw_pick(vals, attrs):
    # the (n, 1) column x[i, index[i]]: row i's entry at its own column
    (x,) = vals
    index = np.asarray(attrs["index"], dtype=np.intp)
    if x.ndim != 2 or index.shape != (x.shape[0],):
        raise ShapeMismatch(f"pick: index of shape {index.shape} on {x.shape}")
    rows = np.arange(x.shape[0])
    return x[rows, index][:, None], (rows, index)


def _bw_pick(ctx, vals, g):
    (x,) = vals
    out = np.zeros_like(x)
    out[ctx] = g[:, 0]
    return (out,)


def _fw_dense(vals, attrs):
    # one layer act(x @ W + b) through the matmul, add and activation kernels
    x, w, b = vals
    act = attrs["act"]
    pre = _fw_add((_fw_matmul((x, w), attrs)[0], b), attrs)[0]
    out = pre if act == "identity" else OPS[act][0]((pre,), attrs)[0]
    return out, (act, pre, out)


def _bw_dense(ctx, vals, g):
    # the activation's own backward, looked up now, reads the output or the pre-activation
    act, pre, out = ctx
    x, w, b = vals
    if act != "identity":
        (g,) = OPS[act][1](out, (pre,), g)
    return (*_bw_matmul(None, (x, w), g), _reduce_to(g, b.shape))


OPS = {
    "matmul": (_fw_matmul, _bw_matmul),
    "add": (_fw_add, _bw_add),
    "mul": (_fw_mul, _bw_mul),
    "concat": (_fw_concat, _bw_concat),
    "relu": (_fw_relu, _bw_relu),
    "elu": (_fw_elu, _bw_elu),
    "tanh": (_fw_tanh, _bw_tanh),
    "sigmoid": (_fw_sigmoid, _bw_sigmoid),
    "softmax": (_fw_softmax, _bw_softmax),
    "log": (_fw_log, _bw_log),
    "sum": (_fw_sum, _bw_sum),
    "mean": (_fw_mean, _bw_mean),
    "square": (_fw_square, _bw_square),
    "abs": (_fw_abs, _bw_abs),
    "neg": (_fw_neg, _bw_neg),
    "slice": (_fw_slice, _bw_slice),
    "pick": (_fw_pick, _bw_pick),
    "log_softmax": (_fw_log_softmax, _bw_log_softmax),
    "dense": (_fw_dense, _bw_dense),
}

# ops whose backward reads the output value rather than the inputs
_CTX_IS_OUTPUT = {"tanh", "sigmoid", "softmax", "log_softmax"}


class Graph:
    """Append-only tape of op records."""

    def __init__(self):
        self.records = []

    def constant(self, value):
        return _wrap(np.array(value, dtype=np.float64, order="C"), False)

    def op(self, kind, inputs, **attrs):
        return forward_op(self, kind, inputs, **attrs)

    # convenience wrappers around op ---------------------------------------
    def matmul(self, a, b):
        return self.op("matmul", (a, b))

    def add(self, a, b):
        return self.op("add", (a, b))

    def sub(self, a, b):
        return self.op("add", (a, self.op("neg", (b,))))

    def mul(self, a, b):
        return self.op("mul", (a, b))

    def concat(self, *xs):
        return self.op("concat", xs)

    def relu(self, x):
        return self.op("relu", (x,))

    def elu(self, x):
        return self.op("elu", (x,))

    def tanh(self, x):
        return self.op("tanh", (x,))

    def sigmoid(self, x):
        return self.op("sigmoid", (x,))

    def softmax(self, x):
        return self.op("softmax", (x,))

    def log_softmax(self, x):
        return self.op("log_softmax", (x,))

    def log(self, x):
        return self.op("log", (x,))

    def sum(self, x, axis=None):
        return self.op("sum", (x,), axis=axis)

    def mean(self, x):
        return self.op("mean", (x,))

    def square(self, x):
        return self.op("square", (x,))

    def abs(self, x):
        return self.op("abs", (x,))

    def neg(self, x):
        return self.op("neg", (x,))

    def slice(self, x, start, stop):
        return self.op("slice", (x,), start=start, stop=stop)

    def pick(self, x, index):
        return self.op("pick", (x,), index=index)


class OffTape(Graph):
    """The Graph ops on plain arrays: each runs the op table's forward on its
    operands (a Tensor through .value) and returns an array, recording nothing."""

    def constant(self, value):
        return np.asarray(value, dtype=np.float64)

    def op(self, kind, inputs, **attrs):
        pair = OPS.get(kind)
        if pair is None:
            raise UnknownOp(kind)
        return pair[0]([x.value if type(x) is Tensor else x for x in inputs], attrs)[0]


EVAL = OffTape()


def forward_op(graph, kind, inputs, **attrs):
    """Execute one op eagerly, appending its record to the graph."""
    pair = OPS.get(kind)
    if pair is None:
        raise UnknownOp(kind)
    inputs = tuple(inputs)
    out_value, ctx = pair[0]([t.value for t in inputs], attrs)
    out = _wrap(out_value, any([t.requires_grad for t in inputs]))
    if kind in _CTX_IS_OUTPUT:
        ctx = out_value
    graph.records.append(_Record(kind, inputs, out, ctx))
    return out


def backward(graph, root):
    """Accumulate d(root)/d(leaf) into .grad of every requires_grad leaf.

    The root must be scalar-sized and the output of one of the graph's
    records.  The tape is swept once in reverse, so each op is visited exactly
    once and fan-out contributions sum into one adjoint per tensor; a leaf's
    summed adjoint is then added to its .grad.
    """
    if not any(rec.output is root for rec in reversed(graph.records)):
        raise NdiffError("root does not belong to this graph")
    if root.value.size != 1:
        raise NonScalarRoot(f"root has shape {root.shape}")
    acc = {root: np.ones_like(root.value)}
    for rec in reversed(graph.records):
        g = acc.get(rec.output)
        if g is None or not rec.output.requires_grad:
            continue
        _, bw = OPS[rec.kind]
        vals = tuple(t.value for t in rec.inputs)
        grads = bw(rec.ctx, vals, g)
        for t, gi in zip(rec.inputs, grads):
            if gi is None or not t.requires_grad:
                continue
            prev = acc.get(t)
            acc[t] = gi if prev is None else prev + gi
    for t, g in acc.items():
        if t.grad is not None:
            t.grad += g


# ---------------------------------------------------------------------------
# dense networks
# ---------------------------------------------------------------------------

_ACTIVATIONS = ("relu", "elu", "tanh", "sigmoid", "identity")


def glorot_uniform(rng, fan_in, fan_out):
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


class DenseNet:
    """Fully connected net; weights Glorot-uniform, biases zero."""

    def __init__(self, layer_sizes, activations, rng, name="net"):
        if len(layer_sizes) < 2:
            raise ShapeMismatch("DenseNet needs at least input and output sizes")
        if len(activations) != len(layer_sizes) - 1:
            raise ShapeMismatch("one activation per layer required")
        for a in activations:
            if a not in _ACTIVATIONS:
                raise UnknownOp(f"activation {a!r}")
        self.layer_sizes = tuple(int(s) for s in layer_sizes)
        self.activations = tuple(activations)
        self.name = name
        self.weights = []
        self.biases = []
        for l, (n_in, n_out) in enumerate(zip(layer_sizes[:-1], layer_sizes[1:])):
            self.weights.append(param(glorot_uniform(rng, n_in, n_out), name=f"{name}/W{l}"))
            self.biases.append(param(np.zeros((1, n_out)), name=f"{name}/b{l}"))

    @property
    def params(self):
        return [p for pair in zip(self.weights, self.biases) for p in pair]

    def forward(self, g, x):
        """(n, out) output of a 2-D input: a Tensor on a Graph, an array on EVAL."""
        h = x
        for act, w, b in zip(self.activations, self.weights, self.biases):
            h = g.op("dense", (h, w, b), act=act)
        return h


# ---------------------------------------------------------------------------
# optimization
# ---------------------------------------------------------------------------

def flatten(params):
    """Copy params, in order, into one value and one grad vector and rebind
    each tensor's .value and .grad as views into them; returns (value, grad)."""
    params = list(params)
    if len({id(p) for p in params}) != len(params):
        raise NdiffError("flatten: a tensor appears twice")
    value = np.concatenate([p.value.reshape(-1) for p in params])
    grad = np.concatenate([p.grad.reshape(-1) for p in params])
    offset = 0
    for p in params:
        n, shape = p.value.size, p.value.shape
        p.value = value[offset:offset + n].reshape(shape)
        p.grad = grad[offset:offset + n].reshape(shape)
        offset += n
    return value, grad


class AdamState:
    """Adam moments over one flat value vector and grad vector of its params."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.value, self.grad = flatten(self.params)
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.step_count = 0
        self.m = np.zeros_like(self.value)
        self.v = np.zeros_like(self.value)


def adam_step(params, state):
    """One Adam update; consumes and zeroes .grad, increments step_count.
    A non-finite gradient raises before anything changes."""
    params = list(params)
    if len(params) != len(state.params) or any(
            p is not q or p.value.base is not state.value or p.grad.base is not state.grad
            for p, q in zip(params, state.params)):
        raise StaleState("parameters do not match optimizer state")
    if not np.isfinite(state.grad).all():
        raise NonFiniteGradient(f"non-finite gradient at Adam step {state.step_count + 1}")
    state.step_count += 1
    c1 = 1.0 - state.beta1 ** state.step_count
    c2 = 1.0 - state.beta2 ** state.step_count
    m, v, g = state.m, state.v, state.grad
    m *= state.beta1
    m += (1.0 - state.beta1) * g
    v *= state.beta2
    v += (1.0 - state.beta2) * (g * g)
    state.value -= state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)
    g[...] = 0.0


def sgd_step(params, lr):
    """Plain gradient step (ascent handled by the sign of the loss).  A
    non-finite gradient raises before anything changes."""
    if not all(np.isfinite(p.grad).all() for p in params):
        raise NonFiniteGradient("non-finite gradient at an SGD step")
    for p in params:
        p.value -= lr * p.grad
        p.grad[...] = 0.0


def clip_grad_norm(grad, max_norm=10.0):
    """Scale the grad vector so its L2 norm is at most max_norm; returns the
    norm before clipping."""
    total = float(np.sqrt(grad @ grad))
    if total > max_norm:
        grad *= max_norm / total
    return total


def polyak_update(src, dst, tau):
    """dst <- (1 - tau) * dst + tau * src over two value vectors."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    if src.shape != dst.shape:
        raise ShapeMismatch(f"polyak: {src.shape} vs {dst.shape}")
    dst *= 1.0 - tau
    dst += tau * src


def copy_params(src, dst):
    polyak_update(src, dst, 1.0)


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

def grad_check(f, params, h=1e-5):
    """Compare tape gradients of a scalar root against central differences.

    f() returns (graph, root): a fresh graph and the scalar it computed.
    Returns the maximum relative error |analytic - numeric| /
    max(|analytic|, |numeric|, 1e-8) over all coordinates of params that
    require gradients.  f must be deterministic and rebuild its graph on
    every call.
    """
    params = [p for p in params if p.requires_grad]
    for p in params:
        p.grad[...] = 0.0
    graph, root = f()
    if root.value.size != 1:
        raise NonScalarRoot(f"grad_check root has shape {root.shape}")
    backward(graph, root)
    analytic = []
    for p in params:
        analytic.append(p.grad.copy())
        p.grad[...] = 0.0
    worst = 0.0
    for p, a in zip(params, analytic):
        flat = p.value.reshape(-1)
        aflat = a.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = f()[1].item()
            flat[i] = orig - h
            down = f()[1].item()
            flat[i] = orig
            numeric = (up - down) / (2.0 * h)
            denom = max(abs(aflat[i]), abs(numeric), 1e-8)
            worst = max(worst, abs(aflat[i] - numeric) / denom)
    return worst


# ---------------------------------------------------------------------------
# parameter serialization: {name: [floats...]}
# ---------------------------------------------------------------------------

def params_to_json(named_params):
    out = {}
    for name, p in named_params:
        if name in out:
            raise NdiffError(f"duplicate parameter name {name!r}")
        out[name] = [float(x) for x in p.value.reshape(-1)]
    return out


def params_from_json(obj, named_params):
    for name, p in named_params:
        if name not in obj:
            raise NdiffError(f"missing parameter {name!r}")
        flat = np.asarray(obj[name], dtype=np.float64)
        if flat.size != p.value.size:
            raise ShapeMismatch(f"{name}: {flat.size} values for shape {p.value.shape}")
        p.value[...] = flat.reshape(p.value.shape)

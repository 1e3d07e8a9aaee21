"""Reverse-mode automatic differentiation on float64 numpy buffers.

A Graph records ops as they execute (define-by-run); backward replays the
tape in reverse from a scalar root.  Graphs are meant to be rebuilt every
training step and are single-threaded.  EVAL runs the same ops on plain
arrays and records nothing, so one forward per model serves the tape and the
numpy-only paths.  An off-tape graph may read a parameter from its own array:
a target graph from a lagged copy of its optimizer's value vector, so a
target net is the live net's forward run there; a Stacked graph from S copies
at once, each op the op table's own forward told by the attribute copied
which operands carry a leading copy axis, which is how grad_check takes all
its finite differences in one pass.  Tensors hold no reference to a graph, so
a dropped tape is freed at once.
"""

import base64

import numpy as np

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


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


def value_of(x):
    """The array of an op's result or operand: a Tensor's value on a tape,
    x itself off it."""
    return x.value if type(x) is Tensor else x


def _wrap(value, requires_grad, name=None):
    t = Tensor.__new__(Tensor)
    t.value = value
    t.grad = None
    t.requires_grad = requires_grad
    t.name = name
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
# -> per-input gradient arrays (None for inputs that need no gradient); an op
# whose backward reads its output (tanh, sigmoid, softmax, log_softmax) keeps it as ctx
#
# add and mul broadcast one way only: the operands match exactly, or one is a
# scalar (size 1), or one is a (1, k) row repeated over the rows of an (n, k)
# matrix (a bias).  Anything else is a ShapeMismatch.  take indexes the
# leading (agent) axis: it routes a stack's messages to other agents and picks
# one agent's slice out of a stack.
#
# Only a Stacked graph sets the attribute copied: one flag per operand, set if
# it holds S copies of its value along a leading copy axis.  Under it a forward
# checks one copy's shapes on v[0] views and keeps the copy axis in front: add,
# mul and dense rank-align their operands (_align) so that numpy pairs copy axis
# with copy axis; sum, mean, take, pick and concat reduce or index each copy;
# the rest broadcast as they are.  Slice c of the result is, bit for bit, what
# the forward computes from copy c's operands.  No backward reads the flags.
# ---------------------------------------------------------------------------

def _one_copy(vals, copied):
    return [v[0] if c else v for v, c in zip(vals, copied)]


def _align(vals, copied):
    # give each copied operand the largest per-copy rank
    rank = max(v.ndim - c for v, c in zip(vals, copied))
    return [v.reshape(v.shape[:1] + (1,) * (rank + 1 - v.ndim) + v.shape[1:])
            if c and v.ndim <= rank else v for v, c in zip(vals, copied)]


def _binary(vals, attrs, kind):
    # the two operands once their shapes (one copy's, if copied) pass; if copied, rank-aligned
    copied = attrs.get("copied")
    a, b = vals if copied is None else _one_copy(vals, copied)
    if a.shape == b.shape or a.size == 1 or b.size == 1 or (
            a.ndim == b.ndim == 2 and a.shape[1] == b.shape[1] and 1 in (a.shape[0], b.shape[0])):
        return vals if copied is None else _align(vals, copied)
    raise ShapeMismatch(f"{kind}: {a.shape} vs {b.shape} (exact match, scalar or (1, k) row only)")


def _reduce_to(g, shape):
    # collapse a broadcast gradient back onto a size-1 operand or a (1, k) row
    if g.shape == shape:
        return g
    if len(shape) == 2 and shape[0] == 1 and shape[1] > 1:
        return g.sum(axis=0, keepdims=True)
    return np.full(shape, g.sum(), dtype=np.float64)


def _fw_matmul(vals, attrs):
    a, b = vals if "copied" not in attrs else _one_copy(vals, attrs["copied"])
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeMismatch(f"matmul: {a.shape} @ {b.shape}")
    return vals[0] @ vals[1], None


def _bw_matmul(ctx, vals, g):
    a, b = vals
    return g @ b.T, a.T @ g


def _fw_add(vals, attrs):
    a, b = _binary(vals, attrs, "add")
    return a + b, None


def _bw_add(ctx, vals, g):
    a, b = vals
    return _reduce_to(g, a.shape), _reduce_to(g, b.shape)


def _fw_mul(vals, attrs):
    a, b = _binary(vals, attrs, "mul")
    return a * b, None


def _bw_mul(ctx, vals, g):
    a, b = vals
    return _reduce_to(g * b, a.shape), _reduce_to(g * a, b.shape)


def _fw_concat(vals, attrs):
    # if copied, a shared operand is broadcast to the copies, but one whose leading axes are a
    # copied operand's holds one value per copy (such as the states of the copies' own episodes)
    if not vals:
        raise ShapeMismatch("concat: no inputs")
    copied = attrs.get("copied")
    lead = vals[0].shape[:-1]
    if copied is not None:
        lead = next(v.shape[:-1] for v, c in zip(vals, copied) if c)
        if not lead:
            raise ShapeMismatch("concat: inputs must have rank >= 1")
        vals = [np.broadcast_to(v, lead + v.shape[-1:]) if not c and v.shape[:-1] == lead[1:] else v
                for v, c in zip(vals, copied)]
    for v in vals:
        if v.ndim == 0 or v.shape[:-1] != lead:
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
    y = np.tanh(vals[0])
    return y, y


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
    return out, out


def _bw_sigmoid(ctx, vals, g):
    y = ctx
    return (g * y * (1.0 - y),)


def _fw_softmax(vals, attrs):
    (x,) = vals
    if (x[0] if "copied" in attrs else x).ndim == 0:
        raise ShapeMismatch("softmax: rank >= 1 required")
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    e /= e.sum(axis=-1, keepdims=True)
    return e, e


def _bw_softmax(ctx, vals, g):
    y = ctx
    dot = (g * y).sum(axis=-1, keepdims=True)
    return (y * (g - dot),)


def _fw_log_softmax(vals, attrs):
    # log(softmax(x)) without forming softmax: finite however far apart x's entries are
    (x,) = vals
    if (x[0] if "copied" in attrs else x).ndim == 0:
        raise ShapeMismatch("log_softmax: rank >= 1 required")
    z = x - x.max(axis=-1, keepdims=True)
    z -= np.log(np.exp(z).sum(axis=-1, keepdims=True))
    return z, z


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
    # the sum of all entries, or the sums along `axis` with that dim kept (size 1); if copied,
    # each copy's
    (x,) = vals
    axis = attrs.get("axis")
    if "copied" in attrs:
        return (x.reshape(len(x), -1).sum(axis=1) if axis is None
                else x.sum(axis=range(1, x.ndim)[axis], keepdims=True)), None
    return (np.asarray(x.sum()) if axis is None else x.sum(axis=axis, keepdims=True)), None


def _bw_sum(ctx, vals, g):
    (x,) = vals
    out = np.empty_like(x)
    out[...] = g
    return (out,)


def _fw_mean(vals, attrs):
    (x,) = vals
    # np.mean's sum and division, without its wrapper
    return (x.reshape(len(x), -1).mean(axis=1) if "copied" in attrs
            else np.asarray(x.sum() / x.size)), None


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
    if (x[0] if "copied" in attrs else x).ndim == 0:
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
    # the (B, 1) column x[rows[b], index[b]]; on n stacked (R, k) x, the (B, n) x[i, rows[b],
    # index[b, i]]; rows, each row of x in turn unless given, may repeat; if copied, in each copy
    (x,) = vals
    one = x[0] if "copied" in attrs else x
    index = np.asarray(attrs["index"], dtype=np.intp)
    rows = np.asarray(np.arange(one.shape[-2] if one.ndim > 1 else 0) if attrs.get("rows") is None
                      else attrs["rows"], dtype=np.intp)
    if one.ndim == 2 and index.ndim == 1 and index.shape == rows.shape:
        ctx = (rows, index)
    elif one.ndim != 3 or index.ndim != 2 or rows.shape != index.shape[:1] \
            or len(one) not in (1, index.shape[1]):
        raise ShapeMismatch(f"pick: index of shape {index.shape}, rows {rows.shape} on {one.shape}")
    else:
        ctx = (np.arange(index.shape[1]) % len(one), rows[:, None], index)
    out = x[ctx] if one is x else x[(slice(None),) + ctx]
    return (out[..., None] if one.ndim == 2 else out), ctx


def _bw_pick(ctx, vals, g):
    # each read's adjoint added to its entry in the reads' C order, so an entry read twice (a
    # repeated row, or a stack of one serving all n columns) sums its adjoints
    (x,) = vals
    flat = np.ravel_multi_index(ctx, x.shape, mode="wrap")
    return (np.bincount(flat.reshape(-1), g.reshape(-1), x.size).reshape(x.shape),)


def _take_index(x, attrs):
    # x[index] on the leading axis, each entry in [0, len(x)): an int drops it, a 1-D array keeps it
    try:
        index = np.asarray(attrs["index"])
    except ValueError:    # a ragged list
        raise ShapeMismatch(f"take: ragged index on {x.shape}")
    if x.ndim == 0 or index.ndim > 1 or index.dtype.kind not in "iu" \
            or not ((0 <= index) & (index < len(x))).all():
        raise ShapeMismatch(f"take: index {index.tolist()} on {x.shape}")
    return index


def _fw_take(vals, attrs):
    # if copied, from each copy
    (x,) = vals
    if "copied" in attrs:
        index = _take_index(x[0], attrs)
        return x[:, index], index
    index = _take_index(x, attrs)
    return x[index], index


def _bw_take(ctx, vals, g):
    out = np.zeros_like(vals[0])
    np.add.at(out, ctx, g)    # an index repeated sums its rows' gradients
    return (out,)


def _fw_dense(vals, attrs):
    # one layer act(x @ W + b), W (in, out) and b (1, out); n stacked layers, W (n, in, out) and
    # b (n, 1, out), each run on x or on its slice of an (n, B, in) x.  Given no x, the layer at
    # each one-hot input, the rows of eye(in), whose product is W itself: act(W + b)
    copied = attrs.get("copied")
    *x, w, b = vals if copied is None else _one_copy(vals, copied)
    ws = w.shape    # a w of rank < 2 fails xs[-1:] != ws[-2:-1]
    xs = x[0].shape if x else ws[-2:-1] * 2    # no x: eye(in)'s shape
    if len(x) > 1 or len(xs) < 2 or len(ws) > 3 or xs[-1:] != ws[-2:-1] or xs[:-2] not in ((), ws[:-2]) \
            or b.shape != ws[:-2] + (1, ws[-1]):
        raise ShapeMismatch(f"dense: {xs} @ {ws} + {b.shape}")
    act = attrs["act"]
    if not x:    # operand shapes match from the right, so copies need no alignment
        pre = vals[0] + vals[1]
    elif copied is None:
        pre = np.matmul(x[0], w)
        pre += b    # in place, as relu below: past 128 KiB each new array can cost page faults
    else:    # a copied b alone widens the product
        x, w, b = _align(vals, copied)
        pre = np.matmul(x, w) + b
    out = (np.maximum(pre, 0.0, out=pre) if act == "relu"    # its backward reads only the sign
           else pre if act == "identity" else OPS[act][0]((pre,), attrs)[0])
    return out, (act, pre, out)


def _bw_dense(ctx, vals, g):
    # the activation's own backward, looked up now, reads the output or the pre-activation
    act, pre, out = ctx
    if act != "identity":
        (g,) = OPS[act][1](out, (pre,), g)
    if len(vals) == 2:    # eye(in)' g is g
        return g, g.sum(axis=-2, keepdims=True)
    x, w, b = vals
    gx = np.matmul(g, w.swapaxes(-1, -2))
    if gx.ndim > x.ndim:    # summed last slice first, as n records' adjoints sum in the sweep
        gx = sum(gx[-2::-1], gx[-1])
    return gx, np.matmul(x.swapaxes(-1, -2), g), g.sum(axis=-2, keepdims=True)


def _fw_mix(vals, attrs):
    # per row b, |w2| . elu(|W1| q + b1) + b2, W1 the (e, n) block of w1, b1 and w2 hyper's two
    # slices, all read at row rows[b] of the R-row w1, hyper and b2, or at row b unless rows is
    # given; leading axes broadcast, so copied operands need no alignment
    q, w1, hyper, b2 = vals if "copied" not in attrs else _one_copy(vals, attrs["copied"])
    rows = attrs.get("rows")
    if q.ndim != 2 or hyper.ndim != 3 or hyper.shape[0] != 2 or b2.shape != (hyper.shape[1], 1) \
            or w1.shape != (hyper.shape[1], q.shape[1] * hyper.shape[2]) \
            or (np.shape(rows) if rows is not None else hyper.shape[1:2]) != q.shape[:1]:
        raise ShapeMismatch(f"mix: q {q.shape}, w1 {w1.shape}, b1|w2 {hyper.shape}, b2 {b2.shape}"
                            f", rows {np.shape(rows)}")
    q, w1, hyper, b2 = vals
    if rows is not None:
        rows = np.asarray(rows, np.intp)
        w1, hyper, b2 = w1.take(rows, axis=-2), hyper.take(rows, axis=-2), b2.take(rows, axis=-2)
    a1 = np.abs(w1).reshape(w1.shape[:-1] + hyper.shape[-1:] + q.shape[-1:])
    pre = (a1 * q[..., None, :]).sum(axis=-1) + hyper[..., 0, :, :]
    hidden = _fw_elu((pre,), attrs)[0]
    a2 = np.abs(hyper[..., 1, :, :])
    return (a2 * hidden).sum(axis=-1, keepdims=True) + b2, (rows, a1, pre, hidden, a2)


def _bw_mix(ctx, vals, g):
    # the adjoints of |W1|, b1, |w2| and b2 at each row b, summed into row rows[b] if given,
    # then through |.|
    q, w1, hyper, _ = vals
    rows, a1, pre, hidden, a2 = ctx
    (gpre,) = _bw_elu(None, (pre,), g * a2)
    gw1, gb1, gw2 = (gpre[:, :, None] * q[:, None, :]).reshape(len(q), -1), gpre, g * hidden
    if rows is not None:
        onehot = (np.arange(len(w1))[:, None] == rows).astype(g.dtype)
        gw1, gb1, gw2, g = onehot @ gw1, onehot @ gb1, onehot @ gw2, onehot @ g
    return ((gpre[:, :, None] * a1).sum(axis=1), gw1 * np.sign(w1),
            np.array([gb1, gw2 * np.sign(hyper[1])]), g)


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
    "take": (_fw_take, _bw_take),
    "mix": (_fw_mix, _bw_mix),
}


class Graph:
    """Append-only tape of the records of ops that need a gradient."""

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

    def pick(self, x, index, rows=None):
        return self.op("pick", (x,), index=index, rows=rows)

    def take(self, x, index):
        return self.op("take", (x,), index=index)


class OffTape(Graph):
    """The Graph ops on plain arrays: each runs the op table's forward on its
    operands and returns an array, recording nothing.  reads maps a Tensor to
    the array read in its place; any other Tensor is read through .value."""

    def __init__(self, reads=None):
        super().__init__()
        self.reads = {} if reads is None else reads

    def constant(self, value):
        return np.asarray(value, dtype=np.float64)

    def op(self, kind, inputs, **attrs):
        pair = OPS.get(kind)
        if pair is None:
            raise UnknownOp(kind)
        return pair[0]([self.reads.get(x, x.value) if type(x) is Tensor else x for x in inputs],
                       attrs)[0]

    def tensors(self, params):
        """Tensors named as params over the arrays read in their place: a
        checkpoint tree's handle on those arrays."""
        return [_wrap(self.reads[p], False, p.name) for p in params]


EVAL = OffTape()


class Stacked(OffTape):
    """The Graph ops on S copies of some parameters at once, off the tape.

    stacks, kept as the graph's reads, maps a Tensor to the (S, *shape) array
    of its values in the S copies.  An op result that depends on a stacked
    operand carries the copy axis in front, and its slice c is, bit for bit,
    what EVAL computes from copy c's values.  Any other operand (a constant,
    a Tensor outside stacks, a result of such operands only) is shared by
    every copy; concat also takes a constant with the copy axis in front, one
    value per copy.  A stacked result must reach the next op as the very
    array returned here.  Each op runs the op table's forward, given the
    attribute copied when an operand is stacked (see the op table).
    """

    def __init__(self, stacks):
        super().__init__(stacks)
        self._results = {}   # id -> each stacked result, held so that no id is reused

    def op(self, kind, inputs, **attrs):
        pair = OPS.get(kind)
        if pair is None:
            raise UnknownOp(kind)
        vals, copied = [], []
        for x in inputs:
            if type(x) is Tensor:
                v = self.reads.get(x)
                vals.append(x.value if v is None else v)
                copied.append(v is not None)
            else:
                vals.append(x)
                copied.append(id(x) in self._results)
        if not any(copied):
            return pair[0](vals, attrs)[0]
        attrs["copied"] = tuple(copied)
        out = pair[0](vals, attrs)[0]
        self._results[id(out)] = out
        return out


def forward_op(graph, kind, inputs, **attrs):
    """Execute one op eagerly, recording it on the graph if an input needs a gradient."""
    pair = OPS.get(kind)
    if pair is None:
        raise UnknownOp(kind)
    inputs = tuple(inputs)
    out_value, ctx = pair[0]([t.value for t in inputs], attrs)
    out = _wrap(out_value, any([t.requires_grad for t in inputs]))
    if out.requires_grad:
        graph.records.append(_Record(kind, inputs, out, ctx))
    return out


def backward(graph, root):
    """Accumulate d(root)/d(leaf) into .grad of every requires_grad leaf.

    The root must be scalar-sized and a recorded output (not of constants
    alone).  The tape is swept once in reverse, so each op is visited exactly
    once and fan-out contributions sum into one adjoint per tensor; a leaf's
    summed adjoint is then added to its .grad.
    """
    if not any(rec.output is root for rec in reversed(graph.records)):
        raise NdiffError("root is not recorded on this graph")
    if root.value.size != 1:
        raise NonScalarRoot(f"root has shape {root.shape}")
    acc = {root: np.ones_like(root.value)}
    for rec in reversed(graph.records):
        g = acc.get(rec.output)
        if g is None:
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
    """Fully connected net; weights Glorot-uniform, biases zero.  Named by n names, a stack of
    n such nets drawn in turn, each layer an (n, in, out) weight and an (n, 1, out) bias."""

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
        self.stacked = not isinstance(name, str)
        self.names = list(name) if self.stacked else [name]
        self.name, lead = "+".join(self.names), (len(self.names),) * self.stacked
        sizes = list(zip(self.layer_sizes[:-1], self.layer_sizes[1:]))
        draws = zip(*[[glorot_uniform(rng, *size) for size in sizes] for _ in self.names])
        self.weights = [param(np.reshape(ws, lead + ws[0].shape), name=f"{self.name}/W{l}")
                        for l, ws in enumerate(draws)]
        self.biases = [param(np.zeros(lead + (1, n_out)), name=f"{self.name}/b{l}")
                       for l, (_, n_out) in enumerate(sizes)]

    @property
    def params(self):
        return [p for pair in zip(self.weights, self.biases) for p in pair]

    def net_params(self, params=None):
        """Each net's list of params, or of tensors standing in for them, named as a lone
        net's: a stack's are views into its slices."""
        return [[_wrap(p.value[i], False, f"{net}/{p.name.split('/')[-1]}") if self.stacked else p
                 for p in params or self.params] for i, net in enumerate(self.names)]

    def forward(self, g, x, params=None):
        """(B, out) output of a (B, in) x, or a stack's (n, B, out) on x or an (n, B, in) x;
        x None stands for eye(in), each one-hot input, with no product taken on it.  Given one
        net's net_params(), that net's output alone, by views taking no gradient."""
        h = x
        ws, bs = (self.weights, self.biases) if params is None else (params[::2], params[1::2])
        for act, w, b in zip(self.activations, ws, bs):
            h = g.op("dense", (w, b) if h is None else (h, w, b), act=act)
        return h


# ---------------------------------------------------------------------------
# optimization
# ---------------------------------------------------------------------------

def _tensors(layout):
    return [p for item in layout for p in (item if isinstance(item, list) else [item])]


def _views(vector, layout, n=1):
    """Views into vector, or into each of its n rows, shaped as the layout's tensors laid end
    to end.  A list in the layout is a stack's params, which share a leading axis: laid slice
    by slice, so that its nets lie one after another as lone nets' params would."""
    views, start = [], 0
    for item in layout:
        if isinstance(item, list):
            size, k = sum(p.value.size for p in item), len(item[0].value)
            if any(len(p.value) != k for p in item):
                raise ShapeMismatch(f"stack of {[p.shape for p in item]}")
            views += _views(vector[start:start + size].reshape(k, -1), item, k)
        else:
            size = item.value.size // n
            views.append(vector[..., start:start + size].reshape(item.value.shape))
        start += size
    return views


def flatten(layout):
    """Copy the layout's tensors (see _views) into one value and one grad vector and
    rebind each tensor's .value and .grad as views into them; returns (value, grad)."""
    params = _tensors(layout)
    if len({id(p) for p in params}) != len(params):
        raise NdiffError("flatten: a tensor appears twice")
    value, grad = (np.empty(sum(p.value.size for p in params)) for _ in range(2))
    for p, v, g in zip(params, _views(value, layout), _views(grad, layout)):
        v[...], g[...] = p.value, p.grad
        p.value, p.grad = v, g
    return value, grad


class AdamState:
    """Adam moments, at the ADAM_* rates, over one flat value and grad vector (see flatten)."""

    def __init__(self, params, lr):
        self.layout = list(params)
        self.params = _tensors(self.layout)
        self.value, self.grad = flatten(self.layout)
        self.lr = float(lr)
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
    c1 = 1.0 - ADAM_BETA1 ** state.step_count
    c2 = 1.0 - ADAM_BETA2 ** state.step_count
    m, v, g = state.m, state.v, state.grad
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * (g * g)
    state.value -= state.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
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


def target_graph(opts):
    """Lagged targets of some AdamStates: (vectors, graph), a copy of each
    one's value vector and the off-tape graph that reads each of their params
    from its view into that copy.  A model's forward on graph is its target."""
    vectors = [opt.value.copy() for opt in opts]
    return vectors, OffTape({p: view for opt, vector in zip(opts, vectors)
                             for p, view in zip(opt.params, _views(vector, opt.layout))})


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

def grad_check(f, params, h=1e-5):
    """Compare tape gradients of a scalar root against central differences.

    f(g) runs the computation on graph g, from g's ops, params and
    constants, and returns its scalar root; it must be deterministic.  It is
    called twice.  On a Graph, backward gives the analytic gradient.  On one
    Stacked graph of 2P copies of params, P being their number of
    coordinates, copy k has coordinate k moved up by h and copy P + k has it
    moved down, so the roots hold every central difference at once.
    Returns the maximum relative error |analytic - numeric| /
    max(|analytic|, |numeric|, 1e-8) over all coordinates of params that
    require gradients, or NaN if either gradient has a NaN.  Tensors that
    require none are skipped and keep their .grad.
    """
    params = [p for p in params if p.requires_grad]
    if len({id(p) for p in params}) != len(params):
        raise NdiffError("grad_check: a tensor appears twice")
    for p in params:
        p.grad[...] = 0.0
    graph = Graph()
    root = f(graph)
    if root.value.size != 1:
        raise NonScalarRoot(f"grad_check root has shape {root.shape}")
    backward(graph, root)
    n = sum(p.value.size for p in params)
    if n == 0:
        return 0.0
    analytic = np.concatenate([p.grad.reshape(-1) for p in params])
    stacks, offset = {}, 0
    for p in params:
        stack = np.repeat(p.value[None], 2 * n, axis=0)
        p.grad[...] = 0.0
        flat = stack.reshape(2 * n, -1)
        i = np.arange(flat.shape[1])
        flat[offset + i, i] += h
        flat[n + offset + i, i] -= h
        stacks[p] = stack
        offset += flat.shape[1]
    roots = np.asarray(f(Stacked(stacks)))
    if roots.size not in (1, 2 * n):
        raise NonScalarRoot(f"grad_check root has shape {roots.shape[1:]} per copy")
    roots = np.broadcast_to(roots.reshape(-1), (2 * n,))
    numeric = (roots[:n] - roots[n:]) / (2.0 * h)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


# ---------------------------------------------------------------------------
# checkpoint trees: nested dicts and lists of strings and tensor lists
# ---------------------------------------------------------------------------

def _named(tree, path):
    if not isinstance(tree, list) or not all(isinstance(p, Tensor) for p in tree):
        return tree
    named = {p.name: p for p in tree}
    if len(named) < len(tree):
        raise NdiffError(f"{path}: two tensors share a name")
    return named


def tree_to_json(tree, path="payload"):
    """The tree's JSON form: a tensor list, an empty one too, becomes {name: base64}, each
    tensor stored as the base64 text of its values' little-endian float64 bytes."""
    tree = _named(tree, path)
    if isinstance(tree, Tensor):
        return base64.b64encode(tree.value.astype("<f8").tobytes()).decode("ascii")
    if isinstance(tree, list):
        return [tree_to_json(v, f"{path}/{i}") for i, v in enumerate(tree)]
    if isinstance(tree, dict):
        return {k: tree_to_json(v, f"{path}/{k}") for k, v in tree.items()}
    return tree


def tree_from_json(obj, tree, path="payload"):
    """Load obj, a checkpoint tree's JSON form, into the tree's tensors. obj must hold exactly
    the tree's keys, list lengths, strings and tensor sizes, and only finite values; an error
    names where it differs.
    A tensor is read from base64 float64 bytes, or from a list of floats as v1 files hold."""
    tree = _named(tree, path)
    if isinstance(tree, Tensor):
        try:
            if isinstance(obj, str):    # binascii.Error is a ValueError, as is a ragged buffer
                obj = np.frombuffer(base64.b64decode(obj, validate=True), "<f8")
            value = np.asarray(obj, dtype=np.float64).reshape(tree.value.shape)
        except (TypeError, ValueError):
            raise ShapeMismatch(f"{path}: does not fill shape {tree.value.shape}")
        except OverflowError:    # an integer past float64's range, as a v1 list may hold
            value = np.inf
        if not np.isfinite(value).all():
            raise NdiffError(f"{path}: holds a NaN or infinite value")
        tree.value[...] = value
    elif isinstance(tree, str):
        if obj != tree:
            raise NdiffError(f"{path}: {obj!r:.40}, expected {tree!r}")
    elif type(obj) is not type(tree):
        raise NdiffError(f"{path}: a {type(obj).__name__}, expected a {type(tree).__name__}")
    else:
        want, got = (dict(enumerate(t)) if isinstance(t, list) else t for t in (tree, obj))
        odd = sorted(want.keys() ^ got.keys())
        if odd:
            raise NdiffError(f"{path}/{odd[0]}: {'missing' if odd[0] in want else 'unexpected'}")
        for k, sub in want.items():
            tree_from_json(got[k], sub, f"{path}/{k}")

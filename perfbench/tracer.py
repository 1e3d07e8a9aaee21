"""Outside-in tracing of marlab's layers, and microprobes of ndiff's ops.

`Tracer.install` wraps every public function and public method defined in
each layer module (`marlab.<layer>`) and rebinds every module-level name in
`marlab` that refers to one, so calls through `from .ndiff import adam_step`
are traced too.  A wrapper records the call's duration; a function's self
time is its duration minus the durations of the traced calls made inside it.
Spans are folded into per-function totals in memory as they end.
"""

import contextlib
import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np


# percentiles tried for the high end of a timing, highest first; the report
# uses the highest one with at least ten samples beyond it
_HIGH_PERCENTILES = (99.9, 99.0, 90.0, 50.0)


class FunctionStats:
    __slots__ = ("layer", "calls", "self_s", "durations")

    def __init__(self, layer):
        self.layer = layer
        self.calls = 0
        self.self_s = 0.0
        self.durations = array("d")


def timing_summary(values):
    """Median and highest percentile with at least ten samples beyond it, in
    the units of values: (n, median, (label, value) or None)."""
    n = len(values)
    if n == 0:
        return 0, None, None
    values = np.asarray(values, dtype=np.float64)
    high = None
    for p in _HIGH_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10:
            high = (f"p{p:g}", float(np.percentile(values, p)))
            break
    return n, float(np.median(values)), high


class Tracer:
    """Per-function call counts, self time and call durations.

    hooks maps a traced name ("ndiff.backward") to f(counters, args, result),
    run after the call; its time is kept out of every span and counted in
    excluded_s.
    """

    def __init__(self, layers, hooks=None):
        self.layers = tuple(layers)
        self.hooks = dict(hooks or {})
        self.stats = {}
        self.counters = {}
        self.root_s = 0.0        # summed durations of spans with no traced caller
        self.excluded_s = 0.0    # hook time spent inside spans
        self.recording = True
        self._stack = []
        self._patches = []

    def _wrap(self, layer, name, fn):
        key = f"{layer}.{name}"
        st = self.stats.setdefault(key, FunctionStats(layer))
        stack = self._stack
        clock = time.perf_counter
        hook = self.hooks.get(key)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                st.calls += 1
                st.self_s += dur - frame[0]
                st.durations.append(dur)
                if stack:
                    stack[-1][0] += dur
                else:
                    tracer.root_s += dur
            if hook is not None:
                t0 = clock()
                hook(tracer.counters, args, result)
                spent = clock() - t0
                if stack:
                    stack[-1][0] += spent
                    tracer.excluded_s += spent
            return result

        return traced

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        replaced = {}
        for layer in self.layers:
            mod = importlib.import_module(f"marlab.{layer}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = (obj, self._wrap(layer, name, obj))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    for attr, fn in list(vars(obj).items()):
                        if attr.startswith("_") or not inspect.isfunction(fn):
                            continue
                        self._patches.append((obj, attr, fn))
                        setattr(obj, attr, self._wrap(layer, f"{name}.{attr}", fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "marlab" and not modname.startswith("marlab."):
                continue
            for name, obj in list(vars(mod).items()):
                entry = replaced.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patches.append((mod, name, obj))
                    setattr(mod, name, entry[1])

    def remove(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside the block run unrecorded; call it with no traced
        call open."""
        self.recording = False
        try:
            yield
        finally:
            self.recording = True

    def calls(self, key):
        st = self.stats.get(key)
        return st.calls if st else 0

    def layer_self_s(self):
        out = {layer: 0.0 for layer in self.layers}
        for st in self.stats.values():
            out[st.layer] += st.self_s
        return out

    def accounting_error(self):
        """How far the summed self times miss the summed root spans, as a share
        of the root spans; 0 when every span's time is attributed once."""
        total_self = sum(st.self_s for st in self.stats.values())
        if self.root_s <= 0.0:
            return 0.0
        return abs(total_self + self.excluded_s - self.root_s) / self.root_s


def count_tape(counters, args, result):
    """Hook on ndiff.backward: tape records, and those whose output needs a
    gradient."""
    records = args[0].records
    counters["tape_records"] = counters.get("tape_records", 0) + len(records)
    counters["grad_records"] = counters.get("grad_records", 0) + sum(
        1 for rec in records if rec.output.requires_grad)


def count_adam_tensors(counters, args, result):
    """Hook on ndiff.adam_step: parameter tensors per call."""
    counters["adam_tensors"] = counters.get("adam_tensors", 0) + len(args[1].params)


def track_replay_fill(counters, args, result):
    """Hook on buffer.ReplayBuffer.push: the largest share of its capacity a
    replay has held; 1.0 means later pushes overwrite the oldest items."""
    buf = args[0]
    counters["replay_fill"] = max(counters.get("replay_fill", 0.0), len(buf) / buf.capacity)


HOOKS = {"ndiff.backward": count_tape, "ndiff.adam_step": count_adam_tensors,
         "buffer.ReplayBuffer.push": track_replay_fill}


def probe_ops(ndiff, op_probes, reps, rng):
    """Median µs of forward_op and of backward for one op of each kind.

    Forward is one forward_op call on a fresh graph.  Backward is the sweep of
    a tape holding the op and, for a non-scalar output, the sum that reduces
    it to a scalar root.  overhead_us is the forward of a 1x1 neg.
    """
    clock = time.perf_counter
    out = {}

    def time_op(kind, shapes, attrs):
        fw, bw = [], []
        for _ in range(reps):
            g = ndiff.Graph()
            inputs = [ndiff.param(rng.uniform(0.5, 1.5, size=s)) for s in shapes]
            t0 = clock()
            y = ndiff.forward_op(g, kind, inputs, **attrs)
            fw.append(clock() - t0)
            root = y if y.value.size == 1 else ndiff.forward_op(g, "sum", (y,))
            t0 = clock()
            ndiff.backward(g, root)
            bw.append(clock() - t0)
        return float(np.median(fw)) * 1e6, float(np.median(bw)) * 1e6

    for kind, (shapes, attrs) in op_probes.items():
        out[f"ndiff.op.{kind}.fw_us"], out[f"ndiff.op.{kind}.bw_us"] = \
            time_op(kind, shapes, attrs)
    out["ndiff.op.overhead_us"] = time_op("neg", [(1, 1)], {})[0]
    return out

#!/usr/bin/env python3
"""Run one workload of the marlab benchmark for one seed.

    python3 perfbench/run.py --workload value_replay --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports marlab from ./src.  It drives
marlab as its users do, through `cli.main([...])`: `marlab train` jobs,
`marlab eval` on each job's checkpoint and `marlab gradcheck`.  Every output
is checked against the exact oracles, and a failed check counts as a failed
operation instead of stopping the run.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones of
BENCHMARK.json; with --trace 1 they are the per-layer ones, measured with a
wrapper around every public function of each layer.  The lines above it
report the machine, every metric with its sample counts, the oracle gap and,
when traced, the per-function table.
"""

import os
import time

# set-up time starts at the benchmark's first line
_STARTED = time.perf_counter()

# numpy here links an OpenBLAS built for 64 threads; pin it to one before
# numpy is imported anywhere in this process or its children
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import dataclasses  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
import types  # noqa: E402
from collections import defaultdict  # noqa: E402

import numpy as np  # noqa: E402

import spec  # noqa: E402
import tracer  # noqa: E402

# seconds from the first line to here: the interpreter's own imports and numpy
IMPORT_S = time.perf_counter() - _STARTED

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

EXIT_USAGE = 2


class BenchError(Exception):
    """The benchmark cannot run here; nothing is measured."""


class CheckFailed(Exception):
    """An output of marlab is wrong; the operation counts as failed."""


def expect(ok, message):
    if not ok:
        raise CheckFailed(message)


def check_environment():
    if "MARLAB_SEED" in os.environ:
        raise BenchError("MARLAB_SEED is set; marlab would let it override "
                         "every job's seed, so the benchmark refuses to run")
    if not (SRC / "marlab" / "__init__.py").is_file():
        raise BenchError(f"no marlab sources under {SRC}")


def load_marlab(fresh=False):
    """Import marlab from this checkout's src/, never from anywhere else;
    `fresh` drops the marlab modules imported before, so the import runs
    again."""
    check_environment()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if fresh:
        for name in [n for n in sys.modules if n == "marlab" or n.startswith("marlab.")]:
            del sys.modules[name]
    import marlab
    from marlab import cli, envs, ndiff, oracle
    if pathlib.Path(marlab.__file__).resolve().parent != (SRC / "marlab").resolve():
        raise BenchError(f"marlab was imported from {marlab.__file__}, not {SRC}")
    return types.SimpleNamespace(cli=cli, envs=envs, ndiff=ndiff, oracle=oracle)


def machine_info():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    except OSError:
        load = "unknown"
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "openblas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "loadavg": load}


def _finite_numbers(obj):
    if isinstance(obj, bool):
        return True
    if isinstance(obj, (int, float)):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(_finite_numbers(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_finite_numbers(v) for v in obj)
    return True


def _check_metrics_row(row):
    """Every numeric cell of a metrics.csv row parses and is finite; loss and
    epsilon may be empty."""
    expect(len(row) == 7, f"metrics.csv row has {len(row)} cells")
    step, episodes, loss, eps, ret, per_agent, extra = row
    try:
        numbers = [int(step), int(episodes), float(ret)]
        numbers += [float(x) for x in (loss, eps) if x != ""]
        numbers += json.loads(per_agent)
        extra = json.loads(extra) if extra else {}
    except (ValueError, TypeError) as e:
        raise CheckFailed(f"metrics.csv row {row} does not parse: {e}")
    expect(_finite_numbers(numbers) and _finite_numbers(extra),
           f"metrics.csv row {row} holds a non-finite number")


def _last_json(text, what):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    expect(lines, f"{what} printed nothing")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as e:
        raise CheckFailed(f"{what} printed no JSON: {e}")


class Reference:
    """The exact answer for one game, and the gap of a greedy result to it."""

    def __init__(self, m, env_name):
        self.m = m
        env = self.env = m.envs.resolve_env(env_name)
        self.comm = bool(env.meta.get("comm"))
        self.check_s = []    # seconds of each best_response_value call
        t0 = time.perf_counter()
        if env.zero_sum:
            self.solver = "nash_zero_sum_enumerate"
            _, _, self.optimum = m.oracle.nash_zero_sum_enumerate(env)
        elif not env.all_discrete():
            self.solver = None
            self.optimum = spec.CONTINUOUS_OPTIMUM
        else:
            self.solver = "tabular_q_iteration"
            tab = m.oracle.tabular_q_iteration(env)
            self.optimum = float(sum(p * tab.value(s) for s, p in enumerate(env.init_dist) if p))
        self.solve_s = time.perf_counter() - t0

    def check(self, per_agent, extra):
        """Raise CheckFailed if a greedy result beats the exact optimum; return
        its distance to the optimum."""
        tol = spec.ORACLE_TOL
        if self.env.zero_sum:
            policy = extra.get("policy")
            expect(policy is not None, "zero-sum result carries no policy")
            t0 = time.perf_counter()
            _, reply = self.m.oracle.best_response_value(self.env, 1, policy)
            self.check_s.append(time.perf_counter() - t0)
            exploitability = reply + self.optimum
            expect(exploitability >= -tol,
                   f"policy guarantees {-reply!r}, above the Nash value {self.optimum!r}")
            return exploitability
        best = max(per_agent)
        expect(best <= self.optimum + tol,
               f"greedy return {best!r} exceeds the exact optimum {self.optimum!r}")
        mean = float(np.mean(per_agent))
        if self.comm:
            accuracy = extra.get("accuracy")
            expect(accuracy is not None and 0.0 <= accuracy <= 1.0,
                   f"accuracy {accuracy!r} outside [0, 1]")
            return 1.0 - accuracy
        if not self.env.all_discrete():
            return math.sqrt(max(0.0, -mean))    # |a1 + a2 - 1|
        return self.optimum - mean


def _median(values):
    return float(np.median(values)) if values else None


class Samples:
    """Timings of the completed operations of one phase of a run."""

    def __init__(self):
        self.train_s = defaultdict(list)    # "algo/env" -> seconds per job
        self.eval_s = defaultdict(list)     # "algo/env" -> seconds per eval call
        self.gradcheck_s = []
        self.steps = 0
        self.calls = defaultdict(int)       # traced calls made inside train jobs
        self.kind_steps = defaultdict(int)  # "algo/env" -> training steps traced
        self.updates = defaultdict(int)     # "algo/env" -> learner updates traced

    def steps_per_s(self, jobs):
        """Training steps of one cycle over the workload's jobs per second,
        each job taking the median time of its kind."""
        return _per_cycle(jobs, self.train_s, "steps")

    def eval_episodes_per_s(self, jobs):
        return _per_cycle(jobs, self.eval_s, "eval_episodes")


def _per_cycle(jobs, seconds_by_kind, size):
    if any(not seconds_by_kind[_kind(j)] for j in jobs):
        return None
    return sum(getattr(j, size) for j in jobs) / sum(
        _median(seconds_by_kind[_kind(j)]) for j in jobs)


def _kind(job):
    return f"{job.algo}/{job.env}"


class Bench:
    """One workload's operations, their checks and their failure counts."""

    def __init__(self, m, workload_name, seed, workdir, steps=None):
        """`steps` replaces the training steps of every job, for quick runs."""
        self.m = m
        self.name = workload_name
        self.workload = spec.WORKLOADS[workload_name]
        self.jobs = tuple(dataclasses.replace(j, steps=steps or j.steps)
                          for j in self.workload.jobs)
        self.seed = int(seed)
        self.workdir = pathlib.Path(workdir)
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.refs = {}
        self.gaps = []
        self.setup_s = []                    # seconds of each set-up
        self.kernel_s = []                   # host kernel seconds around each operation
        self.solve_s = defaultdict(list)     # oracle solver -> seconds per solve
        self.tracer = None
        self._next_job = 0
        self._kernel_x = np.random.default_rng(0).normal(size=(32, 32))

    # -- plumbing --------------------------------------------------------------
    def job_seed(self, index):
        state = np.random.SeedSequence([self.seed, index]).generate_state(1)
        return int(state[0] & 0x7FFFFFFF)

    def _cli(self, argv):
        """cli.main(argv) with its output captured: (exit code, stdout,
        stderr); an exception escaping cli.main gives exit code None."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.m.cli.main(argv)
            except Exception:
                traceback.print_exc()
                rc = None
        return rc, out.getvalue(), err.getvalue()

    def host_kernel(self):
        """Seconds of a fixed mix of small matmuls and Python arithmetic, the
        kind of work marlab does; it tracks how fast the host runs now."""
        x = self._kernel_x
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(spec.KERNEL_REPS):
            acc += float(np.maximum(x @ x, 0.0)[0, 0]) + 0.5 * i
        return time.perf_counter() - t0

    def timed(self, label, fn):
        """operation(label, fn) between two runs of the host kernel."""
        self.kernel_s.append(self.host_kernel())
        result = self.operation(label, fn)
        self.kernel_s.append(self.host_kernel())
        return result

    def speed_factor(self, start=0, stop=None):
        """Scales the seconds measured in this run to a host on which the
        kernel takes spec.REFERENCE_KERNEL_S: the reference over the median
        kernel time of the run, or of kernel_s[start:stop]."""
        return spec.REFERENCE_KERNEL_S / _median(self.kernel_s[start:stop])

    def operation(self, label, fn):
        """Run one operation; a failed check or an exception counts as a failed
        operation and gives None."""
        self.attempted += 1
        try:
            return fn()
        except CheckFailed as e:
            message = str(e)
        except Exception:
            message = traceback.format_exc(limit=4)
        self.failed += 1
        self.failures.append(f"{label}: {message}")
        return None

    def check(self, env_name, per_agent, extra):
        """Reference.check, kept out of the traced profile: it is the
        benchmark's own work, not marlab's."""
        pause = self.tracer.paused() if self.tracer else contextlib.nullcontext()
        with pause:
            return self.refs[env_name].check(per_agent, extra)

    # -- operations ------------------------------------------------------------
    def train(self, job, seed, out_dir):
        """`marlab train`; returns (seconds, oracle gap)."""
        argv = ["train", "--algo", job.algo, "--env", job.env, "--seed", str(seed),
                "--total-steps", str(job.steps), "--eval-interval", str(job.steps),
                "--out-dir", str(out_dir)]
        t0 = time.perf_counter()
        rc, out, err = self._cli(argv)
        seconds = time.perf_counter() - t0
        expect(rc == 0, f"marlab train exited {rc}: {err.strip()[-400:]}")
        printed = _last_json(out, "marlab train")
        with open(out_dir / "metrics.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        expect(rows and rows[0] == self.m.cli.METRICS_HEADER,
               f"metrics.csv header is {rows[0] if rows else None}")
        expect(len(rows) >= 2, "metrics.csv has no rows")
        for row in rows[1:]:
            _check_metrics_row(row)
        final = dict(zip(rows[0], rows[-1]))
        expect(int(final["step"]) == job.steps == printed.get("final_step"),
               f"final step {final['step']} / {printed.get('final_step')}, expected {job.steps}")
        expect(printed.get("eval_return_mean") == final["eval_return_mean"],
               "printed eval_return_mean differs from metrics.csv")
        extra = json.loads(final["extra"]) if final["extra"] else {}
        gap = self.check(job.env, json.loads(final["eval_return_per_agent"]), extra)
        return seconds, gap

    def evaluate(self, job, seed, checkpoint, out_path):
        """`marlab eval` on a checkpoint; returns seconds."""
        argv = ["eval", "--checkpoint", str(checkpoint), "--episodes",
                str(job.eval_episodes), "--seed", str(seed), "--out", str(out_path)]
        t0 = time.perf_counter()
        rc, out, err = self._cli(argv)
        seconds = time.perf_counter() - t0
        expect(rc == 0, f"marlab eval exited {rc}: {err.strip()[-400:]}")
        summary = _last_json(out, "marlab eval")
        expect(summary.get("episodes") == job.eval_episodes,
               f"eval ran {summary.get('episodes')} episodes, asked {job.eval_episodes}")
        expect(summary.get("algo") == job.algo, f"eval reports algo {summary.get('algo')}")
        per_agent = summary.get("mean_return_per_agent")
        expect(isinstance(per_agent, list) and _finite_numbers(summary),
               "eval summary holds non-finite numbers")
        self.check(job.env, per_agent, summary)
        return seconds

    def gradcheck(self, instances):
        """`marlab gradcheck`; returns seconds."""
        t0 = time.perf_counter()
        rc, out, err = self._cli(["gradcheck", "--instances", str(instances)])
        seconds = time.perf_counter() - t0
        report = _last_json(out, "marlab gradcheck")
        suites = report.get("suites", {})
        expect(set(suites) == {"ndiff", "dial_bptt"}, f"gradcheck ran suites {sorted(suites)}")
        for name, suite in suites.items():
            expect(suite.get("instances") == instances, f"{name} ran {suite.get('instances')} instances")
            err_max = suite.get("max_rel_error")
            expect(err_max is not None and err_max < self.m.cli.GRADCHECK_TOL,
                   f"{name} worst relative error {err_max!r} >= {self.m.cli.GRADCHECK_TOL}")
        expect(rc == 0, f"marlab gradcheck exited {rc}: {err.strip()[-400:]}")
        return seconds

    # -- phases ----------------------------------------------------------------
    def solve_references(self):
        self.refs = {job.env: Reference(self.m, job.env) for job in self.jobs}

    def setup(self):
        """Import marlab afresh, resolve the games and solve them exactly,
        spec.SETUP_REPEATS times; the operations that follow use the last
        import."""
        for _ in range(spec.SETUP_REPEATS):
            seconds = self.timed("setup", self._setup_once)
            if seconds is not None:
                self.setup_s.append(seconds)
        if self.m is None:
            raise BenchError(f"marlab does not import: {self.failures[-1]}")

    def _setup_once(self):
        t0 = time.perf_counter()
        self.m = load_marlab(fresh=True)
        self.solve_references()
        seconds = time.perf_counter() - t0
        for ref in self.refs.values():
            if ref.solver:
                self.solve_s[ref.solver].append(ref.solve_s)
        return seconds

    def run_job(self, job, samples, keep_gap):
        index = self._next_job
        self._next_job += 1
        seed = self.job_seed(index)
        out_dir = self.workdir / f"job{index}"
        tracked = ("ndiff.DenseNet.forward_np", "envs.MarkovGame.step", "envs.MarkovGame.obs",
                   spec.UPDATE_FUNCTIONS[job.algo])
        before = {k: self.tracer.calls(k) for k in tracked} if self.tracer else None
        try:
            done = self.timed(f"train {_kind(job)} seed {seed}",
                              lambda: self.train(job, seed, out_dir))
            if done is None:
                return
            seconds, gap = done
            samples.train_s[_kind(job)].append(seconds)
            samples.steps += job.steps
            if before is not None:
                delta = {k: self.tracer.calls(k) - before[k] for k in tracked}
                for k in tracked[:3]:
                    samples.calls[k] += delta[k]
                samples.kind_steps[_kind(job)] += job.steps
                samples.updates[_kind(job)] += delta[tracked[3]]
            if keep_gap:
                self.gaps.append(gap)
            for k in range(spec.EVAL_SEEDS):
                seconds = self.timed(
                    f"eval {_kind(job)} seed {seed + k}",
                    lambda: self.evaluate(job, seed + k, out_dir / "checkpoint.json",
                                          out_dir / f"eval{k}.json"))
                if seconds is not None:
                    samples.eval_s[_kind(job)].append(seconds)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def run_gradcheck(self, samples):
        for _ in range(spec.GRADCHECK_RUNS):
            seconds = self.timed("gradcheck", lambda: self.gradcheck(spec.GRADCHECK_INSTANCES))
            if seconds is not None:
                samples.gradcheck_s.append(seconds)

    def run_cycles(self, seconds, samples, gradcheck):
        """Closed loop over the workload's operations for `seconds`; a cycle
        is spec.GRADCHECK_RUNS gradient-check runs when `gradcheck` is set,
        then each job with its evals.  The first cycle always completes;
        after it, the loop ends
        at the first operation that would not end before the deadline if it
        took as long as it did last time.  The first cycle of the run gives
        the oracle gap."""
        deadline = time.perf_counter() + seconds
        first = not self.gaps
        ops = ([None] if gradcheck else []) + list(range(len(self.jobs)))
        took = {}
        cycle = 0
        while True:
            for op in ops:
                start = time.perf_counter()
                if cycle > 0 and start + took[op] >= deadline:
                    return
                if op is None:
                    self.run_gradcheck(samples)
                else:
                    self.run_job(self.jobs[op], samples, keep_gap=first and cycle == 0)
                took[op] = time.perf_counter() - start
            cycle += 1


# ---------------------------------------------------------------------------
# measurement modes
# ---------------------------------------------------------------------------

def run_untraced(bench, seconds):
    samples = Samples()
    bench.run_cycles(seconds, samples, gradcheck=True)
    jobs = bench.jobs
    f = bench.speed_factor()
    setup_times = bench.setup_s
    metrics = {
        "steps_per_s": _scaled(samples.steps_per_s(jobs), 1.0 / f),
        "eval_episodes_per_s": _scaled(samples.eval_episodes_per_s(jobs), 1.0 / f),
        "gradcheck_s": _scaled(_median(samples.gradcheck_s), f),
        "setup_s": (IMPORT_S + _median(setup_times)) * f if setup_times else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    lines = [_host_line(bench),
             f"{'metric':<22}{'value':>14}  {'unit':<6}samples"]
    counts = {"steps_per_s": _counts(samples.train_s), "eval_episodes_per_s": _counts(samples.eval_s),
              "gradcheck_s": _high(samples.gradcheck_s, f),
              "setup_s": f"imports {IMPORT_S * f:.4g} s + set-up " + _high(setup_times, f),
              "peak_rss_mb": "1"}
    for name, unit in spec.END_TO_END.items():
        lines.append(f"{name:<22}{_fmt(metrics[name]):>14}  {unit:<6}{counts[name]}")
    gap = float(np.mean(bench.gaps)) if bench.gaps else None
    lines.append(f"{'oracle_gap':<22}{_fmt(gap):>14}  return, mean over the "
                 f"{len(bench.gaps)} jobs of the first cycle (not on the result line)")
    share = bench.failed / bench.attempted if bench.attempted else 0.0
    lines.append(f"{'fail_share':<22}{_fmt(share):>14}  {bench.failed} failed of "
                 f"{bench.attempted} operations (on the result line as failed/attempted)")
    for job in jobs:
        lines.append(f"cli.step_us.{job.algo}: "
                     + _high([t / job.steps for t in samples.train_s[_kind(job)]], 1e6 * f)
                     + f" us/step over jobs of {job.steps} steps; eval "
                     + _high([t / job.eval_episodes for t in samples.eval_s[_kind(job)]], 1e6 * f)
                     + " us/episode")
    return metrics, lines


def _scaled(x, factor):
    return None if x is None else x * factor


def _host_line(bench):
    return (f"timings are scaled to a host on which the kernel takes "
            f"{spec.REFERENCE_KERNEL_S * 1e3:g} ms; here it took "
            f"{_high(bench.kernel_s, 1e3)} ms")


def _high(values, unit):
    """Median and highest percentile with ten samples beyond it, times unit."""
    n, p50, high = tracer.timing_summary(values)
    if not n:
        return "no samples"
    hi = f", {high[0]} {high[1] * unit:.5g}" if high else ""
    return f"median {p50 * unit:.5g}{hi} (n={n})"


def _counts(by_kind):
    return " ".join(f"{k}:{len(v)}" for k, v in by_kind.items())


def _fmt(x):
    return "n/a" if x is None else f"{x:.6g}"


def run_traced(bench, seconds):
    jobs = bench.jobs
    gradcheck = bench.workload.gradcheck_in_profile
    untraced = Samples()
    k0 = len(bench.kernel_s)
    bench.run_cycles(seconds * 0.3, untraced, gradcheck)
    k1 = len(bench.kernel_s)
    tr = tracer.Tracer(spec.LAYERS, tracer.HOOKS)
    traced = Samples()
    tr.install()
    bench.tracer = tr
    try:
        bench.run_cycles(seconds * 0.6, traced, gradcheck)
    finally:
        tr.remove()
        bench.tracer = None
    probes = tracer.probe_ops(bench.m.ndiff, spec.OP_PROBES, spec.OP_PROBE_REPS,
                              np.random.default_rng(bench.seed))

    layer_s = tr.layer_self_s()
    total = sum(layer_s.values())
    shares = {layer: (s / total if total > 0 else 0.0) for layer, s in layer_s.items()}
    bench.operation("trace accounting", lambda: _check_accounting(tr, shares))
    c = tr.counters
    steps = traced.steps or 1
    fw = tr.stats.get("ndiff.forward_op")
    bw = tr.stats.get("ndiff.backward")
    # each phase scaled by its own kernel times, so that a change in the
    # host's speed between the phases does not count as tracing overhead
    speed_u = _scaled(untraced.steps_per_s(jobs), 1.0 / bench.speed_factor(k0, k1))
    speed_t = _scaled(traced.steps_per_s(jobs), 1.0 / bench.speed_factor(k1))
    metrics = {f"{layer}.self_share": shares[layer] for layer in spec.LAYERS}
    metrics.update({
        "ndiff.tape_ops_per_update": tr.calls("ndiff.forward_op") / max(1, tr.calls("ndiff.backward")),
        "ndiff.forward_op.us": tracer.timing_summary(fw.durations)[1] * 1e6 if fw else None,
        "ndiff.backward.us": tracer.timing_summary(bw.durations)[1] * 1e6 if bw else None,
        "ndiff.backward.grad_ratio": c.get("grad_records", 0) / max(1, c.get("tape_records", 0)),
        "ndiff.forward_np.calls_per_step": traced.calls["ndiff.DenseNet.forward_np"] / steps,
        "envs.step.calls_per_step": traced.calls["envs.MarkovGame.step"] / steps,
        "envs.obs.calls_per_step": traced.calls["envs.MarkovGame.obs"] / steps,
        "bench.trace_overhead": (speed_u / speed_t - 1.0) if speed_u and speed_t else None,
    })
    metrics.update(probes)
    return metrics, _trace_report(bench, tr, shares, untraced, traced, metrics,
                                  (speed_u, speed_t))


def _check_accounting(tr, shares):
    err = tr.accounting_error()
    expect(err < 1e-6, f"self times miss the root spans by {err:.3g} of their total")
    expect(all(st.self_s > -1e-6 for st in tr.stats.values()), "a self time is negative")
    expect(abs(sum(shares.values()) - 1.0) < 1e-9, f"self shares sum to {sum(shares.values())!r}")


def _trace_report(bench, tr, shares, untraced, traced, metrics, speeds):
    jobs = bench.jobs
    f = bench.speed_factor()
    lines = ["No layer has a queue, so no time is spent waiting; only busy (self) time is reported.",
             _host_line(bench),
             f"traced steps_per_s {_fmt(speeds[1])} vs untraced {_fmt(speeds[0])} (each phase "
             f"scaled by its own kernel times): overhead {_fmt(metrics['bench.trace_overhead'])}",
             f"{'layer':<10}{'self_share':>12}{'self_s':>10}  should move"]
    layer_s = tr.layer_self_s()
    for layer in spec.LAYERS:
        lines.append(f"{layer:<10}{shares[layer]:>12.4f}{layer_s[layer]:>10.3f}  "
                     f"{spec.LAYER_TARGETS[layer]}")
    lines.append(f"self shares sum to {sum(shares.values()):.12f}; accounting error "
                 f"{tr.accounting_error():.3g}")
    c = tr.counters
    lines.append(f"ndiff.adam_step.tensors {_fmt(c.get('adam_tensors', 0) / max(1, tr.calls('ndiff.adam_step')))}"
                 f" per call over {tr.calls('ndiff.adam_step')} calls")
    for job in jobs:
        kind = _kind(job)
        idle = traced.kind_steps[kind] - traced.updates[kind]
        lines.append(f"{kind}: {idle} of {traced.kind_steps[kind]} training steps made no "
                     f"learner update ({_fmt(idle / max(1, traced.kind_steps[kind]))})")
    lines.append(f"replays held at most {_fmt(c.get('replay_fill', 0.0))} of their capacity"
                 " (1 means the ring overwrote old items)")
    for job in jobs:
        for label, s in (("untraced", untraced), ("traced", traced)):
            lines.append(f"cli.step_us.{job.algo} ({label}): "
                         + _high([t / job.steps for t in s.train_s[_kind(job)]], 1e6 * f))
    lines.append(f"{'function':<44}{'calls':>9}{'self_s':>9}{'p50_us':>11}  high percentile (n)")
    named = set(spec.NAMED_FUNCTIONS)
    for key, st in sorted(tr.stats.items(), key=lambda kv: -kv[1].self_s):
        if st.calls == 0:
            continue
        n, p50, high = tracer.timing_summary(st.durations)
        hi = f"{high[0]} {high[1] * 1e6:.4g}" if high else "-"
        mark = "*" if key in named else " "
        lines.append(f"{mark}{key:<43}{st.calls:>9}{st.self_s:>9.3f}{p50 * 1e6:>11.4g}  {hi} ({n})")
    missing = [k for k in spec.NAMED_FUNCTIONS if tr.calls(k) == 0]
    lines.append("* named in the per-layer report; not called on this workload: "
                 + (", ".join(missing) if missing else "none"))
    unprobed = sorted(set(bench.m.ndiff.OPS) - set(spec.OP_PROBES))
    if unprobed:
        lines.append(f"ndiff ops without a microprobe: {', '.join(unprobed)}")
    return lines


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run(workload, seed, seconds, trace, steps=None):
    """Measure one workload; returns (result dict, report lines).  `steps`
    replaces the training steps of every job, for quick runs."""
    check_environment()
    info = machine_info()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        bench = Bench(None, workload, seed, tmp, steps=steps)
        bench.setup()
        if trace:
            metrics, lines = run_traced(bench, seconds)
            units = spec.PER_LAYER
        else:
            metrics, lines = run_untraced(bench, seconds)
            units = spec.END_TO_END
    head = [f"marlab benchmark: workload={workload} seed={seed} seconds={seconds:g} trace={trace}",
            "machine: " + " ".join(f"{k}={v}" for k, v in info.items()),
            "jobs: " + ", ".join(f"{_kind(j)} {j.steps} steps + {spec.EVAL_SEEDS} evals of "
                                 f"{j.eval_episodes} episodes" for j in bench.jobs)
            + f"; {spec.GRADCHECK_RUNS} x gradcheck --instances {spec.GRADCHECK_INSTANCES}",
            "oracle solves in set-up: " + ", ".join(
                f"{name} {_high(v, 1e6)} us" for name, v in bench.solve_s.items())]
    checks = [s for ref in bench.refs.values() for s in ref.check_s]
    if checks:
        head.append(f"oracle.best_response_value in the benchmark's checks: {_high(checks, 1e6)} us")
    lines = head + lines + [f"failure: {f}" for f in bench.failures]
    complete = all(v is not None and math.isfinite(v) for v in metrics.values())
    result = {
        "correct": bench.failed == 0 and complete,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": float(metrics[name]) if metrics[name] is not None else 0.0,
                           "unit": unit}
                    for name, unit in units.items()},
    }
    return result, lines


def main(argv=None):
    args = parse_args(argv)
    try:
        result, lines = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    for line in lines:
        print("# " + line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

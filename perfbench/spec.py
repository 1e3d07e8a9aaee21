"""What the marlab benchmark runs and what it reports.

The workloads are closed loops with one client: each operation (a train job,
an eval call or a gradient-check run) starts only after the previous one has
finished, all in one process and one thread.  Job configs are the home games
and the algorithm defaults of `marlab train`, at the run length of ROADMAP's
Baseline table; only the seeds are set here.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Job:
    algo: str
    env: str
    steps: int            # training steps of one `marlab train` job
    eval_episodes: int    # episodes of each `marlab eval` call on its checkpoint


@dataclass(frozen=True)
class Workload:
    jobs: tuple
    # True: the gradient-check suites are part of this workload's load and of
    # its traced profile.  False: they run only so that the workload reports
    # gradcheck_s, and the traced run leaves them out.
    gradcheck_in_profile: bool


# ROADMAP's Baseline times `marlab train` with 2000 steps and one greedy eval
# of 200 episodes (the `--eval-episodes` default).  At 2000 steps a learner
# that waits for a full batch idles on 31 steps (batch 32) or 63 (batch 64),
# 1.6% or 3.2% of the job; the report measures it.  The replays (5000 slots)
# fill to 2000 transitions, 4000 per rial agent, so none wraps.
TRAIN_STEPS = 2000
# `marlab eval --episodes` default
EVAL_EPISODES = 500
# `marlab eval` calls per checkpoint, each with its own seed
EVAL_SEEDS = 5


def _jobs(*pairs):
    return tuple(Job(algo, env, TRAIN_STEPS, EVAL_EPISODES) for algo, env in pairs)


# why each workload was chosen is stated in BENCHMARK.json
WORKLOADS = {
    "value_replay": Workload(
        jobs=_jobs(("qmix", "two_step_coop"), ("vdn", "coop_climb"),
                   ("iql", "two_step_coop")),
        gradcheck_in_profile=False),
    "actor_critic": Workload(
        jobs=_jobs(("maddpg_ctde", "coop_cts"), ("maddpg_dec", "two_step_coop")),
        gradcheck_in_profile=False),
    "comm_unroll": Workload(
        jobs=_jobs(("dial", "signal_relay"), ("rial", "signal_relay")),
        gradcheck_in_profile=False),
    "tape_check": Workload(
        jobs=_jobs(("selfplay", "rock_paper_scissors")),
        gradcheck_in_profile=True),
}

# the function that makes one learner update, per algo; the traced report
# counts the training steps on which it did not run
UPDATE_FUNCTIONS = {
    "qmix": "qmix.QmixLearner.td_update",
    "vdn": "qmix.QmixLearner.td_update",
    "iql": "qmix.QmixLearner.td_update",
    "maddpg_ctde": "maddpg.MaddpgLearner.learner_step",
    "maddpg_dec": "maddpg.MaddpgLearner.learner_step",
    "selfplay": "selfplay.selfplay_step",
    "dial": "dial.DialSystem.update",
    "rial": "dial.RialSystem.td_update",
}

# instances of each suite in one `marlab gradcheck` run (gate A8 uses 100);
# every cycle of every workload starts with GRADCHECK_RUNS such runs
GRADCHECK_INSTANCES = 3
GRADCHECK_RUNS = 3
# Every timed operation runs between two runs of a fixed host kernel (small
# matmuls and Python arithmetic), and a run's seconds are scaled by
# REFERENCE_KERNEL_S over the median kernel time of the run.  On a shared
# 2-vCPU host the same work runs up to 30% slower or faster from one minute
# to the next; the kernel slows with it, so the scaled times measure marlab
# more than the host's load.  Scaling each operation by its own two kernel
# runs was tried and is worse for jobs of several seconds: one 4 ms kernel
# run varies by up to 2x.
KERNEL_REPS = 800
REFERENCE_KERNEL_S = 0.005
# set-up (a fresh import of marlab, resolving the games, the exact solves) is
# repeated this many times in a run, and the median is reported
SETUP_REPEATS = 5
# a greedy return may exceed the exact optimum by at most this much
ORACLE_TOL = 1e-9
# coop_cts pays -(a1 + a2 - 1)^2, so its optimum is 0 at a1 + a2 = 1
CONTINUOUS_OPTIMUM = 0.0

LAYERS = ("cli", "ndiff", "envs", "oracle", "buffer", "qmix", "maddpg",
          "selfplay", "dial")

# end-to-end metrics on the result line of an untraced run: name -> unit
END_TO_END = {
    "steps_per_s": "1/s",
    "eval_episodes_per_s": "1/s",
    "gradcheck_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# ndiff microprobes: input shapes and attributes of each op, at the shape its
# main caller uses (value_replay: batch 32, width 32; dial for slice)
OP_PROBES = {
    "matmul": ([(32, 32), (32, 32)], {}),
    "add": ([(32, 32), (32, 32)], {}),
    "mul": ([(32, 2), (32, 2)], {}),
    "concat": ([(32, 1), (32, 1)], {}),
    "relu": ([(32, 32)], {}),
    "elu": ([(32, 8)], {}),
    "tanh": ([(32, 4)], {}),
    "sigmoid": ([(32, 32)], {}),
    "softmax": ([(32, 2)], {}),
    "log": ([(32, 2)], {}),
    "sum": ([(32, 1)], {}),
    "mean": ([(32, 1)], {}),
    "square": ([(32, 1)], {}),
    "abs": ([(32, 1)], {}),
    "neg": ([(32, 1)], {}),
    "slice": ([(32, 7)], {"start": 0, "stop": 2}),
}
OP_PROBE_REPS = 300

# per-layer metrics on the result line of a traced run: name -> unit.  Each
# exists on every workload; the full per-function table, with the metrics that
# exist only on some workloads, is printed above the result line.
# oracle is traced but left off the result line: neither `marlab train` nor
# `marlab eval` calls it, and the benchmark's own checks run untraced
PER_LAYER = {f"{layer}.self_share": "share" for layer in LAYERS if layer != "oracle"}
PER_LAYER.update({
    "ndiff.tape_ops_per_update": "count",
    "ndiff.forward_op.us": "us",
    "ndiff.backward.us": "us",
    "ndiff.backward.grad_ratio": "share",
    "ndiff.forward_np.calls_per_step": "count",
    "envs.step.calls_per_step": "count",
    "envs.obs.calls_per_step": "count",
    "bench.trace_overhead": "share",
})
for _kind in OP_PROBES:
    PER_LAYER[f"ndiff.op.{_kind}.fw_us"] = "us"
    PER_LAYER[f"ndiff.op.{_kind}.bw_us"] = "us"
PER_LAYER["ndiff.op.overhead_us"] = "us"

# which end-to-end metric each layer should move, and on which workload
LAYER_TARGETS = {
    "cli": "steps_per_s on all; eval_episodes_per_s on value_replay and actor_critic",
    "ndiff": "steps_per_s on value_replay, then actor_critic; gradcheck_s on "
             "tape_check; forward_np also eval_episodes_per_s; little on comm_unroll",
    "envs": "steps_per_s on comm_unroll; eval_episodes_per_s on all; little on "
            "value_replay and actor_critic",
    "buffer": "steps_per_s on value_replay and comm_unroll (rial); peak_rss_mb "
              "if the replay is preallocated (no replay here fills or wraps)",
    "oracle": "setup_s on all (the exact solves of set-up)",
    "qmix": "steps_per_s on value_replay",
    "maddpg": "steps_per_s on actor_critic",
    "selfplay": "steps_per_s on tape_check",
    "dial": "steps_per_s and eval_episodes_per_s on comm_unroll",
}

# functions whose timings the per-layer report names, with the workloads that
# call them; printed as median and high percentile with the sample count
NAMED_FUNCTIONS = (
    "cli.rollout_returns",
    "ndiff.forward_op", "ndiff.backward", "ndiff.adam_step",
    "ndiff.clip_grad_norm", "ndiff.polyak_update", "ndiff.DenseNet.forward_np",
    "ndiff.grad_check",
    "envs.MarkovGame.step", "envs.MarkovGame.reset", "envs.MarkovGame.obs",
    "buffer.ReplayBuffer.push", "buffer.ReplayBuffer.sample",
    "qmix.QmixLearner.td_update", "qmix.collect_step",
    "maddpg.MaddpgLearner.learner_step", "maddpg.MaddpgLearner.act",
    "selfplay.selfplay_step",
    "dial.DialSystem.train_step", "dial.DialSystem.evaluate",
    "dial.RialSystem.step", "dial.RialSystem.evaluate",
)

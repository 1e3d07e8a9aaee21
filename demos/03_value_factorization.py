"""Independent learners vs additive (VDN-style) vs monotone-mixed (QMIX-style)
joint values on a two-step cooperative game, with the exact optimum from
tabular Q-iteration as the yardstick.  Also probes the mixing network's
defining property: the joint value never decreases in any agent's utility.

Run from the repo root:  python3 demos/03_value_factorization.py
"""

import numpy as np

from marlab import cli, envs, oracle, qmix
from marlab.buffer import ReplayBuffer
from marlab.ndiff import Graph, backward, param

env = envs.two_step_coop()
optimum = oracle.tabular_q_iteration(env).value(0)
print(f"oracle optimum from the start state: {optimum:.3f}\n")


def greedy_return(learner, episodes, rng):
    returns = cli.rollout_returns(env, learner.greedy_joint, episodes, learner.gamma, rng)
    return returns[:, 0].mean()


def train(mode, seed, steps=2000):
    rng = np.random.default_rng(seed)
    learner = qmix.QmixLearner(env, mode, rng, hidden=(32,), lr=5e-3)
    buf = ReplayBuffer(5000)
    live = (env.reset_batch(1, rng), 0)    # the live episode: (state index array, timestep)
    for step in range(steps):
        eps = qmix.epsilon_at(step, 1.0, 0.05, 1500)
        tr, live = qmix.collect_step(env, lambda index: learner.act(index, rng, eps), live, rng)
        buf.push(tr)
        if len(buf) >= 32:
            learner.td_update(buf.sample(32, rng))
    return learner


for mode in ("independent", "vdn", "qmix"):
    learner = train(mode, seed=0)
    ret = greedy_return(learner, 200, np.random.default_rng(99))
    print(f"{mode:12s} greedy return {ret:6.3f}   "
          f"(gap to optimum {abs(ret - optimum):.3f})")

# -- the monotone mixer ------------------------------------------------------
# dQ_tot/dQ_i >= 0 for every agent at every (state, utility) probe, which is
# what lets each agent argmax its own utility without consulting the others
learner = train("qmix", seed=1)
rng = np.random.default_rng(7)
worst = np.inf
for _ in range(500):
    s = np.eye(env.n_states)[[rng.integers(env.n_states)]]
    q0 = rng.normal(scale=2.0, size=(1, env.n_agents))
    g = Graph()
    q = param(q0, name="q")
    out = learner.mixing.forward(g, q, g.constant(s))
    backward(g, out)
    worst = min(worst, float(q.grad.min()))
print(f"\nsmallest dQ_tot/dQ_i over 500 random probes: {worst:.3e}  (>= 0)")

# decentralized greedy therefore matches the joint argmax of the mixed value
s = 0
utils = learner.utilities(s)
joint, _ = oracle.joint_argmax(
    lambda j: learner.mix([utils[i][a] for i, a in enumerate(j)], s), env)
print("joint argmax of mixed value:", joint,
      " decentralized greedy:", tuple(learner.greedy_joint([s])[0].tolist()))

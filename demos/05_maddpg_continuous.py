"""Centralized critics with decentralized actors on a continuous cooperation
task: two agents must pick real numbers summing to one, each seeing only the
shared state.  Afterwards: replacing the centralized critic's access to the
co-actor with a learned opponent model, and checking the targets agree.

Run from the repo root:  python3 demos/05_maddpg_continuous.py
"""

import numpy as np

from marlab import envs, maddpg, qmix
from marlab.buffer import JointTransition, ReplayBuffer
from marlab.ndiff import EVAL

# -- continuous cooperation ---------------------------------------------------
env = envs.coop_cts()
rng = np.random.default_rng(0)
learner = maddpg.MaddpgLearner(env, rng, hidden=(32,), lr=2e-3, tau=0.02)
buf = ReplayBuffer(5000)

print("step   a1      a2      |a1+a2-1|")
live = (env.reset_batch(1, rng), 0)    # the live episode: (state index array, timestep)
for step in range(1, 3001):
    # tanh mean + noise; collect_step steps the game and starts a new episode when it ends
    tr, live = qmix.collect_step(env, lambda index: learner.act(index, rng), live, rng)
    buf.push(tr)
    if len(buf) >= 64:
        learner.learner_step(buf.sample(64, rng), rng)
    if step % 500 == 0:
        a = learner.act(env.reset_batch(1, rng), rng, explore=False)[0]
        print(f"{step:5d}  {a[0]:+.3f}  {a[1]:+.3f}  {abs(a[0] + a[1] - 1.0):.4f}")

# -- execution without the other agent's wires --------------------------------
# at training time the critic target samples the co-actor's real policy; a
# decentralized learner replaces that with a model fitted to observed actions
env2 = envs.two_step_coop()
rng2 = np.random.default_rng(17)
dec = maddpg.MaddpgLearner(env2, rng2, hidden=(32,), lr=1e-2, beta=0.0,
                           decentralized=True)

eye = np.eye(env2.n_states)
script = np.stack([dec.actors[1].probs_np(dec.target, eye[[s]])[0]
                   for s in range(env2.n_states)])


def scripted(index):    # agent 0 samples its live actor, agent 1 the frozen script
    a0 = dec.actors[0].sample_np(EVAL, eye[index], rng2)[0]
    return np.array([[a0, rng2.choice(2, p=script[index[0]])]])


buf2, live = ReplayBuffer(4000), (env2.reset_batch(1, rng2), 0)
for _ in range(4000):
    tr, live = qmix.collect_step(env2, scripted, live, rng2)
    buf2.push(tr)

for _ in range(800):
    dec.opponent_model_update(buf2.sample(256, rng2))

print("\nstate  true P(co-action=0)  modeled")
for s in range(env2.n_states):
    print(f"{s:5d}  {script[s][0]:18.3f}  {dec.model_probs(0, 1, s)[0]:.3f}")

contents = buf2.contents()
batch = JointTransition._make(col[~contents.done][:2000] for col in contents)
y_ctde = dec.target_ctde(batch, np.random.default_rng(1))[:, 0]
y_dec = dec.target_decentralized(batch, 0, np.random.default_rng(2))
print(f"\nmean TD target, centralized: {y_ctde.mean():+.4f}   "
      f"from the model: {y_dec.mean():+.4f}")

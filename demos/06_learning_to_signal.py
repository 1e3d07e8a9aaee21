"""Two agents invent a one-bit protocol.  A speaker sees a hidden bit, a
listener must act on it, and the only link is a learned real-valued message.
Backpropagating through the channel solves it in a few hundred updates;
zeroing the channel leaves the listener guessing.  A discrete-message TD
learner solves it too, just more slowly.

Run from the repo root:  python3 demos/06_learning_to_signal.py
"""

import numpy as np

from marlab import dial, envs
from marlab.buffer import ReplayBuffer

env = envs.signal_relay()

# -- gradients through the channel --------------------------------------------
rng = np.random.default_rng(3)
system = dial.DialSystem(env, rng, channel="on")
print("differentiable channel:")
for step in range(1, 401):
    system.train_step(32, rng)
    if step % 100 == 0:
        acc = system.evaluate(1000, np.random.default_rng([3, step]))
        print(f"  step {step:3d}  listener accuracy {acc:.3f}")

# -- same wiring, channel zeroed ----------------------------------------------
# the message is blanked on the forward pass, so no information crosses and
# no gradient assigns credit to the speaker; accuracy pins at chance
rng0 = np.random.default_rng(4)
detached = dial.DialSystem(env, rng0, channel="zeroed")
print("zeroed channel:")
for step in range(1, 401):
    detached.train_step(32, rng0)
    if step % 100 == 0:
        acc = detached.evaluate(1000, np.random.default_rng([4, step]))
        print(f"  step {step:3d}  listener accuracy {acc:.3f}")

# -- discrete messages, learned by TD ------------------------------------------
# sending becomes just another action with its own Q-head; no gradient crosses
# between agents, so learning rides on replayed reward alone.  Each step plays
# one episode into the replay, then, once it holds a batch, runs one TD update
# in which each agent learns on its own 32 records, as `marlab train` does.
rng1 = np.random.default_rng(8)
rial = dial.RialSystem(env, rng1)
replay = ReplayBuffer(5000)
print("discrete messages (TD on factored Q-heads):")
for step in range(1, 2001):
    for record in rial.play_episode(rng1, epsilon=0.1):
        replay.push(record)
    if len(replay) >= 32:
        rial.td_update(replay.sample((rial.n_agents, 32), rng1))
    if step % 500 == 0:
        acc = rial.evaluate(1000, np.random.default_rng([8, step]))
        print(f"  step {step:4d}  listener accuracy {acc:.3f}")

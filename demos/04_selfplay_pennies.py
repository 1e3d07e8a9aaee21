"""A single policy playing both seats of matching pennies drifts toward the
mixed equilibrium: its average payoff stays near zero while its exploitability
collapses.  A frozen pure strategy, by contrast, is punished at will.

Run from the repo root:  python3 demos/04_selfplay_pennies.py
"""

import numpy as np

from marlab import envs, oracle, selfplay

env = envs.matching_pennies()
rng = np.random.default_rng(5)

run = selfplay.SelfPlayRun(env, lr=0.05)
print("steps  policy(heads)  window mean payoff")
for block in range(8):
    for _ in range(250):
        selfplay.selfplay_step(run, env, 256, rng)
    window = float(np.mean(run.history[-50:]))
    print(f"{(block + 1) * 250:5d}  {run.policy()[0]:13.4f}  {window:+.4f}")

mix1, _, _ = oracle.nash_2x2_zero_sum(env)
tv = selfplay.total_variation(run.policy(), mix1)
print(f"\ntotal variation from the Nash mix: {tv:.4f}")

# train a fresh best responder against the frozen self-play policy, then
# against a frozen always-heads policy
_, v_run = selfplay.exploit(run, env, 400, rng, eval_episodes=10000)
_, v_pure = selfplay.exploit([1.0, 0.0], env, 400, rng, eval_episodes=10000)
print(f"best responder earns {v_run:+.3f} vs the self-play policy")
print(f"best responder earns {v_pure:+.3f} vs always-heads")
print("near-zero exploitability is the whole point of mixing")

"""Self-play for zero-sum matrix games: one shared categorical policy plays
every seat, trained by score-function policy gradient on pooled two-seat
experience.  An exploit probe freezes the policy and trains a fresh best
responder against it, measuring how far from equilibrium the policy sits.

Reported per-batch payoff uses a fair coin to decide which physical seat is
"seat 1" in each episode, so the reported mean is centered at zero for any
policy on any zero-sum game; systematic drift signals an accounting bug
rather than policy quality.
"""

import numpy as np

from .envs import Discrete, NotSymmetric, NotZeroSum, _cdf, _draw
from .ndiff import EVAL, Graph, backward, param, sgd_step

_SUM_TOL = np.sqrt(np.finfo(np.float64).eps)    # Generator.choice's bound on |sum(p) - 1|


def check_selfplay_env(env):
    """A shared policy can seat-swap only on a one-state, two-player matrix
    game where both seats choose from the same action set."""
    if not env.zero_sum:
        raise NotZeroSum(f"{env.name} is not zero-sum")
    ok = (
        env.n_agents == 2
        and env.n_states == 1
        and env.horizon == 1
        and all(isinstance(sp, Discrete) for sp in env.action_space)
        and env.action_space[0].n == env.action_space[1].n
    )
    if not ok:
        raise NotSymmetric(f"{env.name}: seats are not interchangeable for a shared policy")


class SelfPlayRun:
    """Shared-policy training state: one logits row serves both seats."""

    def __init__(self, env, lr=0.05):
        check_selfplay_env(env)
        self.env = env
        self.k = env.action_space[0].n
        self.logits = param(np.zeros((1, self.k)), name="shared_policy/logits")
        self.lr = float(lr)
        self.history = []
        self.last_loss = None

    def policy(self):
        return EVAL.softmax(self.logits)[0]

    def checkpoint_tree(self):
        return {"policy": [self.logits]}


def play_batch(env, probs_a, probs_b, n, rng):
    """Sample n one-shot episodes; returns (a, b, r1, r2) arrays.  The seats
    draw as two Generator.choice(k, size=n, p=...) calls would, seat a first,
    and a row that choice refuses raises ValueError."""
    probs = np.array((probs_a, probs_b), dtype=np.float64)
    if (probs.shape != (2, env.action_space[0].n) or not probs.min() >= 0.0
            or not abs(probs.sum(axis=1) - 1.0).max() <= _SUM_TOL):    # NaN fails both
        raise ValueError("each seat needs a probability row over its actions")
    a, b = _draw(np.repeat(_cdf(probs), n, axis=0), rng).reshape(2, n)
    r = env.rewards[0, a, b]
    return a, b, r[:, 0], r[:, 1]


def policy_gradient_loss(g, logits, weights, scale):
    """Minus E[log pi . weights] / scale on graph g, pi the softmax of the logits row."""
    return g.matmul(g.log_softmax(logits), g.constant(-(weights[:, None] / scale)))


def _policy_gradient_step(logits, lr, weights, scale):
    """Ascend E[log pi . weights] / scale by one SGD step; returns the loss."""
    g = Graph()
    loss = policy_gradient_loss(g, logits, weights, scale)
    backward(g, loss)
    sgd_step([logits], lr)
    return loss.item()


def selfplay_step(run, env, batch_episodes, rng):
    """Play a batch with the shared policy in both seats, apply one pooled
    policy-gradient step (each seat's own reward as its return), and return
    the coin-relabeled seat-1 mean payoff."""
    check_selfplay_env(env)
    p = run.policy()
    a, b, r1, r2 = play_batch(env, p, p, batch_episodes, rng)
    coin = rng.random(batch_episodes) < 0.5
    reported = float(np.where(coin, r1, r2).mean())

    weights = np.bincount(np.concatenate((a, b)), np.concatenate((r1, r2)), run.k)
    run.last_loss = _policy_gradient_step(run.logits, run.lr, weights, 2.0 * batch_episodes)

    run.history.append(reported)
    return reported


class BestResponder:
    """Seat-2 categorical policy trained against a frozen seat-1 mix."""

    def __init__(self, k):
        self.k = k
        self.logits = param(np.zeros((1, k)), name="responder/logits")

    def policy(self):
        return EVAL.softmax(self.logits)[0]


def exploit(frozen, env, train_steps, rng, lr=0.05, batch_episodes=256,
            eval_episodes=10000):
    """Train a fresh seat-2 responder against a frozen seat-1 policy and
    return (responder, its mean payoff over a final evaluation batch).

    frozen may be a SelfPlayRun or a bare probability vector; it is read
    once up front and never written.
    """
    check_selfplay_env(env)
    probs = frozen.policy() if hasattr(frozen, "policy") else np.asarray(frozen, dtype=np.float64)
    probs = probs.copy()
    responder = BestResponder(env.action_space[0].n)

    for _ in range(train_steps):
        q = responder.policy()
        _, b, _, r2 = play_batch(env, probs, q, batch_episodes, rng)
        advantage = r2 - r2.mean()
        weights = np.bincount(b, advantage, responder.k)
        _policy_gradient_step(responder.logits, lr, weights, float(batch_episodes))

    q = responder.policy()
    _, _, _, r2 = play_batch(env, probs, q, eval_episodes, rng)
    return responder, float(r2.mean())


def total_variation(p, q):
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())

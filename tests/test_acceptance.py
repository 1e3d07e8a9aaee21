"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s; embedded in
the assertion message otherwise) and exercises the full pipeline at the stated
tolerance against exact oracle ground truth.
"""

import time

import numpy as np

from marlab import cli, dial, envs, maddpg, oracle, qmix, selfplay
from marlab.buffer import JointTransition, ReplayBuffer
from marlab.ndiff import EVAL, Graph, backward, param


def _report(tag, ok, detail):
    line = f"{tag} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# A1: value factorization learns a multi-step cooperative optimum
# ---------------------------------------------------------------------------

def _train_qmix_until(env, seed, target, tol, max_steps, eval_every=500,
                      eval_episodes=500):
    rng = np.random.default_rng(seed)
    learner = qmix.QmixLearner(env, "qmix", rng, hidden=(32,), embed_dim=8,
                               lr=5e-3, target_interval=200)
    buf = ReplayBuffer(5000)
    live = (env.reset_batch(1, rng), 0)

    def greedy_return(step):
        return cli.rollout_returns(env, learner.greedy_joint, eval_episodes, learner.gamma,
                                   np.random.default_rng([seed, step]))[:, 0].mean()
    for step in range(1, max_steps + 1):
        eps = qmix.epsilon_at(step - 1, 1.0, 0.05, 10000)
        tr, live = qmix.collect_step(env, lambda index: learner.act(index, rng, eps), live, rng)
        buf.push(tr)
        if len(buf) >= 32:
            learner.td_update(buf.sample(32, rng))
        if step % eval_every == 0:
            ret = greedy_return(step)
            if abs(ret - target) <= tol:
                return ret, step, learner
    return greedy_return(max_steps), max_steps, learner


def test_A1_qmix_reaches_multistep_cooperative_optimum():
    env = envs.two_step_coop()
    tab = oracle.tabular_q_iteration(env)
    target = tab.value(0)      # 9.9: the +10 arrives one step after s0
    tol = 0.05 * target
    results = []
    for seed in (0, 1, 2):
        t0 = time.perf_counter()
        ret, steps, _ = _train_qmix_until(env, seed, target, tol, 20000)
        elapsed = time.perf_counter() - t0
        results.append((seed, ret, steps, elapsed))
    passed = [r for r in results if abs(r[1] - target) <= tol and r[3] < 120.0]
    detail = "; ".join(f"seed {s}: return {r:.3f} at step {st} ({el:.1f}s)"
                       for s, r, st, el in results)
    _report("A1", len(passed) >= 2,
            f"target {target:.2f}+-{tol:.2f}, {len(passed)}/3 seeds ({detail})")


# ---------------------------------------------------------------------------
# A2: mixer monotonicity under random probes, trained and untrained
# ---------------------------------------------------------------------------

def _monotonicity_probes(learner, env, n_probes, rng, h=1e-6):
    violations = 0
    worst = np.inf
    for _ in range(n_probes):
        s = np.eye(env.n_states)[[rng.integers(env.n_states)]]
        q0 = rng.normal(scale=2.0, size=(1, env.n_agents))

        g = Graph()
        q = param(q0, name="q")
        out = learner.mixing.forward(g, q, g.constant(s))
        backward(g, out)

        for i in range(env.n_agents):
            lo, hi = q0.copy(), q0.copy()
            lo[0, i] -= h
            hi[0, i] += h
            fd = (learner.mixing.forward(EVAL, hi, s)
                  - learner.mixing.forward(EVAL, lo, s))[0, 0] / (2 * h)
            ad = q.grad[0, i]
            worst = min(worst, fd, ad)
            if fd < -1e-8 or ad < -1e-8:
                violations += 1
    return violations, worst


def test_A2_mixing_gradients_are_monotone_everywhere():
    env = envs.two_step_coop()
    rng = np.random.default_rng(7)
    untrained = qmix.QmixLearner(env, "qmix", np.random.default_rng(40))
    _, _, trained = _train_qmix_until(env, 0, 9.9, 0.495, 3000)
    v1, w1 = _monotonicity_probes(untrained, env, 1000, rng)
    v2, w2 = _monotonicity_probes(trained, env, 1000, rng)
    _report("A2", v1 + v2 == 0,
            f"0 violations required; got {v1} untrained + {v2} trained over "
            f"1000 probes each (worst derivative {min(w1, w2):.2e})")


# ---------------------------------------------------------------------------
# A3: decentralized argmax is consistent with the mixed joint argmax
# ---------------------------------------------------------------------------

def test_A3_decentralized_argmax_matches_joint_oracle():
    games = [envs.matching_pennies(), envs.coop_climb(), envs.two_step_coop()]
    mismatches = 0
    for idx in range(200):
        env = games[idx % 3]
        mode = "vdn" if idx % 2 == 0 else "qmix"
        learner = qmix.QmixLearner(env, mode, np.random.default_rng(1000 + idx))
        s = (idx // 3) % env.n_states
        utils = learner.utilities(s)
        best, _ = oracle.joint_argmax(
            lambda j: learner.mix([utils[i][a] for i, a in enumerate(j)], s), env)
        if tuple(learner.greedy_joint([s])[0]) != best:
            mismatches += 1
    _report("A3", mismatches == 0,
            f"200 random vdn/qmix instances on pennies/climb/two-step, "
            f"{mismatches} mismatches")


# ---------------------------------------------------------------------------
# A4: independent Q-learning solves the opponent-induced MDP
# ---------------------------------------------------------------------------

def test_A4_iql_converges_to_induced_mdp_values():
    env = envs.matching_pennies()
    opp = np.array([[0.7, 0.3]])
    mdp = envs.induce_mdp(env, 0, {1: opp})
    tab = oracle.tabular_q_iteration(mdp)
    truth = tab.q[0]           # (0.4, -0.4)

    rng = np.random.default_rng(11)
    learner = qmix.QmixLearner(env, "independent", rng, hidden=(32,), lr=1e-3)
    buf = ReplayBuffer(5000)

    def act(index):    # seat 1 plays opp after the learner's epsilon draws
        joint = learner.act(index, rng, 0.5)
        joint[:, 1] = rng.choice(2, p=opp[index[0]])
        return joint
    live = (env.reset_batch(1, rng), 0)
    steps_used = 6000
    for step in range(1, steps_used + 1):
        if step == 4000:
            learner.opt.lr = 1e-4
        tr, live = qmix.collect_step(env, act, live, rng)
        # the opponent-marginalized process rewards the expected payoff of
        # the chosen arm; training on it removes the sampling-noise floor
        tr = tr._replace(rewards=(float(mdp.reward[tr.state, tr.actions[0]]), 0.0))
        buf.push(tr)
        if len(buf) >= 128:
            learner.td_update(buf.sample(64, rng))
    q = learner.utilities(0)[0]
    err = float(np.max(np.abs(q - truth)))
    _report("A4", err <= 1e-2 and steps_used <= 10000,
            f"|Q - ({truth[0]:.1f}, {truth[1]:.1f})| = {err:.2e} "
            f"after {steps_used} steps (tolerance 1e-2)")


# ---------------------------------------------------------------------------
# A5: self-play balance, equilibrium proximity, exploitability
# ---------------------------------------------------------------------------

def test_A5_selfplay_balance_and_equilibrium():
    env = envs.matching_pennies()
    rng = np.random.default_rng(5)
    run = selfplay.SelfPlayRun(env, lr=0.05)
    for _ in range(5000):
        selfplay.selfplay_step(run, env, 256, rng)

    history = np.asarray(run.history)
    windows = history.reshape(100, 50).mean(axis=1)
    balance_ok = bool(np.all(np.abs(windows) <= 0.05))

    mix1, _, _ = oracle.nash_2x2_zero_sum(env)
    tv = selfplay.total_variation(run.policy(), mix1)

    _, exploit_value = selfplay.exploit(run, env, 400, rng, eval_episodes=10000)
    _, heads_value = selfplay.exploit([1.0, 0.0], env, 400, rng,
                                      eval_episodes=10000)

    ok = (balance_ok and tv <= 0.1 and exploit_value <= 0.15
          and heads_value >= 0.9)
    _report("A5", ok,
            f"window means within +-0.05: {balance_ok}; TV to Nash {tv:.3f} "
            f"(<=0.1); exploit {exploit_value:.3f} (<=0.15); "
            f"vs always-heads {heads_value:.3f} (>=0.9)")


# ---------------------------------------------------------------------------
# A6: learning flows through the differentiable channel
# ---------------------------------------------------------------------------

def test_A6_channel_gradient_separates_on_from_zeroed():
    env = envs.signal_relay()

    rng = np.random.default_rng(3)
    system = dial.DialSystem(env, rng, channel="on")
    acc_on, steps_on = 0.0, 5000
    for step in range(1, 5001):
        system.train_step(32, rng)
        if step % 200 == 0:
            acc_on = system.evaluate(1000, np.random.default_rng([3, step]))
            if acc_on >= 0.95:
                steps_on = step
                break

    rng0 = np.random.default_rng(4)
    detached = dial.DialSystem(env, rng0, channel="zeroed")
    accs_off = []
    for step in range(1, 1001):
        detached.train_step(32, rng0)
        if step % 250 == 0:
            accs_off.append(detached.evaluate(2000, np.random.default_rng([4, step])))
    off_ok = all(0.45 <= a <= 0.55 for a in accs_off)

    ok = acc_on >= 0.95 and steps_on <= 5000 and off_ok
    _report("A6", ok,
            f"channel on: accuracy {acc_on:.3f} at step {steps_on} (>=0.95 "
            f"within 5000); detached: {[round(a, 3) for a in accs_off]} "
            f"all within [0.45, 0.55]: {off_ok}")


# ---------------------------------------------------------------------------
# A7: centralized critics solve continuous cooperation
# ---------------------------------------------------------------------------

def _train_maddpg_gap(seed, max_steps=30000):
    env = envs.coop_cts()
    rng = np.random.default_rng(seed)
    learner = maddpg.MaddpgLearner(env, rng, hidden=(32,), lr=2e-3, tau=0.02)
    buf = ReplayBuffer(5000)
    live = (env.reset_batch(1, rng), 0)
    gap = np.inf
    for step in range(1, max_steps + 1):
        tr, live = qmix.collect_step(env, lambda index: learner.act(index, rng), live, rng)
        buf.push(tr)
        if len(buf) >= 64:
            learner.learner_step(buf.sample(64, rng), rng)
        if step % 500 == 0:
            a = learner.act(env.reset_batch(1, rng), rng, explore=False)[0]
            gap = abs(a[0] + a[1] - 1.0)
            if gap < 0.1:
                return gap, step
    return gap, max_steps


def test_A7_maddpg_ctde_solves_continuous_cooperation():
    results = [(seed,) + _train_maddpg_gap(seed) for seed in (0, 1, 2)]
    passed = [r for r in results if r[1] < 0.1 and r[2] <= 30000]
    detail = "; ".join(f"seed {s}: |a1+a2-1|={g:.3f} at step {st}"
                       for s, g, st in results)
    _report("A7", len(passed) >= 2, f"{len(passed)}/3 seeds ({detail})")


# ---------------------------------------------------------------------------
# A8: gradient suites agree with finite differences, quickly
# ---------------------------------------------------------------------------

def test_A8_gradient_suites_pass_within_budget():
    t0 = time.perf_counter()
    err_nd = cli.ndiff_gradcheck_suite(100)
    err_dl = cli.dial_gradcheck_suite(100)
    elapsed = time.perf_counter() - t0
    ok = err_nd < 1e-4 and err_dl < 1e-4 and elapsed < 30.0
    _report("A8", ok,
            f"ndiff max_rel_error {err_nd:.2e}, dial BPTT max_rel_error "
            f"{err_dl:.2e} (<1e-4 each) in {elapsed:.1f}s (<30s)")


# ---------------------------------------------------------------------------
# A9: converged opponent models make decentralized targets match CTDE
# ---------------------------------------------------------------------------

def test_A9_decentralized_target_matches_ctde_with_trained_models():
    env = envs.two_step_coop()
    rng = np.random.default_rng(17)
    learner = maddpg.MaddpgLearner(env, rng, hidden=(32,), lr=1e-2, beta=0.0,
                                   decentralized=True)

    # the co-actor's true policy is whatever the CTDE target samples from:
    # its target actor's categorical distribution, frozen for this check
    eye = np.eye(env.n_states)
    script = np.stack([learner.actors[1].probs_np(learner.target, eye[[s]])[0]
                       for s in range(env.n_states)])

    def act(index):    # agent 0 samples its live actor, agent 1 the frozen script
        a0 = learner.actors[0].sample_np(EVAL, eye[index], rng)[0]
        return np.array([[a0, rng.choice(2, p=script[index[0]])]])
    buf, live = ReplayBuffer(20000), (env.reset_batch(1, rng), 0)
    for _ in range(20000):
        tr, live = qmix.collect_step(env, act, live, rng)
        buf.push(tr)
    for _ in range(1500):
        learner.opponent_model_update(buf.sample(256, rng))

    model_gap = max(
        float(np.max(np.abs(learner.model_probs(0, 1, s) - script[s])))
        for s in range(env.n_states))

    contents = buf.contents()
    paired = JointTransition._make(col[~contents.done][:10000] for col in contents)
    y_ctde = learner.target_ctde(paired, np.random.default_rng(18))[:, 0]
    y_dec = learner.target_decentralized(paired, 0, np.random.default_rng(19))
    gap = abs(float(y_ctde.mean()) - float(y_dec.mean()))

    n_paired = len(paired.done)
    ok = model_gap < 0.02 and gap < 0.02 and n_paired == 10000
    _report("A9", ok,
            f"|mean(dec) - mean(ctde)| = {gap:.4f} over {n_paired} paired "
            f"samples (<0.02); trained model within {model_gap:.4f} of the "
            f"true policy")

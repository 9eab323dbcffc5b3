"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

The session fixture trains the reference agent and runs the full detection
pipeline once; individual criteria reuse its artifacts. Criterion 8's
bounds are asserted as pinned; the test prints the measured values either
way and names any clause that fails.  The fixture's agent is trained
afresh, so it, and criterion 8's verdict, are bound to the BLAS kernel that
`tests/data/golden_blas.txt` names, the one the golden files were made
with: another kernel rounds training differently and trains another agent.
"""

import dataclasses
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from driftwatch.cli import main
from driftwatch.config import ExperimentConfig
from driftwatch.ddpg import train
from driftwatch.detectors import (
    AgeProfile,
    bocpd_flag,
    bocpd_init,
    bocpd_update,
)
from driftwatch.gnss import (
    constellation_from_config,
    predicted_pseudoranges,
    solve_pvt,
)
from driftwatch.harness import DETECTOR_ORDER, evaluate, profile_pipeline, run_episode
from driftwatch.nets import Mlp
from driftwatch.spoofing import AttackConfig
from gnss_oracles import jacobian
from gradcheck import min_relu_preactivation_margin, numeric_param_grads, split_like
from scoring_oracles import bocpd_oracle, bocpd_posterior_dense

GOLDEN_BLAS = Path(__file__).parent / "data" / "golden_blas.txt"


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="session")
def pipeline():
    cfg = ExperimentConfig()
    constellation = constellation_from_config(cfg.gnss)
    t0 = time.perf_counter()
    agent, history = train(cfg, 0)
    t_train = time.perf_counter() - t0
    t0 = time.perf_counter()
    bank, diag = profile_pipeline(agent, cfg, 0)
    t_profile = time.perf_counter() - t0
    t0 = time.perf_counter()
    metrics, logs = evaluate(agent, cfg, bank, 0)
    t_eval = time.perf_counter() - t0
    return SimpleNamespace(cfg=cfg, constellation=constellation, agent=agent,
                           history=history, bank=bank, metrics=metrics,
                           logs=logs, t_train=t_train, t_profile=t_profile,
                           t_eval=t_eval)


def test_criterion_01_pvt_accuracy(pipeline):
    cfg, constellation = pipeline.cfg, pipeline.constellation
    rng = np.random.default_rng(20260817)
    t0 = time.perf_counter()
    worst_err, worst_iters = 0.0, 0
    for _ in range(100):
        truth = rng.uniform((0, 0, 0), cfg.env.bounds)
        bias = rng.uniform(-100.0, 100.0)
        clean = predicted_pseudoranges(truth, bias, constellation)
        sol = solve_pvt(clean, constellation)
        err = float(np.linalg.norm(sol.x[:3] - truth))
        worst_err = max(worst_err, err)
        worst_iters = max(worst_iters, sol.iterations)
    elapsed = time.perf_counter() - t0
    ok = worst_err < 1e-6 and worst_iters <= 20 and elapsed < 1.0
    report(1, ok, f"max position error {worst_err:.2e} m, "
                  f"max iterations {worst_iters}, {elapsed:.2f}s")


def test_criterion_02_gradient_oracles(pipeline):
    cfg, constellation = pipeline.cfg, pipeline.constellation
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    worst_jac = 0.0
    for _ in range(100):
        pos = rng.uniform((0, 0, 0), cfg.env.bounds)
        bias = rng.uniform(-100.0, 100.0)
        jac = jacobian(np.append(pos, bias), constellation)
        # ranges are ~2e7 m; a 1 m step keeps cancellation error ~1e-9
        # while curvature contributes O(eps^2 / r^2), far below tolerance
        eps = 1.0
        for k in range(4):
            dvec = np.zeros(4)
            dvec[k] = eps
            plus = predicted_pseudoranges(pos + dvec[:3], bias + dvec[3],
                                          constellation)
            minus = predicted_pseudoranges(pos - dvec[:3], bias - dvec[3],
                                           constellation)
            fd = (plus - minus) / (2 * eps)
            rel = np.abs(jac[:, k] - fd) / np.maximum(np.abs(fd), 1.0)
            worst_jac = max(worst_jac, float(rel.max()))

    def grad_check(sizes, acts, seed):
        net_rng = np.random.default_rng(seed)
        net = Mlp(sizes, acts, net_rng)
        x = net_rng.normal(size=(4, sizes[0]))
        assert min_relu_preactivation_margin(net, x) > 1e-3
        loss_w = net_rng.normal(size=(4, sizes[-1]))
        net.forward(x)
        analytic = split_like(net, net.backward(loss_w)[1])
        numeric = numeric_param_grads(net, x, loss_w, h=1e-5)
        worst = 0.0
        for a, n in zip(analytic, numeric):
            scale = max(float(np.abs(n).max()), 1e-8)
            worst = max(worst, float(np.abs(a - n).max()) / scale)
        return worst

    worst_mlp = max(
        grad_check([9, 64, 64, 3], ["relu", "relu", "tanh"], 11),
        grad_check([12, 64, 64, 1], ["relu", "relu", "linear"], 13),
    )
    elapsed = time.perf_counter() - t0
    ok = worst_jac < 1e-6 and worst_mlp < 1e-4 and elapsed < 10.0
    report(2, ok, f"jacobian FD rel err {worst_jac:.2e}, "
                  f"mlp grad rel err {worst_mlp:.2e}, {elapsed:.2f}s")


def unit_prior():
    """The pooled model N(0, 1) as a one-age changepoint prior."""
    return AgeProfile(means=(0.0,), variances=(1.0,), noise_var=1.0,
                      level_var=1.0, n_samples=1000)


def test_criterion_03_bocpd_oracle_equivalence():
    profile = unit_prior()
    rng = np.random.default_rng(31337)
    t0 = time.perf_counter()
    streams = []
    for trial in range(50):
        q = rng.normal(size=30)
        if trial % 2 == 0:
            q[rng.integers(5, 25):] += float(rng.choice([-6.0, 6.0]))
        streams.append(q)
    # the 50 streams score in one batch, one row each
    expected = [bocpd_oracle(q, profile, 0.01) for q in streams]
    state = bocpd_init([profile] * 50, 0.01)
    worst_tv = 0.0
    for t, values in enumerate(np.array(streams).T):
        state, _ = bocpd_update(state, values, prune=0.0)
        dense = bocpd_posterior_dense(state)
        target = np.array([posteriors[t] for posteriors in expected])
        tv = 0.5 * np.abs(dense - target).sum(axis=1)
        worst_tv = max(worst_tv, float(tv.max()))
    elapsed = time.perf_counter() - t0
    ok = worst_tv < 1e-9 and elapsed < 10.0
    report(3, ok, f"max TV recursion vs oracle {worst_tv:.2e} "
                  f"over 50 streams, {elapsed:.2f}s")


def test_criterion_04_bocpd_responsiveness():
    profile = unit_prior()
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)
    q = rng.normal(size=80)
    q[50:] -= 10.0
    state = bocpd_init([profile], 0.01)
    hit = None
    for t, x in enumerate(q):
        state, lhat = bocpd_update(state, np.array([x]), prune=1e-8)
        if t >= 50 and lhat[0] <= 5 and hit is None:
            hit = t
    step_ok = hit is not None and hit <= 54

    state = bocpd_init([profile], 0.01)
    flags = 0
    for t in range(1000):
        state, lhat = bocpd_update(state, np.zeros(1), prune=1e-8)
        flags += bocpd_flag(lhat, t, tau=5, warmup=10)[0][0]
    elapsed = time.perf_counter() - t0
    ok = step_ok and flags == 0 and elapsed < 5.0
    report(4, ok, f"10-sigma step flagged at t={hit} (change at 50), "
                  f"constant-stream flags {flags}/1000, {elapsed:.2f}s")


def test_criterion_05_training_trend(pipeline):
    cfg = pipeline.cfg
    improved = 0
    for seed in (0, 1, 2):
        if seed == 0:
            history = pipeline.history
        else:
            _, history = train(cfg, seed)
        ma = np.convolve(history, np.ones(10) / 10, mode="valid")
        improved += np.mean(ma[-20:]) > np.mean(ma[21:41])
    nominal = [log for log in pipeline.logs if not log.attacked]
    goals = sum(log.terminal_event == "goal_reached" for log in nominal)
    rate = goals / len(nominal)
    ok = improved >= 2 and rate >= 0.70
    report(5, ok, f"moving-average improved in {improved}/3 seeds, "
                  f"deterministic goal rate {goals}/{len(nominal)}")


def _same_step_nominal_stats(nominal_logs):
    max_t = max(log.n_steps for log in nominal_logs)
    sums = np.zeros(max_t)
    sqs = np.zeros(max_t)
    counts = np.zeros(max_t)
    for log in nominal_logs:
        n = log.n_steps
        sums[:n] += log.q
        sqs[:n] += log.q ** 2
        counts[:n] += 1
    mean = sums / np.maximum(counts, 1)
    std = np.sqrt(np.maximum(sqs / np.maximum(counts, 1) - mean ** 2, 0.0))
    return mean, std, counts


def test_criterion_06_value_shift(pipeline):
    nominal = [log for log in pipeline.logs if not log.attacked]
    attacked = [log for log in pipeline.logs if log.attacked]
    mean, std, counts = _same_step_nominal_stats(nominal)
    gaps = []
    for log in attacked:
        for t in range(log.onset, log.n_steps):
            if t < len(mean) and counts[t] >= 5:
                gaps.append((mean[t] - log.q[t]) / max(std[t], 1e-9))
    gap = float(np.mean(gaps))
    ok = gap > 0.5
    report(6, ok, f"post-onset q sits {gap:.2f} nominal stds below the "
                  f"same-step nominal mean ({len(gaps)} comparisons)")


def test_criterion_07_evasion(pipeline):
    resid = DETECTOR_ORDER.index("residual")
    attacked = [log for log in pipeline.logs if log.attacked]
    drift_flagged = sum(bool(log.flags[:, resid].any()) for log in attacked)
    drift_rate = drift_flagged / len(attacked)

    abrupt = AttackConfig(t_start=100, drift_duration=1,
                          target=(500.0, 500.0, 50.0), enabled=True)
    n_abrupt = 10
    seeds = [int(np.random.SeedSequence([0, 99, i]).generate_state(1)[0])
             for i in range(n_abrupt)]
    logs = run_episode(pipeline.agent, pipeline.cfg,
                       [(abrupt, seed) for seed in seeds])
    pipeline.bank.score(logs)
    trips = sum(log.n_steps > log.onset
                and bool(log.flags[log.onset:, resid].any()) for log in logs)
    ok = drift_rate < 0.10 and trips == n_abrupt
    report(7, ok, f"residual detector flagged {drift_flagged}/{len(attacked)} "
                  f"drift episodes, {trips}/{n_abrupt} abrupt teleports")


def test_criterion_08_comparative_detection(pipeline):
    per = pipeline.metrics
    m = per["bocpd"]
    best_other = max(v["accuracy"]["mean"] for k, v in per.items() if k != "bocpd")
    acc = m["accuracy"]["mean"]
    fpr = m["false_positive_rate"]["mean"]
    fnr = m["false_negative_rate"]["mean"]
    delay = m["detection_delay"]["mean"]
    delay = float("inf") if delay is None else delay
    checks = {
        "accuracy >= 0.9": acc >= 0.9,
        "accuracy >= baselines": acc >= best_other,
        "fpr <= 0.1": fpr <= 0.1,
        "fnr <= 0.1": fnr <= 0.1,
        "delay <= 25": delay <= 25.0,
    }
    failed = [name for name, passed in checks.items() if not passed]
    ok = not failed
    blas = ", ".join(GOLDEN_BLAS.read_text().splitlines())
    report(8, ok, f"bocpd acc {acc:.3f} (best baseline "
                  f"{best_other:.3f}), fpr {fpr:.3f}, "
                  f"fnr {fnr:.2f}, delay {delay:.1f}"
                  + (f"; failed: {', '.join(failed)}" if failed else "")
                  + f"; agent trained on this host, verdict pinned for {blas}")


def test_criterion_09_cli_determinism(tmp_path):
    base = ExperimentConfig()
    tiny = dataclasses.replace(
        base,
        master_seed=5,
        env=dataclasses.replace(base.env, goal_distance_range=(150.0, 200.0),
                                max_steps=40),
        train=dataclasses.replace(base.train, episodes=3, warmup_episodes=1,
                                  batch_size=16, hidden=(16, 16)),
        detectors=dataclasses.replace(base.detectors, ae_window=8,
                                      ae_epochs=30, bocpd_warmup=10),
        eval=dataclasses.replace(base.eval, n_nominal=2, n_attacked=2,
                                 profile_episodes=50, attack_t_start=10,
                                 attack_drift_duration=5),
    )
    cfg_path = tmp_path / "tiny.json"
    tiny.save(cfg_path)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        for command in ("train", "profile", "eval"):
            rc = main([command, "--config", str(cfg_path), "--seed", "5",
                       "--out", str(out)])
            assert rc == 0, command
        rc = main(["run", "--config", str(cfg_path), "--seed", "3",
                   "--out", str(out), "--attack"])
        assert rc == 0
        outs.append(out)
    names = ["training_curve.csv", "bank.json", "profile.json",
             "summary.json", "q_histograms.csv", "q_traces.csv",
             "detector_bars.csv", "episode_3_attacked.csv"]
    diffs = [n for n in names
             if (outs[0] / n).read_bytes() != (outs[1] / n).read_bytes()]
    ok = not diffs
    report(9, ok, f"{len(names) - len(diffs)}/{len(names)} artifacts "
                  f"byte-identical across reruns"
                  + (f"; differing: {diffs}" if diffs else ""))


def test_criterion_10_runtime(pipeline):
    total = pipeline.t_train + pipeline.t_profile + pipeline.t_eval
    ok = total < 900.0
    report(10, ok, f"train {pipeline.t_train:.1f}s + profile "
                   f"{pipeline.t_profile:.1f}s + eval {pipeline.t_eval:.1f}s "
                   f"= {total:.1f}s (budget 900s)")

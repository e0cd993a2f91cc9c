"""Acceptance gate: ten end-to-end checks at pinned tolerances.

Each test prints one PASS/FAIL line (run pytest with -s or read captured
output) and asserts the same condition, so the suite doubles as a
human-readable scorecard for the whole package.
"""

import itertools
import math
import time

import numpy as np

from _bruteforce import enumerate_errors
from _oracles import relaxed_exponent_oracle
from seqht import (
    JointPmf,
    Pmf,
    PolicyKind,
    ProtocolConfig,
    SourceModel,
    acceptance_region_membership,
    default_eta,
    exact_errors,
    fit_exponent,
    grid_oracle_exponent,
    monte_carlo_errors,
    run_protocol,
    solve_exponent,
    verify_acceptance_bound,
    verify_wald_identity,
)
from seqht.cli import EXIT_OK, main as cli_main

PRODUCT_P = JointPmf.from_probs([[0.81, 0.09], [0.09, 0.01]])
UNIFORM_Q = JointPmf.from_probs([[0.25, 0.25], [0.25, 0.25]])
CORRELATED_P = JointPmf.from_probs([[0.5, 0.2], [0.1, 0.2]])
PRODUCT_EXPONENT = 2 * (0.9 * math.log(0.9 / 0.5) + 0.1 * math.log(0.1 / 0.5))


def _verdict(number: int, name: str, ok: bool, detail: str):
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def _random_instance(rng):
    p = JointPmf.from_probs(rng.dirichlet(np.ones(4)).reshape(2, 2))
    q_raw = 0.8 * rng.dirichlet(np.ones(4)).reshape(2, 2) + 0.05
    q = JointPmf.from_probs(q_raw)
    return p, q


def test_criterion_1_solver_matches_grid_oracle():
    rng = np.random.default_rng(20260816)
    worst_gap = 0.0
    worst_residual = 0.0
    start = time.perf_counter()
    for _ in range(50):
        p, q = _random_instance(rng)
        solved = solve_exponent(p, q)
        oracle = grid_oracle_exponent(p, q, grid_step=1e-5)
        worst_gap = max(worst_gap, abs(solved.exponent - oracle))
        worst_residual = max(worst_residual, solved.marginal_residual)
    elapsed = time.perf_counter() - start
    ok = worst_gap <= 1e-3 and worst_residual <= 1e-10 and elapsed < 1.0
    _verdict(
        1,
        "solver vs grid oracle on 50 seeded instances",
        ok,
        f"max |solver-oracle| {worst_gap:.3e} (<=1e-3), "
        f"max residual {worst_residual:.3e} (<=1e-10), {elapsed:.2f}s (<1s)",
    )


def test_criterion_2_product_alternative_closed_form():
    result = solve_exponent(PRODUCT_P, UNIFORM_Q)
    gap = abs(result.exponent - PRODUCT_EXPONENT)
    cell_gap = float(np.abs(result.minimizer.probs - PRODUCT_P.probs).max())
    ok = gap <= 1e-9 and cell_gap <= 1e-9
    _verdict(
        2,
        "closed-form product case",
        ok,
        f"exponent {result.exponent:.15f} vs {PRODUCT_EXPONENT:.15f} "
        f"(gap {gap:.2e} <= 1e-9), minimizer cell gap {cell_gap:.2e} (<=1e-9)",
    )


def test_criterion_3_matched_marginals_null_exponent():
    rng = np.random.default_rng(33)
    cases = [(JointPmf.from_probs([[0.3, 0.2], [0.2, 0.3]]), UNIFORM_Q)]
    for _ in range(5):
        a = float(rng.uniform(0.2, 0.8))
        b = float(rng.uniform(0.2, 0.8))
        lo, hi = max(0.0, a + b - 1.0), min(a, b)
        t = float(rng.uniform(lo, hi))
        p = JointPmf.from_probs(
            [[t, a - t], [b - t, 1 - a - b + t]]
        )
        q = JointPmf.from_probs(
            [[a * b, a * (1 - b)], [(1 - a) * b, (1 - a) * (1 - b)]]
        )
        cases.append((p, q))
    worst = max(solve_exponent(p, q).exponent for p, q in cases)
    ok = worst <= 1e-9
    _verdict(
        3,
        "zero exponent when alternative marginals match",
        ok,
        f"max exponent over {len(cases)} matched-marginal instances {worst:.2e} (<=1e-9)",
    )


def test_criterion_4_exact_evaluator_ground_truth():
    config = ProtocolConfig(k=2, n=1, eta=0.25)
    pinned = exact_errors(config, UNIFORM_Q, UNIFORM_Q)
    pinned_ok = pinned.beta == 0.25

    rng = np.random.default_rng(404)
    grids = [
        (1, 1, 0.3, "fixed_horizon"),
        (2, 1, 0.25, "fixed_horizon"),
        (1, 3, 0.25, "fixed_horizon"),
        (3, 1, 0.2, "fixed_horizon"),
        (2, 2, 0.15, "fixed_horizon"),
        (5, 1, 0.1, "fixed_horizon"),
        (2, 3, 0.2, "fixed_horizon"),
        (4, 2, 0.15, "fixed_horizon"),
        (3, 3, 0.12, "fixed_horizon"),
        (10, 1, 0.08, "fixed_horizon"),
        (4, 3, 0.1, "fixed_horizon"),
        (6, 2, 0.25, "fixed_horizon"),
        (2, 3, 0.25, "early_decide"),
        (3, 4, 0.15, "early_decide"),
        (1, 6, 0.3, "early_decide"),
    ]
    worst = 0.0
    for k, n, eta, policy in grids:
        cfg = ProtocolConfig(k=k, n=n, eta=eta, policy_kind=policy)
        raw = rng.dirichlet(np.ones(4)).reshape(2, 2) * 0.8 + 0.05
        p = JointPmf.from_probs(raw / raw.sum())
        raw = rng.dirichlet(np.ones(4)).reshape(2, 2) * 0.8 + 0.05
        q = JointPmf.from_probs(raw / raw.sum())
        report = exact_errors(cfg, p, q)
        _, reject_p, e_t_p = enumerate_errors(cfg, p, p)
        accept_q, _, e_t_q = enumerate_errors(cfg, p, q)
        worst = max(
            worst,
            abs(report.alpha - reject_p),
            abs(report.beta - accept_q),
            abs(report.e_t_h0 - e_t_p),
            abs(report.e_t_h1 - e_t_q),
        )
    ok = pinned_ok and worst <= 1e-12
    _verdict(
        4,
        "exact evaluator vs sequence enumeration",
        ok,
        f"pinned 16-outcome beta {pinned.beta} (== 0.25), max deviation over "
        f"{len(grids)} configs with N <= 12: {worst:.2e} (<=1e-12)",
    )


def test_criterion_5_fitted_slope_in_relaxed_band():
    eta = 0.02
    config = ProtocolConfig(k=2, n=125, eta=eta)
    start = time.perf_counter()
    fit = fit_exponent(config, PRODUCT_P, UNIFORM_Q, budget_grid=[250, 500, 1000, 2000])
    elapsed = time.perf_counter() - start
    relaxed = relaxed_exponent_oracle(PRODUCT_P, UNIFORM_Q, eta=eta)
    lo, hi = 0.9 * relaxed, 1.05 * relaxed
    solver = solve_exponent(PRODUCT_P, UNIFORM_Q).exponent

    second = fit_exponent(
        ProtocolConfig(k=2, n=50, eta=0.05),
        CORRELATED_P,
        UNIFORM_Q,
        budget_grid=[100, 200, 300, 400],
    )
    second_exp = solve_exponent(CORRELATED_P, UNIFORM_Q).exponent
    guard_ok = fit.slope <= solver + 0.02 and second.slope <= second_exp + 0.02

    ok = lo <= fit.slope <= hi and elapsed < 60.0 and guard_ok
    _verdict(
        5,
        "empirical exponent slope",
        ok,
        f"slope {fit.slope:.6f} in [{lo:.6f}, {hi:.6f}] (eta-relaxed oracle "
        f"{relaxed:.6f}), {elapsed:.1f}s (<60s), converse guard: "
        f"{fit.slope:.4f} <= {solver + 0.02:.4f} and {second.slope:.4f} <= {second_exp + 0.02:.4f}",
    )


def test_criterion_6_type_one_error_control():
    worst = 0.0
    for total in (250, 500, 1000, 2000):
        n = total // 2
        config = ProtocolConfig(k=2, n=n, eta=default_eta(n, 2))
        report = exact_errors(config, PRODUCT_P, UNIFORM_Q)
        worst = max(worst, report.alpha)
    ok = worst <= 0.05
    _verdict(
        6,
        "type-I control under the default margin schedule",
        ok,
        f"max exact alpha over the N grid {worst:.3e} (<= 0.05)",
    )


def test_criterion_7_monte_carlo_consistency():
    config = ProtocolConfig(k=2, n=100, eta=default_eta(100, 2))
    exact = exact_errors(config, PRODUCT_P, UNIFORM_Q)
    hits = 0
    reps = 20
    for rep in range(reps):
        mc = monte_carlo_errors(
            config, PRODUCT_P, UNIFORM_Q, trials=100_000, seed=rep
        )
        if abs(mc.beta - exact.beta) <= 3.0 * mc.ci_halfwidth:
            hits += 1
    ok = hits >= math.ceil(0.95 * reps)
    _verdict(
        7,
        "Monte Carlo tracks the exact evaluator",
        ok,
        f"{hits}/{reps} repetitions within 3x Wilson half-width of exact beta "
        f"{exact.beta:.3e} (need >=19)",
    )


def test_criterion_8_stopped_divergence_identity():
    cases = []
    p_half = Pmf.from_probs([0.5, 0.5])
    q_skew = Pmf.from_probs([0.9, 0.1])
    cases.append(
        ("stop-at-first-1, cap 16", verify_wald_identity(p_half, q_skew, lambda s: s[-1] == 1, 16))
    )
    cases.append(
        ("deterministic stop at 3", verify_wald_identity(q_skew, p_half, lambda s: len(s) >= 3, 10))
    )
    for c in (1, 2, 3):
        cases.append(
            (
                f"count0>={c}",
                verify_wald_identity(
                    Pmf.from_probs([0.35, 0.65]),
                    Pmf.from_probs([0.6, 0.4]),
                    lambda s, cc=c: s.count(0) >= cc,
                    12,
                ),
            )
        )
    cases.append(
        (
            "joint composite alphabet",
            verify_wald_identity(
                CORRELATED_P, UNIFORM_Q, lambda s: s.count(0) >= 2, 8
            ),
        )
    )
    worst = max(report.gap for _, report in cases)
    ok = worst <= 1e-9
    _verdict(
        8,
        "stopped-divergence identity",
        ok,
        f"max |LHS-RHS| over {len(cases)} prefix-tree cases {worst:.2e} (<=1e-9)",
    )


def test_criterion_9_acceptance_set_bound(capsys):
    rng = np.random.default_rng(99)
    checked = 0
    all_hold = True
    for case in range(20):
        raw = rng.uniform(0.1, 0.9)
        p = Pmf.from_probs([raw, 1 - raw])
        raw = rng.uniform(0.1, 0.9)
        q = Pmf.from_probs([raw, 1 - raw])
        cap = int(rng.integers(2, 6))
        sets = {}
        for t in range(1, cap + 1):
            pool = [tuple(s) for s in itertools.product(range(2), repeat=t)]
            sets[t] = [s for s in pool if rng.random() < 0.5]
        if case % 2 == 0:
            weights = rng.dirichlet(np.ones(cap))
            stopping = {t + 1: float(w) for t, w in enumerate(weights)}
        else:
            cut = int(rng.integers(1, cap + 1))
            stopping = lambda s, c=cut: s.count(1) >= c
        report = verify_acceptance_bound(p, q, stopping, sets, horizon_cap=cap)
        all_hold = all_hold and report.holds and report.holds_loose
        checked += 1

    exit_code = cli_main(["verify"])
    cli_out = capsys.readouterr().out
    cli_ok = exit_code == EXIT_OK and "checks passed" in cli_out
    ok = all_hold and cli_ok
    _verdict(
        9,
        "stopped acceptance-set inequality",
        ok,
        f"{checked}/20 randomized cases within E[T]*D + ln2 (and +1 variant), "
        f"verify subcommand exit {exit_code} (== 0)",
    )


def test_criterion_10_protocol_invariants():
    fixed = ProtocolConfig(k=3, n=12, eta=0.15)
    early = ProtocolConfig(k=2, n=15, eta=0.12, policy_kind=PolicyKind.EARLY_DECIDE)
    runs = 10_000
    rng = np.random.default_rng(55)
    perm_checked = 0
    for rep in range(runs):
        config = fixed if rep % 2 == 0 else early
        joint = CORRELATED_P if rep % 4 < 2 else UNIFORM_Q
        hypothesis = "H0" if rep % 4 < 2 else "H1"
        source = SourceModel(hypothesis=hypothesis, joint=joint, rng_seed=rep)
        trace = run_protocol(config, CORRELATED_P, source)
        assert trace.stopping_time <= config.n
        assert trace.feedback_bits == (1,) * (trace.stopping_time - 1) + (0,)
        assert trace.per_step_verdicts[-1] == trace.decision
        assert all(v is None for v in trace.per_step_verdicts[:-1])
        assert len(trace.x_seq) == trace.stopping_time * config.k

        replay = run_protocol(config, CORRELATED_P, source)
        assert replay == trace

        if rep < 300:
            x = list(trace.x_seq)
            y = list(trace.y_seq)
            if config is fixed:
                rng.shuffle(x)
                rng.shuffle(y)
            else:
                for block in range(trace.stopping_time):
                    lo, hi = block * config.k, (block + 1) * config.k
                    seg = y[lo:hi]
                    rng.shuffle(seg)
                    y[lo:hi] = seg
                rng.shuffle(x)
            original = acceptance_region_membership(
                config, CORRELATED_P, list(trace.x_seq), list(trace.y_seq)
            )
            permuted = acceptance_region_membership(config, CORRELATED_P, x, y)
            assert permuted == original
            perm_checked += 1
    _verdict(
        10,
        "protocol invariants over seeded runs",
        True,
        f"{runs} runs: T <= n, stop-feedback pattern, verdict consistency, "
        f"byte-identical replay; decision permutation-invariance on {perm_checked} runs",
    )

"""Tests for the error evaluators, slope fit, and identity verifiers."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import gammaln

from _bruteforce import enumerate_errors
from _oracles import convolution_log_accept, early_binary_outcome, joint_type_enumeration
from seqht import (
    CONTINUE,
    EncoderKind,
    ERROR_CSV_HEADER,
    ErrorReport,
    FIT_CSV_HEADER,
    HorizonTooLarge,
    InvalidConfig,
    JointPmf,
    LengthMismatch,
    Message,
    NotStrictlyPositive,
    Pmf,
    PolicyKind,
    ProtocolConfig,
    TooLarge,
    decide,
    default_eta,
    encode,
    error_report_csv_row,
    exact_errors,
    exponent_fit_csv_rows,
    exponent_fit_summary,
    fit_exponent,
    format_float,
    kl_divergence,
    marginals,
    monte_carlo_errors,
    relaxed_exponent_oracle,
    solve_exponent,
    verify_acceptance_bound,
    verify_wald_identity,
    wilson_halfwidth,
)
from seqht.harness import (
    _binary_log_accept,
    _binom_logpmf,
    _binom_rows,
    _exact_binary,
    _exact_general,
    _exact_report,
    _log_window_masses,
    _logsumexp,
)
from seqht.protocol import _DecisionRule

UNIFORM = JointPmf.from_probs([[0.25, 0.25], [0.25, 0.25]])
PRODUCT_P = JointPmf.from_probs([[0.81, 0.09], [0.09, 0.01]])
CORRELATED = JointPmf.from_probs([[0.5, 0.2], [0.1, 0.2]])


def _random_joint(rng, rows=2, cols=2, floor=0.02):
    raw = rng.dirichlet(np.ones(rows * cols)).reshape(rows, cols)
    mixed = (1.0 - floor * rows * cols) * raw + floor
    return JointPmf.from_probs(mixed / mixed.sum())


def _report(evaluator, config, p, q):
    """One exact evaluator's report on (p, q), built as ``exact_errors`` builds it."""
    return _exact_report(config, *evaluator(config, p, (p, q)))


# ---------------------------------------------------------------------------
# exact evaluation: pinned small cases


def test_sixteen_outcome_rejection_mass():
    config = ProtocolConfig(k=2, n=1, eta=0.25)
    report = exact_errors(config, UNIFORM, UNIFORM)
    assert report.beta == 0.25
    assert report.alpha == 0.75
    assert report.method == "exact"
    assert report.trials is None and report.ci_halfwidth is None


def test_margin_at_least_one_accepts_everything():
    config = ProtocolConfig(k=3, n=4, eta=1.0)
    report = exact_errors(config, CORRELATED, PRODUCT_P)
    assert report.alpha == 0.0
    assert report.beta == 1.0
    assert report.log_alpha == -math.inf
    assert report.log_beta == 0.0


def test_identical_hypotheses_split_the_mass():
    rng = np.random.default_rng(7)
    for _ in range(5):
        p = _random_joint(rng)
        config = ProtocolConfig(k=2, n=9, eta=0.2)
        report = exact_errors(config, p, p)
        assert abs(report.alpha + report.beta - 1.0) <= 1e-12


def test_fixed_horizon_expected_stop_is_the_horizon():
    config = ProtocolConfig(k=2, n=7, eta=0.15)
    report = exact_errors(config, CORRELATED, UNIFORM)
    assert report.e_t_h0 == 7.0
    assert report.e_t_h1 == 7.0
    assert report.total_samples == 14


def test_report_properties():
    config = ProtocolConfig(k=2, n=5, eta=0.2)
    report = exact_errors(config, CORRELATED, PRODUCT_P)
    assert report.neg_ln_beta_per_sample == -report.log_beta / 10
    assert math.isclose(math.exp(report.log_beta), report.beta, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# exact evaluation vs exhaustive-sequence enumeration


@pytest.mark.parametrize(
    "k,n,eta",
    [(2, 1, 0.25), (1, 6, 0.3), (3, 2, 0.2), (2, 4, 0.15), (5, 2, 0.08)],
)
def test_fixed_horizon_matches_sequence_enumeration(k, n, eta):
    rng = np.random.default_rng(100 * k + n)
    p = _random_joint(rng)
    q = _random_joint(rng)
    config = ProtocolConfig(k=k, n=n, eta=eta)
    report = exact_errors(config, p, q)

    accept_p, reject_p, e_t_p = enumerate_errors(config, p, p)
    accept_q, _, e_t_q = enumerate_errors(config, p, q)
    assert abs(report.alpha - reject_p) <= 1e-12
    assert abs(report.beta - accept_q) <= 1e-12
    assert abs(report.e_t_h0 - e_t_p) <= 1e-12
    assert abs(report.e_t_h1 - e_t_q) <= 1e-12


@pytest.mark.parametrize("k,n,eta", [(1, 6, 0.25), (2, 3, 0.2), (3, 2, 0.3)])
def test_early_decide_matches_sequence_enumeration(k, n, eta):
    rng = np.random.default_rng(41 + k)
    p = _random_joint(rng)
    q = _random_joint(rng)
    config = ProtocolConfig(k=k, n=n, eta=eta, policy_kind=PolicyKind.EARLY_DECIDE)
    report = exact_errors(config, p, q)

    accept_p, reject_p, e_t_p = enumerate_errors(config, p, p)
    accept_q, _, e_t_q = enumerate_errors(config, p, q)
    assert abs(report.alpha - reject_p) <= 1e-12
    assert abs(report.beta - accept_q) <= 1e-12
    assert abs(report.e_t_h0 - e_t_p) <= 1e-12
    assert abs(report.e_t_h1 - e_t_q) <= 1e-12


def test_early_decide_rejects_sooner_under_distant_alternative():
    config = ProtocolConfig(
        k=2, n=16, eta=0.1, policy_kind=PolicyKind.EARLY_DECIDE
    )
    far = JointPmf.from_probs([[0.04, 0.16], [0.16, 0.64]])
    report = exact_errors(config, PRODUCT_P, far)
    assert report.e_t_h1 < config.n
    assert report.e_t_h0 <= config.n


def test_general_enumeration_matches_binary_fast_path():
    rng = np.random.default_rng(11)
    for eta in (0.1, 0.2, 0.35):
        p = _random_joint(rng)
        q = _random_joint(rng)
        config = ProtocolConfig(k=3, n=4, eta=eta)
        fast = _report(_exact_binary, config, p, q)
        for slow in (joint_type_enumeration(config, p, q), _report(_exact_general, config, p, q)):
            assert abs(fast.alpha - slow.alpha) <= 1e-12
            assert abs(fast.beta - slow.beta) <= 1e-12
            assert math.isclose(fast.log_beta, slow.log_beta, rel_tol=1e-10)


def _assert_matches_enumeration(config, p, q):
    report = _report(_exact_general, config, p, q)
    oracle = joint_type_enumeration(config, p, q)
    assert abs(report.alpha - oracle.alpha) <= 1e-12
    assert abs(report.beta - oracle.beta) <= 1e-12
    if oracle.log_beta == -math.inf:
        assert report.log_beta == -math.inf
    else:
        assert math.isclose(report.log_beta, oracle.log_beta, rel_tol=1e-10)
    assert report.e_t_h0 == report.e_t_h1 == config.n
    return report


def test_marginal_counts_match_joint_type_enumeration():
    rng = np.random.default_rng(808)
    # (shape, largest N): the oracle scores C(N + cells - 1, cells - 1) types.
    for shape, top in (((2, 3), 20), ((3, 2), 20), ((3, 3), 12), ((4, 2), 14)):
        for case in range(8):
            rows, cols = shape
            p = _random_joint(rng, rows, cols, floor=float(rng.choice([0.0, 0.02])))
            q = _random_joint(rng, rows, cols)
            if case == 1:  # a zero cell
                raw = p.probs.copy()
                raw.flat[2] = 0.0
                p = JointPmf.from_probs(raw / raw.sum())
            if case == 2:  # a zero row in each measure
                raw_p, raw_q = p.probs.copy(), q.probs.copy()
                raw_p[1], raw_q[0] = 0.0, 0.0
                p, q = JointPmf.from_probs(raw_p / raw_p.sum()), JointPmf.from_probs(raw_q / raw_q.sum())
            k = int(rng.integers(1, 5))
            n = int(rng.integers(1, top // k + 1))
            config = ProtocolConfig(k=k, n=n, eta=float(rng.uniform(0.05, 0.45)))
            _assert_matches_enumeration(config, p, q)


def test_marginal_counts_on_the_margin_and_past_it():
    # x-count 6 of 8 and y-count 2 of 8 are exactly 0.25 off the marginals
    # (0.5, 0.25, 0.25) of this 3x3 null: typical on raw counts.
    edge = JointPmf.from_probs([[0.3, 0.1, 0.1], [0.1, 0.1, 0.05], [0.1, 0.05, 0.1]])
    far = JointPmf.from_probs([[0.1, 0.2, 0.1], [0.05, 0.1, 0.2], [0.1, 0.05, 0.1]])
    _assert_matches_enumeration(ProtocolConfig(k=2, n=4, eta=0.25), edge, far)
    # The (2, 3, 1)/6 count of the 3x2 inline-enumeration test.
    half = JointPmf.from_probs([[0.25, 0.25], [0.125, 0.125], [0.125, 0.125]])
    skew = JointPmf.from_probs([[0.1, 0.2], [0.3, 0.1], [0.1, 0.2]])
    _assert_matches_enumeration(ProtocolConfig(k=2, n=3, eta=0.25), half, skew)
    # eta >= 1 rejects nothing, so the errors are pinned, not summed: at
    # N = 6 the sums themselves miss 0 and 1 by a few ulps.
    for eta in (1.0, 1.3):
        for p, q in ((edge, far), (half, skew)):
            report = _assert_matches_enumeration(ProtocolConfig(k=2, n=3, eta=eta), p, q)
            assert report.alpha == 0.0 and report.beta == 1.0


def _oracle_instances():
    """(p, q, total, eta): random 2x2 pairs, every fifth one in the deep tail
    (narrow windows at large N), plus degenerate rows and columns."""
    rng = np.random.default_rng(2109)
    for case in range(200):
        p = _random_joint(rng, floor=float(rng.choice([0.0, 0.005, 0.05])))
        q = _random_joint(rng)
        if case % 5 == 0:
            total = int(rng.integers(150, 301))
            eta = float(rng.uniform(0.01, 0.08))
        else:
            total = int(np.exp(rng.uniform(0.0, np.log(300.0))))
            eta = float(rng.uniform(0.01, 0.4))
        yield p, q, total, eta
    for cells in ([[0.5, 0.0], [0.5, 0.0]], [[0.7, 0.3], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]):
        yield JointPmf.from_probs(cells), UNIFORM, 40, 0.2
        yield CORRELATED, JointPmf.from_probs(cells), 40, 0.2


def _x_count_law(joint, total):
    return _binom_logpmf(np.arange(total + 1), total, joint.probs[0].sum())


def test_binary_window_sums_match_convolution_oracle():
    deep_tail = 0
    for p, q, total, eta in _oracle_instances():
        rule = _DecisionRule(ProtocolConfig(k=total, n=1, eta=eta), *marginals(p))
        x_mask = rule.binary_window(total, rule.p_x.probs)
        y_mask = rule.binary_window(total, rule.p_y.probs)
        fast_p, fast_q = (
            _binary_log_accept(j.probs, _x_count_law(j, total), x_mask, y_mask, total) for j in (p, q)
        )
        slow_p, slow_q = (convolution_log_accept(j.probs, x_mask, y_mask, total) for j in (p, q))
        assert abs(-math.expm1(fast_p) - -math.expm1(slow_p)) <= 1e-12
        assert abs(math.exp(fast_q) - math.exp(slow_q)) <= 1e-12
        # abs_tol: near beta = 1 the log carries the sum's last-place rounding.
        assert math.isclose(fast_q, slow_q, rel_tol=1e-12, abs_tol=1e-15)
        deep_tail += slow_q < -100
    assert deep_tail >= 30


def test_window_masses_match_direct_sums():
    from scipy.special import logsumexp

    rng = np.random.default_rng(5)
    for _ in range(400):
        m = int(rng.integers(0, 40))
        log_pmf = _binom_logpmf(np.arange(m + 1), m, float(rng.choice([0.0, rng.uniform(0, 1), 1.0])))
        lo = int(rng.integers(-5, m + 10))
        hi = lo + int(rng.integers(0, m + 5))
        count = int(rng.integers(0, 50))
        got = _log_window_masses(log_pmf, lo, hi, count)
        for b, value in enumerate(got):
            window = log_pmf[max(lo - b, 0) : max(min(hi - b, m) + 1, 0)]
            direct = float(logsumexp(window)) if window.size else -np.inf
            if direct == -np.inf:
                assert value == -np.inf
            else:
                assert math.isclose(value, direct, rel_tol=1e-12, abs_tol=1e-13)


def test_binomial_log_pmf_is_scipy_formula_bit_for_bit():
    from scipy.stats import binom

    lg = gammaln(np.arange(2002))
    for n, p in [(0, 0.3), (7, 0.0), (7, 1.0), (64, 0.5), (137, 0.9999), (2000, 0.1)]:
        k = np.arange(n + 1)
        expected = binom.logpmf(k, n, p)
        assert np.array_equal(_binom_logpmf(k, n, p), expected)
        # The table form, from a table that ends at n and from a longer one.
        assert np.array_equal(_binom_rows(gammaln(np.arange(n + 2)), p)(n), expected)
        assert np.array_equal(_binom_rows(lg, p)(n), expected)
    for p in (0.0, 1e-300, 0.3, 0.5, 1.0 - 1e-12, 1.0):
        rows = _binom_rows(lg, p)
        for n in range(0, 2001, 37):
            assert np.array_equal(rows(n), _binom_logpmf(np.arange(n + 1), n, p))


# float.hex() of (alpha, beta, log_alpha, log_beta, e_t_h0, e_t_h1) from
# exact_errors, taken from the evaluator before its binomial terms were read
# off tables; any change to the arithmetic or its order shows here.
_PINNED_EXACT = [
    ((PRODUCT_P, UNIFORM, 2, 250, None, "fixed_horizon"),
     ("0x1.61fffffffff0bp-44", "0x1.eea8d30b2a88fp-102", "-0x1.e2ca2a04231d1p+4",
      "-0x1.182b56018dab2p+6", "0x1.f400000000000p+7", "0x1.f400000000000p+7")),
    ((PRODUCT_P, UNIFORM, 2, 1000, 0.02, "fixed_horizon"),
     ("0x1.a9fa179ea4d1dp-8", "0x0.0p+0", "-0x1.424d53ec2e728p+2",
      "-0x1.48f196fc8330ep+10", "0x1.f400000000000p+9", "0x1.f400000000000p+9")),
    ((PRODUCT_P, UNIFORM, 2, 32, 0.1, "early_decide"),
     ("0x1.15477161ddbd8p-2", "0x1.5f05fb68a6ad4p-46", "-0x1.4e7354e0b1e2fp+0",
      "-0x1.f91b034fc5bc7p+4", "0x1.82c462028420fp+4", "0x1.ad9730e0b33ffp+0")),
    ((PRODUCT_P, UNIFORM, 2, 100, None, "early_decide"),
     ("0x1.82cbb240144bbp-7", "0x1.16e6f6b97d629p-12", "-0x1.1c1dac44494b4p+2",
      "-0x1.076d381cc2573p+3", "0x1.8b5534e1cfa4cp+6", "0x1.73a1a12621ce1p+5")),
    # a zero cell in the null
    ((JointPmf.from_probs([[0.5, 0.2], [0.3, 0.0]]), CORRELATED, 3, 40, 0.1, "fixed_horizon"),
     ("0x1.ca41bba4f3f88p-6", "0x1.130e790e5a595p-7", "-0x1.c9cf0a51a1eacp+1",
      "-0x1.31ef4e381b7a0p+2", "0x1.4000000000000p+5", "0x1.4000000000000p+5")),
    ((JointPmf.from_probs([[0.5, 0.2], [0.3, 0.0]]), CORRELATED, 3, 40, 0.1, "early_decide"),
     ("0x1.6783d2cd336b1p-1", "0x1.d25339a5d9f76p-10", "-0x1.6a0df77ea0a1cp-2",
      "-0x1.953ba8659a841p+2", "0x1.a3454493d1625p+3", "0x1.d07eaff0ea334p+1")),
    # conditional rates 1 and 0 under the null
    ((JointPmf.from_probs([[0.6, 0.0], [0.0, 0.4]]), CORRELATED, 2, 60, 0.15, "fixed_horizon"),
     ("0x1.0f935d70e9d05p-10", "0x1.b9ff978d94eaep-1", "-0x1.b7d58a98d86cep+2",
      "-0x1.2d17f4bcaae80p-3", "0x1.e000000000000p+5", "0x1.e000000000000p+5")),
    # a conditional rate 0 under the alternative
    ((CORRELATED, JointPmf.from_probs([[0.6, 0.0], [0.25, 0.15]]), 2, 45, 0.2, "early_decide"),
     ("0x1.11d91f2e82f0bp-1", "0x1.676515fabd49cp-6", "-0x1.40626d31dd1a2p-1",
      "-0x1.e8e9ece734806p+1", "0x1.58168ccea9f8dp+4", "0x1.2956bf308a9c9p+3")),
]


@pytest.mark.parametrize("case,expected", _PINNED_EXACT)
def test_exact_binary_is_pinned_bit_for_bit(case, expected):
    p, q, k, n, eta, policy = case
    eta = default_eta(n, k) if eta is None else eta
    config = ProtocolConfig(k=k, n=n, eta=eta, policy_kind=policy)
    report = exact_errors(config, p, q)
    fields = (report.alpha, report.beta, report.log_alpha, report.log_beta, report.e_t_h0, report.e_t_h1)
    assert tuple(float(v).hex() for v in fields) == expected


def test_logsumexp_is_scipy_arithmetic_bit_for_bit():
    from scipy.special import logsumexp

    rng = np.random.default_rng(7)
    arrays = [np.array([-np.inf, -np.inf]), np.array([3.0]), np.array([1.0, 1.0, -np.inf, 0.5])]
    for _ in range(2000):
        a = rng.normal(scale=float(rng.choice([1e-3, 1.0, 700.0])), size=int(rng.integers(1, 200)))
        a[rng.random(a.size) < 0.2] = -np.inf
        arrays.append(a)
    for a in arrays:
        assert _logsumexp(a) == float(logsumexp(a))


def _inline_enumeration_accept(config, p_null, measure):
    """Accept mass of ``measure`` by replaying encode/decide on every 3x2 pair of
    sequences, with verdicts cached per (sensor bits, y-sequence)."""
    k, n = config.k, config.n
    p_x, _ = marginals(p_null)
    verdicts = {}

    def replay(bits, y_seq):
        msgs = []
        for t in range(1, n + 1):
            msgs.append(Message(step=t, payload=bits[t - 1]))
            verdict = decide(config, msgs, list(y_seq[: k * t]), t, p_null)
            if verdict is not CONTINUE:
                return verdict
        raise AssertionError("policy must stop by the horizon")

    accept = 0.0
    total = 0.0
    for x_seq in itertools.product(range(3), repeat=k * n):
        bits = tuple(encode(config, list(x_seq[: k * t]), p_x).payload for t in range(1, n + 1))
        for y_seq in itertools.product(range(2), repeat=k * n):
            w = 1.0
            for a, b in zip(x_seq, y_seq):
                w *= measure.probs[a, b]
            if (bits, y_seq) not in verdicts:
                verdicts[bits, y_seq] = replay(bits, y_seq)
            accept += w * (verdicts[bits, y_seq] == 0)
            total += w
    assert abs(total - 1.0) <= 1e-12
    return accept


def test_nonbinary_alphabet_matches_inline_enumeration():
    rng = np.random.default_rng(23)
    raw_p = rng.dirichlet(np.ones(6)).reshape(3, 2) * 0.7 + 0.05
    raw_q = rng.dirichlet(np.ones(6)).reshape(3, 2) * 0.7 + 0.05
    instances = [
        (raw_p / raw_p.sum(), raw_q / raw_q.sum(), ProtocolConfig(k=2, n=2, eta=0.3)),
        # Count (2, 3, 1) of 6 is exactly 0.25 off the x-marginal on one
        # symbol: typical on raw counts, atypical after renormalising.
        (
            [[0.25, 0.25], [0.125, 0.125], [0.125, 0.125]],
            [[0.1, 0.2], [0.3, 0.1], [0.1, 0.2]],
            ProtocolConfig(k=2, n=3, eta=0.25),
        ),
    ]
    for raw_p, raw_q, config in instances:
        p = JointPmf.from_probs(raw_p)
        q = JointPmf.from_probs(raw_q)
        report = exact_errors(config, p, q)
        assert abs(report.alpha - (1.0 - _inline_enumeration_accept(config, p, p))) <= 1e-12
        assert abs(report.beta - _inline_enumeration_accept(config, p, q)) <= 1e-12


def _assert_matches_early_oracle(config, p, q):
    report = exact_errors(config, p, q)
    rule = _DecisionRule(config, *marginals(p))
    _, reject_p, e_t_p = early_binary_outcome(rule, p.probs)
    accept_q, _, e_t_q = early_binary_outcome(rule, q.probs)
    assert abs(report.alpha - reject_p) <= 1e-12
    assert abs(report.beta - accept_q) <= 1e-12
    assert abs(report.e_t_h0 - e_t_p) <= 1e-12
    assert abs(report.e_t_h1 - e_t_q) <= 1e-12


def test_early_decide_matches_linear_oracle():
    rng = np.random.default_rng(64)
    for case in range(120):
        raw = rng.dirichlet(np.ones(4))
        if case % 3 == 0:
            raw[rng.integers(4)] = 0.0
        p = JointPmf.from_probs(raw.reshape(2, 2) / raw.sum())
        q = _random_joint(rng, floor=float(rng.choice([0.0, 0.05])))
        k = int(rng.integers(1, 9))
        n = int(rng.integers(1, 64 // k + 1))
        eta = 1.0 + float(rng.uniform(0.0, 0.5)) if case % 10 == 0 else float(rng.uniform(0.01, 0.5))
        config = ProtocolConfig(k=k, n=n, eta=eta, policy_kind=PolicyKind.EARLY_DECIDE)
        _assert_matches_early_oracle(config, p, q)


def _inside_wilson(exact, p_hat, trials):
    """Whether ``exact`` lies in the 95% Wilson interval around ``p_hat``.

    The 1e-9 relative slack absorbs the rounding of the interval's own ends
    (at p_hat = 0 the lower end is 0 only up to rounding).
    """
    z2 = 1.959963984540054**2
    center = (p_hat + z2 / (2 * trials)) / (1.0 + z2 / trials)
    return abs(exact - center) <= wilson_halfwidth(p_hat, trials) * (1.0 + 1e-9)


def test_early_decide_exact_at_large_horizon_matches_monte_carlo():
    n, k = 1000, 2
    config = ProtocolConfig(
        k=k, n=n, eta=default_eta(n, k), policy_kind=PolicyKind.EARLY_DECIDE
    )
    exact = exact_errors(config, PRODUCT_P, UNIFORM)
    trials = 20_000
    mc = monte_carlo_errors(config, PRODUCT_P, UNIFORM, trials=trials, seed=3)
    assert 0.2 < exact.alpha < 0.22
    assert _inside_wilson(exact.alpha, mc.alpha, trials)
    assert _inside_wilson(exact.beta, mc.beta, trials)
    # T / n lies in [0, 1], so its variance is at most mean * (1 - mean): the
    # Wilson interval of a proportion covers its mean conservatively.
    assert _inside_wilson(exact.e_t_h0 / n, mc.e_t_h0 / n, trials)


# ---------------------------------------------------------------------------
# exact evaluation: guards


def test_early_exact_only_for_small_binary():
    # N = 65: binary pairs are exact under early-decide at any horizon.
    config = ProtocolConfig(
        k=5, n=13, eta=0.1, policy_kind=PolicyKind.EARLY_DECIDE
    )
    _assert_matches_early_oracle(config, CORRELATED, UNIFORM)

    three = JointPmf.from_probs(np.full((3, 2), 1.0 / 6.0))
    small = ProtocolConfig(k=2, n=2, eta=0.1, policy_kind=PolicyKind.EARLY_DECIDE)
    with pytest.raises(TooLarge):
        exact_errors(small, three, three)


def test_joint_type_budget_guard():
    three = JointPmf.from_probs(np.full((3, 3), 1.0 / 9.0))
    config = ProtocolConfig(k=10, n=80, eta=0.1)
    with pytest.raises(TooLarge):
        exact_errors(config, three, three)


def test_budget_guard_raises_before_any_table(monkeypatch):
    def no_tables(*args, **kwargs):
        raise AssertionError("a y-count table was built")

    monkeypatch.setattr("seqht.harness._log_step", no_tables)
    three = JointPmf.from_probs(np.full((3, 3), 1.0 / 9.0))
    for eta in (0.1, 0.05):
        with pytest.raises(TooLarge, match="Monte Carlo"):
            exact_errors(ProtocolConfig(k=10, n=80, eta=eta), three, three)


def test_three_by_three_exact_at_sixty_samples_matches_monte_carlo():
    p = JointPmf.from_probs([[0.30, 0.05, 0.05], [0.05, 0.20, 0.05], [0.05, 0.05, 0.20]])
    q = JointPmf.from_probs(np.full((3, 3), 1.0 / 9.0))
    n = 30
    config = ProtocolConfig(k=2, n=n, eta=0.2)
    exact = exact_errors(config, p, q)
    trials = 20_000
    mc = monte_carlo_errors(config, p, q, trials=trials, seed=3)
    assert 0.0 < exact.alpha < 0.01 and 0.9 < exact.beta < 1.0
    assert _inside_wilson(exact.alpha, mc.alpha, trials)
    assert _inside_wilson(exact.beta, mc.beta, trials)
    assert _inside_wilson(exact.e_t_h0 / n, mc.e_t_h0 / n, trials)
    assert _inside_wilson(exact.e_t_h1 / n, mc.e_t_h1 / n, trials)


def test_shape_mismatch_rejected():
    three = JointPmf.from_probs(np.full((3, 2), 1.0 / 6.0))
    config = ProtocolConfig(k=2, n=2, eta=0.2)
    with pytest.raises(LengthMismatch):
        exact_errors(config, UNIFORM, three)


# ---------------------------------------------------------------------------
# Monte Carlo


def test_monte_carlo_validation():
    config = ProtocolConfig(k=2, n=5, eta=0.2)
    with pytest.raises(InvalidConfig):
        monte_carlo_errors(config, UNIFORM, UNIFORM, trials=0, seed=1)
    with pytest.raises(InvalidConfig):
        monte_carlo_errors(config, UNIFORM, UNIFORM, trials=10, seed=1, threads=0)


def test_monte_carlo_tracks_exact_within_interval():
    config = ProtocolConfig(k=2, n=30, eta=0.12)
    exact = exact_errors(config, CORRELATED, UNIFORM)
    mc = monte_carlo_errors(config, CORRELATED, UNIFORM, trials=20_000, seed=404)
    assert mc.method == "mc"
    assert mc.trials == 20_000
    assert abs(mc.beta - exact.beta) <= 3.0 * mc.ci_halfwidth
    assert abs(mc.alpha - exact.alpha) <= 3.0 * mc.ci_halfwidth_alpha
    assert mc.e_t_h0 == 30.0 and mc.e_t_h1 == 30.0


def test_monte_carlo_thread_count_is_cosmetic():
    config = ProtocolConfig(
        k=1, n=40, eta=0.15, policy_kind=PolicyKind.EARLY_DECIDE
    )
    lone = monte_carlo_errors(config, CORRELATED, UNIFORM, trials=50_000, seed=9, threads=1)
    pooled = monte_carlo_errors(config, CORRELATED, UNIFORM, trials=50_000, seed=9, threads=4)
    assert lone == pooled


def test_monte_carlo_identical_hypotheses():
    config = ProtocolConfig(k=2, n=10, eta=0.25)
    mc = monte_carlo_errors(config, UNIFORM, UNIFORM, trials=30_000, seed=77)
    slack = 3.0 * (mc.ci_halfwidth + mc.ci_halfwidth_alpha)
    assert abs(mc.alpha + mc.beta - 1.0) <= slack


def test_wilson_halfwidth_matches_direct_formula():
    z = 1.959963984540054
    for p_hat, trials in ((0.5, 100), (0.0, 1000), (0.037, 12345)):
        direct = (
            z
            * math.sqrt(p_hat * (1 - p_hat) / trials + z * z / (4 * trials * trials))
            / (1 + z * z / trials)
        )
        assert math.isclose(wilson_halfwidth(p_hat, trials), direct, rel_tol=1e-12)
    assert wilson_halfwidth(0.0, 100) > 0.0
    assert wilson_halfwidth(0.5, 40_000) < wilson_halfwidth(0.5, 10_000)
    with pytest.raises(InvalidConfig):
        wilson_halfwidth(0.5, 0)


# ---------------------------------------------------------------------------
# exponent fit


def test_fit_requires_enough_points():
    config = ProtocolConfig(k=2, n=10, eta=0.1)
    with pytest.raises(InvalidConfig):
        fit_exponent(config, CORRELATED, UNIFORM, budget_grid=[20, 40, 60])


def test_fit_requires_divisible_budgets():
    config = ProtocolConfig(k=4, n=10, eta=0.1)
    with pytest.raises(InvalidConfig):
        fit_exponent(config, CORRELATED, UNIFORM, budget_grid=[40, 80, 120, 121])


def test_fit_requires_distinct_budgets():
    config = ProtocolConfig(k=2, n=10, eta=0.1)
    with pytest.raises(InvalidConfig, match="distinct"):
        fit_exponent(config, CORRELATED, UNIFORM, budget_grid=[200, 200, 200, 200])


def test_fit_rejects_budget_with_zero_beta():
    # At N = 22 no x-count lies within 0.001 of 0.8, so beta is exactly 0.
    p = JointPmf.from_probs([[0.7, 0.1], [0.1, 0.1]])
    config = ProtocolConfig(k=2, n=10, eta=0.001)
    with pytest.raises(InvalidConfig, match="budget 22"):
        fit_exponent(config, p, UNIFORM, budget_grid=[20, 22, 40, 60])


def test_fit_is_flat_for_identical_hypotheses():
    config = ProtocolConfig(k=2, n=10, eta=0.3)
    fit = fit_exponent(config, UNIFORM, UNIFORM, budget_grid=[40, 80, 120, 160])
    assert abs(fit.slope) <= 1e-3
    assert len(fit.points) == 4


def test_fit_slope_tracks_relaxed_oracle():
    config = ProtocolConfig(k=2, n=50, eta=0.05)
    q = UNIFORM
    fit = fit_exponent(config, PRODUCT_P, q, budget_grid=[100, 200, 300, 400])
    target = relaxed_exponent_oracle(PRODUCT_P, q, eta=0.05)
    assert 0.85 * target <= fit.slope <= 1.1 * target
    assert fit.r_squared > 0.999
    solver = solve_exponent(PRODUCT_P, q)
    assert fit.slope <= solver.exponent + 0.02


@pytest.mark.parametrize(
    "p,q,config,grid",
    [
        (PRODUCT_P, UNIFORM, ProtocolConfig(k=2, n=100, eta=default_eta(100, 2)), [100, 200, 300, 400]),
        (PRODUCT_P, UNIFORM, ProtocolConfig(k=2, n=20, eta=0.1, policy_kind="early_decide"), [20, 40, 60, 80]),
        (
            JointPmf.from_probs([[0.30, 0.05, 0.05], [0.05, 0.20, 0.05], [0.05, 0.05, 0.20]]),
            JointPmf.from_probs(np.full((3, 3), 1.0 / 9.0)),
            ProtocolConfig(k=2, n=10, eta=0.2),
            [12, 24, 36, 48],
        ),
    ],
    ids=["2x2-fixed", "2x2-early", "3x3-fixed"],
)
def test_fit_points_are_exact_log_beta_bit_for_bit(p, q, config, grid):
    # fit evaluates the alternative only; each point must still be the
    # -log_beta that exact_errors reports with both measures.
    fit = fit_exponent(config, p, q, grid)
    assert [total for total, _ in fit.points] == grid
    for total, value in fit.points:
        report = exact_errors(replace(config, n=total // config.k), p, q)
        assert value.hex() == (-report.log_beta).hex()


def test_fit_points_are_recorded_in_grid_order():
    config = ProtocolConfig(k=1, n=10, eta=0.2)
    fit = fit_exponent(config, CORRELATED, UNIFORM, budget_grid=[60, 20, 40, 80])
    assert [n for n, _ in fit.points] == [20, 40, 60, 80]
    for total, value in fit.points:
        report = exact_errors(
            ProtocolConfig(k=1, n=total, eta=0.2), CORRELATED, UNIFORM
        )
        assert math.isclose(value, -report.log_beta, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# stopped-divergence identity


def test_wald_identity_deterministic_horizon():
    p = Pmf.from_probs([0.9, 0.1])
    q = Pmf.from_probs([0.5, 0.5])
    report = verify_wald_identity(p, q, lambda prefix: False, horizon_cap=3)
    assert math.isclose(report.expected_stopping_time, 3.0, rel_tol=1e-12)
    assert report.gap <= 1e-12
    assert math.isclose(report.rhs, 3 * kl_divergence(p, q), rel_tol=1e-12)
    assert report.holds()


def test_wald_identity_stop_at_first_one():
    p = Pmf.from_probs([0.5, 0.5])
    q = Pmf.from_probs([0.9, 0.1])
    report = verify_wald_identity(
        p, q, lambda prefix: prefix[-1] == 1, horizon_cap=16
    )
    assert report.holds(1e-9)
    assert 1.0 < report.expected_stopping_time < 2.001


def test_wald_identity_identical_distributions():
    p = Pmf.from_probs([0.3, 0.7])
    report = verify_wald_identity(p, p, lambda prefix: len(prefix) >= 2, 5)
    assert report.lhs == 0.0
    assert report.rhs == 0.0
    assert report.per_sample_divergence == 0.0


def test_wald_identity_joint_observations():
    report = verify_wald_identity(
        CORRELATED, UNIFORM, lambda prefix: prefix.count(0) >= 2, horizon_cap=8
    )
    assert report.holds(1e-9)
    assert math.isclose(
        report.per_sample_divergence, kl_divergence(CORRELATED, UNIFORM), rel_tol=1e-12
    )


def test_wald_identity_randomized_rules():
    rng = np.random.default_rng(314)
    p = Pmf.from_probs([0.6, 0.4])
    q = Pmf.from_probs([0.25, 0.75])
    for case in range(10):
        cut = int(rng.integers(1, 4))
        report = verify_wald_identity(
            p, q, lambda prefix, c=cut: prefix.count(0) >= c, horizon_cap=12
        )
        assert report.holds(1e-9), f"case {case} gap {report.gap}"


def test_wald_identity_validation():
    p = Pmf.from_probs([0.9, 0.1])
    degenerate = Pmf.from_probs([1.0, 0.0])
    with pytest.raises(NotStrictlyPositive):
        verify_wald_identity(p, degenerate, lambda prefix: True, 4)
    with pytest.raises(HorizonTooLarge):
        verify_wald_identity(p, p, lambda prefix: True, 25)
    with pytest.raises(HorizonTooLarge):
        verify_wald_identity(p, p, lambda prefix: True, 0)
    with pytest.raises(LengthMismatch):
        verify_wald_identity(p, Pmf.from_probs([0.5, 0.25, 0.25]), lambda prefix: True, 3)


# ---------------------------------------------------------------------------
# stopped acceptance-set bound


def test_acceptance_bound_full_space_sets():
    p = Pmf.from_probs([0.7, 0.3])
    q = Pmf.from_probs([0.4, 0.6])
    sets = {
        t: [tuple(s) for s in itertools.product(range(2), repeat=t)] for t in (1, 2, 3)
    }
    report = verify_acceptance_bound(p, q, {1: 0.25, 2: 0.5, 3: 0.25}, sets, horizon_cap=3)
    assert report.lhs == 0.0
    assert report.holds
    assert report.expected_stopping_time == 2.0


def test_acceptance_bound_worked_example():
    p = Pmf.from_probs([0.9, 0.1])
    q = Pmf.from_probs([0.5, 0.5])
    report = verify_acceptance_bound(p, q, {2: 1.0}, {2: [(0, 0)]}, horizon_cap=2)
    assert math.isclose(report.lhs, 0.81 * math.log(4.0), rel_tol=1e-12)
    assert math.isclose(report.bound_loose, 1.7361284143369942, rel_tol=1e-12)
    assert report.holds and report.holds_loose
    assert report.bound_nats < report.bound_loose


def test_acceptance_bound_rule_based_stopping():
    p = Pmf.from_probs([0.8, 0.2])
    q = Pmf.from_probs([0.5, 0.5])
    report = verify_acceptance_bound(
        p,
        q,
        lambda prefix: prefix[-1] == 1,
        {t: [tuple([0] * (t - 1) + [1])] for t in range(1, 7)},
        horizon_cap=6,
    )
    assert report.holds
    assert report.lhs > 0.0


def test_acceptance_bound_missing_sets_contribute_nothing():
    p = Pmf.from_probs([0.7, 0.3])
    q = Pmf.from_probs([0.5, 0.5])
    report = verify_acceptance_bound(p, q, {1: 0.5, 2: 0.5}, {}, horizon_cap=2)
    assert report.lhs == 0.0


def test_acceptance_bound_randomized_cases():
    rng = np.random.default_rng(2718)
    for case in range(20):
        probs = rng.dirichlet((2.0, 2.0)) * 0.9 + 0.05
        alt = rng.dirichlet((2.0, 2.0)) * 0.9 + 0.05
        p = Pmf.from_probs(probs / probs.sum())
        q = Pmf.from_probs(alt / alt.sum())
        cap = int(rng.integers(2, 5))
        sets = {}
        for t in range(1, cap + 1):
            pool = [tuple(s) for s in itertools.product(range(2), repeat=t)]
            keep = [s for s in pool if rng.random() < 0.5]
            if keep:
                sets[t] = keep
        if case % 2 == 0:
            weights = rng.dirichlet(np.ones(cap))
            stopping = {t + 1: float(w) for t, w in enumerate(weights)}
        else:
            cut = int(rng.integers(1, cap + 1))
            stopping = lambda prefix, c=cut: prefix.count(1) >= c
        report = verify_acceptance_bound(p, q, stopping, sets, horizon_cap=cap)
        assert report.holds, f"case {case}: lhs {report.lhs} > {report.bound_nats}"


def test_acceptance_bound_validation():
    p = Pmf.from_probs([0.7, 0.3])
    q = Pmf.from_probs([0.5, 0.5])
    with pytest.raises(InvalidConfig):
        verify_acceptance_bound(p, q, {1: 0.4, 2: 0.4}, {}, horizon_cap=2)
    with pytest.raises(HorizonTooLarge):
        verify_acceptance_bound(p, q, {5: 1.0}, {}, horizon_cap=2)
    with pytest.raises(LengthMismatch):
        verify_acceptance_bound(p, q, {2: 1.0}, {2: [(0, 0, 0)]}, horizon_cap=2)
    with pytest.raises(NotStrictlyPositive):
        verify_acceptance_bound(p, Pmf.from_probs([1.0, 0.0]), {1: 1.0}, {}, horizon_cap=1)


# ---------------------------------------------------------------------------
# CSV plumbing


def test_error_csv_row_exact_leaves_mc_columns_empty():
    config = ProtocolConfig(k=2, n=1, eta=0.25)
    report = exact_errors(config, UNIFORM, UNIFORM)
    row = error_report_csv_row(report)
    fields = row.split(",")
    assert len(fields) == len(ERROR_CSV_HEADER.split(","))
    assert fields[0] == "2" and fields[1] == "1" and fields[2] == "2"
    assert fields[4] == "0.75" and fields[5] == "0.25"
    assert fields[9] == "exact"
    assert fields[10] == "" and fields[11] == ""


def test_error_csv_row_mc_fills_all_columns():
    config = ProtocolConfig(k=2, n=5, eta=0.2)
    report = monte_carlo_errors(config, UNIFORM, UNIFORM, trials=256, seed=5)
    fields = error_report_csv_row(report).split(",")
    assert fields[9] == "mc"
    assert fields[10] == "256"
    assert float(fields[11]) == report.ci_halfwidth


def test_fit_csv_rows_follow_the_line():
    config = ProtocolConfig(k=1, n=10, eta=0.2)
    fit = fit_exponent(config, CORRELATED, UNIFORM, budget_grid=[20, 40, 60, 80])
    rows = exponent_fit_csv_rows(fit)
    assert len(rows) == 4
    for row, (total, value) in zip(rows, fit.points):
        cells = row.split(",")
        assert cells[0] == str(total)
        assert float(cells[1]) == value
        assert math.isclose(
            float(cells[2]), fit.slope * total + fit.intercept, rel_tol=1e-12
        )
    summary = exponent_fit_summary(fit)
    assert format_float(fit.slope) in summary


def test_format_float_round_trips():
    for value in (0.1, 1.0 / 3.0, 1e-300, 0.25, 123456.789, 6.5e-290):
        assert float(format_float(value)) == value
    assert format_float(0.25) == "0.25"

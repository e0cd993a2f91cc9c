"""Exact and Monte Carlo evaluation of protocol error probabilities.

The decision rules are type-measurable, so the error probabilities of the
fixed-horizon protocol are finite sums over empirical types. This module
computes them three ways, cross-checkable against each other:

* an exact binary fast path over marginal counts (the decision depends on the
  joint type only through its marginals): for each typical x-count the
  y-window mass is a short sum of binomial tails, O(window_x * N) work,
* an exact general-alphabet enumeration over joint types,
* a vectorized Monte Carlo estimator with reproducible per-trial seeds.

All three classify types with the protocol's one decision rule, so they
agree on every boundary type.

Everything that could underflow lives in log domain: at a horizon of a few
thousand samples the type-II error is around exp(-1400), far below the
smallest positive double, so reports carry log-probabilities alongside the
(possibly underflowed) linear values.

Also here: empirical exponent extraction by least squares over a grid of
sample budgets, and exact small-horizon verifiers for the two identities the
exponent analysis rests on (an optional-stopping divergence identity and a
stopped-set log-probability bound).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy.special import gammaln, logsumexp, xlog1py, xlogy

from .errors import (
    HorizonTooLarge,
    InvalidConfig,
    LengthMismatch,
    NotStrictlyPositive,
    TooLarge,
)
from .prob import JointPmf, Pmf, count_type_vectors, kl_divergence, marginals
from .protocol import (
    ACCEPT,
    REJECT,
    PolicyKind,
    ProtocolConfig,
    _DecisionRule,
    simulate_batch,
)
from .rng import derive_seed

DEFAULT_CELL_BUDGET = 6_000_000

# Trials per work unit for Monte Carlo; fixed so that results cannot depend
# on the worker count (each unit is deterministic, reduction order is fixed).
_MC_CHUNK = 16_384

_WILSON_Z = 1.959963984540054  # two-sided 95%


@dataclass(frozen=True)
class ErrorReport:
    """Type-I/type-II errors and expected stopping times for one instance.

    ``alpha`` is the probability of rejecting the null under the null;
    ``beta`` the probability of accepting it under the alternative.
    ``log_alpha``/``log_beta`` are exact natural logs (finite even when the
    linear value underflows to zero). Monte Carlo reports carry the trial
    count and 95% Wilson half-widths; exact reports leave them as None.
    """

    n: int
    k: int
    eta: float
    alpha: float
    beta: float
    log_alpha: float
    log_beta: float
    e_t_h0: float
    e_t_h1: float
    method: str
    trials: int | None = None
    ci_halfwidth: float | None = None
    ci_halfwidth_alpha: float | None = None

    @property
    def total_samples(self) -> int:
        return self.n * self.k

    @property
    def neg_ln_beta_per_sample(self) -> float:
        return -self.log_beta / self.total_samples


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares slope of -ln(beta) against the sample budget N."""

    points: tuple[tuple[int, float], ...]
    slope: float
    intercept: float
    r_squared: float


@dataclass(frozen=True)
class WaldReport:
    """Both sides of the stopped-divergence identity and their gap."""

    lhs: float
    rhs: float
    expected_stopping_time: float
    per_sample_divergence: float

    @property
    def gap(self) -> float:
        return abs(self.lhs - self.rhs)

    def holds(self, tolerance: float = 1e-9) -> bool:
        return self.gap <= tolerance


@dataclass(frozen=True)
class AcceptanceBoundReport:
    """Stopped acceptance-set log-probability against its divergence bound.

    ``bound_nats`` is E[T] * D + ln 2 (the binary-entropy constant in nats;
    dividing the whole inequality by ln 2 gives the bits-scaled form with
    constant +1, so ``holds`` covers both readings). ``bound_loose`` is the
    weaker E[T] * D + 1 in nats, also reported.
    """

    lhs: float
    expected_stopping_time: float
    per_sample_divergence: float
    bound_nats: float
    bound_loose: float

    @property
    def holds(self) -> bool:
        return self.lhs <= self.bound_nats + 1e-12

    @property
    def holds_loose(self) -> bool:
        return self.lhs <= self.bound_loose + 1e-12


def wilson_halfwidth(p_hat: float, trials: int, z: float = _WILSON_Z) -> float:
    """Half-width of the 95% Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise InvalidConfig(f"trials must be >= 1, got {trials}")
    z2 = z * z
    half = z * math.sqrt(p_hat * (1.0 - p_hat) / trials + z2 / (4.0 * trials * trials))
    return half / (1.0 + z2 / trials)


def _check_instance(config: ProtocolConfig, p: JointPmf, q: JointPmf):
    if p.probs.shape != q.probs.shape:
        raise LengthMismatch(
            f"null shape {p.probs.shape} does not match alternative shape {q.probs.shape}"
        )


def _binom_logpmf(k: np.ndarray, n: int, p: float) -> np.ndarray:
    """log P(Bin(n, p) = k) for integer k in 0..n.

    Term for term the formula of ``scipy.stats.binom.logpmf``. Do not swap in
    a more accurate log-pmf: the lgamma rounding of this formula is
    systematic (about 1e-10 relative at N = 2000 against a 50-digit
    evaluation), and alpha = -expm1(log accept) inherits it, so a different
    formula moves alpha by more than the 1e-12 that the committed reference
    values are checked to. For the same reason alpha stays the complement of
    the accept mass rather than a sum over the reject region.
    """
    k = np.asarray(k, dtype=np.float64)
    combiln = gammaln(n + 1) - (gammaln(k + 1) + gammaln(n - k + 1))
    return combiln + xlogy(k, p) + xlog1py(n - k, -p)


def _log_sub(big: np.ndarray, small: np.ndarray) -> np.ndarray:
    """log(exp(big) - exp(small)) for small <= big; -inf where big is -inf."""
    return big + np.log1p(-np.exp(np.where(big > -np.inf, small - big, -np.inf)))


def _log_window_masses(log_pmf: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """log P(lo <= B <= hi) for each window, given B's log-pmf on 0..m.

    Windows must lie inside 0..m; an empty window (lo > hi) has mass 0.
    Each mass comes from the tail it is smallest in: a window below the mode
    is a difference of left tails, one above it a difference of right tails,
    and one holding the mode is the total less both tails. A difference of
    the far tail would cancel and lose all digits deep in the tail.
    """
    m = log_pmf.size - 1
    mode = int(np.argmax(log_pmf))
    peak = log_pmf[mode]
    # Relative to the peak, so the terms that dominate carry logs near 0 and
    # the log-domain running sums round them least.
    shifted = log_pmf - peak
    empty = lo > hi
    lo = np.minimum(lo, m + 1)
    hi = np.maximum(hi, -1)
    with np.errstate(divide="ignore", invalid="ignore"):
        # below[j] = log P(B < j), above[j] = log P(B >= j), for j in 0..m+1.
        below = np.concatenate(([-np.inf], np.logaddexp.accumulate(shifted)))
        above = np.concatenate((np.logaddexp.accumulate(shifted[::-1])[::-1], [-np.inf]))
        left = _log_sub(below[hi + 1], below[lo])
        right = _log_sub(above[lo], above[hi + 1])
        # The rounded terms need not sum to exactly 1, so take the window
        # from their own total rather than from 1.
        whole = logsumexp(shifted)
        middle = whole + np.log1p(-np.exp(below[lo] - whole) - np.exp(above[hi + 1] - whole))
    out = np.where(hi < mode, left, np.where(lo > mode, right, middle)) + peak
    return np.where(empty, -np.inf, out)


def _binary_log_accept(
    joint: np.ndarray,
    x_mask: np.ndarray,
    y_mask: np.ndarray,
    total: int,
) -> float:
    """Log-probability that both marginal counts land in their typical windows.

    The count a of x = 0 is binomial; given a, the count of y = 0 is
    B0 + B1 with B0 ~ Bin(a, s0) and B1 ~ Bin(total - a, s1). For each
    typical a this sums P(B0 = b0) * P(lo - b0 <= B1 <= hi - b0) over b0,
    with the window masses read off two-sided log tails of B1 built once per
    a. Work is O(window_x * total).

    The y-window is an interval [lo, hi]: each symbol's test holds on an
    interval of counts (its rounded frequency is monotone in the count).
    """
    a_vals = np.nonzero(x_mask)[0]
    b_vals = np.nonzero(y_mask)[0]
    if a_vals.size == 0 or b_vals.size == 0:
        return -np.inf
    lo, hi = int(b_vals[0]), int(b_vals[-1])
    rx0 = joint[0, 0] + joint[0, 1]
    rx1 = joint[1, 0] + joint[1, 1]
    s0 = joint[0, 0] / rx0 if rx0 > 0 else 0.0
    s1 = joint[1, 0] / rx1 if rx1 > 0 else 0.0
    log_pa = _binom_logpmf(a_vals, total, rx0)

    per_a = np.empty(a_vals.size)
    for i, a in enumerate(a_vals):
        b0 = np.arange(a + 1)
        rest = total - a
        windows = _log_window_masses(
            _binom_logpmf(np.arange(rest + 1), rest, s1),
            np.maximum(lo - b0, 0),
            np.minimum(hi - b0, rest),
        )
        per_a[i] = logsumexp(_binom_logpmf(b0, a, s0) + windows)
    return float(logsumexp(per_a + log_pa))


def _report_from_log_accepts(
    config: ProtocolConfig,
    log_accept_p: float,
    log_accept_q: float,
    reject_empty: bool = False,
) -> ErrorReport:
    """Fixed-horizon report: stops at round n under both hypotheses."""
    if reject_empty:
        # Nothing is ever rejected (e.g. eta >= 1), so both hypotheses
        # accept with probability exactly 1; bypass the log-domain sums,
        # whose rounding would smear these endpoint values.
        log_accept_p, log_accept_q = 0.0, 0.0
    # alpha = 1 - exp(log_accept_p), computed without cancellation.
    alpha = float(-np.expm1(log_accept_p)) if log_accept_p > -np.inf else 1.0
    alpha = min(max(alpha, 0.0), 1.0)
    log_alpha = math.log(alpha) if alpha > 0 else -math.inf
    beta = math.exp(log_accept_q) if log_accept_q > -math.inf else 0.0
    return ErrorReport(
        n=config.n,
        k=config.k,
        eta=config.eta,
        alpha=alpha,
        beta=min(beta, 1.0),
        log_alpha=log_alpha,
        log_beta=log_accept_q,
        e_t_h0=float(config.n),
        e_t_h1=float(config.n),
        method="exact",
    )


def _exact_fixed_binary(config: ProtocolConfig, p: JointPmf, q: JointPmf) -> ErrorReport:
    total = config.total_samples
    rule = _DecisionRule(config, *marginals(p))
    x_mask = rule.binary_window(total, rule.p_x.probs)
    y_mask = rule.binary_window(total, rule.p_y.probs)
    log_accept_p = _binary_log_accept(p.probs, x_mask, y_mask, total)
    log_accept_q = _binary_log_accept(q.probs, x_mask, y_mask, total)
    return _report_from_log_accepts(
        config, log_accept_p, log_accept_q, reject_empty=bool(x_mask.all() and y_mask.all())
    )


def _exact_fixed_general(
    config: ProtocolConfig, p: JointPmf, q: JointPmf, cell_budget: int
) -> ErrorReport:
    """Joint-type enumeration: O(N^(cells-1)) types, each O(cells) to score."""
    total = config.total_samples
    nx, ny = p.probs.shape
    cells = nx * ny
    n_types = count_type_vectors(total, cells)
    if n_types > cell_budget:
        raise TooLarge(
            f"{n_types} joint types at N={total} exceeds the cell budget "
            f"{cell_budget}; use the Monte Carlo method"
        )
    rule = _DecisionRule(config, *marginals(p))
    # ok[s][count] tables of the rule's per-symbol test, so the loop below
    # scores a type by lookups alone.
    counts_0_to_total = np.arange(total + 1)[:, None]
    ok_x = rule.symbol_ok(counts_0_to_total, total, rule.p_x.probs).T.tolist()
    ok_y = rule.symbol_ok(counts_0_to_total, total, rule.p_y.probs).T.tolist()

    # Plain-Python inner loop: profiling shows per-type numpy dispatch costs
    # more than the arithmetic itself at these sizes.
    lg = [float(v) for v in gammaln(np.arange(total + 2))]
    log_p = [math.log(v) if v > 0 else -math.inf for v in p.probs.ravel()]
    log_q = [math.log(v) if v > 0 else -math.inf for v in q.probs.ravel()]
    lg_total = lg[total + 1]

    accept_logs_p: list[float] = []
    accept_logs_q: list[float] = []
    rejected_any = False

    def _recurse(prefix: list[int], remaining: int, idx: int):
        if idx == cells - 1:
            prefix.append(remaining)
            _score(prefix)
            prefix.pop()
            return
        for v in range(remaining + 1):
            prefix.append(v)
            _recurse(prefix, remaining - v, idx + 1)
            prefix.pop()

    def _score(counts: list[int]):
        nonlocal rejected_any
        for xi in range(nx):
            if not ok_x[xi][sum(counts[xi * ny : (xi + 1) * ny])]:
                rejected_any = True
                return
        for yi in range(ny):
            if not ok_y[yi][sum(counts[yi::ny])]:
                rejected_any = True
                return
        wp = wq = lg_total
        for c, lp, lq in zip(counts, log_p, log_q):
            if c == 0:
                continue
            base_c = lg[c + 1]
            wp += c * lp - base_c
            wq += c * lq - base_c
        accept_logs_p.append(wp)
        accept_logs_q.append(wq)

    _recurse([], total, 0)
    log_accept_p = float(logsumexp(accept_logs_p)) if accept_logs_p else -np.inf
    log_accept_q = float(logsumexp(accept_logs_q)) if accept_logs_q else -np.inf
    return _report_from_log_accepts(
        config, log_accept_p, log_accept_q, reject_empty=not rejected_any
    )


def _early_binary_outcome(
    rule: _DecisionRule, joint: np.ndarray
) -> tuple[float, float, float]:
    """(accept mass, reject mass, E[T]) for early-decide under one measure.

    Dynamic program over the per-round count of y = 0 among surviving (not
    yet rejected) trajectories. The per-round increment is binomial in the
    measure's y-marginal; the final x-typicality probability given the total
    y-count is a two-binomial convolution. Linear domain is safe at the
    <= 64 sample sizes this supports.
    """
    n, k = rule.config.n, rule.config.k
    total = n * k
    ry0 = joint[0, 0] + joint[1, 0]
    ry1 = joint[0, 1] + joint[1, 1]
    inc = np.exp(_binom_logpmf(np.arange(k + 1), k, ry0))

    surv = np.array([1.0])  # index = count of y=0 after t rounds
    reject_mass = 0.0
    e_t = 0.0
    for t in range(1, n):
        surv = np.convolve(surv, inc)
        killed = ~rule.binary_window(t * k, rule.p_y.probs, rule.reject_margins[t - 1])
        killed_mass = float(surv[killed].sum())
        reject_mass += killed_mass
        e_t += t * killed_mass
        surv = np.where(killed, 0.0, surv)
    surv = np.convolve(surv, inc)
    e_t += n * float(surv.sum())

    y_ok = rule.binary_window(total, rule.p_y.probs)
    x_mask = rule.binary_window(total, rule.p_x.probs)
    x_all = bool(x_mask.all())
    # P(x = 0 | y): one rate per observed y-value.
    u0 = joint[0, 0] / ry0 if ry0 > 0 else 0.0
    u1 = joint[0, 1] / ry1 if ry1 > 0 else 0.0
    accept_mass = 0.0
    for b in np.nonzero(surv > 0)[0]:
        if not y_ok[b]:
            reject_mass += float(surv[b])
            continue
        if x_all:
            accept_mass += float(surv[b])
            continue
        x_dist = np.convolve(
            np.exp(_binom_logpmf(np.arange(b + 1), b, u0)),
            np.exp(_binom_logpmf(np.arange(total - b + 1), total - b, u1)),
        )
        p_x_ok = float(x_dist[x_mask].sum())
        accept_mass += float(surv[b]) * p_x_ok
        reject_mass += float(surv[b]) * (1.0 - p_x_ok)
    return accept_mass, reject_mass, e_t


def _exact_early_binary(config: ProtocolConfig, p: JointPmf, q: JointPmf) -> ErrorReport:
    rule = _DecisionRule(config, *marginals(p))
    accept_p, reject_p, e_t_h0 = _early_binary_outcome(rule, p.probs)
    accept_q, reject_q, e_t_h1 = _early_binary_outcome(rule, q.probs)
    alpha = min(max(reject_p, 0.0), 1.0)
    # A reject region of measure zero means certain acceptance; pin the
    # endpoint instead of reporting 1 minus accumulated rounding.
    beta = 1.0 if reject_q == 0.0 else min(max(accept_q, 0.0), 1.0)
    return ErrorReport(
        n=config.n,
        k=config.k,
        eta=config.eta,
        alpha=alpha,
        beta=beta,
        log_alpha=math.log(alpha) if alpha > 0 else -math.inf,
        log_beta=math.log(beta) if beta > 0 else -math.inf,
        e_t_h0=e_t_h0,
        e_t_h1=e_t_h1,
        method="exact",
    )


def exact_errors(
    config: ProtocolConfig,
    p: JointPmf,
    q: JointPmf,
    cell_budget: int = DEFAULT_CELL_BUDGET,
) -> ErrorReport:
    """Exact error probabilities by summing type weights over the regions.

    Fixed-horizon instances on binary pairs use the marginal-count fast path,
    O(window_x * N) work for N samples; other alphabets enumerate joint types,
    O(N^(cells-1)), under the cell budget. Early-decide instances are exactly
    evaluable for binary pairs up to 64 samples; beyond that, use Monte Carlo.
    """
    _check_instance(config, p, q)
    if config.policy_kind is PolicyKind.FIXED_HORIZON:
        if p.probs.shape == (2, 2):
            return _exact_fixed_binary(config, p, q)
        return _exact_fixed_general(config, p, q, cell_budget)
    if p.probs.shape == (2, 2) and config.total_samples <= 64:
        return _exact_early_binary(config, p, q)
    raise TooLarge(
        "early-decide exact evaluation supports binary alphabets up to 64 "
        "samples; use the Monte Carlo method"
    )


def monte_carlo_errors(
    config: ProtocolConfig,
    p: JointPmf,
    q: JointPmf,
    trials: int,
    seed: int,
    threads: int = 1,
) -> ErrorReport:
    """Estimate errors from independent protocol runs under each hypothesis.

    Per-trial seeds are derived from per-hypothesis master seeds, so results
    are a pure function of (config, seed, trials): extending the trial count
    re-uses earlier trials unchanged, and the worker count only partitions
    work (fixed chunk size, ordered integer reduction), never the outcome.
    """
    _check_instance(config, p, q)
    if trials < 1:
        raise InvalidConfig(f"trials must be >= 1, got {trials}")
    if threads < 1:
        raise InvalidConfig(f"threads must be >= 1, got {threads}")

    def _run(hyp_index: int, joint: JointPmf) -> tuple[np.ndarray, np.ndarray]:
        master = int(derive_seed(seed, hyp_index))
        seeds = derive_seed(master, np.arange(trials, dtype=np.uint64))
        spans = [(lo, min(lo + _MC_CHUNK, trials)) for lo in range(0, trials, _MC_CHUNK)]
        def work(span):
            lo, hi = span
            return simulate_batch(config, p, joint, seeds[lo:hi])
        if threads == 1 or len(spans) == 1:
            parts = [work(s) for s in spans]
        else:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                parts = list(pool.map(work, spans))
        return (
            np.concatenate([d for d, _ in parts]),
            np.concatenate([s for _, s in parts]),
        )

    dec0, stop0 = _run(0, p)
    dec1, stop1 = _run(1, q)
    alpha = int((dec0 == REJECT).sum()) / trials
    beta = int((dec1 == ACCEPT).sum()) / trials
    return ErrorReport(
        n=config.n,
        k=config.k,
        eta=config.eta,
        alpha=alpha,
        beta=beta,
        log_alpha=math.log(alpha) if alpha > 0 else -math.inf,
        log_beta=math.log(beta) if beta > 0 else -math.inf,
        e_t_h0=int(stop0.sum()) / trials,
        e_t_h1=int(stop1.sum()) / trials,
        method="mc",
        trials=trials,
        ci_halfwidth=wilson_halfwidth(beta, trials),
        ci_halfwidth_alpha=wilson_halfwidth(alpha, trials),
    )


def fit_exponent(
    config: ProtocolConfig,
    p: JointPmf,
    q: JointPmf,
    budget_grid: Sequence[int],
    cell_budget: int = DEFAULT_CELL_BUDGET,
) -> ExponentFit:
    """Least-squares slope of -ln(beta) versus total sample budget N.

    ``config`` is the template whose horizon is re-derived as N / k for each
    grid entry; the slope in nats per sample is the empirical exponent. A
    grid (rather than one large N) cancels the polynomial prefactor from the
    type counts, which only perturbs -ln(beta) by O(log N). A budget with
    beta exactly 0 has no finite -ln(beta) and raises ``InvalidConfig``.
    """
    budgets = sorted(int(v) for v in budget_grid)
    if len(budgets) < 4:
        raise InvalidConfig(f"need at least 4 grid points, got {len(budgets)}")
    if budgets[0] == budgets[-1]:
        raise InvalidConfig(
            f"need at least 2 distinct budgets to fit a slope, got {budgets}"
        )
    points = []
    for total in budgets:
        if total < config.k or total % config.k != 0:
            raise InvalidConfig(
                f"budget {total} is not a positive multiple of k={config.k}"
            )
        cfg = replace(config, n=total // config.k)
        report = exact_errors(cfg, p, q, cell_budget=cell_budget)
        if report.log_beta == -math.inf:
            raise InvalidConfig(
                f"beta is exactly 0 at budget {total}: its acceptance region has "
                "zero mass under the alternative, so -ln(beta) is infinite"
            )
        points.append((total, -report.log_beta))

    x = np.array([float(n) for n, _ in points])
    y = np.array([v for _, v in points])
    xm, ym = x.mean(), y.mean()
    sxx = float(((x - xm) ** 2).sum())
    slope = float(((x - xm) * (y - ym)).sum()) / sxx
    intercept = float(ym - slope * xm)
    ss_res = float(((y - slope * x - intercept) ** 2).sum())
    ss_tot = float(((y - ym) ** 2).sum())
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return ExponentFit(
        points=tuple(points), slope=slope, intercept=intercept, r_squared=r_squared
    )


StoppingRule = Callable[[tuple[int, ...]], bool]


def _composite_pair(
    p: Pmf | JointPmf, q: Pmf | JointPmf, horizon: int, node_budget: int = 2_000_000
):
    """(p, q) flattened over the composite alphabet, checked for exact enumeration."""
    pv, qv = p.probs.ravel(), q.probs.ravel()
    if pv.shape != qv.shape:
        raise LengthMismatch("distributions have different alphabet sizes")
    if qv.min() <= 0.0:
        raise NotStrictlyPositive("the alternative must be strictly positive")
    if horizon < 1:
        raise HorizonTooLarge(f"horizon must be >= 1, got {horizon}")
    if pv.size**horizon > node_budget:
        raise HorizonTooLarge(
            f"{pv.size}^{horizon} sequences exceed the enumeration budget {node_budget}"
        )
    return pv, qv


def verify_wald_identity(
    p: Pmf | JointPmf,
    q: Pmf | JointPmf,
    stopping_rule: StoppingRule,
    horizon_cap: int,
) -> WaldReport:
    """Exactly check E[sum of per-step divergences up to T] = E[T] * D(p||q).

    Enumerates every path of the iid process (joint observations are treated
    as one composite symbol), stopping where the rule fires or at the cap.
    The left side is the expected log-likelihood ratio of the stopped path,
    a telescoping sum whose expectation the identity pins to E[T] * D.
    """
    pv, qv = _composite_pair(p, q, horizon_cap)

    log_ratio = np.where(pv > 0, np.log(np.maximum(pv, 1e-300) / qv), 0.0)
    # Python floats give the same IEEE products and sums as numpy scalars,
    # at a fraction of the cost per operation.
    steps = list(zip(pv.tolist(), log_ratio.tolist()))
    lhs = 0.0
    e_t = 0.0
    # (prefix, P-probability, accumulated log-likelihood ratio)
    active: list[tuple[tuple[int, ...], float, float]] = [((), 1.0, 0.0)]
    for t in range(1, horizon_cap + 1):
        nxt: list[tuple[tuple[int, ...], float, float]] = []
        for prefix, pp, llr in active:
            for z, (pz, ratio) in enumerate(steps):
                pp2 = pp * pz
                if pp2 == 0.0:
                    continue
                prefix2 = prefix + (z,)
                llr2 = llr + ratio
                if t == horizon_cap or stopping_rule(prefix2):
                    e_t += t * pp2
                    lhs += pp2 * llr2
                else:
                    nxt.append((prefix2, pp2, llr2))
        active = nxt
    per_sample = kl_divergence(Pmf.from_probs(pv), Pmf.from_probs(qv))
    return WaldReport(
        lhs=lhs,
        rhs=e_t * per_sample,
        expected_stopping_time=e_t,
        per_sample_divergence=per_sample,
    )


def verify_acceptance_bound(
    p: Pmf | JointPmf,
    q: Pmf | JointPmf,
    stopping: StoppingRule | Mapping[int, float],
    acceptance_sets: Mapping[int, Sequence[tuple[int, ...]]],
    horizon_cap: int,
) -> AcceptanceBoundReport:
    """Check -E[P^T(A_T) ln Q^T(A_T)] <= E[T] * D(p||q) + ln 2 exactly.

    ``stopping`` is either a path-measurable rule or an explicit law
    {t: P(T = t)} for a stopping time independent of the observations.
    ``acceptance_sets`` maps each stopping value t to a set of length-t
    sequences over the composite alphabet. The ln 2 constant is the binary
    entropy maximum in nats; the looser literal "+1 nat" form is reported
    alongside.
    """
    pv, qv = _composite_pair(p, q, horizon_cap)
    # Python floats: the same IEEE products as numpy scalars, at less cost.
    p_list, q_list = pv.tolist(), qv.tolist()

    if isinstance(stopping, Mapping):
        law = {int(t): float(w) for t, w in stopping.items() if w > 0}
        if any(t < 1 or t > horizon_cap for t in law):
            raise HorizonTooLarge("stopping law has mass beyond the horizon cap")
        total = sum(law.values())
        if abs(total - 1.0) > 1e-9:
            raise InvalidConfig(f"stopping law sums to {total!r}")
    else:
        law = {}
        active: list[tuple[tuple[int, ...], float]] = [((), 1.0)]
        for t in range(1, horizon_cap + 1):
            nxt: list[tuple[tuple[int, ...], float]] = []
            for prefix, pp in active:
                for z, pz in enumerate(p_list):
                    pp2 = pp * pz
                    prefix2 = prefix + (z,)
                    if t == horizon_cap or stopping(prefix2):
                        law[t] = law.get(t, 0.0) + pp2
                    else:
                        nxt.append((prefix2, pp2))
            active = nxt

    def _set_mass(seqs: Sequence[tuple[int, ...]], probs: list[float], t: int) -> float:
        mass = 0.0
        for s in set(seqs):
            if len(s) != t:
                raise LengthMismatch(f"acceptance-set sequence {s} is not of length {t}")
            w = 1.0
            for z in s:
                w *= probs[z]
            mass += w
        return mass

    lhs = 0.0
    e_t = 0.0
    for t, w_t in sorted(law.items()):
        e_t += t * w_t
        seqs = acceptance_sets.get(t, ())
        p_mass = _set_mass(seqs, p_list, t)
        if p_mass <= 0.0:
            continue
        q_mass = _set_mass(seqs, q_list, t)
        lhs += w_t * p_mass * (-math.log(q_mass))

    per_sample = kl_divergence(Pmf.from_probs(pv), Pmf.from_probs(qv))
    return AcceptanceBoundReport(
        lhs=lhs,
        expected_stopping_time=e_t,
        per_sample_divergence=per_sample,
        bound_nats=e_t * per_sample + math.log(2.0),
        bound_loose=e_t * per_sample + 1.0,
    )


ERROR_CSV_HEADER = "N,n,k,eta,alpha,beta,neg_ln_beta_per_N,e_t_h0,e_t_h1,method,trials,ci"
FIT_CSV_HEADER = "N,neg_ln_beta,fitted"


def format_float(x: float) -> str:
    """Canonical float rendering for CSV: 17 significant digits, '.' separator."""
    return f"{x:.17g}"


def error_report_csv_row(report: ErrorReport) -> str:
    trials = "" if report.trials is None else str(report.trials)
    ci = "" if report.ci_halfwidth is None else format_float(report.ci_halfwidth)
    fields = [
        str(report.total_samples),
        str(report.n),
        str(report.k),
        format_float(report.eta),
        format_float(report.alpha),
        format_float(report.beta),
        format_float(report.neg_ln_beta_per_sample),
        format_float(report.e_t_h0),
        format_float(report.e_t_h1),
        report.method,
        trials,
        ci,
    ]
    return ",".join(fields)


def exponent_fit_csv_rows(fit: ExponentFit) -> list[str]:
    rows = []
    for total, value in fit.points:
        fitted = fit.slope * total + fit.intercept
        rows.append(f"{total},{format_float(value)},{format_float(fitted)}")
    return rows


def exponent_fit_summary(fit: ExponentFit) -> str:
    return (
        f"slope={format_float(fit.slope)} nats/sample "
        f"intercept={format_float(fit.intercept)} "
        f"r_squared={format_float(fit.r_squared)}"
    )

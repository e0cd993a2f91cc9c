"""Exact and Monte Carlo evaluation of protocol error probabilities.

The decision rules are type-measurable, so the error probabilities are finite
sums over empirical types. This module computes them three ways,
cross-checkable against each other:

* exact, for binary pairs under both policies at any horizon, over marginal
  counts (every verdict depends on the joint type only through its
  marginals): the law of the y-count that reaches the horizon, then for each
  typical y-count the x-window mass as a short sum of binomial tails, with
  the binomial log-pmfs read off log-factorial tables. A fixed horizon is
  the early-decide computation with no interim checks,
* exact, for other alphabets with a fixed horizon, also over marginal
  counts: for each typical x-count vector, the mass of the y-count vectors
  that land in the typical box, from log-domain y-count tables,
* a vectorized Monte Carlo estimator with reproducible per-trial seeds.

All three classify types with the protocol's one decision rule, so they
agree on every boundary type.

Everything that could underflow lives in log domain: at a horizon of a few
thousand samples the type-II error is around exp(-1400), far below the
smallest positive double, so reports carry log-probabilities alongside the
(possibly underflowed) linear values.

Also here: empirical exponent extraction by least squares over a grid of
sample budgets, which evaluates the alternative only (the one measure that
-ln(beta) reads), and exact small-horizon verifiers for the two identities
the exponent analysis rests on (an optional-stopping divergence identity and
a stopped-set log-probability bound).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy.special import gammaln, xlog1py, xlogy

from .errors import (
    HorizonTooLarge,
    InvalidConfig,
    LengthMismatch,
    NotStrictlyPositive,
    TooLarge,
)
from .prob import JointPmf, Pmf, kl_divergence, marginals
from .protocol import (
    ACCEPT,
    REJECT,
    PolicyKind,
    ProtocolConfig,
    _DecisionRule,
    simulate_batch,
)
from .rng import derive_seed

DEFAULT_CELL_BUDGET = 20_000_000

# Trials per work unit for Monte Carlo; fixed so that results cannot depend
# on the worker count (each unit is deterministic, reduction order is fixed).
_MC_CHUNK = 16_384

_WILSON_Z = 1.959963984540054  # two-sided 95%

# Most sequences the exact verifiers enumerate.
_PATH_BUDGET = 2_000_000


@dataclass(frozen=True)
class ErrorReport:
    """Type-I/type-II errors and expected stopping times for one instance.

    ``alpha`` is the probability of rejecting the null under the null;
    ``beta`` the probability of accepting it under the alternative.
    ``log_alpha``/``log_beta`` are exact natural logs (finite even when the
    linear value underflows to zero). Monte Carlo reports carry the trial
    count and 95% Wilson half-widths; exact reports leave them as None.

    Exact ``alpha`` is the complement of the accept mass, -expm1(log accept),
    so it is good to about 1e-16 absolute, not relative: a tiny alpha (say
    1e-9) has only its first several digits right, though the CSV prints 17.
    Exact ``beta`` and ``log_beta`` keep their relative precision.
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


def wilson_halfwidth(p_hat: float, trials: int) -> float:
    """Half-width of the 95% Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise InvalidConfig(f"trials must be >= 1, got {trials}")
    z = _WILSON_Z
    z2 = z * z
    half = z * math.sqrt(p_hat * (1.0 - p_hat) / trials + z2 / (4.0 * trials * trials))
    return half / (1.0 + z2 / trials)


def _check_instance(p: JointPmf, q: JointPmf):
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
    ``_binom_rows`` is the same formula read from tables, for many n at one p.
    """
    k = np.asarray(k, dtype=np.float64)
    combiln = gammaln(n + 1) - (gammaln(k + 1) + gammaln(n - k + 1))
    return combiln + xlogy(k, p) + xlog1py(n - k, -p)


def _binom_rows(lg: np.ndarray, p: float) -> Callable[[int], np.ndarray]:
    """``n -> _binom_logpmf(arange(n + 1), n, p)`` for n = 0..lg.size - 2.

    ``lg`` is ``gammaln(arange(top + 2))``. The terms c * log(p) and
    c * log1p(-p) are tabulated once for c = 0..top, each from a single
    ``xlogy(1, p)`` / ``xlog1py(1, -p)``, with the c = 0 term 0 as xlogy and
    xlog1py give it. A row is then ``_binom_logpmf``'s sum over slices of the
    tables, term for term and in its order, so each value is the same double
    at a fraction of the cost.
    """
    c = np.arange(1, lg.size - 1, dtype=np.float64)
    hit = np.concatenate(([0.0], c * xlogy(1, p)))
    miss = np.concatenate(([0.0], c * xlog1py(1, -p)))

    def row(n: int) -> np.ndarray:
        return lg[n + 1] - (lg[1 : n + 2] + lg[n + 1 : 0 : -1]) + hit[: n + 1] + miss[n::-1]

    return row


def _logsumexp(a: np.ndarray) -> float:
    """``scipy.special.logsumexp`` of a 1-d array, operation for operation, at
    a tenth of its cost per call on short arrays. The committed reference
    values carry scipy's rounding (see ``_binom_logpmf``), so the arithmetic
    must stay scipy's: the maxima leave the sum and return through log1p."""
    a_max = a.max()
    if a_max == -np.inf:
        return -np.inf
    is_max = a == a_max
    m = float(np.count_nonzero(is_max))
    s = np.exp(np.where(is_max, -np.inf, a) - a_max).sum()
    return float(np.log1p(s / m) + np.log(m) + a_max)


def _log_sub(big: np.ndarray, small: np.ndarray) -> np.ndarray:
    """log(exp(big) - exp(small)) for small <= big; -inf where big is -inf."""
    return big + np.log1p(-np.exp(np.where(big > -np.inf, small - big, -np.inf)))


def _log_window_masses(log_pmf: np.ndarray, lo: int, hi: int, count: int) -> np.ndarray:
    """log P(lo - b <= B <= hi - b) for b = 0..count, given B's log-pmf on 0..m.

    Each window is clipped to 0..m, and an empty one has mass 0. Each mass
    comes from the tail it is smallest in: a window above the mode is a
    difference of right tails, one below it a difference of left tails, and
    one holding the mode is the total less both tails. A difference of the
    far tail would cancel and lose all digits deep in the tail. The windows
    slide down as b grows, so the three kinds are three runs of b, and each
    mass is computed in its own run only.
    """
    m = log_pmf.size - 1
    mode = int(np.argmax(log_pmf))
    peak = log_pmf[mode]
    # Relative to the peak, so the terms that dominate carry logs near 0 and
    # the log-domain running sums round them least.
    shifted = log_pmf - peak
    b = np.arange(count + 1)
    low, high = np.maximum(lo - b, 0), np.minimum(hi - b, m)
    # Non-empty windows: b in [first, end). Above the mode (lo - b > mode):
    # [first, mid); holding it: [mid, cut); below it (hi - b < mode): [cut, end).
    first = max(lo - m, 0)
    end = max(min(hi, count) + 1, first)
    mid = min(max(lo - mode, first), end)
    cut = min(max(hi - mode + 1, mid), end)
    out = np.full(count + 1, -np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        # below[j] = log P(B < j), above[j] = log P(B >= j), for j in 0..m+1.
        if mid < end:
            below = np.concatenate(([-np.inf], np.logaddexp.accumulate(shifted)))
        if first < cut:
            above = np.concatenate((np.logaddexp.accumulate(shifted[::-1])[::-1], [-np.inf]))
        if first < mid:
            r = slice(first, mid)
            out[r] = _log_sub(above[low[r]], above[high[r] + 1]) + peak
        if mid < cut:
            h = slice(mid, cut)
            # The rounded terms need not sum to exactly 1, so take the window
            # from their own total rather than from 1.
            whole = _logsumexp(shifted)
            out[h] = whole + np.log1p(-np.exp(below[low[h]] - whole) - np.exp(above[high[h] + 1] - whole)) + peak
        if cut < end:
            l = slice(cut, end)
            out[l] = _log_sub(below[high[l] + 1], below[low[l]]) + peak
    return out


def _binary_log_accept(
    joint: np.ndarray,
    log_law: np.ndarray,
    row_mask: np.ndarray,
    col_mask: np.ndarray,
    total: int,
) -> float:
    """Log-probability that both marginal counts land in their typical windows.

    ``log_law[a]`` is the log mass of the paths whose count of row symbol 0
    is a, for a in 0..total (a defective law when some paths were rejected
    early). Given a, the count of column symbol 0 is B0 + B1 with
    B0 ~ Bin(a, s0) and B1 ~ Bin(total - a, s1), the conditional rates of
    ``joint``. For each typical a with mass this sums
    P(B0 = b0) * P(lo - b0 <= B1 <= hi - b0) over b0, with the window masses
    read off two-sided log tails of B1 built once per a. Both log-pmfs are
    slices of tables built once per call (``_binom_rows``). Work is
    O(window_rows * total).

    The column window is an interval [lo, hi]: each symbol's test holds on an
    interval of counts (its rounded frequency is monotone in the count).
    """
    a_vals = np.nonzero(row_mask & (log_law > -np.inf))[0]
    b_vals = np.nonzero(col_mask)[0]
    if a_vals.size == 0 or b_vals.size == 0:
        return -np.inf
    lo, hi = int(b_vals[0]), int(b_vals[-1])
    rx0 = joint[0, 0] + joint[0, 1]
    rx1 = joint[1, 0] + joint[1, 1]
    s0 = joint[0, 0] / rx0 if rx0 > 0 else 0.0
    s1 = joint[1, 0] / rx1 if rx1 > 0 else 0.0

    lg = gammaln(np.arange(total + 2))
    pmf0, pmf1 = _binom_rows(lg, s0), _binom_rows(lg, s1)
    per_a = np.empty(a_vals.size)
    for i, a in enumerate(a_vals.tolist()):
        windows = _log_window_masses(pmf1(total - a), lo, hi, a)
        per_a[i] = _logsumexp(pmf0(a) + windows)
    return _logsumexp(per_a + log_law[a_vals])


def _exact_report(
    config: ProtocolConfig, log_accepts: Sequence[float], e_ts: Sequence[float]
) -> ErrorReport:
    """Report from the log accept mass and E[T] under (null, alternative)."""
    log_accept_p, log_accept_q = log_accepts
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
        e_t_h0=e_ts[0],
        e_t_h1=e_ts[1],
        method="exact",
    )


def _pinned(log_accepts: list[float], reject_empty: bool) -> list[float]:
    """The log accept masses, or exactly 0 for each when nothing is ever
    rejected (e.g. eta >= 1): the log-domain sums would smear that endpoint
    by their rounding."""
    return [0.0] * len(log_accepts) if reject_empty else log_accepts


def _exact_binary(
    config: ProtocolConfig, p: JointPmf, measures: Sequence[JointPmf]
) -> tuple[list[float], list[float]]:
    """Log accept mass and E[T] of p's rule for a 2x2 pair under each measure,
    under either policy, over marginal counts.

    Early rejects see only the count b of y = 0, and the verdict at the
    horizon only b and the count of x = 0. So, under each measure:

    * The y-count law: the log mass of the paths that reach the horizon, over
      b. With a fixed horizon it is Bin(N, r_y0). Early-decide builds it
      round by round: a log-convolution with Bin(k, r_y0), then the counts
      the round rejects are removed and their mass is recorded.
    * The accept mass: the sum over typical b of law(b) * P(x typical | b),
      from ``_binary_log_accept`` with x and y swapped.

    E[T] = n - sum over t of (n - t) * P(rejected at round t). Work is
    O(N^2) log-additions for the early law, plus O(window_y * N).
    """
    n, k = config.n, config.k
    total = config.total_samples
    rule = _DecisionRule(config, *marginals(p))
    x_mask = rule.binary_window(total, rule.p_x.probs)
    y_mask = rule.binary_window(total, rule.p_y.probs)
    # rejects[t - 1]: the counts of y = 0 that round t < n rejects.
    rejects = []
    if config.policy_kind is PolicyKind.EARLY_DECIDE:
        rejects = [
            ~rule.binary_window(t * k, rule.p_y.probs, margin)
            for t, margin in enumerate(rule.reject_margins.tolist(), 1)
        ]
    log_accepts, e_ts = [], []
    for joint in (m.probs for m in measures):
        ry0 = joint[0, 0] + joint[1, 0]
        e_t = float(n)
        if not rejects:
            law = _binom_logpmf(np.arange(total + 1), total, ry0)
        else:
            step = _binom_logpmf(np.arange(k + 1), k, ry0).tolist()
            law = np.zeros(1)  # index: count of y = 0 so far
            for t in range(1, n + 1):
                grown = np.full(law.size + k, -np.inf)
                for j, log_w in enumerate(step):
                    part = grown[j : j + law.size]
                    np.logaddexp(part, law + log_w, out=part)
                law = grown
                if t < n and rejects[t - 1].any():
                    killed = rejects[t - 1]
                    e_t -= (n - t) * math.exp(np.logaddexp.reduce(law[killed]))
                    law[killed] = -np.inf
                    if law.max() == -np.inf:  # nothing survives
                        law = np.full(total + 1, -np.inf)
                        break
        log_accepts.append(_binary_log_accept(joint.T, law, y_mask, x_mask, total))
        e_ts.append(e_t)
    reject_empty = bool(x_mask.all() and y_mask.all()) and not any(r.any() for r in rejects)
    return _pinned(log_accepts, reject_empty), e_ts


def _log_step(table: np.ndarray, log_row: list[np.ndarray], forward: bool) -> np.ndarray:
    """Add one sample of one x symbol to a log-domain y-count table.

    Axis 0 of ``table`` holds the two measures, axis j + 1 the count of y
    symbol j for every y symbol but the last, whose count is the table's
    sample count less their sum. ``log_row[j]`` is the log of the joint cell
    (x symbol, y = j) under each measure, shaped to broadcast. Forward, a
    sample of y = j moves mass from count c to c + 1 on axis j + 1; mass
    pushed past the top of an axis is dropped, since counts only grow and it
    could never come back into the box. Backward, a table of log-probabilities
    of landing in the box gathers from c + 1 the same way.
    """
    out = table + log_row[-1]
    for j, log_w in enumerate(log_row[:-1]):
        head = (slice(None),) * (j + 1)
        dst, src = head + (slice(1, None),), head + (slice(None, -1),)
        if not forward:
            dst, src = src, dst
        np.logaddexp(out[dst], table[src] + log_w, out=out[dst])
    return out


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """Log-sum-exp of each row of a 2-d array; -inf for a row of -inf."""
    top = a.max(axis=1)
    shift = np.where(top > -np.inf, top, 0.0)
    with np.errstate(divide="ignore"):
        return shift + np.log(np.exp(a - shift[:, None]).sum(axis=1))


def _exact_general(
    config: ProtocolConfig, p: JointPmf, measures: Sequence[JointPmf]
) -> tuple[list[float], list[float]]:
    """Log accept mass and E[T] of p's fixed-horizon rule under each measure,
    for any pair of alphabets, over marginal counts.

    The verdict reads only the marginal counts, and each typical set is a box
    in count space. So the accept mass is a sum over the typical x-count
    vectors a: the mass of the x-sequences with counts a, times the
    probability that their y-counts, the sum of the row multinomials
    Mult(a_i, P(y | x = i)), land in the y-box. The measures ride side by
    side on axis 0 of log-domain tables over the counts of every y symbol
    but the last, cut off at each symbol's largest typical count. A sample of x
    symbol i adds the joint cells of row i, so the tables hold joint masses
    and each a adds only the coefficient N! / prod(a_i!).

    * Rows 0..nx-2 go forward, depth first: row i's table grows one sample
      at a time from the table that the prefix a_0..a_{i-1} left.
    * The last row goes backward: for each count m, the log mass of m more
      samples of that row whose y-counts carry the table's into the box.
    * Each typical a costs one log-dot of the two.

    Work is about (forward tables + backward tables) * table cells; that
    estimate sizes ``TooLarge`` before any table is built. The 2x2 case has
    its own evaluator, ``_exact_binary``, whose summation order the
    committed reference values carry.
    """
    total = config.total_samples
    nx, ny = p.probs.shape
    rule = _DecisionRule(config, *marginals(p))
    counts = np.arange(total + 1)[:, None]
    ok_x = rule.symbol_ok(counts, total, rule.p_x.probs).T.tolist()
    ok_y = rule.symbol_ok(counts, total, rule.p_y.probs).T
    # The only count of a one-symbol alphabet is N, and it is typical.
    reject_empty = all(len(ok) == 1 or np.all(ok) for ok in (ok_x, ok_y))
    layers = len(measures)
    e_ts = [float(config.n)] * layers
    if not (np.any(ok_x, axis=1).all() and ok_y.any(axis=1).all()):
        return _pinned([-np.inf] * layers, reject_empty), e_ts
    lows = [row.index(True) for row in ok_x]
    tops = [total - row[::-1].index(True) for row in ok_x]
    shape = tuple(int(np.nonzero(row)[0][-1]) + 1 for row in ok_y[:-1])

    tables, prefixes = tops[-1] + 1, 1
    for row, top in zip(ok_x[:-1], tops[:-1]):
        tables += prefixes * (top + 1)
        prefixes *= sum(row)
    work = tables * math.prod(shape)
    if work > DEFAULT_CELL_BUDGET:
        raise TooLarge(
            f"about {work} y-count table cells to update at N={total} exceeds "
            f"the cell budget {DEFAULT_CELL_BUDGET}; use the Monte Carlo method"
        )

    with np.errstate(divide="ignore"):
        log_joint = np.log(np.stack([m.probs for m in measures]))
    ones = (1,) * len(shape)
    log_rows = [[log_joint[:, i, j].reshape((layers,) + ones) for j in range(ny)] for i in range(nx)]

    # The y-box at the horizon is the backward table for m = 0.
    in_box = np.ones(shape, dtype=bool)
    y_sum = np.zeros(shape, dtype=np.int64)
    for j, size in enumerate(shape):
        v = np.arange(size).reshape(tuple(size if a == j else 1 for a in range(len(shape))))
        in_box = in_box & ok_y[j][v]
        y_sum = y_sum + v
    last = total - y_sum
    in_box &= (last >= 0) & ok_y[-1][np.maximum(last, 0)]
    back = np.broadcast_to(np.where(in_box, 0.0, -np.inf), (layers,) + shape)
    backs = {}  # only the last-row counts that some typical a can leave
    first = total - sum(tops[:-1])
    for m in range(min(tops[-1], total - sum(lows[:-1])) + 1):
        if m:
            back = _log_step(back, log_rows[-1], forward=False)
        if m >= first and ok_x[-1][m]:
            backs[m] = back.reshape(layers, -1)

    lg = gammaln(np.arange(total + 2)).tolist()
    leaves = []

    def descend(i: int, table: np.ndarray, used: int, log_coef: float):
        if i == nx - 1:
            a = total - used
            if a in backs:
                dot = _logsumexp_rows(table.reshape(layers, -1) + backs[a])
                leaves.append(dot + (log_coef - lg[a + 1]))
            return
        rest = total - used
        floor, ceiling = sum(lows[i + 1 :]), sum(tops[i + 1 :])
        for a in range(min(tops[i], rest - floor) + 1):
            if a:
                table = _log_step(table, log_rows[i], forward=True)
            if ok_x[i][a] and rest - a <= ceiling:
                descend(i + 1, table, used + a, log_coef - lg[a + 1])

    start = np.full((layers,) + shape, -np.inf)
    start[(slice(None),) + (0,) * len(shape)] = 0.0
    descend(0, start, 0, lg[total + 1])
    if not leaves:
        return _pinned([-np.inf] * layers, reject_empty), e_ts
    # A running sum over the leaves, in their order, so that each measure's
    # total is the same double however many measures ride along.
    leaf = np.array(leaves)
    top = leaf.max(axis=0)
    shift = np.where(top > -np.inf, top, 0.0)
    with np.errstate(divide="ignore"):
        log_accepts = shift + np.log(np.add.accumulate(np.exp(leaf - shift), axis=0)[-1])
    return _pinned(log_accepts.tolist(), reject_empty), e_ts


def _exact_log_accepts(
    config: ProtocolConfig, p: JointPmf, measures: Sequence[JointPmf]
) -> tuple[list[float], list[float]]:
    """Log accept mass and E[T] of p's rule under each measure: the 2x2
    evaluator for binary pairs, the general one for other fixed-horizon
    pairs, and ``TooLarge`` for early-decide on other alphabets."""
    if p.probs.shape == (2, 2):
        return _exact_binary(config, p, measures)
    if config.policy_kind is PolicyKind.FIXED_HORIZON:
        return _exact_general(config, p, measures)
    raise TooLarge(
        "early-decide exact evaluation supports binary alphabets only; "
        "use the Monte Carlo method"
    )


def exact_errors(config: ProtocolConfig, p: JointPmf, q: JointPmf) -> ErrorReport:
    """Exact error probabilities by summing type weights over the regions.

    Binary pairs go through ``_exact_binary`` under either policy, at any
    horizon: O(N^2) work for early-decide, O(window * N) for the fixed
    horizon. Other alphabets go through ``_exact_general``, with a fixed
    horizon only: one y-count table per typical x-count prefix, each of
    about prod(window top + 1) cells over all but one y symbol, under the
    cell budget (3x3 at N = 60 is about 10^6 cells). Past the budget, and
    for early-decide on them, it raises ``TooLarge`` (use Monte Carlo).
    Both evaluators take the null's rule and a list of measures;
    ``fit_exponent`` passes the alternative alone.
    """
    _check_instance(p, q)
    return _exact_report(config, *_exact_log_accepts(config, p, (p, q)))


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
    _check_instance(p, q)
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
) -> ExponentFit:
    """Least-squares slope of -ln(beta) versus total sample budget N.

    ``config`` is the template whose horizon is re-derived as N / k for each
    grid entry; the slope in nats per sample is the empirical exponent. A
    grid (rather than one large N) cancels the polynomial prefactor from the
    type counts, which only perturbs -ln(beta) by O(log N). A budget with
    beta exactly 0 has no finite -ln(beta) and raises ``InvalidConfig``.

    Each point evaluates the alternative only, since alpha is never read;
    its -ln(beta) is the same double ``exact_errors`` reports.
    """
    budgets = sorted(int(v) for v in budget_grid)
    if len(budgets) < 4:
        raise InvalidConfig(f"need at least 4 grid points, got {len(budgets)}")
    if budgets[0] == budgets[-1]:
        raise InvalidConfig(
            f"need at least 2 distinct budgets to fit a slope, got {budgets}"
        )
    _check_instance(p, q)
    points = []
    for total in budgets:
        if total < config.k or total % config.k != 0:
            raise InvalidConfig(
                f"budget {total} is not a positive multiple of k={config.k}"
            )
        cfg = replace(config, n=total // config.k)
        (log_beta,), _ = _exact_log_accepts(cfg, p, (q,))
        if log_beta == -math.inf:
            raise InvalidConfig(
                f"beta is exactly 0 at budget {total}: its acceptance region has "
                "zero mass under the alternative, so -ln(beta) is infinite"
            )
        points.append((total, -log_beta))

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


def _composite_pair(p: Pmf | JointPmf, q: Pmf | JointPmf, horizon: int):
    """(p, q) flattened over the composite alphabet, checked for exact enumeration."""
    pv, qv = p.probs.ravel(), q.probs.ravel()
    if pv.shape != qv.shape:
        raise LengthMismatch("distributions have different alphabet sizes")
    if qv.min() <= 0.0:
        raise NotStrictlyPositive("the alternative must be strictly positive")
    if horizon < 1:
        raise HorizonTooLarge(f"horizon must be >= 1, got {horizon}")
    if pv.size**horizon > _PATH_BUDGET:
        raise HorizonTooLarge(
            f"{pv.size}^{horizon} sequences exceed the enumeration budget {_PATH_BUDGET}"
        )
    return pv, qv


def _stopped_paths(pv: np.ndarray, qv: np.ndarray, stopping_rule: StoppingRule, horizon: int):
    """Yield (T, P-probability, log-likelihood ratio) of each stopped path of positive P-mass.

    Breadth first over the prefixes of the iid process; a path stops where
    the rule fires on it or at the horizon. Paths come in the same order on
    every call, so sums over them are reproducible to the bit.
    """
    log_ratio = np.where(pv > 0, np.log(np.maximum(pv, 1e-300) / qv), 0.0)
    # Python floats give the same IEEE products and sums as numpy scalars,
    # at a fraction of the cost per operation.
    steps = list(enumerate(zip(pv.tolist(), log_ratio.tolist())))
    # (prefix, P-probability, accumulated log-likelihood ratio)
    active: list[tuple[tuple[int, ...], float, float]] = [((), 1.0, 0.0)]
    for t in range(1, horizon + 1):
        nxt: list[tuple[tuple[int, ...], float, float]] = []
        for prefix, pp, llr in active:
            for z, (pz, ratio) in steps:
                pp2 = pp * pz
                if pp2 == 0.0:
                    continue
                prefix2 = prefix + (z,)
                if t == horizon or stopping_rule(prefix2):
                    yield t, pp2, llr + ratio
                else:
                    nxt.append((prefix2, pp2, llr + ratio))
        active = nxt


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
    lhs = e_t = 0.0
    for t, pp, llr in _stopped_paths(pv, qv, stopping_rule, horizon_cap):
        e_t += t * pp
        lhs += pp * llr
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
        for t, pp, _ in _stopped_paths(pv, qv, stopping, horizon_cap):
            law[t] = law.get(t, 0.0) + pp

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

"""Reference evaluators the exact fast paths are checked against.

``convolution_log_accept`` is the direct O(window_x * window_y * N) form of
the binary fixed-horizon accept probability: for each typical x-count it
convolves the two conditional y-count binomials over the whole accepted
y-window, using ``scipy.stats.binom`` for every term.

``early_binary_outcome`` is the early-decide dynamic program over the count
of y = 0 in linear probabilities; the tests use it at small sizes only (65
samples at most).

``joint_type_enumeration`` is the fixed-horizon report of any pair of
alphabets by scoring every joint type, O(N^(cells-1)) of them; the tests use
it up to N = 20 (12 on 3x3, about 10^5 types).

``feasible_joint_divergence`` scores a coupling that shares the null's
marginals; any such coupling must score at least the solved exponent.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln, logsumexp
from scipy.stats import binom

from seqht.errors import InvalidConfig
from seqht.exponent import _check_joint_pair
from seqht.harness import ErrorReport, _binom_logpmf, _exact_report
from seqht.prob import JointPmf, kl_divergence, marginals
from seqht.protocol import ProtocolConfig, _DecisionRule


def convolution_log_accept(
    joint: np.ndarray, x_mask: np.ndarray, y_mask: np.ndarray, total: int
) -> float:
    """Same contract as ``seqht.harness._binary_log_accept``."""
    a_vals = np.nonzero(x_mask)[0]
    b_vals = np.nonzero(y_mask)[0]
    if a_vals.size == 0 or b_vals.size == 0:
        return -np.inf
    rx0 = joint[0, 0] + joint[0, 1]
    rx1 = joint[1, 0] + joint[1, 1]
    s0 = joint[0, 0] / rx0 if rx0 > 0 else 0.0
    s1 = joint[1, 0] / rx1 if rx1 > 0 else 0.0
    log_pa = binom.logpmf(a_vals, total, rx0)

    per_a = np.empty(a_vals.size)
    for i, a in enumerate(a_vals):
        u = binom.logpmf(np.arange(a + 1), a, s0)
        v = binom.logpmf(np.arange(total - a + 1), total - a, s1)
        b0 = np.arange(a + 1)
        rest = b_vals[:, None] - b0[None, :]
        valid = (rest >= 0) & (rest <= total - a)
        vals = np.where(valid, u[None, :] + v[np.clip(rest, 0, total - a)], -np.inf)
        per_a[i] = logsumexp(vals)
    return float(logsumexp(per_a + log_pa))


def early_binary_outcome(
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


def joint_type_enumeration(config: ProtocolConfig, p: JointPmf, q: JointPmf) -> ErrorReport:
    """Same contract as ``seqht.harness.exact_errors`` with a fixed horizon.

    Scores each joint type with the rule's per-symbol test on its row and
    column sums, and sums the accepted types' log-weights.
    """
    total = config.total_samples
    nx, ny = p.probs.shape
    cells = nx * ny
    rule = _DecisionRule(config, *marginals(p))
    # ok[s][count] tables of the rule's per-symbol test, so the loop below
    # scores a type by lookups alone.
    counts_0_to_total = np.arange(total + 1)[:, None]
    ok_x = rule.symbol_ok(counts_0_to_total, total, rule.p_x.probs).T.tolist()
    ok_y = rule.symbol_ok(counts_0_to_total, total, rule.p_y.probs).T.tolist()

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
    n = float(config.n)
    if not rejected_any:  # accept mass exactly 1, as the evaluators pin it
        log_accept_p = log_accept_q = 0.0
    return _exact_report(config, (log_accept_p, log_accept_q), (n, n))


def feasible_joint_divergence(p: JointPmf, q: JointPmf, coupling: JointPmf) -> float:
    """D(coupling || q) after checking the coupling shares p's marginals."""
    _check_joint_pair(p, q)
    cx, cy = marginals(coupling)
    tx, ty = marginals(p)
    gap = max(
        float(np.max(np.abs(cx.probs - tx.probs))),
        float(np.max(np.abs(cy.probs - ty.probs))),
    )
    if gap > 1e-6:
        raise InvalidConfig(f"coupling marginals off target by {gap}")
    return kl_divergence(coupling, q)

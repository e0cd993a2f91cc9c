"""Reference evaluators the exact fast paths are checked against.

Every oracle here classifies counts with the decision rule's float test
``symbol_ok``, defined here, and never with the rule's count windows: the
library compiles the windows and computes no float test. ``typical`` is that
test on every symbol at once, and ``binary_window`` on every binary type of
one total.

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

``float_replay`` plays the scalar protocol on fixed sequences, recounting
each prefix and running the float test on it, for the scalar paths to be
checked against.

``feasible_joint_divergence`` scores a coupling that shares the null's
marginals; any such coupling must score at least the solved exponent.

``relaxed_exponent_oracle`` is the 2x2 exponent with the marginals relaxed
to an eta-box, by brute-force grid: the honest target for a slope fitted at
finite N. Its memory grows as 1/grid_step^2, so it takes only the tests' own
steps (1e-3, and 1e-4 at eta = 0).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln, logsumexp
from scipy.stats import binom

from seqht.errors import InvalidConfig
from seqht.exponent import _binary_coupling_divergences, _check_joint_pair, _require_binary_pair
from seqht.harness import ErrorReport, _exact_report
from seqht.prob import JointPmf, kl_divergence, marginals
from seqht.protocol import ACCEPT, CONTINUE, REJECT, PolicyKind, ProtocolConfig, _DecisionRule


def symbol_ok(counts, total, target, margin):
    """The typicality test of each symbol s, on raw integer counts:
    |counts[..., s] / total - target[s]| <= margin.

    Arrays broadcast; on Python numbers it is the same IEEE arithmetic,
    since counts and totals below 2**53 convert to floats exactly.
    """
    return abs(counts / total - target) <= margin


def typical(counts: np.ndarray, total, target: np.ndarray, margin) -> np.ndarray:
    """Whether every symbol passes ``symbol_ok``, over the last axis."""
    return symbol_ok(counts, total, target, margin).all(axis=-1)


def binary_window(rule: _DecisionRule, total: int, target: np.ndarray, margin=None) -> np.ndarray:
    """The float test of each binary type (c, total - c), c = 0..total, at
    ``margin`` (the rule's eta unless given), independent of the rule's count
    windows."""
    c = np.arange(total + 1)
    margin = rule.config.eta if margin is None else margin
    return typical(np.stack((c, total - c), axis=-1), total, target, margin)


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
    inc = np.exp(binom.logpmf(np.arange(k + 1), k, ry0))

    surv = np.array([1.0])  # index = count of y=0 after t rounds
    reject_mass = 0.0
    e_t = 0.0
    for t in range(1, n):
        surv = np.convolve(surv, inc)
        killed = ~binary_window(rule, t * k, rule.p_y.probs, rule.reject_margins[t - 1])
        killed_mass = float(surv[killed].sum())
        reject_mass += killed_mass
        e_t += t * killed_mass
        surv = np.where(killed, 0.0, surv)
    surv = np.convolve(surv, inc)
    e_t += n * float(surv.sum())

    y_ok = binary_window(rule, total, rule.p_y.probs)
    x_mask = binary_window(rule, total, rule.p_x.probs)
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
            np.exp(binom.logpmf(np.arange(b + 1), b, u0)),
            np.exp(binom.logpmf(np.arange(total - b + 1), total - b, u1)),
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
    ok_x = symbol_ok(counts_0_to_total, total, rule.p_x.probs, config.eta).T.tolist()
    ok_y = symbol_ok(counts_0_to_total, total, rule.p_y.probs, config.eta).T.tolist()

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


def float_replay(config: ProtocolConfig, p_null: JointPmf, x_seq, y_seq):
    """(verdicts, x bits, x counts) of each round the protocol plays on the
    sequences, as ``decide`` and ``encode`` define them.

    Round t recounts the first t*k samples and runs the float test
    ``symbol_ok`` on them, at eta or, before the horizon under early-decide,
    at ``config.reject_margin(t)``.
    """
    rule = _DecisionRule(config, *marginals(p_null))
    k, n = config.k, config.n
    nx, ny = p_null.probs.shape
    x, y = np.asarray(x_seq, dtype=np.int64), np.asarray(y_seq, dtype=np.int64)
    verdicts, bits, rows = [], [], []
    for t in range(1, min(len(x) // k, n) + 1):
        total = t * k
        cx = np.bincount(x[:total], minlength=nx)
        cy = np.bincount(y[:total], minlength=ny)
        rows.append(cx.tolist())
        bits.append(int(symbol_ok(cx, total, rule.p_x.probs, config.eta).all()))
        if t == n:
            y_ok = symbol_ok(cy, total, rule.p_y.probs, config.eta).all()
            verdicts.append(ACCEPT if bits[-1] and y_ok else REJECT)
        elif config.policy_kind is PolicyKind.EARLY_DECIDE and not symbol_ok(
            cy, total, rule.p_y.probs, config.reject_margin(t)
        ).all():
            verdicts.append(REJECT)
            break
        else:
            verdicts.append(CONTINUE)
    return verdicts, bits, rows


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


def relaxed_exponent_oracle(
    p: JointPmf,
    q: JointPmf,
    eta: float,
    grid_step: float = 1e-3,
) -> float:
    """Exponent minimized over joints whose marginals sit within eta of targets.

    Brute-force over the 2x2 relaxed problem: row target u and column target v
    each range over an eta-box around the true marginals (clipped to [0, 1]),
    and for each (u, v) the coupling cell is scanned as in the exact oracle.
    Used to set honest pass bands for finite-blocklength slope fits, where the
    acceptance region's own marginal slack makes the operational exponent
    strictly smaller than the unrelaxed value.
    """
    _require_binary_pair(p, q)
    if not (eta >= 0):
        raise InvalidConfig(f"eta must be >= 0, got {eta}")
    if not (grid_step > 0):
        raise InvalidConfig(f"grid_step must be > 0, got {grid_step}")

    def _axis(center: float) -> np.ndarray:
        lo = max(0.0, center - eta)
        hi = min(1.0, center + eta)
        n = max(2, int(np.ceil((hi - lo) / grid_step)) + 1)
        return np.linspace(lo, hi, n)

    us = _axis(float(p.probs[0].sum()))
    vs = _axis(float(p.probs[:, 0].sum()))
    q_cells = q.probs.ravel()

    best = np.inf
    # Chunk over the row-target axis to keep the (u, v, t) tensor small.
    n_t = max(2, int(np.ceil(1.0 / grid_step)) + 1)
    s = np.linspace(0.0, 1.0, n_t)
    for u in us:
        uu = np.full_like(vs, u)
        lo = np.maximum(0.0, uu + vs - 1.0)
        hi = np.minimum(uu, vs)
        t = lo[:, None] + s[None, :] * np.maximum(hi - lo, 0.0)[:, None]
        d = _binary_coupling_divergences(t, uu[:, None], vs[:, None], q_cells)
        best = min(best, float(d.min()))
    return best

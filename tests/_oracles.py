"""Reference evaluators the exact fast paths are checked against.

``convolution_log_accept`` is the direct O(window_x * window_y * N) form of
the binary fixed-horizon accept probability: for each typical x-count it
convolves the two conditional y-count binomials over the whole accepted
y-window, using ``scipy.stats.binom`` for every term.
"""

from __future__ import annotations

import numpy as np
from scipy.special import logsumexp
from scipy.stats import binom


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

"""Optimal type-II error exponent for distributed testing with one-bit feedback.

The exponent is the minimum relative entropy D(M || Q) over all joints M that
share both marginals with the null joint P. The minimizer is computed by
iterative proportional fitting (alternating I-projections onto the row- and
column-marginal constraint sets), which converges geometrically whenever Q is
strictly positive and needs no external optimization dependency.

A brute-force grid oracle over the one-dimensional 2x2 transport polytope
certifies the solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import (
    InvalidConfig,
    NotStrictlyPositive,
    UnsupportedAlphabetSize,
    _integer,
    _real,
)
from .prob import JointPmf, _require_same_shape, kl_divergence

# Most points the 2x2 grid oracle scans.
_MAX_GRID_POINTS = 10**6


@dataclass(frozen=True)
class SolverOptions:
    """Stopping controls for the marginal-fitting solver.

    Convergence is declared on the marginal residual (max-norm gap between the
    iterate's marginals and the targets), never on objective change: the
    objective can plateau while the constraints are still violated.
    """

    tolerance: float = 1e-10
    max_iterations: int = 100_000

    def __post_init__(self):
        object.__setattr__(self, "tolerance", _real("tolerance", self.tolerance))
        object.__setattr__(self, "max_iterations", _integer("max_iterations", self.max_iterations))
        if not (self.tolerance > 0):
            raise InvalidConfig(f"tolerance must be > 0, got {self.tolerance}")


@dataclass(frozen=True)
class ExponentResult:
    """Solved exponent with its minimizing joint and solver diagnostics.

    ``exponent`` equals kl_divergence(minimizer, reference) in nats per
    sample. ``duality_gap_bound`` bounds the suboptimality of the returned
    iterate from the scaling vectors alone, so a caller can certify a result
    without re-solving. ``converged`` is False when the iteration budget ran
    out; the fields then describe the best iterate found.
    """

    exponent: float
    minimizer: JointPmf
    iterations: int
    marginal_residual: float
    duality_gap_bound: float
    converged: bool


def _check_joint_pair(p: JointPmf, q: JointPmf):
    _require_same_shape(p, q, JointPmf)
    if not q.strictly_positive:
        raise NotStrictlyPositive(
            "the alternative joint must be strictly positive cell-wise"
        )


def _ipf_sweeps(p: JointPmf, q: JointPmf):
    """Endless IPF sweeps from q toward p's marginals.

    Each sweep rescales rows to the target row marginal, then columns to the
    target column marginal, and yields the iterate with the row and column
    sums it rescaled by (the solver's log-scaling bookkeeping reads these).
    """
    px = p.probs.sum(axis=1)
    py = p.probs.sum(axis=0)
    m = q.probs
    while True:
        rows = m.sum(axis=1)
        m = m * np.where(px > 0, px / np.maximum(rows, 1e-300), 0.0)[:, None]
        cols = m.sum(axis=0)
        m = m * np.where(py > 0, py / np.maximum(cols, 1e-300), 0.0)[None, :]
        yield m, rows, cols


def solve_exponent(
    p: JointPmf, q: JointPmf, opts: SolverOptions | None = None
) -> ExponentResult:
    """Minimize D(M || q) over joints M sharing both marginals with p.

    Iterative proportional fitting: the minimizer has the scaled-product form
    a(x) b(y) q(x, y), and alternating row/column rescaling converges to it
    geometrically for strictly positive q. On hitting the iteration budget the
    best iterate is returned with ``converged=False`` rather than raising, so
    callers can inspect the residual.

    No type-I budget epsilon enters: the optimal exponent is the same for
    every epsilon in (0, 1).
    """
    _check_joint_pair(p, q)
    if opts is None:
        opts = SolverOptions()

    px = p.probs.sum(axis=1)
    py = p.probs.sum(axis=0)
    # Cumulative log-scalings: m == exp(log_a)[:, None] * exp(log_b)[None, :] * q.
    log_a = np.zeros(px.shape)
    log_b = np.zeros(py.shape)

    with np.errstate(divide="ignore"):
        log_px = np.where(px > 0, np.log(np.maximum(px, 1e-300)), -np.inf)
        log_py = np.where(py > 0, np.log(np.maximum(py, 1e-300)), -np.inf)

    residual = np.inf
    converged = False
    sweeps = islice(_ipf_sweeps(p, q), opts.max_iterations)
    for iterations, (m, rows, cols) in enumerate(sweeps, start=1):
        with np.errstate(divide="ignore"):
            log_a += np.where(px > 0, log_px - np.log(np.maximum(rows, 1e-300)), -np.inf)
            log_b += np.where(py > 0, log_py - np.log(np.maximum(cols, 1e-300)), -np.inf)
        # Columns are exact right after the column step; only rows can be off.
        residual = float(np.max(np.abs(m.sum(axis=1) - px)))
        if residual <= opts.tolerance:
            converged = True
            break

    # 0 * inf := 0 — a constraint met exactly contributes nothing even if its
    # scaling is degenerate (zero marginal rows have log-scale -inf).
    def _gap_term(gap: np.ndarray, logs: np.ndarray) -> float:
        mask = gap > 0
        return float(np.sum(gap[mask] * np.abs(logs[mask])))

    gap = _gap_term(np.abs(m.sum(axis=1) - px), log_a) + _gap_term(
        np.abs(m.sum(axis=0) - py), log_b
    )

    minimizer = JointPmf(m)
    return ExponentResult(
        exponent=kl_divergence(minimizer, q),
        minimizer=minimizer,
        iterations=iterations,
        marginal_residual=residual,
        duality_gap_bound=gap,
        converged=converged,
    )


def _binary_coupling_divergences(t, u, v, q_cells):
    """D of the 2x2 joint with marginals (u, v) and top-left cell t, per entry of t."""
    cells = np.stack(
        [t, u - t, v - t, 1.0 - u - v + t],
        axis=-1,
    )
    cells = np.clip(cells, 0.0, None)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(cells > 0, cells * np.log(cells / q_cells), 0.0)
    return terms.sum(axis=-1)


def _require_binary_pair(p: JointPmf, q: JointPmf):
    _check_joint_pair(p, q)
    if p.probs.shape != (2, 2):
        raise UnsupportedAlphabetSize(
            f"grid oracle supports 2x2 joints only, got {p.probs.shape}"
        )


def grid_oracle_exponent(p: JointPmf, q: JointPmf, grid_step: float) -> float:
    """Brute-force exponent for 2x2 joints, independent of the iterative solver.

    With both marginals pinned, a 2x2 joint has one free cell
    t = M(0, 0) ranging over [max(0, u + v - 1), min(u, v)] for row/column
    targets u, v. Scanning t at ``grid_step`` resolution brackets the true
    minimum within a Lipschitz(grid_step) error. The scan holds about 100
    bytes per point, so a step that would scan more than 10^6 points raises
    ``InvalidConfig`` before any array is built.
    """
    _require_binary_pair(p, q)
    if not (0 < grid_step < math.inf):
        raise InvalidConfig(f"grid_step must be finite and > 0, got {grid_step}")
    u = float(p.probs[0].sum())
    v = float(p.probs[:, 0].sum())
    lo = max(0.0, u + v - 1.0)
    hi = min(u, v)
    # ceil((hi - lo) / grid_step) + 1 points, past 10^6 exactly when this holds.
    if (hi - lo) / grid_step > _MAX_GRID_POINTS - 1:
        raise InvalidConfig(
            f"grid_step {grid_step} would scan more than {_MAX_GRID_POINTS} points on [{lo}, {hi}]"
        )
    if hi <= lo:
        ts = np.array([lo])
    else:
        ts = np.arange(lo, hi, grid_step)
        ts = np.append(ts, hi)
    d = _binary_coupling_divergences(ts, u, v, q.probs.ravel())
    return float(d.min())

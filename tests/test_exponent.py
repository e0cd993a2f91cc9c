import math
from itertools import islice

import numpy as np
import pytest

from _oracles import feasible_joint_divergence, relaxed_exponent_oracle
from seqht import (
    InvalidConfig,
    JointPmf,
    NotStrictlyPositive,
    Pmf,
    SolverOptions,
    UnsupportedAlphabetSize,
    grid_oracle_exponent,
    kl_divergence,
    marginals,
    solve_exponent,
)
from seqht.exponent import _ipf_sweeps

UNIFORM = JointPmf.from_probs([[0.25, 0.25], [0.25, 0.25]])
# independent marginals (0.9, 0.1) on each side
PRODUCT_P = JointPmf.from_probs([[0.81, 0.09], [0.09, 0.01]])
# closed form for a product alternative: the divergence splits over marginals
PRODUCT_EXPONENT = 2 * (0.9 * math.log(0.9 / 0.5) + 0.1 * math.log(0.1 / 0.5))


def random_instance(rng, q_floor=0.05):
    p = JointPmf.from_probs(rng.dirichlet(np.ones(4)).reshape(2, 2))
    q = JointPmf.from_probs((q_floor + (1 - 4 * q_floor) * rng.dirichlet(np.ones(4))).reshape(2, 2))
    return p, q


def test_uniform_instance_has_zero_exponent():
    p = JointPmf.from_probs([[0.4, 0.1], [0.1, 0.4]])
    result = solve_exponent(p, UNIFORM)
    assert result.converged
    assert result.exponent <= 1e-9
    np.testing.assert_allclose(result.minimizer.probs, UNIFORM.probs, atol=1e-9)


def test_product_alternative_closed_form():
    result = solve_exponent(PRODUCT_P, UNIFORM)
    assert result.converged
    assert abs(result.exponent - PRODUCT_EXPONENT) < 1e-9
    # minimizer is the product coupling of the marginals
    np.testing.assert_allclose(result.minimizer.probs, PRODUCT_P.probs, atol=1e-9)


def test_reported_exponent_matches_minimizer_divergence():
    rng = np.random.default_rng(21)
    for _ in range(10):
        p, q = random_instance(rng)
        result = solve_exponent(p, q)
        assert abs(result.exponent - kl_divergence(result.minimizer, q)) <= 1e-12


def test_minimizer_marginals_hit_targets():
    rng = np.random.default_rng(8)
    for _ in range(10):
        p, q = random_instance(rng)
        result = solve_exponent(p, q)
        assert result.converged
        assert result.marginal_residual <= 1e-10
        tx, ty = marginals(p)
        mx, my = marginals(result.minimizer)
        assert np.max(np.abs(mx.probs - tx.probs)) <= 1e-9
        assert np.max(np.abs(my.probs - ty.probs)) <= 1e-9


def test_solver_agrees_with_grid_oracle():
    p = JointPmf.from_probs([[0.5, 0.2], [0.1, 0.2]])
    q = JointPmf.from_probs([[0.1, 0.3], [0.4, 0.2]])
    solved = solve_exponent(p, q).exponent
    oracle = grid_oracle_exponent(p, q, 1e-5)
    assert abs(solved - oracle) <= 1e-3
    assert solved <= oracle + 1e-9  # the solver can only be better


def test_zero_case_when_alternative_has_target_marginals():
    # Q's own marginals equal (P_X, P_Y): the feasible set contains Q itself.
    p = JointPmf.from_probs([[0.4, 0.1], [0.1, 0.4]])
    q = JointPmf.from_probs([[0.3, 0.2], [0.2, 0.3]])
    assert solve_exponent(p, q).exponent <= 1e-9


def test_rejects_alternative_with_zero_cell():
    q = JointPmf.from_probs([[0.5, 0.5], [0.0, 0.0]])
    with pytest.raises(NotStrictlyPositive):
        solve_exponent(PRODUCT_P, q)
    with pytest.raises(NotStrictlyPositive):
        grid_oracle_exponent(PRODUCT_P, q, 1e-4)


def test_solver_options_validation():
    with pytest.raises(InvalidConfig):
        SolverOptions(tolerance=0.0)
    with pytest.raises(InvalidConfig):
        SolverOptions(max_iterations=0)
    # A bool is not a count or a tolerance; a fraction or a string is an error.
    for bad in (2.5, True, "10"):
        with pytest.raises(InvalidConfig, match="max_iterations"):
            SolverOptions(max_iterations=bad)
    for bad in (True, "x", None):
        with pytest.raises(InvalidConfig, match="tolerance"):
            SolverOptions(tolerance=bad)


def test_unconverged_result_is_flagged_not_raised():
    p = JointPmf.from_probs([[0.5, 0.2], [0.1, 0.2]])
    q = JointPmf.from_probs([[0.1, 0.3], [0.4, 0.2]])
    result = solve_exponent(p, q, SolverOptions(tolerance=1e-14, max_iterations=2))
    assert not result.converged
    assert result.iterations == 2
    assert result.marginal_residual > 1e-14
    # the best iterate is still a usable distribution
    assert result.minimizer.probs.sum() == pytest.approx(1.0)


def test_duality_gap_bound_vanishes_at_convergence():
    rng = np.random.default_rng(3)
    for _ in range(5):
        p, q = random_instance(rng)
        result = solve_exponent(p, q)
        assert 0.0 <= result.duality_gap_bound <= 1e-8


def test_successive_iterates_contract():
    # The divergence between successive iterates never increases, and every
    # iterate keeps getting closer (in divergence) to the final answer.
    rng = np.random.default_rng(17)
    for _ in range(5):
        p, q = random_instance(rng)
        iterates = [m for m, _, _ in islice(_ipf_sweeps(p, q), 40)]
        final = iterates[-1]

        def masked_kl(a, b):
            mask = a > 0
            return float(np.sum(a[mask] * np.log(a[mask] / b[mask])))

        steps = [masked_kl(b, a) for a, b in zip(iterates, iterates[1:])]
        assert all(s2 <= s1 + 1e-12 for s1, s2 in zip(steps, steps[1:]))
        to_final = [masked_kl(final, m) for m in iterates[:-1]]
        assert all(d2 <= d1 + 1e-12 for d1, d2 in zip(to_final, to_final[1:]))


def test_optimality_certificate_against_random_feasible_joints():
    rng = np.random.default_rng(29)
    p, q = random_instance(rng)
    result = solve_exponent(p, q)
    u = float(p.probs[0].sum())
    v = float(p.probs[:, 0].sum())
    lo, hi = max(0.0, u + v - 1.0), min(u, v)
    for t in rng.uniform(lo, hi, size=100):
        candidate = JointPmf.from_probs(
            np.clip([[t, u - t], [v - t, 1 - u - v + t]], 0.0, None)
        )
        assert feasible_joint_divergence(p, q, candidate) >= result.exponent - 1e-9


def test_feasible_joint_divergence_rejects_off_target_couplings():
    with pytest.raises(InvalidConfig):
        feasible_joint_divergence(PRODUCT_P, UNIFORM, JointPmf.from_probs([[0.7, 0.1], [0.1, 0.1]]))


def test_grid_oracle_trivial_and_degenerate_cases():
    assert grid_oracle_exponent(UNIFORM, UNIFORM, 1e-4) == pytest.approx(0.0, abs=1e-12)
    assert abs(grid_oracle_exponent(PRODUCT_P, UNIFORM, 1e-5) - PRODUCT_EXPONENT) <= 1e-4
    # P(X=0) = 1 pins the coupling to a single point
    p = JointPmf.from_probs([[0.6, 0.4], [0.0, 0.0]])
    expected = kl_divergence(p, UNIFORM)
    assert grid_oracle_exponent(p, UNIFORM, 1e-3) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("step", [math.inf, math.nan, -math.inf])
def test_grid_oracle_refuses_a_non_finite_step(step):
    # An infinite step scanned only the low end of the coupling's range.
    with pytest.raises(InvalidConfig, match="grid_step"):
        grid_oracle_exponent(PRODUCT_P, UNIFORM, step)


def test_grid_oracle_refuses_a_scan_past_a_million_points():
    # PRODUCT_P's coupling cell ranges over [0.8, 0.9]: a step of 1e-7 would
    # scan 1,000,001 points (about 100 MB), 1e-6 scans 100,001.
    with pytest.raises(InvalidConfig, match="grid_step"):
        grid_oracle_exponent(PRODUCT_P, UNIFORM, 1e-7)
    assert abs(grid_oracle_exponent(PRODUCT_P, UNIFORM, 1e-6) - PRODUCT_EXPONENT) <= 1e-6
    # A pinned coupling scans one point at any step.
    p = JointPmf.from_probs([[0.6, 0.4], [0.0, 0.0]])
    assert grid_oracle_exponent(p, UNIFORM, 1e-300) == pytest.approx(kl_divergence(p, UNIFORM), abs=1e-12)


def test_grid_oracle_rejects_larger_alphabets():
    p = JointPmf.from_probs(np.full((3, 3), 1 / 9))
    q = JointPmf.from_probs(np.full((3, 3), 1 / 9))
    with pytest.raises(UnsupportedAlphabetSize):
        grid_oracle_exponent(p, q, 1e-3)


def test_solver_handles_degenerate_marginal():
    # a zero row in the target marginals forces a zero row in the minimizer
    p = JointPmf.from_probs([[0.6, 0.4], [0.0, 0.0]])
    result = solve_exponent(p, UNIFORM)
    assert result.converged
    np.testing.assert_allclose(result.minimizer.probs[1], [0.0, 0.0], atol=1e-15)
    assert abs(result.exponent - kl_divergence(p, UNIFORM)) < 1e-9


def test_relaxed_oracle_interpolates_and_bounds():
    exact = grid_oracle_exponent(PRODUCT_P, UNIFORM, 1e-5)
    at_zero = relaxed_exponent_oracle(PRODUCT_P, UNIFORM, 0.0, grid_step=1e-4)
    assert abs(at_zero - exact) < 1e-6
    values = [relaxed_exponent_oracle(PRODUCT_P, UNIFORM, e) for e in (0.0, 0.01, 0.02, 0.05)]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
    # minimum over the eta-box lands on the corner nearest the alternative:
    # both relaxed marginals at 0.9 - eta with an independent coupling
    corner = 2 * (0.88 * math.log(0.88 / 0.5) + 0.12 * math.log(0.12 / 0.5))
    assert relaxed_exponent_oracle(PRODUCT_P, UNIFORM, 0.02) == pytest.approx(corner, abs=1e-9)


def test_chernoff_stein_baseline_values():
    p = Pmf.from_probs([0.9, 0.1])
    u = Pmf.from_probs([0.5, 0.5])
    assert kl_divergence(p, p) == 0.0
    assert kl_divergence(p, u) == pytest.approx(0.3680642071684971, abs=1e-12)
    assert kl_divergence(Pmf.from_probs([1.0, 0.0]), u) == pytest.approx(math.log(2))

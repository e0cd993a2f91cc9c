import inspect

import numpy as np
import pytest

import seqht

# The public surface, spelled out so that adding or dropping a name is a
# visible change to this list.
PUBLIC_NAMES = [
    # errors
    "AlphabetMismatch", "BadLength", "HorizonTooLarge", "InconsistentMessages", "InvalidConfig",
    "InvalidDistribution", "LengthMismatch", "NotStrictlyPositive", "SeqHTError", "TooLarge",
    "UnsupportedAlphabetSize", "UnsupportedMass",
    # exponent
    "ExponentResult", "SolverOptions", "grid_oracle_exponent", "solve_exponent",
    # harness
    "AcceptanceBoundReport", "ErrorReport", "ExponentFit", "WaldReport", "exact_errors", "fit_exponent",
    "monte_carlo_errors", "verify_acceptance_bound", "verify_wald_identity", "wilson_halfwidth",
    # prob
    "EmpiricalType", "JointPmf", "Pmf", "count_type_vectors", "empirical_type", "kl_divergence",
    "linf_distance", "marginals",
    # protocol
    "ACCEPT", "CONTINUE", "REJECT", "EncoderKind", "Hypothesis", "Message", "PolicyKind",
    "ProtocolConfig", "SourceModel", "Trace", "acceptance_region_membership", "decide", "default_eta",
    "encode", "run_protocol", "simulate_batch",
]


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 50
    assert len(seqht.__all__) == len(set(seqht.__all__))
    assert sorted(seqht.__all__) == sorted(PUBLIC_NAMES)
    assert all(hasattr(seqht, name) for name in PUBLIC_NAMES)


def test_monte_carlo_takes_no_worker_count():
    # Monte Carlo is a pure function of (config, seed, trials) and runs on
    # one thread; a caller-set worker count would be a knob with no effect.
    assert list(inspect.signature(seqht.monte_carlo_errors).parameters) == ["config", "p", "q", "trials", "seed"]


CONFIG = seqht.ProtocolConfig(k=1, n=2, eta=0.2)
# Every entry point that takes a (p, q) pair, called on it with small,
# valid other arguments.
PAIR_ENTRY_POINTS = {
    "exact_errors": lambda p, q: seqht.exact_errors(CONFIG, p, q),
    "monte_carlo_errors": lambda p, q: seqht.monte_carlo_errors(CONFIG, p, q, trials=10, seed=0),
    "fit_exponent": lambda p, q: seqht.fit_exponent(CONFIG, p, q, [1, 2, 3, 4]),
    "simulate_batch": lambda p, q: seqht.simulate_batch(CONFIG, p, q, [1, 2]),
    "run_protocol": lambda p, q: seqht.run_protocol(CONFIG, p, seqht.SourceModel("H1", q, 1)),
    "solve_exponent": lambda p, q: seqht.solve_exponent(p, q),
    "grid_oracle_exponent": lambda p, q: seqht.grid_oracle_exponent(p, q, 1e-3),
    "kl_divergence": lambda p, q: seqht.kl_divergence(p, q),
    "linf_distance": lambda p, q: seqht.linf_distance(p, q),
    "verify_wald_identity": lambda p, q: seqht.verify_wald_identity(p, q, lambda prefix: True, 2),
    "verify_acceptance_bound": lambda p, q: seqht.verify_acceptance_bound(p, q, {1: 1.0}, {}, 1),
}
JOINT_3X2 = seqht.JointPmf.from_probs(np.full((3, 2), 1 / 6))
MISMATCHED_PAIRS = {
    "2x3 against 3x2": (seqht.JointPmf.from_probs(np.full((2, 3), 1 / 6)), JOINT_3X2),
    "Pmf against JointPmf": (seqht.Pmf.from_probs(np.full(6, 1 / 6)), JOINT_3X2),
}


@pytest.mark.parametrize("pair", MISMATCHED_PAIRS)
@pytest.mark.parametrize("entry", PAIR_ENTRY_POINTS)
def test_every_pair_entry_point_rejects_pmfs_of_different_shapes(entry, pair):
    with pytest.raises(seqht.AlphabetMismatch):
        PAIR_ENTRY_POINTS[entry](*MISMATCHED_PAIRS[pair])


@pytest.mark.parametrize(
    "entry",
    ["exact_errors", "monte_carlo_errors", "fit_exponent", "simulate_batch", "solve_exponent", "grid_oracle_exponent"],
)
def test_joint_entry_points_name_the_joint_they_need(entry):
    pmf = seqht.Pmf.from_probs([0.5, 0.5])
    with pytest.raises(seqht.InvalidDistribution, match="needs two JointPmfs, got two Pmfs"):
        PAIR_ENTRY_POINTS[entry](pmf, pmf)


@pytest.mark.parametrize("entry", ["kl_divergence", "linf_distance", "verify_wald_identity", "verify_acceptance_bound"])
def test_pmf_entry_points_name_the_types_of_plain_lists(entry):
    plain, pmf = [0.5, 0.5], seqht.Pmf.from_probs([0.5, 0.5])
    with pytest.raises(seqht.InvalidDistribution, match="needs two Pmfs or two JointPmfs, got two lists"):
        PAIR_ENTRY_POINTS[entry](plain, [0.5, 0.5])
    with pytest.raises(seqht.AlphabetMismatch, match="cannot mix list and Pmf"):
        PAIR_ENTRY_POINTS[entry](plain, pmf)

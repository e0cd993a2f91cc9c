import seqht

# The public surface, spelled out so that adding or dropping a name is a
# visible change to this list.
PUBLIC_NAMES = [
    # errors
    "AlphabetMismatch", "BadLength", "HorizonTooLarge", "InconsistentMessages", "InvalidConfig",
    "InvalidDistribution", "LengthMismatch", "NotStrictlyPositive", "SeqHTError", "TooLarge",
    "UnsupportedAlphabetSize", "UnsupportedMass",
    # exponent
    "ExponentResult", "SolverOptions", "grid_oracle_exponent", "relaxed_exponent_oracle", "solve_exponent",
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
    assert len(PUBLIC_NAMES) == 51
    assert len(seqht.__all__) == len(set(seqht.__all__))
    assert sorted(seqht.__all__) == sorted(PUBLIC_NAMES)
    assert all(hasattr(seqht, name) for name in PUBLIC_NAMES)

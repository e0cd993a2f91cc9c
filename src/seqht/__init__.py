"""Sequential distributed hypothesis testing over a zero-rate link.

A sensor compresses blocks of observations into zero-rate messages; a
decision center combines them with its own observations and a one-bit
stop-feedback channel to test a null joint against an alternative. The
package solves for the optimal type-II error exponent (a constrained
I-projection), simulates the protocol, evaluates its errors exactly over
marginal counts or by Monte Carlo, and verifies the stopped-process
identities the analysis rests on.
"""

from .errors import (
    AlphabetMismatch,
    BadLength,
    HorizonTooLarge,
    InconsistentMessages,
    InvalidConfig,
    InvalidDistribution,
    LengthMismatch,
    NotStrictlyPositive,
    SeqHTError,
    TooLarge,
    UnsupportedAlphabetSize,
    UnsupportedMass,
)
from .exponent import (
    ExponentResult,
    SolverOptions,
    grid_oracle_exponent,
    solve_exponent,
)
from .harness import (
    ErrorReport,
    ExponentFit,
    AcceptanceBoundReport,
    WaldReport,
    exact_errors,
    fit_exponent,
    monte_carlo_errors,
    verify_acceptance_bound,
    verify_wald_identity,
    wilson_halfwidth,
)
from .prob import (
    EmpiricalType,
    JointPmf,
    Pmf,
    count_type_vectors,
    empirical_type,
    kl_divergence,
    linf_distance,
    marginals,
)
from .protocol import (
    ACCEPT,
    CONTINUE,
    REJECT,
    EncoderKind,
    Hypothesis,
    Message,
    PolicyKind,
    ProtocolConfig,
    SourceModel,
    Trace,
    acceptance_region_membership,
    decide,
    default_eta,
    encode,
    run_protocol,
    simulate_batch,
)

__version__ = "0.1.0"

__all__ = [
    "ACCEPT",
    "AlphabetMismatch",
    "BadLength",
    "CONTINUE",
    "EmpiricalType",
    "EncoderKind",
    "ErrorReport",
    "ExponentFit",
    "ExponentResult",
    "HorizonTooLarge",
    "Hypothesis",
    "InconsistentMessages",
    "InvalidConfig",
    "InvalidDistribution",
    "JointPmf",
    "AcceptanceBoundReport",
    "LengthMismatch",
    "Message",
    "NotStrictlyPositive",
    "Pmf",
    "PolicyKind",
    "ProtocolConfig",
    "REJECT",
    "SeqHTError",
    "SolverOptions",
    "SourceModel",
    "TooLarge",
    "Trace",
    "UnsupportedAlphabetSize",
    "UnsupportedMass",
    "WaldReport",
    "acceptance_region_membership",
    "count_type_vectors",
    "decide",
    "default_eta",
    "empirical_type",
    "encode",
    "exact_errors",
    "fit_exponent",
    "grid_oracle_exponent",
    "kl_divergence",
    "linf_distance",
    "marginals",
    "monte_carlo_errors",
    "run_protocol",
    "simulate_batch",
    "solve_exponent",
    "verify_acceptance_bound",
    "verify_wald_identity",
    "wilson_halfwidth",
]

"""Sensor/decision-center protocol with one-bit stop feedback.

One round t: the sensor holds x^{tk} (k fresh samples per request), compresses
it to a zero-rate message, and the decision center combines that message with
its own y^{tk} into a verdict in {accept null, reject null, continue}. A
feedback bit of 1 requests another round; 0 stops. The stopping time is the
number of rounds until the first non-continue verdict.

The decision rule is marginal typicality with margin eta: accept iff every
symbol s of both empirical marginals has |count_s/N - p_s| <= eta, on raw
integer counts with no renormalisation. The scalar protocol, the batch
simulator and the exact evaluators all share this one test (``_DecisionRule``).
Both encoders (a single typicality bit, or the full empirical type) induce the
same acceptance region; the fixed-horizon policy always decides at round n,
while the early-decide policy may reject sooner on a widened margin.

Every verdict depends on the observations only through their empirical types,
which is what makes exact error evaluation by type enumeration possible; see
the evaluation module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (
    AlphabetMismatch,
    BadLength,
    InconsistentMessages,
    InvalidConfig,
    LengthMismatch,
)
from .prob import (
    EmpiricalType,
    JointPmf,
    Pmf,
    count_type_vectors,
    empirical_type,
    marginals,
)
from .rng import categorical_cdf, sample_categorical, uniform_block, uniforms


class EncoderKind(str, Enum):
    ONE_BIT = "one_bit"
    FULL_TYPE = "full_type"


class PolicyKind(str, Enum):
    FIXED_HORIZON = "fixed_horizon"
    EARLY_DECIDE = "early_decide"


class Hypothesis(str, Enum):
    H0 = "H0"
    H1 = "H1"


ACCEPT = 0
REJECT = 1
CONTINUE = None  # the "need more samples" verdict


@dataclass(frozen=True)
class ProtocolConfig:
    """Static parameters of one protocol instance.

    ``n`` bounds the number of rounds (both policies guarantee T <= n, so the
    expected stopping time meets its budget with certainty), ``k`` is the
    samples-per-round block size, ``eta`` the typicality margin, and
    ``epsilon`` the type-I error budget the margin is meant to honor.
    ``eta >= 1`` is legal and makes every sequence typical.
    """

    k: int
    n: int
    eta: float
    encoder_kind: EncoderKind = EncoderKind.ONE_BIT
    policy_kind: PolicyKind = PolicyKind.FIXED_HORIZON
    epsilon: float = 0.05

    def __post_init__(self):
        if self.k < 1:
            raise InvalidConfig(f"k must be a positive integer, got {self.k}")
        if self.n < 1:
            raise InvalidConfig(f"n must be a positive integer, got {self.n}")
        if not (self.eta > 0):
            raise InvalidConfig(f"eta must be > 0, got {self.eta}")
        if not (0.0 < self.epsilon < 1.0):
            raise InvalidConfig(f"epsilon must lie in (0, 1), got {self.epsilon}")
        object.__setattr__(self, "encoder_kind", EncoderKind(self.encoder_kind))
        object.__setattr__(self, "policy_kind", PolicyKind(self.policy_kind))

    @property
    def total_samples(self) -> int:
        """N = n * k, the sample budget at the horizon."""
        return self.n * self.k

    def reject_margin(self, t: int) -> float:
        """Early-reject threshold at round t: eta plus a shrinking slack.

        The slack eta * (n - t) / n starts at roughly eta and vanishes at the
        horizon, so a sequence that survives every early check and is typical
        at t = n is never rejected early purely by sampling noise en route.
        """
        return self.eta + self.eta * (self.n - t) / self.n


def default_eta(n: int, k: int) -> float:
    """Margin schedule max(0.05, 2 * sqrt(ln(nk)/(nk))).

    Wide enough that marginal-type concentration drives the type-I error to
    zero as the sample budget grows, but shrinking so the exponent approaches
    the unrelaxed optimum. Callers verify alpha <= epsilon exactly instead of
    trusting the concentration bound.
    """
    total = n * k
    if total < 2:
        return 1.0
    return max(0.05, 2.0 * math.sqrt(math.log(total) / total))


def message_rate(config: ProtocolConfig, t: int, alphabet_size: int) -> float:
    """Bits-per-sample cost (1/k) * ln |message set| at round t.

    Counts distinct payloads actually in use: 2 for the one-bit encoder, the
    number of length-t*k types for the full-type encoder. Polynomial message
    counts make this vanish as k grows, which is the zero-rate regime this
    protocol lives in.
    """
    if t < 1:
        raise InvalidConfig(f"round index must be >= 1, got {t}")
    if config.encoder_kind is EncoderKind.ONE_BIT:
        return math.log(2.0) / config.k
    return math.log(count_type_vectors(t * config.k, alphabet_size)) / config.k


@dataclass(frozen=True)
class Message:
    """One round's sensor output: a typicality bit or the full empirical type."""

    step: int
    payload: int | EmpiricalType

    def __post_init__(self):
        if self.step < 1:
            raise InvalidConfig(f"message step must be >= 1, got {self.step}")
        if isinstance(self.payload, bool) or (
            isinstance(self.payload, int) and self.payload not in (0, 1)
        ):
            raise InconsistentMessages(f"bit payload must be 0 or 1, got {self.payload!r}")


@dataclass(frozen=True)
class SourceModel:
    """Which hypothesis is true, the joint it implies, and the trial's seed."""

    hypothesis: Hypothesis
    joint: JointPmf
    rng_seed: int

    def __post_init__(self):
        object.__setattr__(self, "hypothesis", Hypothesis(self.hypothesis))
        object.__setattr__(self, "rng_seed", int(self.rng_seed) & 0xFFFFFFFFFFFFFFFF)


@dataclass(frozen=True)
class Trace:
    """Complete record of one protocol run.

    ``feedback_bits[i]`` is the bit sent after round i+1: 1 requests more
    samples, 0 stops, so the record is T-1 ones followed by a zero and the
    stopping time is the index of that zero plus one. Verdicts are CONTINUE
    for every round but the last.
    """

    stopping_time: int
    messages: tuple[Message, ...]
    feedback_bits: tuple[int, ...]
    decision: int
    x_seq: tuple[int, ...]
    y_seq: tuple[int, ...]
    per_step_verdicts: tuple[int | None, ...]

    def __post_init__(self):
        t = self.stopping_time
        if t < 1:
            raise InvalidConfig(f"stopping time must be >= 1, got {t}")
        if self.decision not in (ACCEPT, REJECT):
            raise InvalidConfig(f"final decision must be 0 or 1, got {self.decision!r}")
        if len(self.messages) != t or len(self.feedback_bits) != t or len(self.per_step_verdicts) != t:
            raise LengthMismatch("per-round records must all have length T")
        if self.feedback_bits != (1,) * (t - 1) + (0,):
            raise InvalidConfig(f"feedback bits {self.feedback_bits} not of the wait...stop form")
        if self.per_step_verdicts[:-1] != (CONTINUE,) * (t - 1) or self.per_step_verdicts[-1] != self.decision:
            raise InvalidConfig("verdicts must be CONTINUE until the final decision")
        if len(self.x_seq) != len(self.y_seq):
            raise LengthMismatch("x and y observation records must have equal length")


def trace_record(trace: Trace, source: SourceModel) -> str:
    """One-line text record of a run: seed, hypothesis, T, decision."""
    return f"{source.rng_seed},{source.hypothesis.value},{trace.stopping_time},{trace.decision}"


def _blocked_length(config: ProtocolConfig, length: int) -> int:
    if length < config.k or length % config.k != 0:
        raise BadLength(
            f"prefix length {length} is not a positive multiple of k={config.k}"
        )
    return length // config.k


@dataclass(frozen=True)
class _DecisionRule:
    """The decision center's rule for one (config, null marginals), built once.

    ``p_y`` is None for a sensor-side rule that only encodes.
    """

    config: ProtocolConfig
    p_x: Pmf
    p_y: Pmf | None = None

    @cached_property
    def reject_margins(self) -> np.ndarray:
        """Early-reject margins of rounds 1..n-1."""
        return np.array([self.config.reject_margin(t) for t in range(1, self.config.n)])

    def symbol_ok(self, counts, total, target: np.ndarray, margin=None) -> np.ndarray:
        """The typicality test of each symbol s, on raw integer counts:
        |counts[..., s] / total - target[s]| <= margin (eta unless given)."""
        margin = self.config.eta if margin is None else margin
        return np.abs(np.asarray(counts) / total - target) <= margin

    def typical(self, counts, total, target: np.ndarray, margin=None) -> np.ndarray:
        return self.symbol_ok(counts, total, target, margin).all(axis=-1)

    def binary_window(self, total: int, target: np.ndarray, margin=None) -> np.ndarray:
        """Typicality of each binary type (c, total - c), c = 0..total."""
        c = np.arange(total + 1)
        return self.typical(np.stack((c, total - c), axis=-1), total, target, margin)


def encode(config: ProtocolConfig, x_prefix: Sequence[int], p_x: Pmf) -> Message:
    """Sensor compression of everything observed so far.

    One-bit: sends 1 iff the empirical x-type is typical for the null
    marginal. Full-type: sends the empirical type itself.
    """
    t = _blocked_length(config, len(x_prefix))
    x_type = empirical_type(x_prefix, p_x.alphabet)
    if config.encoder_kind is EncoderKind.ONE_BIT:
        typical = _DecisionRule(config, p_x).typical(x_type.counts, len(x_prefix), p_x.probs)
        return Message(step=t, payload=int(typical))
    return Message(step=t, payload=x_type)


def decide(
    config: ProtocolConfig,
    messages: Sequence[Message],
    y_prefix: Sequence[int],
    t: int,
    p_joint: JointPmf,
) -> int | None:
    """Decision-center verdict at round t: ACCEPT, REJECT, or CONTINUE.

    Fixed-horizon: CONTINUE before round n; at n accept iff the sensor's
    latest message certifies x-typicality and the local y-type is typical
    for the null y-marginal. Early-decide: additionally reject at t < n when
    the y-type is atypical on the widened margin; acceptance still only at n.
    """
    return _decide(_DecisionRule(config, *marginals(p_joint)), messages, y_prefix, t)


def _decide(
    rule: _DecisionRule, messages: Sequence[Message], y_prefix: Sequence[int], t: int
) -> int | None:
    config, p_y = rule.config, rule.p_y
    if len(messages) != t:
        raise InconsistentMessages(f"expected {t} messages by round {t}, got {len(messages)}")
    if messages and messages[-1].step != t:
        raise InconsistentMessages(
            f"latest message is for round {messages[-1].step}, expected {t}"
        )
    if len(y_prefix) != t * config.k:
        raise BadLength(f"y prefix has {len(y_prefix)} samples, expected {t * config.k}")
    payload = messages[-1].payload if messages else None
    if isinstance(payload, EmpiricalType) and config.encoder_kind is EncoderKind.FULL_TYPE:
        if payload.total != t * config.k:
            raise InconsistentMessages(
                f"full-type payload covers {payload.total} samples, expected {t * config.k}"
            )

    if t < config.n:
        if config.policy_kind is PolicyKind.EARLY_DECIDE:
            y_type = empirical_type(y_prefix, p_y.alphabet)
            margin = rule.reject_margins[t - 1]
            if not rule.typical(y_type.counts, len(y_prefix), p_y.probs, margin):
                return REJECT
        return CONTINUE
    if t > config.n:
        raise InvalidConfig(f"round {t} beyond the horizon n={config.n}")

    y_type = empirical_type(y_prefix, p_y.alphabet)
    y_ok = rule.typical(y_type.counts, len(y_prefix), p_y.probs)
    if config.encoder_kind is EncoderKind.ONE_BIT:
        if not isinstance(payload, int):
            raise InconsistentMessages("one-bit decider received a non-bit payload")
        x_ok = payload == 1
    else:
        if not isinstance(payload, EmpiricalType):
            raise InconsistentMessages("full-type decider received a non-type payload")
        if payload.is_joint or payload.alphabet_x != rule.p_x.alphabet:
            raise AlphabetMismatch("full-type payload is not a type over the x-alphabet")
        x_ok = rule.typical(payload.counts, payload.total, rule.p_x.probs)
    return ACCEPT if (x_ok and y_ok) else REJECT


def _replay(rule: _DecisionRule, x_seq: Sequence[int], y_seq: Sequence[int]):
    """Encode and decide round by round until the policy stops or the samples
    run out; returns the messages sent and each round's verdict."""
    k = rule.config.k
    messages: list[Message] = []
    verdicts: list[int | None] = []
    for t in range(1, min(len(x_seq) // k, rule.config.n) + 1):
        messages.append(encode(rule.config, x_seq[: t * k], rule.p_x))
        verdicts.append(_decide(rule, messages, y_seq[: t * k], t))
        if verdicts[-1] is not CONTINUE:
            break
    return messages, verdicts


def sample_pairs(joint: JointPmf, seed: int, start: int, count: int):
    """Draw pairs (x_i, y_i) iid from the joint, addressed by draw counter.

    Draw i of a trial always uses counter i regardless of batching, so a
    whole-run sample and a round-by-round sample agree bit for bit.
    """
    cdf = categorical_cdf(joint.probs.ravel())
    flat = sample_categorical(cdf, uniform_block(np.uint64(seed), start, count))
    ny = joint.alphabet_y.size
    return flat // ny, flat % ny


def run_protocol(config: ProtocolConfig, p_null: JointPmf, source: SourceModel) -> Trace:
    """Execute one full run: sample, encode, decide, feed back, stop.

    ``p_null`` is the null joint the decision rule tests against; the source
    draws from whichever joint its hypothesis dictates. Deterministic in
    (config, p_null, source): replaying the same seed yields an identical
    trace. The whole horizon is drawn at once; being addressed by counter,
    the rounds played see the same samples as in a round-by-round draw.
    """
    if source.joint.probs.shape != p_null.probs.shape:
        raise LengthMismatch(
            f"source joint shape {source.joint.probs.shape} does not match "
            f"null joint shape {p_null.probs.shape}"
        )
    rule = _DecisionRule(config, *marginals(p_null))
    draws = sample_pairs(source.joint, source.rng_seed, 0, config.total_samples)
    xs, ys = (v.tolist() for v in draws)
    messages, verdicts = _replay(rule, xs, ys)
    t = len(verdicts)
    return Trace(
        stopping_time=t,
        messages=tuple(messages),
        feedback_bits=(1,) * (t - 1) + (0,),
        decision=verdicts[-1],
        x_seq=tuple(xs[: t * config.k]),
        y_seq=tuple(ys[: t * config.k]),
        per_step_verdicts=tuple(verdicts),
    )


def acceptance_region_membership(
    config: ProtocolConfig,
    p_null: JointPmf,
    x_full: Sequence[int],
    y_full: Sequence[int],
) -> bool:
    """Replay the protocol on fixed sequences; True iff it accepts the null.

    The sequences must have exactly the length T * k that the policy itself
    induces on them; anything shorter or longer is a caller error.
    """
    if len(x_full) != len(y_full):
        raise BadLength(f"sequence lengths differ: {len(x_full)} vs {len(y_full)}")
    _blocked_length(config, len(x_full))
    _, verdicts = _replay(_DecisionRule(config, *marginals(p_null)), x_full, y_full)
    if verdicts[-1] is CONTINUE:
        raise BadLength(
            f"policy does not stop within {len(x_full)} samples (needs up to {config.total_samples})"
        )
    stop = len(verdicts) * config.k
    if len(x_full) != stop:
        raise BadLength(f"protocol stops after {stop} samples but {len(x_full)} were supplied")
    return verdicts[-1] == ACCEPT


def _symbol_counts(seq: np.ndarray, size: int) -> np.ndarray:
    """Count of each symbol 0..size-1 along the last axis, stacked last."""
    return np.stack([(seq == s).sum(axis=-1) for s in range(size)], axis=-1)


def simulate_batch(
    config: ProtocolConfig,
    p_null: JointPmf,
    joint: JointPmf,
    seeds,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized outcomes for many independent trials of the same instance.

    Returns (decisions, stopping_times) arrays, one entry per seed. Agrees
    with run_protocol trial for trial because both address randomness by
    (seed, draw counter); this is the fast path for Monte Carlo evaluation.
    """
    if joint.probs.shape != p_null.probs.shape:
        raise LengthMismatch("source joint shape does not match null joint shape")
    seeds = np.asarray(seeds, dtype=np.uint64)
    trials = seeds.shape[0]
    n, k = config.n, config.k
    total = n * k
    cdf = categorical_cdf(joint.probs.ravel())
    ny = joint.alphabet_y.size
    nx = joint.alphabet_x.size

    counters = np.arange(total, dtype=np.uint64)[None, :]
    flat = sample_categorical(cdf, uniforms(seeds[:, None], counters))
    x = flat // ny
    y = flat % ny

    rule = _DecisionRule(config, *marginals(p_null))
    x_ok = rule.typical(_symbol_counts(x, nx), total, rule.p_x.probs)
    y_ok = rule.typical(_symbol_counts(y, ny), total, rule.p_y.probs)
    decisions = np.where(x_ok & y_ok, ACCEPT, REJECT).astype(np.int64)
    stop = np.full(trials, n, dtype=np.int64)

    if config.policy_kind is PolicyKind.EARLY_DECIDE and n > 1:
        # Per-round cumulative y counts drive the early-reject scan; this
        # trajectory work is skipped entirely for the fixed-horizon policy.
        y_counts = _symbol_counts(y.reshape(trials, n, k), ny).cumsum(axis=1)[:, : n - 1]
        round_totals = (np.arange(1, n) * k)[:, None]
        margins = rule.reject_margins[:, None]
        early = ~rule.typical(y_counts, round_totals, rule.p_y.probs, margins)
        any_early = early.any(axis=1)
        first = np.argmax(early, axis=1) + 1
        stop = np.where(any_early, first, stop)
        decisions = np.where(any_early, REJECT, decisions)
    return decisions, stop

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
import numbers
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
    _symbols,
    count_type_vectors,
    empirical_type,
    marginals,
)
from .rng import categorical_cdf, categorical_thresholds, uniform_ints


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
        horizon. It ignores how few samples round t has seen, so early rounds
        reject the null by sampling noise alone: with P = [[.81, .09],
        [.09, .01]], k = 2, N = 2000 and the default eta, exact alpha is 0.21
        against an epsilon of 0.05 (the fixed horizon gives 0).
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
        payload = self.payload
        if type(payload) is not int:
            if isinstance(payload, EmpiricalType):
                return
            # Any other integer type (numpy's too) is stored as a Python int;
            # a bool is not a bit (numpy's bool is not Integral).
            if isinstance(payload, bool) or not isinstance(payload, numbers.Integral):
                raise InconsistentMessages(
                    f"payload must be a 0/1 bit or an EmpiricalType, got {payload!r}"
                )
            payload = int(payload)
            object.__setattr__(self, "payload", payload)
        if payload not in (0, 1):
            raise InconsistentMessages(f"bit payload must be 0 or 1, got {payload!r}")


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
        return self.config.reject_margin(np.arange(1, self.config.n))

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
            margin = config.reject_margin(t)
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


def _replay(rule: _DecisionRule, x: np.ndarray, y: np.ndarray):
    """Play the protocol on checked int64 symbol arrays until the policy stops
    or the samples run out.

    Returns each round's verdict, the running x counts (row t-1: the count of
    each symbol in the first t*k samples) and each round's x-typicality bit,
    for the rounds played. Round t's verdict is the one ``decide`` gives on the
    length-t*k prefixes, and its message the one ``encode`` gives (the bit, or
    an ``EmpiricalType`` of the counts row). One cumsum yields every round's
    counts, so a replay is O(n k).
    """
    config, p_x, p_y = rule.config, rule.p_x, rule.p_y
    k, n = config.k, config.n
    nx, ny = p_x.alphabet.size, p_y.alphabet.size
    rounds = min(len(x) // k, n)
    samples = rounds * k
    seen = np.concatenate(
        (x[:samples, None] == np.arange(nx), y[:samples, None] == np.arange(ny)), axis=1
    )
    counts = seen.cumsum(axis=0)[k - 1 :: k]
    totals = k * np.arange(1, rounds + 1)[:, None]
    x_counts = counts[:, :nx]
    x_ok = rule.typical(x_counts, totals, p_x.probs)

    verdicts: list[int | None] = [CONTINUE] * rounds
    checked = min(rounds, n - 1) if config.policy_kind is PolicyKind.EARLY_DECIDE else 0
    if checked:
        y_fine = rule.typical(
            counts[:checked, nx:], totals[:checked], p_y.probs, rule.reject_margins[:checked, None]
        ).tolist()
        if False in y_fine:
            played = y_fine.index(False) + 1
            return verdicts[: played - 1] + [REJECT], x_counts[:played], x_ok[:played]
    if rounds == n:
        y_ok = rule.typical(counts[-1, nx:], n * k, p_y.probs)
        verdicts[-1] = ACCEPT if (x_ok[-1] and y_ok) else REJECT
    return verdicts, x_counts, x_ok


def run_protocol(config: ProtocolConfig, p_null: JointPmf, source: SourceModel) -> Trace:
    """Execute one full run: sample, encode, decide, feed back, stop.

    ``p_null`` is the null joint the decision rule tests against; the source
    draws from whichever joint its hypothesis dictates. Deterministic in
    (config, p_null, source): replaying the same seed yields an identical
    trace. The whole horizon is drawn at once through the integer-threshold
    sampler ``simulate_batch`` uses (draw i is the number of thresholds its
    53-bit integer reaches; see ``seqht.rng``). Being addressed by counter,
    the rounds played see the samples a round-by-round draw would. The drawn
    symbols lie in the alphabets by construction and go to the replay
    unchecked.
    """
    if source.joint.probs.shape != p_null.probs.shape:
        raise LengthMismatch(
            f"source joint shape {source.joint.probs.shape} does not match "
            f"null joint shape {p_null.probs.shape}"
        )
    rule = _DecisionRule(config, *marginals(p_null))
    thresholds = categorical_thresholds(categorical_cdf(source.joint.probs.ravel()))
    counters = np.arange(config.total_samples, dtype=np.uint64)
    draws = (uniform_ints(np.uint64(source.rng_seed), counters) >= thresholds[:, None]).sum(axis=0)
    x, y = np.divmod(draws, source.joint.alphabet_y.size)
    verdicts, x_counts, x_ok = _replay(rule, x, y)
    t = len(verdicts)
    if config.encoder_kind is EncoderKind.ONE_BIT:
        payloads = x_ok.astype(np.int64).tolist()
    else:
        payloads = [EmpiricalType(c, rule.p_x.alphabet) for c in x_counts]
    played = t * config.k
    return Trace(
        stopping_time=t,
        messages=tuple(Message(step=s, payload=p) for s, p in enumerate(payloads, 1)),
        feedback_bits=(1,) * (t - 1) + (0,),
        decision=verdicts[-1],
        x_seq=tuple(x[:played].tolist()),
        y_seq=tuple(y[:played].tolist()),
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
    induces on them; anything shorter or longer is a caller error. Symbols
    are checked against the alphabets once, up front.
    """
    if len(x_full) != len(y_full):
        raise BadLength(f"sequence lengths differ: {len(x_full)} vs {len(y_full)}")
    _blocked_length(config, len(x_full))
    rule = _DecisionRule(config, *marginals(p_null))
    x = _symbols(x_full, rule.p_x.alphabet)
    y = _symbols(y_full, rule.p_y.alphabet)
    verdicts = _replay(rule, x, y)[0]
    if verdicts[-1] is CONTINUE:
        raise BadLength(
            f"policy does not stop within {len(x_full)} samples (needs up to {config.total_samples})"
        )
    stop = len(verdicts) * config.k
    if len(x_full) != stop:
        raise BadLength(f"protocol stops after {stop} samples but {len(x_full)} were supplied")
    return verdicts[-1] == ACCEPT


# Samples per trial drawn in one block of simulate_batch, rounded down to
# whole rounds (at least one). On a 16,384-trial Monte Carlo chunk at N=2000
# (2 MB L2 cache per core), blocks of 8 or 16 samples took 0.32-0.35 s and
# blocks of 32, whose 4 MB draw arrays spill the cache, 0.64 s; with few
# trials, small blocks cost more in per-block overhead.
_BLOCK_SAMPLES = 16


def _marginal_counts(above: np.ndarray, total, shape: tuple[int, int]):
    """x and y symbol counts, symbols last, from ``above[j]``: the number of
    draws with m >= T_j (axis 0 runs over the cells-1 thresholds).

    ``total`` is the number of draws and broadcasts against ``above[0]``.
    Draws of cell i number above[i-1] - above[i], with above[-1] = total and
    above[cells-1] = 0.
    """
    cells = np.zeros((len(above) + 1,) + above.shape[1:], dtype=np.int64)
    cells[0] = total
    cells[:-1] -= above
    cells[1:] += above
    cells = cells.reshape(shape + above.shape[1:])
    return np.moveaxis(cells.sum(axis=1), 0, -1), np.moveaxis(cells.sum(axis=0), 0, -1)


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

    The horizon streams in blocks of whole rounds (about ``_BLOCK_SAMPLES``
    draws per trial), so memory is O(trials x cells) at any horizon. A draw
    is never turned into a float or a symbol: with m its 53-bit integer and
    T_j the integer thresholds of the joint's cdf, cdf[j] <= m * 2**-53
    exactly when T_j <= m (see ``seqht.rng``), so counting m >= T_j per trial
    yields the joint type the scalar protocol sees, and from it both
    marginals. Early-decide checks the y-marginal after each round of a
    block and stops drawing for trials it has rejected; counter addressing
    keeps every other trial's draws unchanged.
    """
    if joint.probs.shape != p_null.probs.shape:
        raise LengthMismatch("source joint shape does not match null joint shape")
    seeds = np.asarray(seeds, dtype=np.uint64)
    n, k = config.n, config.k
    shape = joint.probs.shape
    rule = _DecisionRule(config, *marginals(p_null))
    thresholds = categorical_thresholds(categorical_cdf(joint.probs.ravel()))[:, None, None]
    early = config.policy_kind is PolicyKind.EARLY_DECIDE
    block = max(1, _BLOCK_SAMPLES // k)

    decisions = np.full(seeds.shape[0], REJECT, dtype=np.int64)
    stops = np.full(seeds.shape[0], n, dtype=np.int64)
    live = np.arange(seeds.shape[0])  # trials still drawing
    above = np.zeros((thresholds.shape[0], live.size), dtype=np.int64)
    for t0 in range(0, n, block):
        rounds = min(block, n - t0)
        counters = np.arange(t0 * k, (t0 + rounds) * k, dtype=np.uint64)[:, None]
        hits = uniform_ints(seeds, counters) >= thresholds  # threshold, draw, trial
        if not early:
            above += hits.sum(axis=1)
            continue
        # Counts through each round of the block, then the early-reject check
        # of the rounds before the horizon.
        through = hits.reshape(len(hits), rounds, k, live.size).sum(axis=2)
        through[:, 0] += above
        for i in range(1, rounds):  # a prefix sum; np.cumsum on this axis is ~10x slower
            through[:, i] += through[:, i - 1]
        above = through[:, -1]
        checked = min(rounds, n - 1 - t0)
        totals = k * np.arange(t0 + 1, t0 + 1 + checked)[:, None]
        _, y = _marginal_counts(through[:, :checked], totals, shape)
        margins = rule.reject_margins[t0 : t0 + checked, None, None]
        rejected = ~rule.typical(y, totals[..., None], rule.p_y.probs, margins)
        out = rejected.any(axis=0)
        if out.any():
            stops[live[out]] = t0 + 1 + rejected[:, out].argmax(axis=0)
            live, seeds, above = live[~out], seeds[~out], above[:, ~out]

    x, y = _marginal_counts(above, n * k, shape)
    accept = rule.typical(x, n * k, rule.p_x.probs) & rule.typical(y, n * k, rule.p_y.probs)
    decisions[live[accept]] = ACCEPT
    return decisions, stops

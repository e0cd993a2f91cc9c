"""Sensor/decision-center protocol with one-bit stop feedback.

One round t: the sensor holds x^{tk} (k fresh samples per request), compresses
it to a zero-rate message, and the decision center combines that message with
its own y^{tk} into a verdict in {accept null, reject null, continue}. A
feedback bit of 1 requests another round; 0 stops. The stopping time is the
number of rounds until the first non-continue verdict.

The decision rule is marginal typicality with margin eta: accept iff every
symbol s of both empirical marginals has |count_s/N - p_s| <= eta, on raw
integer counts with no renormalisation. The counts that pass that float test
form an integer window [lo, hi] per symbol, so ``_DecisionRule`` compiles the
rule once per (config, null pmf) into a table of windows, each end stepped
onto the float test's boundary, and keeps it on the pmf. The scalar protocol
then compares Python ints, and the batch simulator and the exact evaluators
read their masks off the same table. Both encoders (a single typicality
bit, or the full empirical type) induce the same acceptance region; the
fixed-horizon policy always decides at round n, while the early-decide
policy may reject sooner on a widened margin.

Every verdict depends on the observations only through their empirical types,
and indeed only through their marginal counts, which is what makes exact
error evaluation over counts possible; see the evaluation module.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from collections.abc import Sequence

import numpy as np

from .errors import (
    AlphabetMismatch,
    BadLength,
    InconsistentMessages,
    InvalidConfig,
    LengthMismatch,
    _integer,
    _real,
)
from .prob import (
    EmpiricalType,
    JointPmf,
    Pmf,
    _require_same_shape,
    _symbol_list,
    _tally,
    marginals,
)
from .rng import random_bits_into, uniform_ints


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


def _member(name: str, kind: type[Enum], value) -> Enum:
    """``kind(value)``, or ``InvalidConfig`` naming ``name`` and the allowed values."""
    try:
        return kind(value)
    except ValueError:
        allowed = ", ".join(repr(m.value) for m in kind)
        raise InvalidConfig(f"{name} must be one of {allowed}, got {value!r}") from None


@dataclass(frozen=True)
class ProtocolConfig:
    """Static parameters of one protocol instance.

    ``n`` bounds the number of rounds (both policies guarantee T <= n, so the
    expected stopping time meets its budget with certainty), ``k`` is the
    samples-per-round block size, ``eta`` the typicality margin, and
    ``epsilon`` a type-I error budget that is validated and stored but that
    no library code reads: nothing calibrates ``eta`` to it or checks alpha
    against it. ``eta >= 1`` is legal and makes every sequence typical. Both
    are kept as Python floats, so ``reject_margin`` computes in float64 as
    the windows do.
    """

    k: int
    n: int
    eta: float
    encoder_kind: EncoderKind = EncoderKind.ONE_BIT
    policy_kind: PolicyKind = PolicyKind.FIXED_HORIZON
    epsilon: float = 0.05

    def __post_init__(self):
        for name in ("k", "n"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        for name in ("eta", "epsilon"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        if not (self.eta > 0):
            raise InvalidConfig(f"eta must be > 0, got {self.eta}")
        if not (0.0 < self.epsilon < 1.0):
            raise InvalidConfig(f"epsilon must lie in (0, 1), got {self.epsilon}")
        for name, kind in (("encoder_kind", EncoderKind), ("policy_kind", PolicyKind)):
            object.__setattr__(self, name, _member(name, kind, getattr(self, name)))

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
    the unrelaxed optimum. Nothing checks the resulting alpha against
    ``ProtocolConfig.epsilon``; a caller who needs alpha <= epsilon must
    compare an exact or Monte Carlo alpha with it.
    """
    total = n * k
    if total < 2:
        return 1.0
    return max(0.05, 2.0 * math.sqrt(math.log(total) / total))


@dataclass(frozen=True)
class Message:
    """One round's sensor output: a typicality bit or the full empirical type."""

    step: int
    payload: int | EmpiricalType

    def __post_init__(self):
        if type(self.step) is not int:
            object.__setattr__(self, "step", _integer("message step", self.step))
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
        object.__setattr__(self, "hypothesis", _member("hypothesis", Hypothesis, self.hypothesis))
        if not isinstance(self.joint, JointPmf):
            raise InvalidConfig(f"source joint must be a JointPmf, got {type(self.joint).__name__}")
        seed = _integer("rng_seed", self.rng_seed, positive=False)
        object.__setattr__(self, "rng_seed", seed & 0xFFFFFFFFFFFFFFFF)


@dataclass(frozen=True)
class Trace:
    """Complete record of one protocol run: one message per round played,
    the final decision, and the samples drawn for those rounds.

    The stopping time T is the number of messages. The feedback after round
    t is 1 (more samples) for t < T and 0 (stop) at T, and every verdict
    before T is CONTINUE, so both records follow from T and the decision.
    """

    messages: tuple[Message, ...]
    decision: int
    x_seq: tuple[int, ...]
    y_seq: tuple[int, ...]

    def __post_init__(self):
        if not self.messages:
            raise InvalidConfig("a trace needs at least one message (stopping time >= 1)")
        if self.decision not in (ACCEPT, REJECT):
            raise InvalidConfig(f"final decision must be 0 or 1, got {self.decision!r}")
        if len(self.x_seq) != len(self.y_seq):
            raise LengthMismatch("x and y observation records must have equal length")

    @property
    def stopping_time(self) -> int:
        return len(self.messages)

    @property
    def feedback_bits(self) -> tuple[int, ...]:
        """The bit sent after each round: T-1 ones, then the stopping zero."""
        return (1,) * (self.stopping_time - 1) + (0,)

    @property
    def per_step_verdicts(self) -> tuple[int | None, ...]:
        return (CONTINUE,) * (self.stopping_time - 1) + (self.decision,)


def _blocked_length(config: ProtocolConfig, length: int) -> int:
    if length < config.k or length % config.k != 0:
        raise BadLength(
            f"prefix length {length} is not a positive multiple of k={config.k}"
        )
    return length // config.k


@dataclass(frozen=True)
class _DecisionRule:
    """The decision center's rule for one (config, null marginals), compiled
    into a table of integer count windows.

    Symbol s passes on N samples when |c/N - p_s| <= margin for its raw
    count c. Float division by a positive N is monotone in c, and so is
    subtracting p_s, so the counts that pass form one interval [lo, hi], the
    symbol's window (empty when lo > hi). ``windows`` finds each end from the
    estimate N(p_s -/+ margin), stepping one count at a time until the float
    test holds at the end and fails just past it, so a window costs O(1)
    tests and every verdict read off the table is the float test's, bit for
    bit. The float test itself is a test oracle (``tests/_oracles.py``): no
    verdict computes it.

    The table has three parts, each built on first use: ``horizon`` and
    ``x_rounds`` (lists of Python ints, for the scalar compares and the
    one-bit messages), and ``y_early`` (an int64 array of n - 1 rows, 16
    bytes per symbol and round), which the scalar readers turn into lists row
    by row and the batch simulator reads recast as ``y_checks``. ``_rule``
    keeps one rule per config on the null pmf. ``p_y`` is None for a
    sensor-side rule that only encodes.
    """

    config: ProtocolConfig
    p_x: Pmf
    p_y: Pmf | None = None

    @cached_property
    def reject_margins(self) -> np.ndarray:
        """Early-reject margins of rounds 1..n-1."""
        return self.config.reject_margin(np.arange(1, self.config.n))

    def windows(self, totals, target, margin=None) -> np.ndarray:
        """The window of the counts c that pass the float test
        |c / totals - target| <= margin (eta unless given), as [lo, hi] on a
        last axis, the arguments broadcast.

        The test is -margin <= c/N - p <= margin, each half monotone in c: lo
        is the least count 0..N meeting the first (N + 1 if none does) and hi
        the greatest meeting the second (-1 if none does).
        """
        margin = self.config.eta if margin is None else margin
        totals, target, margin = np.broadcast_arrays(totals, target, margin)
        lo = np.clip(np.ceil(totals * (target - margin)), 0, totals + 1).astype(np.int64)
        hi = np.clip(np.floor(totals * (target + margin)), -1, totals).astype(np.int64)
        # The estimates are off by a count at most; the loops run once or twice.
        while (up := (lo <= totals) & (lo / totals - target < -margin)).any():
            lo += up
        while (down := (lo > 0) & ((lo - 1) / totals - target >= -margin)).any():
            lo -= down
        while (down := (hi >= 0) & (hi / totals - target > margin)).any():
            hi -= down
        while (up := (hi < totals) & ((hi + 1) / totals - target <= margin)).any():
            hi += up
        return np.stack((lo, hi), axis=-1)

    @cached_property
    def horizon(self) -> list:
        """[x windows, y windows] at eta over the N samples of round n."""
        total = self.config.total_samples
        return [self.windows(total, pmf.probs).tolist() for pmf in (self.p_x, self.p_y)]

    @cached_property
    def x_rounds(self) -> list:
        """Row t-1: the x windows at eta over t*k samples, t = 1..n (the
        one-bit message of round t)."""
        totals = self.config.k * np.arange(1, self.config.n + 1)[:, None]
        return self.windows(totals, self.p_x.probs).tolist()

    @cached_property
    def y_early(self) -> np.ndarray:
        """Row t-1: the y windows at round t's reject margin over t*k
        samples, t = 1..n-1 (early-decide's reject test)."""
        totals = self.config.k * np.arange(1, self.config.n)[:, None]
        return self.windows(totals, self.p_y.probs, self.reject_margins[:, None])

    @cached_property
    def y_checks(self) -> tuple[np.ndarray, np.ndarray]:
        """``y_early`` as (base, width), for counts held in the narrowest
        signed type that fits -(N + 1): row c, round t - 1 passes when
        0 <= count - base <= width, which one unsigned compare tests.

        The rows check the counts of y symbols 1..ny-1 and their sum S, since
        symbol 0 has t*k - S; with two symbols, S is symbol 1's count and the
        two rows fold into one. An empty window gets base -1 and width 0,
        which no count passes.
        """
        k, n = self.config.k, self.config.n
        lo, hi = self.y_early.T  # lo[s, t - 1]
        totals = k * np.arange(1, n)
        lo, hi = np.vstack((lo[1:], totals - hi[0])), np.vstack((hi[1:], totals - lo[0]))
        if len(lo) == 2:
            lo, hi = lo.max(axis=0, keepdims=True), hi.min(axis=0, keepdims=True)
        empty = hi < lo
        wide = np.min_scalar_type(-(n * k + 1))
        base = np.where(empty, -1, lo).astype(wide)
        width = np.where(empty, 0, hi - lo).astype(wide.str.replace("i", "u"))
        return base[..., None], width[..., None]

    @cached_property
    def horizon_checks(self) -> list[tuple[list[int], list[int], int, int]]:
        """The horizon windows as checks on the counts the fixed-horizon
        batch simulator keeps, ``above`` (see ``_cell_counts``): for each
        (adds, subs, low, high), after d of the N draws, the count
        sum(above[adds]) - sum(above[subs]) of a trial that can still end
        inside every window lies in [low + d, high].

        Counts only grow, so symbol s's count c can end in [lo, hi] only if
        lo - (N - d) <= c <= hi. The checks read the counts of x symbols
        1..nx-1, their sum S, and the same for y, since symbol 0 has d - S,
        which can end in its window only if d - hi <= S <= N - lo; with two
        symbols, S is symbol 1's count and the two checks fold into one, as
        in ``y_checks``. A one-symbol axis gets none: its count ends at N,
        inside any window that is not empty. An empty window becomes
        [N + 1, -1], which no count can reach.
        """
        total = self.config.total_samples
        ny = self.p_y.probs.size
        cell = np.arange(self.p_x.probs.size * ny)
        checks = []
        for windows, symbol in zip(self.horizon, (cell // ny, cell % ny)):
            if len(windows) == 1:
                continue
            lo, hi = zip(*((total + 1, -1) if a > b else (a, b) for a, b in windows))
            # (cells, low, high) for symbols 1..m-1, then for their sum.
            rows = [(symbol == s, lo[s] - total, hi[s]) for s in range(1, len(lo))]
            rows.append((symbol > 0, -hi[0], total - lo[0]))
            if len(rows) == 2:
                (cells, low, high), (_, low0, high0) = rows
                rows = [(cells, max(low, low0), min(high, high0))]
            for cells, low, high in rows:
                # The draws of a cell set are the sum over its cells c of
                # above[c - 1] - above[c]; no set holds cell 0, so no term
                # is constant.
                step = np.diff(cells.astype(np.int8))
                checks.append((np.flatnonzero(step > 0).tolist(), np.flatnonzero(step < 0).tolist(), low, high))
        return checks

    def settled(self, above: np.ndarray, drawn: int) -> np.ndarray:
        """Which fixed-horizon trials must reject, given their ``above``
        after ``drawn`` of the N draws (see ``horizon_checks``)."""
        out = np.zeros(above.shape[1], dtype=bool)
        count = np.empty(above.shape[1], dtype=np.int64)
        for adds, subs, low, high in self.horizon_checks:
            base = low + drawn
            if high < base:
                out[:] = True
                break
            # One unsigned compare tests both ends, as in ``y_checks``.
            np.subtract(above[adds[0]], base, out=count)
            for j in adds[1:]:
                count += above[j]
            for j in subs:
                count -= above[j]
            out |= count.view(np.uint64) > high - base
        return out


def _rule(config: ProtocolConfig, null: JointPmf | Pmf) -> _DecisionRule:
    """The rule of ``config`` against a null joint, or against an x marginal
    for the sensor alone, built once per (config, pmf) and kept on the pmf.
    Threads racing to build the same rule keep the first one stored."""
    rule = null._rules.get(config)
    if rule is None:
        pmfs = marginals(null) if isinstance(null, JointPmf) else (null,)
        rule = null._rules.setdefault(config, _DecisionRule(config, *pmfs))
    return rule


def _inside(counts: Sequence[int], windows: Sequence[Sequence[int]]) -> bool:
    """Whether every count lies in its symbol's window [lo, hi]."""
    for c, (lo, hi) in zip(counts, windows):
        if not lo <= c <= hi:
            return False
    return True


def _payload(rule: _DecisionRule, t: int, x_counts: list[int]) -> int | EmpiricalType:
    """Round t's message payload for the x counts of its t*k samples: the
    typicality bit, or the type itself."""
    if rule.config.encoder_kind is EncoderKind.ONE_BIT:
        return int(_inside(x_counts, rule.x_rounds[t - 1]))
    return EmpiricalType(x_counts)


def encode(config: ProtocolConfig, x_prefix: Sequence[int], p_x: Pmf) -> Message:
    """Sensor compression of everything observed by round t <= n.

    One-bit: sends 1 iff the empirical x-type is typical for the null
    marginal. Full-type: sends the empirical type itself. A prefix past the
    horizon raises ``InvalidConfig``, as ``decide`` does.
    """
    t = _blocked_length(config, len(x_prefix))
    if t > config.n:
        raise InvalidConfig(f"round {t} beyond the horizon n={config.n}")
    return Message(step=t, payload=_payload(_rule(config, p_x), t, _tally(x_prefix, p_x.probs.size)))


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
    A round below 1, or one that is not an integer, raises ``InvalidConfig``.
    """
    if type(t) is not int or t < 1:
        t = _integer("round", t)
    rule = _rule(config, p_joint)
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
            y_counts = _tally(y_prefix, rule.p_y.probs.size)
            if not _inside(y_counts, rule.y_early[t - 1].tolist()):
                return REJECT
        return CONTINUE
    if t > config.n:
        raise InvalidConfig(f"round {t} beyond the horizon n={config.n}")

    x_windows, y_windows = rule.horizon
    y_ok = _inside(_tally(y_prefix, rule.p_y.probs.size), y_windows)
    if config.encoder_kind is EncoderKind.ONE_BIT:
        if not isinstance(payload, int):
            raise InconsistentMessages("one-bit decider received a non-bit payload")
        x_ok = payload == 1
    else:
        if not isinstance(payload, EmpiricalType):
            raise InconsistentMessages("full-type decider received a non-type payload")
        if payload.counts.shape != rule.p_x.probs.shape:
            raise AlphabetMismatch(
                f"full-type payload has {payload.counts.size} counts for {rule.p_x.probs.size} x symbols"
            )
        x_ok = _inside(payload.counts.tolist(), x_windows)
    return ACCEPT if (x_ok and y_ok) else REJECT


def _replay(rule: _DecisionRule, x: Sequence[int], y: Sequence[int]):
    """Play the protocol on checked symbol sequences of Python ints until the
    policy stops or the samples run out.

    Returns each round's verdict and the running x counts of each round
    played (row t-1: the count of each symbol in the first t*k samples).
    Round t's verdict is the one ``decide`` gives on the length-t*k
    prefixes; its message is the one ``encode`` gives, the counts row or its
    x-window test. Counts run on, so a replay is O(n k).
    """
    config = rule.config
    k, n = config.k, config.n
    rounds = min(len(x) // k, n)
    early = rule.y_early[:rounds].tolist() if config.policy_kind is PolicyKind.EARLY_DECIDE else ()
    x_counts = [0] * rule.p_x.probs.size
    y_counts = [0] * rule.p_y.probs.size
    rows = []
    for t in range(rounds):
        for s in x[t * k : t * k + k]:
            x_counts[s] += 1
        for s in y[t * k : t * k + k]:
            y_counts[s] += 1
        rows.append(x_counts.copy())
        if t < len(early) and not _inside(y_counts, early[t]):
            return [CONTINUE] * t + [REJECT], rows
    verdicts: list[int | None] = [CONTINUE] * rounds
    if rounds == n:
        x_windows, y_windows = rule.horizon
        accept = _inside(x_counts, x_windows) and _inside(y_counts, y_windows)
        verdicts[-1] = ACCEPT if accept else REJECT
    return verdicts, rows


def run_protocol(config: ProtocolConfig, p_null: JointPmf, source: SourceModel) -> Trace:
    """Execute one full run: sample, encode, decide, feed back, stop.

    ``p_null`` is the null joint the decision rule tests against; the source
    draws from whichever joint its hypothesis dictates. Deterministic in
    (config, p_null, source): replaying the same seed yields an identical
    trace. The whole horizon is drawn at once through the integer-threshold
    sampler ``simulate_batch`` uses (draw i is the number of thresholds its
    53-bit integer reaches; see ``seqht.rng``). Being addressed by counter,
    the rounds played see the samples a round-by-round draw would. The drawn
    symbols are in range by construction and go to the replay unchecked.
    """
    _require_same_shape(p_null, source.joint, JointPmf)
    rule = _rule(config, p_null)
    counters = np.arange(config.total_samples, dtype=np.uint64)
    m = uniform_ints(np.uint64(source.rng_seed), counters)
    # The thresholds are sorted, so the count of those m reaches is a search.
    draws = np.searchsorted(source.joint._thresholds, m, side="right")
    x, y = (v.tolist() for v in np.divmod(draws, source.joint.probs.shape[1]))
    verdicts, x_counts = _replay(rule, x, y)
    t = len(verdicts)
    played = t * config.k
    if config.encoder_kind is EncoderKind.ONE_BIT:
        payloads = [_payload(rule, s, c) for s, c in enumerate(x_counts, 1)]
    else:
        # The replay's counts are valid types: one read-only array, one row each.
        counts = np.array(x_counts, dtype=np.int64)
        counts.setflags(write=False)
        payloads = [EmpiricalType._unchecked(row) for row in counts]
    return Trace(
        messages=tuple(Message(step=s, payload=c) for s, c in enumerate(payloads, 1)),
        decision=verdicts[-1],
        x_seq=tuple(x[:played]),
        y_seq=tuple(y[:played]),
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
    are checked against the null's shape once, up front.
    """
    if len(x_full) != len(y_full):
        raise BadLength(f"sequence lengths differ: {len(x_full)} vs {len(y_full)}")
    _blocked_length(config, len(x_full))
    rule = _rule(config, p_null)
    x = _symbol_list(x_full, rule.p_x.probs.size)
    y = _symbol_list(y_full, rule.p_y.probs.size)
    verdicts = _replay(rule, x, y)[0]
    if verdicts[-1] is CONTINUE:
        raise BadLength(
            f"policy does not stop within {len(x_full)} samples (needs up to {config.total_samples})"
        )
    stop = len(verdicts) * config.k
    if len(x_full) != stop:
        raise BadLength(f"protocol stops after {stop} samples but {len(x_full)} were supplied")
    return verdicts[-1] == ACCEPT


# Draws (trials x samples) per tile of simulate_batch, rounded down to whole
# rounds (at least one, at most the horizon). A tile's two uint64 buffers
# then take 1 MB and stay in a 2 MB L2 cache: on 16,384 trials, hashing tiles
# of 16 draws per trial took 5.5 ns per draw, tiles of 2 or 4 took 2.5 ns,
# and a 16,384-trial chunk at N = 2000 ran about 10% faster with 4 than 2.
# Early-decide checks every round of a tile once the tile is counted, so each
# of its ufunc calls spans a whole tile too. Shorter calls lose on threads: on
# a 2-vCPU host, an int16 add over 4K-64K elements (1-7 us a call) ran at
# 0.5-0.7x on two threads against one, and over 256K (24 us) at 1.4x.
_TILE_DRAWS = 65_536

# Draws per trial between the fixed horizon's settled-reject checks, rounded
# down to whole tiles (at least one). Any interval gives the same outcomes;
# it trades the checks' cost on trials that never settle against draws of
# trials that already have. On 16,384-trial chunks of the benchmark pair
# (null plus uniform alternative, 2-vCPU host), checks every 16, 32, 64 and
# 128 draws cut the time by 14-23%, 22-25%, 24-34% and 11% at N = 200, and
# by 28-30%, 30-31%, 30-35% and 38% at N = 2000.
_SETTLE_DRAWS = 64


class _DrawTiles:
    """Buffers to hash and count one tile of draws at a time, allocated once.

    ``words`` holds each threshold T_j < 2**53 as the raw word T_j << 11; a
    threshold of 2**53 is never reached and gets no word (see ``seqht.rng``).
    Tiles have at most ``rows`` draws per trial, for at most ``trials``
    trials. Hits are summed over the whole tile, in uint8 when it has fewer
    than 256 draws per trial.

    Given ``ny``, the same compares also give each draw's y symbol. The cells
    run row by row, so a draw's cell is the number of thresholds it reaches,
    and reaching T_j moves its y symbol up by one, or back by ny - 1 where
    cell j ends a joint row ((j + 1) % ny == 0). Those steps wrap in the
    unsigned code and add up to the symbol.
    """

    def __init__(self, thresholds: np.ndarray, trials: int, rows: int, ny: int | None = None):
        self.words = thresholds[thresholds < 2**53] << np.uint64(11)
        size = rows * trials
        self.bits = np.empty(size, dtype=np.uint64)
        self.scratch = np.empty(size, dtype=np.uint64)
        self.hits = np.empty(size, dtype=np.bool_)
        self.partial = np.empty(trials, dtype=np.uint8 if rows < 256 else np.int64)
        self.ny = ny
        self.codes = None if ny is None else np.empty(size, dtype=np.min_scalar_type(ny - 1))
        self.back = np.empty_like(self.codes) if ny and ny > 2 else None

    def add_counts(self, seeds: np.ndarray, start: int, rows: int, out: np.ndarray) -> np.ndarray | None:
        """Add to ``out[j]`` the number of draws with word >= ``words[j]``,
        for the tile of counters start..start+rows-1 of each trial (trials
        last), and return the tile's y codes (None without ``ny``)."""
        trials = seeds.size
        size = rows * trials
        bits = self.bits[:size].reshape(rows, trials)
        random_bits_into(seeds, start, bits, self.scratch[:size].reshape(rows, trials))
        hits = self.hits[:size].reshape(rows, trials)
        ones = hits.view(np.uint8)
        partial = self.partial[:trials]
        codes = back = None
        if self.codes is not None:
            codes = self.codes[:size].reshape(rows, trials)
            codes.fill(0)
        if self.back is not None:
            back = self.back[:size].reshape(rows, trials)
            step_back = codes.dtype.type(self.ny - 1)
        for j, word in enumerate(self.words):
            np.greater_equal(bits, word, out=hits)
            np.add.reduce(ones, axis=0, out=partial)
            out[j] += partial
            if codes is None:
                continue
            if (j + 1) % self.ny:
                codes += ones
            elif back is not None:
                codes -= np.multiply(ones, step_back, out=back)
            elif self.ny == 2:
                codes -= ones
        return codes


def _cell_counts(above: np.ndarray, total, shape: tuple[int, int]) -> np.ndarray:
    """Joint cell counts, cells first in the joint's shape, from ``above[j]``:
    the number of draws with word >= T_j << 11 (axis 0 runs over the cells-1
    thresholds).

    ``total`` is the number of draws and broadcasts against ``above[0]``.
    Draws of cell i number above[i-1] - above[i], with above[-1] = total and
    above[cells-1] = 0.
    """
    cells = np.empty((len(above) + 1,) + above.shape[1:], dtype=np.int64)
    cells[0] = total
    cells[1:] = above
    cells[:-1] -= above
    return cells.reshape(shape + above.shape[1:])


def _stream_counts(
    rule: _DecisionRule, seeds: np.ndarray, thresholds: np.ndarray, tile: int, stops: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Hash and count the horizon ``tile`` rounds at a time. Returns the
    trials still drawing at round n and their ``above`` (see
    ``_cell_counts``).

    Under early-decide, each tile's y codes give the running y counts of its
    rounds, which are checked against their windows (``rule.y_early``) for
    every round before the horizon. A rejected trial gets its stopping round
    in ``stops`` and is compacted out, so it draws no more.

    Under the fixed horizon, the counts in ``above`` are checked every
    ``_SETTLE_DRAWS`` draws per trial against what can still end in the
    horizon windows (``rule.settled``). A trial that must reject is
    compacted out the same way; it keeps its stop at round n. Trials whose
    accept is certain keep drawing: their full counts stay available, and
    an accept can only be certain in the last few rounds.
    """
    n, k = rule.config.n, rule.config.k
    ny = rule.p_y.probs.size
    early = rule.config.policy_kind is PolicyKind.EARLY_DECIDE and n > 1
    rows = tile * k
    tiles = _DrawTiles(thresholds, seeds.size, rows, ny if early else None)
    live = np.arange(seeds.size)  # trials still drawing
    above = np.zeros((thresholds.size, seeds.size), dtype=np.int64)
    # Tiles add up in uint8, moved into ``above`` before they could wrap:
    # adding each tile straight into int64 made a 16,384-trial chunk 11%
    # slower (11 us per tile and threshold, against 26 us for the compare).
    # The fixed horizon's checks read ``above``, so they flush the sums, and
    # as _SETTLE_DRAWS < 256 the sums then never get near a wrap.
    per_flush = 255 // rows
    every = max(1, _SETTLE_DRAWS // rows)  # tiles between fixed-horizon checks
    if per_flush and not early:
        per_flush = every
    sums = np.zeros((thresholds.size, seeds.size), dtype=np.uint8) if per_flush else above
    if early:
        base, width = rule.y_checks
        per_round = np.uint8 if k < 256 else base.dtype
        y = np.zeros((ny - 1, seeds.size), dtype=base.dtype)  # counts of y symbols 1..ny-1 so far
    for i, t0 in enumerate(range(0, n, tile), 1):
        r = min(tile, n - t0)
        codes = tiles.add_counts(seeds, t0 * k, r * k, sums)
        if per_flush and (i % per_flush == 0 or t0 + tile >= n):
            above += sums
            sums[:] = 0
        if not early:
            if i % every or t0 + tile >= n:
                continue
            out = rule.settled(above, (t0 + r) * k)
        else:
            checked = min(r, n - 1 - t0)  # rounds of the tile before the horizon
            if checked < 1:
                continue
            # run[s - 1, i]: the count of y symbol s through round t0 + i + 1.
            # Each round's counts are summed in uint8, then added up over the
            # tile's rounds in log2(checked) passes (cumsum over that axis ran
            # 30x slower on 16,384 trials). Symbol 0 is checked through the sum
            # of the others (see ``rule.y_checks``).
            by_round = codes[: checked * k].reshape(checked, k, live.size)
            run = np.empty((len(base), checked, live.size), dtype=base.dtype)
            for s in range(1, ny):
                ones = by_round if ny == 2 else (by_round == s).view(np.uint8)  # two symbols: the code is 0/1
                run[s - 1] = np.add.reduce(ones, axis=1, dtype=per_round)
            run[: ny - 1, 0] += y
            d = 1
            while d < checked:
                run[: ny - 1, d:] += run[: ny - 1, :-d]
                d *= 2
            if ny != 2:
                np.add.reduce(run[: ny - 1], axis=0, out=run[-1])
            y = run[: ny - 1, -1]
            window = slice(t0, t0 + checked)
            outside = np.subtract(run, base[:, window]).view(width.dtype) > width[:, window]
            rejected = outside[0] if len(outside) == 1 else outside.any(axis=0)
            out = rejected.any(axis=0)
        if out.any():
            # take() on index arrays: a boolean index on axis 1 took 4x longer.
            # The counts move into their arrays' first columns, row by row, so
            # the chunk's peak holds no second copy of them.
            kept = np.flatnonzero(~out)
            if early:
                gone = np.flatnonzero(out)
                stops[live[gone]] = t0 + 1 + rejected.take(gone, axis=1).argmax(axis=0)
                y = y.take(kept, axis=1)
            live, seeds = live[kept], seeds[kept]
            for row in (*above, *sums) if per_flush else above:
                row[: kept.size] = row.take(kept)
            above, sums = above[:, : kept.size], sums[:, : kept.size]
            if not live.size:
                break
    return live, above


def _seed_array(seeds) -> np.ndarray:
    """``seeds`` as a uint64 array, each masked to 64 bits as ``SourceModel``
    masks its seed: a 1-D integer array (kept as it is when it is uint64
    already), or a sequence of integers. Anything else is ``InvalidConfig``."""
    if isinstance(seeds, np.ndarray):
        if seeds.ndim != 1 or seeds.dtype.kind not in "iu":
            raise InvalidConfig(f"seeds must be 1-D integers, got a {seeds.ndim}-D {seeds.dtype} array")
        return seeds.astype(np.uint64, copy=False)
    if isinstance(seeds, (str, bytes)) or not isinstance(seeds, Sequence):
        raise InvalidConfig(f"seeds must be a sequence of integers, got {type(seeds).__name__}")
    for seed in seeds:
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
            raise InvalidConfig(f"seeds must be integers, got {seed!r}")
    return np.array([int(seed) & 0xFFFFFFFFFFFFFFFF for seed in seeds], dtype=np.uint64)


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
    ``seeds`` is a 1-D integer array or a sequence of integers, each taken
    modulo 2**64 as ``SourceModel`` takes its seed; a uint64 array is used
    as it is.

    The horizon streams in tiles of whole rounds, about ``_TILE_DRAWS``
    draws for all trials together, hashed into buffers allocated once per
    call, so memory is O(trials x cells) at any horizon. A draw is never
    turned into a float or searched for: with w its 64-bit word and T_j the
    integer thresholds of the joint's cdf, the scalar protocol draws a
    symbol past cell j exactly when w >= T_j << 11 (see ``seqht.rng``), so
    counting those words per trial yields the joint type the scalar
    protocol sees, and from it both marginals. Early-decide reads one more
    thing off the same compares, each draw's y symbol as an unsigned code;
    per-round counts of the codes give every trial's running y counts,
    whose every round before the horizon is checked once its tile is
    counted. Under the fixed horizon the verdict reads only the final
    marginal counts, and counts only grow: once a count is past its
    window's top, or too low to reach its bottom with the draws left, the
    trial must reject. The counts are checked for that every
    ``_SETTLE_DRAWS`` draws. Rejected trials of either policy are compacted
    out and draw no more; counter addressing keeps every other trial's
    draws unchanged. Trials whose accept is certain keep drawing, so every
    accepted trial has its full counts.

    On a 16,384-trial chunk of a 2x2 joint (2 MB L2 per core), per draw,
    hashing took 1.8 ns, comparing with the three thresholds 0.8 ns and
    counting the hits 0.15 ns, against 9.4, 0.9 and 1.2 ns for the
    ``uniform_ints`` blocks of 16 draws per trial used before (medians of
    five runs on one host); the fixed-horizon chunk at N = 200 peaks at
    2.6 MB of allocations, against 7.5 MB. An early-decide chunk at N = 200
    (default eta) took 26-30 ms under the null and 25-29 ms under the
    alternative, against 83-89 and 51-56 ms when it summed the hits of every
    round of a block into a table of per-round cell counts, and peaks at
    2.7 MB of allocations, against 13.0 MB. Settled rejects cut the hashed
    draws of a fixed-horizon chunk of the benchmark pair under the uniform
    alternative from N to 0.34 N per trial at N = 200 (eta = 0.05) and to
    0.25 N at N = 2000 (eta = 0.02); under the null, 99.9% are still drawn.
    """
    _require_same_shape(p_null, joint, JointPmf)
    seeds = _seed_array(seeds)
    n, k = config.n, config.k
    shape = joint.probs.shape
    rule = _rule(config, p_null)
    thresholds = joint._thresholds
    trials = seeds.shape[0]
    tile = max(1, min(n, _TILE_DRAWS // (k * max(1, trials))))  # rounds per tile

    decisions = np.full(trials, REJECT, dtype=np.int64)
    stops = np.full(trials, n, dtype=np.int64)
    live, above = _stream_counts(rule, seeds, thresholds, tile, stops)

    cells = _cell_counts(above, n * k, shape)
    accept = np.ones(live.size, dtype=bool)
    for counts, windows in zip((cells.sum(axis=1), cells.sum(axis=0)), rule.horizon):
        lo, hi = np.array(windows).T[..., None]  # symbols first, as the counts
        accept &= ((counts >= lo) & (counts <= hi)).all(axis=0)
    decisions[live[accept]] = ACCEPT
    return decisions, stops

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
and indeed only through their marginal counts, which is what makes exact
error evaluation over counts possible; see the evaluation module.
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
    _tally,
    empirical_type,
    marginals,
)
from .rng import categorical_cdf, categorical_thresholds, random_bits_into, uniform_ints


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
        for name in ("k", "n"):
            value = getattr(self, name)
            # A bool is an Integral, but True is not a count.
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
                raise InvalidConfig(f"{name} must be a positive integer, got {value!r}")
        for name in ("eta", "epsilon"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise InvalidConfig(f"{name} must be a real number, got {value!r}")
        if not (self.eta > 0):
            raise InvalidConfig(f"eta must be > 0, got {self.eta}")
        if not (0.0 < self.epsilon < 1.0):
            raise InvalidConfig(f"epsilon must lie in (0, 1), got {self.epsilon}")
        for name, kind in (("encoder_kind", EncoderKind), ("policy_kind", PolicyKind)):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, kind(value))
            except ValueError:
                allowed = ", ".join(repr(m.value) for m in kind)
                raise InvalidConfig(f"{name} must be one of {allowed}, got {value!r}") from None

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

    def symbol_ok(self, counts, total, target, margin=None):
        """The typicality test of each symbol s, on raw integer counts:
        |counts[..., s] / total - target[s]| <= margin (eta unless given).

        Arrays broadcast; on Python numbers it is the same IEEE arithmetic,
        since counts and totals below 2**53 convert to floats exactly.
        """
        margin = self.config.eta if margin is None else margin
        return abs(counts / total - target) <= margin

    def typical(self, counts: np.ndarray, total, target: np.ndarray, margin=None) -> np.ndarray:
        return self.symbol_ok(counts, total, target, margin).all(axis=-1)

    def typical_one(self, counts: np.ndarray, total: int, target: np.ndarray, margin=None) -> bool:
        """``typical`` of one count vector, tested symbol by symbol on Python
        numbers: on alphabet-sized vectors numpy's fixed cost per call is
        several times the arithmetic. The brute-force enumeration of the
        acceptance tests makes 638k public ``decide`` calls; they took a
        median 12.0 s with this and 15.5 s with ``typical`` (five
        alternating runs on one host)."""
        return all(
            self.symbol_ok(c, total, p, margin) for c, p in zip(counts.tolist(), target.tolist())
        )

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
    if config.encoder_kind is EncoderKind.ONE_BIT:
        counts = _tally(x_prefix, p_x.alphabet)
        typical = _DecisionRule(config, p_x).typical_one(counts, len(x_prefix), p_x.probs)
        return Message(step=t, payload=int(typical))
    return Message(step=t, payload=empirical_type(x_prefix, p_x.alphabet))


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
            y_counts = _tally(y_prefix, p_y.alphabet)
            margin = config.reject_margin(t)
            if not rule.typical_one(y_counts, len(y_prefix), p_y.probs, margin):
                return REJECT
        return CONTINUE
    if t > config.n:
        raise InvalidConfig(f"round {t} beyond the horizon n={config.n}")

    y_ok = rule.typical_one(_tally(y_prefix, p_y.alphabet), len(y_prefix), p_y.probs)
    if config.encoder_kind is EncoderKind.ONE_BIT:
        if not isinstance(payload, int):
            raise InconsistentMessages("one-bit decider received a non-bit payload")
        x_ok = payload == 1
    else:
        if not isinstance(payload, EmpiricalType):
            raise InconsistentMessages("full-type decider received a non-type payload")
        if payload.is_joint or payload.alphabet_x != rule.p_x.alphabet:
            raise AlphabetMismatch("full-type payload is not a type over the x-alphabet")
        x_ok = rule.typical_one(payload.counts, payload.total, rule.p_x.probs)
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


# Draws (trials x samples) per tile of simulate_batch, rounded down to whole
# rounds (at least one, at most the horizon). A tile's two uint64 buffers
# then take 1 MB and stay in a 2 MB L2 cache: on 16,384 trials, hashing tiles
# of 16 draws per trial took 5.5 ns per draw, tiles of 2 or 4 took 2.5 ns,
# and a 16,384-trial chunk at N = 2000 ran about 10% faster with 4 than 2.
_TILE_DRAWS = 65_536

# Early-decide checks the y-marginal once per block of at least this many
# rounds, filled tile by tile. With one round per check, the per-check
# bookkeeping held the interpreter lock long enough that two threads lost
# their scaling.
_DECISION_ROUNDS = 8


class _DrawTiles:
    """Buffers to hash and count one tile of draws at a time, allocated once.

    ``words`` holds each threshold T_j < 2**53 as the raw word T_j << 11; a
    threshold of 2**53 is never reached and gets no word (see ``seqht.rng``).
    Tiles have at most ``rows`` draws per trial, for at most ``trials``
    trials. Hits are summed over groups of ``group`` consecutive draws (None:
    the whole tile) in uint8 when a group is shorter than 256 draws.
    """

    def __init__(self, thresholds: np.ndarray, trials: int, rows: int, group: int | None):
        self.words = thresholds[thresholds < 2**53] << np.uint64(11)
        self.group = group
        size = rows * trials
        self.bits = np.empty(size, dtype=np.uint64)
        self.scratch = np.empty(size, dtype=np.uint64)
        self.hits = np.empty(size, dtype=np.bool_)
        narrow = (group or rows) < 256
        self.partial = np.empty(size // (group or rows), dtype=np.uint8 if narrow else np.int64)

    def add_counts(self, seeds: np.ndarray, start: int, rows: int, out: np.ndarray):
        """Add to ``out[j, g]`` the number of draws of group g with word >=
        ``words[j]``, for the tile of counters start..start+rows-1 of each
        trial (trials last)."""
        trials = seeds.size
        size = rows * trials
        bits = self.bits[:size].reshape(rows, trials)
        random_bits_into(seeds, start, bits, self.scratch[:size].reshape(rows, trials))
        hits = self.hits[:size].reshape(rows, trials)
        group = self.group or rows
        grouped = hits.view(np.uint8).reshape(rows // group, group, trials)
        partial = self.partial[: size // group].reshape(rows // group, trials)
        for j, word in enumerate(self.words):
            np.greater_equal(bits, word, out=hits)
            np.add.reduce(grouped, axis=1, out=partial)
            out[j] += partial


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


def _horizon_counts(seeds: np.ndarray, thresholds: np.ndarray, n: int, k: int, tile: int) -> np.ndarray:
    """``above`` (see ``_cell_counts``) of each trial over the whole horizon,
    hashed ``tile`` rounds at a time."""
    above = np.zeros((thresholds.size, seeds.size), dtype=np.int64)
    rows = tile * k
    tiles = _DrawTiles(thresholds, seeds.size, rows, None)
    # Tiles add up in uint8, moved into ``above`` before they could wrap:
    # adding each tile straight into int64 made a 16,384-trial chunk 11%
    # slower (11 us per tile and threshold, against 26 us for the compare).
    per_flush = 255 // rows
    sums = np.zeros((thresholds.size, 1, seeds.size), dtype=np.uint8) if per_flush else above[:, None]
    for i, t0 in enumerate(range(0, n, tile), 1):
        tiles.add_counts(seeds, t0 * k, min(tile, n - t0) * k, sums)
        if per_flush and (i % per_flush == 0 or t0 + tile >= n):
            above += sums[:, 0]
            sums[:] = 0
    return above


def _early_reject(
    rule: _DecisionRule,
    seeds: np.ndarray,
    thresholds: np.ndarray,
    shape: tuple[int, int],
    tile: int,
    stops: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Stream the horizon ``tile`` rounds at a time and check the y-marginal
    of every round before the horizon, once per block of whole tiles.

    Writes the stopping round of each rejected trial into ``stops`` and
    returns the trials never rejected with their ``above`` over the horizon.
    """
    n, k = rule.config.n, rule.config.k
    live = np.arange(seeds.size)  # trials still drawing
    above = np.zeros((thresholds.size, seeds.size), dtype=np.int64)
    tiles = _DrawTiles(thresholds, seeds.size, tile * k, k)
    block = min(n, tile * -(-_DECISION_ROUNDS // tile))  # whole tiles per check, or the horizon
    through_buf = np.empty(thresholds.size * block * seeds.size, dtype=np.int64)
    p_y = rule.p_y.probs[:, None, None]
    for b0 in range(0, n, block):
        rounds = min(block, n - b0)
        # Hits of each round of the block, then counts through each round.
        through = through_buf[: thresholds.size * rounds * live.size]
        through = through.reshape(thresholds.size, rounds, live.size)
        through[:] = 0
        for t0 in range(0, rounds, tile):
            r = min(tile, rounds - t0)
            tiles.add_counts(seeds, (b0 + t0) * k, r * k, through[:, t0 : t0 + r])
        through[:, 0] += above
        for i in range(1, rounds):  # a prefix sum; np.cumsum on this axis is ~10x slower
            through[:, i] += through[:, i - 1]
        above = through[:, -1].copy()
        checked = min(rounds, n - 1 - b0)
        totals = k * np.arange(b0 + 1, b0 + 1 + checked)[:, None]
        y = _cell_counts(through[:, :checked], totals, shape).sum(axis=0)  # symbols first
        margins = rule.reject_margins[b0 : b0 + checked, None]
        rejected = ~rule.symbol_ok(y, totals, p_y, margins).all(axis=0)
        out = rejected.any(axis=0)
        if out.any():
            stops[live[out]] = b0 + 1 + rejected[:, out].argmax(axis=0)
            live, seeds, above = live[~out], seeds[~out], above[:, ~out]
            if not live.size:
                break
    return live, above


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

    The horizon streams in tiles of whole rounds, about ``_TILE_DRAWS``
    draws for all trials together, hashed into buffers allocated once per
    call, so memory is O(trials x cells) at any horizon. A draw is never
    turned into a float or a symbol: with w its 64-bit word and T_j the
    integer thresholds of the joint's cdf, the scalar protocol draws a
    symbol past cell j exactly when w >= T_j << 11 (see ``seqht.rng``), so
    counting those words per trial yields the joint type the scalar
    protocol sees, and from it both marginals. Early-decide checks the
    y-marginal after each round of a block of at least ``_DECISION_ROUNDS``
    rounds and stops drawing for trials it has rejected; counter addressing
    keeps every other trial's draws unchanged.

    On a 16,384-trial chunk of a 2x2 joint (2 MB L2 per core), per draw,
    hashing took 1.8 ns, comparing with the three thresholds 0.8 ns and
    counting the hits 0.15 ns, against 9.4, 0.9 and 1.2 ns for the
    ``uniform_ints`` blocks of 16 draws per trial used before (medians of
    five runs on one host); the fixed-horizon chunk at N = 200 peaks at
    2.6 MB of allocations, against 7.5 MB.
    """
    if joint.probs.shape != p_null.probs.shape:
        raise LengthMismatch("source joint shape does not match null joint shape")
    seeds = np.asarray(seeds, dtype=np.uint64)
    n, k = config.n, config.k
    shape = joint.probs.shape
    rule = _DecisionRule(config, *marginals(p_null))
    thresholds = categorical_thresholds(categorical_cdf(joint.probs.ravel()))
    trials = seeds.shape[0]
    tile = max(1, min(n, _TILE_DRAWS // (k * max(1, trials))))  # rounds per tile

    decisions = np.full(trials, REJECT, dtype=np.int64)
    stops = np.full(trials, n, dtype=np.int64)
    if config.policy_kind is PolicyKind.FIXED_HORIZON:
        live, above = np.arange(trials), _horizon_counts(seeds, thresholds, n, k, tile)
    else:
        live, above = _early_reject(rule, seeds, thresholds, shape, tile, stops)

    cells = _cell_counts(above, n * k, shape)  # marginals below are symbols first
    x_ok = rule.symbol_ok(cells.sum(axis=1), n * k, rule.p_x.probs[:, None]).all(axis=0)
    y_ok = rule.symbol_ok(cells.sum(axis=0), n * k, rule.p_y.probs[:, None]).all(axis=0)
    accept = x_ok & y_ok
    decisions[live[accept]] = ACCEPT
    return decisions, stops

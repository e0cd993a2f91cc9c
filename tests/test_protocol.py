import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqht import (
    ACCEPT,
    CONTINUE,
    REJECT,
    AlphabetMismatch,
    BadLength,
    EmpiricalType,
    EncoderKind,
    Hypothesis,
    InconsistentMessages,
    InvalidConfig,
    JointPmf,
    Message,
    Pmf,
    PolicyKind,
    ProtocolConfig,
    SourceModel,
    Trace,
    acceptance_region_membership,
    decide,
    default_eta,
    empirical_type,
    encode,
    marginals,
    run_protocol,
    simulate_batch,
)
import seqht.protocol
from _oracles import float_replay, symbol_ok, typical
from seqht.rng import (
    categorical_cdf,
    categorical_thresholds,
    derive_seed,
    sample_categorical,
    uniform_block,
)

P_JOINT = JointPmf.from_probs([[0.5625, 0.1875], [0.1875, 0.0625]])  # (0.75,0.25) x (0.75,0.25)
Q_UNIFORM = JointPmf.from_probs([[0.25, 0.25], [0.25, 0.25]])


def one_bit_config(**kw):
    base = dict(k=4, n=3, eta=0.1, encoder_kind="one_bit", policy_kind="fixed_horizon")
    base.update(kw)
    return ProtocolConfig(**base)


def test_config_validation():
    with pytest.raises(InvalidConfig):
        ProtocolConfig(k=0, n=3, eta=0.1)
    with pytest.raises(InvalidConfig):
        ProtocolConfig(k=1, n=0, eta=0.1)
    with pytest.raises(InvalidConfig):
        ProtocolConfig(k=1, n=1, eta=0.0)
    with pytest.raises(InvalidConfig):
        ProtocolConfig(k=1, n=1, eta=0.5, epsilon=1.0)
    # k and n are integers: a fraction or a bool is not a count
    for bad in (2.5, 2.0, True, "2"):
        with pytest.raises(InvalidConfig, match="k must be a positive integer"):
            ProtocolConfig(k=bad, n=3, eta=0.1)
        with pytest.raises(InvalidConfig, match="n must be a positive integer"):
            ProtocolConfig(k=1, n=bad, eta=0.1)
    assert ProtocolConfig(k=np.int64(2), n=3, eta=0.1).total_samples == 6
    # eta and epsilon are real numbers: a string or a bool is not a margin
    for bad in ("0.1", True, np.True_, None, 0.1j):
        with pytest.raises(InvalidConfig, match="eta must be a real number"):
            ProtocolConfig(k=1, n=1, eta=bad)
        with pytest.raises(InvalidConfig, match="epsilon must be a real number"):
            ProtocolConfig(k=1, n=1, eta=0.1, epsilon=bad)
    assert ProtocolConfig(k=1, n=1, eta=np.float64(0.1), epsilon=np.float32(0.05)).eta == 0.1
    # unknown kinds name the field and its allowed values
    with pytest.raises(InvalidConfig, match="encoder_kind must be one of 'one_bit', 'full_type'"):
        ProtocolConfig(k=1, n=1, eta=0.5, encoder_kind="bogus")
    with pytest.raises(InvalidConfig, match="policy_kind must be one of 'fixed_horizon', 'early_decide'"):
        ProtocolConfig(k=1, n=1, eta=0.5, policy_kind=5)
    # eta above 1 is allowed: the margin then covers every type
    cfg = ProtocolConfig(k=1, n=1, eta=1.0)
    assert cfg.total_samples == 1
    # string kinds are coerced to enums
    cfg = ProtocolConfig(k=1, n=1, eta=0.5, encoder_kind="full_type", policy_kind="early_decide")
    assert cfg.encoder_kind is EncoderKind.FULL_TYPE
    assert cfg.policy_kind is PolicyKind.EARLY_DECIDE


def test_default_eta_schedule():
    assert default_eta(100, 1) == pytest.approx(max(0.05, 2 * math.sqrt(math.log(100) / 100)))
    assert default_eta(10_000, 10) == 0.05  # floor kicks in for large budgets


def test_encode_one_bit_and_full_type():
    p_x = Pmf.from_probs([0.75, 0.25])
    cfg = one_bit_config()
    msg = encode(cfg, [0, 0, 0, 1], p_x)
    assert msg == Message(step=1, payload=1)  # type (0.75, 0.25), distance 0
    assert encode(cfg, [1, 1, 1, 1], p_x).payload == 0  # distance 0.75 > 0.1
    full = encode(one_bit_config(encoder_kind="full_type"), [0, 0, 0, 1], p_x)
    assert full.payload.counts.tolist() == [3, 1]
    with pytest.raises(BadLength):
        encode(cfg, [0, 0, 0], p_x)  # not a multiple of k
    with pytest.raises(BadLength):
        encode(cfg, [], p_x)
    # Round n is the last; past it there is no message, as there is no verdict.
    for encoder in ("one_bit", "full_type"):
        cfg = one_bit_config(encoder_kind=encoder)
        encode(cfg, [0] * 4 * cfg.n, p_x)
        with pytest.raises(InvalidConfig, match="beyond the horizon"):
            encode(cfg, [0] * 4 * (cfg.n + 1), p_x)


def test_decide_fixed_horizon_rules():
    cfg = one_bit_config(n=5)
    msgs = [Message(step=1, payload=1)]
    assert decide(cfg, msgs, [0, 0, 0, 1], 1, P_JOINT) is CONTINUE
    # at the horizon: accept needs both the x-bit and local y-typicality
    msgs_n = [Message(step=t, payload=1) for t in range(1, 6)]
    y_typical = [0, 0, 0, 1] * 5
    y_atypical = [1, 1, 1, 1] * 5
    assert decide(cfg, msgs_n, y_typical, 5, P_JOINT) == ACCEPT
    assert decide(cfg, msgs_n, y_atypical, 5, P_JOINT) == REJECT
    msgs_bad_x = msgs_n[:-1] + [Message(step=5, payload=0)]
    assert decide(cfg, msgs_bad_x, y_typical, 5, P_JOINT) == REJECT


def test_decide_validates_messages():
    cfg = one_bit_config(n=2)
    with pytest.raises(InconsistentMessages):
        decide(cfg, [], [0] * 4, 1, P_JOINT)  # no message for round 1
    with pytest.raises(InconsistentMessages):
        decide(cfg, [Message(step=2, payload=1)], [0] * 4, 1, P_JOINT)
    with pytest.raises(BadLength):
        decide(cfg, [Message(step=1, payload=1)], [0] * 3, 1, P_JOINT)
    # full-type decider rejects a bit payload and a short type
    ft = one_bit_config(n=1, encoder_kind="full_type")
    with pytest.raises(InconsistentMessages):
        decide(ft, [Message(step=1, payload=1)], [0] * 4, 1, P_JOINT)
    short_type = empirical_type([0, 1], 2)
    with pytest.raises(InconsistentMessages):
        decide(ft, [Message(step=1, payload=short_type)], [0] * 4, 1, P_JOINT)


def test_full_type_decide_rejects_a_type_over_the_wrong_number_of_symbols():
    # A type of the right total over 1 or 3 symbols is no type of the
    # 2-symbol x marginal; one over 2 symbols is read.
    ft = one_bit_config(n=1, encoder_kind="full_type")
    for counts in ([4], [2, 1, 1], [4, 0, 0]):
        message = Message(step=1, payload=EmpiricalType(counts))
        with pytest.raises(AlphabetMismatch, match="counts for 2 x symbols"):
            decide(ft, [message], [0] * 4, 1, P_JOINT)
    assert decide(ft, [Message(step=1, payload=EmpiricalType([3, 1]))], [0, 0, 0, 1], 1, P_JOINT) == ACCEPT


def test_message_bits_take_any_integer_type_as_a_python_int():
    cfg = one_bit_config(n=1)
    for bit in (np.int64(1), np.uint8(1), 1):
        msg = Message(step=1, payload=bit)
        assert type(msg.payload) is int and msg.payload == 1
        assert decide(cfg, [msg], [0, 0, 0, 1], 1, P_JOINT) == ACCEPT
    for bad in (np.int64(5), 2, -1, True, np.bool_(True), 1.0, "1", None):
        with pytest.raises(InconsistentMessages):
            Message(step=1, payload=bad)


def test_message_step_must_be_an_integer():
    cfg = one_bit_config(n=1)
    msg = Message(step=np.int64(1), payload=1)
    assert type(msg.step) is int and msg.step == 1
    assert decide(cfg, [msg], [0, 0, 0, 1], 1, P_JOINT) == ACCEPT
    for bad in (1.5, 1.0, True, "1", None, 0, -2):
        with pytest.raises(InvalidConfig, match="message step"):
            Message(step=bad, payload=1)


@pytest.mark.parametrize("policy", ["fixed_horizon", "early_decide"])
def test_decide_takes_only_a_positive_integer_round(policy):
    # The messages and prefix are those of round 1, so only the round is wrong.
    cfg = one_bit_config(n=3, policy_kind=policy)
    msgs = [Message(step=1, payload=1)]
    for bad in (0, -1, 1.0, True, "1"):
        with pytest.raises(InvalidConfig, match="round must be a positive integer"):
            decide(cfg, msgs, [0, 0, 0, 1], bad, P_JOINT)
        with pytest.raises(InvalidConfig, match="round must be a positive integer"):
            decide(cfg, [], [], bad, P_JOINT)
    for t in (1, np.int64(1), np.uint8(1)):
        assert decide(cfg, msgs, [0, 0, 0, 1], t, P_JOINT) is CONTINUE


def test_decide_early_policy_rejects_on_widened_margin():
    cfg = one_bit_config(n=4, eta=0.2, policy_kind="early_decide")
    msgs = [Message(step=1, payload=1)]
    # margin at t=1 is eta + eta*3/4 = 0.35; all-ones y has gap 0.75
    assert decide(cfg, msgs, [1, 1, 1, 1], 1, P_JOINT) == REJECT
    # a mildly atypical prefix survives the widened margin
    assert decide(cfg, msgs, [0, 0, 1, 1], 1, P_JOINT) is CONTINUE
    # early accept never happens before the horizon, however typical y looks
    assert decide(cfg, msgs, [0, 0, 0, 1], 1, P_JOINT) is CONTINUE


def test_run_protocol_fixed_horizon_trace_shape():
    cfg = one_bit_config(n=3, eta=0.3)
    src = SourceModel(Hypothesis.H0, P_JOINT, rng_seed=11)
    trace = run_protocol(cfg, P_JOINT, src)
    assert trace.stopping_time == 3
    assert trace.feedback_bits == (1, 1, 0)
    assert trace.per_step_verdicts[:2] == (CONTINUE, CONTINUE)
    assert trace.decision in (ACCEPT, REJECT)
    assert len(trace.x_seq) == len(trace.y_seq) == 12
    assert len(trace.messages) == 3


def test_run_protocol_total_margin_always_accepts():
    cfg = one_bit_config(n=2, eta=1.0)
    for seed in range(20):
        trace = run_protocol(cfg, P_JOINT, SourceModel(Hypothesis.H1, Q_UNIFORM, seed))
        assert trace.decision == ACCEPT


def test_run_protocol_is_deterministic_in_the_seed():
    cfg = one_bit_config(n=4, eta=0.25, policy_kind="early_decide")
    src = SourceModel(Hypothesis.H1, Q_UNIFORM, rng_seed=77)
    assert run_protocol(cfg, P_JOINT, src) == run_protocol(cfg, P_JOINT, src)
    other = run_protocol(cfg, P_JOINT, SourceModel(Hypothesis.H1, Q_UNIFORM, 78))
    assert other != run_protocol(cfg, P_JOINT, src)


def test_full_type_traces_compare_by_value():
    cfg = ProtocolConfig(k=2, n=3, eta=0.25, encoder_kind="full_type")
    first = run_protocol(cfg, P_JOINT, SourceModel(Hypothesis.H0, P_JOINT, 1))
    replay = run_protocol(cfg, P_JOINT, SourceModel(Hypothesis.H0, P_JOINT, 1))
    assert first is not replay
    assert first == replay and hash(first) == hash(replay)
    assert first.messages[-1] == replay.messages[-1]
    other = run_protocol(cfg, P_JOINT, SourceModel(Hypothesis.H0, P_JOINT, 2))
    assert other != first
    assert len({first, replay, other}) == 2


def test_full_type_payloads_are_read_only_types_of_the_prefix():
    cfg = ProtocolConfig(k=2, n=5, eta=0.25, encoder_kind="full_type", policy_kind="early_decide")
    trace = run_protocol(cfg, P_JOINT, SourceModel(Hypothesis.H1, Q_UNIFORM, 4))
    for t, msg in enumerate(trace.messages, 1):
        counts = msg.payload.counts
        assert counts.dtype == np.int64 and not counts.flags.writeable
        with pytest.raises(ValueError):
            counts[0] += 1
        assert msg.payload == empirical_type(trace.x_seq[: 2 * t], 2)
        assert msg.payload.total == 2 * t


def test_public_decide_builds_no_pmf(monkeypatch):
    cfg = one_bit_config(n=2, eta=0.25, policy_kind="early_decide")
    marginals(P_JOINT)  # the joint's marginals are built once, here
    built = []
    original = Pmf.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(Pmf, "__post_init__", counting)
    msgs = [Message(1, 1), Message(2, 1)]
    assert decide(cfg, msgs[:1], [0, 0, 0, 1], 1, P_JOINT) is CONTINUE
    assert decide(cfg, msgs, [0, 0, 0, 1, 0, 0, 1, 0], 2, P_JOINT) == ACCEPT
    assert built == []


@settings(max_examples=300, deadline=None)
@given(
    counts=st.lists(st.integers(0, 10**6), min_size=1, max_size=4).filter(lambda c: sum(c) > 0),
    eta=st.floats(1e-6, 1.0),
    offsets=st.lists(st.sampled_from([-1, 0, 1]), min_size=4, max_size=4),
    ulps=st.lists(st.integers(-2, 2), min_size=4, max_size=4),
    early=st.booleans(),
)
def test_typicality_of_one_vector_is_the_array_test(counts, eta, offsets, ulps, early):
    # Targets sit a gap of eta (give or take an ulp or two) from the
    # frequencies, where any difference in rounding would flip a verdict.
    def nudge(x, ulps):
        for _ in range(abs(ulps)):
            x = math.nextafter(x, math.copysign(math.inf, ulps))
        return x

    total = sum(counts)
    target = np.array([nudge(c / total + d * eta, u) for c, d, u in zip(counts, offsets, ulps)])
    cfg = ProtocolConfig(k=1, n=3, eta=eta, policy_kind="early_decide")
    rule = seqht.protocol._DecisionRule(cfg, Pmf.from_probs(np.full(len(counts), 1 / len(counts))))
    margin = cfg.reject_margin(1) if early else cfg.eta
    c = np.array(counts)
    windows = rule.windows(total, target, margin).tolist()
    inside = [lo <= count <= hi for count, (lo, hi) in zip(counts, windows)]
    assert inside == symbol_ok(c, total, target, margin).tolist()
    assert all(inside) == bool(typical(c, total, target, margin))


def _window_cases():
    # Exact boundaries: at N = 4 and 8, |c/N - 0.25| equals 0.25 for c = 0
    # and c = N/2, and for (2,3,1)/6 several counts of 6 and 12 sit 1/6 off.
    yield [0.25, 0.75], 4, 2, 0.25
    yield [2 / 6, 3 / 6, 1 / 6], 6, 2, 1 / 6
    yield [2 / 6, 3 / 6, 1 / 6], 1, 12, 1 / 6
    yield [0.0, 1.0], 3, 100, 0.01  # zero and unit probabilities
    yield [0.2, 0.0, 0.8], 7, 40, 1.0  # eta >= 1: every count passes
    yield [0.5, 0.5], 1, 300, 2.5
    yield [0.5, 0.5], 1, 9, 1e-3  # odd totals: empty windows
    yield [1.0], 2, 5, 0.1  # one symbol
    rng = np.random.default_rng(2024)
    for case in range(60):
        size = int(rng.integers(1, 5))
        probs = rng.dirichlet(np.ones(size))
        if case % 4 == 0 and size > 1:
            probs[rng.integers(size)] = 0.0
        k = int(rng.integers(1, 31))
        n = int(rng.integers(1, 300 // k + 1))
        eta = float(rng.choice([rng.uniform(1e-3, 0.5), rng.uniform(1.0, 1.5)], p=[0.9, 0.1]))
        yield (probs / probs.sum()).tolist(), k, n, eta


@pytest.mark.parametrize("probs, k, n, eta", list(_window_cases()))
def test_count_windows_hold_exactly_the_counts_the_float_test_passes(probs, k, n, eta):
    pmf = Pmf.from_probs(probs)
    cfg = ProtocolConfig(k=k, n=n, eta=eta, policy_kind="early_decide")
    rule = seqht.protocol._DecisionRule(cfg, pmf, pmf)
    empty = 0
    for t in range(1, n + 1):
        total = t * k
        tables = [(rule.x_rounds[t - 1], eta)]
        if t < n:
            tables.append((rule.y_early[t - 1].tolist(), cfg.reject_margin(t)))
        else:
            tables += [(windows, eta) for windows in rule.horizon]
        for windows, margin in tables:
            for p, (lo, hi) in zip(pmf.probs, windows):
                passes = symbol_ok(np.arange(total + 1), total, p, margin)
                assert passes.tolist() == [lo <= c <= hi for c in range(total + 1)]
                empty += lo > hi
    if probs == [0.5, 0.5] and eta == 1e-3:
        assert empty > 0


def test_reject_margins_equal_the_scalar_margins_bit_for_bit():
    for n in (1, 2, 3, 7, 10, 97, 250, 1000, 4096):
        # A numpy eta is kept as a Python float, so the public margin is the
        # float64 value the windows apply, not a float32 rounding of it.
        for eta in (0.05, 0.1, 0.2, 1 / 3, 0.3, default_eta(n, 2), 1, 2.5, np.float32(0.1), np.float64(0.1)):
            cfg = ProtocolConfig(k=2, n=n, eta=eta, policy_kind="early_decide")
            rule = seqht.protocol._DecisionRule(cfg, marginals(P_JOINT)[0])
            scalar = [cfg.reject_margin(t).hex() for t in range(1, n)]
            assert rule.reject_margins.tolist() == [float.fromhex(h) for h in scalar]
            assert [m.hex() for m in rule.reject_margins.tolist()] == scalar


_NULLS = {
    (2, 2): (P_JOINT, Q_UNIFORM),
    (2, 3): (
        JointPmf.from_probs([[0.3, 0.1, 0.1], [0.05, 0.15, 0.3]]),
        JointPmf.from_probs(np.full((2, 3), 1 / 6)),
    ),
    (3, 2): (
        JointPmf.from_probs([[0.3, 0.05], [0.1, 0.15], [0.1, 0.3]]),
        JointPmf.from_probs([[0.1, 0.2], [0.3, 0.1], [0.2, 0.1]]),
    ),
}


def test_run_protocol_keeps_the_float_verdicts():
    outcomes = set()
    for i in range(512):
        shape = list(_NULLS)[i % 3]
        null, alternative = _NULLS[shape]
        encoder = ("one_bit", "full_type")[i // 3 % 2]
        policy = ("fixed_horizon", "early_decide")[i // 6 % 2]
        hypothesis = ("H0", "H1")[i // 12 % 2]
        cfg = ProtocolConfig(
            k=1 + i % 4,
            n=2 + i % 11,
            eta=(0.1, 0.15, 0.25)[i // 24 % 3],
            encoder_kind=encoder,
            policy_kind=policy,
        )
        source = SourceModel(hypothesis, null if hypothesis == "H0" else alternative, i)
        trace = run_protocol(cfg, null, source)
        verdicts, bits, rows = float_replay(cfg, null, trace.x_seq, trace.y_seq)
        assert list(trace.per_step_verdicts) == verdicts
        if encoder == "one_bit":
            assert [m.payload for m in trace.messages] == bits
        else:
            assert [m.payload.counts.tolist() for m in trace.messages] == rows
        outcomes.add((shape, policy, trace.decision, trace.stopping_time < cfg.n))
    for shape in _NULLS:
        assert {(d, early) for s, pol, d, early in outcomes if s == shape} >= {
            (ACCEPT, False),
            (REJECT, False),
            (REJECT, True),
        }


@pytest.mark.parametrize(
    "encoder, policy, k",
    [
        ("one_bit", "fixed_horizon", 2),
        ("full_type", "fixed_horizon", 3),
        ("one_bit", "early_decide", 2),
        ("full_type", "early_decide", 1),
    ],
)
def test_membership_keeps_the_float_verdicts_on_every_pair(encoder, policy, k):
    # eta = 0.25 puts counts of 3 of 6 exactly on the margin of 0.75.
    cfg = ProtocolConfig(k=k, n=6 // k, eta=0.25, encoder_kind=encoder, policy_kind=policy)
    seqs = [tuple((code >> b) & 1 for b in range(6)) for code in range(64)]
    seen = set()
    for x in seqs:
        for y in seqs:
            verdicts = float_replay(cfg, P_JOINT, x, y)[0]
            for xs, ys in ((x, y), (list(x), list(y)), (np.array(x), np.array(y))):
                if len(verdicts) < cfg.n:
                    with pytest.raises(BadLength):
                        acceptance_region_membership(cfg, P_JOINT, xs, ys)
                else:
                    member = acceptance_region_membership(cfg, P_JOINT, xs, ys)
                    assert member == (verdicts[-1] == ACCEPT)
            seen.add((len(verdicts), verdicts[-1]))
    assert {v for _, v in seen} == {ACCEPT, REJECT}
    if policy == "early_decide":
        assert any(t < cfg.n for t, _ in seen)


# Joints of 1x1 to 3x3 cells, zero cells anywhere.
_joints = st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(
    lambda shape: st.lists(
        st.one_of(st.just(0.0), st.floats(min_value=1e-300, max_value=1.0)),
        min_size=shape[0] * shape[1],
        max_size=shape[0] * shape[1],
    )
    .filter(lambda w: sum(w) > 0)
    .map(lambda w: (np.array(w) / sum(w)).reshape(shape))
)


@settings(max_examples=150, deadline=None)
@given(
    probs=_joints,
    seed=st.integers(0, 2**64 - 1),
    k=st.integers(1, 4),
    n=st.integers(1, 6),
)
# The cumsum reaches 1.0 at cell 1 (of 3), so cell 2 is never drawn.
@example(probs=np.array([[0.5, 0.5, 1e-17]]), seed=3, k=4, n=6)
@example(probs=np.array([[0.3, 0.0], [0.7, 0.0]]), seed=0, k=1, n=1)
@example(probs=np.array([[1.0]]), seed=2**64 - 1, k=2, n=3)
def test_run_protocol_draws_equal_the_float_sampler(probs, seed, k, n):
    joint = JointPmf.from_probs(probs)
    cfg = ProtocolConfig(k=k, n=n, eta=0.2)
    trace = run_protocol(cfg, joint, SourceModel(Hypothesis.H0, joint, seed))
    flat = sample_categorical(
        categorical_cdf(joint.probs.ravel()), uniform_block(np.uint64(seed), 0, k * n)
    )
    ny = probs.shape[1]
    assert trace.x_seq == tuple((flat // ny).tolist())
    assert trace.y_seq == tuple((flat % ny).tolist())


def test_run_protocol_draws_on_both_sides_of_every_threshold(monkeypatch):
    # Random draws almost never land on a threshold, so feed the sampler
    # 53-bit integers at and just below each one, with a zero cell in between.
    joint = JointPmf.from_probs([[0.3, 0.0, 0.2], [0.1, 0.25, 0.15]])
    cdf = categorical_cdf(joint.probs.ravel())
    edges = {0, 2**53 - 1} | {t + d for t in categorical_thresholds(cdf).tolist() for d in (-1, 0)}
    m = np.array(sorted(edges), dtype=np.uint64)
    monkeypatch.setattr(seqht.protocol, "uniform_ints", lambda seed, counters: m[: counters.size])
    cfg = ProtocolConfig(k=m.size, n=1, eta=0.2)
    trace = run_protocol(cfg, joint, SourceModel(Hypothesis.H0, joint, 0))
    flat = sample_categorical(cdf, m * 2.0**-53)
    assert trace.x_seq == tuple((flat // 3).tolist())
    assert trace.y_seq == tuple((flat % 3).tolist())
    assert set(trace.x_seq) == {0, 1} and set(trace.y_seq) == {0, 1, 2}


@pytest.mark.parametrize("encoder", ["one_bit", "full_type"])
@pytest.mark.parametrize("policy", ["fixed_horizon", "early_decide"])
def test_run_protocol_rounds_match_encode_and_decide_on_prefixes(encoder, policy):
    # The replay carries running counts; each round must still be what
    # encode and decide give on the whole prefix.
    cfg = ProtocolConfig(k=4, n=150, eta=0.2, encoder_kind=encoder, policy_kind=policy)
    p_x = marginals(P_JOINT)[0]
    outcomes = set()
    for seed in range(6):
        source = SourceModel(Hypothesis.H1, Q_UNIFORM if seed % 2 else P_JOINT, seed)
        trace = run_protocol(cfg, P_JOINT, source)
        outcomes.add((trace.stopping_time, trace.decision))
        for t, msg in enumerate(trace.messages, 1):
            expected = encode(cfg, trace.x_seq[: 4 * t], p_x)
            assert msg.step == expected.step == t
            if encoder == "one_bit":
                assert msg.payload == expected.payload
            else:
                assert msg.payload.counts.tolist() == expected.payload.counts.tolist()
            verdict = decide(cfg, trace.messages[:t], trace.y_seq[: 4 * t], t, P_JOINT)
            assert verdict == trace.per_step_verdicts[t - 1]
    assert {decision for _, decision in outcomes} == {ACCEPT, REJECT}
    if policy == "early_decide":
        assert any(1 < t < 150 for t, _ in outcomes)


def test_trace_invariants_are_enforced():
    msg = (Message(step=1, payload=1), Message(step=2, payload=1))
    ok = dict(messages=msg, decision=ACCEPT, x_seq=(0, 0), y_seq=(0, 0))
    trace = Trace(**ok)
    assert trace.stopping_time == 2
    assert trace.feedback_bits == (1, 0)
    assert trace.per_step_verdicts == (CONTINUE, ACCEPT)
    with pytest.raises(InvalidConfig):
        Trace(**{**ok, "decision": CONTINUE})
    with pytest.raises(InvalidConfig):
        Trace(**{**ok, "messages": ()})


MEMBER_CFG = ProtocolConfig(k=2, n=1, eta=0.25)


def test_membership_examples():
    assert acceptance_region_membership(MEMBER_CFG, Q_UNIFORM, (0, 1), (1, 0)) is True
    # x-type (1.0, 0.0) is 0.5 away from (0.5, 0.5)
    assert acceptance_region_membership(MEMBER_CFG, Q_UNIFORM, (0, 0), (0, 1)) is False


def test_membership_counts_all_sixteen_outcomes():
    accepted = [
        (x, y)
        for x in [(0, 0), (0, 1), (1, 0), (1, 1)]
        for y in [(0, 0), (0, 1), (1, 0), (1, 1)]
        if acceptance_region_membership(MEMBER_CFG, Q_UNIFORM, x, y)
    ]
    assert len(accepted) == 4
    assert all(sorted(x) == [0, 1] and sorted(y) == [0, 1] for x, y in accepted)


def test_membership_length_errors():
    with pytest.raises(BadLength):
        acceptance_region_membership(MEMBER_CFG, Q_UNIFORM, (0, 1, 0), (1, 0, 0))
    with pytest.raises(BadLength):  # longer than the protocol ever observes
        acceptance_region_membership(MEMBER_CFG, Q_UNIFORM, (0, 1, 0, 1), (1, 0, 1, 0))
    cfg = ProtocolConfig(k=2, n=3, eta=0.25)
    with pytest.raises(BadLength):  # fixed horizon needs all n blocks
        acceptance_region_membership(cfg, Q_UNIFORM, (0, 1), (1, 0))
    # early rejection mid-way means trailing samples should not exist
    early = ProtocolConfig(k=2, n=3, eta=0.05, policy_kind="early_decide")
    with pytest.raises(BadLength):
        acceptance_region_membership(early, Q_UNIFORM, (0, 1, 0, 1, 0, 1), (1, 1, 1, 1, 1, 1))
    assert acceptance_region_membership(early, Q_UNIFORM, (0, 1), (1, 1)) is False


def test_membership_rejects_symbols_outside_the_alphabet():
    cfg = ProtocolConfig(k=2, n=2, eta=0.25)
    with pytest.raises(AlphabetMismatch):
        acceptance_region_membership(cfg, Q_UNIFORM, (0, 1, 2, 1), (1, 0, 1, 0))
    with pytest.raises(AlphabetMismatch):
        acceptance_region_membership(cfg, Q_UNIFORM, (0, 1, 0, 1), (1, 0, -1, 0))


def test_membership_rejects_non_integer_symbols():
    cfg = ProtocolConfig(k=1, n=2, eta=0.5)
    for x, y in (([0.9, 1.5], [0, 1]), ([0, 1], [0.0, 1.0]), ([True, False], [0, 1])):
        with pytest.raises(AlphabetMismatch, match="integers"):
            acceptance_region_membership(cfg, Q_UNIFORM, x, y)


def test_encoders_induce_identical_acceptance_region():
    one_bit = ProtocolConfig(k=2, n=2, eta=0.25, encoder_kind="one_bit")
    full = ProtocolConfig(k=2, n=2, eta=0.25, encoder_kind="full_type")
    rng = np.random.default_rng(4)
    for _ in range(100):
        x = tuple(rng.integers(0, 2, size=4))
        y = tuple(rng.integers(0, 2, size=4))
        assert acceptance_region_membership(
            one_bit, P_JOINT, x, y
        ) == acceptance_region_membership(full, P_JOINT, x, y)


def test_fixed_horizon_verdict_is_permutation_invariant():
    cfg = one_bit_config(n=3, eta=0.25)
    rng = np.random.default_rng(12)
    for seed in range(30):
        trace = run_protocol(cfg, P_JOINT, SourceModel(Hypothesis.H1, Q_UNIFORM, seed))
        verdict = acceptance_region_membership(cfg, P_JOINT, trace.x_seq, trace.y_seq)
        # x and y may be shuffled independently: only their types matter
        px = tuple(np.array(trace.x_seq)[rng.permutation(12)])
        py = tuple(np.array(trace.y_seq)[rng.permutation(12)])
        assert acceptance_region_membership(cfg, P_JOINT, px, py) == verdict


def test_early_decide_verdict_invariant_under_block_permutations():
    # early stopping sees y block by block, so reordering within blocks (and
    # permuting x wholesale, which is only read at the horizon) changes nothing
    cfg = one_bit_config(k=4, n=3, eta=0.25, policy_kind="early_decide")
    rng = np.random.default_rng(13)
    for seed in range(30):
        trace = run_protocol(cfg, P_JOINT, SourceModel(Hypothesis.H1, Q_UNIFORM, seed))
        verdict = trace.decision == ACCEPT
        y = np.array(trace.y_seq)
        for b in range(trace.stopping_time):
            block = y[b * 4 : (b + 1) * 4]
            y[b * 4 : (b + 1) * 4] = block[rng.permutation(4)]
        x = np.array(trace.x_seq)[rng.permutation(len(trace.x_seq))]
        assert acceptance_region_membership(cfg, P_JOINT, tuple(x), tuple(y)) == verdict


P_3X3 = JointPmf.from_probs([[0.30, 0.05, 0.05], [0.05, 0.20, 0.05], [0.05, 0.05, 0.20]])
Q_3X3 = JointPmf.from_probs(np.full((3, 3), 1 / 9))


P_HALF_Y = JointPmf.from_probs([[0.05, 0.05], [0.45, 0.45]])


def _batch_cases():
    p_3x2 = JointPmf.from_probs([[0.25, 0.25], [0.125, 0.125], [0.125, 0.125]])
    q_3x2 = JointPmf.from_probs([[0.1, 0.2], [0.3, 0.1], [0.1, 0.2]])
    for hypothesis in (Hypothesis.H0, Hypothesis.H1):
        for policy in ("fixed_horizon", "early_decide"):
            case = f"{hypothesis.value}-{policy}"
            yield pytest.param(policy, hypothesis, P_JOINT, Q_UNIFORM, 0.2, 2, 6, id=case)
            # Types exactly 0.25 off a 3-symbol marginal sit on the boundary.
            yield pytest.param(policy, hypothesis, p_3x2, q_3x2, 0.25, 2, 6, id=f"{case}-3x2")
            # 120 samples span several blocks, and k=3 does not divide a block.
            yield pytest.param(policy, hypothesis, P_JOINT, Q_UNIFORM, 0.05, 3, 40, id=f"{case}-k3n40")
            yield pytest.param(policy, hypothesis, P_3X3, Q_3X3, 0.12, 3, 20, id=f"{case}-3x3")
            yield pytest.param(policy, hypothesis, P_JOINT, Q_UNIFORM, 0.3, 1, 1, id=f"{case}-n1")
            # At round 1 no count of one sample lies in any window.
            yield pytest.param(policy, hypothesis, P_JOINT, Q_UNIFORM, 0.05, 1, 3, id=f"{case}-empty-windows")
            # y marginal (0.5, 0.5), 10 samples at round 2: in floats, 3 of
            # symbol 1 misses its window and 7 passes, while 7 misses through
            # symbol 0's window (3 of symbol 0) and 3 passes.
            yield pytest.param(policy, hypothesis, P_HALF_Y, Q_UNIFORM, 0.15, 5, 3, id=f"{case}-float-edges")


@pytest.mark.parametrize("policy, hypothesis, p_null, alternative, eta, k, n", list(_batch_cases()))
def test_simulate_batch_matches_protocol_runs(policy, hypothesis, p_null, alternative, eta, k, n):
    cfg = ProtocolConfig(k=k, n=n, eta=eta, policy_kind=policy)
    joint = p_null if hypothesis is Hypothesis.H0 else alternative
    seeds = derive_seed(321, np.arange(64, dtype=np.uint64))
    decisions, stops = simulate_batch(cfg, p_null, joint, seeds)
    for j, seed in enumerate(seeds):
        trace = run_protocol(cfg, p_null, SourceModel(hypothesis, joint, int(seed)))
        assert trace.decision == decisions[j]
        assert trace.stopping_time == stops[j]


P_BENCH = JointPmf.from_probs([[0.81, 0.09], [0.09, 0.01]])
# A zero cell ends the first joint row, and the cdf reaches 1 at cell 5 of 8,
# so two thresholds are 2**53.
P_2X4 = JointPmf.from_probs([[0.125, 0.125, 0.25, 0.0], [0.25, 0.25, 0.0, 0.0]])
Q_2X4 = JointPmf.from_probs(np.full((2, 4), 1 / 8))


# An alternative far from P_3X3 on y: its y counts leave the null's windows
# long before the horizon.
Q_FAR_3X3 = JointPmf.from_probs([[0.05, 0.05, 0.3], [0.05, 0.05, 0.2], [0.05, 0.05, 0.2]])


def _kernel_cases():
    # ``settles`` says which fixed-horizon trials must be dropped as settled
    # rejects before the horizon: "H1" some under the alternative, "all"
    # every trial under both hypotheses.
    for hypothesis in (Hypothesis.H0, Hypothesis.H1):
        for policy in ("fixed_horizon", "early_decide"):
            case = f"{hypothesis.value}-{policy}"
            # A round of 300 draws overflows a uint8 partial sum, and 3-round
            # tiles do not divide the 4-round horizon.
            yield pytest.param(policy, hypothesis, P_JOINT, Q_UNIFORM, 300, 4, 0.06, None, 64, None, "H1", id=f"{case}-k300")
            # Tiles of 3 rounds, not dividing 40.
            yield pytest.param(
                policy, hypothesis, P_JOINT, Q_UNIFORM, 3, 40, 0.05, 3 * 3 * 64, 64, None, "H1", id=f"{case}-small-tiles"
            )
            # The y code wraps at each row end: one tile of the whole horizon,
            # then tiles of 3 rounds.
            for name, p_null, alternative in (("3x3", P_3X3, Q_3X3), ("2x4", P_2X4, Q_2X4)):
                for tile_draws in (None, 3 * 2 * 64):
                    tiles = "one-tile" if tile_draws is None else "3-round-tiles"
                    yield pytest.param(
                        policy, hypothesis, p_null, alternative, 2, 30, 0.2, tile_draws, 64, None, None,
                        id=f"{case}-{name}-{tiles}",
                    )
            # The benchmark's chunk shape: 64-round tiles at 512 trials, and
            # the 2-round tiles of a 16,384-trial chunk.
            for tile_draws in (None, 2 * 2 * 512):
                tiles = "64-round-tiles" if tile_draws is None else "2-round-tiles"
                yield pytest.param(
                    policy, hypothesis, P_BENCH, Q_UNIFORM, 2, 100, default_eta(100, 2), tile_draws, 512, None,
                    None if tile_draws is None else "H1", id=f"{case}-bench-{tiles}",
                )
    # Fixed-horizon cases where most of the alternative's trials settle, or
    # every trial does.
    for hypothesis in (Hypothesis.H0, Hypothesis.H1):
        case = f"{hypothesis.value}-fixed_horizon"
        # Checked after every 1-round tile: 3x3, and 2x4, whose zero cells
        # leave rows of ``above`` at 0.
        for name, p_null, alternative in (("3x3", P_3X3, Q_FAR_3X3), ("2x4", P_2X4, Q_2X4)):
            yield pytest.param(
                "fixed_horizon", hypothesis, p_null, alternative, 2, 30, 0.1, 2 * 64, 64, 2, "H1",
                id=f"{case}-{name}-settle-every-tile",
            )
        # The benchmark's eta and the 2-round tiles of its chunks, N = 200
        # and 2000.
        for n, eta, trials in ((100, 0.05, 512), (1000, 0.02, 128)):
            yield pytest.param(
                "fixed_horizon", hypothesis, P_BENCH, Q_UNIFORM, 2, n, eta, 2 * 2 * trials, trials, None, "H1",
                id=f"{case}-bench-n{2 * n}-eta{eta}-2-round-tiles",
            )
        # 302 samples at eta = 0.001: no count lies in any window, so
        # every trial settles at the first check.
        yield pytest.param(
            "fixed_horizon", hypothesis, P_JOINT, Q_UNIFORM, 2, 151, 0.001, 2 * 2 * 64, 64, None, "all",
            id=f"{case}-empty-windows",
        )


def _record_live(monkeypatch) -> list:
    """Patch ``_stream_counts`` to record the trials each call still counts
    at the horizon."""
    lives = []
    stream = seqht.protocol._stream_counts

    def record(*args):
        live, above = stream(*args)
        lives.append(live)
        return live, above

    monkeypatch.setattr(seqht.protocol, "_stream_counts", record)
    return lives


@pytest.mark.parametrize(
    "policy, hypothesis, p_null, alternative, k, n, eta, tile_draws, trials, settle_draws, settles",
    list(_kernel_cases()),
)
def test_simulate_batch_tiles_match_protocol_runs(
    monkeypatch, policy, hypothesis, p_null, alternative, k, n, eta, tile_draws, trials, settle_draws, settles
):
    if tile_draws is not None:
        monkeypatch.setattr(seqht.protocol, "_TILE_DRAWS", tile_draws)
    if settle_draws is not None:
        monkeypatch.setattr(seqht.protocol, "_SETTLE_DRAWS", settle_draws)
    lives = _record_live(monkeypatch)
    cfg = ProtocolConfig(k=k, n=n, eta=eta, policy_kind=policy)
    joint = p_null if hypothesis is Hypothesis.H0 else alternative
    seeds = derive_seed(77, np.arange(trials, dtype=np.uint64))
    decisions, stops = simulate_batch(cfg, p_null, joint, seeds)
    outcomes = set()
    for j, seed in enumerate(seeds):
        trace = run_protocol(cfg, p_null, SourceModel(hypothesis, joint, int(seed)))
        assert trace.decision == decisions[j]
        assert trace.stopping_time == stops[j]
        outcomes.add((trace.stopping_time < n, trace.decision))
    if policy == "early_decide" and hypothesis is Hypothesis.H1:
        assert (True, REJECT) in outcomes  # some trials stop early
    if hypothesis is Hypothesis.H0 and settles != "all":
        assert (False, ACCEPT) in outcomes
    if policy == "fixed_horizon":
        dropped = trials - lives[-1].size
        if settles == "all":
            assert dropped == trials
        elif settles == "H1" and hypothesis is Hypothesis.H1:
            assert dropped > 0


@pytest.mark.parametrize("n, eta, h1_share", [(100, 0.05, 0.50), (1000, 0.02, 0.35)])
def test_fixed_horizon_trials_stop_drawing_once_their_reject_is_settled(monkeypatch, n, eta, h1_share):
    # A 16,384-trial chunk of the benchmark pair: under the alternative the y
    # counts leave the null's windows early and most trials stop drawing;
    # under the null nearly every trial draws the whole horizon.
    hashed = []
    hash_words = seqht.protocol.random_bits_into

    def counting(seeds, start, out, scratch):
        hashed.append(out.size)
        return hash_words(seeds, start, out, scratch)

    monkeypatch.setattr(seqht.protocol, "random_bits_into", counting)
    cfg = ProtocolConfig(k=2, n=n, eta=eta)
    seeds = derive_seed(5, np.arange(16_384, dtype=np.uint64))
    budget = seeds.size * cfg.total_samples
    for joint, low, high in ((P_BENCH, 0.95, 1.0), (Q_UNIFORM, 0.0, h1_share)):
        hashed.clear()
        simulate_batch(cfg, P_BENCH, joint, seeds)
        assert low * budget <= sum(hashed) <= high * budget


# A leading zero cell gives T = 0; a cdf that reaches 1 at cell 2 of 6 gives
# three thresholds of 2**53.
RAW_WORD_JOINTS = [[[0.0, 0.5], [0.25, 0.25]], [[0.0, 0.5, 0.5], [1e-17, 0.0, 0.0]], [[0.3, 0.0, 0.2], [0.1, 0.25, 0.15]]]


@pytest.mark.parametrize(
    "policy, probs",
    [pytest.param("fixed_horizon", p, id=f"probs{i}") for i, p in enumerate(RAW_WORD_JOINTS)]
    + [pytest.param("early_decide", p, id=f"early_decide-probs{i}") for i, p in enumerate(RAW_WORD_JOINTS)],
)
def test_simulate_batch_counts_raw_words_like_the_float_sampler(monkeypatch, policy, probs):
    # Random words almost never land on a threshold, so feed the kernel words
    # on both sides of each T << 11 and at both ends of the 64-bit range.
    joint = JointPmf.from_probs(probs)
    cdf = categorical_cdf(joint.probs.ravel())
    edges = {0, 2**64 - 1}
    for t in categorical_thresholds(cdf).tolist():
        edges |= {(t << 11) - 1, t << 11, (t << 11) | 0x7FF}
    words = np.array(sorted(w for w in edges if 0 <= w < 2**64), dtype=np.uint64)

    def fake_hash(seeds, start, out, scratch):
        # Trial s sees the words rotated by s: word (counter + s) mod len.
        counters = np.arange(start, start + out.shape[0])[:, None] + seeds.astype(np.int64)
        out[:] = words[counters % words.size]
        return out

    cells = []
    real_cells = seqht.protocol._cell_counts
    monkeypatch.setattr(seqht.protocol, "random_bits_into", fake_hash)
    monkeypatch.setattr(seqht.protocol, "_cell_counts", lambda *a: cells.append(real_cells(*a)) or cells[-1])
    # Tiles of 4 draws, and a horizon long enough that the uint8 tile sums
    # are moved into the int64 counts several times (T = 0 hits every word).
    monkeypatch.setattr(seqht.protocol, "_TILE_DRAWS", 5 * words.size)
    k, n = 2, 150
    cfg = ProtocolConfig(k=k, n=n, eta=0.2, policy_kind=policy)
    decisions, stops = simulate_batch(cfg, joint, joint, np.arange(words.size, dtype=np.uint64))
    counts = cells[-1]  # the joint counts of the trials that reach the horizon, trials last
    reached = 0
    for s in range(words.size):
        seen = words[(np.arange(k * n) + s) % words.size]
        drawn = sample_categorical(cdf, (seen >> np.uint64(11)) * 2.0**-53)
        verdicts = float_replay(cfg, joint, *np.divmod(drawn, joint.probs.shape[1]))[0]
        assert (stops[s], decisions[s]) == (len(verdicts), verdicts[-1])
        if stops[s] == n:
            expected = np.bincount(drawn, minlength=cdf.size).reshape(joint.probs.shape)
            np.testing.assert_array_equal(counts[..., reached], expected)
            reached += 1
    assert counts.shape[-1] == reached
    if policy == "early_decide":
        assert 0 < reached < words.size  # y codes of edge words reject some trials early


@pytest.mark.parametrize("policy, bound_mb", [("fixed_horizon", 3), ("early_decide", 4)])
def test_simulate_batch_memory_at_a_full_chunk(policy, bound_mb):
    # One Monte Carlo chunk of 16,384 trials at N = 200 under H0: the draws
    # are hashed and counted in cache-sized tiles whose buffers are allocated
    # once, so the peak is the per-trial counts plus a few tiles.
    eta = 0.05 if policy == "fixed_horizon" else default_eta(100, 2)
    cfg = ProtocolConfig(k=2, n=100, eta=eta, policy_kind=policy)
    p = JointPmf.from_probs([[0.81, 0.09], [0.09, 0.01]])
    seeds = derive_seed(5, np.arange(16_384, dtype=np.uint64))
    tracemalloc.start()
    try:
        decisions, stops = simulate_batch(cfg, p, p, seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mb * 2**20
    assert decisions.shape == stops.shape == (16_384,)


@pytest.mark.parametrize("policy", ["fixed_horizon", "early_decide"])
def test_simulate_batch_buffers_stop_at_the_horizon(policy):
    # One trial of 4 rounds on a 3x3 joint: tiles are capped at the horizon,
    # not sized for a tile's worth of draws the call never makes (which took
    # 1.1 MB fixed-horizon and 5.4 MB early-decide).
    cfg = ProtocolConfig(k=1, n=4, eta=0.3, policy_kind=policy)
    p = JointPmf.from_probs(np.full((3, 3), 1 / 9))
    tracemalloc.start()
    try:
        decisions, stops = simulate_batch(cfg, p, p, np.arange(1, dtype=np.uint64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2**10
    assert decisions.shape == stops.shape == (1,)


@pytest.mark.parametrize("policy", ["fixed_horizon", "early_decide"])
@pytest.mark.parametrize("hypothesis", [Hypothesis.H0, Hypothesis.H1])
def test_simulate_batch_memory_is_bounded_at_long_horizons(policy, hypothesis):
    # 256 trials x 20,000 samples would be 41 MB of uniforms alone; the
    # streaming kernel holds O(trials x cells) counts plus one block of draws.
    cfg = ProtocolConfig(k=2, n=10_000, eta=0.02, policy_kind=policy)
    joint = P_JOINT if hypothesis is Hypothesis.H0 else Q_UNIFORM
    seeds = derive_seed(5, np.arange(256, dtype=np.uint64))
    tracemalloc.start()
    try:
        decisions, stops = simulate_batch(cfg, P_JOINT, joint, seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20
    assert decisions.shape == stops.shape == (256,)
    assert stops.max() <= 10_000


def test_early_decide_produces_varied_stopping_times():
    cfg = ProtocolConfig(k=2, n=10, eta=0.15, policy_kind="early_decide")
    seeds = derive_seed(9, np.arange(500, dtype=np.uint64))
    _, stops = simulate_batch(cfg, P_JOINT, Q_UNIFORM, seeds)
    assert stops.max() <= 10
    assert stops.min() < 10  # the uniform alternative gets rejected early sometimes
    assert len(np.unique(stops)) > 2


def test_source_model_masks_seed_to_64_bits():
    src = SourceModel(Hypothesis.H0, P_JOINT, rng_seed=2**64 + 5)
    assert src.rng_seed == 5
    assert SourceModel("H1", P_JOINT, 1).hypothesis is Hypothesis.H1
    assert SourceModel("H1", P_JOINT, -1).rng_seed == 2**64 - 1
    assert SourceModel("H1", P_JOINT, np.uint64(7)).rng_seed == 7


def test_source_model_rejects_a_non_integer_seed_or_a_non_joint():
    for bad in (1.7, 1.0, True, np.bool_(True), "1", None):
        with pytest.raises(InvalidConfig, match="rng_seed"):
            SourceModel(Hypothesis.H0, P_JOINT, bad)
    for bad in ([[0.25, 0.25], [0.25, 0.25]], P_JOINT.probs, Pmf.from_probs([0.5, 0.5])):
        with pytest.raises(InvalidConfig, match="JointPmf"):
            SourceModel(Hypothesis.H0, bad, 1)


def test_simulate_batch_takes_integer_seeds_masked_to_64_bits():
    cfg = ProtocolConfig(k=2, n=5, eta=0.2)
    seeds = np.array([1, 2, 2**64 - 1], dtype=np.uint64)
    assert seqht.protocol._seed_array(seeds) is seeds  # no copy, no pass over the seeds
    expected = simulate_batch(cfg, P_JOINT, Q_UNIFORM, seeds)
    trace = run_protocol(cfg, P_JOINT, SourceModel(Hypothesis.H1, Q_UNIFORM, -1))
    assert (expected[0][2], expected[1][2]) == (trace.decision, trace.stopping_time)
    for same in (
        [1, 2, -1],
        (1, 2, 2**64 - 1),
        [1, 2, 2**65 - 1],
        [np.int64(1), np.uint8(2), np.int64(-1)],
        np.array([1, 2, -1], dtype=np.int64),
        np.array([1, 2, 2**64 - 1], dtype=np.uint64)[::1],
    ):
        got = simulate_batch(cfg, P_JOINT, Q_UNIFORM, same)
        np.testing.assert_array_equal(got[0], expected[0])
        np.testing.assert_array_equal(got[1], expected[1])
    for bad in (
        [1.7, 2.2],
        [True, False],
        [np.bool_(True)],
        [[1, 2], [3, 4]],
        [1, None],
        "12",
        5,
        np.uint64(5),
        np.array([1.0, 2.0]),
        np.array([True, False]),
        np.array([[1, 2], [3, 4]], dtype=np.uint64),
        np.array(5, dtype=np.uint64),
    ):
        with pytest.raises(InvalidConfig, match="seeds"):
            simulate_batch(cfg, P_JOINT, Q_UNIFORM, bad)


def test_source_model_names_the_hypotheses_it_takes():
    for bad in ("H2", "h0", None, 0):
        with pytest.raises(InvalidConfig, match="hypothesis must be one of 'H0', 'H1'"):
            SourceModel(bad, P_JOINT, 1)


def test_marginals_of_product_joint():
    mx, my = marginals(P_JOINT)
    np.testing.assert_allclose(mx.probs, [0.75, 0.25], atol=1e-15)
    np.testing.assert_allclose(my.probs, [0.75, 0.25], atol=1e-15)

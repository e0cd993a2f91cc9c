import math

import numpy as np
import pytest

from seqht import (
    Alphabet,
    AlphabetMismatch,
    EmpiricalType,
    InvalidDistribution,
    JointPmf,
    LengthMismatch,
    Pmf,
    UnsupportedMass,
    count_type_vectors,
    empirical_type,
    iter_count_vectors,
    kl_divergence,
    linf_distance,
    log_multinomial_weight,
    marginals,
)


def test_pmf_rejects_bad_vectors():
    with pytest.raises(InvalidDistribution):
        Pmf.from_probs([0.5, 0.6])  # sums to 1.1
    with pytest.raises(InvalidDistribution):
        Pmf.from_probs([1.5, -0.5])
    with pytest.raises(InvalidDistribution):
        Pmf.from_probs([[0.5, 0.5]])  # wrong rank
    with pytest.raises(InvalidDistribution):
        Pmf.from_probs([0.5, np.nan])


def test_pmf_renormalizes_within_slack_only():
    p = Pmf.from_probs([0.5, 0.5 + 5e-10])
    assert math.isclose(p.probs.sum(), 1.0, abs_tol=1e-15)
    with pytest.raises(InvalidDistribution):
        Pmf.from_probs([0.5, 0.5 + 5e-9])


def test_pmf_probs_are_immutable():
    p = Pmf.from_probs([0.3, 0.7])
    with pytest.raises(ValueError):
        p.probs[0] = 0.9


def test_alphabet_labels():
    a = Alphabet(2, ("heads", "tails"))
    assert a.labels == ("heads", "tails")
    with pytest.raises(InvalidDistribution):
        Alphabet(2, ("x", "x"))
    with pytest.raises(InvalidDistribution):
        Alphabet(0)


def test_joint_shape_and_positivity_flag():
    j = JointPmf.from_probs([[0.5, 0.2], [0.1, 0.2]])
    assert j.strictly_positive
    assert not JointPmf.from_probs([[0.5, 0.5], [0.0, 0.0]]).strictly_positive
    with pytest.raises(AlphabetMismatch):
        JointPmf(Alphabet(3), Alphabet(2), np.full((2, 2), 0.25))


def test_kl_divergence_reference_values():
    p = Pmf.from_probs([0.9, 0.1])
    u = Pmf.from_probs([0.5, 0.5])
    assert kl_divergence(p, p) == 0.0
    assert abs(kl_divergence(p, u) - 0.3680642071684971) < 1e-15
    # 0 * ln 0 = 0: a zero in p is fine
    z = Pmf.from_probs([1.0, 0.0])
    assert abs(kl_divergence(z, u) - math.log(2)) < 1e-15


def test_kl_divergence_unsupported_mass():
    p = Pmf.from_probs([0.5, 0.5])
    q = Pmf.from_probs([1.0, 0.0])
    with pytest.raises(UnsupportedMass):
        kl_divergence(p, q)
    with pytest.raises(AlphabetMismatch):
        kl_divergence(p, Pmf.from_probs([0.2, 0.3, 0.5]))


def test_marginals_row_and_column():
    j = JointPmf.from_probs([[0.5, 0.2], [0.1, 0.2]])
    mx, my = marginals(j)
    np.testing.assert_allclose(mx.probs, [0.7, 0.3], atol=1e-15)
    np.testing.assert_allclose(my.probs, [0.6, 0.4], atol=1e-15)


def test_marginals_are_built_once_per_joint():
    j = JointPmf.from_probs([[0.5, 0.2], [0.1, 0.2]])
    first = marginals(j)
    assert marginals(j) is first
    for m in first:
        assert not m.probs.flags.writeable
        with pytest.raises(ValueError):
            m.probs[0] = 0.5
    # An equal joint built separately has equal (not shared) marginals.
    other = marginals(JointPmf.from_probs([[0.5, 0.2], [0.1, 0.2]]))
    assert other == first and other[0] is not first[0]


def test_distributions_and_types_compare_and_hash_by_value():
    a2 = Alphabet(2)
    p, same = Pmf.from_probs([0.25, 0.75]), Pmf.from_probs([0.25, 0.75])
    assert p == same and hash(p) == hash(same) and len({p, same}) == 1
    assert p != Pmf.from_probs([0.75, 0.25])
    assert p != Pmf.from_probs([0.25, 0.75], labels=("a", "b"))
    # -0.0 equals 0.0, so the hashes must match too.
    z, neg = Pmf.from_probs([0.0, 1.0]), Pmf.from_probs([-0.0, 1.0])
    assert z == neg and hash(z) == hash(neg)
    j = JointPmf.from_probs([[0.5, 0.2], [0.1, 0.2]])
    assert j == JointPmf.from_probs([[0.5, 0.2], [0.1, 0.2]])
    assert hash(j) == hash(JointPmf.from_probs([[0.5, 0.2], [0.1, 0.2]]))
    assert j != JointPmf.from_probs([[0.5, 0.1], [0.2, 0.2]])
    assert j != JointPmf.from_probs([[0.5, 0.2, 0.1, 0.2]])
    assert j != p and p != j
    t = empirical_type([0, 0, 1], a2)
    assert t == EmpiricalType(np.array([2, 1]), a2) and hash(t) == hash(EmpiricalType([2, 1], a2))
    assert t != empirical_type([0, 1, 1], a2)
    assert t != empirical_type([0, 0, 1], a2, [1, 0, 0], a2)
    assert t != EmpiricalType(np.array([2, 1, 0]), Alphabet(3))


def test_empirical_type_checks_every_input_form():
    a2 = Alphabet(2)
    # Counting produces C-contiguous int64 arrays; lists, other integer
    # dtypes, integral floats and strided views are converted first.
    for counts in (np.array([3, 1]), [3, 1], np.array([3, 1], dtype=np.int8), np.array([3.0, 1.0]),
                   np.array([3, 9, 1])[::2]):
        t = EmpiricalType(counts, a2)
        assert t.counts.dtype == np.int64 and t.counts.flags.c_contiguous
        assert not t.counts.flags.writeable and t.counts.tolist() == [3, 1]
    for counts, error in (
        (np.array([-1, 2]), InvalidDistribution),
        ([1, -1], InvalidDistribution),
        (np.array([0, 0]), InvalidDistribution),
        (np.array([1, 2, 3]), AlphabetMismatch),
        (np.array([[1, 2]]), AlphabetMismatch),
        (np.array([], dtype=np.int64), AlphabetMismatch),
        (np.array([1.5, 2.5]), InvalidDistribution),
    ):
        with pytest.raises(error):
            EmpiricalType(counts, a2)
    # Negative counts are reported before a wrong shape, as they always were.
    with pytest.raises(InvalidDistribution):
        EmpiricalType(np.array([-1, 2, 3]), a2)


def test_empirical_type_single_and_joint():
    a2 = Alphabet(2)
    t = empirical_type([0, 0, 0, 1], a2)
    assert t.counts.tolist() == [3, 1]
    assert t.total == 4
    tj = empirical_type([0, 1, 0], a2, [1, 1, 0], a2)
    assert tj.counts.tolist() == [[1, 1], [0, 1]]
    assert tj.is_joint


def test_empirical_type_errors():
    a2 = Alphabet(2)
    with pytest.raises(LengthMismatch):
        empirical_type([], a2)
    with pytest.raises(AlphabetMismatch):
        empirical_type([0, 2], a2)
    with pytest.raises(LengthMismatch):
        empirical_type([0, 1], a2, [0], a2)


def test_frequencies_are_valid_distributions():
    a2 = Alphabet(2)
    f = empirical_type([0, 0, 1], a2).frequencies()
    assert isinstance(f, Pmf)
    np.testing.assert_allclose(f.probs, [2 / 3, 1 / 3])
    fj = empirical_type([0, 1], a2, [1, 0], a2).frequencies()
    assert isinstance(fj, JointPmf)
    assert fj.probs.sum() == pytest.approx(1.0)


def test_empirical_type_rejects_fractional_counts():
    with pytest.raises(InvalidDistribution):
        EmpiricalType(np.array([1.5, 2.5]), Alphabet(2))
    with pytest.raises(InvalidDistribution):
        EmpiricalType(np.array([-1, 2]), Alphabet(2))


def test_linf_distance():
    a2 = Alphabet(2)
    p = Pmf.from_probs([0.75, 0.25])
    assert linf_distance(empirical_type([0, 0, 0, 1], a2), p) == 0.0
    assert linf_distance(empirical_type([1, 1, 1, 1], a2), p) == pytest.approx(0.75)
    assert linf_distance(Pmf.from_probs([0.5, 0.5]), p) == pytest.approx(0.25)


def test_log_multinomial_weight_matches_direct_formula():
    a2 = Alphabet(2)
    p = Pmf.from_probs([0.75, 0.25])
    t = empirical_type([0, 0, 0, 1], a2)
    # binom(4,1) * 0.75^3 * 0.25
    assert log_multinomial_weight(t, p) == pytest.approx(math.log(4 * 0.75**3 * 0.25), abs=1e-14)
    assert math.exp(log_multinomial_weight(t, p)) == pytest.approx(0.421875)


def test_log_multinomial_weights_sum_to_one():
    # Summing exp(weight) over every type of a fixed total must give 1.
    rng = np.random.default_rng(5)
    probs = rng.dirichlet(np.ones(3))
    p = Pmf.from_probs(probs)
    total = 9
    acc = 0.0
    for counts in iter_count_vectors(total, 3):
        t = EmpiricalType(np.array(counts), p.alphabet)
        acc += math.exp(log_multinomial_weight(t, p))
    assert acc == pytest.approx(1.0, abs=1e-12)


def test_log_multinomial_weight_joint_and_zero_support():
    a2 = Alphabet(2)
    tj = empirical_type([0, 1], a2, [1, 1], a2)
    j = JointPmf.from_probs([[0.25, 0.25], [0.25, 0.25]])
    assert log_multinomial_weight(tj, j) == pytest.approx(math.log(2 * 0.25**2), abs=1e-14)
    lopsided = JointPmf.from_probs([[0.5, 0.0], [0.5, 0.0]])
    with pytest.raises(UnsupportedMass):
        log_multinomial_weight(tj, lopsided)


def test_count_vector_enumeration():
    vectors = list(iter_count_vectors(3, 2))
    assert vectors == [(0, 3), (1, 2), (2, 1), (3, 0)]
    assert len(vectors) == count_type_vectors(3, 2)
    assert count_type_vectors(12, 4) == math.comb(15, 3)
    # every enumerated vector sums to the total, with no duplicates
    vs = list(iter_count_vectors(5, 3))
    assert all(sum(v) == 5 for v in vs)
    assert len(set(vs)) == len(vs) == count_type_vectors(5, 3)

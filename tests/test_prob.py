import itertools
import math

import numpy as np
import pytest

from seqht import (
    AlphabetMismatch,
    EmpiricalType,
    InvalidDistribution,
    JointPmf,
    LengthMismatch,
    Pmf,
    UnsupportedMass,
    count_type_vectors,
    empirical_type,
    kl_divergence,
    linf_distance,
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
    with pytest.raises(InvalidDistribution, match="finite"):
        Pmf.from_probs([10**400, 0])  # a Python int past the float range


def test_pmfs_take_real_numbers_only():
    # A bool, a numeric string or an object is not a probability, and ragged
    # rows are a distribution error, not a bare numpy ValueError.
    for raw in ([["0.5", "0.5"]], [[True, False]], [[0.5, 0.5], [0.0]], [[0.5, None], [0.25, 0.25]],
                np.array([[True, False]]), [[0.5, np.True_], [0.0, 0.0]]):
        with pytest.raises(InvalidDistribution, match="real numbers"):
            JointPmf.from_probs(raw)
    for raw in (["0.25", "0.75"], [True, False], [0.0, True], [0.5, 0.5j]):
        with pytest.raises(InvalidDistribution, match="real numbers"):
            Pmf.from_probs(raw)
    with pytest.raises(InvalidDistribution, match="real numbers"):
        Pmf(["0.25", "0.75"])
    # Python and numpy numbers of any real kind are accepted.
    assert Pmf.from_probs([np.float32(0.25), 0.75]) == Pmf.from_probs([0.25, 0.75])
    assert JointPmf.from_probs([[1, 0], [np.int64(0), 0]]).probs.tolist() == [[1.0, 0.0], [0.0, 0.0]]


def test_pmf_renormalizes_within_slack_only():
    p = Pmf.from_probs([0.5, 0.5 + 5e-10])
    assert math.isclose(p.probs.sum(), 1.0, abs_tol=1e-15)
    with pytest.raises(InvalidDistribution):
        Pmf.from_probs([0.5, 0.5 + 5e-9])


def test_pmf_probs_are_immutable():
    p = Pmf.from_probs([0.3, 0.7])
    with pytest.raises(ValueError):
        p.probs[0] = 0.9


def test_zero_symbols_are_rejected():
    # No pmf or type lives on an empty alphabet.
    for make, raw in ((Pmf.from_probs, []), (JointPmf.from_probs, [[]]), (JointPmf, np.zeros((0, 2))),
                      (EmpiricalType, []), (EmpiricalType, np.zeros((2, 0), dtype=np.int64))):
        with pytest.raises(InvalidDistribution):
            make(raw)


def test_joint_shape_and_positivity_flag():
    j = JointPmf.from_probs([[0.5, 0.2], [0.1, 0.2]])
    assert j.strictly_positive
    assert not JointPmf.from_probs([[0.5, 0.5], [0.0, 0.0]]).strictly_positive
    assert JointPmf(np.full((2, 3), 1 / 6)).probs.shape == (2, 3)


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
    p, same = Pmf.from_probs([0.25, 0.75]), Pmf.from_probs([0.25, 0.75])
    assert p == same and hash(p) == hash(same) and len({p, same}) == 1
    assert p != Pmf.from_probs([0.75, 0.25])
    # -0.0 equals 0.0, so the hashes must match too.
    z, neg = Pmf.from_probs([0.0, 1.0]), Pmf.from_probs([-0.0, 1.0])
    assert z == neg and hash(z) == hash(neg)
    j = JointPmf.from_probs([[0.5, 0.2], [0.1, 0.2]])
    assert j == JointPmf.from_probs([[0.5, 0.2], [0.1, 0.2]])
    assert hash(j) == hash(JointPmf.from_probs([[0.5, 0.2], [0.1, 0.2]]))
    assert j != JointPmf.from_probs([[0.5, 0.1], [0.2, 0.2]])
    assert j != JointPmf.from_probs([[0.5, 0.2, 0.1, 0.2]])
    assert j != p and p != j
    t = empirical_type([0, 0, 1], 2)
    assert t == EmpiricalType(np.array([2, 1])) and hash(t) == hash(EmpiricalType([2, 1]))
    assert t != empirical_type([0, 1, 1], 2)
    assert t != EmpiricalType(np.array([2, 1, 0]))


def test_empirical_type_checks_every_input_form():
    # Counting produces C-contiguous int64 arrays; lists, other integer
    # dtypes, integral floats and strided views are converted first.
    for counts in (np.array([3, 1]), [3, 1], np.array([3, 1], dtype=np.int8), np.array([3.0, 1.0]),
                   np.array([3, 9, 1])[::2]):
        t = EmpiricalType(counts)
        assert t.counts.dtype == np.int64 and t.counts.flags.c_contiguous
        assert not t.counts.flags.writeable and t.counts.tolist() == [3, 1]
    for counts, error in (
        (np.array([-1, 2]), InvalidDistribution),
        ([1, -1], InvalidDistribution),
        (np.array([0, 0]), InvalidDistribution),
        (np.array([[1, 2]]), InvalidDistribution),
        (np.array([], dtype=np.int64), InvalidDistribution),
        (np.array([1.5, 2.5]), InvalidDistribution),
    ):
        with pytest.raises(error):
            EmpiricalType(counts)


def test_empirical_type_single_and_joint():
    t = empirical_type([0, 0, 0, 1], 2)
    assert t.counts.tolist() == [3, 1]
    assert t.total == 4


def test_empirical_type_errors():
    with pytest.raises(LengthMismatch):
        empirical_type([], 2)
    with pytest.raises(AlphabetMismatch):
        empirical_type([0, 2], 2)


def test_frequencies_are_valid_distributions():
    f = empirical_type([0, 0, 1], 2).frequencies()
    assert isinstance(f, Pmf)
    np.testing.assert_allclose(f.probs, [2 / 3, 1 / 3])


def test_empirical_type_rejects_non_integer_symbols():
    for x in ([0.9, 1.5], [True, False]):
        with pytest.raises(AlphabetMismatch, match="integers"):
            empirical_type(x, 2)
    with pytest.raises(LengthMismatch):
        empirical_type(np.array([], dtype=np.float64), 2)


def test_empirical_type_leaves_the_callers_counts_writable():
    c = np.array([3, 1])
    t = EmpiricalType(c)
    assert c.flags.writeable and not t.counts.flags.writeable
    c[0] = 0
    assert t.counts.tolist() == [3, 1]


def test_empirical_type_rejects_fractional_counts():
    with pytest.raises(InvalidDistribution):
        EmpiricalType(np.array([1.5, 2.5]))
    with pytest.raises(InvalidDistribution):
        EmpiricalType(np.array([-1, 2]))


def test_empirical_type_rejects_bool_counts():
    for counts in (np.array([True, True]), [True, False], np.array([[True], [True]])):
        with pytest.raises(InvalidDistribution, match="counts must be integers"):
            EmpiricalType(counts)
    # A bool array of any length is reported as non-integer, a negative
    # integer array as negative.
    with pytest.raises(InvalidDistribution, match="integers"):
        EmpiricalType(np.array([True, False, True]))
    with pytest.raises(InvalidDistribution, match="nonnegative"):
        EmpiricalType(np.array([-1, 2, 3]))


def test_linf_distance():
    p = Pmf.from_probs([0.75, 0.25])
    assert linf_distance(empirical_type([0, 0, 0, 1], 2), p) == 0.0
    assert linf_distance(empirical_type([1, 1, 1, 1], 2), p) == pytest.approx(0.75)
    assert linf_distance(Pmf.from_probs([0.5, 0.5]), p) == pytest.approx(0.25)


def test_count_vector_enumeration():
    assert count_type_vectors(3, 2) == 4
    assert count_type_vectors(12, 4) == math.comb(15, 3)
    # brute force: every vector of 3 counts in 0..5 that sums to 5
    vs = [v for v in itertools.product(range(6), repeat=3) if sum(v) == 5]
    assert len(vs) == count_type_vectors(5, 3)

"""Exact finite-alphabet probability primitives.

Pmfs, joint pmfs, empirical types, divergences, and log-domain multinomial
weights. Everything here is immutable after construction and pure, so values
can be shared freely across concurrent tasks.

Conventions: all divergences are in nats; 0*ln(0) = 0 cell-wise; products of
many probabilities are only ever formed in log domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np
from scipy.special import gammaln

from .errors import (
    AlphabetMismatch,
    InvalidDistribution,
    LengthMismatch,
    UnsupportedMass,
)

# Constructors renormalize sums within this slack and reject anything worse.
# Tolerates config-file rounding without masking genuine errors.
NORMALIZATION_SLACK = 1e-9

# Post-construction invariant on stored probabilities.
SUM_TOLERANCE = 1e-12


@dataclass(frozen=True)
class Alphabet:
    """Finite symbol alphabet; symbols are the indices 0..size-1."""

    size: int
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        if self.size < 1:
            raise InvalidDistribution(f"alphabet size must be >= 1, got {self.size}")
        labels = tuple(self.labels) if self.labels else tuple(str(i) for i in range(self.size))
        if len(labels) != self.size:
            raise InvalidDistribution(
                f"expected {self.size} labels, got {len(labels)}"
            )
        if len(set(labels)) != len(labels):
            raise InvalidDistribution("alphabet labels must be distinct")
        object.__setattr__(self, "labels", labels)


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


def _validated_probs(raw, shape_kind: str) -> np.ndarray:
    a = np.asarray(raw, dtype=np.float64)
    if shape_kind == "vector" and a.ndim != 1:
        raise InvalidDistribution(f"expected a 1-d probability vector, got shape {a.shape}")
    if shape_kind == "matrix" and a.ndim != 2:
        raise InvalidDistribution(f"expected a 2-d probability matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidDistribution("probabilities must be finite")
    if np.any(a < 0.0):
        raise InvalidDistribution(f"probabilities must be nonnegative, min={a.min()}")
    s = float(a.sum())
    if abs(s - 1.0) > NORMALIZATION_SLACK:
        raise InvalidDistribution(f"probabilities sum to {s!r}, beyond slack {NORMALIZATION_SLACK}")
    return _freeze(a / s)


class _ArrayValue:
    """Value equality and hashing for a frozen class holding one read-only array.

    Two instances are equal when their non-array parts are equal and their
    arrays are element-wise equal; the hash matches (+0 turns -0.0 into 0.0,
    which compares equal to it).
    """

    def _parts(self) -> tuple[tuple, np.ndarray]:
        raise NotImplementedError

    def __eq__(self, other):
        if other is self:
            return True
        if type(other) is not type(self):
            return NotImplemented
        (mine, a), (theirs, b) = self._parts(), other._parts()
        return mine == theirs and np.array_equal(a, b)

    def __hash__(self):
        rest, a = self._parts()
        return hash((rest, a.shape, (a + 0).tobytes()))


@dataclass(frozen=True, eq=False)
class Pmf(_ArrayValue):
    """Probability vector over a single finite alphabet."""

    alphabet: Alphabet
    probs: np.ndarray

    def __post_init__(self):
        p = _validated_probs(self.probs, "vector")
        if p.shape[0] != self.alphabet.size:
            raise AlphabetMismatch(
                f"pmf has {p.shape[0]} entries for alphabet of size {self.alphabet.size}"
            )
        object.__setattr__(self, "probs", p)

    def _parts(self):
        return (self.alphabet,), self.probs

    @classmethod
    def from_probs(cls, probs, labels: Sequence[str] = ()) -> "Pmf":
        a = np.asarray(probs, dtype=np.float64)
        return cls(Alphabet(a.shape[0], tuple(labels)), a)


@dataclass(frozen=True, eq=False)
class JointPmf(_ArrayValue):
    """Probability matrix over a pair of finite alphabets (rows: first source)."""

    alphabet_x: Alphabet
    alphabet_y: Alphabet
    probs: np.ndarray
    strictly_positive: bool = field(init=False)

    def __post_init__(self):
        p = _validated_probs(self.probs, "matrix")
        if p.shape != (self.alphabet_x.size, self.alphabet_y.size):
            raise AlphabetMismatch(
                f"joint shape {p.shape} does not match alphabets "
                f"({self.alphabet_x.size}, {self.alphabet_y.size})"
            )
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "strictly_positive", bool(p.min() > 0.0))

    def _parts(self):
        return (self.alphabet_x, self.alphabet_y), self.probs

    @cached_property
    def _marginals(self) -> tuple[Pmf, Pmf]:
        # Built once: the joint is frozen and its probs are read-only.
        return (
            Pmf(self.alphabet_x, self.probs.sum(axis=1)),
            Pmf(self.alphabet_y, self.probs.sum(axis=0)),
        )

    @classmethod
    def from_probs(cls, probs) -> "JointPmf":
        a = np.asarray(probs, dtype=np.float64)
        if a.ndim != 2:
            raise InvalidDistribution(f"expected a 2-d matrix, got shape {a.shape}")
        return cls(Alphabet(a.shape[0]), Alphabet(a.shape[1]), a)


@dataclass(frozen=True, eq=False)
class EmpiricalType(_ArrayValue):
    """Integer count vector/matrix of an observed sequence.

    ``counts`` is 1-d for a single source and 2-d for a joint observation;
    ``total`` always equals the observed sequence length.
    """

    counts: np.ndarray
    alphabet_x: Alphabet
    alphabet_y: Alphabet | None = None

    def __post_init__(self):
        c = self.counts
        # A C-contiguous int64 array (what counting produces) is checked as
        # it is; anything else is converted first.
        if not (type(c) is np.ndarray and c.dtype == np.int64 and c.flags.c_contiguous):
            c = np.asarray(c)
            if not np.issubdtype(c.dtype, np.integer):
                cf = np.asarray(c, dtype=np.int64)
                if not np.array_equal(cf, c):
                    raise InvalidDistribution("counts must be integers")
                c = cf
            c = np.ascontiguousarray(c, dtype=np.int64)
        # Counts are alphabet-sized, where Python's min and sum on a list
        # beat numpy reductions several times over.
        flat = c.ravel().tolist()
        if min(flat, default=0) < 0:
            raise InvalidDistribution("counts must be nonnegative")
        expected = (self.alphabet_x.size,) if self.alphabet_y is None else (
            self.alphabet_x.size,
            self.alphabet_y.size,
        )
        if c.shape != expected:
            raise AlphabetMismatch(f"counts shape {c.shape}, expected {expected}")
        if sum(flat) < 1:
            raise InvalidDistribution("total count must be positive")
        c.setflags(write=False)
        object.__setattr__(self, "counts", c)

    def _parts(self):
        return (self.alphabet_x, self.alphabet_y), self.counts

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def is_joint(self) -> bool:
        return self.alphabet_y is not None

    def frequencies(self) -> Pmf | JointPmf:
        """Normalized view counts/total, as a valid Pmf or JointPmf."""
        f = self.counts / self.total
        if self.is_joint:
            return JointPmf(self.alphabet_x, self.alphabet_y, f)
        return Pmf(self.alphabet_x, f)


def _require_same_alphabet(p: Pmf | JointPmf, q: Pmf | JointPmf):
    if isinstance(p, Pmf) and isinstance(q, Pmf):
        if p.alphabet != q.alphabet:
            raise AlphabetMismatch("pmfs defined over different alphabets")
        return
    if isinstance(p, JointPmf) and isinstance(q, JointPmf):
        if p.alphabet_x != q.alphabet_x or p.alphabet_y != q.alphabet_y:
            raise AlphabetMismatch("joints defined over different alphabets")
        return
    raise AlphabetMismatch(f"cannot mix {type(p).__name__} and {type(q).__name__}")


def kl_divergence(p: Pmf | JointPmf, q: Pmf | JointPmf) -> float:
    """Relative entropy sum(p * ln(p/q)) in nats, with 0*ln(0) = 0.

    Raises UnsupportedMass if p has mass on a cell where q is zero.
    """
    _require_same_alphabet(p, q)
    pa, qa = p.probs, q.probs
    mask = pa > 0.0
    if np.any(qa[mask] <= 0.0):
        raise UnsupportedMass("p has mass where q = 0; divergence is infinite")
    return float(np.sum(pa[mask] * np.log(pa[mask] / qa[mask])))


def marginals(j: JointPmf) -> tuple[Pmf, Pmf]:
    """Row-sum and column-sum marginal pmfs of a joint, built once per joint."""
    return j._marginals


def _symbols(seq: Sequence[int], alphabet: Alphabet) -> np.ndarray:
    """The sequence as an int64 array, checked to hold only symbols of the alphabet."""
    s = np.asarray(seq, dtype=np.int64)
    # One comparison checks both ends: a negative int64 reads as a uint64 >= 2**63.
    if (s.view(np.uint64) >= alphabet.size).any():
        raise AlphabetMismatch("sequence symbol outside the alphabet")
    return s


def empirical_type(
    seq_x: Sequence[int],
    alphabet_x: Alphabet,
    seq_y: Sequence[int] | None = None,
    alphabet_y: Alphabet | None = None,
) -> EmpiricalType:
    """Tally a symbol sequence (or an aligned pair of sequences) into counts."""
    x = _symbols(seq_x, alphabet_x)
    if x.size == 0:
        raise LengthMismatch("cannot take the type of an empty sequence")
    if seq_y is None:
        counts = np.bincount(x, minlength=alphabet_x.size)
        return EmpiricalType(counts, alphabet_x)
    if alphabet_y is None:
        raise AlphabetMismatch("joint type requires the second alphabet")
    y = np.asarray(seq_y, dtype=np.int64)
    if y.size != x.size:
        raise LengthMismatch(f"sequence lengths differ: {x.size} vs {y.size}")
    y = _symbols(y, alphabet_y)
    flat = x * alphabet_y.size + y
    counts = np.bincount(flat, minlength=alphabet_x.size * alphabet_y.size)
    return EmpiricalType(counts.reshape(alphabet_x.size, alphabet_y.size), alphabet_x, alphabet_y)


def linf_distance(t: EmpiricalType | Pmf | JointPmf, p: Pmf | JointPmf) -> float:
    """Max-norm gap between a frequency view and a reference distribution."""
    f = t.frequencies() if isinstance(t, EmpiricalType) else t
    _require_same_alphabet(f, p)
    return float(np.max(np.abs(f.probs - p.probs)))


def log_multinomial_weight(t: EmpiricalType, p: Pmf | JointPmf) -> float:
    """Log-probability of observing counts t under iid draws from p.

    log multinomial(total; counts) + sum(counts * ln p), computed entirely in
    log domain so totals in the thousands do not underflow. Exponentiating
    and summing over all types of a given total yields 1.
    """
    f = t.frequencies()
    _require_same_alphabet(f, p)
    c = t.counts.ravel().astype(np.float64)
    pp = p.probs.ravel()
    mask = c > 0
    if np.any(pp[mask] <= 0.0):
        raise UnsupportedMass("counts have support where p = 0")
    log_coeff = float(gammaln(t.total + 1) - gammaln(c + 1).sum())
    return log_coeff + float(np.sum(c[mask] * np.log(pp[mask])))


def iter_count_vectors(total: int, cells: int) -> Iterator[tuple[int, ...]]:
    """Yield every nonnegative integer vector of the given length summing to total."""
    if cells < 1:
        raise InvalidDistribution("need at least one cell")
    if cells == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in iter_count_vectors(total - first, cells - 1):
            yield (first,) + rest


def count_type_vectors(total: int, cells: int) -> int:
    """Number of count vectors of the given length summing to total (stars and bars)."""
    return math.comb(total + cells - 1, cells - 1)

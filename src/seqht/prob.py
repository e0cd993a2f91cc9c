"""Exact finite-alphabet probability primitives.

Pmfs, joint pmfs, empirical types, divergences and type counts. Everything
here is immutable after construction and pure, so values can be shared
freely across concurrent tasks.

Conventions: all divergences are in nats; 0*ln(0) = 0 cell-wise; products of
many probabilities are only ever formed in log domain.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (
    AlphabetMismatch,
    InvalidDistribution,
    LengthMismatch,
    UnsupportedMass,
)
from .rng import categorical_cdf, categorical_thresholds

# Constructors renormalize sums within this slack and reject anything worse.
# Tolerates config-file rounding without masking genuine errors.
NORMALIZATION_SLACK = 1e-9


@dataclass(frozen=True)
class Alphabet:
    """Finite symbol alphabet; symbols are the indices 0..size-1."""

    size: int

    def __post_init__(self):
        if self.size < 1:
            raise InvalidDistribution(f"alphabet size must be >= 1, got {self.size}")


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


def _real_array(raw) -> np.ndarray:
    """``raw`` as a float64 array; ``InvalidDistribution`` unless its rows are
    of equal length and hold real numbers (a bool or a string is not one)."""
    if not isinstance(raw, np.ndarray) or raw.dtype.kind not in "iuf":
        raw = np.asarray(raw, dtype=object)
        if not all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in raw.flat):
            raise InvalidDistribution("probabilities must be a rectangular array of real numbers")
    return raw.astype(np.float64, copy=False)


def _validated_probs(raw, shape_kind: str) -> np.ndarray:
    a = _real_array(raw)
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

    @cached_property
    def _rules(self) -> dict:
        """Decision rules against this pmf, by protocol config, kept by
        ``seqht.protocol``; the pmf is frozen, so none goes stale."""
        return {}

    @classmethod
    def from_probs(cls, probs) -> "Pmf":
        a = _real_array(probs)
        return cls(Alphabet(a.shape[0]), a)


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
    def _rules(self) -> dict:
        """Decision rules against this pmf, by protocol config, kept by
        ``seqht.protocol``; the pmf is frozen, so none goes stale."""
        return {}

    @cached_property
    def _thresholds(self) -> np.ndarray:
        """Integer sampling thresholds of the cells in row-major order
        (``seqht.rng.categorical_thresholds``), built once."""
        return categorical_thresholds(categorical_cdf(self.probs.ravel()))

    @cached_property
    def _marginals(self) -> tuple[Pmf, Pmf]:
        # Built once: the joint is frozen and its probs are read-only.
        return (
            Pmf(self.alphabet_x, self.probs.sum(axis=1)),
            Pmf(self.alphabet_y, self.probs.sum(axis=0)),
        )

    @classmethod
    def from_probs(cls, probs) -> "JointPmf":
        a = _real_array(probs)
        if a.ndim != 2:
            raise InvalidDistribution(f"expected a 2-d matrix, got shape {a.shape}")
        return cls(Alphabet(a.shape[0]), Alphabet(a.shape[1]), a)


@dataclass(frozen=True, eq=False)
class EmpiricalType(_ArrayValue):
    """Integer count vector of an observed sequence over one alphabet.

    ``total`` always equals the observed sequence length.
    """

    counts: np.ndarray
    alphabet_x: Alphabet

    def __post_init__(self):
        raw = np.asarray(self.counts)
        # Always a copy, so freezing it leaves the caller's array writable.
        c = np.array(raw, dtype=np.int64, order="C")
        # A bool is not a count, though it converts to 0 or 1 exactly.
        if raw.dtype.kind == "b" or (raw.dtype.kind not in "iu" and not np.array_equal(c, raw)):
            raise InvalidDistribution("counts must be integers")
        # Counts are alphabet-sized, where Python's min and sum on a list
        # beat numpy reductions several times over.
        flat = c.ravel().tolist()
        if min(flat, default=0) < 0:
            raise InvalidDistribution("counts must be nonnegative")
        if c.shape != (self.alphabet_x.size,):
            raise AlphabetMismatch(f"counts shape {c.shape}, expected {(self.alphabet_x.size,)}")
        if sum(flat) < 1:
            raise InvalidDistribution("total count must be positive")
        c.setflags(write=False)
        object.__setattr__(self, "counts", c)

    def _parts(self):
        return (self.alphabet_x,), self.counts

    @classmethod
    def _unchecked(cls, counts: np.ndarray, alphabet_x: Alphabet) -> "EmpiricalType":
        """A type over counts already known valid, skipping the checks: a
        read-only int64 vector of nonnegative counts, of the alphabet's size
        and a positive total (a row of a protocol replay's counts)."""
        value = object.__new__(cls)
        object.__setattr__(value, "counts", counts)
        object.__setattr__(value, "alphabet_x", alphabet_x)
        return value

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def frequencies(self) -> Pmf:
        """Normalized view counts/total, as a valid Pmf."""
        return Pmf(self.alphabet_x, self.counts / self.total)


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


def _symbol_list(seq: Sequence[int], alphabet: Alphabet) -> list[int]:
    """The sequence as a list of Python ints, checked to hold only symbols of
    the alphabet.

    Symbols must be integers: a float or bool sequence is an error, never
    truncated. An empty sequence passes (its dtype says nothing). A list or
    tuple of Python ints in range is checked without numpy: on the few
    symbols of a protocol round, numpy's fixed cost per call is several
    times the check.
    """
    if (
        type(seq) in (list, tuple)
        and set(map(type, seq)) == {int}
        and min(seq) >= 0
        and max(seq) < alphabet.size
    ):
        return list(seq)
    s = np.asarray(seq)
    if s.dtype.kind not in "iu" and s.size:
        raise AlphabetMismatch(f"sequence symbols must be integers, got dtype {s.dtype}")
    s = s.astype(np.int64, copy=False)
    # One comparison checks both ends: a negative int64 reads as a uint64 >= 2**63.
    if (s.view(np.uint64) >= alphabet.size).any():
        raise AlphabetMismatch("sequence symbol outside the alphabet")
    return s.tolist()


def _tally(seq: Sequence[int], alphabet: Alphabet) -> list[int]:
    """The counts ``empirical_type(seq, alphabet)`` holds, as Python ints,
    with its checks and errors, without building the type: checked symbols
    can only tally to nonnegative counts of the alphabet's size, and a
    nonempty sequence to a positive total."""
    s = _symbol_list(seq, alphabet)
    if not s:
        raise LengthMismatch("cannot take the type of an empty sequence")
    return [s.count(v) for v in range(alphabet.size)]


def empirical_type(seq_x: Sequence[int], alphabet_x: Alphabet) -> EmpiricalType:
    """Tally a symbol sequence into counts."""
    return EmpiricalType(_tally(seq_x, alphabet_x), alphabet_x)


def linf_distance(t: EmpiricalType | Pmf | JointPmf, p: Pmf | JointPmf) -> float:
    """Max-norm gap between a frequency view and a reference distribution."""
    f = t.frequencies() if isinstance(t, EmpiricalType) else t
    _require_same_alphabet(f, p)
    return float(np.max(np.abs(f.probs - p.probs)))


def count_type_vectors(total: int, cells: int) -> int:
    """Number of count vectors of the given length summing to total (stars and bars)."""
    return math.comb(total + cells - 1, cells - 1)

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
    try:
        return raw.astype(np.float64, copy=False)
    except OverflowError:  # a Python int past the float range
        raise InvalidDistribution("probabilities must be finite") from None


def _validated_probs(raw, ndim: int) -> np.ndarray:
    a = _real_array(raw)
    if a.ndim != ndim:
        raise InvalidDistribution(f"expected a {ndim}-d probability array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidDistribution("probabilities must be finite")
    if np.any(a < 0.0):
        raise InvalidDistribution(f"probabilities must be nonnegative, min={a.min()}")
    s = float(a.sum())
    if abs(s - 1.0) > NORMALIZATION_SLACK:
        raise InvalidDistribution(f"probabilities sum to {s!r}, beyond slack {NORMALIZATION_SLACK}")
    return _freeze(a / s)


class _ArrayValue:
    """Value equality and hashing for a frozen class holding one read-only
    array (``probs``, unless ``_array`` says otherwise).

    Two instances are equal when their arrays have the same shape and equal
    elements; the hash matches (+0 turns -0.0 into 0.0, which compares equal
    to it).
    """

    def _array(self) -> np.ndarray:
        return self.probs

    def __eq__(self, other):
        if other is self:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return np.array_equal(self._array(), other._array())

    def __hash__(self):
        a = self._array()
        return hash((a.shape, (a + 0).tobytes()))


class _Probs(_ArrayValue):
    """A pmf held as its one validated array, ``probs``, of ``_NDIM`` axes;
    the symbols of an axis are its indices."""

    _NDIM = 1

    def __post_init__(self):
        object.__setattr__(self, "probs", _validated_probs(self.probs, self._NDIM))

    @cached_property
    def _rules(self) -> dict:
        """Decision rules against this pmf, by protocol config, kept by
        ``seqht.protocol``; the pmf is frozen, so none goes stale."""
        return {}

    @classmethod
    def from_probs(cls, probs):
        return cls(probs)


@dataclass(frozen=True, eq=False)
class Pmf(_Probs):
    """Probability vector over the symbols 0..size-1."""

    probs: np.ndarray


@dataclass(frozen=True, eq=False)
class JointPmf(_Probs):
    """Probability matrix over pairs of symbols (rows: first source)."""

    _NDIM = 2

    probs: np.ndarray
    strictly_positive: bool = field(init=False)

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "strictly_positive", bool(self.probs.min() > 0.0))

    @cached_property
    def _thresholds(self) -> np.ndarray:
        """Integer sampling thresholds of the cells in row-major order
        (``seqht.rng.categorical_thresholds``), built once."""
        return categorical_thresholds(categorical_cdf(self.probs.ravel()))

    @cached_property
    def _marginals(self) -> tuple[Pmf, Pmf]:
        # Built once: the joint is frozen and its probs are read-only.
        return Pmf(self.probs.sum(axis=1)), Pmf(self.probs.sum(axis=0))


@dataclass(frozen=True, eq=False)
class EmpiricalType(_ArrayValue):
    """Integer count vector of an observed sequence, one count per symbol.

    ``total`` always equals the observed sequence length.
    """

    counts: np.ndarray

    def __post_init__(self):
        raw = np.asarray(self.counts)
        # Always a copy, so freezing it leaves the caller's array writable.
        c = np.array(raw, dtype=np.int64, order="C")
        # A bool is not a count, though it converts to 0 or 1 exactly.
        if raw.dtype.kind == "b" or (raw.dtype.kind not in "iu" and not np.array_equal(c, raw)):
            raise InvalidDistribution("counts must be integers")
        if c.ndim != 1:
            raise InvalidDistribution(f"counts must be a vector, got shape {c.shape}")
        # Counts are few, one per symbol, where Python's min and sum on a list
        # beat numpy reductions several times over.
        flat = c.tolist()
        if min(flat, default=0) < 0:
            raise InvalidDistribution("counts must be nonnegative")
        if sum(flat) < 1:
            raise InvalidDistribution("total count must be positive")
        c.setflags(write=False)
        object.__setattr__(self, "counts", c)

    def _array(self) -> np.ndarray:
        return self.counts

    @classmethod
    def _unchecked(cls, counts: np.ndarray) -> "EmpiricalType":
        """A type over counts already known valid, skipping the checks: a
        read-only int64 vector of nonnegative counts with a positive total (a
        row of a protocol replay's counts)."""
        value = object.__new__(cls)
        object.__setattr__(value, "counts", counts)
        return value

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def frequencies(self) -> Pmf:
        """Normalized view counts/total, as a valid Pmf."""
        return Pmf(self.counts / self.total)


def _require_same_shape(p: Pmf | JointPmf, q: Pmf | JointPmf, kind: type | None = None):
    """The one check that two pmfs share their alphabets: ``AlphabetMismatch``
    unless both are of one class and shape, and ``InvalidDistribution`` when
    that class is not ``kind`` (``JointPmf`` for the protocol's entry points)
    or, by default, not a pmf class at all."""
    if type(p) is not type(q):
        raise AlphabetMismatch(f"cannot mix {type(p).__name__} and {type(q).__name__}")
    if not isinstance(p, kind or (Pmf, JointPmf)):
        want = f"two {kind.__name__}s" if kind else "two Pmfs or two JointPmfs"
        raise InvalidDistribution(f"needs {want}, got two {type(p).__name__}s")
    if p.probs.shape != q.probs.shape:
        raise AlphabetMismatch(f"shapes differ: {p.probs.shape} vs {q.probs.shape}")


def kl_divergence(p: Pmf | JointPmf, q: Pmf | JointPmf) -> float:
    """Relative entropy sum(p * ln(p/q)) in nats, with 0*ln(0) = 0.

    Raises UnsupportedMass if p has mass on a cell where q is zero.
    """
    _require_same_shape(p, q)
    pa, qa = p.probs, q.probs
    mask = pa > 0.0
    if np.any(qa[mask] <= 0.0):
        raise UnsupportedMass("p has mass where q = 0; divergence is infinite")
    return float(np.sum(pa[mask] * np.log(pa[mask] / qa[mask])))


def marginals(j: JointPmf) -> tuple[Pmf, Pmf]:
    """Row-sum and column-sum marginal pmfs of a joint, built once per joint."""
    return j._marginals


def _symbol_list(seq: Sequence[int], size: int) -> list[int]:
    """The sequence as a list of Python ints, checked to hold only the
    symbols 0..size-1.

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
        and max(seq) < size
    ):
        return list(seq)
    s = np.asarray(seq)
    if s.dtype.kind not in "iu" and s.size:
        raise AlphabetMismatch(f"sequence symbols must be integers, got dtype {s.dtype}")
    s = s.astype(np.int64, copy=False)
    # One comparison checks both ends: a negative int64 reads as a uint64 >= 2**63.
    if (s.view(np.uint64) >= size).any():
        raise AlphabetMismatch(f"sequence symbol outside 0..{size - 1}")
    return s.tolist()


def _tally(seq: Sequence[int], size: int) -> list[int]:
    """The counts ``empirical_type(seq, size)`` holds, as Python ints, with
    its checks and errors, without building the type: checked symbols can
    only tally to ``size`` nonnegative counts, and a nonempty sequence to a
    positive total."""
    s = _symbol_list(seq, size)
    if not s:
        raise LengthMismatch("cannot take the type of an empty sequence")
    return [s.count(v) for v in range(size)]


def empirical_type(seq: Sequence[int], size: int) -> EmpiricalType:
    """Tally a sequence over the symbols 0..size-1 into counts."""
    return EmpiricalType(_tally(seq, size))


def linf_distance(t: EmpiricalType | Pmf | JointPmf, p: Pmf | JointPmf) -> float:
    """Max-norm gap between a frequency view and a reference distribution."""
    f = t.frequencies() if isinstance(t, EmpiricalType) else t
    _require_same_shape(f, p)
    return float(np.max(np.abs(f.probs - p.probs)))


def count_type_vectors(total: int, cells: int) -> int:
    """Number of count vectors of the given length summing to total (stars and bars)."""
    return math.comb(total + cells - 1, cells - 1)

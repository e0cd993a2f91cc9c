"""Semantic exception hierarchy shared across the toolkit, and scalar checks."""

import math
import numbers


class SeqHTError(Exception):
    """Base error for this package."""


class InvalidDistribution(SeqHTError, ValueError):
    """Probability vector/matrix violates its contract (negativity, bad sum, bad shape)."""


class AlphabetMismatch(SeqHTError, ValueError):
    """Operands are defined over different alphabets."""


class UnsupportedMass(SeqHTError, ValueError):
    """p places mass on a cell where q is zero (divergence or weight undefined)."""


class LengthMismatch(SeqHTError, ValueError):
    """A sequence is empty or of the wrong length: an observed record, or a
    member of an acceptance set. Two pmfs over different alphabets raise
    ``AlphabetMismatch``."""


class BadLength(SeqHTError, ValueError):
    """Sequence length incompatible with the protocol's block structure."""


class InconsistentMessages(SeqHTError, ValueError):
    """Message list does not match the configured encoder or step count."""


class NotStrictlyPositive(SeqHTError, ValueError):
    """The alternative-hypothesis joint has a zero cell; the exponent is undefined here."""


class UnsupportedAlphabetSize(SeqHTError, ValueError):
    """Operation only implemented for the stated alphabet sizes."""


class TooLarge(SeqHTError, ValueError):
    """Exact evaluation is out of reach: a non-binary alphabet whose y-count
    tables would exceed the cell budget, or early-decide on a non-binary
    alphabet."""


class HorizonTooLarge(SeqHTError, ValueError):
    """Requested enumeration horizon exceeds the exact-verification limit."""


class InvalidConfig(SeqHTError, ValueError):
    """Experiment configuration failed validation before execution."""


def _integer(name: str, value, positive: bool = True) -> int:
    """``value`` as an int, or ``InvalidConfig`` naming ``name``. A bool is
    not a count, and a float is an error, never truncated."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or (positive and value < 1):
        raise InvalidConfig(f"{name} must be {'a positive' if positive else 'an'} integer, got {value!r}")
    return int(value)


def _real(name: str, value) -> float:
    """``value`` as a finite float, or ``InvalidConfig`` naming ``name``: a
    bool or a numeric string is not a real number, and NaN or an infinity
    (which JSON configs can spell) is not a finite one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidConfig(f"{name} must be a real number, got {value!r}")
    try:
        real = float(value)
    except OverflowError:  # an integer past the float range
        real = math.inf
    if not math.isfinite(real):
        raise InvalidConfig(f"{name} must be finite, got {value!r}")
    return real

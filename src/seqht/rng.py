"""Counter-based deterministic randomness.

Every random quantity in the simulator is a pure function of (master seed,
trial index, draw counter), built on the splitmix64 finalizer. This gives
replayable, order-independent streams: trial j's draws do not depend on how
many trials run, which worker thread runs them, or batch size. Scalar and
vectorized paths use the same mapping bit for bit, so a horizon may also be
drawn block by block.

Categorical sampling has an exact integer form. A uniform is u = m * 2**-53
with m = random_bits >> 11 (``uniform_ints``), and that scaling is exact. So
cdf[j] <= u holds exactly when T_j = ceil(min(cdf[j], 1) * 2**53) <= m: a cdf
entry of 1 or more is never <= u < 1, and its T_j = 2**53 is never <= m. The
index ``sample_categorical`` returns, min(searchsorted(cdf, u, "right"),
size-1), is therefore the number of j < size-1 with m >= T_j
(``categorical_thresholds``), and counting those compares per trial tallies
symbols with no float conversion and no search. ``run_protocol`` and
``simulate_batch`` both sample this way; ``uniforms`` and
``sample_categorical`` remain as the float form it is checked against.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidDistribution

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)
_ONE = np.uint64(1)
_INV_2_53 = float(2.0**-53)


def mix64(z):
    """splitmix64 finalizer; accepts a scalar or uint64 array, wraps mod 2**64."""
    z = np.asarray(z, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = (z ^ (z >> _S30)) * _M1
        z = (z ^ (z >> _S27)) * _M2
        z = z ^ (z >> _S31)
    return z


def derive_seed(master: int, index) -> np.uint64:
    """Per-stream seed: the (index+1)-th splitmix64 output of the master stream."""
    m = np.uint64(master & 0xFFFFFFFFFFFFFFFF)
    idx = np.asarray(index, dtype=np.uint64)
    with np.errstate(over="ignore"):
        state = m + _GAMMA * (idx + _ONE)
    return mix64(state)


def random_bits(seed, counter):
    """64 uniform bits for each (seed, counter) pair, broadcasting."""
    s = np.asarray(seed, dtype=np.uint64)
    c = np.asarray(counter, dtype=np.uint64)
    with np.errstate(over="ignore"):
        state = s + _GAMMA * (c + _ONE)
    return mix64(state)


def uniform_ints(seed, counter):
    """The 53-bit integers m behind ``uniforms``: u = m * 2**-53 exactly."""
    return random_bits(seed, counter) >> _S11


def uniforms(seed, counter):
    """Uniform [0, 1) doubles with 53 random bits, one per counter."""
    return uniform_ints(seed, counter) * _INV_2_53


def uniform_block(seed, start: int, count: int):
    """Uniforms for counters start..start+count-1 as a float array."""
    return uniforms(seed, np.arange(start, start + count, dtype=np.uint64))


def categorical_cdf(probs) -> np.ndarray:
    """Cumulative thresholds for inverse-transform sampling; last entry forced to 1."""
    p = np.asarray(probs, dtype=np.float64).ravel()
    if p.size == 0 or np.any(p < 0):
        raise InvalidDistribution("categorical probabilities must be nonnegative")
    cdf = np.cumsum(p)
    if abs(cdf[-1] - 1.0) > 1e-9:
        raise InvalidDistribution(f"categorical probabilities sum to {cdf[-1]!r}")
    cdf[-1] = 1.0
    return cdf


def categorical_thresholds(cdf: np.ndarray) -> np.ndarray:
    """T_j = ceil(min(cdf[j], 1) * 2**53) for j < size-1, as uint64.

    The symbol ``sample_categorical(cdf, m * 2**-53)`` draws is the number of
    thresholds with m >= T_j (see the module docstring).
    """
    return np.ceil(np.minimum(cdf[:-1], 1.0) * 2.0**53).astype(np.uint64)


def sample_categorical(cdf: np.ndarray, u):
    """Map uniforms to symbol indices via the precomputed cdf (searchsorted)."""
    idx = np.searchsorted(cdf, u, side="right")
    return np.minimum(idx, cdf.size - 1)

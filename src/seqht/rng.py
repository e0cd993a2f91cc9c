"""Counter-based deterministic randomness.

Every random quantity in the simulator is a pure function of (master seed,
trial index, draw counter), built on the splitmix64 finalizer. This gives
replayable, order-independent streams: trial j's draws do not depend on how
many trials run, how trials are chunked, or batch size. Scalar and
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

``simulate_batch`` goes one step further and compares the raw 64-bit words w
(m = w >> 11) with T_j << 11, skipping the shift: since T_j << 11 has zero low
bits, w >= T_j << 11 holds exactly when w >> 11 >= T_j. A threshold of 2**53
would overflow; no m reaches it, so it is left out of the compare and its
count stays 0 (mapping it to 2**64 - 1 instead would count a word of
2**64 - 1 as a hit). T_j = 0 becomes 0, which every word reaches, as every m
reaches T_j. The words come from ``random_bits_into``, which hashes a
cache-sized tile of counters into preallocated buffers with in-place ufuncs;
being a pure function of (seed, counter), a draw is the same whatever tile
computes it. ``random_bits``, ``uniform_ints``, ``mix64`` and ``derive_seed``
run the same in-place passes on one fresh array per call, for the scalar
paths, whose few draws would not repay the buffers.
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
    z = np.array(z, dtype=np.uint64)  # a copy, hashed in place
    _mix64_into(z, np.empty_like(z))
    return z if z.ndim else z[()]


def derive_seed(master: int, index) -> np.uint64:
    """Per-stream seed: the (index+1)-th splitmix64 output of the master stream."""
    return random_bits(np.uint64(master & 0xFFFFFFFFFFFFFFFF), index)


def _mix64_into(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """``mix64`` of the uint64 array ``z`` in place, ``scratch`` (same shape)
    overwritten: z ^= z >> 30; z *= M1; z ^= z >> 27; z *= M2; z ^= z >> 31.
    Array ufuncs wrap mod 2**64 without a warning, so no ``np.errstate`` is
    needed (numpy's scalar arithmetic would warn)."""
    for shift, mult in ((_S30, _M1), (_S27, _M2)):
        np.right_shift(z, shift, out=scratch)
        np.bitwise_xor(z, scratch, out=z)
        np.multiply(z, mult, out=z)
    np.right_shift(z, _S31, out=scratch)
    return np.bitwise_xor(z, scratch, out=z)


def _bits(seed, counter) -> np.ndarray:
    """``random_bits`` as an array (0-d for scalars): the splitmix64 state
    s + GAMMA * (c + 1), then ``_mix64_into`` on it in place."""
    s = np.asarray(seed, dtype=np.uint64)
    c = np.asarray(counter, dtype=np.uint64)
    z = np.asarray(np.add(np.multiply(np.add(c, _ONE), _GAMMA), s))
    return _mix64_into(z, np.empty_like(z))


def random_bits(seed, counter):
    """64 uniform bits for each (seed, counter) pair, broadcasting."""
    z = _bits(seed, counter)
    return z if z.ndim else z[()]


def random_bits_into(seeds, start: int, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Write ``random_bits(seeds, start + i)`` into row i of ``out`` and return it.

    ``seeds`` is a uint64 vector, ``out`` and ``scratch`` are uint64 arrays of
    shape (rows, seeds.size); ``scratch`` is overwritten. Every pass runs in
    place, so hashing a tile allocates only its rows' counter offsets.
    """
    offsets = np.arange(out.shape[0], dtype=np.uint64)
    offsets += np.uint64(start)
    offsets += _ONE
    offsets *= _GAMMA
    np.add(offsets[:, None], seeds, out=out)
    return _mix64_into(out, scratch)


def uniform_ints(seed, counter):
    """The 53-bit integers m behind ``uniforms``: u = m * 2**-53 exactly."""
    z = _bits(seed, counter)
    np.right_shift(z, _S11, out=z)
    return z if z.ndim else z[()]


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

"""Pinned pseudo-random generator for reproducible weight initialization.

The generator is a 64-bit linear congruential step combined with a
32-entry Bays-Durham shuffle table.  It is fully specified here (and in
the README) so an independent implementation can reproduce identical
parameter tensors from the same seed:

  state' = (6364136223846793005 * state + 1442695040888963407) mod 2^64

  init:  state = seed; step 8 times to warm up; fill table[0..31] with
         the next 32 states; y = next state.
  draw:  i = y >> 59; y = table[i]; table[i] = next state; emit y.

The seed must lie in [0, 2^64).  ``uniform_array`` maps each draw to
[0, 1] as y / 2^64 rounded to the nearest float64 (y >= 2^64 - 2^10
gives 1.0).  Weight tensors are filled in row-major order with values
uniform in the closed range +/- sqrt(6 / fan_in); biases start at zero.

Draws are made in bulk: the LCG states come from jump-ahead doubling
over a uint64 array, and the shuffle chases table indices only, then
gathers the emitted values.  The stream is the one the three lines
above define, draw for draw.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .tensor import ConvWeights, DepthwiseWeights

_MULT = 6364136223846793005
_INC = 1442695040888963407
_MASK = (1 << 64) - 1
_TABLE_SIZE = 32
_WARMUP = 8


def _lcg_states(state: int, count: int) -> np.ndarray:
    """The ``count`` LCG states after ``state``, as uint64.

    Jump-ahead doubling: once ``n`` states are known, the next ``n`` are
    ``s[:n]·A + C`` with (A, C) the n-step map, which then squares to
    the 2n-step map (A², A·C + C).  The maps stay Python ints and enter
    the array ops as explicit uint64 scalars, so no promotion reaches
    float64 and the array products wrap mod 2^64.
    """
    s = np.empty(count, dtype=np.uint64)
    if count:
        s[0] = (_MULT * state + _INC) & _MASK
    a, c, n = _MULT, _INC, 1
    while n < count:
        m = min(n, count - n)
        np.multiply(s[:m], np.uint64(a), out=s[n : n + m])
        s[n : n + m] += np.uint64(c)
        a, c, n = (a * a) & _MASK, (a * c + c) & _MASK, n + m
    return s


class ShuffledLcg:
    """Deterministic 64-bit LCG with a Bays-Durham output shuffle."""

    def __init__(self, seed: int):
        seed = operator.index(seed)
        if not 0 <= seed <= _MASK:
            raise ValueError(f"seed must be in [0, 2^64), got {seed}")
        states = _lcg_states(seed, _WARMUP + _TABLE_SIZE + 1)
        self._table = states[_WARMUP:-1]
        self._y = self._state = int(states[-1])

    def _draw(self, count: int) -> np.ndarray:
        """The next ``count`` draws as uint64; advances table, y and state.

        ``values`` holds the table entries, then the new states in order;
        ``slot[i]`` is the index in ``values`` of table entry i.  The loop
        moves indices only, and the emitted values are gathered at the end.
        """
        values = np.concatenate((self._table, _lcg_states(self._state, count)))
        top = (values >> np.uint64(59)).tolist()
        slot = list(range(_TABLE_SIZE))
        picks = []
        pick = picks.append
        i = self._y >> 59
        for t in range(_TABLE_SIZE, _TABLE_SIZE + count):
            j = slot[i]
            slot[i] = t
            pick(j)
            i = top[j]
        out = values[np.fromiter(picks, np.intp, count)]
        self._table = values[slot]
        if count:
            self._y = int(out[-1])
            self._state = int(values[-1])
        return out

    def next_u64(self) -> int:
        return int(self._draw(1)[0])

    def uniform_array(self, shape: tuple, dtype=np.float64) -> np.ndarray:
        """Draws in row-major order as y / 2^64, in [0, 1].

        The float64 conversion of y rounds to nearest; scaling by 2^-64 is
        exact.  A float32 ``dtype`` rounds again, so u >= 1 - 2^-25 gives 1.0.
        """
        u = self._draw(int(np.prod(shape))).astype(np.float64) * 2.0**-64
        return u.reshape(shape).astype(dtype)


def init_conv_weights(
    rng: ShuffledLcg, out_channels: int, in_channels: int, k: int, dtype, bias: bool = True
) -> ConvWeights:
    """Uniform in +/- sqrt(6 / fan_in), fan_in = in_channels * k^2; zero bias or none."""
    bound = math.sqrt(6.0 / (in_channels * k * k))
    u = rng.uniform_array((out_channels, in_channels, k, k), dtype=np.float64)
    w = ((2.0 * u - 1.0) * bound).astype(dtype)
    return ConvWeights(w, np.zeros(out_channels, dtype) if bias else None)


def init_depthwise_weights(rng: ShuffledLcg, channels: int, k: int, dtype) -> DepthwiseWeights:
    """Depthwise filters see one input channel, so fan_in = k^2; zero bias."""
    dense = init_conv_weights(rng, channels, 1, k, dtype)
    return DepthwiseWeights(dense.weights[:, 0], dense.bias)

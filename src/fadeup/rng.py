"""Pinned pseudo-random generator for reproducible weight initialization.

The generator is a 64-bit linear congruential step combined with a
32-entry Bays-Durham shuffle table.  It is fully specified here (and in
the README) so an independent implementation can reproduce identical
parameter tensors from the same seed:

  state' = (6364136223846793005 * state + 1442695040888963407) mod 2^64

  init:  state = seed; step 8 times to warm up; fill table[0..31] with
         the next 32 states; y = next state.
  draw:  i = y >> 59; y = table[i]; table[i] = next state; emit y.

``uniform()`` maps a draw to [0, 1) as y / 2^64.  Weight tensors are
filled in row-major order with values uniform in +/- sqrt(6 / fan_in);
biases start at zero.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import ConvWeights, DepthwiseWeights

_MULT = 6364136223846793005
_INC = 1442695040888963407
_MASK = (1 << 64) - 1
_TABLE_SIZE = 32
_WARMUP = 8


class ShuffledLcg:
    """Deterministic 64-bit LCG with a Bays-Durham output shuffle."""

    def __init__(self, seed: int):
        self._state = seed & _MASK
        for _ in range(_WARMUP):
            self._step()
        self._table = [self._step() for _ in range(_TABLE_SIZE)]
        self._y = self._step()

    def _step(self) -> int:
        self._state = (_MULT * self._state + _INC) & _MASK
        return self._state

    def next_u64(self) -> int:
        i = self._y >> 59
        self._y = self._table[i]
        self._table[i] = self._step()
        return self._y

    def uniform(self) -> float:
        return self.next_u64() / 2.0**64

    def uniform_array(self, shape: tuple, dtype=np.float64) -> np.ndarray:
        flat = np.empty(int(np.prod(shape)), dtype=np.float64)
        for i in range(flat.size):
            flat[i] = self.uniform()
        return flat.reshape(shape).astype(dtype)


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
    bound = math.sqrt(6.0 / (k * k))
    u = rng.uniform_array((channels, k, k), dtype=np.float64)
    w = ((2.0 * u - 1.0) * bound).astype(dtype)
    return DepthwiseWeights(w, np.zeros(channels, dtype))

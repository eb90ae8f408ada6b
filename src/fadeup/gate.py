"""Decoder-conditioned gating and encoder/upsampled feature fusion.

The gate is a single-channel map in (0, 1) predicted from the low-res
decoder feature and NN-expanded to high resolution; fusion is the convex
blend  refined = encoder * G + upsampled * (1 - G).  With G fixed at 1
the blend degenerates to the encoder skip, the mode preferred for
instance-level tasks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import value_of
from .rng import ShuffledLcg, init_conv_weights
from .tensor import ConvWeights, ShapeError


@dataclass
class GateParams:
    projector: ConvWeights  # k=1, C_de -> 1, with bias

    def __post_init__(self):
        if self.projector.k != 1:
            raise ShapeError("gate projector must be a 1x1 convolution")
        if self.projector.out_channels != 1:
            raise ShapeError("gate projector must emit a single channel")
        if self.projector.bias is None:
            raise ShapeError("gate projector bias is required")


def make_gate_params(rng: ShuffledLcg, channels: int, dtype) -> GateParams:
    return GateParams(init_conv_weights(rng, 1, channels, 1, dtype))


def generate_gate(x_de, p: GateParams):
    """sigmoid(NN_x2(1x1(x_de))): each 2x2 output block shares one value."""
    return ag.sigmoid(ag.interp_nearest_x2(ag.conv1x1(x_de, p.projector.weights, p.projector.bias)))


def fixed_gate(f_en, value: float = 1.0) -> np.ndarray:
    """Constant gate map matching ``f_en``'s batch and spatial dims."""
    fe = value_of(f_en)
    return np.full((fe.shape[0], 1, fe.shape[2], fe.shape[3]), value, dtype=fe.dtype)


def fuse_gated(f_en, f_up, g, *, overwrite_up: bool = False):
    """Convex blend of encoder and upsampled features under the gate.

    ``overwrite_up`` lets the blend write its result into ``f_up``, which
    the caller must own (see :func:`autograd.blend`).
    """
    fe, fu, gd = value_of(f_en), value_of(f_up), value_of(g)
    if fe.shape != fu.shape:
        raise ShapeError(f"feature dims differ: {fe.shape} vs {fu.shape}")
    if gd.shape != (fe.shape[0], 1, fe.shape[2], fe.shape[3]):
        raise ShapeError(
            f"gate must be (n, 1, h, w) = {(fe.shape[0], 1, fe.shape[2], fe.shape[3])}, "
            f"got {gd.shape}"
        )
    return ag.blend(f_en, f_up, g, overwrite_up=overwrite_up)

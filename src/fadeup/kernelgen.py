"""Upsampling-kernel generation from encoder and/or decoder features.

The semi-shift scheme ties each low-res decoder window to the four
high-res encoder windows of its 2x2 output block, so sub-pixel variance
of the kernels is controlled by the encoder alone.  The paper's three
forms are provided, two of them as one function:

* :func:`semishift_direct` -- literal per-window loops, the reference
  oracle (inference only, slow);
* :func:`semishift_l2h`    -- stride-1 convolutions of both branches, the
  low-res decoder branch added into each 2x2 phase of the high-res encoder
  branch, never NN-expanded;
* :func:`semishift_h2l`    -- the same function.  The paper's four stride-2
  corner-padded encoder sub-processes are the four 2x2 phases of l2h's
  stride-1 encoder conv, and both forms add the decoder branch per phase
  at low resolution.

Each form serves FADE's dense generator and FADE-Lite's depthwise one.
Plus the naive concat pipeline, and the decoder-only (CARAFE) and
encoder-only generators used by the ablations: each is a 1x1 compressor
then a 3x3 generator, one :class:`PairParams` drawn by
:func:`make_pair_params`, and they differ only in what the compressor reads
and how many K^2 blocks the generator emits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Node, value_of
from .rng import ShuffledLcg, init_conv_weights
from .tensor import ConvWeights, ShapeError


@dataclass
class KernelMap:
    """Per-position upsampling kernels: (n, K^2, 2H, 2W).

    Tap m addresses window offset (m // K - K//2, m % K - K//2) in the
    decoder plane.  ``normalized`` is set once the K^2 axis has been
    softmax-normalized.
    """

    data: object  # ndarray or autograd Node
    k: int
    normalized: bool = False

    def __post_init__(self):
        if self.k < 1 or self.k % 2 == 0:
            raise ShapeError(f"kernel size must be odd and positive, got {self.k}")
        if len(self.data.shape) != 4 or self.data.shape[1] != self.k * self.k:
            raise ShapeError(
                f"kernel map must have K^2={self.k * self.k} channels, "
                f"got shape {tuple(self.data.shape)}"
            )

    @property
    def shape(self):
        return self.data.shape


def _square_kernel_side(channels: int) -> int:
    k = math.isqrt(channels)
    if k * k != channels or k % 2 == 0:
        raise ShapeError(f"{channels} output channels is not an odd K squared")
    return k


def _is_depthwise(generator: ConvWeights, d: int) -> bool:
    """Whether a 3x3 generator on a d-channel compressed map is depthwise,
    (K^2 = d, 1, 3, 3), rather than dense, (K^2, d, 3, 3): its in_channels
    are 1 and differ from d.  A dense generator at d = 1 has the depthwise
    shape and stays dense; one with other in_channels than d stays dense,
    so the dense conv reports the mismatch."""
    return generator.in_channels == 1 != d


def _check_generator_input(compressor: ConvWeights, generator: ConvWeights) -> None:
    """A dense generator convolves the compressed map, so its in_channels are
    the compressor's out_channels."""
    if generator.in_channels != compressor.out_channels:
        raise ShapeError(
            f"compressor/generator channel mismatch: the compressor emits "
            f"{compressor.out_channels} channels, the generator reads {generator.in_channels}"
        )


@dataclass
class SemiShiftParams:
    """Channel compressors plus the shared 3x3 kernel generator.

    The generator is dense (FADE: compressors map C -> d, generator
    (K^2, d, 3, 3)) or depthwise (FADE-Lite: compressors map C -> K^2,
    generator (K^2, 1, 3, 3), one 3x3 filter per channel; see
    :func:`_is_depthwise`); every semi-shift form takes either.  The
    decomposition of the concatenated 1x1 compression into per-source
    compressors is exact only if the single affine bias lives on one
    branch; it is assigned to the decoder compressor, and the generator
    bias is likewise added once (on the encoder branch in the fast forms).
    """

    compressor_en: ConvWeights  # k=1, C -> d, bias-free
    compressor_de: ConvWeights  # k=1, C -> d, with bias
    generator: ConvWeights  # k=3, d -> K^2 or depthwise on K^2, with bias

    def __post_init__(self):
        if self.compressor_en.k != 1 or self.compressor_de.k != 1:
            raise ShapeError("compressors must be 1x1 convolutions")
        if self.compressor_en.bias is not None:
            raise ShapeError("encoder compressor must be bias-free")
        if self.compressor_de.bias is None:
            raise ShapeError("decoder compressor carries the affine bias")
        if self.generator.k != 3:
            raise ShapeError("generator window is fixed at 3x3")
        if self.generator.bias is None:
            raise ShapeError("generator bias is required")
        d = self.compressor_en.out_channels
        if _is_depthwise(self.generator, d):
            if self.generator.out_channels != d:
                raise ShapeError("depthwise generator must cover K^2 channels")
        else:
            _check_generator_input(self.compressor_en, self.generator)
        k2 = self.generator.out_channels
        if self.compressor_de.out_channels != d:
            raise ShapeError("compressors must agree on compressed channels")
        self.kernel_size = _square_kernel_side(k2)


@dataclass
class PairParams:
    """A 1x1 compressor, then a 3x3 generator emitting ``phases`` blocks of
    K^2 channels: the naive concat pipeline (2C -> d, the compressor with a
    bias), CARAFE's content encoder (C -> d -> 4K^2, ``phases=4``) and the
    encoder-only generator (C -> d -> K^2).  The generator's bias is applied,
    and the compressor's if it has one."""

    compressor: ConvWeights  # k=1, in_channels -> d
    generator: ConvWeights  # k=3, d -> phases * K^2, with bias
    phases: int = 1

    def __post_init__(self):
        if self.compressor.k != 1:
            raise ShapeError("compressor must be 1x1")
        if self.generator.k != 3:
            raise ShapeError("generator window is fixed at 3x3")
        _check_generator_input(self.compressor, self.generator)
        if self.generator.out_channels % self.phases:
            raise ShapeError(f"generator must emit {self.phases}*K^2 channels")
        self.kernel_size = _square_kernel_side(self.generator.out_channels // self.phases)


def check_x2_pair(x_en, x_de) -> None:
    en, de = value_of(x_en), value_of(x_de)
    if en.shape[0] != de.shape[0]:
        raise ShapeError(f"batch mismatch: encoder {en.shape[0]} vs decoder {de.shape[0]}")
    if en.shape[2] != 2 * de.shape[2] or en.shape[3] != 2 * de.shape[3]:
        raise ShapeError(
            f"encoder {en.shape[2:]} must be exactly twice decoder {de.shape[2:]}"
        )


# ---------------------------------------------------------------------------
# the three exact-equivalent semi-shift forms
# ---------------------------------------------------------------------------


def semishift_direct(x_en, x_de, p: SemiShiftParams) -> KernelMap:
    """Reference oracle: evaluates every output window with literal loops.

    Inference only (refuses autograd nodes); the fast forms are tested
    against this implementation, which also defines the border behavior.
    """
    if isinstance(x_en, Node) or isinstance(x_de, Node):
        raise TypeError("the direct form is an inference-only oracle")
    check_x2_pair(x_en, x_de)
    a_en = value_of(p.compressor_en.weights)[:, :, 0, 0]
    a_de = value_of(p.compressor_de.weights)[:, :, 0, 0]
    a_bias = value_of(p.compressor_de.bias)
    beta = value_of(p.generator.weights)  # (K^2, d, 3, 3), or (K^2, 1, 3, 3) depthwise
    b = value_of(p.generator.bias)
    taps = "mlij,lij->m"
    if _is_depthwise(p.generator, a_en.shape[0]):
        beta, taps = beta[:, 0], "mij,mij->m"
    enc = np.einsum("dc,nchw->ndhw", a_en, x_en)
    dec = np.einsum("dc,nchw->ndhw", a_de, x_de) + a_bias[None, :, None, None]

    n, d, eh, ew = enc.shape
    dh, dw = dec.shape[2], dec.shape[3]
    k2 = beta.shape[0]
    out = np.empty((n, k2, eh, ew), dtype=enc.dtype)
    win_en = np.zeros((d, 3, 3), dtype=enc.dtype)
    win_de = np.zeros((d, 3, 3), dtype=enc.dtype)
    for bi in range(n):
        for i in range(eh):
            for j in range(ew):
                win_en[:] = 0.0
                win_de[:] = 0.0
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        yy, xx = i + dy, j + dx
                        if 0 <= yy < eh and 0 <= xx < ew:
                            win_en[:, dy + 1, dx + 1] = enc[bi, :, yy, xx]
                        yy, xx = i // 2 + dy, j // 2 + dx
                        if 0 <= yy < dh and 0 <= xx < dw:
                            win_de[:, dy + 1, dx + 1] = dec[bi, :, yy, xx]
                out[bi, :, i, j] = (
                    np.einsum(taps, beta, win_en) + np.einsum(taps, beta, win_de) + b
                )
    return KernelMap(out, p.kernel_size, normalized=False)


def _compress_generate(x, compressor: ConvWeights, generator, generator_bias: bool = True):
    """The 1x1 compressor with its own bias, then the stride-1 3x3 generator,
    depthwise or dense as :func:`_is_depthwise` tells: one convolution that
    compresses each strip's rows as it reads them, so the compressed map
    never exists in full.

    The autograd convs are looked up at call time, so a wrapper installed
    on those module attributes sees every call.
    """
    conv = ag.conv2d_depthwise if _is_depthwise(generator, compressor.out_channels) else ag.conv2d
    bias = generator.bias if generator_bias else None
    return conv(x, generator.weights, bias, compressor=(compressor.weights, compressor.bias))


def semishift_l2h(x_en, x_de, p: SemiShiftParams) -> KernelMap:
    """Semi-shift kernel generation: stride-1 convolutions of both branches,
    the low-res decoder branch added into each 2x2 phase of the encoder
    branch by :func:`autograd.add_nearest_x2`.

    Only the K^2-channel kernel map is ever at high resolution, and the
    decoder branch is never NN-expanded; the generator bias rides on the
    encoder branch only.
    """
    check_x2_pair(x_en, x_de)
    en_branch = _compress_generate(x_en, p.compressor_en, p.generator)
    de_branch = _compress_generate(x_de, p.compressor_de, p.generator, generator_bias=False)
    return KernelMap(ag.add_nearest_x2(en_branch, de_branch), p.kernel_size)


# the paper's high-to-low form is the same computation (see the module docstring)
semishift_h2l = semishift_l2h

# FADE-Lite's generator by its own name, which the benchmark's tracer and the
# tests address; it is the l2h form itself, not a copy
semishift_lite = semishift_l2h

SEMISHIFT_FORMS = {
    "direct": semishift_direct,
    "h2l": semishift_h2l,
    "l2h": semishift_l2h,
}

# the form an operator runs when none is named
DEFAULT_FORM = "l2h"


def naive_kernelgen(x_en, x_de, p: PairParams) -> KernelMap:
    """Interpolate-concat-compress-convolve pipeline, all at high resolution.

    Channel order in the concatenation is (encoder, decoder).
    """
    check_x2_pair(x_en, x_de)
    stacked = ag.concat_channels(x_en, ag.interp_nearest_x2(x_de))
    return KernelMap(_compress_generate(stacked, p.compressor, p.generator), p.kernel_size)


def carafe_kernelgen(x_de, p: PairParams) -> KernelMap:
    """Decoder-only generation at low resolution, expanded by pixel shuffle."""
    encoded = _compress_generate(x_de, p.compressor, p.generator)
    return KernelMap(ag.pixel_shuffle_x2(encoded), p.kernel_size)


def encoder_only_kernelgen(x_en, p: PairParams) -> KernelMap:
    """Kernel map straight from the high-res encoder feature."""
    return KernelMap(_compress_generate(x_en, p.compressor, p.generator), p.kernel_size)


def normalize_kernels(kmap: KernelMap, out=None) -> KernelMap:
    """Softmax over the K^2 axis at every position, into ``out`` when given
    (untaped only; see :func:`autograd.softmax_channel`)."""
    return KernelMap(ag.softmax_channel(kmap.data, out=out), kmap.k, normalized=True)


# ---------------------------------------------------------------------------
# parameter construction (seeded, reproducible; see rng module)
# ---------------------------------------------------------------------------


def make_semishift_params(
    rng: ShuffledLcg, channels: int, compressed: int, kernel_size: int, dtype
) -> SemiShiftParams:
    k2 = kernel_size * kernel_size
    return SemiShiftParams(
        init_conv_weights(rng, compressed, channels, 1, dtype, bias=False),
        init_conv_weights(rng, compressed, channels, 1, dtype),
        init_conv_weights(rng, k2, compressed, 3, dtype),
    )


def make_semishift_lite_params(
    rng: ShuffledLcg, channels: int, kernel_size: int, dtype
) -> SemiShiftParams:
    k2 = kernel_size * kernel_size
    return SemiShiftParams(
        init_conv_weights(rng, k2, channels, 1, dtype, bias=False),
        init_conv_weights(rng, k2, channels, 1, dtype),
        init_conv_weights(rng, k2, 1, 3, dtype),
    )


def make_pair_params(
    rng: ShuffledLcg,
    in_channels: int,
    compressed: int,
    kernel_size: int,
    dtype,
    compressor_bias: bool = False,
    phases: int = 1,
) -> PairParams:
    return PairParams(
        init_conv_weights(rng, compressed, in_channels, 1, dtype, bias=compressor_bias),
        init_conv_weights(rng, phases * kernel_size**2, compressed, 3, dtype),
        phases,
    )


def apply_channel_adapter(x, adapter: ConvWeights):
    return ag.conv1x1(x, adapter.weights, adapter.bias)

"""Upsampling-kernel generation from encoder and/or decoder features.

The semi-shift scheme ties each low-res decoder window to the four
high-res encoder windows of its 2x2 output block, so sub-pixel variance
of the kernels is controlled by the encoder alone.  Three mutually
verifying forms are provided:

* :func:`semishift_direct` -- literal per-window loops, the reference
  oracle (inference only, slow);
* :func:`semishift_h2l`    -- four stride-2 sub-processes with corner
  padding, interleaved;
* :func:`semishift_l2h`    -- stride-1 convolution plus nearest-neighbour
  expansion of the decoder branch (cheapest; never materializes an
  interpolated full-channel decoder tensor).

Each form serves FADE's dense generator and FADE-Lite's depthwise one.
Plus the naive concat pipeline, and the decoder-only / encoder-only
generators used by the ablations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Node, value_of
from .rng import ShuffledLcg, init_conv_weights, init_depthwise_weights
from .tensor import ConvWeights, DepthwiseWeights, PadSpec, ShapeError


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


@dataclass
class SemiShiftParams:
    """Channel compressors plus the shared 3x3 kernel generator.

    The generator is dense (FADE: compressors map C -> d, generator
    d -> K^2) or depthwise (FADE-Lite: compressors map C -> K^2, one 3x3
    filter per channel); every semi-shift form takes either.  The
    decomposition of the concatenated 1x1 compression into per-source
    compressors is exact only if the single affine bias lives on one
    branch; it is assigned to the decoder compressor, and the generator
    bias is likewise added once (on the encoder branch in the fast forms).
    """

    compressor_en: ConvWeights  # k=1, C -> d, bias-free
    compressor_de: ConvWeights  # k=1, C -> d, with bias
    generator: ConvWeights | DepthwiseWeights  # k=3, d -> K^2 or depthwise on K^2, with bias

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
        if isinstance(self.generator, DepthwiseWeights):
            if self.generator.channels != d:
                raise ShapeError("depthwise generator must cover K^2 channels")
            k2 = self.generator.channels
        else:
            if self.generator.in_channels != d:
                raise ShapeError("compressor/generator channel mismatch")
            k2 = self.generator.out_channels
        if self.compressor_de.out_channels != d:
            raise ShapeError("compressors must agree on compressed channels")
        self.kernel_size = _square_kernel_side(k2)


@dataclass
class NaiveParams:
    """Concat pipeline: 1x1 compressor 2C -> d, then 3x3 generator d -> K^2."""

    compressor: ConvWeights  # k=1, 2C -> d, with bias
    generator: ConvWeights  # k=3, d -> K^2, with bias

    def __post_init__(self):
        if self.compressor.k != 1:
            raise ShapeError("naive compressor must be 1x1")
        if self.generator.k != 3:
            raise ShapeError("generator window is fixed at 3x3")
        self.kernel_size = _square_kernel_side(self.generator.out_channels)


@dataclass
class CarafeParams:
    """Decoder-only generator: 1x1 compressor, 3x3 content encoder to 4K^2."""

    compressor: ConvWeights  # k=1, C -> d, bias-free
    content_encoder: ConvWeights  # k=3, d -> 4K^2, with bias

    def __post_init__(self):
        if self.compressor.k != 1:
            raise ShapeError("compressor must be 1x1")
        if self.compressor.bias is not None:
            raise ShapeError("compressor is bias-free; the content encoder has bias")
        if self.content_encoder.k != 3:
            raise ShapeError("content encoder window is fixed at 3x3")
        if self.content_encoder.out_channels % 4:
            raise ShapeError("content encoder must emit 4*K^2 channels")
        self.kernel_size = _square_kernel_side(self.content_encoder.out_channels // 4)


@dataclass
class EncoderOnlyParams:
    """Encoder-only generator at high resolution."""

    compressor: ConvWeights  # k=1, C -> d, bias-free
    generator: ConvWeights  # k=3, d -> K^2, with bias

    def __post_init__(self):
        if self.compressor.k != 1:
            raise ShapeError("compressor must be 1x1")
        if self.compressor.bias is not None:
            raise ShapeError("encoder compressor must be bias-free")
        if self.generator.k != 3:
            raise ShapeError("generator window is fixed at 3x3")
        self.kernel_size = _square_kernel_side(self.generator.out_channels)


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
    beta = value_of(p.generator.weights)  # (K^2, d, 3, 3), or (K^2, 3, 3) depthwise
    b = value_of(p.generator.bias)
    taps = "mlij,lij->m" if beta.ndim == 4 else "mij,mij->m"
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


# each sub-process pads exactly the two sides named by its corner
_H2L_PADS = {
    (0, 0): PadSpec(1, 0, 1, 0),  # top-left
    (0, 1): PadSpec(1, 0, 0, 1),  # top-right
    (1, 0): PadSpec(0, 1, 1, 0),  # bottom-left
    (1, 1): PadSpec(0, 1, 0, 1),  # bottom-right
}


def _generate(x, generator, bias, stride: int = 1, pad: PadSpec = PadSpec.same(1)):
    """The 3x3 generator conv: depthwise for DepthwiseWeights, else dense.

    The autograd convs are looked up at call time, so a wrapper installed
    on those module attributes sees every call.
    """
    conv = ag.conv2d_depthwise if isinstance(generator, DepthwiseWeights) else ag.conv2d
    return conv(x, generator.weights, bias, stride=stride, pad=pad)


def _compress_generate(x, compressor: ConvWeights, generator, generator_bias: bool = True):
    """1x1 compressor with its own bias, then the stride-1 3x3 generator."""
    compressed = ag.conv1x1(x, compressor.weights, compressor.bias)
    return _generate(compressed, generator, generator.bias if generator_bias else None)


def semishift_h2l(x_en, x_de, p: SemiShiftParams) -> KernelMap:
    """High-to-low form: four stride-2 corner-padded encoder sub-processes.

    The stride-1 decoder branch is computed once and shared by all four
    phases; the generator bias rides on the encoder branch only.
    """
    check_x2_pair(x_en, x_de)
    de_branch = _compress_generate(x_de, p.compressor_de, p.generator, generator_bias=False)
    en_c = ag.conv1x1(x_en, p.compressor_en.weights)
    subs = []
    for phase in ((0, 0), (0, 1), (1, 0), (1, 1)):
        en_branch = _generate(en_c, p.generator, p.generator.bias, 2, _H2L_PADS[phase])
        subs.append(ag.add(en_branch, de_branch))
    return KernelMap(ag.interleave2x2(*subs), p.kernel_size, normalized=False)


def semishift_l2h(x_en, x_de, p: SemiShiftParams) -> KernelMap:
    """Low-to-high form: stride-1 convolutions, decoder branch NN-expanded.

    Only the K^2-channel kernel map is interpolated, never the compressed
    (let alone full) decoder feature.
    """
    check_x2_pair(x_en, x_de)
    en_branch = _compress_generate(x_en, p.compressor_en, p.generator)
    de_branch = _compress_generate(x_de, p.compressor_de, p.generator, generator_bias=False)
    return KernelMap(ag.add(en_branch, ag.interp_nearest_x2(de_branch)), p.kernel_size)


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


def naive_kernelgen(x_en, x_de, p: NaiveParams) -> KernelMap:
    """Interpolate-concat-compress-convolve pipeline, all at high resolution.

    Channel order in the concatenation is (encoder, decoder).
    """
    check_x2_pair(x_en, x_de)
    stacked = ag.concat_channels(x_en, ag.interp_nearest_x2(x_de))
    return KernelMap(_compress_generate(stacked, p.compressor, p.generator), p.kernel_size)


def carafe_kernelgen(x_de, p: CarafeParams) -> KernelMap:
    """Decoder-only generation at low resolution, expanded by pixel shuffle."""
    encoded = _compress_generate(x_de, p.compressor, p.content_encoder)
    return KernelMap(ag.pixel_shuffle_x2(encoded), p.kernel_size)


def encoder_only_kernelgen(x_en, p: EncoderOnlyParams) -> KernelMap:
    """Kernel map straight from the high-res encoder feature."""
    return KernelMap(_compress_generate(x_en, p.compressor, p.generator), p.kernel_size)


def normalize_kernels(kmap: KernelMap) -> KernelMap:
    """Softmax over the K^2 axis at every position."""
    return KernelMap(ag.softmax_channel(kmap.data), kmap.k, normalized=True)


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
        init_depthwise_weights(rng, k2, 3, dtype),
    )


def make_naive_params(
    rng: ShuffledLcg, channels: int, compressed: int, kernel_size: int, dtype
) -> NaiveParams:
    k2 = kernel_size * kernel_size
    return NaiveParams(
        init_conv_weights(rng, compressed, 2 * channels, 1, dtype),
        init_conv_weights(rng, k2, compressed, 3, dtype),
    )


def make_carafe_params(
    rng: ShuffledLcg, channels: int, compressed: int, kernel_size: int, dtype
) -> CarafeParams:
    k2 = kernel_size * kernel_size
    return CarafeParams(
        init_conv_weights(rng, compressed, channels, 1, dtype, bias=False),
        init_conv_weights(rng, 4 * k2, compressed, 3, dtype),
    )


def make_encoder_only_params(
    rng: ShuffledLcg, channels: int, compressed: int, kernel_size: int, dtype
) -> EncoderOnlyParams:
    k2 = kernel_size * kernel_size
    return EncoderOnlyParams(
        init_conv_weights(rng, compressed, channels, 1, dtype, bias=False),
        init_conv_weights(rng, k2, compressed, 3, dtype),
    )


def make_channel_adapter(
    rng: ShuffledLcg, in_channels: int, out_channels: int, dtype
) -> ConvWeights:
    """Optional 1x1 adapter for unequal encoder/decoder channel counts.

    Counted outside the standard parameter formulas.
    """
    return init_conv_weights(rng, out_channels, in_channels, 1, dtype)


def apply_channel_adapter(x, adapter: ConvWeights):
    return ag.conv1x1(x, adapter.weights, adapter.bias)

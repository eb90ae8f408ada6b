"""Complete x2 upsampling operators behind a uniform interface.

Variants cover the gated encoder-decoder operator (``fade``), its
depthwise ``fade_lite`` version, the ungated ``fade_g1`` mode, the
decoder-only ``carafe`` baseline, plain ``nearest``/``bilinear``, and
the six ablation variants b1-b6.  Each variant is one row of
:data:`VARIANT_SPECS`: where its kernels come from and its default gate.
``b6_full`` is the same row as ``fade``, ``b2_decoder_only`` as
``carafe`` and ``b5_semishift_skip`` as ``fade_g1``.
"""

from __future__ import annotations

import struct
from collections.abc import Callable
from dataclasses import dataclass, fields

import numpy as np

from . import assemble, gate, kernelgen
from . import tensor as T
from .autograd import Node, value_of
from .rng import ShuffledLcg, init_conv_weights
from .tensor import FormatError, ShapeError, check_nchw

# The generator and baseline lambdas below look kernelgen/assemble functions
# up at call time, so a wrapper installed on those module attributes (or on
# a SEMISHIFT_FORMS entry) sees every call.


@dataclass(frozen=True)
class KernelSource:
    """One kernel-generator family.

    ``make_params(rng, C, d, K, dtype)`` draws the parameter dataclass,
    whose leading fields are ConvWeights in slot order; ``slots`` names
    them, as the checkpoint does (``<slot>.weights``, ``<slot>.bias``);
    ``generate(guide, x_de, params, impl)`` returns the raw KernelMap;
    ``guided`` says whether it reads the encoder guide; ``counted(C, d,
    K2)`` is the closed-form weight count (biases excluded).
    """

    make_params: Callable
    generate: Callable
    guided: bool
    counted: Callable[[int, int, int], int]
    slots: tuple[str, ...] = ("compressor", "generator")


_SEMISHIFT = KernelSource(
    kernelgen.make_semishift_params,
    lambda guide, x_de, p, impl: kernelgen.SEMISHIFT_FORMS[impl](guide, x_de, p),
    guided=True,
    counted=lambda C, d, K2: 2 * C * d + 9 * K2 * d,
    slots=("compressor_en", "compressor_de", "generator"),
)
_LITE = KernelSource(
    lambda rng, C, d, K, dtype: kernelgen.make_semishift_lite_params(rng, C, K, dtype),
    _SEMISHIFT.generate,  # each semi-shift form takes the depthwise generator too
    guided=True,
    counted=lambda C, d, K2: 2 * C * K2 + 9 * K2,
    slots=_SEMISHIFT.slots,
)
_CARAFE = KernelSource(
    lambda rng, C, d, K, dtype: kernelgen.make_pair_params(rng, C, d, K, dtype, phases=4),
    lambda guide, x_de, p, impl: kernelgen.carafe_kernelgen(x_de, p),
    guided=False,
    counted=lambda C, d, K2: C * d + 36 * K2 * d,
    slots=("compressor", "content_encoder"),
)
_ENCODER_ONLY = KernelSource(
    kernelgen.make_pair_params,
    lambda guide, x_de, p, impl: kernelgen.encoder_only_kernelgen(guide, p),
    guided=True,
    counted=lambda C, d, K2: C * d + 9 * K2 * d,
)
_NAIVE = KernelSource(
    lambda rng, C, d, K, dtype: kernelgen.make_pair_params(
        rng, 2 * C, d, K, dtype, compressor_bias=True
    ),
    lambda guide, x_de, p, impl: kernelgen.naive_kernelgen(guide, x_de, p),
    guided=True,
    counted=lambda C, d, K2: 2 * C * d + 9 * K2 * d,
)


@dataclass(frozen=True)
class VariantSpec:
    """A variant: its kernel source and default gate mode, or, for the
    weightless variants, the baseline upsampler of the decoder."""

    source: KernelSource | None
    gate: str = "none"
    baseline: Callable | None = None

    @property
    def guided(self) -> bool:
        return self.source is not None and self.source.guided


_FADE = VariantSpec(_SEMISHIFT, gate="learned")
_SKIP = VariantSpec(_SEMISHIFT, gate="one")
_DECODER_ONLY = VariantSpec(_CARAFE)

VARIANT_SPECS = {
    "fade": _FADE,
    "fade_lite": VariantSpec(_LITE, gate="learned"),
    "fade_g1": _SKIP,
    "carafe": _DECODER_ONLY,
    "nearest": VariantSpec(None, baseline=lambda x_de: assemble.upsample_nearest(x_de)),
    "bilinear": VariantSpec(None, baseline=lambda x_de: assemble.upsample_bilinear(x_de)),
    "b1_encoder_only": VariantSpec(_ENCODER_ONLY),
    "b2_decoder_only": _DECODER_ONLY,
    "b3_naive": VariantSpec(_NAIVE),
    "b4_semishift_nogate": VariantSpec(_SEMISHIFT),
    "b5_semishift_skip": _SKIP,
    "b6_full": _FADE,
}

VARIANTS = tuple(VARIANT_SPECS)

_GATE_MODES = ("learned", "one", "none")

_DTYPES = {"f32": np.float32, "f64": np.float64}


@dataclass
class OperatorConfig:
    variant: str
    channels: int = 0
    compressed: int = 64
    kernel_size: int = 5
    seed: int = 0
    precision: str = "f32"
    gate_mode: str | None = None  # None -> variant default
    encoder_channels: int | None = None  # adds a 1x1 alignment adapter

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ShapeError(f"unknown variant {self.variant!r}; pick one of {VARIANTS}")
        spec = VARIANT_SPECS[self.variant]
        if self.precision not in _DTYPES:
            raise ShapeError(f"precision must be f32 or f64, got {self.precision!r}")
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise ShapeError(f"kernel size must be odd and positive, got {self.kernel_size}")
        if spec.source is not None:
            if self.channels < 1:
                raise ShapeError(f"variant {self.variant!r} needs channels >= 1")
            if self.compressed < 1:
                raise ShapeError("compressed channel count must be >= 1")
        if self.gate_mode is not None and self.gate_mode not in _GATE_MODES:
            raise ShapeError(f"gate_mode must be one of {_GATE_MODES}")
        if self.gate_mode is not None and spec.source is None:
            raise ShapeError(f"variant {self.variant!r} carries no gate")
        if self.gate_mode in ("learned", "one") and not spec.guided:
            raise ShapeError(
                f"variant {self.variant!r} takes no encoder guide for gate_mode "
                f"{self.gate_mode!r} to fuse"
            )
        if self.encoder_channels is not None and not spec.guided:
            raise ShapeError(f"variant {self.variant!r} takes no encoder guide")

    @property
    def dtype(self):
        return _DTYPES[self.precision]


def effective_gate_mode(cfg: OperatorConfig) -> str:
    if cfg.gate_mode is not None:
        return cfg.gate_mode
    return VARIANT_SPECS[cfg.variant].gate


@dataclass
class _Slot:
    """One named parameter tensor: owner object, attribute, and bucket.

    bucket is "counted" for tensors the standard parameter formulas count,
    "bias" for the bias extras they omit, "adapter" for the optional
    channel-alignment adapter.
    """

    name: str
    owner: object
    attr: str
    bucket: str


def _weight_slots(prefix: str, owner, weights_bucket="counted", bias_bucket="bias"):
    """``<prefix>.weights``, then ``<prefix>.bias`` if the owner has one."""
    slots = [_Slot(f"{prefix}.weights", owner, "weights", weights_bucket)]
    if owner.bias is not None:
        slots.append(_Slot(f"{prefix}.bias", owner, "bias", bias_bucket))
    return slots


class UpsampleOperator:
    """Config plus owned parameters; forward is pure given the parameters."""

    def __init__(self, config: OperatorConfig):
        self.config = config
        self._slots: list[_Slot] = []
        self._build()

    # -- construction -------------------------------------------------------

    def _build(self):
        """Draw parameters in slot order: kernel source, gate, adapter."""
        cfg = self.config
        source = VARIANT_SPECS[cfg.variant].source
        rng = ShuffledLcg(cfg.seed)
        self.kernel_params = None
        self.gate_params = None
        self.adapter = None
        if source is not None:
            self.kernel_params = source.make_params(
                rng, cfg.channels, cfg.compressed, cfg.kernel_size, cfg.dtype
            )
            for name, f in zip(source.slots, fields(self.kernel_params)):
                self._slots += _weight_slots(name, getattr(self.kernel_params, f.name))
        if effective_gate_mode(cfg) == "learned":
            self.gate_params = gate.make_gate_params(rng, cfg.channels, cfg.dtype)
            self._slots += _weight_slots("gate", self.gate_params.projector)
        if cfg.encoder_channels is not None and cfg.encoder_channels != cfg.channels:
            self.adapter = init_conv_weights(rng, cfg.channels, cfg.encoder_channels, 1, cfg.dtype)
            self._slots += _weight_slots("adapter", self.adapter, "adapter", "adapter")

    # -- parameter access ----------------------------------------------------

    def named_parameters(self):
        return [(s.name, getattr(s.owner, s.attr)) for s in self._slots]

    def parameter_counts(self) -> dict:
        """Element counts per bucket plus a per-tensor breakdown."""
        out = {"counted": 0, "bias": 0, "adapter": 0, "tensors": {}}
        for s in self._slots:
            size = int(np.prod(value_of(getattr(s.owner, s.attr)).shape))
            out[s.bucket] += size
            out["tensors"][s.name] = (s.bucket, size)
        return out

    def wrap_parameters(self) -> list:
        """Swap every parameter array for an autograd Node, in place."""
        nodes = []
        for s in self._slots:
            cur = getattr(s.owner, s.attr)
            if not isinstance(cur, Node):
                setattr(s.owner, s.attr, Node(cur, name=s.name))
            nodes.append(getattr(s.owner, s.attr))
        return nodes

    def install_parameters(self, values) -> None:
        """Install arrays or Nodes as the parameters, in slot order."""
        values = list(values)
        if len(values) != len(self._slots):
            raise ShapeError(
                f"expected {len(self._slots)} parameter tensors, got {len(values)}"
            )
        for s, v in zip(self._slots, values):
            if value_of(v).shape != value_of(getattr(s.owner, s.attr)).shape:
                raise ShapeError(f"shape mismatch for parameter {s.name}")
            if value_of(v).dtype != self.config.dtype:
                raise ShapeError(
                    f"parameter {s.name} dtype {value_of(v).dtype} does not match "
                    f"operator precision {self.config.precision}"
                )
        for s, v in zip(self._slots, values):
            setattr(s.owner, s.attr, v)

    # -- forward -------------------------------------------------------------

    def _check_inputs(self, x_en, x_de):
        cfg = self.config

        def check_feature(x, role):
            check_nchw(value_of(x), f"{role} feature")
            if value_of(x).dtype != cfg.dtype:
                raise ShapeError(
                    f"{role} dtype {value_of(x).dtype} does not match operator "
                    f"precision {cfg.precision}"
                )

        check_feature(x_de, "decoder")
        spec = VARIANT_SPECS[cfg.variant]
        if spec.guided:
            if x_en is None:
                raise ShapeError(
                    f"variant {cfg.variant!r} requires the high-res encoder guide"
                )
            check_feature(x_en, "encoder")
            kernelgen.check_x2_pair(x_en, x_de)
            expect_c = (
                cfg.encoder_channels if cfg.encoder_channels is not None else cfg.channels
            )
            if value_of(x_en).shape[1] != expect_c:
                raise ShapeError(
                    f"encoder has {value_of(x_en).shape[1]} channels, expected {expect_c}"
                )
        if spec.source is not None:
            if value_of(x_de).shape[1] != cfg.channels:
                raise ShapeError(
                    f"decoder has {value_of(x_de).shape[1]} channels, expected {cfg.channels}"
                )

    def forward_parts(self, x_en, x_de, impl: str | None = None, *, parts: bool = True):
        """Run the pipeline and return (output, intermediates dict).

        ``impl`` picks the semi-shift form of ``fade``, ``fade_lite`` and
        the semi-shift ablations; None means ``kernelgen.DEFAULT_FORM``,
        and "direct" is the test oracle.  Other variants ignore a valid form;
        an unknown one raises ShapeError for every variant.

        ``parts=False`` returns an empty dict.  Then, when neither the
        decoder nor the kernel map is taped and C >= K^2, the kernels are
        normalized into the output's last K^2 channels and reassembly
        writes over them (see :func:`autograd.reassemble`), so no kernel
        map sits beside the output.  The output's bits are the same either
        way.
        """
        impl = impl or kernelgen.DEFAULT_FORM
        if impl not in kernelgen.SEMISHIFT_FORMS:
            raise ShapeError(
                f"unknown semi-shift form {impl!r}; pick one of {tuple(kernelgen.SEMISHIFT_FORMS)}"
            )
        cfg = self.config
        spec = VARIANT_SPECS[cfg.variant]
        self._check_inputs(x_en, x_de)
        if spec.baseline is not None:
            return spec.baseline(x_de), {}
        guide = x_en
        if self.adapter is not None:
            guide = kernelgen.apply_channel_adapter(x_en, self.adapter)
        kernels = spec.source.generate(guide, x_de, self.kernel_params, impl)
        n, c, h, w = value_of(x_de).shape
        k2 = kernels.shape[1]
        out = tail = None
        if not parts and c >= k2 and not any(isinstance(a, Node) for a in (x_de, kernels.data)):
            out = np.empty((n, c, 2 * h, 2 * w), np.result_type(value_of(x_de), kernels.data))
            tail = out[:, c - k2 :]
        kernels = kernelgen.normalize_kernels(kernels, out=tail)  # rebinding drops the raw map
        upsampled = assemble.reassemble(x_de, kernels, out=out)
        intermediates = {"kernels": kernels} if parts else {}

        mode = effective_gate_mode(cfg)
        if mode == "none":
            return upsampled, intermediates
        if mode == "learned":
            g = gate.generate_gate(x_de, self.gate_params)
        else:
            g = gate.fixed_gate(guide, 1.0)
        if parts:
            intermediates["gate"] = g
        # the reassembly output is this call's own array, so an untaped
        # blend writes into it instead of allocating a second output
        untaped = not any(isinstance(a, Node) for a in (guide, upsampled, g))
        return gate.fuse_gated(guide, upsampled, g, overwrite_up=untaped), intermediates

    def forward(self, x_en, x_de, impl: str | None = None):
        out, _ = self.forward_parts(x_en, x_de, impl, parts=False)
        return out


def build_operator(cfg: OperatorConfig) -> UpsampleOperator:
    return UpsampleOperator(cfg)


# ---------------------------------------------------------------------------
# checkpoint container: little-endian manifest header, then FTEN blobs
#
# bytes 0-3  magic "FCKP"; byte 4 version (=1); bytes 5-7 reserved zero
# bytes 8-11 uint32 entry count
# entries:   uint16 name length, ASCII name, four uint32 dims of the
#            rank-4 FTEN blob, uint64 byte offset of the blob from the
#            start of the file
# blobs:     FTEN v1 images in entry order, back to back from the end of
#            the manifest to the end of the file (rank-4; rank-1 biases are
#            stored as (len, 1, 1, 1))
# ---------------------------------------------------------------------------

_CKPT_MAGIC = b"FCKP"
_CKPT_VERSION = 1
_CKPT_HEAD = struct.Struct("<4sBBHI")
_CKPT_ENTRY_DIMS = struct.Struct("<4IQ")


def _as_rank4(a: np.ndarray) -> np.ndarray:
    if a.ndim == 4:
        return a
    if a.ndim == 1:
        return a[:, None, None, None]
    raise ShapeError(f"cannot store rank-{a.ndim} tensor in a checkpoint")


def save_checkpoint(op: UpsampleOperator, path) -> None:
    entries = [(name, _as_rank4(np.array(value_of(v)))) for name, v in op.named_parameters()]
    head_size = _CKPT_HEAD.size
    manifest_size = sum(
        2 + len(name.encode("ascii")) + _CKPT_ENTRY_DIMS.size for name, _ in entries
    )
    offset = head_size + manifest_size
    with T.open_output(path) as f:
        f.write(_CKPT_HEAD.pack(_CKPT_MAGIC, _CKPT_VERSION, 0, 0, len(entries)))
        for name, a in entries:
            nb = name.encode("ascii")
            f.write(struct.pack("<H", len(nb)))
            f.write(nb)
            f.write(_CKPT_ENTRY_DIMS.pack(*a.shape, offset))
            offset += T.ften_size(a)
        for _, a in entries:
            T.write_ften_to(f, a)


def read_checkpoint(path) -> dict:
    """Read a checkpoint file into an ordered name -> rank-4 array mapping."""
    with open(path, "rb") as f:
        return checkpoint_from_bytes(f.read())


def checkpoint_from_bytes(raw: bytes) -> dict:
    """Parse a checkpoint image into an ordered name -> rank-4 array mapping."""
    if len(raw) < _CKPT_HEAD.size:
        raise FormatError("truncated checkpoint header")
    magic, version, reserved5, reserved67, count = _CKPT_HEAD.unpack_from(raw)
    if magic != _CKPT_MAGIC:
        raise FormatError(f"bad checkpoint magic {magic!r}")
    if version != _CKPT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}")
    if reserved5 or reserved67:
        raise FormatError("checkpoint header bytes 5-7 are reserved and must be zero")
    pos = _CKPT_HEAD.size
    manifest = []
    for _ in range(count):
        if pos + 2 > len(raw):
            raise FormatError("truncated checkpoint manifest")
        (nlen,) = struct.unpack_from("<H", raw, pos)
        pos += 2
        try:
            name = raw[pos : pos + nlen].decode("ascii")
        except UnicodeDecodeError as e:
            raise FormatError(f"checkpoint entry name is not ASCII: {e}") from e
        if not name.isprintable():
            raise FormatError(f"checkpoint entry name {name!r} holds control characters")
        pos += nlen
        if pos + _CKPT_ENTRY_DIMS.size > len(raw):
            raise FormatError("truncated checkpoint manifest")
        *dims, offset = _CKPT_ENTRY_DIMS.unpack_from(raw, pos)
        pos += _CKPT_ENTRY_DIMS.size
        manifest.append((name, tuple(dims), offset))
    # The blobs tile the rest of the file: the first starts at the manifest
    # end, and ften_from_bytes takes a blob only at its exact size, so each
    # blob ends where the next starts and the last ends the file.
    offsets = [offset for _, _, offset in manifest]
    ends = offsets[1:] + [len(raw)]
    if not manifest and pos != len(raw):
        raise FormatError(f"{len(raw) - pos} bytes after an empty checkpoint manifest")
    if manifest and offsets[0] != pos:
        raise FormatError(f"first checkpoint blob at byte {offsets[0]}, expected {pos}")
    out = {}
    for (name, dims, offset), end in zip(manifest, ends):
        if name in out:
            raise FormatError(f"checkpoint entry {name!r} appears more than once")
        if end <= offset:
            raise FormatError(
                f"checkpoint blob {name} would span bytes {offset}..{end}: offsets out of "
                "order or past the end of the file"
            )
        arr = T.ften_from_bytes(raw[offset:end])
        if arr.shape != dims:
            raise FormatError(f"checkpoint blob {name} shape {arr.shape} != manifest {dims}")
        out[name] = arr
    return out


def load_checkpoint(op: UpsampleOperator, path) -> None:
    """Load weights saved by :func:`save_checkpoint` into ``op`` (strict)."""
    install_checkpoint(op, read_checkpoint(path))


def install_checkpoint(op: UpsampleOperator, stored: dict) -> None:
    """Install a parsed checkpoint into ``op``: its names must be exactly
    ``op``'s parameters, at their shapes, or nothing is installed."""
    live = dict(op.named_parameters())
    missing = [n for n in live if n not in stored]
    extra = [n for n in stored if n not in live]
    if missing or extra:
        raise FormatError(
            f"checkpoint does not match the operator: missing {missing or 'none'}, "
            f"unexpected {extra or 'none'}"
        )
    values = []
    for name, v in live.items():
        cur = value_of(v)
        want = _as_rank4(cur).shape
        if stored[name].shape != want:
            raise ShapeError(
                f"checkpoint tensor {name} has shape {stored[name].shape}, expected {want}"
            )
        values.append(stored[name].reshape(cur.shape).astype(cur.dtype, copy=True))
    op.install_parameters(values)

"""NCHW shape checks, the convolution weight layout, and bit-exact file I/O.

Feature maps are plain ``numpy.ndarray`` values of shape (n, c, h, w),
dtype float32 or float64, row-major.  The NCHW operations themselves
live in :mod:`fadeup.autograd`, one function each, taped or not.  Every
function here is a pure function of its inputs; given identical inputs
it returns bit-identical outputs across runs.

Every file the library writes goes through :func:`open_output`.  It
rewrites an existing file in place, without truncating it first, and cuts
it to the bytes written once the block ends.  The file is left as
``open(path, "wb")`` would leave it: the same bytes and the same inode,
with its mode and hard links kept and a symlink written through.  The
one difference is a process killed mid-write, which leaves the new bytes
followed by the old file's tail, not a short file.  The reason is cost:
on ext4 with the default ``auto_da_alloc``, closing a file that was
truncated to 0 bytes flushes it to disk, which took 50-60 ms per file
whatever its size, against under 0.1 ms for the rewrite in place.
"""

from __future__ import annotations

import contextlib
import os
import stat
import struct
from dataclasses import dataclass

import numpy as np

SUPPORTED_DTYPES = (np.float32, np.float64)

_FTEN_MAGIC = b"FTEN"
_FTEN_VERSION = 1
_FTEN_DTYPE_CODE = {np.dtype(np.float32): 1, np.dtype(np.float64): 2}
_FTEN_CODE_DTYPE = {1: np.dtype("<f4"), 2: np.dtype("<f8")}


class ShapeError(ValueError):
    """Dims or channel counts violate an operation's contract."""


class FormatError(ValueError):
    """Malformed tensor file: bad magic, version, dtype code, or truncation."""


def check_nchw(x: np.ndarray, name: str = "tensor") -> np.ndarray:
    if not isinstance(x, np.ndarray) or x.ndim != 4:
        raise ShapeError(f"{name} must be a rank-4 (n, c, h, w) array")
    if x.dtype.type not in SUPPORTED_DTYPES:
        raise ShapeError(f"{name} must be float32 or float64, got {x.dtype}")
    if min(x.shape) < 1:
        raise ShapeError(f"{name} has a non-positive dim: {x.shape}")
    return x


@dataclass(frozen=True)
class PadSpec:
    """Independent zero-fill pads for the four sides of the spatial plane."""

    top: int
    bottom: int
    left: int
    right: int

    def __post_init__(self):
        if min(self.top, self.bottom, self.left, self.right) < 0:
            raise ShapeError(f"negative padding: {self}")

    @classmethod
    def same(cls, p: int) -> "PadSpec":
        return cls(p, p, p, p)


@dataclass
class ConvWeights:
    """Convolution weights (out, in, k, k) with optional per-out bias.

    A depthwise layer over c channels is (c, 1, k, k): c groups of one
    input channel each, the layer :func:`fadeup.autograd.conv2d_depthwise`
    takes.  The weight array may be swapped for an autograd node during training;
    only shapes are validated here.
    """

    weights: object  # (out, in, k, k) ndarray or autograd node
    bias: object = None  # (out,) or None

    def __post_init__(self):
        if len(self.weights.shape) != 4:
            raise ShapeError("conv weights must be rank-4 (out, in, k, k)")
        o, i, kh, kw = self.weights.shape
        if kh != kw or kh % 2 == 0:
            raise ShapeError(f"kernel must be square with odd side, got {kh}x{kw}")
        if self.bias is not None and self.bias.shape != (o,):
            raise ShapeError("bias length must equal out_channels")

    @property
    def out_channels(self) -> int:
        return self.weights.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1]

    @property
    def k(self) -> int:
        return self.weights.shape[2]


def _out_dim(size: int, pad_lo: int, pad_hi: int, k: int, stride: int) -> int:
    out = (size + pad_lo + pad_hi - k) // stride + 1
    if out < 1:
        raise ShapeError(
            f"non-positive output dim: size={size} pads=({pad_lo},{pad_hi}) "
            f"k={k} stride={stride}"
        )
    return out


def im2col(x: np.ndarray, k: int, stride: int, pad: PadSpec) -> np.ndarray:
    """Unfold k x k windows into an (n, c, k, k, oh, ow) array.

    The convolutions in :mod:`fadeup.autograd` do not call it: the tests
    use it and :func:`col2im` as the literal-GEMM reference for them.
    """
    n, c, h, w = x.shape
    oh = _out_dim(h, pad.top, pad.bottom, k, stride)
    ow = _out_dim(w, pad.left, pad.right, k, stride)
    xp = np.pad(x, ((0, 0), (0, 0), (pad.top, pad.bottom), (pad.left, pad.right)))
    cols = np.empty((n, c, k, k, oh, ow), dtype=x.dtype)
    for i in range(k):
        for j in range(k):
            cols[:, :, i, j] = xp[
                :, :, i : i + stride * oh : stride, j : j + stride * ow : stride
            ]
    return cols


def col2im(
    cols: np.ndarray, spatial: tuple, k: int, stride: int, pad: PadSpec
) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add windows back onto the plane."""
    n, c, _, _, oh, ow = cols.shape
    h, w = spatial
    acc = np.zeros(
        (n, c, h + pad.top + pad.bottom, w + pad.left + pad.right), dtype=cols.dtype
    )
    for i in range(k):
        for j in range(k):
            acc[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += (
                cols[:, :, i, j]
            )
    return acc[:, :, pad.top : pad.top + h, pad.left : pad.left + w]


# ---------------------------------------------------------------------------
# FTEN v1 file format
#
# bytes 0-3   magic "FTEN"
# byte  4     version (= 1)
# byte  5     dtype code (1 = f32, 2 = f64)
# bytes 6-7   reserved, written as zero
# bytes 8-23  four uint32 little-endian dims (n, c, h, w)
# payload     n*c*h*w little-endian reals, row-major n -> c -> h -> w
# ---------------------------------------------------------------------------

_FTEN_HEADER = struct.Struct("<4sBBH4I")


def ften_size(x: np.ndarray) -> int:
    """Bytes in the FTEN image of ``x``."""
    return _FTEN_HEADER.size + x.size * x.itemsize


def write_ften_to(f, x: np.ndarray) -> None:
    """Write the FTEN image of ``x`` to the binary file ``f``: the header,
    then the payload straight from the array's memory when it is already
    little-endian and contiguous, so no copy of the image is made."""
    check_nchw(x, "FTEN tensor")
    f.write(_FTEN_HEADER.pack(_FTEN_MAGIC, _FTEN_VERSION, _FTEN_DTYPE_CODE[x.dtype], 0, *x.shape))
    f.write(np.ascontiguousarray(x, dtype=x.dtype.newbyteorder("<")).data)


@contextlib.contextmanager
def open_output(path, mode: str = "wb", **kw):
    """Open ``path`` for writing as ``open(path, mode, **kw)`` would, but
    without truncating an existing file.  On leaving the block, whether by
    return or by exception, the file is flushed and, if it is a regular
    file, cut to the bytes written, so nothing of its old content is left.
    Pipes and devices such as ``/dev/null`` are written as they are."""
    # O_BINARY, as open() sets it, keeps Windows from translating newlines
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, mode, **kw) as f:
        try:
            yield f
        finally:
            try:
                f.flush()  # else a small file is cut to 0 bytes, the slow case
            finally:
                if stat.S_ISREG(os.fstat(fd).st_mode):
                    os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


def write_ften(path, x: np.ndarray) -> None:
    with open_output(path) as f:
        write_ften_to(f, x)


def _ften_header(head: bytes, size: int):
    """(shape, little-endian dtype) from the first bytes ``head`` of an FTEN
    image of ``size`` bytes; raises FormatError unless the image is exactly
    the header plus the payload it declares."""
    if size < _FTEN_HEADER.size:
        raise FormatError("truncated FTEN header")
    magic, version, code, reserved, n, c, h, w = _FTEN_HEADER.unpack_from(head)
    if magic != _FTEN_MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {_FTEN_MAGIC!r}")
    if version != _FTEN_VERSION:
        raise FormatError(f"unsupported FTEN version {version}")
    if reserved:
        raise FormatError("FTEN header bytes 6-7 are reserved and must be zero")
    if code not in _FTEN_CODE_DTYPE:
        raise FormatError(f"unknown dtype code {code}")
    if min(n, c, h, w) < 1:
        raise FormatError(f"non-positive dim in header: {(n, c, h, w)}")
    dtype = _FTEN_CODE_DTYPE[code]
    expected = _FTEN_HEADER.size + n * c * h * w * dtype.itemsize
    if size != expected:
        raise FormatError(
            f"payload size mismatch: file has {size} bytes, expected {expected}"
        )
    return (n, c, h, w), dtype


def ften_from_bytes(blob: bytes) -> np.ndarray:
    shape, dtype = _ften_header(blob, len(blob))
    data = np.frombuffer(blob, dtype=dtype, offset=_FTEN_HEADER.size)
    return data.reshape(shape).astype(dtype.newbyteorder("="), copy=True)


def read_ften(path) -> np.ndarray:
    """Read an FTEN file into a fresh array: the header is checked against
    the file's size, then the payload is read straight into the array.  A
    stream with no size, such as a pipe, is read whole and then parsed."""
    with open(path, "rb") as f:
        head = f.read(_FTEN_HEADER.size)
        st = os.fstat(f.fileno())
        if not stat.S_ISREG(st.st_mode):
            return ften_from_bytes(head + f.read())
        shape, dtype = _ften_header(head, st.st_size)
        out = np.empty(shape, dtype)
        if f.readinto(out.data) != out.nbytes or f.read(1):
            raise FormatError(f"FTEN file {path} changed size while it was read")
    return out.astype(dtype.newbyteorder("="), copy=False)


def write_pgm(path, x: np.ndarray) -> None:
    """Dump a single-channel map as binary PGM (P5, 8-bit, min-max scaled)."""
    check_nchw(x, "PGM tensor")
    if x.shape[0] != 1 or x.shape[1] != 1:
        raise ShapeError(f"PGM export needs a 1x1xHxW tensor, got {x.shape}")
    plane = x[0, 0].astype(np.float64)
    lo, hi = plane.min(), plane.max()
    if hi > lo:
        scaled = (plane - lo) / (hi - lo)
    else:
        scaled = np.zeros_like(plane)
    pixels = np.round(scaled * 255.0).astype(np.uint8)
    with open_output(path) as f:
        f.write(f"P5\n{plane.shape[1]} {plane.shape[0]}\n255\n".encode("ascii"))
        f.write(pixels.tobytes())

"""Apply normalized kernel maps to decoder features (x2 reassembly).

Output position (i, j) anchors its K x K source window at decoder
position (i//2, j//2); out-of-bounds taps contribute zero and kernels
are not renormalized at borders, so constants are preserved only where
windows are fully interior.  The same kernel is applied to every channel.
"""

from __future__ import annotations

from . import autograd as ag
from .kernelgen import KernelMap


def reassemble(x_de, kmap: KernelMap, out=None):
    """Content-aware x2 upsampling of ``x_de`` under a normalized kernel map.

    ``out`` is the untaped result array, which may hold the kernel map in
    its channels and then loses it (see :func:`autograd.reassemble`).
    """
    if not isinstance(kmap, KernelMap):
        raise TypeError("reassemble expects a KernelMap")
    if not kmap.normalized:
        raise ValueError("kernel map must be normalized before reassembly")
    if out is None:
        return ag.reassemble(x_de, kmap.data, kmap.k)
    return ag.reassemble(x_de, kmap.data, kmap.k, out=out)


def upsample_nearest(x):
    """Plain x2 nearest-neighbour, packaged as a baseline operator."""
    return ag.interp_nearest_x2(x)


def upsample_bilinear(x, align_corners: bool = False):
    """Plain x2 bilinear, packaged as a baseline operator."""
    return ag.interp_bilinear_x2(x, align_corners)

import tracemalloc

import numpy as np
import pytest

from fadeup import assemble, autograd as ag
from fadeup.assemble import reassemble
from fadeup.kernelgen import KernelMap, normalize_kernels
from fadeup.tensor import ShapeError


def uniform_kernels(n, k, h2, w2):
    return KernelMap(np.full((n, k * k, h2, w2), 1.0 / (k * k)), k, normalized=True)


def center_onehot(n, k, h2, w2):
    data = np.zeros((n, k * k, h2, w2))
    data[:, (k * k - 1) // 2] = 1.0
    return KernelMap(data, k, normalized=True)


def window_average_reference(x, k):
    """Brute-force zero-padded K x K window mean for uniform kernels."""
    n, c, h, w = x.shape
    out = np.zeros((n, c, 2 * h, 2 * w))
    r = k // 2
    for bi in range(n):
        for ch in range(c):
            for i in range(2 * h):
                for j in range(2 * w):
                    acc = 0.0
                    for dy in range(-r, r + 1):
                        for dx in range(-r, r + 1):
                            yy, xx = i // 2 + dy, j // 2 + dx
                            if 0 <= yy < h and 0 <= xx < w:
                                acc += x[bi, ch, yy, xx]
                    out[bi, ch, i, j] = acc / (k * k)
    return out


def literal_gather(x, kern, k):
    """Per-position float64 gather of tap m at (i//2 + m//K - K//2, j//2 + m%K - K//2)."""
    n, c, h, w = x.shape
    r = k // 2
    out = np.zeros((n, c, 2 * h, 2 * w))
    for b in range(n):
        for i in range(2 * h):
            for j in range(2 * w):
                for m in range(k * k):
                    yy, xx = i // 2 + m // k - r, j // 2 + m % k - r
                    if 0 <= yy < h and 0 <= xx < w:
                        out[b, :, i, j] += float(kern[b, m, i, j]) * x[b, :, yy, xx]
    return out


def literal_kernel_grad(x, g, k):
    """Per-position float64 dk(m, i, j) = sum_c g(c, i, j) * window_m(c, i//2, j//2)."""
    n, c, h, w = x.shape
    r = k // 2
    dk = np.zeros((n, k * k, 2 * h, 2 * w))
    for b in range(n):
        for i in range(2 * h):
            for j in range(2 * w):
                for m in range(k * k):
                    yy, xx = i // 2 + m // k - r, j // 2 + m % k - r
                    if 0 <= yy < h and 0 <= xx < w:
                        dk[b, m, i, j] = g[b, :, i, j] @ x[b, :, yy, xx]
    return dk


def phase_varying_kernels(rng, n, k, h, w, dtype, pad=0):
    """Softmax kernels on a (2h + 2pad, 2w + 2pad) plane, cropped by ``pad``."""
    logits = rng.normal(size=(n, k * k, 2 * h + 2 * pad, 2 * w + 2 * pad))
    kern = ag.softmax_channel(logits.astype(dtype))[
        :, :, pad : pad + 2 * h, pad : pad + 2 * w
    ]
    phases = kern.reshape(n, k * k, h, 2, w, 2)
    if k > 1:
        # every output phase carries its own kernels
        assert not np.allclose(phases[:, :, :, 0, :, 1], phases[:, :, :, 1, :, 0])
    return kern


# (k, decoder dtype, kernel dtype, input layout); the contiguous same-dtype
# cases keep their "<k>-<dtype>" ids
_GATHER_CASES = [
    pytest.param(k, dtype, dtype, "contiguous", id=f"{k}-{dtype.__name__}")
    for k in (1, 3, 5, 7)
    for dtype in (np.float32, np.float64)
] + [
    pytest.param(k, x_dtype, k_dtype, layout, id=f"{k}-{layout}")
    for k in (1, 3, 5, 7)
    for x_dtype, k_dtype, layout in (
        (np.float32, np.float32, "decoder_sliced"),
        (np.float64, np.float64, "decoder_transposed"),
        (np.float32, np.float32, "kernels_sliced"),
        (np.float32, np.float64, "f32_decoder_f64_kernels"),
    )
] + [
    # decoders with fewer rows than K // 2, where most taps fall outside
    pytest.param(k, np.float64, np.float64, f"rows{h}", id=f"{k}-rows{h}")
    for k, h in ((7, 1), (7, 2), (9, 2), (9, 3))
] + [
    # 6x19: two full bands, a 3-column remainder band and two row strips;
    # 9x16: whole bands only and a one-row last strip
    pytest.param(k, dtype, dtype, f"plane{plane}", id=f"{k}-{dtype.__name__}-{plane}")
    for plane in ("6x19", "9x16")
    for k in (3, 5)
    for dtype in (np.float32, np.float64)
]


class TestReassemble:
    @pytest.mark.parametrize("k, x_dtype, k_dtype, layout", _GATHER_CASES)
    def test_matches_literal_gather(self, k, x_dtype, k_dtype, layout):
        rng = np.random.default_rng(10 + k)
        n, c, h, w = 2, 3, 3, 4
        if layout.startswith("rows"):
            h = int(layout[4:])
        elif layout.startswith("plane"):
            h, w = map(int, layout[5:].split("x"))
        if layout == "decoder_sliced":
            x = rng.normal(size=(n, c + 1, h, 2 * w)).astype(x_dtype)[:, 1:, :, ::2]
        elif layout == "decoder_transposed":
            x = rng.normal(size=(n, h, w, c)).astype(x_dtype).transpose(0, 3, 1, 2)
        else:
            x = rng.normal(size=(n, c, h, w)).astype(x_dtype)
        pad = 1 if layout == "kernels_sliced" else 0
        kern = phase_varying_kernels(rng, n, k, h, w, k_dtype, pad)
        decoder_view = layout in ("decoder_sliced", "decoder_transposed")
        assert x.flags.c_contiguous != decoder_view
        assert kern.flags.c_contiguous == (layout != "kernels_sliced")
        out = reassemble(x, KernelMap(kern, k, normalized=True))
        dtype = np.result_type(x_dtype, k_dtype)
        assert out.dtype == dtype
        want = literal_gather(x.astype(np.float64), kern, k)
        # K^2 rounded products and sums of convex weights times |x|
        atol = k * k * np.finfo(dtype).eps * np.abs(x).max()
        np.testing.assert_allclose(out, want, rtol=0, atol=atol)

    @pytest.mark.parametrize(
        "k, dtype, h, w",
        [
            pytest.param(k, dtype, 3, 4, id=f"{k}-{dtype.__name__}-3")
            for k in (3, 5)
            for dtype in (np.float32, np.float64)
        ]
        + [
            pytest.param(k, np.float64, h, 4, id=f"{k}-float64-{h}")
            for k, h in ((7, 1), (7, 2), (9, 2))
        ]
        + [
            pytest.param(k, dtype, h, w, id=f"{k}-{dtype.__name__}-{h}x{w}")
            for h, w in ((6, 19), (9, 16))
            for k in (3, 5)
            for dtype in (np.float32, np.float64)
        ],
    )
    def test_kernel_grad_matches_literal(self, k, dtype, h, w):
        rng = np.random.default_rng(20 + k)
        n, c = 2, 3
        x = rng.normal(size=(n, c, h, w)).astype(dtype)
        kn = ag.Node(phase_varying_kernels(rng, n, k, h, w, dtype))
        g = rng.normal(size=(n, c, 2 * h, 2 * w)).astype(dtype)
        out = reassemble(x, KernelMap(kn, k, normalized=True))
        ag.backward(ag.sum_all(ag.mul(out, g)))
        assert kn.grad.dtype == dtype
        want = literal_kernel_grad(x.astype(np.float64), g.astype(np.float64), k)
        # c rounded products and sums, each at most max|g| * max|x|
        atol = c * c * np.finfo(dtype).eps * np.abs(g).max() * np.abs(x).max()
        np.testing.assert_allclose(kn.grad, want, rtol=0, atol=atol)

    def test_center_onehot_is_nearest(self):
        x = np.random.default_rng(0).normal(size=(2, 3, 3, 4))
        out = reassemble(x, center_onehot(2, 5, 6, 8))
        np.testing.assert_array_equal(out, ag.interp_nearest_x2(x))

    def test_uniform_kernels_window_mean(self):
        x = np.arange(9, dtype=np.float64).reshape(1, 1, 3, 3)
        out = reassemble(x, uniform_kernels(1, 3, 6, 6))
        np.testing.assert_allclose(out, window_average_reference(x, 3), rtol=1e-12)

    def test_constant_preserved_interior(self):
        v = 2.75
        x = np.full((1, 2, 5, 5), v)
        out = reassemble(x, uniform_kernels(1, 3, 10, 10))
        # windows fully inside bounds: decoder rows/cols 1..3 -> output 2..7
        np.testing.assert_allclose(out[:, :, 2:8, 2:8], v, rtol=1e-12)

    def test_channel_shared_permutation(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 4, 3, 3))
        kmap = KernelMap(
            ag.softmax_channel(rng.normal(size=(1, 9, 6, 6))), 3, normalized=True
        )
        out = np.asarray(reassemble(x, kmap))
        perm = [3, 1, 0, 2]
        out_p = np.asarray(reassemble(x[:, perm], kmap))
        np.testing.assert_array_equal(out[:, perm], out_p)

    def test_convexity_bounds(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 2, 4, 4))
        kmap = KernelMap(
            ag.softmax_channel(rng.normal(size=(1, 25, 8, 8))), 5, normalized=True
        )
        out = reassemble(x, kmap)
        # zero-padded taps can pull toward 0 but never outside [min(x,0), max(x,0)]
        assert out.max() <= max(x.max(), 0.0) + 1e-12
        assert out.min() >= min(x.min(), 0.0) - 1e-12

    def test_linearity_in_decoder(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1, 2, 3, 3))
        y = rng.normal(size=(1, 2, 3, 3))
        kmap = KernelMap(
            ag.softmax_channel(rng.normal(size=(1, 9, 6, 6))), 3, normalized=True
        )
        a, b = 0.7, -1.3
        lhs = reassemble(a * x + b * y, kmap)
        rhs = a * reassemble(x, kmap) + b * reassemble(y, kmap)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-6)

    def test_non_finite_decoder_stays_in_its_channel_and_rows(self):
        """An inf taints every output whose window holds it; which other
        columns of those rows turn NaN is unspecified, but every other
        channel, batch item and row is bit-equal to the all-finite run."""
        rng = np.random.default_rng(4)
        n, c, h, w, k = 2, 3, 9, 19, 5
        r = k // 2
        x = rng.normal(size=(n, c, h, w)).astype(np.float32)
        kmap = KernelMap(phase_varying_kernels(rng, n, k, h, w, np.float32), k, normalized=True)
        clean = reassemble(x, kmap)
        b, ch, y, xx = 1, 2, 4, 9
        x[b, ch, y, xx] = np.inf
        with np.errstate(invalid="ignore"):  # the documented 0 * inf NaNs
            out = reassemble(x, kmap)
        rows = slice(2 * (y - r), 2 * (y + r + 1))
        cols = slice(2 * (xx - r), 2 * (xx + r + 1))
        assert not np.isfinite(out[b, ch, rows, cols]).any()
        tainted = np.zeros(out.shape, bool)
        tainted[b, ch, rows] = True
        np.testing.assert_array_equal(out[~tainted], clean[~tainted])

    def test_rejects_unnormalized(self):
        x = np.zeros((1, 1, 2, 2))
        kmap = KernelMap(np.zeros((1, 9, 4, 4)), 3, normalized=False)
        with pytest.raises(ValueError, match="normalized"):
            reassemble(x, kmap)

    def test_rejects_dim_mismatch(self):
        x = np.zeros((1, 1, 2, 2))
        with pytest.raises(ShapeError, match="match"):
            reassemble(x, uniform_kernels(1, 3, 6, 6))


    @pytest.mark.parametrize("k, c", [(3, 9), (5, 25), (5, 27), (7, 49)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_out_may_hold_the_kernels_in_its_tail(self, k, c, dtype):
        """Kernels normalized into the last K^2 channels of ``out`` give the
        bits of a reassembly into a new array, as each strip reads its
        kernel rows before its GEMMs write them.  The 6x19 plane takes a
        4-row and a 2-row strip, two full bands and a remainder band."""
        rng = np.random.default_rng(k + c)
        n, h, w = 2, 6, 19
        x = rng.normal(size=(n, c, h, w)).astype(dtype)
        raw = KernelMap(rng.normal(size=(n, k * k, 2 * h, 2 * w)).astype(dtype), k)
        want = reassemble(x, normalize_kernels(raw))
        out = np.empty(want.shape, dtype)
        kmap = normalize_kernels(raw, out=out[:, c - k * k :])
        assert reassemble(x, kmap, out=out) is out
        np.testing.assert_array_equal(out, want)

    def test_out_allocates_no_output(self):
        """Into ``out``, reassembly at C=64 with a 32^2 decoder allocates
        only its strip scratch, under half the output."""
        rng = np.random.default_rng(6)
        x = rng.normal(size=(1, 64, 32, 32)).astype(np.float32)
        kmap = normalize_kernels(
            KernelMap(rng.normal(size=(1, 25, 64, 64)).astype(np.float32), 5)
        )
        out = np.empty((1, 64, 64, 64), np.float32)
        tracemalloc.start()
        try:
            reassemble(x, kmap, out=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * out.nbytes, f"peak {peak / out.nbytes:.2f}x the output"
        np.testing.assert_array_equal(out, reassemble(x, kmap))

    def test_out_is_untaped_only(self):
        x = np.zeros((1, 2, 2, 2))
        kern = uniform_kernels(1, 3, 4, 4).data
        out = np.empty((1, 2, 4, 4))
        for args in ((ag.Node(x), kern), (x, ag.Node(kern))):
            with pytest.raises(ValueError, match="taped"):
                ag.reassemble(*args, 3, out=out)
        strided = np.empty((1, 2, 4, 8))[..., ::2]
        for bad in (np.empty(out.shape, np.float32), np.empty((1, 3, 4, 4)), strided):
            with pytest.raises(ShapeError, match="out"):
                ag.reassemble(x, kern, 3, out=bad)


class TestBaselineOperators:
    def test_nearest_delegates_bit_exact(self):
        x = np.random.default_rng(0).normal(size=(2, 3, 4, 5))
        np.testing.assert_array_equal(
            assemble.upsample_nearest(x), ag.interp_nearest_x2(x)
        )

    def test_bilinear_delegates_bit_exact(self):
        x = np.random.default_rng(1).normal(size=(2, 3, 4, 5))
        for ac in (False, True):
            np.testing.assert_array_equal(
                assemble.upsample_bilinear(x, ac), ag.interp_bilinear_x2(x, ac)
            )

    def test_output_shapes(self):
        x = np.zeros((1, 1, 2, 2))
        assert assemble.upsample_nearest(x).shape == (1, 1, 4, 4)
        assert assemble.upsample_bilinear(x).shape == (1, 1, 4, 4)

    def test_constant_in_constant_out(self):
        x = np.full((1, 2, 3, 3), 1.5)
        np.testing.assert_allclose(assemble.upsample_nearest(x), 1.5)
        np.testing.assert_allclose(assemble.upsample_bilinear(x), 1.5)

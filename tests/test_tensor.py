import io
import os
import threading
import tracemalloc

import numpy as np
import pytest

from fadeup import autograd as ag
from fadeup import tensor as T
from fadeup.tensor import FormatError, PadSpec, ShapeError


def ften_bytes(x):
    """The FTEN image of x, written through ``write_ften_to``."""
    f = io.BytesIO()
    T.write_ften_to(f, x)
    return f.getvalue()


def conv_reference(x, w, b, stride, pad):
    """Direct nested-loop cross-correlation; the oracle for conv2d."""
    n, c, h, wd = x.shape
    o, ci, k, _ = w.shape
    oh = (h + pad.top + pad.bottom - k) // stride + 1
    ow = (wd + pad.left + pad.right - k) // stride + 1
    out = np.zeros((n, o, oh, ow), dtype=x.dtype)
    for bi in range(n):
        for oc in range(o):
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for ic in range(ci):
                        for ky in range(k):
                            for kx in range(k):
                                yy = i * stride + ky - pad.top
                                xx = j * stride + kx - pad.left
                                if 0 <= yy < h and 0 <= xx < wd:
                                    acc += x[bi, ic, yy, xx] * w[oc, ic, ky, kx]
                    out[bi, oc, i, j] = acc + (b[oc] if b is not None else 0.0)
    return out


# the convolutions live in fadeup.autograd and run tape-free on plain arrays
class TestConv2d:
    def test_identity_kernel(self):
        x = np.random.default_rng(0).normal(size=(2, 3, 5, 6))
        w = np.zeros((3, 3, 3, 3))
        for c in range(3):
            w[c, c, 1, 1] = 1.0
        out = ag.conv2d(x, w)
        np.testing.assert_array_equal(out, x)

    def test_allones_window_sum(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        w = np.ones((1, 1, 3, 3))
        out = ag.conv2d(x, w)
        ref = conv_reference(x, w, None, 1, PadSpec.same(1))
        np.testing.assert_allclose(out, ref, rtol=0, atol=0)
        # every 3x3 window covers all four values here
        np.testing.assert_array_equal(ref[0, 0], np.full((2, 2), 10.0))

    def test_zero_input_zero_bias(self):
        x = np.zeros((1, 2, 4, 4))
        w = np.random.default_rng(1).normal(size=(3, 2, 3, 3))
        out = ag.conv2d(x, w, np.zeros(3))
        np.testing.assert_array_equal(out, np.zeros((1, 3, 4, 4)))

    @pytest.mark.parametrize("stride,pad", [(1, PadSpec.same(1)), (2, PadSpec(1, 0, 1, 0)), (1, PadSpec(0, 2, 1, 0))])
    def test_matches_reference(self, stride, pad):
        """conv2d, whose padding is "same", against the oracle at a stride and
        pad: their conv is conv2d of the plane padded by ``pad``, read from
        k // 2 at every ``stride``-th output."""
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 3, 5, 4))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        want = conv_reference(x, w, b, stride, pad)
        xp = np.pad(x, ((0, 0), (0, 0), (pad.top, pad.bottom), (pad.left, pad.right)))
        got = ag.conv2d(xp, w, b)[:, :, 1::stride, 1::stride]  # k // 2 = 1
        got = got[:, :, : want.shape[2], : want.shape[3]]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1, 2, 6, 6))
        y = rng.normal(size=(1, 2, 6, 6))
        w = rng.normal(size=(3, 2, 3, 3))
        a, b = 1.7, -0.4
        lhs = ag.conv2d(a * x + b * y, w)
        rhs = a * ag.conv2d(x, w) + b * ag.conv2d(y, w)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-6)

    def test_channel_mismatch(self):
        x = np.zeros((1, 2, 4, 4))
        with pytest.raises(ShapeError, match="channel"):
            ag.conv2d(x, np.zeros((1, 3, 3, 3)))

    def test_nonpositive_output(self):
        """An empty plane has no output row, and an even kernel no centre tap."""
        with pytest.raises(ShapeError, match="output dim"):
            ag.conv2d(np.zeros((1, 1, 0, 2)), np.zeros((1, 1, 3, 3)))
        with pytest.raises(ShapeError, match="output dim"):
            ag.conv2d(np.zeros((1, 1, 2, 2)), np.zeros((1, 1, 2, 2)))

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(1, 3, 8, 8))
        w, b = rng.normal(size=(2, 3, 3, 3)), rng.normal(size=2)
        first = ag.conv2d(x, w, b)
        second = ag.conv2d(x, w, b)
        assert np.array_equal(first, second)


def test_no_public_callable_shares_an_autograd_name():
    """Each NCHW op is declared once, in autograd, whose ops return a plain
    array when nothing is taped; tensor keeps the shape checks, the
    weight layout and the file I/O."""

    def public(module):
        return {
            name for name, v in vars(module).items()
            if callable(v) and not name.startswith("_") and v.__module__ == module.__name__
        }

    assert public(T) and public(ag)
    assert not public(T) & public(ag)


class TestDepthwise:
    def test_identity(self):
        x = np.random.default_rng(0).normal(size=(1, 4, 5, 5))
        w = np.zeros((4, 1, 3, 3))
        w[:, 0, 1, 1] = 1.0
        np.testing.assert_array_equal(ag.conv2d_depthwise(x, w), x)

    def test_single_channel_reduces_to_conv2d(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 1, 5, 4))
        k = rng.normal(size=(1, 1, 3, 3))
        got = ag.conv2d_depthwise(x, k)
        want = ag.conv2d(x, k)
        np.testing.assert_allclose(got, want, rtol=1e-14)

    def test_matches_per_channel_conv2d(self):
        """Forward, dx and dw of each group equal a one-channel conv2d, at n=2."""
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 4, 6, 6))
        w = rng.normal(size=(4, 1, 3, 3))
        b = rng.normal(size=4)
        probe = rng.normal(size=(2, 4, 6, 6))
        xn, wn = ag.Node(x), ag.Node(w)
        got = ag.conv2d_depthwise(xn, wn, b)
        ag.backward(ag.sum_all(ag.mul(got, probe)))
        for c in range(4):
            xc, wc = ag.Node(x[:, c : c + 1]), ag.Node(w[c][None])
            want = ag.conv2d(xc, wc, b[c : c + 1])
            ag.backward(ag.sum_all(ag.mul(want, probe[:, c : c + 1])))
            np.testing.assert_allclose(got.data[:, c : c + 1], want.data, rtol=1e-12)
            np.testing.assert_allclose(xn.grad[:, c : c + 1], xc.grad, rtol=1e-12)
            np.testing.assert_allclose(wn.grad[c], wc.grad[0], rtol=1e-12)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError, match="channel"):
            ag.conv2d_depthwise(np.zeros((1, 2, 4, 4)), np.zeros((3, 1, 3, 3)))

    def test_rank_three_weights_rejected(self):
        """Depthwise weights are (c, 1, k, k), one input channel per group;
        the (c, k, k) layout is not accepted."""
        with pytest.raises(ShapeError, match=r"not \(2, 1, k, k\)"):
            ag.conv2d_depthwise(np.zeros((1, 2, 4, 4)), np.zeros((2, 3, 3)))


class TestConv1x1:
    def test_identity_matrix(self):
        x = np.random.default_rng(0).normal(size=(2, 3, 4, 4))
        w = np.eye(3).reshape(3, 3, 1, 1)
        np.testing.assert_array_equal(ag.conv1x1(x, w), x)

    def test_bias_only(self):
        x = np.zeros((1, 2, 3, 3))
        b = np.array([1.5, -2.0, 0.25])
        out = ag.conv1x1(x, np.zeros((3, 2, 1, 1)), b)
        for c, v in enumerate(b):
            np.testing.assert_array_equal(out[:, c], np.full((1, 3, 3), v))

    def test_matches_conv2d_exactly(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(2, 3, 4, 5))
        w, b = rng.normal(size=(4, 3, 1, 1)), rng.normal(size=4)
        np.testing.assert_array_equal(
            ag.conv1x1(x, w, b), ag.conv2d(x, w, b)
        )

    def test_rejects_wide_kernel(self):
        with pytest.raises(ShapeError, match="k=1"):
            ag.conv1x1(np.zeros((1, 1, 2, 2)), np.zeros((1, 1, 3, 3)))


class TestInterpNearest:
    def test_single_pixel(self):
        x = np.full((1, 1, 1, 1), 7.0)
        np.testing.assert_array_equal(ag.interp_nearest_x2(x), np.full((1, 1, 2, 2), 7.0))

    def test_definition(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        want = np.array(
            [[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]], dtype=np.float64
        )
        np.testing.assert_array_equal(ag.interp_nearest_x2(x)[0, 0], want)

    def test_round_trip(self):
        x = np.random.default_rng(0).normal(size=(2, 3, 4, 5))
        up = ag.interp_nearest_x2(x)
        np.testing.assert_array_equal(up[:, :, ::2, ::2], x)


class TestInterpBilinear:
    def test_constant(self):
        x = np.full((1, 2, 3, 3), 4.25)
        for ac in (False, True):
            np.testing.assert_allclose(
                ag.interp_bilinear_x2(x, ac), np.full((1, 2, 6, 6), 4.25), rtol=1e-12
            )

    def test_align_corners_closed_form(self):
        a, b = 2.0, 8.0
        x = np.array([a, b]).reshape(1, 1, 1, 2)
        out = ag.interp_bilinear_x2(x, align_corners=True)
        want = np.array([a, (2 * a + b) / 3, (a + 2 * b) / 3, b])
        np.testing.assert_allclose(out[0, 0, 0], want, rtol=1e-12)
        np.testing.assert_allclose(out[0, 0, 1], want, rtol=1e-12)

    def test_bounded_by_input(self):
        x = np.random.default_rng(1).normal(size=(1, 3, 5, 7))
        for ac in (False, True):
            out = ag.interp_bilinear_x2(x, ac)
            assert out.max() <= x.max() + 1e-12
            assert out.min() >= x.min() - 1e-12

    def test_preserves_dtype(self):
        x = np.zeros((1, 1, 2, 2), dtype=np.float32)
        assert ag.interp_bilinear_x2(x).dtype == np.float32


class TestMaxpool:
    def test_basic(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        np.testing.assert_array_equal(ag.maxpool2x2(x), np.full((1, 1, 1, 1), 4.0))

    def test_constant(self):
        x = np.full((1, 2, 4, 4), 3.5)
        np.testing.assert_array_equal(ag.maxpool2x2(x), np.full((1, 2, 2, 2), 3.5))

    def test_nn_then_pool_is_identity(self):
        x = np.random.default_rng(0).normal(size=(2, 3, 4, 5))
        np.testing.assert_array_equal(ag.maxpool2x2(ag.interp_nearest_x2(x)), x)

    def test_odd_dims_rejected(self):
        with pytest.raises(ShapeError, match="even"):
            ag.maxpool2x2(np.zeros((1, 1, 3, 4)))


class TestSoftmaxChannel:
    def test_uniform(self):
        x = np.full((1, 5, 2, 2), 3.0)
        np.testing.assert_allclose(ag.softmax_channel(x), np.full((1, 5, 2, 2), 0.2), rtol=1e-12)

    def test_saturation(self):
        x = np.zeros((1, 4, 1, 1))
        x[0, 2] = 1000.0
        out = ag.softmax_channel(x)
        want = np.zeros(4)
        want[2] = 1.0
        np.testing.assert_allclose(out[0, :, 0, 0], want, atol=1e-6)

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 6, 3, 4))
        shift = rng.normal(size=(2, 1, 3, 4))
        np.testing.assert_allclose(
            ag.softmax_channel(x), ag.softmax_channel(x + shift), atol=1e-12
        )

    def test_sums_and_range(self):
        x = np.random.default_rng(3).normal(size=(2, 7, 3, 3)) * 10
        out = ag.softmax_channel(x)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-6)
        assert (out > 0).all() and (out < 1).all()


class TestSigmoid:
    def test_zero(self):
        assert ag.sigmoid(np.zeros((1, 1, 1, 1)))[0, 0, 0, 0] == 0.5

    def test_symmetry(self):
        x = np.random.default_rng(0).normal(size=(1, 2, 3, 3)) * 5
        np.testing.assert_allclose(ag.sigmoid(x) + ag.sigmoid(-x), 1.0, rtol=1e-12)

    def test_large_negative_no_overflow(self):
        with np.errstate(over="raise"):
            out = ag.sigmoid(np.full((1, 1, 1, 2), -1e4))
        np.testing.assert_allclose(out, 0.0, atol=1e-12)
        assert np.isfinite(out).all()


class TestPixelShuffle:
    def test_definition(self):
        x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 4, 1, 1)
        out = ag.pixel_shuffle_x2(x)
        np.testing.assert_array_equal(out[0, 0], np.array([[1.0, 2.0], [3.0, 4.0]]))

    def test_round_trip(self):
        x = np.random.default_rng(0).normal(size=(2, 8, 3, 4))
        np.testing.assert_array_equal(ag.pixel_unshuffle_x2(ag.pixel_shuffle_x2(x)), x)

    def test_multiset_preserved(self):
        x = np.random.default_rng(1).normal(size=(1, 4, 2, 3))
        out = ag.pixel_shuffle_x2(x)
        np.testing.assert_array_equal(np.sort(out.ravel()), np.sort(x.ravel()))

    def test_channel_multiple_of_four(self):
        with pytest.raises(ShapeError, match="divisible by 4"):
            ag.pixel_shuffle_x2(np.zeros((1, 6, 2, 2)))


class TestFten:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_round_trip_bit_exact(self, tmp_path, dtype):
        x = np.random.default_rng(0).normal(size=(2, 3, 4, 5)).astype(dtype)
        path = tmp_path / "t.ften"
        T.write_ften(path, x)
        back = T.read_ften(path)
        assert back.dtype == dtype
        assert np.array_equal(back.view(np.uint8), x.view(np.uint8))

    def test_header_layout(self, tmp_path):
        x = np.zeros((1, 2, 3, 4), dtype=np.float32)
        path = tmp_path / "t.ften"
        T.write_ften(path, x)
        raw = path.read_bytes()
        assert raw[:4] == b"FTEN"
        assert raw[4] == 1 and raw[5] == 1 and raw[6:8] == b"\x00\x00"
        assert len(raw) == 24 + 24 * 4

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ften"
        path.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(FormatError, match="magic"):
            T.read_ften(path)

    def test_rejects_bad_version(self, tmp_path):
        x = np.zeros((1, 1, 1, 1), dtype=np.float32)
        path = tmp_path / "v.ften"
        T.write_ften(path, x)
        raw = bytearray(path.read_bytes())
        raw[4] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version"):
            T.read_ften(path)

    def test_rejects_truncated(self, tmp_path):
        x = np.zeros((1, 1, 2, 2), dtype=np.float64)
        path = tmp_path / "t.ften"
        T.write_ften(path, x)
        raw = path.read_bytes()
        path.write_bytes(raw[:-3])
        with pytest.raises(FormatError, match="size mismatch"):
            T.read_ften(path)

    def test_rejects_trailing_junk(self, tmp_path):
        x = np.zeros((1, 1, 1, 1), dtype=np.float32)
        path = tmp_path / "t.ften"
        T.write_ften(path, x)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(FormatError, match="size mismatch"):
            T.read_ften(path)

    def test_header_byte_flips_and_truncations_load_or_raise_format_error(self, tmp_path):
        """0x00, 0xFF and a high-bit flip at every header byte, and every
        truncation; reserved-byte flips and truncations must raise.  The
        images are parsed in memory by ``ften_from_bytes``, whose header
        check ``read_ften`` shares; one flip and one truncation go through
        a file as well."""
        x = np.random.default_rng(2).normal(size=(1, 2, 2, 3)).astype(np.float32)
        path = tmp_path / "t.ften"
        T.write_ften(path, x)
        raw = path.read_bytes()
        outcomes = {"loaded": 0, "rejected": 0}
        for i in range(24):
            for value in (0x00, 0xFF, raw[i] ^ 0x80):
                blob = bytearray(raw)
                blob[i] = value
                try:
                    T.ften_from_bytes(bytes(blob))
                    outcomes["loaded"] += 1
                    assert i not in (6, 7) or value == raw[i], (i, value)
                except FormatError:
                    outcomes["rejected"] += 1
        assert outcomes["loaded"] and outcomes["rejected"]
        for length in range(len(raw)):
            with pytest.raises(FormatError):
                T.ften_from_bytes(raw[:length])
        for image in (raw[:6] + b"\x00\xff" + raw[8:], raw[:-1]):
            path.write_bytes(image)
            with pytest.raises(FormatError):
                T.read_ften(path)

    def test_rejects_nonzero_reserved_bytes(self, tmp_path):
        path = tmp_path / "t.ften"
        T.write_ften(path, np.zeros((1, 1, 2, 2), dtype=np.float32))
        raw = bytearray(path.read_bytes())
        raw[6:8] = b"\x7f\xff"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="reserved"):
            T.read_ften(path)

    def test_rejects_bad_dtype_code(self, tmp_path):
        x = np.zeros((1, 1, 1, 1), dtype=np.float32)
        path = tmp_path / "t.ften"
        T.write_ften(path, x)
        raw = bytearray(path.read_bytes())
        raw[5] = 7
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="dtype"):
            T.read_ften(path)


class TestFtenStreaming:
    """FTEN files are written from and read into the array's own memory."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda x: x,
            lambda x: x.astype(np.float64),
            lambda x: x.transpose(0, 1, 3, 2),  # not contiguous
        ],
        ids=["f32", "f64", "transposed"],
    )
    def test_written_bytes_equal_ften_bytes(self, tmp_path, make):
        x = make(np.random.default_rng(3).normal(size=(2, 3, 4, 5)).astype(np.float32))
        path = tmp_path / "t.ften"
        T.write_ften(path, x)
        assert path.read_bytes() == ften_bytes(x)
        assert T.ften_size(x) == len(ften_bytes(x))
        np.testing.assert_array_equal(T.read_ften(path), x)

    def test_read_and_write_peak_at_the_payload(self, tmp_path):
        """Neither side holds a second copy of a 1 MiB payload."""
        x = np.random.default_rng(4).normal(size=(1, 64, 64, 64)).astype(np.float32)
        path = tmp_path / "t.ften"
        peaks = {}
        for side, call in (("write", lambda: T.write_ften(path, x)), ("read", lambda: T.read_ften(path))):
            tracemalloc.start()
            try:
                call()
                peaks[side] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        for side, peak in peaks.items():
            assert peak <= x.nbytes + 65536, f"{side} peaked at {peak / x.nbytes:.2f}x the payload"

    def test_a_pipe_is_read_whole(self, tmp_path):
        """A stream has no size to check the header against up front."""
        x = np.arange(24, dtype=np.float32).reshape(1, 2, 3, 4)
        fifo = tmp_path / "t.fifo"
        os.mkfifo(fifo)

        def write():
            with open(fifo, "wb") as f:
                f.write(ften_bytes(x))

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        try:
            got = T.read_ften(fifo)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        np.testing.assert_array_equal(got, x)

    @pytest.mark.parametrize("delta", [-1, 1, -4096])
    def test_file_size_other_than_the_header_says_raises(self, tmp_path, delta):
        x = np.zeros((1, 2, 32, 32), dtype=np.float32)
        path = tmp_path / "t.ften"
        T.write_ften(path, x)
        raw = path.read_bytes()
        path.write_bytes(raw[:delta] if delta < 0 else raw + bytes(delta))
        with pytest.raises(FormatError, match="size mismatch"):
            T.read_ften(path)


class TestPgm:
    def test_header_and_scaling(self, tmp_path):
        x = np.array([[0.0, 0.5], [0.75, 1.0]]).reshape(1, 1, 2, 2)
        path = tmp_path / "img.pgm"
        T.write_pgm(path, x)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n2 2\n255\n")
        pixels = np.frombuffer(raw.split(b"255\n", 1)[1], dtype=np.uint8)
        np.testing.assert_array_equal(pixels, [0, 128, 191, 255])

    def test_constant_tensor(self, tmp_path):
        x = np.full((1, 1, 2, 2), 3.0)
        path = tmp_path / "c.pgm"
        T.write_pgm(path, x)
        pixels = np.frombuffer(path.read_bytes().split(b"255\n", 1)[1], dtype=np.uint8)
        np.testing.assert_array_equal(pixels, [0, 0, 0, 0])

    def test_rejects_multichannel(self, tmp_path):
        with pytest.raises(ShapeError, match="1x1xHxW"):
            T.write_pgm(tmp_path / "x.pgm", np.zeros((1, 2, 2, 2)))


class TestOpenOutput:
    """Every library write rewrites a file in place and leaves it as
    ``open(path, "wb")`` would: no stale tail, same inode, links kept."""

    def test_smaller_tensor_over_a_larger_file(self, tmp_path):
        path = tmp_path / "t.ften"
        T.write_ften(path, np.ones((1, 4, 16, 16), np.float32))
        inode = path.stat().st_ino
        small = np.arange(6, dtype=np.float64).reshape(1, 1, 2, 3)
        T.write_ften(path, small)
        assert path.read_bytes() == ften_bytes(small)
        np.testing.assert_array_equal(T.read_ften(path), small)
        assert path.stat().st_ino == inode

    def test_hard_link_and_mode_kept(self, tmp_path):
        path, twin = tmp_path / "a.pgm", tmp_path / "b.pgm"
        T.write_pgm(path, np.zeros((1, 1, 8, 8)))
        os.link(path, twin)
        os.chmod(path, 0o640)
        T.write_pgm(path, np.eye(3).reshape(1, 1, 3, 3))
        assert twin.read_bytes() == path.read_bytes() == b"P5\n3 3\n255\n" + bytes(
            [255, 0, 0, 0, 255, 0, 0, 0, 255]
        )
        assert path.stat().st_mode & 0o777 == 0o640

    def test_symlink_is_written_through(self, tmp_path):
        target, link = tmp_path / "target.ften", tmp_path / "link.ften"
        T.write_ften(target, np.ones((1, 2, 8, 8), np.float32))
        link.symlink_to(target)
        x = np.full((1, 1, 1, 1), 2.0)
        T.write_ften(link, x)
        assert link.is_symlink()
        assert target.read_bytes() == ften_bytes(x)

    def test_devices_and_pipes_are_written_as_they_are(self, tmp_path):
        """Neither can be cut to size: ftruncate raises EINVAL on both."""
        x = np.ones((1, 1, 2, 2), np.float32)
        T.write_ften(os.devnull, x)
        fifo = tmp_path / "t.fifo"
        os.mkfifo(fifo)
        got = []

        def read():
            with open(fifo, "rb") as f:
                got.append(f.read())

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        try:
            T.write_ften(fifo, x)
        finally:
            reader.join(timeout=10)
        assert not reader.is_alive()
        assert got == [ften_bytes(x)]

    def test_cut_only_after_the_last_byte(self, tmp_path, monkeypatch):
        """Cutting before the buffer is flushed would cut a small file to 0
        bytes, which makes ext4 flush it to disk on close."""
        path = tmp_path / "t.pgm"
        path.write_bytes(b"x" * 100_000)
        cuts = []
        real_ftruncate = os.ftruncate
        monkeypatch.setattr(os, "ftruncate", lambda fd, n: (cuts.append(n), real_ftruncate(fd, n)))
        T.write_pgm(path, np.zeros((1, 1, 2, 2)))
        assert cuts == [len(b"P5\n2 2\n255\n") + 4]

    @pytest.mark.parametrize(
        "mode,kw,chunk",
        [("wb", {}, b"\x00\x01" * 5000), ("w", {"encoding": "utf-8", "newline": ""}, "hé\n")],
        ids=["binary", "text"],
    )
    def test_exception_leaves_the_bytes_written_before_it(self, tmp_path, mode, kw, chunk):
        path = tmp_path / "out"
        path.write_bytes(b"x" * 100_000)
        with pytest.raises(KeyError):
            with T.open_output(path, mode, **kw) as f:
                f.write(chunk)
                raise KeyError("stop")
        assert path.read_bytes() == (chunk if mode == "wb" else chunk.encode("utf-8"))


class TestPadSpec:
    def test_negative_rejected(self):
        with pytest.raises(ShapeError, match="negative"):
            PadSpec(-1, 0, 0, 0)

    def test_same(self):
        assert PadSpec.same(2) == PadSpec(2, 2, 2, 2)

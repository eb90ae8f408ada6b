import re

import numpy as np
import pytest

from fadeup import autograd as ag
from fadeup import kernelgen as kg
from fadeup import tensor as T
from fadeup.rng import ShuffledLcg
from fadeup.tensor import ConvWeights, DepthwiseWeights, PadSpec, ShapeError


def rel_dev(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))))


def random_params(seed, channels, compressed, kernel_size=5, dtype=np.float64):
    p = kg.make_semishift_params(ShuffledLcg(seed), channels, compressed, kernel_size, dtype)
    # non-zero biases exercise the bias bookkeeping of the fast forms
    rng = np.random.default_rng(seed + 1)
    p.compressor_de.bias = rng.normal(size=compressed).astype(dtype)
    p.generator.bias = rng.normal(size=kernel_size * kernel_size).astype(dtype)
    return p


def random_lite_params(seed, channels, kernel_size=5, dtype=np.float64):
    p = kg.make_semishift_lite_params(ShuffledLcg(seed), channels, kernel_size, dtype)
    rng = np.random.default_rng(seed + 1)
    k2 = kernel_size * kernel_size
    p.compressor_de.bias = rng.normal(size=k2).astype(dtype)
    p.generator.bias = rng.normal(size=k2).astype(dtype)
    return p


def random_pair(seed, n, c, h, w, dtype=np.float64):
    rng = np.random.default_rng(seed)
    x_en = rng.normal(size=(n, c, 2 * h, 2 * w)).astype(dtype)
    x_de = rng.normal(size=(n, c, h, w)).astype(dtype)
    return x_en, x_de


class TestSemiShiftDirect:
    def test_bias_only(self):
        c, d, k = 2, 3, 5
        b = np.arange(k * k, dtype=np.float64)
        p = kg.SemiShiftParams(
            ConvWeights(np.zeros((d, c, 1, 1))),
            ConvWeights(np.zeros((d, c, 1, 1)), np.zeros(d)),
            ConvWeights(np.zeros((k * k, d, 3, 3)), b),
        )
        x_en, x_de = random_pair(0, 1, c, 2, 3)
        out = kg.semishift_direct(x_en, x_de, p).data
        for m in range(k * k):
            np.testing.assert_array_equal(out[0, m], np.full((4, 6), b[m]))

    def test_zero_encoder_reduces_to_decoder_branch(self):
        p = random_params(1, 3, 4)
        x_en, x_de = random_pair(2, 1, 3, 2, 2)
        got = kg.semishift_direct(np.zeros_like(x_en), x_de, p).data
        de_c = ag.conv1x1(x_de, p.compressor_de.weights, p.compressor_de.bias)
        want = T.interp_nearest_x2(
            ag.conv2d(de_c, p.generator.weights, stride=1, pad=PadSpec.same(1))
        ) + p.generator.bias[None, :, None, None]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_rejects_tracked_inputs(self):
        p = random_params(0, 2, 2)
        x_en, x_de = random_pair(0, 1, 2, 1, 1)
        with pytest.raises(TypeError, match="oracle"):
            kg.semishift_direct(ag.Node(x_en), x_de, p)

    def test_rejects_bad_resolution(self):
        p = random_params(0, 2, 2)
        with pytest.raises(ShapeError, match="twice"):
            kg.semishift_direct(np.zeros((1, 2, 3, 4)), np.zeros((1, 2, 2, 2)), p)


class TestEquivalenceTriangle:
    @pytest.mark.parametrize("case", range(30))
    def test_triangle_f64(self, case):
        rng = np.random.default_rng(case)
        c = int(rng.integers(1, 9))
        h = int(rng.integers(1, 9))
        w = int(rng.integers(1, 9))
        n = int(rng.integers(1, 3))
        d = int(rng.integers(1, 9))
        p = random_params(case, c, d)
        x_en, x_de = random_pair(case + 1000, n, c, h, w)
        ref = kg.semishift_direct(x_en, x_de, p).data
        for form in (kg.semishift_h2l, kg.semishift_l2h):
            assert rel_dev(ref, form(x_en, x_de, p).data) <= 1e-10

    def test_triangle_f32(self):
        for case in range(10):
            rng = np.random.default_rng(case)
            c, h, w = (int(rng.integers(1, 9)) for _ in range(3))
            p = random_params(case, c, 4, dtype=np.float32)
            x_en, x_de = random_pair(case, 1, c, h, w, dtype=np.float32)
            ref = kg.semishift_direct(x_en, x_de, p).data
            assert rel_dev(ref, kg.semishift_h2l(x_en, x_de, p).data) <= 1e-5
            assert rel_dev(ref, kg.semishift_l2h(x_en, x_de, p).data) <= 1e-5

    def test_edge_case_1x1_decoder(self):
        p = random_params(3, 2, 3)
        x_en, x_de = random_pair(4, 2, 2, 1, 1)
        ref = kg.semishift_direct(x_en, x_de, p).data
        assert rel_dev(ref, kg.semishift_h2l(x_en, x_de, p).data) <= 1e-10
        assert rel_dev(ref, kg.semishift_l2h(x_en, x_de, p).data) <= 1e-10

    @pytest.mark.parametrize("case", range(30))
    def test_lite_triangle_f64(self, case):
        rng = np.random.default_rng(case)
        c, h, w = (int(rng.integers(1, 9)) for _ in range(3))
        n = int(rng.integers(1, 3))
        k = int(rng.choice([3, 5]))
        p = random_lite_params(case, c, kernel_size=k)
        x_en, x_de = random_pair(case + 1000, n, c, h, w)
        ref = kg.semishift_direct(x_en, x_de, p).data
        for form in (kg.semishift_h2l, kg.semishift_l2h):
            assert rel_dev(ref, form(x_en, x_de, p).data) <= 1e-10

    def test_lite_triangle_f32(self):
        for case in range(10):
            rng = np.random.default_rng(case)
            c, h, w = (int(rng.integers(1, 9)) for _ in range(3))
            p = random_lite_params(case, c, dtype=np.float32)
            x_en, x_de = random_pair(case, 1, c, h, w, dtype=np.float32)
            ref = kg.semishift_direct(x_en, x_de, p).data
            assert rel_dev(ref, kg.semishift_h2l(x_en, x_de, p).data) <= 1e-5
            assert rel_dev(ref, kg.semishift_l2h(x_en, x_de, p).data) <= 1e-5

    def test_lite_edge_case_1x1_decoder(self):
        p = random_lite_params(3, 2)
        x_en, x_de = random_pair(4, 2, 2, 1, 1)
        ref = kg.semishift_direct(x_en, x_de, p).data
        assert rel_dev(ref, kg.semishift_h2l(x_en, x_de, p).data) <= 1e-10
        assert rel_dev(ref, kg.semishift_l2h(x_en, x_de, p).data) <= 1e-10


class TestSemiShiftStructure:
    def test_linearity_split(self):
        """Joint kernels = encoder-only + decoder-only - bias-only map."""
        p = random_params(5, 3, 4)
        x_en, x_de = random_pair(6, 1, 3, 3, 2)
        joint = kg.semishift_direct(x_en, x_de, p).data

        p_no_a = kg.SemiShiftParams(
            p.compressor_en,
            ConvWeights(p.compressor_de.weights, np.zeros_like(p.compressor_de.bias)),
            p.generator,
        )
        en_only = kg.semishift_direct(x_en, np.zeros_like(x_de), p_no_a).data
        de_only = kg.semishift_direct(np.zeros_like(x_en), x_de, p).data
        bias_map = p.generator.bias[None, :, None, None]
        np.testing.assert_allclose(joint, en_only + de_only - bias_map, rtol=1e-10, atol=1e-12)

    def test_decoder_value_sharing_bitwise(self):
        """With encoder weights zeroed, the four phases of every 2x2 output
        block hold bit-identical values in all three forms."""
        p = random_params(7, 2, 3)
        p.compressor_en.weights = np.zeros_like(p.compressor_en.weights)
        x_en, x_de = random_pair(8, 1, 2, 3, 4)
        for form in (kg.semishift_direct, kg.semishift_h2l, kg.semishift_l2h):
            out = np.asarray(ag.value_of(form(x_en, x_de, p).data))
            for r in (0, 1):
                for s in (0, 1):
                    np.testing.assert_array_equal(out[:, :, r::2, s::2], out[:, :, ::2, ::2])

    def test_h2l_single_decoder_position_shares_value(self):
        p = random_params(9, 2, 3)
        x_en, x_de = random_pair(10, 1, 2, 1, 1)
        out = kg.semishift_h2l(x_en, x_de, p).data
        de_c = ag.conv1x1(x_de, p.compressor_de.weights, p.compressor_de.bias)
        de_branch = ag.conv2d(de_c, p.generator.weights, stride=1, pad=PadSpec.same(1))
        # subtracting the shared decoder value leaves pure encoder terms
        residual = out - T.interp_nearest_x2(de_branch)
        en_c = ag.conv1x1(x_en, p.compressor_en.weights)
        en_branch = ag.conv2d(
            en_c, p.generator.weights, p.generator.bias, stride=1, pad=PadSpec.same(1)
        )
        np.testing.assert_allclose(residual, en_branch, rtol=1e-10, atol=1e-12)

    def test_batch_permutation_contract(self):
        p = random_params(11, 2, 3)
        x_en, x_de = random_pair(12, 3, 2, 2, 2)
        perm = [2, 0, 1]
        for form in (kg.semishift_direct, kg.semishift_h2l, kg.semishift_l2h):
            out = np.asarray(ag.value_of(form(x_en, x_de, p).data))
            out_p = np.asarray(ag.value_of(form(x_en[perm], x_de[perm], p).data))
            np.testing.assert_array_equal(out[perm], out_p)

    def test_l2h_zero_decoder_is_pure_encoder_conv(self):
        p = random_params(13, 2, 3)
        p.compressor_de.bias = np.zeros_like(p.compressor_de.bias)
        x_en, x_de = random_pair(14, 1, 2, 2, 2)
        out = kg.semishift_l2h(x_en, np.zeros_like(x_de), p).data
        en_c = ag.conv1x1(x_en, p.compressor_en.weights)
        want = ag.conv2d(
            en_c, p.generator.weights, p.generator.bias, stride=1, pad=PadSpec.same(1)
        )
        np.testing.assert_allclose(out, want, rtol=1e-12, atol=1e-14)

    def test_output_shape(self):
        p = random_params(15, 3, 4)
        x_en, x_de = random_pair(16, 2, 3, 3, 5)
        out = kg.semishift_l2h(x_en, x_de, p)
        assert out.data.shape == (2, 25, 6, 10)
        assert not out.normalized


class TestSemiShiftLite:
    def test_lite_is_the_l2h_form(self):
        assert kg.semishift_lite is kg.semishift_l2h is kg.SEMISHIFT_FORMS["l2h"]

    def test_params_carry_a_depthwise_generator(self):
        p = kg.make_semishift_lite_params(ShuffledLcg(0), 3, 5, np.float32)
        assert isinstance(p, kg.SemiShiftParams)
        assert isinstance(p.generator, DepthwiseWeights)
        assert p.kernel_size == 5

    def test_parameter_count_formula(self):
        c, k = 256, 5
        p = kg.make_semishift_lite_params(ShuffledLcg(0), c, k, np.float32)
        counted = (
            p.compressor_en.weights.size
            + p.compressor_de.weights.size
            + p.generator.weights.size
        )
        assert counted == 2 * c * k * k + 9 * k * k == 13025

    def test_identity_generator(self):
        """Center-one depthwise kernels: map = compressed en + NN(compressed de)."""
        c, k = 3, 3
        k2 = k * k
        rngp = ShuffledLcg(1)
        p = kg.make_semishift_lite_params(rngp, c, k, np.float64)
        ident = np.zeros((k2, 3, 3))
        ident[:, 1, 1] = 1.0
        p.generator = DepthwiseWeights(ident, np.zeros(k2))
        x_en, x_de = random_pair(2, 1, c, 2, 3)
        out = kg.semishift_lite(x_en, x_de, p).data
        en_c = ag.conv1x1(x_en, p.compressor_en.weights)
        de_c = ag.conv1x1(x_de, p.compressor_de.weights, p.compressor_de.bias)
        np.testing.assert_allclose(out, en_c + T.interp_nearest_x2(de_c), rtol=1e-12)

    def test_matches_depthwise_window_oracle(self):
        c, k = 2, 3
        k2 = k * k
        p = kg.make_semishift_lite_params(ShuffledLcg(3), c, k, np.float64)
        rng = np.random.default_rng(4)
        p.compressor_de.bias = rng.normal(size=k2)
        p.generator.bias = rng.normal(size=k2)
        x_en, x_de = random_pair(5, 1, c, 2, 2)
        got = kg.semishift_lite(x_en, x_de, p).data

        en_c = ag.conv1x1(x_en, p.compressor_en.weights)
        de_c = ag.conv1x1(x_de, p.compressor_de.weights, p.compressor_de.bias)
        gw, gb = p.generator.weights, p.generator.bias
        eh, ew = en_c.shape[2], en_c.shape[3]
        dh, dw = de_c.shape[2], de_c.shape[3]
        want = np.zeros_like(got)
        for m in range(k2):
            for i in range(eh):
                for j in range(ew):
                    acc = gb[m]
                    for dy in (-1, 0, 1):
                        for dx in (-1, 0, 1):
                            if 0 <= i + dy < eh and 0 <= j + dx < ew:
                                acc += gw[m, dy + 1, dx + 1] * en_c[0, m, i + dy, j + dx]
                            yy, xx = i // 2 + dy, j // 2 + dx
                            if 0 <= yy < dh and 0 <= xx < dw:
                                acc += gw[m, dy + 1, dx + 1] * de_c[0, m, yy, xx]
                    want[0, m, i, j] = acc
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


class TestNaive:
    def test_shape(self):
        p = kg.make_naive_params(ShuffledLcg(0), 3, 4, 5, np.float64)
        x_en, x_de = random_pair(1, 2, 3, 2, 3)
        out = kg.naive_kernelgen(x_en, x_de, p)
        assert out.data.shape == (2, 25, 4, 6)

    def test_differs_from_semishift_with_matched_params(self):
        """Same algebraic weights, different window correspondence: the naive
        pipeline is NOT the semi-shift operator."""
        c, d = 3, 4
        p = random_params(2, c, d)
        naive = kg.NaiveParams(
            ConvWeights(
                np.concatenate(
                    [p.compressor_en.weights, p.compressor_de.weights], axis=1
                ),
                p.compressor_de.bias,
            ),
            p.generator,
        )
        x_en, x_de = random_pair(3, 1, c, 4, 4)
        a = kg.semishift_direct(x_en, x_de, p).data
        b = kg.naive_kernelgen(x_en, x_de, naive).data
        assert float(np.max(np.abs(a - b))) > 0.01

    def test_zeroed_decoder_columns_equal_encoder_only(self):
        c, d, k = 2, 3, 5
        rngp = ShuffledLcg(4)
        enc = kg.make_encoder_only_params(rngp, c, d, k, np.float64)
        naive = kg.NaiveParams(
            ConvWeights(
                np.concatenate(
                    [enc.compressor.weights, np.zeros((d, c, 1, 1))], axis=1
                ),
                np.zeros(d),
            ),
            enc.generator,
        )
        x_en, x_de = random_pair(5, 1, c, 2, 2)
        got = kg.naive_kernelgen(x_en, x_de, naive).data
        want = kg.encoder_only_kernelgen(x_en, enc).data
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)


class TestCarafe:
    def test_shape(self):
        p = kg.make_carafe_params(ShuffledLcg(0), 3, 4, 5, np.float64)
        x_de = np.random.default_rng(1).normal(size=(2, 3, 3, 4))
        out = kg.carafe_kernelgen(x_de, p)
        assert out.data.shape == (2, 25, 6, 8)

    def test_constant_input_constant_phases_interior(self):
        p = kg.make_carafe_params(ShuffledLcg(2), 2, 3, 3, np.float64)
        x_de = np.full((1, 2, 5, 5), 0.7)
        out = kg.carafe_kernelgen(x_de, p).data
        interior = out[:, :, 2:-2, 2:-2]
        for r in (0, 1):
            for s in (0, 1):
                phase = interior[:, :, r::2, s::2]
                np.testing.assert_allclose(
                    phase, phase[:, :, :1, :1] * np.ones_like(phase), rtol=1e-12
                )


class TestEncoderOnly:
    def test_equals_direct_with_decoder_zeroed(self):
        c, d = 2, 3
        p = random_params(6, c, d)
        p_zero = kg.SemiShiftParams(
            p.compressor_en,
            ConvWeights(np.zeros_like(p.compressor_de.weights), np.zeros(d)),
            p.generator,
        )
        enc = kg.EncoderOnlyParams(p.compressor_en, p.generator)
        x_en, x_de = random_pair(7, 1, c, 2, 3)
        want = kg.semishift_direct(x_en, np.zeros_like(x_de), p_zero).data
        got = kg.encoder_only_kernelgen(x_en, enc).data
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_zero_input_gives_bias(self):
        p = kg.make_encoder_only_params(ShuffledLcg(8), 2, 3, 5, np.float64)
        rng = np.random.default_rng(9)
        p.generator.bias = rng.normal(size=25)
        out = kg.encoder_only_kernelgen(np.zeros((1, 2, 4, 4)), p).data
        np.testing.assert_allclose(
            out, np.broadcast_to(p.generator.bias[None, :, None, None], out.shape),
            rtol=1e-12,
        )


class TestNormalize:
    def test_all_zero_gives_uniform(self):
        kmap = kg.KernelMap(np.zeros((1, 25, 2, 2)), 5)
        out = kg.normalize_kernels(kmap)
        assert out.normalized
        np.testing.assert_allclose(out.data, 1.0 / 25.0, rtol=1e-12)

    def test_sums_to_one(self):
        kmap = kg.KernelMap(np.random.default_rng(0).normal(size=(2, 9, 4, 4)), 3)
        out = kg.normalize_kernels(kmap).data
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-6)

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        raw = rng.normal(size=(1, 9, 2, 2))
        shifted = raw + rng.normal(size=(1, 1, 2, 2))
        a = kg.normalize_kernels(kg.KernelMap(raw, 3)).data
        b = kg.normalize_kernels(kg.KernelMap(shifted, 3)).data
        np.testing.assert_allclose(a, b, atol=1e-12)


def _conv(o, i, k, bias=True):
    return ConvWeights(np.zeros((o, i, k, k)), np.zeros(o) if bias else None)


def _dw(c, k, bias=True):
    return DepthwiseWeights(np.zeros((c, k, k)), np.zeros(c) if bias else None)


# C=2 input channels, d=3 compressed, K=5: one invalid construction per rule
_INVALID_PARAMS = [
    pytest.param(lambda: kg.SemiShiftParams(_conv(3, 2, 3, False), _conv(3, 2, 1), _conv(25, 3, 3)),
                 "compressors must be 1x1", id="semishift-compressor-1x1"),
    pytest.param(lambda: kg.SemiShiftParams(_conv(3, 2, 1, False), _conv(3, 2, 1, False),
                                            _conv(25, 3, 3)),
                 "decoder compressor carries the affine bias", id="semishift-decoder-bias"),
    pytest.param(lambda: kg.SemiShiftParams(_conv(3, 2, 1, False), _conv(3, 2, 1), _conv(25, 3, 5)),
                 "generator window is fixed at 3x3", id="semishift-generator-3x3"),
    pytest.param(lambda: kg.SemiShiftParams(_conv(3, 2, 1, False), _conv(3, 2, 1),
                                            _conv(25, 3, 3, False)),
                 "generator bias is required", id="semishift-generator-bias"),
    pytest.param(lambda: kg.SemiShiftParams(_conv(3, 2, 1, False), _conv(3, 2, 1), _conv(25, 4, 3)),
                 "compressor/generator channel mismatch", id="semishift-generator-channels"),
    pytest.param(lambda: kg.SemiShiftParams(_conv(3, 2, 1, False), _conv(4, 2, 1), _conv(25, 3, 3)),
                 "compressors must agree", id="semishift-compressors-agree"),
    pytest.param(lambda: kg.SemiShiftParams(_conv(25, 2, 1, False), _conv(25, 2, 3), _dw(25, 3)),
                 "compressors must be 1x1", id="lite-compressor-1x1"),
    pytest.param(lambda: kg.SemiShiftParams(_conv(25, 2, 1), _conv(25, 2, 1), _dw(25, 3)),
                 "encoder compressor must be bias-free", id="lite-encoder-bias-free"),
    pytest.param(lambda: kg.SemiShiftParams(_conv(25, 2, 1, False), _conv(25, 2, 1, False),
                                            _dw(25, 3)),
                 "decoder compressor carries the affine bias", id="lite-decoder-bias"),
    pytest.param(lambda: kg.SemiShiftParams(_conv(25, 2, 1, False), _conv(25, 2, 1), _dw(25, 5)),
                 "generator window is fixed at 3x3", id="lite-generator-3x3"),
    pytest.param(lambda: kg.SemiShiftParams(_conv(25, 2, 1, False), _conv(25, 2, 1),
                                            _dw(25, 3, False)),
                 "generator bias is required", id="lite-generator-bias"),
    pytest.param(lambda: kg.SemiShiftParams(_conv(25, 2, 1, False), _conv(25, 2, 1), _dw(9, 3)),
                 "depthwise generator must cover K^2 channels", id="lite-generator-channels"),
    pytest.param(lambda: kg.NaiveParams(_conv(3, 4, 3), _conv(25, 3, 3)),
                 "naive compressor must be 1x1", id="naive-compressor-1x1"),
    pytest.param(lambda: kg.NaiveParams(_conv(3, 4, 1), _conv(25, 3, 1)),
                 "generator window is fixed at 3x3", id="naive-generator-3x3"),
    pytest.param(lambda: kg.CarafeParams(_conv(3, 2, 3, False), _conv(100, 3, 3)),
                 "compressor must be 1x1", id="carafe-compressor-1x1"),
    pytest.param(lambda: kg.CarafeParams(_conv(3, 2, 1), _conv(100, 3, 3)),
                 "compressor is bias-free", id="carafe-compressor-bias-free"),
    pytest.param(lambda: kg.CarafeParams(_conv(3, 2, 1, False), _conv(100, 3, 5)),
                 "content encoder window is fixed at 3x3", id="carafe-encoder-3x3"),
    pytest.param(lambda: kg.CarafeParams(_conv(3, 2, 1, False), _conv(25, 3, 3)),
                 "content encoder must emit 4*K^2 channels", id="carafe-encoder-4k2"),
    pytest.param(lambda: kg.EncoderOnlyParams(_conv(3, 2, 3, False), _conv(25, 3, 3)),
                 "compressor must be 1x1", id="encoder-only-compressor-1x1"),
    pytest.param(lambda: kg.EncoderOnlyParams(_conv(3, 2, 1), _conv(25, 3, 3)),
                 "encoder compressor must be bias-free", id="encoder-only-compressor-bias-free"),
    pytest.param(lambda: kg.EncoderOnlyParams(_conv(3, 2, 1, False), _conv(25, 3, 5)),
                 "generator window is fixed at 3x3", id="encoder-only-generator-3x3"),
]


class TestParamValidation:
    @pytest.mark.parametrize("build,message", _INVALID_PARAMS)
    def test_invalid_construction(self, build, message):
        with pytest.raises(ShapeError, match=re.escape(message)):
            build()

    def test_encoder_compressor_must_be_bias_free(self):
        d, c, k2 = 3, 2, 25
        with pytest.raises(ShapeError, match="bias-free"):
            kg.SemiShiftParams(
                ConvWeights(np.zeros((d, c, 1, 1)), np.zeros(d)),
                ConvWeights(np.zeros((d, c, 1, 1)), np.zeros(d)),
                ConvWeights(np.zeros((k2, d, 3, 3)), np.zeros(k2)),
            )

    def test_generator_out_channels_square(self):
        with pytest.raises(ShapeError, match="squared"):
            kg.SemiShiftParams(
                ConvWeights(np.zeros((3, 2, 1, 1))),
                ConvWeights(np.zeros((3, 2, 1, 1)), np.zeros(3)),
                ConvWeights(np.zeros((24, 3, 3, 3)), np.zeros(24)),
            )

    def test_kernel_map_channels(self):
        with pytest.raises(ShapeError, match="channels"):
            kg.KernelMap(np.zeros((1, 24, 2, 2)), 5)

    @pytest.mark.parametrize("k", [0, 4])
    def test_kernel_map_size_odd(self, k):
        with pytest.raises(ShapeError, match="odd"):
            kg.KernelMap(np.zeros((1, k * k, 2, 2)), k)


class TestSeededInit:
    def test_same_seed_identical(self):
        a = kg.make_semishift_params(ShuffledLcg(42), 3, 4, 5, np.float32)
        b = kg.make_semishift_params(ShuffledLcg(42), 3, 4, 5, np.float32)
        np.testing.assert_array_equal(a.compressor_en.weights, b.compressor_en.weights)
        np.testing.assert_array_equal(a.generator.weights, b.generator.weights)

    def test_bounds_follow_fan_in(self):
        p = kg.make_semishift_params(ShuffledLcg(0), 8, 16, 5, np.float64)
        bound = np.sqrt(6.0 / 8.0)
        w = p.compressor_en.weights
        assert np.abs(w).max() <= bound
        assert np.abs(w).max() > 0.5 * bound  # actually spans the range
        gbound = np.sqrt(6.0 / (16 * 9))
        assert np.abs(p.generator.weights).max() <= gbound
        assert p.compressor_de.bias.max() == 0.0


class TestConvCallsReachAutograd:
    """Every generator conv goes through the autograd module attribute, so
    a wrapper installed there (as the benchmark's tracer does) counts it."""

    # calls of (conv1x1, conv2d, conv2d_depthwise) per generator forward
    @pytest.mark.parametrize(
        "generator,expected",
        [("l2h", (2, 2, 0)), ("h2l", (2, 5, 0)), ("lite", (2, 0, 2)), ("lite-h2l", (2, 0, 5)),
         ("naive", (1, 1, 0)), ("carafe", (1, 1, 0)), ("encoder_only", (1, 1, 0))],
        ids=lambda v: v if isinstance(v, str) else "-".join(map(str, v)),
    )
    def test_call_counts(self, monkeypatch, generator, expected):
        c, d, k = 3, 4, 3
        x_en, x_de = random_pair(5, 1, c, 2, 3)
        rng = ShuffledLcg(1)
        run = {
            "l2h": lambda: kg.semishift_l2h(
                x_en, x_de, kg.make_semishift_params(rng, c, d, k, np.float64)
            ),
            "h2l": lambda: kg.semishift_h2l(
                x_en, x_de, kg.make_semishift_params(rng, c, d, k, np.float64)
            ),
            "lite": lambda: kg.semishift_lite(
                x_en, x_de, kg.make_semishift_lite_params(rng, c, k, np.float64)
            ),
            "lite-h2l": lambda: kg.semishift_h2l(
                x_en, x_de, kg.make_semishift_lite_params(rng, c, k, np.float64)
            ),
            "naive": lambda: kg.naive_kernelgen(
                x_en, x_de, kg.make_naive_params(rng, c, d, k, np.float64)
            ),
            "carafe": lambda: kg.carafe_kernelgen(
                x_de, kg.make_carafe_params(rng, c, d, k, np.float64)
            ),
            "encoder_only": lambda: kg.encoder_only_kernelgen(
                x_en, kg.make_encoder_only_params(rng, c, d, k, np.float64)
            ),
        }[generator]
        names = ("conv1x1", "conv2d", "conv2d_depthwise")
        calls = dict.fromkeys(names, 0)
        for name in names:
            original = getattr(ag, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(ag, name, counted)
        kmap = run()
        assert tuple(calls[n] for n in names) == expected
        assert kmap.data.shape == (1, k * k, 4, 6)

import numpy as np
import pytest

from fadeup.gate import GateParams, fixed_gate, fuse_gated, generate_gate, make_gate_params
from fadeup.rng import ShuffledLcg
from fadeup.tensor import ConvWeights, ShapeError


def zero_gate_params(channels, bias=0.0):
    return GateParams(
        ConvWeights(np.zeros((1, channels, 1, 1)), np.full(1, bias))
    )


class TestGenerateGate:
    def test_zero_weights_give_half(self):
        x = np.random.default_rng(0).normal(size=(1, 3, 2, 2))
        g = generate_gate(x, zero_gate_params(3))
        np.testing.assert_allclose(g, 0.5, rtol=1e-12)
        assert g.shape == (1, 1, 4, 4)

    def test_large_bias_saturates(self):
        x = np.random.default_rng(1).normal(size=(1, 2, 3, 3))
        g = generate_gate(x, zero_gate_params(2, bias=1000.0))
        np.testing.assert_allclose(g, 1.0, atol=1e-6)

    def test_blocks_constant(self):
        x = np.random.default_rng(2).normal(size=(2, 3, 3, 4))
        p = make_gate_params(ShuffledLcg(0), 3, np.float64)
        g = generate_gate(x, p)
        for r in (0, 1):
            for s in (0, 1):
                np.testing.assert_array_equal(g[:, :, r::2, s::2], g[:, :, ::2, ::2])

    def test_range_open_interval(self):
        x = np.random.default_rng(3).normal(size=(1, 2, 4, 4)) * 10
        p = make_gate_params(ShuffledLcg(1), 2, np.float64)
        g = generate_gate(x, p)
        assert (g > 0).all() and (g < 1).all()

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            generate_gate(np.zeros((1, 3, 2, 2)), zero_gate_params(2))


class TestFuseGated:
    def test_gate_one_returns_encoder_bit_exact(self):
        rng = np.random.default_rng(0)
        f_en = rng.normal(size=(1, 3, 4, 4))
        f_up = rng.normal(size=(1, 3, 4, 4))
        out = fuse_gated(f_en, f_up, fixed_gate(f_en, 1.0))
        np.testing.assert_array_equal(out, f_en)

    def test_gate_zero_returns_upsampled_bit_exact(self):
        rng = np.random.default_rng(1)
        f_en = rng.normal(size=(1, 3, 4, 4))
        f_up = rng.normal(size=(1, 3, 4, 4))
        out = fuse_gated(f_en, f_up, fixed_gate(f_en, 0.0))
        np.testing.assert_array_equal(out, f_up)

    def test_halfway_arithmetic(self):
        f_en = np.full((1, 2, 2, 2), 2.0)
        f_up = np.full((1, 2, 2, 2), 4.0)
        out = fuse_gated(f_en, f_up, fixed_gate(f_en, 0.5))
        np.testing.assert_array_equal(out, np.full((1, 2, 2, 2), 3.0))

    def test_pointwise_between_inputs(self):
        rng = np.random.default_rng(2)
        f_en = rng.normal(size=(1, 2, 3, 3))
        f_up = rng.normal(size=(1, 2, 3, 3))
        g = rng.uniform(size=(1, 1, 3, 3))
        out = fuse_gated(f_en, f_up, g)
        lo = np.minimum(f_en, f_up)
        hi = np.maximum(f_en, f_up)
        assert (out >= lo - 1e-12).all() and (out <= hi + 1e-12).all()

    def test_same_inputs_fixed_point(self):
        rng = np.random.default_rng(3)
        f = rng.normal(size=(1, 2, 3, 3))
        g = rng.uniform(size=(1, 1, 3, 3))
        np.testing.assert_allclose(fuse_gated(f, f, g), f, rtol=1e-15)

    def test_caller_arrays_are_not_written(self):
        rng = np.random.default_rng(4)
        f_en = rng.normal(size=(1, 20, 3, 3)).astype(np.float32)
        f_up = rng.normal(size=(1, 20, 3, 3)).astype(np.float32)
        g = rng.uniform(size=(1, 1, 3, 3)).astype(np.float32)
        en_before, up_before = f_en.copy(), f_up.copy()
        out = fuse_gated(f_en, f_up, g)
        assert out is not f_up
        np.testing.assert_array_equal(f_up, up_before)
        np.testing.assert_array_equal(f_en, en_before)

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError, match="differ"):
            fuse_gated(np.zeros((1, 2, 2, 2)), np.zeros((1, 3, 2, 2)), np.ones((1, 1, 2, 2)))
        with pytest.raises(ShapeError, match="gate"):
            fuse_gated(np.zeros((1, 2, 2, 2)), np.zeros((1, 2, 2, 2)), np.ones((1, 2, 2, 2)))


class TestGateParams:
    def test_single_channel_required(self):
        with pytest.raises(ShapeError, match="single channel"):
            GateParams(ConvWeights(np.zeros((2, 3, 1, 1)), np.zeros(2)))

    def test_bias_required(self):
        with pytest.raises(ShapeError, match="bias"):
            GateParams(ConvWeights(np.zeros((1, 3, 1, 1))))

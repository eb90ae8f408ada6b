import hashlib
import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from fadeup import autograd as ag
from fadeup import kernelgen as kg
from fadeup import operators as ops
from fadeup.operators import (
    OperatorConfig,
    build_operator,
    checkpoint_from_bytes,
    install_checkpoint,
    load_checkpoint,
    read_checkpoint,
    save_checkpoint,
)
from fadeup.tensor import FormatError, ShapeError


def rnd_pair(seed, n, c, h, w, dtype=np.float32):
    rng = np.random.default_rng(seed)
    return (
        rng.normal(size=(n, c, 2 * h, 2 * w)).astype(dtype),
        rng.normal(size=(n, c, h, w)).astype(dtype),
    )


class TestBuild:
    def test_fade_counted_params(self):
        op = build_operator(OperatorConfig("fade", channels=256, compressed=64, kernel_size=5))
        assert op.parameter_counts()["counted"] == 47424

    def test_same_seed_bit_identical(self):
        cfg = OperatorConfig("fade", channels=4, compressed=3, seed=99)
        a, b = build_operator(cfg), build_operator(cfg)
        for (na, va), (nb, vb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb
            np.testing.assert_array_equal(ag.value_of(va), ag.value_of(vb))

    def test_different_seed_differs(self):
        a = build_operator(OperatorConfig("fade", channels=4, seed=1))
        b = build_operator(OperatorConfig("fade", channels=4, seed=2))
        assert not np.array_equal(
            ag.value_of(a.kernel_params.generator.weights),
            ag.value_of(b.kernel_params.generator.weights),
        )

    def test_nearest_zero_params(self):
        op = build_operator(OperatorConfig("nearest"))
        counts = op.parameter_counts()
        assert counts["counted"] == 0 and counts["bias"] == 0
        assert op.named_parameters() == []

    def test_invalid_variant(self):
        with pytest.raises(ShapeError, match="unknown variant"):
            OperatorConfig("fancy")

    def test_weighted_variant_needs_channels(self):
        with pytest.raises(ShapeError, match="channels"):
            OperatorConfig("fade")

    def test_gate_on_weightless_rejected(self):
        with pytest.raises(ShapeError, match="gate"):
            OperatorConfig("nearest", gate_mode="learned")

    @pytest.mark.parametrize("variant", ["carafe", "b2_decoder_only"])
    @pytest.mark.parametrize("mode", ["learned", "one"])
    def test_fusing_gate_on_unguided_rejected(self, variant, mode):
        # both modes blend with the encoder guide, which these variants never take
        with pytest.raises(ShapeError, match="gate"):
            OperatorConfig(variant, channels=3, gate_mode=mode)
        cfg = OperatorConfig(variant, channels=3, gate_mode="none")
        assert ops.effective_gate_mode(cfg) == "none"

    @pytest.mark.parametrize(
        "alias,row", [("b6_full", "fade"), ("b2_decoder_only", "carafe"),
                      ("b5_semishift_skip", "fade_g1")]
    )
    def test_aliases_share_one_row(self, alias, row):
        assert ops.VARIANT_SPECS[alias] is ops.VARIANT_SPECS[row]


class TestForward:
    def test_shape_and_finiteness(self):
        x_en, x_de = rnd_pair(0, 1, 4, 4, 4)
        op = build_operator(OperatorConfig("fade", channels=4, compressed=8, seed=0))
        out = op.forward(x_en, x_de)
        assert out.shape == (1, 4, 8, 8)
        assert np.isfinite(out).all()

    @pytest.mark.parametrize(
        "variant", ["fade", "fade_lite", "fade_g1", "carafe", "nearest", "bilinear",
                    "b1_encoder_only", "b2_decoder_only", "b3_naive",
                    "b4_semishift_nogate", "b5_semishift_skip", "b6_full"]
    )
    def test_all_variants_forward(self, variant):
        x_en, x_de = rnd_pair(1, 2, 3, 2, 3)
        cfg = (
            OperatorConfig(variant)
            if ops.VARIANT_SPECS[variant].source is None
            else OperatorConfig(variant, channels=3, compressed=4, seed=5)
        )
        op = build_operator(cfg)
        guide = x_en if ops.VARIANT_SPECS[variant].guided else None
        out = ag.value_of(op.forward(guide, x_de))
        assert out.shape == (2, 3, 4, 6)
        assert np.isfinite(out).all()

    def test_selectors_agree_f32(self):
        x_en, x_de = rnd_pair(2, 1, 4, 3, 3)
        op = build_operator(OperatorConfig("fade", channels=4, compressed=8, seed=7))
        outs = [op.forward(x_en, x_de, impl=impl) for impl in ("direct", "h2l", "l2h")]
        for other in outs[1:]:
            dev = np.max(
                np.abs(outs[0] - other)
                / np.maximum(1.0, np.maximum(np.abs(outs[0]), np.abs(other)))
            )
            assert dev <= 1e-5

    def test_selector_argmax_invariance_f64(self):
        x_en, x_de = rnd_pair(3, 1, 3, 4, 4, dtype=np.float64)
        op = build_operator(
            OperatorConfig("b4_semishift_nogate", channels=3, compressed=5, seed=11,
                           precision="f64")
        )
        maps = {
            impl: ag.value_of(op.forward_parts(x_en, x_de, impl=impl)[1]["kernels"].data)
            for impl in ("direct", "h2l", "l2h")
        }
        am = {k: v.argmax(axis=1) for k, v in maps.items()}
        np.testing.assert_array_equal(am["direct"], am["h2l"])
        np.testing.assert_array_equal(am["direct"], am["l2h"])

    def test_carafe_equals_b2_bit_exact(self):
        _, x_de = rnd_pair(4, 2, 3, 3, 2)
        a = build_operator(OperatorConfig("carafe", channels=3, compressed=4, seed=21))
        b = build_operator(OperatorConfig("b2_decoder_only", channels=3, compressed=4, seed=21))
        np.testing.assert_array_equal(a.forward(None, x_de), b.forward(None, x_de))

    def test_b5_returns_encoder_exactly(self):
        x_en, x_de = rnd_pair(5, 1, 3, 3, 3)
        op = build_operator(OperatorConfig("b5_semishift_skip", channels=3, compressed=4, seed=3))
        np.testing.assert_array_equal(op.forward(x_en, x_de), x_en)

    def test_fade_g1_returns_encoder_exactly(self):
        x_en, x_de = rnd_pair(6, 1, 2, 2, 2)
        op = build_operator(OperatorConfig("fade_g1", channels=2, compressed=4, seed=3))
        np.testing.assert_array_equal(op.forward(x_en, x_de), x_en)

    def test_gate_bias_limit_approaches_encoder(self):
        x_en, x_de = rnd_pair(7, 1, 3, 3, 3)
        op = build_operator(OperatorConfig("fade", channels=3, compressed=4, seed=9))
        op.gate_params.projector.bias = np.full(1, 1e3, dtype=np.float32)
        out = op.forward(x_en, x_de)
        assert np.max(np.abs(out - x_en)) < 1e-5

    @pytest.mark.parametrize(
        "variant,owner,key",
        [("carafe", kg, "carafe_kernelgen"), ("fade_lite", kg.SEMISHIFT_FORMS, "l2h"),
         ("fade", kg.SEMISHIFT_FORMS, "l2h")],
    )
    def test_generator_reached_through_module_attribute(self, monkeypatch, variant, owner, key):
        """A wrapper installed on the kernelgen attribute sees the call."""
        calls = []
        original = owner[key] if isinstance(owner, dict) else getattr(owner, key)

        def spy(*args):
            calls.append(variant)
            return original(*args)

        if isinstance(owner, dict):
            monkeypatch.setitem(owner, key, spy)
        else:
            monkeypatch.setattr(owner, key, spy)
        x_en, x_de = rnd_pair(12, 1, 3, 2, 2)
        op = build_operator(OperatorConfig(variant, channels=3, compressed=4, seed=1))
        op.forward(None if variant == "carafe" else x_en, x_de)
        assert calls == [variant]

    def test_semishift_variants_share_one_generate_path(self):
        assert ops._LITE.generate is ops._SEMISHIFT.generate

    @pytest.mark.parametrize("impl", ["direct", "h2l"])
    def test_fade_lite_runs_the_named_form(self, monkeypatch, impl):
        calls = []
        original = kg.SEMISHIFT_FORMS[impl]

        def spy(*args):
            calls.append(impl)
            return original(*args)

        monkeypatch.setitem(kg.SEMISHIFT_FORMS, impl, spy)
        x_en, x_de = rnd_pair(13, 1, 3, 2, 2, dtype=np.float64)
        op = build_operator(
            OperatorConfig("fade_lite", channels=3, seed=1, precision="f64")
        )
        got = op.forward(x_en, x_de, impl=impl)
        assert calls == [impl]
        dev = np.max(np.abs(got - op.forward(x_en, x_de)))
        assert dev <= 1e-10

    def test_no_impl_runs_the_default_form(self):
        x_en, x_de = rnd_pair(14, 1, 3, 2, 2)
        op = build_operator(OperatorConfig("fade", channels=3, compressed=4, seed=1))
        np.testing.assert_array_equal(
            op.forward(x_en, x_de), op.forward(x_en, x_de, impl=kg.DEFAULT_FORM)
        )

    @pytest.mark.parametrize("variant", ops.VARIANTS)
    def test_unknown_impl_raises_for_every_variant(self, variant):
        """Checked before the inputs: a variant without a semi-shift
        generator ignores a valid form but not a misspelt one."""
        op = build_operator(
            OperatorConfig(variant)
            if ops.VARIANT_SPECS[variant].source is None
            else OperatorConfig(variant, channels=3, compressed=4, seed=5)
        )
        with pytest.raises(ShapeError, match=r"unknown semi-shift form 'bogus'.*'h2l'"):
            op.forward(None, None, impl="bogus")

    def test_valid_impl_ignored_without_a_semishift_generator(self):
        x_en, x_de = rnd_pair(15, 1, 3, 2, 2)
        op = build_operator(OperatorConfig("carafe", channels=3, compressed=4, seed=1))
        np.testing.assert_array_equal(op.forward(None, x_de, impl="h2l"), op.forward(None, x_de))

    def test_missing_encoder_raises(self):
        _, x_de = rnd_pair(8, 1, 3, 2, 2)
        op = build_operator(OperatorConfig("fade", channels=3, seed=0))
        with pytest.raises(ShapeError, match="guide"):
            op.forward(None, x_de)

    def test_wrong_resolution_raises(self):
        op = build_operator(OperatorConfig("fade", channels=2, seed=0))
        with pytest.raises(ShapeError, match="twice"):
            op.forward(
                np.zeros((1, 2, 5, 4), np.float32), np.zeros((1, 2, 2, 2), np.float32)
            )

    def test_precision_mismatch_raises(self):
        op = build_operator(OperatorConfig("fade", channels=2, seed=0, precision="f32"))
        x_en, x_de = rnd_pair(9, 1, 2, 2, 2, dtype=np.float64)
        with pytest.raises(ShapeError, match="precision"):
            op.forward(x_en, x_de)

    @pytest.mark.parametrize("variant", ["fade", "fade_g1"])
    def test_encoder_precision_mismatch_raises(self, variant):
        op = build_operator(OperatorConfig(variant, channels=2, seed=0, precision="f32"))
        x_en, x_de = rnd_pair(9, 1, 2, 2, 2)
        with pytest.raises(ShapeError, match="encoder dtype float64 .* precision f32"):
            op.forward(x_en.astype(np.float64), x_de)

    def test_installed_parameter_precision_mismatch_names_the_slot(self):
        """An f64 array in an f32 operator raises, and no slot changes."""
        op = build_operator(OperatorConfig("fade", channels=2, seed=0, precision="f32"))
        before = [ag.value_of(v).copy() for _, v in op.named_parameters()]
        values = [w + np.float32(1.0) for w in before]
        values[-1] = values[-1].astype(np.float64)  # gate.bias
        with pytest.raises(ShapeError, match="gate.bias dtype float64 .* precision f32"):
            op.install_parameters(values)
        for want, (_, v) in zip(before, op.named_parameters()):
            np.testing.assert_array_equal(ag.value_of(v), want)
            assert ag.value_of(v).dtype == np.float32

    def test_deterministic_forward(self):
        x_en, x_de = rnd_pair(10, 1, 3, 3, 3)
        op = build_operator(OperatorConfig("fade", channels=3, seed=12))
        np.testing.assert_array_equal(op.forward(x_en, x_de), op.forward(x_en, x_de))

    def test_channel_adapter(self):
        rng = np.random.default_rng(11)
        x_en = rng.normal(size=(1, 6, 4, 4)).astype(np.float32)
        x_de = rng.normal(size=(1, 3, 2, 2)).astype(np.float32)
        op = build_operator(
            OperatorConfig("fade", channels=3, compressed=4, seed=2, encoder_channels=6)
        )
        out = op.forward(x_en, x_de)
        assert out.shape == (1, 3, 4, 4)
        counts = op.parameter_counts()
        assert counts["adapter"] == 6 * 3 + 3


class TestForwardMemory:
    """An untaped gated forward holds little beyond its output: the convs
    unfold nothing, the kernel map is normalized into the output's last K^2
    channels, which reassembly then fills, and the gate blend writes into
    the reassembly output.  At C=256 with a 32^2 decoder that is 1.21x the
    output, at C=64 1.44x (1.30x and 1.69-1.71x with a separate kernel map)."""

    @pytest.mark.parametrize(
        "variant,impl", [("fade", "l2h"), ("fade", "h2l"), ("fade_lite", "l2h")]
    )
    def test_untaped_peak_is_under_one_and_a_half_outputs(self, variant, impl):
        op = build_operator(OperatorConfig(variant, channels=256, compressed=64, kernel_size=5))
        x_en, x_de = rnd_pair(20, 1, 256, 32, 32)
        tracemalloc.start()
        try:
            out = op.forward(x_en, x_de, impl=impl)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * out.nbytes, f"peak {peak / out.nbytes:.2f}x the output"

    @pytest.mark.parametrize("variant", ["fade", "fade_lite", "carafe"])
    def test_untaped_peak_at_c64_is_under_one_and_a_half_outputs(self, variant):
        """At C=64 the kernel map is 25/64 of the output, so the tail matters."""
        op = build_operator(OperatorConfig(variant, channels=64, compressed=64, kernel_size=5))
        x_en, x_de = rnd_pair(20, 1, 64, 32, 32)
        tracemalloc.start()
        try:
            out = op.forward(None if variant == "carafe" else x_en, x_de)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * out.nbytes, f"peak {peak / out.nbytes:.2f}x the output"

    @pytest.mark.parametrize(
        "variant,bound", [("fade", 5.4), ("fade_lite", 5.4), ("carafe", 3.1), ("b3_naive", 5.7)]
    )
    def test_taped_forward_and_backward_peak_is_bounded(self, variant, bound):
        """A taped forward and backward at C=256 with a 32^2 decoder, both
        inputs and every weight taped, loss sum_all: the blend's gate VJP
        sums by channel chunks and reassembly's VJPs run by strips of
        decoder rows, so the peak is 5.26x the output for fade and 2.97x for
        carafe (6.14x and 4.03x with whole-plane VJP buffers).  backward
        releases each record's VJPs once they have run, so b3_naive's later
        VJPs no longer sit beside every earlier forward array: 5.55x, not
        7.41x.  The first VJP, the blend's, sets fade's and carafe's peaks."""
        op = build_operator(OperatorConfig(variant, channels=256, compressed=64, kernel_size=5))
        op.wrap_parameters()
        x_en, x_de = (ag.Node(a) for a in rnd_pair(20, 1, 256, 32, 32))
        tracemalloc.start()
        try:
            out = op.forward(x_en, x_de)
            ag.backward(ag.sum_all(out))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * out.data.nbytes, f"peak {peak / out.data.nbytes:.2f}x the output"

    def test_naive_peak_is_at_least_twice_fades(self):
        """The paper's memory claim for semi-shift against the naive concat
        pipeline, at C=256 with a 32^2 decoder: untaped, b3_naive peaks at
        3.00x the output and fade at 1.21x, a ratio of 2.49.  The ratio
        depends on the shape: at C=64 with a 56^2 decoder it is 2.13
        (3.00x against 1.41x)."""
        peaks = {}
        for variant in ("b3_naive", "fade"):
            op = build_operator(OperatorConfig(variant, channels=256, compressed=64, kernel_size=5))
            x_en, x_de = rnd_pair(20, 1, 256, 32, 32)
            tracemalloc.start()
            try:
                op.forward(x_en, x_de)
                peaks[variant] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["b3_naive"] >= 2 * peaks["fade"], peaks

    @pytest.mark.parametrize("variant", ["fade", "fade_lite", "fade_g1", "b6_full"])
    @pytest.mark.parametrize("impl", ["l2h", "h2l"])
    def test_untaped_output_equals_taped_bit_for_bit(self, variant, impl):
        op = build_operator(OperatorConfig(variant, channels=6, compressed=4, seed=3))
        x_en, x_de = rnd_pair(21, 2, 6, 3, 5)
        en_before = x_en.copy()
        taped = op.forward(ag.Node(x_en), x_de, impl=impl)
        assert isinstance(taped, ag.Node)
        np.testing.assert_array_equal(op.forward(x_en, x_de, impl=impl), taped.data)
        np.testing.assert_array_equal(x_en, en_before)


_WEIGHTED = [v for v in ops.VARIANTS if ops.VARIANT_SPECS[v].source is not None]

# (n, C, K, h, w, precision): C = K^2, C > K^2, the separate-map fallback at
# C < K^2 and a 1x1 decoder; each plane's width is no multiple of the
# reassembly band and its height none of the row strip
_TAIL_CASES = [
    pytest.param(2, 9, 3, 5, 11, "f32", id="c9-k3-f32"),
    pytest.param(2, 25, 5, 6, 9, "f64", id="c25-k5-f64"),
    pytest.param(1, 52, 7, 3, 10, "f32", id="c52-k7-f32"),
    pytest.param(2, 6, 5, 5, 9, "f64", id="c6-k5-f64"),
    pytest.param(3, 49, 7, 1, 1, "f64", id="c49-k7-1x1"),
]


class TestForwardIntoTheOutput:
    """forward normalizes an untaped kernel map into the output's last K^2
    channels and reassembles over it; forward_parts and a taped forward
    keep a separate map.  The output bits are the same."""

    @pytest.mark.parametrize("n,c,k,h,w,precision", _TAIL_CASES)
    @pytest.mark.parametrize("variant", _WEIGHTED)
    def test_forward_equals_parts_and_taped_bit_for_bit(self, variant, n, c, k, h, w, precision):
        cfg = OperatorConfig(variant, channels=c, compressed=4, kernel_size=k, precision=precision)
        op = build_operator(cfg)
        x_en, x_de = rnd_pair(22, n, c, h, w, op.config.dtype)
        if n > 1:
            x_de[-1, 0, h // 2] = np.nan  # a NaN decoder row; batch item 0 stays finite
        guide = x_en if ops.VARIANT_SPECS[variant].guided else None
        with np.errstate(invalid="ignore"):
            out = op.forward(guide, x_de)
            want, parts = op.forward_parts(guide, x_de)
            taped = op.forward(None if guide is None else ag.Node(guide), ag.Node(x_de))
            raw = ops.VARIANT_SPECS[variant].source.generate(
                guide, x_de, op.kernel_params, kg.DEFAULT_FORM
            )
            kernels = kg.normalize_kernels(raw).data
            assert op.forward_parts(guide, x_de, parts=False)[1] == {}
        assert np.isfinite(out[0]).all() and np.isnan(out[-1]).any() == (n > 1)
        np.testing.assert_array_equal(out, want)
        np.testing.assert_array_equal(out, taped.data)
        np.testing.assert_array_equal(parts["kernels"].data, kernels)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        cfg = OperatorConfig("fade", channels=3, compressed=4, seed=8)
        op = build_operator(cfg)
        path = tmp_path / "op.fckp"
        save_checkpoint(op, path)
        other = build_operator(OperatorConfig("fade", channels=3, compressed=4, seed=999))
        load_checkpoint(other, path)
        for (na, va), (nb, vb) in zip(op.named_parameters(), other.named_parameters()):
            assert na == nb
            np.testing.assert_array_equal(ag.value_of(va), ag.value_of(vb))
        x_en, x_de = rnd_pair(4, 1, 3, 2, 2)
        np.testing.assert_array_equal(op.forward(x_en, x_de), other.forward(x_en, x_de))

    def test_manifest_readable_standalone(self, tmp_path):
        op = build_operator(OperatorConfig("fade_lite", channels=4, seed=3))
        path = tmp_path / "lite.fckp"
        save_checkpoint(op, path)
        stored = read_checkpoint(path)
        assert "generator.weights" in stored
        assert stored["gate.weights"].shape == (1, 4, 1, 1)

    def test_wrong_variant_rejected(self, tmp_path):
        op = build_operator(OperatorConfig("carafe", channels=3, seed=0))
        path = tmp_path / "c.fckp"
        save_checkpoint(op, path)
        other = build_operator(OperatorConfig("fade", channels=3, seed=0))
        with pytest.raises(FormatError):
            load_checkpoint(other, path)

    def test_shape_mismatch_names_tensor(self, tmp_path):
        """A checkpoint from another config raises before any parameter changes."""
        path = tmp_path / "d8.fckp"
        save_checkpoint(build_operator(OperatorConfig("fade", channels=3, compressed=8)), path)
        other = build_operator(OperatorConfig("fade", channels=3, compressed=6, seed=1))
        before = [ag.value_of(v).copy() for _, v in other.named_parameters()]
        with pytest.raises(ShapeError) as err:
            load_checkpoint(other, path)
        message = str(err.value)
        assert "compressor_en.weights" in message
        assert "(8, 3, 1, 1)" in message and "(6, 3, 1, 1)" in message
        for want, (_, v) in zip(before, other.named_parameters()):
            np.testing.assert_array_equal(ag.value_of(v), want)

    def test_rejects_corrupt_magic(self, tmp_path):
        path = tmp_path / "bad.fckp"
        path.write_bytes(b"JUNKJUNKJUNKJUNK")
        with pytest.raises(FormatError, match="magic"):
            read_checkpoint(path)

    def test_header_byte_flips_load_or_raise_format_error(self, tmp_path):
        """0x00, 0xFF and a high-bit flip at every header and manifest byte.

        A flip that changes a reserved header byte or a blob offset must raise.
        The flipped images are parsed in memory, as ``load_checkpoint`` parses
        a file's bytes.
        """
        cfg = OperatorConfig("carafe", channels=2, compressed=2, kernel_size=3, seed=0)
        op = build_operator(cfg)
        path = tmp_path / "c.fckp"
        save_checkpoint(op, path)
        raw = path.read_bytes()
        must_raise = {5, 6, 7}
        pos = 12
        for name, _ in op.named_parameters():
            pos += 2 + len(name) + 16  # name length, name, four uint32 dims
            must_raise.update(range(pos, pos + 8))  # uint64 blob offset
            pos += 8
        manifest_end = pos
        assert manifest_end == 151
        outcomes = {"loaded": 0, "rejected": 0}
        for i in range(manifest_end):
            for value in (0x00, 0xFF, raw[i] ^ 0x80):
                blob = bytearray(raw)
                blob[i] = value
                try:
                    install_checkpoint(build_operator(cfg), checkpoint_from_bytes(bytes(blob)))
                    outcomes["loaded"] += 1
                    assert i not in must_raise or value == raw[i], (i, value)
                except FormatError:
                    outcomes["rejected"] += 1
        assert outcomes["loaded"] and outcomes["rejected"]

    def test_truncations_raise_format_error(self, tmp_path):
        """Every truncation, parsed in memory, and one through the file."""
        cfg = OperatorConfig("carafe", channels=2, compressed=2, kernel_size=3, seed=0)
        path = tmp_path / "c.fckp"
        save_checkpoint(build_operator(cfg), path)
        raw = path.read_bytes()
        for length in range(len(raw)):
            with pytest.raises(FormatError):
                install_checkpoint(build_operator(cfg), checkpoint_from_bytes(raw[:length]))
        cut = tmp_path / "cut.fckp"
        cut.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(FormatError):
            load_checkpoint(build_operator(cfg), cut)

    def test_nonzero_ften_reserved_bytes_in_a_blob_raise(self, tmp_path):
        cfg = OperatorConfig("carafe", channels=2, compressed=2, kernel_size=3, seed=0)
        path = tmp_path / "c.fckp"
        save_checkpoint(build_operator(cfg), path)
        raw = bytearray(path.read_bytes())
        first_blob = raw.index(b"FTEN")
        raw[first_blob + 7] = 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="reserved"):
            load_checkpoint(build_operator(cfg), path)

    @pytest.mark.parametrize(
        "case", ["empty_with_trailing_bytes", "trailing_bytes", "gap_before_first_blob",
                 "control_character_name"]
    )
    def test_rejects_malformed_layout(self, tmp_path, case):
        """Every byte belongs to the header, the manifest or a blob; names are printable."""
        path = tmp_path / "c.fckp"
        if case == "empty_with_trailing_bytes":
            save_checkpoint(build_operator(OperatorConfig("nearest")), path)
            assert len(path.read_bytes()) == 12
            path.write_bytes(path.read_bytes() + bytes(range(70)))
            with pytest.raises(FormatError, match="bytes after"):
                load_checkpoint(build_operator(OperatorConfig("nearest")), path)
            return
        cfg = OperatorConfig("carafe", channels=2, compressed=2, kernel_size=3, seed=0)
        save_checkpoint(build_operator(cfg), path)
        raw = bytearray(path.read_bytes())
        if case == "trailing_bytes":
            raw += b"\x00"
        elif case == "gap_before_first_blob":
            # one byte between manifest and blobs, every offset moved to match
            (count,) = struct.unpack_from("<I", raw, 8)
            pos = 12
            for _ in range(count):
                (nlen,) = struct.unpack_from("<H", raw, pos)
                pos += 2 + nlen + 16
                (offset,) = struct.unpack_from("<Q", raw, pos)
                struct.pack_into("<Q", raw, pos, offset + 1)
                pos += 8
            raw[pos:pos] = b"\x00"
        else:
            name = b"compressor.weights"
            at = raw.index(name)
            raw[at + 4] = 0x07  # compressor -> comp\x07essor
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            read_checkpoint(path)

    def test_duplicated_entry_name_raises_naming_it(self, tmp_path):
        """A second copy of an entry would silently replace the first."""
        op = build_operator(OperatorConfig("carafe", channels=2, compressed=2, kernel_size=3))
        entries = list(op.named_parameters())
        copy = ag.value_of(dict(entries)["compressor.weights"]) + 1.0
        path = tmp_path / "dup.fckp"
        save_checkpoint(SimpleNamespace(named_parameters=lambda: entries + [
            ("compressor.weights", copy)]), path)
        with pytest.raises(FormatError, match="'compressor.weights' appears more than once"):
            load_checkpoint(build_operator(op.config), path)

    # sha256 of save_checkpoint output (channels=3, compressed=4, K=3, seed=5, f32);
    # a new digest means the RNG draw order, slot names or slot order moved
    @pytest.mark.parametrize(
        "variant,extra,digest",
        [
            ("fade", {}, "8e4723b92f167c07dcc3066d49b01f96e46c16beab8f892c49cbc369ead4b210"),
            ("fade_lite", {}, "87b36a45371cfa905c632cf136f4ad1ef853b0aebd856a1ef58ae1d9cc998add"),
            ("fade_g1", {}, "2d312dcc3ea271bc13dea182297efd01b88caea8f9c331e3f1f604b21e8ddd2d"),
            ("carafe", {}, "248f8510cbffa563feb5a99178329eed940d864c89c8920c90f7afef92ba0ba0"),
            ("nearest", {}, "2564bfa94f37f1177388ddcfce3b5c54a0d877d413ab2db33628b4a3e74455f1"),
            ("bilinear", {}, "2564bfa94f37f1177388ddcfce3b5c54a0d877d413ab2db33628b4a3e74455f1"),
            ("b1_encoder_only", {}, "02276937d960fc9383b2250ddadb62a928b481fc4ee88d07e7bc7724a85e3276"),
            ("b2_decoder_only", {}, "248f8510cbffa563feb5a99178329eed940d864c89c8920c90f7afef92ba0ba0"),
            ("b3_naive", {}, "88cf7e1d83d547b1b36061733d15b4e1cd6adca41d6f048fb7646a34d3251e67"),
            ("b4_semishift_nogate", {}, "2d312dcc3ea271bc13dea182297efd01b88caea8f9c331e3f1f604b21e8ddd2d"),
            ("b5_semishift_skip", {}, "2d312dcc3ea271bc13dea182297efd01b88caea8f9c331e3f1f604b21e8ddd2d"),
            ("b6_full", {}, "8e4723b92f167c07dcc3066d49b01f96e46c16beab8f892c49cbc369ead4b210"),
            ("fade", {"encoder_channels": 6}, "a7c4d52f797e29df3d5294612bce14b7737f3f2f30391585b987acaced1d2e8f"),
            ("b1_encoder_only", {"encoder_channels": 2}, "78be0a4cdfecea8b38fca172520fa3fff1c9d1cc43029ce69433578a5efb2507"),
            ("fade", {"gate_mode": "one"}, "2d312dcc3ea271bc13dea182297efd01b88caea8f9c331e3f1f604b21e8ddd2d"),
            ("fade_lite", {"gate_mode": "none"}, "fe9deb9b05725e57eceb1c619c80cec08585dc46de9682fb6ffad18faac6276d"),
            ("b4_semishift_nogate", {"gate_mode": "learned"}, "8e4723b92f167c07dcc3066d49b01f96e46c16beab8f892c49cbc369ead4b210"),
            ("b3_naive", {"gate_mode": "one"}, "88cf7e1d83d547b1b36061733d15b4e1cd6adca41d6f048fb7646a34d3251e67"),
        ],
    )
    def test_bytes_pinned(self, tmp_path, variant, extra, digest):
        if ops.VARIANT_SPECS[variant].source is None:
            cfg = OperatorConfig(variant)
        else:
            cfg = OperatorConfig(variant, channels=3, compressed=4, kernel_size=3, seed=5, **extra)
        path = tmp_path / "op.fckp"
        save_checkpoint(build_operator(cfg), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestTraining:
    def test_wrap_and_gradients_flow(self):
        x_en, x_de = rnd_pair(0, 1, 2, 2, 2, dtype=np.float64)
        op = build_operator(
            OperatorConfig("fade", channels=2, compressed=3, kernel_size=3, seed=1,
                           precision="f64")
        )
        nodes = op.wrap_parameters()
        loss = ag.sum_all(op.forward(x_en, x_de))
        ag.backward(loss)
        grads = [ag.grad_of(n) for n in nodes]
        assert any(np.abs(g).sum() > 0 for g in grads)
        assert all(np.isfinite(g).all() for g in grads)

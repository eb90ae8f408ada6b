import hashlib
import struct

import numpy as np
import pytest

from fadeup import autograd as ag
from fadeup import kernelgen as kg
from fadeup import operators as ops
from fadeup.operators import (
    OperatorConfig,
    build_operator,
    compose_iterative,
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


class TestCompose:
    def test_single_stage_equals_forward(self):
        x_en, x_de = rnd_pair(0, 1, 3, 2, 2)
        op = build_operator(OperatorConfig("fade", channels=3, compressed=4, seed=4))
        np.testing.assert_array_equal(
            compose_iterative([op], [x_en], x_de), op.forward(x_en, x_de)
        )

    def test_two_nearest_is_x4_nearest(self):
        _, x_de = rnd_pair(1, 1, 2, 3, 3)
        op = build_operator(OperatorConfig("nearest"))
        out = compose_iterative([op, op], [None, None], x_de)
        want = np.repeat(np.repeat(x_de, 4, axis=2), 4, axis=3)
        np.testing.assert_array_equal(out, want)

    def test_two_stage_fade_shape(self):
        rng = np.random.default_rng(2)
        x_de = rng.normal(size=(1, 3, 4, 4)).astype(np.float32)
        g1 = rng.normal(size=(1, 3, 8, 8)).astype(np.float32)
        g2 = rng.normal(size=(1, 3, 16, 16)).astype(np.float32)
        op1 = build_operator(OperatorConfig("fade", channels=3, compressed=4, seed=1))
        op2 = build_operator(OperatorConfig("fade", channels=3, compressed=4, seed=2))
        out = compose_iterative([op1, op2], [g1, g2], x_de)
        assert ag.value_of(out).shape == (1, 3, 16, 16)

    def test_guide_resolution_mismatch(self):
        rng = np.random.default_rng(3)
        x_de = rng.normal(size=(1, 2, 4, 4)).astype(np.float32)
        bad_guide = rng.normal(size=(1, 2, 16, 16)).astype(np.float32)
        op = build_operator(OperatorConfig("fade", channels=2, seed=0))
        with pytest.raises(ShapeError, match="stage 0"):
            compose_iterative([op], [bad_guide], x_de)

    def test_guide_count_mismatch(self):
        op = build_operator(OperatorConfig("nearest"))
        with pytest.raises(ShapeError, match="guides"):
            compose_iterative([op, op], [None], np.zeros((1, 1, 2, 2), np.float32))


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
        flipped = tmp_path / "flipped.fckp"
        outcomes = {"loaded": 0, "rejected": 0}
        for i in range(manifest_end):
            for value in (0x00, 0xFF, raw[i] ^ 0x80):
                blob = bytearray(raw)
                blob[i] = value
                flipped.write_bytes(bytes(blob))
                try:
                    load_checkpoint(build_operator(cfg), flipped)
                    outcomes["loaded"] += 1
                    assert i not in must_raise or value == raw[i], (i, value)
                except FormatError:
                    outcomes["rejected"] += 1
        assert outcomes["loaded"] and outcomes["rejected"]

    def test_truncations_raise_format_error(self, tmp_path):
        cfg = OperatorConfig("carafe", channels=2, compressed=2, kernel_size=3, seed=0)
        path = tmp_path / "c.fckp"
        save_checkpoint(build_operator(cfg), path)
        raw = path.read_bytes()
        for length in range(len(raw)):
            path.write_bytes(raw[:length])
            with pytest.raises(FormatError):
                load_checkpoint(build_operator(cfg), path)

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

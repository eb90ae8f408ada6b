import numpy as np
import pytest

from fadeup import autograd as ag
from fadeup import costmodel as cm
from fadeup import gate
from fadeup.operators import OperatorConfig, build_operator

GOLD = dict(channels=256, compressed=64, kernel_size=5, height=112, width=112)


class TestGoldenNumbers:
    def test_carafe(self):
        q = cm.CostQuery("carafe", **GOLD)
        rep = cm.flops_of(q)
        assert rep.macs_total == 99584
        assert rep.flops == 2498363392
        assert cm.format_gflops(rep.flops) == "2.50"
        assert cm.params_of(q) == 73984

    def test_fade(self):
        q = cm.CostQuery("fade", gate=True, **GOLD)
        rep = cm.flops_of(q)
        assert rep.flops == 4561600512
        assert cm.format_gflops(rep.flops) == "4.56"
        assert cm.params_of(q) == 47424

    def test_fade_lite(self):
        q = cm.CostQuery("fade_lite", gate=True, **GOLD)
        rep = cm.flops_of(q)
        assert rep.flops == 1531095552
        assert cm.format_gflops(rep.flops) == "1.53"
        assert cm.params_of(q) == 13281

    def test_fade_g1_totals(self):
        q = cm.CostQuery("fade", gate=False, **GOLD)
        rep = cm.flops_of(q)
        C, d, K2 = 256, 64, 25
        assert rep.macs_total == 5 * C * d + 45 * K2 * d + 4 * K2 * C
        assert cm.params_of(q) == 2 * C * d + 9 * K2 * d

    def test_indexnet_hin_per_position(self):
        q = cm.CostQuery("indexnet_hin", channels=256, height=1, width=1)
        rep = cm.flops_of(q)
        assert rep.macs_total == 32 * 256 * 256 + 12 * 256 == 2100224

    def test_indexnet_m2o(self):
        q = cm.CostQuery("indexnet_m2o", channels=256, height=1, width=1)
        assert cm.flops_of(q).macs_total == 68 * 256 * 256 + 4 * 256
        assert cm.params_of(q) == 68 * 256 * 256

    def test_a2u(self):
        q = cm.CostQuery("a2u", channels=256, kernel_size=5, height=1, width=1)
        assert cm.params_of(q) == 4 * 25 * 256 + 2 * 256 == 26112
        assert cm.flops_of(q).macs_total == 73 * 256 + 4 * 25 + 4 * 25 * 256

    def test_sapa(self):
        q = cm.CostQuery("sapa", channels=256, compressed=64, kernel_size=5,
                         height=1, width=1)
        assert cm.params_of(q) == 2 * 256 * 64
        assert cm.flops_of(q).macs_total == 5 * 256 * 64 + 4 * 25 * 64 + 4 * 25 * 256


class TestStructure:
    def test_stage_sums(self):
        q = cm.CostQuery("fade", gate=True, **GOLD)
        rep = cm.flops_of(q)
        assert sum(rep.stage_macs.values()) == rep.macs_total
        assert set(rep.stage_macs) == {"kernel generation", "feature assembly", "gated fusion"}
        assert rep.flops == 2 * rep.macs_total * 112 * 112

    def test_mac_factor_two_is_unique(self):
        """Only factor 2 reproduces all three published GFLOPs figures."""
        targets = {"carafe": 2.50, "fade": 4.56, "fade_lite": 1.53}
        viable = []
        for factor in range(1, 5):
            ok = True
            for row, want in targets.items():
                q = cm.CostQuery(row, gate=True, **GOLD)
                macs = cm.flops_of(q).macs_total
                g = factor * macs * GOLD["height"] * GOLD["width"] / 1e9
                ok = ok and abs(g - want) < 0.005
            if ok:
                viable.append(factor)
        assert viable == [2]

    def test_monotone_in_every_argument(self):
        base = dict(channels=32, compressed=16, kernel_size=3, height=8, width=8)
        for row in cm.ROWS:
            q0 = cm.CostQuery(row, **base)
            f0, p0 = cm.flops_of(q0).flops, cm.params_of(q0)
            for field, bump in [
                ("channels", 33), ("compressed", 17), ("kernel_size", 5),
                ("height", 9), ("width", 9),
            ]:
                q1 = cm.CostQuery(row, **{**base, field: bump})
                assert cm.flops_of(q1).flops >= f0, (row, field)
                assert cm.params_of(q1) >= p0, (row, field)

    def test_unknown_row(self):
        with pytest.raises(cm.UnknownRowError, match="unknown row"):
            cm.CostQuery("deconv", channels=4)

    @pytest.mark.parametrize("k", [2, 4])
    def test_even_kernel_size_raises(self, k):
        # no operator can build an even kernel, so its cost is not defined
        with pytest.raises(ValueError, match=f"kernel_size must be odd, got {k}"):
            cm.CostQuery("fade", channels=4, kernel_size=k)

    def test_extras_itemized(self):
        q = cm.CostQuery("fade", gate=True, **GOLD)
        rep = cm.flops_of(q)
        assert rep.extras == {
            "compressor_de.bias": 64,
            "generator.bias": 25,
            "gate.bias": 1,
        }
        assert rep.extras_total == 90


class TestExecutedWork:
    """The stage polynomials against the MACs a forward executes, counted
    from the shapes of its convolutions, reassembly and gate blend."""

    @pytest.mark.parametrize(
        "row,impl", [("fade", "l2h"), ("fade", "h2l"), ("fade_lite", "l2h"),
                     ("fade_lite", "h2l"), ("carafe", "l2h")]
    )
    def test_stage_macs_match_the_forward(self, monkeypatch, row, impl):
        C, d, K, h, w = 6, 4, 5, 3, 5
        macs = {}
        in_gate = []

        def count(stage, n):
            macs[stage] = macs.get(stage, 0) + n

        def conv(x, wt, bias, k, groups, name, compressor=None, _conv=ag._conv):
            out = _conv(x, wt, bias, k, groups, name, compressor)
            n, o, oh, ow = ag.value_of(out).shape
            c = ag.value_of(x).shape[1]
            stage = "gated fusion" if in_gate else "kernel generation"
            if compressor is not None:  # its 1x1 conv maps the c channels to d
                d = ag.value_of(compressor[0]).shape[0]
                count(stage, n * d * c * oh * ow)
                c = d
            count(stage, n * o * (c // groups) * k * k * oh * ow)
            return out

        def reassemble(x_de, kernels, k, _reassemble=ag.reassemble):
            n, c, dh, dw = ag.value_of(x_de).shape
            count("feature assembly", 4 * k * k * c * dh * dw * n)
            return _reassemble(x_de, kernels, k)

        def blend(f_en, f_up, g, _blend=ag.blend, **kwargs):
            out = _blend(f_en, f_up, g, **kwargs)
            count("gated fusion", 2 * ag.value_of(out).size)
            return out

        def generate_gate(x_de, p, _generate=gate.generate_gate):
            in_gate.append(True)
            try:
                return _generate(x_de, p)
            finally:
                in_gate.pop()

        monkeypatch.setattr(ag, "_conv", conv)
        monkeypatch.setattr(ag, "reassemble", reassemble)
        monkeypatch.setattr(ag, "blend", blend)
        monkeypatch.setattr(gate, "generate_gate", generate_gate)
        rng = np.random.default_rng(3)
        x_de = rng.normal(size=(1, C, h, w)).astype(np.float32)
        x_en = rng.normal(size=(1, C, 2 * h, 2 * w)).astype(np.float32)
        op = build_operator(OperatorConfig(row, channels=C, compressed=d, kernel_size=K))
        op.forward(None if row == "carafe" else x_en, x_de, impl=impl)
        rep = cm.flops_of(cm.CostQuery(row, channels=C, compressed=d, kernel_size=K))
        assert macs == {stage: m * h * w for stage, m in rep.stage_macs.items()}


class TestReconcile:
    @pytest.mark.parametrize(
        "variant", ["fade", "fade_lite", "fade_g1", "carafe", "nearest", "bilinear",
                    "b1_encoder_only", "b2_decoder_only", "b3_naive",
                    "b4_semishift_nogate", "b5_semishift_skip", "b6_full"]
    )
    def test_every_variant_three_random_configs(self, variant):
        rng = np.random.default_rng(hash(variant) % 2**32)
        for _ in range(3):
            c = int(rng.integers(1, 33))
            d = int(rng.integers(1, 33))
            k = int(rng.choice([1, 3, 5, 7]))
            cfg = (
                OperatorConfig(variant)
                if variant in ("nearest", "bilinear")
                else OperatorConfig(variant, channels=c, compressed=d, kernel_size=k)
            )
            report = cm.reconcile(build_operator(cfg))
            assert report.ok
            assert report.counted == cm.params_of(cfg)

    @pytest.mark.parametrize(
        "row,gate_mode", [("fade", None), ("fade", "none"), ("fade_lite", None),
                          ("fade_lite", "none"), ("carafe", None)]
    )
    def test_live_bias_names_match_the_table_extras(self, row, gate_mode):
        """The operator's slot names and the cost table's extras keys agree."""
        cfg = OperatorConfig(row, channels=6, compressed=4, kernel_size=3, gate_mode=gate_mode)
        q = cm.CostQuery(row, channels=6, compressed=4, kernel_size=3, gate=gate_mode is None)
        assert cm.reconcile(build_operator(cfg)).extras == cm.flops_of(q).extras

    def test_gate_toggle_on_fade_lite(self):
        c, k2 = 256, 25
        gated = OperatorConfig("fade_lite", channels=c, kernel_size=5)
        plain = OperatorConfig("fade_lite", channels=c, kernel_size=5, gate_mode="none")
        assert cm.params_of(gated) == 2 * c * k2 + 9 * k2 + c == 13281
        assert cm.params_of(plain) == 2 * c * k2 + 9 * k2 == 13025
        assert cm.reconcile(build_operator(gated)).counted == 13281
        assert cm.reconcile(build_operator(plain)).counted == 13025

    def test_adapter_reported_separately(self):
        cfg = OperatorConfig("fade", channels=8, compressed=4, seed=0, encoder_channels=12)
        report = cm.reconcile(build_operator(cfg))
        assert report.ok
        assert report.adapter == {"adapter.weights": 96, "adapter.bias": 8}

    def test_mismatch_raises_with_itemization(self):
        op = build_operator(OperatorConfig("fade", channels=4, compressed=4, seed=0))
        # sabotage one counted tensor
        op.kernel_params.compressor_en.weights = np.zeros((5, 4, 1, 1), np.float32)
        with pytest.raises(cm.CostMismatchError, match="compressor_en.weights"):
            cm.reconcile(op)

    def test_params_of_rejects_other_types(self):
        with pytest.raises(TypeError):
            cm.params_of(42)

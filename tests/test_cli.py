import builtins
import io
import json
import os
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from fadeup import autograd as ag
from fadeup import kernelgen as kg
from fadeup import tensor as T
from fadeup.cli import main

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))


def write_pair(tmp_path, seed=0, n=1, c=3, h=3, w=3, dtype=np.float32):
    rng = np.random.default_rng(seed)
    de = rng.normal(size=(n, c, h, w)).astype(dtype)
    en = rng.normal(size=(n, c, 2 * h, 2 * w)).astype(dtype)
    de_path, en_path = tmp_path / "de.ften", tmp_path / "en.ften"
    T.write_ften(de_path, de)
    T.write_ften(en_path, en)
    return en_path, de_path, en, de


class TestUpsample:
    def test_nearest_matches_primitive(self, tmp_path):
        _, de_path, _, de = write_pair(tmp_path)
        out = tmp_path / "out.ften"
        code = main(
            ["upsample", "--variant", "nearest", "--decoder", str(de_path), "--out", str(out)]
        )
        assert code == 0
        np.testing.assert_array_equal(T.read_ften(out), ag.interp_nearest_x2(de))
        manifest = json.loads((tmp_path / "out.ften.manifest.json").read_text())
        assert manifest["command"] == "upsample"
        assert manifest["version"]

    def test_fade_impls_agree(self, tmp_path):
        en_path, de_path, _, _ = write_pair(tmp_path, seed=1)
        outs = {}
        for impl in ("h2l", "l2h"):
            out = tmp_path / f"out_{impl}.ften"
            code = main(
                [
                    "upsample", "--variant", "fade", "--decoder", str(de_path),
                    "--encoder", str(en_path), "--seed", "7", "--impl", impl,
                    "--d", "8", "--out", str(out),
                ]
            )
            assert code == 0
            outs[impl] = T.read_ften(out)
        dev = np.max(
            np.abs(outs["h2l"] - outs["l2h"])
            / np.maximum(1.0, np.maximum(np.abs(outs["h2l"]), np.abs(outs["l2h"])))
        )
        assert dev <= 1e-5

    def test_fade_lite_runs_the_named_form(self, tmp_path, monkeypatch):
        calls = []
        original = kg.SEMISHIFT_FORMS["h2l"]

        def spy(*args):
            calls.append("h2l")
            return original(*args)

        monkeypatch.setitem(kg.SEMISHIFT_FORMS, "h2l", spy)
        en_path, de_path, _, _ = write_pair(tmp_path, seed=2)
        out = tmp_path / "out.ften"
        code = main(
            ["upsample", "--variant", "fade_lite", "--decoder", str(de_path),
             "--encoder", str(en_path), "--impl", "h2l", "--out", str(out)]
        )
        assert code == 0
        assert calls == ["h2l"]
        manifest = json.loads((tmp_path / "out.ften.manifest.json").read_text())
        assert manifest["config"]["impl"] == "h2l"

    def test_missing_encoder_exit_3(self, tmp_path, capsys):
        _, de_path, _, _ = write_pair(tmp_path)
        code = main(
            ["upsample", "--variant", "fade", "--decoder", str(de_path),
             "--out", str(tmp_path / "x.ften")]
        )
        assert code == 3
        assert "guide" in capsys.readouterr().err

    @pytest.mark.parametrize("gate", ["one", "learned"])
    def test_gate_on_decoder_only_exit_3(self, tmp_path, capsys, gate):
        _, de_path, _, _ = write_pair(tmp_path)
        code = main(
            ["upsample", "--variant", "carafe", "--gate", gate, "--decoder", str(de_path),
             "--out", str(tmp_path / "x.ften")]
        )
        assert code == 3
        assert "gate" in capsys.readouterr().err

    def test_bogus_impl_env_exit_3(self, tmp_path, monkeypatch, capsys):
        en_path, de_path, _, _ = write_pair(tmp_path)
        monkeypatch.setenv("FADEUP_IMPL", "bogus")
        code = main(
            ["upsample", "--variant", "fade", "--decoder", str(de_path),
             "--encoder", str(en_path), "--out", str(tmp_path / "x.ften")]
        )
        assert code == 3
        assert "impl" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["env", "config"])
    def test_gate_from_env_or_config_matches_flag(self, tmp_path, monkeypatch, source):
        en_path, de_path, _, _ = write_pair(tmp_path, seed=4)
        argv = ["upsample", "--variant", "fade", "--decoder", str(de_path),
                "--encoder", str(en_path), "--d", "4"]
        flagged, resolved = tmp_path / "flag.ften", tmp_path / "resolved.ften"
        assert main(argv + ["--gate", "none", "--out", str(flagged)]) == 0
        if source == "env":
            monkeypatch.setenv("FADEUP_GATE", "none")
            prefix = []
        else:
            cfg = tmp_path / "gate.cfg"
            cfg.write_text("gate=none\n")
            prefix = ["--config", str(cfg)]
        assert main(prefix + argv + ["--out", str(resolved)]) == 0
        np.testing.assert_array_equal(T.read_ften(resolved), T.read_ften(flagged))
        manifest = json.loads((tmp_path / "resolved.ften.manifest.json").read_text())
        assert manifest["config"]["gate"] == "none"

    def test_bogus_gate_env_exit_3(self, tmp_path, monkeypatch, capsys):
        en_path, de_path, _, _ = write_pair(tmp_path)
        monkeypatch.setenv("FADEUP_GATE", "bogus")
        code = main(
            ["upsample", "--variant", "fade", "--decoder", str(de_path),
             "--encoder", str(en_path), "--out", str(tmp_path / "x.ften")]
        )
        assert code == 3
        assert "gate" in capsys.readouterr().err

    def test_bad_file_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.ften"
        bad.write_bytes(b"JUNK")
        code = main(
            ["upsample", "--variant", "nearest", "--decoder", str(bad),
             "--out", str(tmp_path / "x.ften")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("role", ["decoder", "encoder"])
    @pytest.mark.parametrize("delta", [-1, 1])
    def test_input_size_other_than_its_header_says_exit_2(self, tmp_path, capsys, role, delta):
        en_path, de_path, _, _ = write_pair(tmp_path)
        path = de_path if role == "decoder" else en_path
        raw = path.read_bytes()
        path.write_bytes(raw[:delta] if delta < 0 else raw + bytes(delta))
        code = main(
            ["upsample", "--variant", "fade", "--decoder", str(de_path), "--encoder", str(en_path),
             "--d", "2", "--K", "3", "--out", str(tmp_path / "x.ften")]
        )
        assert code == 2
        assert "size mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "variant,impl", [("fade", "l2h"), ("fade", "h2l"), ("fade_lite", None), ("carafe", None)]
    )
    def test_upsample_peak_at_c64(self, tmp_path, variant, impl):
        """An in-process call at C=64, d=64, K=5 with a 32x32 decoder (a 1 MiB
        f32 output) peaks under 4 MiB: no scratch buffer spans a whole
        input's k-fold copy or a second copy of a file."""
        en_path, de_path, _, _ = write_pair(tmp_path, c=64, h=32, w=32)
        argv = ["upsample", "--variant", variant, "--decoder", str(de_path), "--d", "64",
                "--K", "5", "--out", str(tmp_path / "out.ften")]
        argv += [] if variant == "carafe" else ["--encoder", str(en_path)]
        argv += ["--impl", impl] if impl else []
        assert main(argv) == 0  # imports and first-call set-up stay out of the measure
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 << 20, f"peak {peak / 2**20:.2f} MiB"

    def test_reserved_bytes_in_decoder_exit_2(self, tmp_path, capsys):
        _, de_path, _, _ = write_pair(tmp_path)
        raw = bytearray(de_path.read_bytes())
        raw[6] = 0x01
        de_path.write_bytes(bytes(raw))
        code = main(
            ["upsample", "--variant", "nearest", "--decoder", str(de_path),
             "--out", str(tmp_path / "x.ften")]
        )
        assert code == 2
        assert "reserved" in capsys.readouterr().err

    @pytest.mark.parametrize("role, value", [("decoder", np.nan), ("encoder", np.inf)])
    def test_non_finite_input_exit_3(self, tmp_path, capsys, role, value):
        en_path, de_path, en, de = write_pair(tmp_path, seed=3)
        bad, path = (de, de_path) if role == "decoder" else (en, en_path)
        bad[0, 1, 1, 2] = value
        T.write_ften(path, bad)
        out = tmp_path / "x.ften"
        code = main(
            ["upsample", "--variant", "fade", "--decoder", str(de_path),
             "--encoder", str(en_path), "--d", "4", "--out", str(out)]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert str(path) in err and "non-finite" in err
        assert not out.exists()

    def test_encoder_dtype_mismatch_exit_3(self, tmp_path, capsys):
        en_path, de_path, en, _ = write_pair(tmp_path)
        T.write_ften(en_path, en.astype(np.float64))
        out = tmp_path / "x.ften"
        code = main(
            ["upsample", "--variant", "fade", "--decoder", str(de_path),
             "--encoder", str(en_path), "--d", "4", "--out", str(out)]
        )
        assert code == 3
        assert "encoder dtype float64" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_precision_env_exit_3(self, tmp_path, monkeypatch, capsys):
        en_path, de_path, _, _ = write_pair(tmp_path)
        monkeypatch.setenv("FADEUP_PRECISION", "f16")
        out = tmp_path / "x.ften"
        code = main(
            ["upsample", "--variant", "fade", "--decoder", str(de_path),
             "--encoder", str(en_path), "--out", str(out)]
        )
        assert code == 3
        assert "precision" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_out_of_range_exit_3(self, tmp_path, capsys, seed):
        # masking to 64 bits would alias 2^64 to seed 0 and -1 to 2^64 - 1
        en_path, de_path, _, _ = write_pair(tmp_path)
        out = tmp_path / "x.ften"
        code = main(
            ["upsample", "--variant", "fade", "--decoder", str(de_path),
             "--encoder", str(en_path), "--d", "4", "--seed", seed, "--out", str(out)]
        )
        assert code == 3
        assert f"seed must be in [0, 2^64), got {seed}" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_kernel_size_exit_3(self, tmp_path, capsys):
        en_path, de_path, _, _ = write_pair(tmp_path)
        code = main(
            ["upsample", "--variant", "fade", "--decoder", str(de_path),
             "--encoder", str(en_path), "--K", "-5", "--out", str(tmp_path / "x.ften")]
        )
        assert code == 3
        assert "kernel size must be odd and positive, got -5" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path):
        code = main(
            ["upsample", "--variant", "nearest", "--decoder", str(tmp_path / "nope.ften"),
             "--out", str(tmp_path / "x.ften")]
        )
        assert code == 2

    def test_weights_round_trip(self, tmp_path):
        from fadeup.operators import OperatorConfig, build_operator, save_checkpoint

        en_path, de_path, en, de = write_pair(tmp_path, seed=2)
        cfg = OperatorConfig("fade", channels=3, compressed=8, seed=5)
        op = build_operator(cfg)
        ckpt = tmp_path / "w.fckp"
        save_checkpoint(op, ckpt)
        out = tmp_path / "out.ften"
        code = main(
            ["upsample", "--variant", "fade", "--decoder", str(de_path),
             "--encoder", str(en_path), "--seed", "999", "--d", "8",
             "--weights", str(ckpt), "--out", str(out)]
        )
        assert code == 0
        np.testing.assert_array_equal(T.read_ften(out), op.forward(en, de))

    def test_corrupt_weights_exit_2(self, tmp_path, capsys):
        _, de_path, _, _ = write_pair(tmp_path)
        ckpt = tmp_path / "w.fckp"
        # a valid empty-checkpoint header followed by bytes no entry accounts for
        ckpt.write_bytes(b"FCKP\x01\x00\x00\x00\x00\x00\x00\x00" + bytes(70))
        code = main(
            ["upsample", "--variant", "nearest", "--decoder", str(de_path),
             "--weights", str(ckpt), "--out", str(tmp_path / "x.ften")]
        )
        assert code == 2
        assert "checkpoint" in capsys.readouterr().err

    def test_weights_with_a_duplicated_entry_exit_2(self, tmp_path, capsys):
        from fadeup.operators import OperatorConfig, build_operator, save_checkpoint

        en_path, de_path, _, _ = write_pair(tmp_path, seed=2)
        entries = list(build_operator(OperatorConfig("fade", channels=3, compressed=8))
                       .named_parameters())
        ckpt = tmp_path / "w.fckp"
        save_checkpoint(SimpleNamespace(named_parameters=lambda: entries + entries[:1]), ckpt)
        code = main(
            ["upsample", "--variant", "fade", "--decoder", str(de_path),
             "--encoder", str(en_path), "--d", "8", "--weights", str(ckpt),
             "--out", str(tmp_path / "x.ften")]
        )
        assert code == 2
        assert f"{entries[0][0]!r} appears more than once" in capsys.readouterr().err

    def test_weights_from_another_config_exit_3(self, tmp_path, capsys):
        from fadeup.operators import OperatorConfig, build_operator, save_checkpoint

        en_path, de_path, _, _ = write_pair(tmp_path, seed=2)
        ckpt = tmp_path / "w.fckp"
        save_checkpoint(build_operator(OperatorConfig("fade", channels=3, compressed=8)), ckpt)
        code = main(
            ["upsample", "--variant", "fade", "--decoder", str(de_path),
             "--encoder", str(en_path), "--d", "6", "--weights", str(ckpt),
             "--out", str(tmp_path / "x.ften")]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "compressor_en.weights" in err and "(8, 3, 1, 1)" in err

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_weights_exit_3(self, tmp_path, capsys, value):
        """A checkpoint holding NaN or inf is rejected as a non-finite input
        is: reassembly would spread it over the output."""
        from fadeup.operators import OperatorConfig, build_operator, save_checkpoint

        en_path, de_path, _, _ = write_pair(tmp_path, seed=2)
        op = build_operator(OperatorConfig("fade", channels=3, compressed=4))
        ag.value_of(dict(op.named_parameters())["generator.weights"])[0, 1, 1, 2] = value
        ckpt, out = tmp_path / "w.fckp", tmp_path / "x.ften"
        save_checkpoint(op, ckpt)
        code = main(
            ["upsample", "--variant", "fade", "--decoder", str(de_path),
             "--encoder", str(en_path), "--d", "4", "--weights", str(ckpt),
             "--out", str(out)]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert str(ckpt) in err and "non-finite" in err and "generator.weights" in err
        assert not out.exists()


class TestDeterminism:
    def test_upsample_rerun_byte_identical(self, tmp_path):
        en_path, de_path, _, _ = write_pair(tmp_path, seed=3)
        argv = [
            "upsample", "--variant", "fade_lite", "--decoder", str(de_path),
            "--encoder", str(en_path), "--seed", "11", "--out", "",
        ]
        blobs = []
        for run in range(2):
            out = tmp_path / f"run{run}.ften"
            argv[-1] = str(out)
            assert main(argv) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_cost_csv_byte_identical(self, tmp_path):
        blobs = []
        for run in range(2):
            out = tmp_path / f"cost{run}.csv"
            assert main(["cost", "--csv", str(out)]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]


class TestClosedStdout:
    @pytest.mark.parametrize(
        "argv", [["cost", "--csv", "cost.csv"], ["verify", "--suite", "equivalence", "--seeds", "3"]]
    )
    def test_command_finishes_silently(self, tmp_path, argv):
        """A reader that is gone before the first line (``| head -c 0``)
        changes neither the exit status nor the files, and leaves stderr empty."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "fadeup", *argv], cwd=tmp_path, stdout=write_end,
                stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=SRC), text=True,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (0, "")
        if argv[0] == "cost":
            assert (tmp_path / "cost.csv").read_text().startswith("row,gflops")
            assert (tmp_path / "cost.csv.manifest.json").exists()


class TestVerify:
    def test_cost_suite_prints_golden(self, capsys):
        assert main(["verify", "--suite", "cost"]) == 0
        out = capsys.readouterr().out
        assert "2.50" in out and "4.56" in out and "1.53" in out
        assert "73984" in out and "47424" in out and "13281" in out
        assert "PASS" in out

    def test_identities_suite(self, capsys):
        assert main(["verify", "--suite", "identities"]) == 0
        assert "FAIL" not in capsys.readouterr().out.replace("PASS", "")

    def test_equivalence_small(self, capsys):
        assert main(["verify", "--suite", "equivalence", "--seeds", "5"]) == 0
        assert "worst rel dev" in capsys.readouterr().out

    def test_gradcheck_small(self, capsys):
        assert main(["verify", "--suite", "gradcheck", "--seeds", "1"]) == 0
        assert "worst rel err" in capsys.readouterr().out

    @pytest.mark.parametrize("suite", ["equivalence", "gradcheck"])
    @pytest.mark.parametrize("seeds", ["0", "-2"])
    def test_no_seeds_flag_exit_3(self, capsys, suite, seeds):
        assert main(["verify", "--suite", suite, "--seeds", seeds]) == 3
        captured = capsys.readouterr()
        assert "seeds" in captured.err and "PASS" not in captured.out

    @pytest.mark.parametrize("suite", ["equivalence", "gradcheck"])
    def test_no_seeds_env_exit_3(self, monkeypatch, capsys, suite):
        monkeypatch.setenv("FADEUP_SEEDS", "0")
        assert main(["verify", "--suite", suite]) == 3
        captured = capsys.readouterr()
        assert "seeds" in captured.err and "PASS" not in captured.out


class TestCost:
    def test_table_output(self, capsys):
        assert main(["cost", "--C", "256", "--d", "64", "--K", "5", "--H", "112", "--W", "112"]) == 0
        out = capsys.readouterr().out
        assert "2.50" in out and "4.56" in out and "1.53" in out

    def test_unknown_row_exit_3(self, capsys):
        assert main(["cost", "--rows", "deconv"]) == 3

    def test_csv_columns(self, tmp_path):
        out = tmp_path / "cost.csv"
        assert main(["cost", "--rows", "fade,carafe", "--csv", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "row,gflops,flops,params,extras"
        assert len(lines) == 3


    def test_even_kernel_exit_3(self, capsys):
        assert main(["cost", "--K", "4"]) == 3
        captured = capsys.readouterr()
        assert "kernel_size must be odd, got 4" in captured.err
        assert "GFLOPs" not in captured.out

    def test_settings_from_env_and_config(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "cost.cfg"
        cfg.write_text("K=3\n")
        monkeypatch.setenv("FADEUP_H", "56")
        out = tmp_path / "cost.csv"
        assert main(["--config", str(cfg), "cost", "--rows", "fade", "--csv", str(out)]) == 0
        assert "K=3 H=56 W=112" in capsys.readouterr().out
        manifest = json.loads((tmp_path / "cost.csv.manifest.json").read_text())
        assert manifest["config"]["K"] == 3 and manifest["config"]["H"] == 56

    def test_python_dash_m(self):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        proc = subprocess.run(
            [sys.executable, "-m", "fadeup", "cost",
             "--C", "256", "--d", "64", "--K", "5", "--H", "112", "--W", "112"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "4.56" in proc.stdout


class TestTrainCli:
    def test_train_writes_outputs(self, tmp_path):
        outdir = tmp_path / "run"
        code = main(
            ["train", "--task", "binary_shapes", "--variant", "b6_full",
             "--epochs", "2", "--size", "32", "--count", "4", "--seed", "1",
             "--outdir", str(outdir)]
        )
        assert code == 0
        assert (outdir / "metrics.csv").exists()
        assert (outdir / "manifest.json").exists()
        assert (outdir / "prediction.pgm").exists()
        assert (outdir / "gate_stage1.pgm").exists()
        header = (outdir / "metrics.csv").read_text().splitlines()[0]
        assert header.startswith("epoch,loss")

    @pytest.mark.parametrize("flag,env", [(["--impl", "direct"], None)])
    def test_untrainable_impl_exit_3(self, tmp_path, monkeypatch, capsys, flag, env):
        if env is not None:
            monkeypatch.setenv("FADEUP_IMPL", env)
        code = main(
            ["train", "--task", "binary_shapes", "--variant", "fade", "--epochs", "1",
             "--size", "16", "--count", "1", "--outdir", str(tmp_path / "run")] + flag
        )
        assert code == 3
        assert "impl" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,env", [("0", None), ("-2", None), (None, "0")])
    def test_epochs_below_one_exit_3(self, tmp_path, monkeypatch, capsys, flag, env):
        if env is not None:
            monkeypatch.setenv("FADEUP_EPOCHS", env)
        outdir = tmp_path / "run"
        code = main(
            ["train", "--task", "binary_shapes", "--variant", "nearest", "--size", "16",
             "--count", "1", "--outdir", str(outdir)]
            + ([] if flag is None else ["--epochs", flag])
        )
        assert code == 3
        assert "epochs must be >= 1" in capsys.readouterr().err
        assert not (outdir / "metrics.csv").exists()

    def test_bogus_variant_env_leaves_no_outdir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("FADEUP_VARIANT", "bogus")
        outdir = tmp_path / "run"
        code = main(
            ["train", "--task", "binary_shapes", "--epochs", "1", "--size", "16",
             "--count", "1", "--outdir", str(outdir)]
        )
        assert code == 3
        assert "variant" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("lr", ["1e9", "nan", "-1"])
    def test_bad_or_diverging_lr_exit_3_without_outdir(self, tmp_path, capsys, lr):
        outdir = tmp_path / "run"
        with np.errstate(all="ignore"):
            code = main(
                ["train", "--task", "binary_shapes", "--variant", "nearest", "--epochs", "2",
                 "--size", "16", "--count", "2", "--lr", lr, "--outdir", str(outdir)]
            )
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not outdir.exists()

    @pytest.mark.parametrize(
        "task,count,epochs", [("texture_recon", "1", "1"), ("multiclass_shapes", "2", "2")]
    )
    def test_divergence_is_one_error_line(self, tmp_path, task, count, epochs):
        """A net that turns non-finite in the last step is caught by the
        validation forward, and NumPy's overflow warnings stay off stderr."""
        outdir = tmp_path / "run"
        proc = subprocess.run(
            [sys.executable, "-m", "fadeup", "train", "--task", task, "--size", "16",
             "--count", count, "--epochs", epochs, "--lr", "1e9", "--outdir", str(outdir)],
            env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: non-finite ") and proc.stderr.count("\n") == 1
        assert not outdir.exists()

    def test_finite_blow_up_exit_3(self, tmp_path, capsys):
        """Logits of ~1e35 are finite, so only the bound on the validation
        output stops this run from reporting an mIoU."""
        outdir = tmp_path / "run"
        code = main(
            ["train", "--task", "multiclass_shapes", "--size", "16", "--count", "1",
             "--epochs", "1", "--lr", "1e9", "--outdir", str(outdir)]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: validation output reaches ") and "beyond the bound" in err
        assert not outdir.exists()

    def test_settings_from_env_and_config(self, tmp_path, monkeypatch):
        argv = ["train", "--task", "binary_shapes", "--variant", "fade_lite", "--epochs", "2",
                "--count", "2"]
        assert main(argv + ["--lr", "0.05", "--size", "16", "--outdir",
                            str(tmp_path / "flag")]) == 0
        cfg = tmp_path / "train.cfg"
        cfg.write_text("size=16\n")
        monkeypatch.setenv("FADEUP_LR", "0.05")
        resolved = tmp_path / "resolved"
        assert main(["--config", str(cfg)] + argv + ["--outdir", str(resolved)]) == 0
        assert (resolved / "metrics.csv").read_bytes() == (
            tmp_path / "flag" / "metrics.csv"
        ).read_bytes()
        manifest = json.loads((resolved / "manifest.json").read_text())
        assert manifest["config"]["lr"] == 0.05 and manifest["config"]["size"] == 16

    def test_train_rerun_byte_identical_csv(self, tmp_path):
        blobs = []
        for run in range(2):
            outdir = tmp_path / f"run{run}"
            assert main(
                ["train", "--task", "texture_recon", "--variant", "nearest",
                 "--epochs", "2", "--size", "32", "--count", "4", "--seed", "2",
                 "--outdir", str(outdir)]
            ) == 0
            blobs.append((outdir / "metrics.csv").read_bytes())
        assert blobs[0] == blobs[1]


class TestAblateCli:
    @pytest.mark.parametrize("seeds", ["0", "-1"])
    def test_no_seeds_exit_3(self, tmp_path, capsys, seeds):
        outdir = tmp_path / "abl"
        code = main(
            ["ablate", "--seeds", seeds, "--epochs", "1", "--size", "16", "--count", "1",
             "--outdir", str(outdir)]
        )
        assert code == 3
        assert "seeds" in capsys.readouterr().err
        assert not (outdir / "summary.csv").exists()


    @pytest.mark.parametrize("flag,value", [("--size", "18"), ("--count", "0")])
    def test_bad_task_leaves_no_outdir(self, tmp_path, capsys, flag, value):
        outdir = tmp_path / "abl"
        code = main(
            ["ablate", "--seeds", "1", "--epochs", "1", "--size", "16", "--count", "1",
             flag, value, "--outdir", str(outdir)]
        )
        assert code == 3
        assert capsys.readouterr().err.startswith("error: ")
        assert not outdir.exists()

    @pytest.mark.parametrize("flag,env", [("0", None), ("-2", None), (None, "0")])
    def test_epochs_below_one_exit_3(self, tmp_path, monkeypatch, capsys, flag, env):
        if env is not None:
            monkeypatch.setenv("FADEUP_EPOCHS", env)
        outdir = tmp_path / "abl"
        code = main(
            ["ablate", "--seeds", "1", "--size", "16", "--count", "1", "--outdir", str(outdir)]
            + ([] if flag is None else ["--epochs", flag])
        )
        assert code == 3
        assert "epochs must be >= 1" in capsys.readouterr().err
        assert not (outdir / "summary.csv").exists()

    def test_settings_from_env_and_config(self, tmp_path, monkeypatch):
        cfg = tmp_path / "abl.cfg"
        cfg.write_text("seeds=1\n")
        monkeypatch.setenv("FADEUP_EPOCHS", "2")
        outdir = tmp_path / "abl"
        assert main(
            ["--config", str(cfg), "ablate", "--size", "16", "--count", "1",
             "--outdir", str(outdir)]
        ) == 0
        header = (outdir / "summary.csv").read_text().splitlines()[0]
        assert header == "variant,label,seed0,mean"
        history = (outdir / "b6_full_seed0.csv").read_text().splitlines()
        assert len(history) == 1 + 2
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["config"]["seeds"] == 1 and manifest["config"]["epochs"] == 2


class TestConfigPrecedence:
    def test_config_file_used(self, tmp_path, capsys):
        cfg = tmp_path / "fade.cfg"
        cfg.write_text("C=128  # smaller\nd=32\n")
        assert main(["--config", str(cfg), "cost", "--rows", "fade"]) == 0
        out = capsys.readouterr().out
        assert "C=128 d=32" in out

    def test_flag_beats_config(self, tmp_path, capsys):
        cfg = tmp_path / "fade.cfg"
        cfg.write_text("C=128\n")
        assert main(["--config", str(cfg), "cost", "--rows", "fade", "--C", "64"]) == 0
        assert "C=64" in capsys.readouterr().out

    def test_env_beats_config(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "fade.cfg"
        cfg.write_text("C=128\n")
        monkeypatch.setenv("FADEUP_C", "96")
        assert main(["--config", str(cfg), "cost", "--rows", "fade"]) == 0
        assert "C=96" in capsys.readouterr().out

    def test_bad_config_line_exit_3(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("not a pair\n")
        assert main(["--config", str(cfg), "cost"]) == 3

    def test_config_not_utf8_exit_2_names_file(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"seed=\xff1\n")
        assert main(["--config", str(cfg), "cost"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(cfg) in err and "utf-8" in err

    def test_bad_flag_exit_3(self):
        assert main(["cost", "--C", "notanint"]) == 3

    def test_bad_env_value_names_setting_and_source(self, monkeypatch, capsys):
        monkeypatch.setenv("FADEUP_K", "abc")
        assert main(["cost", "--rows", "fade"]) == 3
        err = capsys.readouterr().err
        assert "K" in err and "FADEUP_K" in err and "'abc'" in err and "int" in err

    def test_bad_config_value_names_setting_and_source(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("seed=x\n")
        code = main(["--config", str(cfg), "train", "--task", "binary_shapes",
                     "--outdir", str(tmp_path / "run")])
        assert code == 3
        err = capsys.readouterr().err
        assert "config key seed" in err and "'x'" in err and "int" in err
        assert not (tmp_path / "run").exists()


def _bytes_by_name(outdir):
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


class TestRewriteInPlace:
    """A rerun into existing outputs rewrites them in place, and leaves
    each file as a fresh run would."""

    def test_shorter_rewrite_leaves_no_stale_tail(self, tmp_path):
        long_csv, fresh_csv = tmp_path / "cost.csv", tmp_path / "fresh.csv"
        assert main(["cost", "--csv", str(long_csv)]) == 0
        assert main(["cost", "--rows", "fade", "--csv", str(long_csv)]) == 0
        assert main(["cost", "--rows", "fade", "--csv", str(fresh_csv)]) == 0
        assert long_csv.read_bytes() == fresh_csv.read_bytes()
        manifest = json.loads((tmp_path / "cost.csv.manifest.json").read_text())
        assert manifest["config"]["rows"] == "fade"

        train = ["train", "--task", "binary_shapes", "--variant", "b6_full", "--count", "1"]
        rerun, fresh = tmp_path / "rerun", tmp_path / "fresh"
        assert main(train + ["--epochs", "2", "--size", "32", "--outdir", str(rerun)]) == 0
        for outdir in (rerun, fresh):
            assert main(train + ["--epochs", "1", "--size", "16", "--outdir", str(outdir)]) == 0
        got, want = _bytes_by_name(rerun), _bytes_by_name(fresh)
        manifests = [json.loads(files.pop("manifest.json")) for files in (got, want)]
        assert got == want
        for m in manifests:
            m.pop("timestamp")
            m["outputs"] = [os.path.basename(path) for path in m["outputs"]]
        assert manifests[0] == manifests[1]

    def test_symlink_out_stays_a_symlink(self, tmp_path):
        en_path, de_path, _, _ = write_pair(tmp_path, seed=5)
        argv = ["upsample", "--variant", "fade", "--decoder", str(de_path),
                "--encoder", str(en_path), "--seed", "2", "--out"]
        target, link, fresh = tmp_path / "target.ften", tmp_path / "link.ften", tmp_path / "fresh.ften"
        T.write_ften(target, np.zeros((2, 8, 16, 16), np.float32))
        link.symlink_to(target)
        assert main(argv + [str(link)]) == 0
        assert main(argv + [str(fresh)]) == 0
        assert link.is_symlink()
        assert target.read_bytes() == fresh.read_bytes()


class TestNoTruncation:
    def test_reruns_never_truncate_an_existing_file(self, tmp_path, monkeypatch):
        """Closing a file that open(path, "w"/"wb") truncated to 0 bytes
        costs ~50 ms on ext4 (auto_da_alloc), whatever its size, so every
        output is rewritten in place.  Each command runs twice into the same
        paths, and no call may open an existing file with O_TRUNC or "w"."""
        en_path, de_path, _, _ = write_pair(tmp_path, seed=1)
        commands = [
            ["upsample", "--variant", "fade_lite", "--decoder", str(de_path),
             "--encoder", str(en_path), "--out", str(tmp_path / "up.ften")],
            ["train", "--task", "binary_shapes", "--variant", "b6_full", "--epochs", "1",
             "--size", "16", "--count", "1", "--outdir", str(tmp_path / "run")],
            ["ablate", "--seeds", "1", "--epochs", "1", "--size", "16", "--count", "1",
             "--outdir", str(tmp_path / "abl")],
            ["cost", "--rows", "fade", "--csv", str(tmp_path / "cost.csv")],
        ]
        truncations = []
        real_os_open, real_open = os.open, builtins.open

        def guarded_os_open(path, flags, *args, **kw):
            if flags & os.O_TRUNC and os.path.exists(path):
                truncations.append(("os.open", os.fspath(path)))
            return real_os_open(path, flags, *args, **kw)

        def guarded_open(file, mode="r", *args, **kw):
            if not isinstance(file, int) and "w" in mode and os.path.exists(file):
                truncations.append((f"open {mode!r}", os.fspath(file)))
            return real_open(file, mode, *args, **kw)

        monkeypatch.setattr(os, "open", guarded_os_open)
        monkeypatch.setattr(builtins, "open", guarded_open)
        monkeypatch.setattr(io, "open", guarded_open)
        for argv in commands + commands:
            assert main(argv) == 0, argv
        assert truncations == []

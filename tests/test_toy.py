import dataclasses
import hashlib
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from fadeup import autograd as ag
from fadeup import toy
from fadeup.autograd import DivergenceError, Node
from fadeup.cli import ABLATION_VARIANTS
from fadeup.operators import OperatorConfig, build_operator
from fadeup.tensor import ShapeError
from fadeup.toy import (
    ToyTask,
    TrainConfig,
    make_toy_task,
    metric_band_iou,
    metric_miou,
    metric_mse,
    metric_psnr,
    train_toy,
)


class TestTasks:
    def test_same_seed_identical(self):
        t = ToyTask("multiclass_shapes_segmentation", size=48, classes=3, seed=11, count=3)
        x1, y1 = make_toy_task(t)
        x2, y2 = make_toy_task(t)
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(y1, y2)

    def test_different_seeds_differ(self):
        a = make_toy_task(ToyTask("binary_shapes_segmentation", size=32, seed=0, count=1))[0]
        b = make_toy_task(ToyTask("binary_shapes_segmentation", size=32, seed=1, count=1))[0]
        assert not np.array_equal(a, b)

    def test_inputs_in_unit_range(self):
        for kind in toy.TASK_KINDS:
            t = ToyTask(kind, size=32, classes=2, seed=5, count=2)
            x, _ = make_toy_task(t)
            assert x.min() >= 0.0 and x.max() <= 1.0

    @pytest.mark.parametrize("classes", [2, 3, 4])
    def test_label_histogram_covers_all_classes(self, classes):
        """Every class keeps pixels at size >= 64 across 100 seeds."""
        kind = (
            "binary_shapes_segmentation"
            if classes == 2
            else "multiclass_shapes_segmentation"
        )
        for seed in range(100):
            t = ToyTask(kind, size=64, classes=classes, seed=seed, count=1)
            _, y = make_toy_task(t)
            assert set(np.unique(y)) == set(range(classes)), f"seed {seed}"

    def test_labels_dtype_and_range(self):
        t = ToyTask("multiclass_shapes_segmentation", size=32, classes=4, seed=0, count=2)
        _, y = make_toy_task(t)
        assert y.dtype == np.int64
        assert y.min() >= 0 and y.max() < 4

    def test_reconstruction_targets_equal_inputs(self):
        t = ToyTask("texture_reconstruction", size=32, seed=0, count=2)
        x, y = make_toy_task(t)
        np.testing.assert_array_equal(x, y)
        assert y is not x

    def test_validation(self):
        with pytest.raises(ShapeError, match="kind"):
            ToyTask("mnist", size=32)
        with pytest.raises(ShapeError, match="divisible"):
            ToyTask("binary_shapes_segmentation", size=30)
        with pytest.raises(ShapeError, match="2 classes"):
            ToyTask("binary_shapes_segmentation", classes=3)


class TestMetrics:
    def test_perfect_prediction(self):
        y = np.random.default_rng(0).integers(0, 3, size=(2, 8, 8))
        assert metric_miou(y, y, 3) == 1.0
        x = np.random.default_rng(1).uniform(size=(1, 1, 4, 4))
        assert metric_mse(x, x) == 0.0
        assert metric_psnr(x, x) == 99.0

    def test_all_wrong_binary(self):
        t = np.zeros((4, 4), dtype=np.int64)
        p = np.ones((4, 4), dtype=np.int64)
        assert metric_miou(p, t, 2) == 0.0

    def test_checkerboard_vs_inverse(self):
        yy, xx = np.mgrid[0:4, 0:4]
        t = ((yy + xx) % 2).astype(np.int64)
        assert metric_miou(1 - t, t, 2) == 0.0

    def test_miou_skips_class_absent_everywhere(self):
        t = np.zeros((4, 4), dtype=np.int64)
        p = np.zeros((4, 4), dtype=np.int64)
        p[0, 0] = 1
        # class 2 absent from both: skipped; class 1 predicted-only: counts 0
        got = metric_miou(p, t, 3)
        iou0 = 15 / 16
        assert got == pytest.approx((iou0 + 0.0) / 2)

    def test_psnr_formula(self):
        p = np.zeros((1, 1, 2, 2))
        t = np.full((1, 1, 2, 2), 0.5)
        assert metric_psnr(p, t) == pytest.approx(10 * np.log10(1 / 0.25))

    def test_psnr_propagates_non_finite_mse(self):
        t = np.zeros((1, 1, 2, 2))
        assert np.isnan(metric_psnr(np.full_like(t, np.nan), t))
        assert metric_psnr(np.full_like(t, np.inf), t) == -np.inf

    def test_band_iou_perfect_and_flat(self):
        y = np.zeros((8, 8), dtype=np.int64)
        y[2:6, 2:6] = 1
        assert metric_band_iou(y, y, 2) == 1.0
        flat = np.zeros((8, 8), dtype=np.int64)
        assert metric_band_iou(flat, flat, 2) == 1.0

    def test_band_iou_focuses_on_boundary(self):
        """A one-pixel boundary shift hurts band IoU more than mask IoU."""
        t = np.zeros((32, 32), dtype=np.int64)
        t[8:24, 8:24] = 1
        p = np.zeros((32, 32), dtype=np.int64)
        p[8:24, 9:25] = 1
        assert metric_band_iou(p, t, 2) < metric_miou(p, t, 2)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            metric_miou(np.zeros((2, 2), np.int64), np.zeros((3, 3), np.int64), 2)


class TestTraining:
    def test_bit_reproducible(self):
        task = ToyTask("binary_shapes_segmentation", size=32, seed=3, count=4)
        cfg = TrainConfig("nearest", epochs=3, seed=3)
        a = train_toy(cfg, task)
        b = train_toy(cfg, task)
        assert a.losses == b.losses
        assert a.final == b.final

    def test_history_columns(self):
        task = ToyTask("binary_shapes_segmentation", size=32, seed=0, count=4)
        cfg = TrainConfig("bilinear", epochs=2, seed=0)
        res = train_toy(cfg, task)
        assert len(res.history) == 2
        assert {"epoch", "loss", "miou", "band_iou"} <= set(res.history[-1])

    def test_reconstruction_metrics(self):
        task = ToyTask("texture_reconstruction", size=32, seed=0, count=4)
        cfg = TrainConfig("nearest", epochs=2, seed=0)
        res = train_toy(cfg, task)
        assert {"mse", "psnr"} <= set(res.final)

    def test_trainable_variant_learns(self):
        task = ToyTask("binary_shapes_segmentation", size=32, seed=1, count=8)
        cfg = TrainConfig("b4_semishift_nogate", epochs=10, seed=1)
        res = train_toy(cfg, task)
        assert res.losses[-1] < res.losses[0]

    def test_divergence_in_the_last_step_raises(self):
        """The loss check runs before each update, so only the validation
        forward sees an update that turns the net non-finite in the last step."""
        task = ToyTask("texture_reconstruction", size=16, seed=0, count=1)
        cfg = TrainConfig("fade", epochs=1, lr=1e9)
        with pytest.raises(DivergenceError, match="validation output after epoch 0"):
            train_toy(cfg, task)

    def test_divergence_prints_no_numpy_warnings(self, recwarn):
        task = ToyTask("multiclass_shapes_segmentation", size=16, classes=3, count=2)
        with pytest.raises(DivergenceError):
            train_toy(TrainConfig("fade", epochs=2, lr=1e9), task)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_gate_parts_exposed(self):
        task = ToyTask("binary_shapes_segmentation", size=32, seed=0, count=2)
        cfg = TrainConfig("b6_full", epochs=1, seed=0)
        res = train_toy(cfg, task)
        x, _ = make_toy_task(task)
        _, parts = res.net.forward((x - 0.5).astype(np.float32), want_parts=True)
        assert "gate" in parts["stage1"] and "gate" in parts["stage2"]

    def test_each_epoch_evaluated_once(self, monkeypatch):
        """One validation forward per epoch, none after the loop, and
        ``final`` is the last history row's metric columns."""
        calls = []
        evaluate = toy._evaluate

        def spy(net, task, inputs, targets, epoch):
            calls.append(epoch)
            return evaluate(net, task, inputs, targets, epoch)

        monkeypatch.setattr(toy, "_evaluate", spy)
        task = ToyTask("binary_shapes_segmentation", size=16, seed=2, count=2)
        res = train_toy(TrainConfig("nearest", epochs=3), task)
        assert calls == [0, 1, 2]
        last = res.history[-1]
        assert res.final == {k: v for k, v in last.items() if k not in ("epoch", "loss")}
        assert list(res.final) == ["miou", "band_iou"]

    def test_backward_leaves_gradients_on_parameters_only(self):
        """After one training step's backward every parameter holds a
        gradient and no interior node of the tape does."""
        task = ToyTask("multiclass_shapes_segmentation", size=16, classes=3, count=2)
        x, y = make_toy_task(task)
        net = toy.ToyNet("b6_full", in_channels=x.shape[1], out_channels=3, features=8, compressed=4)
        loss = ag.softmax_cross_entropy(net.forward(toy.net_inputs(x)), y)
        ag.backward(loss)
        interior = [n for n in ag._topo(loss) if n._parents]
        assert interior and all(n.grad is None for n in interior)
        for p in net.parameters():
            assert p.grad is not None and p.grad.shape == p.data.shape, p.name

    def test_b6_step_peak_is_bounded(self):
        """One b6 training step, forward, loss and backward, at a small shape:
        the tape holds what the VJPs read, not every interior output, so the
        peak stays within 12 of the stage-2 kernel maps (n, K^2, h, w)."""
        task = ToyTask("multiclass_shapes_segmentation", size=24, classes=3, count=2)
        x, y = make_toy_task(task)
        net = toy.ToyNet("b6_full", in_channels=x.shape[1], out_channels=3, features=8, compressed=4)
        inputs = toy.net_inputs(x)
        tracemalloc.start()
        try:
            ag.backward(ag.softmax_cross_entropy(net.forward(inputs), y))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kmap = 2 * 25 * 24 * 24 * 4
        assert peak <= 12 * kmap, f"peak {peak / kmap:.2f} kernel maps"


class TestTrainConfig:
    def test_fields_are_what_the_cli_sets(self):
        assert [f.name for f in dataclasses.fields(TrainConfig)] == [
            "variant", "epochs", "lr", "seed"
        ]

    def test_recipe_constants_readable_off_a_config(self):
        cfg = TrainConfig("fade")
        assert (cfg.momentum, cfg.clip_norm) == (0.9, 5.0)
        assert (cfg.features, cfg.compressed, cfg.batch) == (12, 16, 4)

    @pytest.mark.parametrize("epochs", [0, -1])
    def test_epochs_below_one_rejected(self, epochs):
        with pytest.raises(ValueError, match="epochs must be >= 1"):
            TrainConfig("fade", epochs=epochs)


class TestClipGradients:
    def test_large_finite_gradient_is_clipped_not_zeroed(self):
        """One f32 entry of 3e19 squares past the f32 range; the clip still
        brings the global norm to max_norm and keeps the direction."""
        rng = np.random.default_rng(0)
        params = [Node(np.zeros((3, 4), np.float32)), Node(np.zeros(5, np.float32))]
        for p in params:
            p.grad = rng.normal(size=p.data.shape).astype(np.float32)
        params[0].grad[1, 2] = 3e19
        before = np.concatenate([p.grad.astype(np.float64).ravel() for p in params])
        toy._clip_gradients(params, 5.0)
        after = np.concatenate([p.grad.astype(np.float64).ravel() for p in params])
        norm = np.linalg.norm(after)
        assert norm == pytest.approx(5.0, rel=1e-6)
        np.testing.assert_allclose(after / norm, before / np.linalg.norm(before), rtol=1e-6)


class TestRecipeHelpers:
    def test_one_sample_validation_split_is_a_prefix(self):
        task = ToyTask("multiclass_shapes_segmentation", size=32, classes=3, seed=4, count=2)
        x1, y1 = make_toy_task(toy.validation_task(task, 1))
        x12, y12 = make_toy_task(toy.validation_task(task))
        assert x12.shape[0] == 12
        np.testing.assert_array_equal(x1[0], x12[0])
        np.testing.assert_array_equal(y1[0], y12[0])

    def test_predict_argmax_or_clip(self):
        out = 3.0 * np.random.default_rng(0).normal(size=(2, 3, 4, 4)).astype(np.float32)
        seg = ToyTask("multiclass_shapes_segmentation", classes=3)
        np.testing.assert_array_equal(toy.predict(seg, out), out.argmax(axis=1))
        recon = toy.predict(ToyTask("texture_reconstruction"), out[:, :1])
        assert recon.dtype == np.float64
        assert recon.min() == 0.0 and recon.max() == 1.0
        np.testing.assert_array_equal(recon, np.clip(out[:, :1].astype(np.float64), 0.0, 1.0))


class TestTrainStepMemory:
    """One training step of each ablation variant at the ``TrainConfig``
    defaults (batch 4, 48 x 48 three-class shapes), as the train_ablation
    benchmark runs it: zero_grad, forward, loss, backward, clipping and the
    optimizer step.  The peak follows the tape, not the ops' scratch: the
    conv forward counts its kernel-row products in its strip budget, and
    backward hands pass-through gradients on.  Before both, b2 peaked at
    6.896 MiB and b6 at 6.825.  backward also releases each record's VJPs,
    and the forward arrays they read, once they have run, so the tape
    shrinks as the pass walks back: b3_naive peaked at 5.42 MiB and b6 at
    5.01, from 6.59 and 6.61 with the whole tape kept to the end.  With
    reassembly's VJPs holding no second kernel map and the convolution
    VJPs' strips at a floor of 2^15 values, b1-b6 peak at 4.01, 4.09, 5.06,
    4.04, 4.47 and 4.65 MiB."""

    @pytest.mark.parametrize("variant", [v for v, _ in ABLATION_VARIANTS])
    def test_step_peak_is_bounded(self, variant):
        cfg = TrainConfig(variant)
        task = ToyTask("multiclass_shapes_segmentation", size=48, classes=3, count=cfg.batch)
        x, y = make_toy_task(task)
        net = toy.ToyNet(
            variant, in_channels=1, out_channels=3, features=cfg.features, compressed=cfg.compressed
        )
        opt = ag.MomentumSGD(net.parameters(), cfg.lr, cfg.momentum)
        inputs = toy.net_inputs(x)
        tracemalloc.start()
        try:
            opt.zero_grad()
            loss = ag.softmax_cross_entropy(net.forward(inputs), y)
            ag.backward(loss)
            toy._clip_gradients(net.parameters(), cfg.clip_norm)
            opt.step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5.15 * 2**20, f"peak {peak / 2**20:.3f} MiB"


class TestStepDeterminism:
    def test_bit_identical_with_one_blas_thread(self):
        """Toy training steps of b1-b6 and a taped fade step hash the same in
        this process and in one whose BLAS runs one thread."""
        env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS="1",
            OMP_NUM_THREADS="1",
            PYTHONPATH=os.pathsep.join(
                [os.path.dirname(os.path.dirname(toy.__file__)), os.path.dirname(__file__)]
            ),
        )
        script = "import test_toy as t; print(t.step_digest())"
        run = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        assert run.stdout.strip() == step_digest()


def step_digest() -> str:
    """One line per part, its name and a sha256 prefix: three toy training
    steps of each of b1-b6 at the ``TrainConfig`` defaults on 48 x 48
    three-class shapes (the losses and the final weights), and one taped
    f32 fade forward and backward at C=16, d=8 from a 12 x 12 decoder
    (the inputs' and parameters' gradients)."""
    lines = []
    task = ToyTask("multiclass_shapes_segmentation", size=48, classes=3, seed=3, count=8)
    x, y = make_toy_task(task)
    inputs = toy.net_inputs(x)
    for variant, _ in ABLATION_VARIANTS:
        cfg = TrainConfig(variant)
        net = toy.ToyNet(
            variant, in_channels=1, out_channels=3, features=cfg.features,
            compressed=cfg.compressed, seed=3,
        )
        opt = ag.MomentumSGD(net.parameters(), cfg.lr, cfg.momentum)
        digest = hashlib.sha256()
        for step in range(3):
            s = step % 2 * cfg.batch
            opt.zero_grad()
            out = net.forward(inputs[s : s + cfg.batch])
            loss = ag.softmax_cross_entropy(out, y[s : s + cfg.batch])
            digest.update(np.asarray(ag.value_of(loss)).tobytes())
            ag.backward(loss)
            toy._clip_gradients(net.parameters(), cfg.clip_norm)
            opt.step()
        for p in net.parameters():
            digest.update(p.data.tobytes())
        lines.append(f"{variant} {digest.hexdigest()[:16]}")
    rng = np.random.default_rng(3)
    op = build_operator(OperatorConfig("fade", channels=16, compressed=8, seed=3))
    params = op.wrap_parameters()
    x_en, x_de = (Node(rng.normal(size=(2, 16, h, h)).astype(np.float32)) for h in (24, 12))
    out = op.forward(x_en, x_de)
    ag.backward(ag.sum_all(ag.mul(out, rng.normal(size=out.shape).astype(np.float32))))
    digest = hashlib.sha256()
    for leaf in [x_en, x_de, *params]:
        digest.update(leaf.grad.tobytes())
    lines.append(f"fade {digest.hexdigest()[:16]}")
    return "\n".join(lines)

import numpy as np
import pytest

from fadeup import toy
from fadeup.autograd import DivergenceError
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
        cfg = TrainConfig("nearest", epochs=3, batch=2, seed=3, metrics_every=0)
        a = train_toy(cfg, task)
        b = train_toy(cfg, task)
        assert a.losses == b.losses
        assert a.final == b.final

    def test_history_columns(self):
        task = ToyTask("binary_shapes_segmentation", size=32, seed=0, count=4)
        cfg = TrainConfig("bilinear", epochs=2, batch=2, seed=0, metrics_every=1)
        res = train_toy(cfg, task)
        assert len(res.history) == 2
        assert {"epoch", "loss", "miou", "band_iou"} <= set(res.history[-1])

    def test_reconstruction_metrics(self):
        task = ToyTask("texture_reconstruction", size=32, seed=0, count=4)
        cfg = TrainConfig("nearest", epochs=2, batch=2, seed=0)
        res = train_toy(cfg, task)
        assert {"mse", "psnr"} <= set(res.final)

    def test_trainable_variant_learns(self):
        task = ToyTask("binary_shapes_segmentation", size=32, seed=1, count=8)
        cfg = TrainConfig("b4_semishift_nogate", epochs=10, seed=1, metrics_every=0)
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
        cfg = TrainConfig("b6_full", epochs=1, batch=2, seed=0, metrics_every=0)
        res = train_toy(cfg, task)
        x, _ = make_toy_task(task)
        _, parts = res.net.forward((x - 0.5).astype(np.float32), want_parts=True)
        assert "gate" in parts["stage1"] and "gate" in parts["stage2"]


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

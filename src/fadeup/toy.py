"""Desk-scale synthetic tasks, a small encoder-decoder net, and metrics.

The harness exists to compare kernel sources (encoder-only / decoder-only
/ encoder-decoder) and the gate at toy scale: procedural shape
segmentation and fine-texture reconstruction benchmark how well an
upsampling operator preserves regions versus details.  Everything is
deterministic given the seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import autograd as ag
from .autograd import MomentumSGD, Node, backward, value_of
from .kernelgen import DEFAULT_FORM
from .operators import VARIANT_SPECS, OperatorConfig, build_operator
from .rng import ShuffledLcg, init_conv_weights
from .tensor import PadSpec, ShapeError

TASK_KINDS = (
    "binary_shapes_segmentation",
    "multiclass_shapes_segmentation",
    "texture_reconstruction",
)


@dataclass(frozen=True)
class ToyTask:
    kind: str
    size: int = 64
    classes: int = 2
    seed: int = 0
    count: int = 16

    def __post_init__(self):
        if self.kind not in TASK_KINDS:
            raise ShapeError(f"unknown task kind {self.kind!r}; pick one of {TASK_KINDS}")
        if self.size < 16 or self.size % 4:
            raise ShapeError("task size must be >= 16 and divisible by 4")
        if self.kind == "binary_shapes_segmentation" and self.classes != 2:
            raise ShapeError("binary segmentation has exactly 2 classes")
        if self.kind == "multiclass_shapes_segmentation" and not 2 <= self.classes <= 5:
            raise ShapeError("multiclass segmentation supports 2..5 classes")
        if self.count < 1:
            raise ShapeError("count must be >= 1")

    @property
    def is_segmentation(self) -> bool:
        return self.kind != "texture_reconstruction"


def _grating(rng, size, period_lo, period_hi, amp):
    theta = rng.uniform(0.0, math.pi)
    period = rng.uniform(period_lo, period_hi)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    t = (math.cos(theta) * xx + math.sin(theta) * yy) * (2.0 * math.pi / period)
    return amp * np.sin(t + phase)


def _checker(rng, size, amp):
    period = rng.integers(4, 8)
    oy, ox = rng.integers(0, period, size=2)
    yy, xx = np.mgrid[0:size, 0:size]
    return amp * (((yy + oy) // period + (xx + ox) // period) % 2 * 2.0 - 1.0)


def _ellipse_coverage(size, cy, cx, ry, rx, angle):
    """Soft-edged ellipse coverage in [0, 1] (~1 px anti-aliased rim)."""
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    ca, sa = math.cos(angle), math.sin(angle)
    u = ((xx - cx) * ca + (yy - cy) * sa) / rx
    v = (-(xx - cx) * sa + (yy - cy) * ca) / ry
    rho = np.sqrt(u * u + v * v)
    return np.clip((1.0 - rho) * min(rx, ry) + 0.5, 0.0, 1.0)


def _rect_coverage(size, y0, x0, y1, x1):
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    d = np.minimum.reduce([yy - y0, y1 - yy, xx - x0, x1 - xx])
    return np.clip(d + 0.5, 0.0, 1.0)


def _shape_coverage(rng, size, cy, cx, radius):
    if rng.random() < 0.5:
        ry = radius * rng.uniform(0.7, 1.0)
        rx = radius * rng.uniform(0.7, 1.0)
        return _ellipse_coverage(size, cy, cx, ry, rx, rng.uniform(0, math.pi))
    half = radius * rng.uniform(0.7, 1.0)
    return _rect_coverage(size, cy - half, cx - half, cy + half, cx + half)


# foreground intensities, ordered to stay well apart from the ~0.45
# textured background and from each other
_CLASS_FILLS = (0.06, 0.94, 0.22, 0.78)


def _bar_coverage(rng, size, cy, cx):
    """Thin bar, 1.5-3 px wide, centered at (cy, cx)."""
    length = rng.uniform(size / 6, size / 3)
    width = rng.uniform(1.5, 3.0)
    if rng.random() < 0.5:
        return _rect_coverage(size, cy - width / 2, cx - length / 2,
                              cy + width / 2, cx + length / 2)
    return _rect_coverage(size, cy - length / 2, cx - width / 2,
                          cy + length / 2, cx + width / 2)


def _segmentation_sample(rng, size, classes):
    img = 0.45 + _grating(rng, size, size / 3, size, 0.08) + _grating(
        rng, size, 5, 9, 0.08
    )
    label = np.zeros((size, size), dtype=np.int64)
    fills = _CLASS_FILLS[: classes - 1]  # class 0 is background

    # plan one guaranteed shape per class, each in its own vertical band
    band_w = size / (classes - 1)
    planned = []
    for class_id in range(1, classes):
        cx = (class_id - 0.5) * band_w + rng.uniform(-band_w / 8, band_w / 8)
        cy = rng.uniform(0.3, 0.7) * size
        radius = rng.uniform(size / 9, min(band_w / 2 - 1.5, size / 5))
        planned.append((class_id, cy, cx, radius))

    def paint(class_id, cy, cx, radius):
        cov = _shape_coverage(rng, size, cy, cx, radius)
        tex = fills[class_id - 1] + _grating(rng, size, 3, 7, 0.12)
        nonlocal img
        img = img * (1.0 - cov) + tex * cov
        label[cov > 0.5] = class_id

    # decoration shapes first (under everything else)
    for _ in range(int(rng.integers(1, 4))):
        paint(
            int(rng.integers(1, classes)),
            rng.uniform(0.15, 0.85) * size,
            rng.uniform(0.15, 0.85) * size,
            rng.uniform(size / 12, size / 6),
        )
    # distractor bars anchored at the planned shape boundaries: the shapes
    # drawn on top cut them into class-colored stubs that protrude from
    # true boundaries yet are labeled background, so local appearance is
    # ambiguous exactly where upsampling kernels have to decide
    for _ in range(int(rng.integers(5, 10))):
        class_id, cy, cx, radius = planned[int(rng.integers(0, len(planned)))]
        angle = rng.uniform(0.0, 2.0 * math.pi)
        dist = radius + rng.uniform(-2.0, 4.0)
        by = float(np.clip(cy + dist * math.sin(angle), 2, size - 2))
        bx = float(np.clip(cx + dist * math.cos(angle), 2, size - 2))
        cov = _bar_coverage(rng, size, by, bx)
        fill = fills[class_id - 1] + rng.uniform(-0.05, 0.05)
        img = img * (1.0 - cov) + fill * cov
    # the guaranteed shapes go on top so every class keeps its pixels
    for class_id, cy, cx, radius in planned:
        paint(class_id, cy, cx, radius)
    return np.clip(img, 0.0, 1.0), label


def _texture_sample(rng, size):
    """Sharp-edged shapes with stripe/checker fills over a smooth field.

    Texture periods stay above 4x the pooling stride so the information
    survives the bottleneck; reconstruction quality then hinges on
    sub-pixel phase and edge placement, which is the upsampler's job.
    """
    img = 0.5 + _grating(rng, size, size / 2, size * 1.5, 0.1)
    for _ in range(int(rng.integers(3, 6))):
        cov = _shape_coverage(
            rng, size, rng.uniform(0.2, 0.8) * size, rng.uniform(0.2, 0.8) * size,
            rng.uniform(size / 6, size / 3),
        )
        base = rng.uniform(0.3, 0.7)
        if rng.random() < 0.5:
            tex = base + _grating(rng, size, 7, 12, 0.3)
        else:
            tex = base + _checker(rng, size, 0.25)
        img = img * (1.0 - cov) + tex * cov
    return np.clip(img, 0.02, 0.98)


def make_toy_task(task: ToyTask):
    """Build the dataset: (inputs (N,1,S,S) float64, targets).

    Segmentation targets are int64 labels (N,S,S); reconstruction targets
    equal the inputs.
    """
    rng = np.random.default_rng(task.seed)
    inputs = np.empty((task.count, 1, task.size, task.size), dtype=np.float64)
    if task.is_segmentation:
        labels = np.empty((task.count, task.size, task.size), dtype=np.int64)
        for i in range(task.count):
            img, lab = _segmentation_sample(rng, task.size, task.classes)
            inputs[i, 0] = img
            labels[i] = lab
        return inputs, labels
    for i in range(task.count):
        inputs[i, 0] = _texture_sample(rng, task.size)
    return inputs, inputs.copy()


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def metric_miou(pred: np.ndarray, target: np.ndarray, classes: int) -> float:
    """Mean IoU.  Classes absent from both pred and target are skipped;
    classes predicted but absent from the target count as 0."""
    if pred.shape != target.shape:
        raise ShapeError(f"shape mismatch: {pred.shape} vs {target.shape}")
    scores = []
    for c in range(classes):
        p = pred == c
        t = target == c
        in_p, in_t = bool(p.any()), bool(t.any())
        if not in_p and not in_t:
            continue
        if not in_t:
            scores.append(0.0)
            continue
        inter = np.logical_and(p, t).sum()
        union = np.logical_or(p, t).sum()
        scores.append(inter / union)
    return float(np.mean(scores)) if scores else 1.0


def metric_mse(pred: np.ndarray, target: np.ndarray) -> float:
    if pred.shape != target.shape:
        raise ShapeError(f"shape mismatch: {pred.shape} vs {target.shape}")
    diff = pred.astype(np.float64) - target.astype(np.float64)
    return float((diff * diff).mean())


def metric_psnr(pred: np.ndarray, target: np.ndarray, cap: float = 99.0) -> float:
    """PSNR in dB for signals in [0, 1]: the cap on an exact match, NaN or -inf
    for a NaN or inf MSE."""
    mse = metric_mse(pred, target)
    if mse == 0.0:
        return cap
    if not math.isfinite(mse):
        return -mse
    return float(min(cap, 10.0 * math.log10(1.0 / mse)))


def _erode(mask: np.ndarray, iters: int) -> np.ndarray:
    """3x3 square erosion over the last two axes, edge-replicated borders."""
    m = mask
    pads = [(0, 0)] * (mask.ndim - 2) + [(1, 1), (1, 1)]
    for _ in range(iters):
        p = np.pad(m, pads, mode="edge")
        m = (
            p[..., :-2, :-2] & p[..., :-2, 1:-1] & p[..., :-2, 2:]
            & p[..., 1:-1, :-2] & p[..., 1:-1, 1:-1] & p[..., 1:-1, 2:]
            & p[..., 2:, :-2] & p[..., 2:, 1:-1] & p[..., 2:, 2:]
        )
    return m


def _boundary_band(labels: np.ndarray, classes: int, radius: int) -> np.ndarray:
    band = np.zeros(labels.shape, dtype=bool)
    for c in range(classes):
        m = labels == c
        if m.any():
            band |= m & ~_erode(m, radius)
    return band


def metric_band_iou(
    pred: np.ndarray, target: np.ndarray, classes: int, radius: int = 2
) -> float:
    """IoU restricted to a morphological band around either mask's
    boundary; a desk-scale stand-in for a boundary-quality metric, not
    the published boundary IoU definition."""
    if pred.shape != target.shape:
        raise ShapeError(f"shape mismatch: {pred.shape} vs {target.shape}")
    band = _boundary_band(pred, classes, radius) | _boundary_band(target, classes, radius)
    if not band.any():
        return 1.0 if np.array_equal(pred, target) else 0.0
    return metric_miou(pred[band], target[band], classes)


# ---------------------------------------------------------------------------
# the toy network
# ---------------------------------------------------------------------------


class ToyNet:
    """Conv encoder with two maxpool stages, decoder with two x2 upsampling
    stages using the operator under test; encoder guides are wired from the
    pre-pool activations."""

    def __init__(
        self,
        variant: str,
        in_channels: int,
        out_channels: int,
        features: int = 12,
        compressed: int = 16,
        kernel_size: int = 5,
        seed: int = 0,
        impl: str = DEFAULT_FORM,
    ):
        self.variant = variant
        self.impl = impl
        rng = ShuffledLcg(seed)

        def conv(out_c, in_c, k):
            return init_conv_weights(rng, out_c, in_c, k, np.float32)

        self.enc0 = conv(features, in_channels, 3)
        self.enc1 = conv(features, features, 3)
        self.bott = conv(features, features, 3)
        self.dec1 = conv(features, features, 3)
        self.dec0 = conv(features, features, 3)
        self.head = conv(out_channels, features, 1)
        base = dict(
            channels=features,
            compressed=compressed,
            kernel_size=kernel_size,
        )
        self.up1 = build_operator(
            OperatorConfig(variant, seed=rng.next_u64(), **base)
        )
        self.up2 = build_operator(
            OperatorConfig(variant, seed=rng.next_u64(), **base)
        )
        self._own = [self.enc0, self.enc1, self.bott, self.dec1, self.dec0, self.head]
        self._wrap_own()

    def _wrap_own(self):
        self._params = []
        for i, cw in enumerate(self._own):
            if not isinstance(cw.weights, Node):
                cw.weights = Node(cw.weights, name=f"conv{i}.weights")
                cw.bias = Node(cw.bias, name=f"conv{i}.bias")
            self._params += [cw.weights, cw.bias]
        self._params += self.up1.wrap_parameters()
        self._params += self.up2.wrap_parameters()

    def parameters(self):
        return self._params

    def forward(self, x, want_parts: bool = False):
        p1 = PadSpec.same(1)
        e0 = ag.leaky_relu(ag.conv2d(x, self.enc0.weights, self.enc0.bias, pad=p1))
        e1 = ag.leaky_relu(ag.conv2d(ag.maxpool2x2(e0), self.enc1.weights, self.enc1.bias, pad=p1))
        z = ag.leaky_relu(ag.conv2d(ag.maxpool2x2(e1), self.bott.weights, self.bott.bias, pad=p1))
        guided = VARIANT_SPECS[self.variant].guided
        u1, parts1 = self.up1.forward_parts(e1 if guided else None, z, impl=self.impl)
        d1 = ag.leaky_relu(ag.conv2d(u1, self.dec1.weights, self.dec1.bias, pad=p1))
        u2, parts2 = self.up2.forward_parts(e0 if guided else None, d1, impl=self.impl)
        d0 = ag.leaky_relu(ag.conv2d(u2, self.dec0.weights, self.dec0.bias, pad=p1))
        out = ag.conv1x1(d0, self.head.weights, self.head.bias)
        if want_parts:
            return out, {"stage1": parts1, "stage2": parts2}
        return out


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


# the lr is multiplied by _LR_DECAY once, when _LR_DECAY_AT of the epochs are done
_LR_DECAY = 0.3
_LR_DECAY_AT = 0.6


@dataclass
class TrainConfig:
    variant: str
    epochs: int = 60
    lr: float = 0.1
    momentum: float = 0.9
    clip_norm: float = 5.0  # global gradient-norm clip; 0 disables
    features: int = 12
    compressed: int = 16
    batch: int = 4
    seed: int = 0
    impl: str = DEFAULT_FORM
    metrics_every: int = 1


@dataclass
class TrainResult:
    history: list  # one dict per epoch: epoch, loss, metric columns
    final: dict
    net: ToyNet
    task: ToyTask

    @property
    def losses(self):
        return [row["loss"] for row in self.history]


def validation_task(task: ToyTask, count: int = 12) -> ToyTask:
    """The held-out split: the first ``count`` samples drawn at seed + 7919."""
    return replace(task, seed=task.seed + 7919, count=count)


def net_inputs(images: np.ndarray) -> np.ndarray:
    """Toy-net inputs: the [0, 1] images centered on 0, as f32."""
    return (images - 0.5).astype(np.float32)


def predict(task: ToyTask, out: np.ndarray) -> np.ndarray:
    """Argmax labels for segmentation, else the f64 output clipped to [0, 1]."""
    if task.is_segmentation:
        return out.argmax(axis=1)
    return np.clip(out.astype(np.float64), 0.0, 1.0)


def _evaluate(net: ToyNet, task: ToyTask, inputs, targets, epoch: int) -> dict:
    out = value_of(net.forward(inputs))
    if not np.isfinite(out).all():
        raise ag.DivergenceError(
            f"non-finite validation output after epoch {epoch} (variant {net.variant})"
        )
    pred = predict(task, out)
    if task.is_segmentation:
        return {
            "miou": metric_miou(pred, targets, task.classes),
            "band_iou": metric_band_iou(pred, targets, task.classes),
        }
    return {"mse": metric_mse(pred, targets), "psnr": metric_psnr(pred, targets)}


def _clip_gradients(params, max_norm: float) -> None:
    total = 0.0
    for p in params:
        g = ag.grad_of(p)
        total += float((g * g).sum())
    norm = math.sqrt(total)
    if norm > max_norm:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad *= scale


@np.errstate(all="ignore")  # overflow shows as the DivergenceError below, not as warnings
def train_toy(cfg: TrainConfig, task: ToyTask) -> TrainResult:
    """Train the toy net on the task; fully deterministic given the seeds.

    Raises :class:`fadeup.autograd.DivergenceError` on a non-finite loss,
    gradient or validation output instead of swallowing it.
    """
    x_train, y_train = make_toy_task(task)
    val_task = validation_task(task)
    x_val, y_val = make_toy_task(val_task)
    x_train, x_val = net_inputs(x_train), net_inputs(x_val)
    # targets keep the raw [0, 1] range
    if not task.is_segmentation:
        y_train = y_train.astype(np.float32)

    out_channels = task.classes if task.is_segmentation else x_train.shape[1]
    net = ToyNet(
        cfg.variant,
        in_channels=x_train.shape[1],
        out_channels=out_channels,
        features=cfg.features,
        compressed=cfg.compressed,
        seed=cfg.seed,
        impl=cfg.impl,
    )
    opt = MomentumSGD(net.parameters(), cfg.lr, cfg.momentum)
    n = x_train.shape[0]
    decay_epoch = int(_LR_DECAY_AT * cfg.epochs)
    history = []
    for epoch in range(cfg.epochs):
        if epoch == decay_epoch:
            opt.lr = cfg.lr * _LR_DECAY
        total, batches = 0.0, 0
        for start in range(0, n, cfg.batch):
            xb = x_train[start : start + cfg.batch]
            yb = y_train[start : start + cfg.batch]
            opt.zero_grad()
            out = net.forward(xb)
            if task.is_segmentation:
                loss = ag.softmax_cross_entropy(out, yb)
            else:
                loss = ag.mse_loss(out, yb)
            lval = float(value_of(loss))
            if not math.isfinite(lval):
                raise ag.DivergenceError(
                    f"non-finite loss at epoch {epoch} (variant {cfg.variant})"
                )
            backward(loss)
            if cfg.clip_norm:
                _clip_gradients(net.parameters(), cfg.clip_norm)
            opt.step()
            total += lval
            batches += 1
        row = {"epoch": epoch, "loss": total / batches}
        if cfg.metrics_every and (epoch % cfg.metrics_every == 0 or epoch == cfg.epochs - 1):
            row.update(_evaluate(net, val_task, x_val, y_val, epoch))
        history.append(row)
    final = _evaluate(net, val_task, x_val, y_val, cfg.epochs - 1)
    return TrainResult(history=history, final=final, net=net, task=task)

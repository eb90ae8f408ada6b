"""The three closed-loop workloads and the checks on their outputs.

A workload builds its operators or nets and generates its inputs in
``setup`` from the workload seed, then serves requests by index:
``prepare(i)`` does untimed housekeeping, ``request(i)`` is the timed
call into fadeup, and ``check(i, out)`` validates the output (untimed)
and returns an error message or ``None``.  Request ``i`` uses kind
``i % len(kinds)``, so a run of whole cycles holds every kind equally.
``operators()`` lists every operator set-up built, for
``costmodel.reconcile``; ``final_checks`` returns a list of failures.
"""

from __future__ import annotations

import math
import os
import shutil
from contextlib import nullcontext

import numpy as np

from fadeup import autograd as ag
from fadeup import cli, costmodel, kernelgen, toy
from fadeup import operators as ops
from fadeup import tensor as T

K = 5
F32_REL_TOL = 1e-5  # the repo's f32 equivalence tolerance (verify --suite equivalence)

# the paper's reference figures at C=256, d=64, K=5, 112 x 112 decoder
GOLDEN_GFLOPS = (("carafe", "2.50"), ("fade", "4.56"), ("fade_lite", "1.53"))


def rel_dev(a, b) -> float:
    a, b = float(a), float(b)
    return abs(a - b) / max(1.0, abs(a), abs(b))


def golden_failures() -> list[str]:
    failures = []
    for row, want in GOLDEN_GFLOPS:
        q = costmodel.CostQuery(row, channels=256, compressed=64, kernel_size=5, height=112, width=112)
        got = costmodel.format_gflops(costmodel.flops_of(q).flops)
        if got != want:
            failures.append(f"golden GFLOPs for {row}: {got} != {want}")
    return failures


def reconcile_failures(operators) -> list[str]:
    failures = []
    for op in operators:
        try:
            costmodel.reconcile(op)
        except costmodel.CostMismatchError as e:
            failures.append(str(e))
    return failures


def gather(x_de, kern, k, c, i, j) -> float:
    """Literal x2 reassembly at output (c, i, j) of batch item 0.

    Sums kernel tap m times the decoder value at window offset
    (m // k - k//2, m % k - k//2) from (i//2, j//2); taps off the plane add
    nothing.
    """
    h, w = x_de.shape[2], x_de.shape[3]
    r = k // 2
    total = 0.0
    for m in range(k * k):
        y, x = i // 2 + m // k - r, j // 2 + m % k - r
        if 0 <= y < h and 0 <= x < w:
            total += float(kern[0, m, i, j]) * float(x_de[0, c, y, x])
    return total


def gather_failures(op, x_en, x_de, positions, label) -> list[str]:
    """Check sampled outputs of ``op`` against a literal gather over the
    kernel map that ``forward_parts`` returns, blended by its gate."""
    out, parts = op.forward_parts(x_en, x_de)
    out = ag.value_of(out)
    kern = ag.value_of(parts["kernels"].data)
    g = ag.value_of(parts["gate"]) if "gate" in parts else None
    worst = 0.0
    for c, i, j in positions:
        want = gather(x_de, kern, parts["kernels"].k, c, i, j)
        if g is not None:
            gv = float(g[0, 0, i, j])
            want = float(x_en[0, c, i, j]) * gv + want * (1.0 - gv)
        worst = max(worst, rel_dev(out[0, c, i, j], want))
    if worst > F32_REL_TOL:
        return [f"{label}: sampled gather rel dev {worst:.3e} > {F32_REL_TOL}"]
    return []


def oracle_failures(seed: int) -> list[str]:
    """A small fade case through the ``semishift_direct`` oracle, a softmax,
    the literal gather and the gate formula, against the l2h and h2l
    forwards of the operator."""
    rng = np.random.default_rng(seed)
    c, h, w = 4, 5, 7
    op = ops.build_operator(ops.OperatorConfig("fade", channels=c, compressed=8, kernel_size=K, seed=seed))
    x_de = rng.standard_normal((1, c, h, w), dtype=np.float32)
    x_en = rng.standard_normal((1, c, 2 * h, 2 * w), dtype=np.float32)
    raw = kernelgen.semishift_direct(x_en, x_de, op.kernel_params).data.astype(np.float64)
    e = np.exp(raw - raw.max(axis=1, keepdims=True))
    kern = e / e.sum(axis=1, keepdims=True)
    proj = op.gate_params.projector
    logit = np.einsum("c,nchw->nhw", proj.weights[0, :, 0, 0].astype(np.float64), x_de) + float(proj.bias[0])
    gate = 1.0 / (1.0 + np.exp(-logit))
    failures = []
    for impl in ("l2h", "h2l"):
        out = ag.value_of(op.forward(x_en, x_de, impl=impl))
        worst = 0.0
        for ch in range(c):
            for i in range(2 * h):
                for j in range(2 * w):
                    gv = gate[0, i // 2, j // 2]
                    want = float(x_en[0, ch, i, j]) * gv + gather(x_de, kern, K, ch, i, j) * (1.0 - gv)
                    worst = max(worst, rel_dev(out[0, ch, i, j], want))
        if worst > F32_REL_TOL:
            failures.append(f"oracle vs {impl}: rel dev {worst:.3e} > {F32_REL_TOL}")
    return failures


class Workload:
    """Defaults for the hooks a workload does not need."""

    kinds: tuple = ()
    tracer = None  # set by the runner for the traced phase

    def prepare(self, i):
        pass

    def final_checks(self):
        return []

    def close(self):
        pass


class InferC256(Workload):
    """``UpsampleOperator.forward`` at the ROADMAP's north-star shape.

    Batch 1, C=256, d=64, 56 x 56 decoder and 112 x 112 encoder, f32.
    Requests cycle fade (l2h), fade_lite and carafe over a pool of input
    pairs; no autograd tape is recorded.  Reassembly dominates.
    """

    kinds = ("fade", "fade_lite", "carafe")
    pool_size = 2

    def __init__(self, seed: int, smoke: bool, workdir: str):
        self.seed = seed
        self.channels, self.compressed, self.side = (8, 8, 6) if smoke else (256, 64, 56)

    def setup(self):
        rng = np.random.default_rng(self.seed)
        self.ops = {
            v: ops.build_operator(
                ops.OperatorConfig(
                    v, channels=self.channels, compressed=self.compressed, kernel_size=K,
                    seed=int(rng.integers(2**63)),
                )
            )
            for v in self.kinds
        }
        c, s = self.channels, self.side
        self.pool = [
            (
                rng.standard_normal((1, c, 2 * s, 2 * s), dtype=np.float32),
                rng.standard_normal((1, c, s, s), dtype=np.float32),
            )
            for _ in range(self.pool_size)
        ]

    def operators(self):
        return list(self.ops.values())

    def request(self, i):
        variant = self.kinds[i % len(self.kinds)]
        x_en, x_de = self.pool[(i // len(self.kinds)) % self.pool_size]
        return self.ops[variant].forward(None if variant == "carafe" else x_en, x_de)

    def check(self, i, out):
        want = (1, self.channels, 2 * self.side, 2 * self.side)
        if out.shape != want or out.dtype != np.float32:
            return f"output {out.shape} {out.dtype}, expected {want} float32"
        if not np.isfinite(out).all():
            return "non-finite output"
        return None

    def final_checks(self):
        rng = np.random.default_rng(self.seed + 1)
        top = 2 * self.side - 1
        positions = [(0, 0, 0), (self.channels - 1, top, top)] + [
            (int(rng.integers(self.channels)), int(rng.integers(top + 1)), int(rng.integers(top + 1)))
            for _ in range(62)
        ]
        x_en, x_de = self.pool[0]
        failures = []
        for variant, op in self.ops.items():
            failures += gather_failures(op, None if variant == "carafe" else x_en, x_de, positions, variant)
        return failures + oracle_failures(self.seed)


class TrainAblation(Workload):
    """One toy training step per request, as ``train_toy`` takes it.

    ``TrainConfig`` defaults (features 12, d 16, batch 4) on 48 x 48
    three-class shapes; steps cycle the six ablation variants b1-b6, one
    net each.  The tensors are small, so the autograd tape, the VJPs and
    im2col/col2im dominate.  A net goes back to its initial weights and a
    fresh optimizer every ``reset_every`` of its own steps, so how long a
    run lasts cannot drive training into divergence.
    """

    kinds = tuple(v for v, _ in cli.ABLATION_VARIANTS)
    reset_every = 48  # steps of one net: 12 epochs of 16 samples in batches of 4
    replay_steps = 12

    def __init__(self, seed: int, smoke: bool, workdir: str):
        self.seed = seed
        cfg = toy.TrainConfig(self.kinds[0])
        self.lr, self.momentum, self.clip = cfg.lr, cfg.momentum, cfg.clip_norm
        if smoke:
            self.features, self.compressed, self.batch, self.size, self.count = 4, 4, 2, 16, 4
        else:
            self.features, self.compressed, self.batch = cfg.features, cfg.compressed, cfg.batch
            self.size, self.count = 48, 16

    def setup(self):
        task = toy.ToyTask(
            "multiclass_shapes_segmentation", size=self.size, classes=3, seed=self.seed, count=self.count
        )
        x, y = toy.make_toy_task(task)
        x = (x - 0.5).astype(np.float32)
        self.batches = [
            (x[s : s + self.batch], y[s : s + self.batch]) for s in range(0, self.count, self.batch)
        ]
        self.nets = [
            toy.ToyNet(
                v, in_channels=1, out_channels=3, features=self.features, compressed=self.compressed,
                kernel_size=K, seed=self.seed,
            )
            for v in self.kinds
        ]
        self.initial = [[p.data.copy() for p in net.parameters()] for net in self.nets]
        self.opts = [ag.MomentumSGD(net.parameters(), self.lr, self.momentum) for net in self.nets]
        self.losses = []  # (request index, loss) since this set-up

    def operators(self):
        return [op for net in self.nets for op in (net.up1, net.up2)]

    def prepare(self, i):
        k = i % len(self.nets)
        own_step = i // len(self.nets)
        if own_step and own_step % self.reset_every == 0:
            net = self.nets[k]
            for p, p0 in zip(net.parameters(), self.initial[k]):
                p.data[...] = p0
            self.opts[k] = ag.MomentumSGD(net.parameters(), self.lr, self.momentum)

    def request(self, i):
        k = i % len(self.nets)
        net, opt = self.nets[k], self.opts[k]
        xb, yb = self.batches[(i // len(self.nets)) % len(self.batches)]
        opt.zero_grad()
        out = net.forward(xb)
        with self.tracer.span("toy.loss") if self.tracer else nullcontext():
            loss = ag.softmax_cross_entropy(out, yb)
        value = float(ag.value_of(loss))
        ag.backward(loss)
        with self.tracer.span("toy.clip_gradients") if self.tracer else nullcontext():
            toy._clip_gradients(net.parameters(), self.clip)
        opt.step()
        return value

    def check(self, i, out):
        self.losses.append((i, out))
        return None if math.isfinite(out) else f"non-finite loss {out}"

    def final_checks(self):
        """Replay the first steps after the last set-up from a fresh one."""
        recorded = self.losses
        self.setup()
        failures = []
        for i, loss in recorded[: self.replay_steps]:
            self.prepare(i)
            again = self.request(i)
            if again != loss:
                failures.append(f"replayed step {i}: loss {again!r} != {loss!r}")
        return failures


class CliUpsample(Workload):
    """In-process ``fadeup upsample`` calls on FTEN files.

    C=64, d=64, 32 x 32 decoder and 64 x 64 encoder.  Calls cycle
    (fade, l2h), (fade, h2l), fade_lite and carafe, each with its own
    seed; every call builds its operator (pure-Python weight init), reads
    the inputs, runs forward and writes the output and a manifest.
    Set-up writes the inputs and builds in-process reference operators
    and outputs, which the re-read outputs must equal bit for bit.
    """

    kinds = (("fade", "l2h"), ("fade", "h2l"), ("fade_lite", None), ("carafe", None))

    def __init__(self, seed: int, smoke: bool, workdir: str):
        self.seed = seed
        self.dir = os.path.join(workdir, f"cli-{seed}-{os.getpid()}")
        self.channels, self.compressed, self.side = (4, 4, 6) if smoke else (64, 64, 32)

    def setup(self):
        os.makedirs(self.dir, exist_ok=True)
        rng = np.random.default_rng(self.seed)
        c, s = self.channels, self.side
        x_de = rng.standard_normal((1, c, s, s), dtype=np.float32)
        x_en = rng.standard_normal((1, c, 2 * s, 2 * s), dtype=np.float32)
        self.de_path = os.path.join(self.dir, "de.ften")
        self.en_path = os.path.join(self.dir, "en.ften")
        T.write_ften(self.de_path, x_de)
        T.write_ften(self.en_path, x_en)
        self.argvs, self.refs, self.expected = [], [], []
        for k, (variant, impl) in enumerate(self.kinds):
            seed = self.seed * 16 + k
            out_path = os.path.join(self.dir, f"out{k}.ften")
            argv = ["upsample", "--variant", variant, "--decoder", self.de_path]
            if variant != "carafe":
                argv += ["--encoder", self.en_path]
            argv += ["--seed", str(seed), "--d", str(self.compressed), "--K", str(K),
                     "--precision", "f32", "--out", out_path]
            if impl:
                argv += ["--impl", impl]
            op = ops.build_operator(
                ops.OperatorConfig(variant, channels=c, compressed=self.compressed, kernel_size=K, seed=seed)
            )
            guide = None if variant == "carafe" else x_en
            self.argvs.append((argv, out_path))
            self.refs.append(op)
            self.expected.append(ag.value_of(op.forward(guide, x_de, impl=impl)))

    def operators(self):
        return self.refs

    def request(self, i):
        argv, _ = self.argvs[i % len(self.kinds)]
        return cli.main(argv)

    def check(self, i, out):
        if out != 0:
            return f"fadeup upsample exited {out}"
        k = i % len(self.kinds)
        got = T.read_ften(self.argvs[k][1])
        want = self.expected[k]
        if got.dtype != want.dtype or not np.array_equal(got, want):
            return f"{self.kinds[k]}: re-read output differs from the in-process forward"
        return None

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {
    "infer_c256": InferC256,
    "train_ablation": TrainAblation,
    "cli_upsample": CliUpsample,
}

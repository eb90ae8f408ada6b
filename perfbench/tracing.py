"""Span recorder for the traced run, and the per-layer metrics it yields.

The traced run records spans from the benchmark's side: each fadeup
function listed by :func:`layer_targets` is replaced, for the traced
phase only, by a wrapper that opens a span, calls the original and
closes the span.  ``fadeup`` itself is not edited.  The library reaches
these functions through module attributes (``kernelgen.carafe_kernelgen``,
``T.im2col``), class attributes (``UpsampleOperator.forward_parts``) or the
``kernelgen.SEMISHIFT_FORMS`` dict, so a wrapper installed there sees
every call.  :meth:`Tracer.restore` puts every original back and reports
any attribute that is not the original object again.

A span is ``[name, start, end, parent, request, meta]``: times from
``time.perf_counter``, the index of the enclosing span (or ``None``), the
request index the runner set when it opened, and a small dict some
wrappers fill from the call's arrays.  Spans stay in memory until the
run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
import tracemalloc
from collections import defaultdict

from fadeup import assemble, autograd, cli, costmodel, gate, kernelgen, operators, tensor, toy
from fadeup.autograd import value_of

MIB = 1 << 20

# public autograd ops; calls to any of them count towards autograd.op_calls
AUTOGRAD_OPS = (
    "add", "sub", "mul", "scale", "one_minus", "relu", "leaky_relu", "sigmoid",
    "softmax_channel", "conv2d", "conv2d_depthwise", "conv1x1", "interp_nearest_x2",
    "interp_bilinear_x2", "maxpool2x2", "pixel_shuffle_x2", "interleave2x2",
    "concat_channels", "reassemble", "blend", "sum_all", "mean_all", "mse_loss",
    "softmax_cross_entropy",
)

KERNEL_GENERATORS = ("semishift_lite", "carafe_kernelgen", "naive_kernelgen", "encoder_only_kernelgen")

# cost-model row whose "kernel generation" polynomial a variant's generator
# computes; b1 (encoder-only) and b3 (naive) have no row and no GFLOP/s
COST_ROW = {
    "fade": "fade", "fade_g1": "fade", "b4_semishift_nogate": "fade",
    "b5_semishift_skip": "fade", "b6_full": "fade",
    "fade_lite": "fade_lite",
    "carafe": "carafe", "b2_decoder_only": "carafe",
}

# per-layer metric name -> unit; BENCHMARK.json lists the same names
PER_LAYER_UNITS = {
    "operators.forward_ms": "ms",
    "operators.self_ms": "ms",
    "operators.build_ms": "ms",
    "kernelgen.generate_ms": "ms",
    "kernelgen.generate_gflops": "GFLOP/s",
    "kernelgen.normalize_ms": "ms",
    "assemble.reassemble_ms": "ms",
    "assemble.reassemble_gflops": "GFLOP/s",
    "assemble.reassemble_peak_mib": "MiB",
    "assemble.reassemble_flops_per_byte": "FLOP/B",
    "gate.generate_ms": "ms",
    "gate.fuse_ms": "ms",
    "autograd.conv2d_ms": "ms",
    "autograd.conv2d_calls": "count",
    "autograd.conv1x1_ms": "ms",
    "autograd.backward_ms": "ms",
    "autograd.optimizer_ms": "ms",
    "autograd.op_calls": "count",
    "tensor.im2col_ms": "ms",
    "tensor.im2col_mib": "MiB",
    "tensor.col2im_ms": "ms",
    "tensor.read_ften_ms": "ms",
    "tensor.write_ften_ms": "ms",
    "tensor.io_mib": "MiB",
    "toy.forward_ms": "ms",
    "toy.loss_ms": "ms",
    "cli.main_ms": "ms",
    "cli.self_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_ms": "ms",
}


def _get(owner, key):
    if isinstance(owner, dict):
        return owner[key]
    if isinstance(owner, type):
        return owner.__dict__[key]
    return getattr(owner, key)


def _set(owner, key, value):
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


def _owner_name(owner) -> str:
    if isinstance(owner, dict):
        return "kernelgen.SEMISHIFT_FORMS"
    return getattr(owner, "__qualname__", None) or owner.__name__


class Tracer:
    """Records nested spans in memory and installs the layer wrappers."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[list] = []
        self.request = None  # index of the request in flight, set by the runner
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.request, None])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self.open(name)
        try:
            yield
        finally:
            self.close(sid)

    def wrap(self, name: str, fn, describe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if describe is not None:
                self.spans[sid][5] = describe(args, kwargs, result)
            return result

        return traced

    def install(self, targets) -> None:
        for name, owner, key, describe in targets:
            original = _get(owner, key)
            self._patches.append((owner, key, original))
            _set(owner, key, self.wrap(name, original, describe))

    def restore(self) -> list[str]:
        """Put every original back; return the attributes that are not."""
        for owner, key, original in reversed(self._patches):
            _set(owner, key, original)
        wrong = [
            f"{_owner_name(owner)}.{key}"
            for owner, key, original in self._patches
            if _get(owner, key) is not original
        ]
        self._patches = []
        return wrong

    def write(self, path) -> None:
        """One JSON object per line, times in ms from the tracer's start."""
        with open(path, "w", encoding="utf-8") as f:
            for sid, (name, start, end, parent, request, meta) in enumerate(self.spans):
                rec = {
                    "id": sid,
                    "name": name,
                    "start_ms": (start - self.t0) * 1e3,
                    "end_ms": (end - self.t0) * 1e3,
                    "parent": parent,
                    "request": request,
                }
                if meta:
                    rec["meta"] = meta
                f.write(json.dumps(rec) + "\n")


# ---------------------------------------------------------------------------
# what is wrapped, and what each wrapper records about its call
# ---------------------------------------------------------------------------


def _forward_meta(args, kwargs, result):
    op = args[0]
    x_de = args[2] if len(args) > 2 else kwargs["x_de"]
    cfg = op.config
    _, _, h, w = value_of(x_de).shape
    return {
        "variant": cfg.variant,
        "channels": cfg.channels,
        "compressed": cfg.compressed,
        "kernel_size": cfg.kernel_size,
        "h": h,
        "w": w,
    }


def _reassemble_meta(args, kwargs, result):
    x_de, kmap = value_of(args[0]), args[1]
    kern, out = value_of(kmap.data), value_of(result)
    _, c, h, w = x_de.shape
    return {
        # 4·K²·C MACs per decoder position, the same polynomial on every cost-model row
        "flops": stage_flops("fade", "feature assembly", c, 1, kmap.k, h, w),
        "bytes": x_de.nbytes + kern.nbytes + out.nbytes,
    }


def _result_bytes(args, kwargs, result):
    return {"bytes": result.nbytes}


def _written_bytes(args, kwargs, result):
    return {"bytes": args[1].nbytes}


def layer_targets():
    """(span name, owner, attribute, describe) for every wrapped function."""
    targets = [
        ("operators.build_operator", operators, "build_operator", None),
        # toy binds build_operator by name at import, so it needs its own wrapper
        ("operators.build_operator", toy, "build_operator", None),
        ("operators.forward_parts", operators.UpsampleOperator, "forward_parts", _forward_meta),
        ("kernelgen.normalize_kernels", kernelgen, "normalize_kernels", None),
        ("kernelgen.apply_channel_adapter", kernelgen, "apply_channel_adapter", None),
        ("assemble.reassemble", assemble, "reassemble", _reassemble_meta),
        ("assemble.upsample_nearest", assemble, "upsample_nearest", None),
        ("assemble.upsample_bilinear", assemble, "upsample_bilinear", None),
        ("gate.generate_gate", gate, "generate_gate", None),
        ("gate.fixed_gate", gate, "fixed_gate", None),
        ("gate.fuse_gated", gate, "fuse_gated", None),
        ("autograd.backward", autograd, "backward", None),
        ("autograd.MomentumSGD.step", autograd.MomentumSGD, "step", None),
        ("tensor.im2col", tensor, "im2col", _result_bytes),
        ("tensor.col2im", tensor, "col2im", None),
        ("tensor.read_ften", tensor, "read_ften", _result_bytes),
        ("tensor.write_ften", tensor, "write_ften", _written_bytes),
        ("toy.ToyNet.forward", toy.ToyNet, "forward", None),
        ("cli.main", cli, "main", None),
    ]
    for form in kernelgen.SEMISHIFT_FORMS:
        targets.append((f"kernelgen.semishift_{form}", kernelgen.SEMISHIFT_FORMS, form, None))
    for fn in KERNEL_GENERATORS:
        targets.append((f"kernelgen.{fn}", kernelgen, fn, None))
    for fn in AUTOGRAD_OPS:
        targets.append((f"autograd.{fn}", autograd, fn, None))
    return targets


def stage_flops(row, stage, channels, compressed, kernel_size, h, w) -> int:
    """Cost-model FLOPs of one stage at a decoder size of h x w."""
    q = costmodel.CostQuery(
        row, channels=channels, compressed=compressed, kernel_size=kernel_size,
        height=h, width=w,
    )
    return costmodel.MAC_TO_FLOP * costmodel.flops_of(q).stage_macs[stage] * h * w


class ReassemblyPeak:
    """Largest tracemalloc peak over any single ``assemble.reassemble`` call.

    Used in its own untimed pass, with tracemalloc running; the traced
    phase does not run under tracemalloc.
    """

    def __init__(self):
        self.peak = 0
        self._original = assemble.reassemble

    def __enter__(self):
        original = self._original

        def measured(*args, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return original(*args, **kwargs)
            finally:
                self.peak = max(self.peak, tracemalloc.get_traced_memory()[1] - base)

        assemble.reassemble = measured
        return self

    def __exit__(self, *exc):
        assemble.reassemble = self._original

    @property
    def restored(self) -> bool:
        return assemble.reassemble is self._original


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

_GENERATOR_SPANS = {f"kernelgen.semishift_{f}" for f in kernelgen.SEMISHIFT_FORMS} | {
    f"kernelgen.{fn}" for fn in KERNEL_GENERATORS
}
_OP_SPANS = {f"autograd.{fn}" for fn in AUTOGRAD_OPS}

# metric -> span name whose inclusive time per request it reports
_INCLUSIVE_MS = {
    "operators.forward_ms": "operators.forward_parts",
    "kernelgen.normalize_ms": "kernelgen.normalize_kernels",
    "assemble.reassemble_ms": "assemble.reassemble",
    "gate.generate_ms": "gate.generate_gate",
    "gate.fuse_ms": "gate.fuse_gated",
    "autograd.conv2d_ms": "autograd.conv2d",
    "autograd.conv1x1_ms": "autograd.conv1x1",
    "autograd.backward_ms": "autograd.backward",
    "autograd.optimizer_ms": "autograd.MomentumSGD.step",
    "tensor.im2col_ms": "tensor.im2col",
    "tensor.col2im_ms": "tensor.col2im",
    "tensor.read_ften_ms": "tensor.read_ften",
    "tensor.write_ften_ms": "tensor.write_ften",
    "toy.forward_ms": "toy.ToyNet.forward",
    "toy.loss_ms": "toy.loss",
    "cli.main_ms": "cli.main",
}

# metric -> span name whose self time per request it reports
_SELF_MS = {
    "operators.self_ms": "operators.forward_parts",
    "cli.self_ms": "cli.main",
    "trace.unattributed_ms": "request",
}


def layer_metrics(tracer: Tracer, requests, overhead_ratio: float, reassemble_peak: int) -> dict:
    """Per-request layer numbers over the spans of ``requests``.

    Times are inclusive span durations summed per name and divided by the
    number of requests; self time is a span's duration minus its
    children's.  ``operators.build_ms`` is per ``build_operator`` call over
    every span, so builds made in a traced set-up count too.
    """
    spans = tracer.spans
    n_req = len(requests)
    wanted = set(requests)
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] += end - start

    inclusive = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    meta_sum = defaultdict(float)
    gen_flops = gen_time = 0.0
    builds, build_time = 0, 0.0
    for sid, (name, start, end, parent, request, meta) in enumerate(spans):
        dur = end - start
        if name == "operators.build_operator":
            builds += 1
            build_time += dur
        if request not in wanted:
            continue
        inclusive[name] += dur
        self_time[name] += dur - child_time[sid]
        calls[name] += 1
        if meta:
            for key in ("flops", "bytes"):
                if key in meta:
                    meta_sum[name, key] += meta[key]
        if name in _GENERATOR_SPANS:
            inclusive["kernelgen.generate"] += dur
            owner = spans[parent][5] if parent is not None else None
            row = COST_ROW.get(owner["variant"]) if owner else None
            if row is not None:
                gen_flops += stage_flops(
                    row, "kernel generation", owner["channels"], owner["compressed"],
                    owner["kernel_size"], owner["h"], owner["w"],
                )
                gen_time += dur

    def per_request_ms(total_s):
        return total_s * 1e3 / n_req

    def ratio(num, den):
        return num / den if den else 0.0

    values = {m: per_request_ms(inclusive[s]) for m, s in _INCLUSIVE_MS.items()}
    values.update({m: per_request_ms(self_time[s]) for m, s in _SELF_MS.items()})
    values["operators.build_ms"] = ratio(build_time * 1e3, builds)
    values["kernelgen.generate_ms"] = per_request_ms(inclusive["kernelgen.generate"])
    values["kernelgen.generate_gflops"] = ratio(gen_flops, gen_time) / 1e9
    values["assemble.reassemble_gflops"] = (
        ratio(meta_sum["assemble.reassemble", "flops"], inclusive["assemble.reassemble"]) / 1e9
    )
    values["assemble.reassemble_peak_mib"] = reassemble_peak / MIB
    values["assemble.reassemble_flops_per_byte"] = ratio(
        meta_sum["assemble.reassemble", "flops"], meta_sum["assemble.reassemble", "bytes"]
    )
    values["autograd.conv2d_calls"] = calls["autograd.conv2d"] / n_req
    values["autograd.op_calls"] = sum(calls[s] for s in _OP_SPANS) / n_req
    values["tensor.im2col_mib"] = meta_sum["tensor.im2col", "bytes"] / n_req / MIB
    values["tensor.io_mib"] = (
        meta_sum["tensor.read_ften", "bytes"] + meta_sum["tensor.write_ften", "bytes"]
    ) / n_req / MIB
    values["trace.overhead_ratio"] = overhead_ratio
    return {name: values[name] for name in PER_LAYER_UNITS}

"""Command-line surface: run operators on tensor files, verify the
property suites, compute cost tables, train toy tasks, dump figures.

Option precedence, for every setting in a command's ``_Opt`` table:
command-line flags > ``FADEUP_*`` environment variables > ``--config``
file (key=value lines, ``#`` comments) > built-in defaults.  ``upsample``,
``train``, ``ablate`` and ``cost --csv`` write a JSON run manifest beside
their outputs (``verify`` writes none); identical manifests reproduce
byte-identical output files.

Exit codes: 0 success, 1 property-suite failure, 2 I/O or file-format
error, 3 shape or configuration error, or a diverging training run.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from . import __version__, assemble, costmodel, gate, kernelgen
from . import autograd as ag
from . import operators as ops
from . import tensor as T
from . import toy
from .rng import ShuffledLcg
from .tensor import FormatError, ShapeError

ENV_PREFIX = "FADEUP_"


class CliConfigError(ValueError):
    """Bad flags or config values (exit code 3)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliConfigError(message)


def _read_config_file(path) -> dict:
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise CliConfigError(f"{path}:{lineno}: expected key=value")
                key, value = line.split("=", 1)
                values[key.strip()] = value.strip()
    except (OSError, UnicodeDecodeError) as e:
        raise FormatError(f"cannot read config file {path}: {e}") from e
    return values


@dataclass(frozen=True)
class _Opt:
    """Setting ``name`` of a command: ``--name``, ``FADEUP_NAME``, config key ``name``."""

    type: type
    default: object = None
    choices: tuple | None = None
    minimum: int | None = None
    help: str | None = None


def _settings(args, opts: dict, config: dict) -> dict:
    """Each setting from flag > environment > config file > default,
    checked against its choices and minimum whatever the source."""
    settings = {}
    for name, opt in opts.items():
        value = getattr(args, name)
        if value is None:
            env = ENV_PREFIX + name.upper()
            raw = os.environ.get(env, config.get(name))
            try:
                value = opt.default if raw is None else opt.type(raw)
            except ValueError:
                source = env if env in os.environ else f"config key {name}"
                raise CliConfigError(
                    f"{name} from {source}: {raw!r} is not a valid {opt.type.__name__}"
                ) from None
        if value is not None and opt.choices is not None and value not in opt.choices:
            raise CliConfigError(f"{name} must be one of {opt.choices}, got {value!r}")
        if value is not None and opt.minimum is not None and value < opt.minimum:
            raise CliConfigError(f"{name} must be >= {opt.minimum}, got {value}")
        settings[name] = value
    return settings


def _say(line: str) -> None:
    """Print a line to stdout.  Once the reader has closed it (``fadeup cost |
    head -1``), the rest goes to the null device, so the command still
    finishes, writes its files and exits with its own status."""
    try:
        print(line, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _write_manifest(path, command: str, config: dict, inputs, outputs) -> None:
    manifest = {
        "command": command,
        "config": {k: v for k, v in sorted(config.items())},
        "seed": config.get("seed"),
        "inputs": list(inputs),
        "outputs": list(outputs),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "version": __version__,
    }
    with T.open_output(path, "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


# ---------------------------------------------------------------------------
# upsample
# ---------------------------------------------------------------------------


def _read_finite(path, role: str) -> np.ndarray:
    """Read an FTEN input, rejecting NaN and inf: reassembly would spread them."""
    x = T.read_ften(path)
    if not np.isfinite(x).all():
        raise ValueError(f"{role} {path} holds non-finite values")
    return x


_UPSAMPLE_OPTS = {
    "variant": _Opt(str, "fade", choices=ops.VARIANTS),
    "seed": _Opt(int, 0),
    "impl": _Opt(str, kernelgen.DEFAULT_FORM, choices=tuple(kernelgen.SEMISHIFT_FORMS)),
    "d": _Opt(int, 64, help="compressed channels"),
    "K": _Opt(int, 5, help="kernel size"),
    "precision": _Opt(str, choices=("f32", "f64")),  # default: the decoder's dtype
    "gate": _Opt(str, choices=ops._GATE_MODES),  # default: the variant's
}


def _cmd_upsample(args) -> int:
    s = args.settings
    x_de = _read_finite(args.decoder, "decoder")
    x_en = _read_finite(args.encoder, "encoder") if args.encoder else None
    if s["precision"] is None:
        s["precision"] = "f64" if x_de.dtype == np.float64 else "f32"

    cfg = ops.OperatorConfig(
        s["variant"],
        channels=x_de.shape[1],
        compressed=s["d"],
        kernel_size=s["K"],
        seed=s["seed"],
        precision=s["precision"],
        gate_mode=s["gate"],
    )
    op = ops.build_operator(cfg)
    if args.weights:
        ops.load_checkpoint(op, args.weights)
    out = ag.value_of(op.forward(x_en, x_de, impl=s["impl"]))
    T.write_ften(args.out, out)
    inputs = [args.decoder] + ([args.encoder] if args.encoder else [])
    if args.weights:
        inputs.append(args.weights)
    _write_manifest(str(args.out) + ".manifest.json", "upsample", s, inputs, [args.out])
    return 0


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------


def _rel_dev(a: np.ndarray, b: np.ndarray) -> float:
    return float(
        np.max(np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b))))
    )


def _suite_equivalence(seeds: int):
    lines = []
    worst = {"f64": 0.0, "f32": 0.0}
    # h2l and l2h are one function: compute each distinct fast form once
    fast_forms = dict.fromkeys(
        f for name, f in kernelgen.SEMISHIFT_FORMS.items() if name != "direct"
    )
    for case in range(seeds):
        rng = np.random.default_rng(case)
        c = int(rng.integers(1, 9))
        h = int(rng.integers(1, 9))
        w = int(rng.integers(1, 9))
        n = int(rng.integers(1, 3))
        d = int(rng.integers(1, 9))
        for prec, tol_key in ((np.float64, "f64"), (np.float32, "f32")):
            x_en = rng.normal(size=(n, c, 2 * h, 2 * w)).astype(prec)
            x_de = rng.normal(size=(n, c, h, w)).astype(prec)
            dense = kernelgen.make_semishift_params(ShuffledLcg(case), c, d, 5, prec)
            lite = kernelgen.make_semishift_lite_params(ShuffledLcg(case), c, 5, prec)
            for p in (dense, lite):
                ref = kernelgen.semishift_direct(x_en, x_de, p).data
                for form in fast_forms:
                    dev = _rel_dev(ref, ag.value_of(form(x_en, x_de, p).data))
                    worst[tol_key] = max(worst[tol_key], dev)
    ok = worst["f64"] <= 1e-10 and worst["f32"] <= 1e-5
    lines.append(
        f"semi-shift equivalence over {seeds} cases (dense and depthwise generators): "
        f"worst rel dev f64={worst['f64']:.3e} (tol 1e-10), f32={worst['f32']:.3e} (tol 1e-5)"
    )
    return ok, lines


def _gradcheck_cases(seed: int):
    """The gradcheck examples at small shapes, one (name, op, arrays, loss)
    per check.  ``op`` is the public autograd function the case applies
    alone to ``arrays`` (a partial binds its non-array arguments), or None
    for a composite of several ops; ``loss`` maps the arrays to a scalar."""
    rng = np.random.default_rng(seed)
    cases = []

    def case(name, op, arrays, probe=None, loss=None):
        """By default the loss sums op's output, against ``probe`` if given."""

        def summed(*A):
            out = op(*A)
            return ag.sum_all(out if probe is None else ag.mul(out, probe))

        cases.append((name, op, arrays, loss or summed))

    # batch 2, so a weight gradient that drops batch items shows
    x = rng.normal(size=(2, 2, 4, 4))
    w = rng.normal(size=(3, 2, 3, 3))
    b = rng.normal(size=3)
    case("conv2d/s1", ag.conv2d, [x, w, b])
    case("conv1x1", ag.conv1x1, [x, rng.normal(size=(3, 2, 1, 1))])
    case("conv2d_depthwise", ag.conv2d_depthwise, [x, rng.normal(size=(2, 1, 3, 3))])
    case("interp_nearest_x2", ag.interp_nearest_x2, [x])
    for label, corners in (("half", False), ("corners", True)):
        bilinear = partial(ag.interp_bilinear_x2, align_corners=corners)
        case(f"interp_bilinear_x2/{label}", bilinear, [x])
    # strict maxima: a fixed ramp breaks ties so the subgradient is unique
    ramp = np.arange(32, dtype=np.float64).reshape(1, 2, 4, 4)
    case("maxpool2x2", ag.maxpool2x2, [ramp + 0.25 * rng.normal(size=(1, 2, 4, 4)).round(1)])
    probe = rng.normal(size=(1, 4, 2, 2))
    case("softmax_channel", ag.softmax_channel, [rng.normal(size=(1, 4, 2, 2))], probe)
    case("sigmoid", ag.sigmoid, [x])
    probe = rng.normal(size=(1, 1, 4, 4))
    case("pixel_shuffle_x2", ag.pixel_shuffle_x2, [rng.normal(size=(1, 4, 2, 2))], probe)
    # batch 2 and K=5 on a non-square plane: most taps fall off a border
    for (n, c, h, w), k in (((1, 2, 2, 3), 3), ((2, 2, 1, 3), 5)):
        xd = rng.normal(size=(n, c, h, w))
        kraw = rng.normal(size=(n, k * k, 2 * h, 2 * w))
        case(
            "reassemble(+softmax)",
            None,
            [xd, kraw],
            loss=lambda X, K, k=k: ag.sum_all(ag.reassemble(X, ag.softmax_channel(K), k)),
        )
    fe = rng.normal(size=(1, 2, 4, 4))
    fu = rng.normal(size=(1, 2, 4, 4))
    gr = rng.normal(size=(1, 1, 4, 4))
    case(
        "fuse_gated",
        None,
        [fe, fu, gr],
        loss=lambda A, B, G: ag.sum_all(ag.blend(A, B, ag.sigmoid(G))),
    )
    # semi-shift composites and full forwards, through each operator's own slots
    x_en = rng.normal(size=(1, 2, 4, 4))
    x_de = rng.normal(size=(1, 2, 2, 2))
    for variant in ("fade", "fade_lite"):
        op = ops.build_operator(
            ops.OperatorConfig(
                variant, channels=2, compressed=3, kernel_size=3, seed=seed, precision="f64"
            )
        )
        arrays = [x_en, x_de] + [np.array(v) for _, v in op.named_parameters()]

        def loss(XE, XD, *params, _op=op, form=None):
            _op.install_parameters(list(params))
            if form is None:
                return ag.sum_all(_op.forward(XE, XD))
            return ag.sum_all(form(XE, XD, _op.kernel_params).data)

        # h2l and l2h are one function: check each distinct fast form once
        for form in dict.fromkeys(
            f for name, f in kernelgen.SEMISHIFT_FORMS.items() if name != "direct"
        ):
            case(f"{variant} {form.__name__}", None, arrays, loss=partial(loss, form=form))
        case(f"{variant} forward", None, arrays, loss=loss)
    # the remaining ops, each against a probe so every entry's gradient counts.
    # A (2, 1, 4) operand broadcasts against x, so add/sub/mul's VJPs sum
    # over a leading axis and a size-1 axis
    px = rng.normal(size=x.shape)
    row = rng.normal(size=(2, 1, 4))
    for fn in (ag.add, ag.sub, ag.mul):
        case(f"{fn.__name__}/broadcast", fn, [x, row], px)
    # the unary ops at inputs at least 0.5 away from relu's kink at 0
    z = rng.normal(size=x.shape)
    away = np.sign(z) * (0.5 + np.abs(z))
    for name, fn in (
        ("scale", partial(ag.scale, s=0.7)),
        ("one_minus", ag.one_minus),
        ("relu", ag.relu),
        ("leaky_relu", ag.leaky_relu),
    ):
        case(name, fn, [away], px)
    case("mean_all", None, [x], loss=lambda X: ag.mean_all(ag.mul(X, px)))
    case("mse_loss", ag.mse_loss, [x, rng.normal(size=x.shape)], loss=ag.mse_loss)
    ce = partial(ag.softmax_cross_entropy, labels=rng.integers(0, 3, size=(2, 2, 3)))
    case("softmax_cross_entropy", ce, [rng.normal(size=(2, 3, 2, 3))], loss=ce)
    wide = rng.normal(size=(2, 3, 4, 4))
    case("concat_channels", ag.concat_channels, [x, wide], rng.normal(size=(2, 5, 4, 4)))
    probe = rng.normal(size=(2, 2, 8, 8))
    case("add_nearest_x2", ag.add_nearest_x2, [rng.normal(size=(2, 2, 8, 8)), x], probe)
    # the generator convs with their 1x1 compressor inside: dense with the
    # compressor's bias, depthwise without one
    wc, bc = rng.normal(size=(3, 2, 1, 1)), rng.normal(size=3)
    wg, bg = rng.normal(size=(4, 3, 3, 3)), rng.normal(size=4)
    probe_gen = rng.normal(size=(2, 4, 4, 4))
    case(
        "conv2d+compressor",
        None,
        [x, wc, bc, wg, bg],
        loss=lambda X, WC, BC, W, B: ag.sum_all(
            ag.mul(ag.conv2d(X, W, B, compressor=(WC, BC)), probe_gen)
        ),
    )
    probe_dw = rng.normal(size=(2, 3, 4, 4))
    case(
        "conv2d_depthwise+compressor",
        None,
        [x, wc, rng.normal(size=(3, 1, 3, 3))],
        loss=lambda X, WC, W: ag.sum_all(
            ag.mul(ag.conv2d_depthwise(X, W, compressor=(WC, None)), probe_dw)
        ),
    )
    # the ops the checks above reach only inside composites, each alone;
    # drawn last, so every draw above keeps its value
    probe = rng.normal(size=(2, 2, 4, 6))
    decoder_and_kernels = [rng.normal(size=(2, 2, 2, 3)), rng.normal(size=(2, 9, 4, 6))]
    case("reassemble", partial(ag.reassemble, k=3), decoder_and_kernels, probe)
    case("blend", ag.blend, [x, rng.normal(size=x.shape), rng.normal(size=(2, 1, 4, 4))], px)
    phases = [rng.normal(size=(2, 2, 2, 3)) for _ in range(4)]
    case("interleave2x2", ag.interleave2x2, phases, probe)
    case("mean_all/alone", ag.mean_all, [x], loss=ag.mean_all)
    case("sum_all", ag.sum_all, [x], loss=ag.sum_all)
    return cases


def _gradcheck_battery(seed: int):
    """(name, max-rel-error) for every gradcheck case."""
    return [(name, ag.gradcheck(loss, A)) for name, _, A, loss in _gradcheck_cases(seed)]


def _suite_gradcheck(seeds: int):
    lines = []
    worst = 0.0
    worst_name = ""
    for seed in range(seeds):
        for name, err in _gradcheck_battery(seed):
            if err > worst:
                worst, worst_name = err, f"{name} (seed {seed})"
    ok = worst < 1e-6
    lines.append(
        f"gradcheck over {seeds} seeds: worst rel err {worst:.3e} at {worst_name} (tol 1e-6)"
    )
    return ok, lines


def _suite_identities(_seeds: int):
    lines = []
    failures = []
    rng = np.random.default_rng(0)

    def expect(cond, label):
        lines.append(("PASS " if cond else "FAIL ") + label)
        if not cond:
            failures.append(label)

    x = rng.normal(size=(2, 3, 4, 5))
    k = 5
    onehot = np.zeros((2, k * k, 8, 10))
    onehot[:, (k * k - 1) // 2] = 1.0
    kmap = kernelgen.KernelMap(onehot, k, normalized=True)
    out = assemble.reassemble(x, kmap)
    expect(
        np.array_equal(out, ag.interp_nearest_x2(x)),
        "center-one-hot reassembly == nearest upsampling (bit-exact)",
    )
    f_en = rng.normal(size=(1, 3, 4, 4))
    f_up = rng.normal(size=(1, 3, 4, 4))
    ones = np.ones((1, 1, 4, 4))
    expect(
        np.array_equal(gate.fuse_gated(f_en, f_up, ones), f_en),
        "G=1 fusion == encoder feature (bit-exact)",
    )
    expect(
        np.array_equal(gate.fuse_gated(f_en, f_up, np.zeros((1, 1, 4, 4))), f_up),
        "G=0 fusion == upsampled feature (bit-exact)",
    )
    raw = kernelgen.KernelMap(rng.normal(size=(1, 25, 4, 4)), 5)
    norm = kernelgen.normalize_kernels(raw)
    sums = ag.value_of(norm.data).sum(axis=1)
    expect(
        float(np.abs(sums - 1.0).max()) < 1e-6, "normalized kernels sum to 1 (1e-6)"
    )
    z = rng.normal(size=(1, 6, 3, 3))
    shift = z + rng.normal(size=(1, 1, 3, 3))
    expect(
        float(np.abs(ag.softmax_channel(z) - ag.softmax_channel(shift)).max()) < 1e-12,
        "softmax is invariant to per-position channel shifts",
    )
    y = rng.normal(size=(1, 2, 3, 3))
    expect(
        np.array_equal(ag.interp_nearest_x2(y)[:, :, ::2, ::2], y),
        "NN x2 then stride-2 subsampling is the identity (bit-exact)",
    )
    s = rng.normal(size=(1, 8, 3, 3))
    expect(
        np.array_equal(ag.pixel_unshuffle_x2(ag.pixel_shuffle_x2(s)), s),
        "pixel shuffle round trip (bit-exact)",
    )
    return not failures, lines


_GOLDEN = (
    # row, gate, gflops string, exact flops, exact params
    ("carafe", True, "2.50", 2498363392, 73984),
    ("fade", True, "4.56", 4561600512, 47424),
    ("fade_lite", True, "1.53", 1531095552, 13281),
)


def _suite_cost(_seeds: int):
    lines = []
    ok = True
    for row, gate_flag, gstr, flops, params in _GOLDEN:
        q = costmodel.CostQuery(
            row, channels=256, compressed=64, kernel_size=5, height=112, width=112,
            gate=gate_flag,
        )
        rep = costmodel.flops_of(q)
        pcount = costmodel.params_of(q)
        got = costmodel.format_gflops(rep.flops)
        good = got == gstr and rep.flops == flops and pcount == params
        ok = ok and good
        lines.append(
            f"{'PASS' if good else 'FAIL'} {row}: {got} GFLOPs ({rep.flops} FLOPs), "
            f"{pcount} params (~{round(pcount / 1000)}K), extras {rep.extras_total}"
        )
    return ok, lines


_SUITES = {
    "equivalence": (_suite_equivalence, 100),
    "gradcheck": (_suite_gradcheck, 5),
    "identities": (_suite_identities, 1),
    "cost": (_suite_cost, 1),
}


_VERIFY_OPTS = {"seeds": _Opt(int, minimum=1)}  # default: the suite's


def _cmd_verify(args) -> int:
    suite_fn, default_seeds = _SUITES[args.suite]
    seeds = args.settings["seeds"]
    ok, lines = suite_fn(default_seeds if seeds is None else seeds)
    for line in lines:
        _say(line)
    _say(f"suite {args.suite}: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# train / ablate
# ---------------------------------------------------------------------------

_TASK_ALIASES = {
    "binary_shapes": ("binary_shapes_segmentation", 2),
    "multiclass_shapes": ("multiclass_shapes_segmentation", 3),
    "texture_recon": ("texture_reconstruction", 2),
}


def _history_csv(path, history) -> None:
    columns = ["epoch", "loss"]
    for row in history:
        for key in row:
            if key not in columns:
                columns.append(key)
    with T.open_output(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(columns)
        for row in history:
            writer.writerow([repr(row[c]) if c in row else "" for c in columns])


def _dump_run_figures(outdir: str, result: toy.TrainResult) -> list:
    """PGM dumps of the first validation sample: prediction, target, input, gate maps."""
    task = result.task
    x, y = toy.make_toy_task(toy.validation_task(task, 1))
    out, parts = result.net.forward(toy.net_inputs(x), want_parts=True)
    pred = toy.predict(task, ag.value_of(out))
    if task.is_segmentation:
        grey = max(task.classes - 1, 1)  # labels as grey levels in [0, 1]
        planes = {"prediction": pred[:1, None] / grey, "target": y[:1, None] / grey}
    else:
        planes = {"reconstruction": pred[:1], "target": y[:1]}
    planes["input"] = x[:1]
    for stage in ("stage1", "stage2"):
        g = parts[stage].get("gate")
        if g is not None:
            planes[f"gate_{stage}"] = ag.value_of(g)[:1]
    paths = [os.path.join(outdir, f"{name}.pgm") for name in planes]
    for path, plane in zip(paths, planes.values()):
        T.write_pgm(path, plane)
    return paths


_TRAIN_OPTS = {
    "variant": _Opt(str, "fade", choices=ops.VARIANTS),
    "epochs": _Opt(int, toy.TrainConfig.epochs, minimum=1),
    "lr": _Opt(float, toy.TrainConfig.lr),
    "size": _Opt(int, 48),
    "classes": _Opt(int),  # default: the task's
    "count": _Opt(int, 16),
    "seed": _Opt(int, 0),
}


def _cmd_train(args) -> int:
    kind, default_classes = _TASK_ALIASES[args.task]
    s = args.settings
    if s["classes"] is None:
        s["classes"] = default_classes
    task = toy.ToyTask(kind, s["size"], s["classes"], s["seed"], s["count"])
    cfg = toy.TrainConfig(s["variant"], s["epochs"], s["lr"], seed=s["seed"])
    result = toy.train_toy(cfg, task)
    os.makedirs(args.outdir, exist_ok=True)
    csv_path = os.path.join(args.outdir, "metrics.csv")
    _history_csv(csv_path, result.history)
    outputs = [csv_path] + _dump_run_figures(args.outdir, result)
    _write_manifest(
        os.path.join(args.outdir, "manifest.json"), "train", {"task": args.task, **s}, [],
        outputs,
    )
    final = " ".join(f"{k}={v:.4f}" for k, v in result.final.items())
    _say(f"{s['variant']} on {args.task}: {final}")
    return 0


ABLATION_VARIANTS = (
    ("b1_encoder_only", "encoder-only"),
    ("b2_decoder_only", "decoder-only (CARAFE)"),
    ("b3_naive", "encoder-decoder naive"),
    ("b4_semishift_nogate", "encoder-decoder semi-shift"),
    ("b5_semishift_skip", "semi-shift + skipping"),
    ("b6_full", "semi-shift + gating (full)"),
)


_ABLATE_OPTS = {
    "seeds": _Opt(int, 5, minimum=1),
    "epochs": _Opt(int, toy.TrainConfig.epochs, minimum=1),
    "size": _Opt(int, 48),
    "count": _Opt(int, 16),
}


def _cmd_ablate(args) -> int:
    s = args.settings
    seeds, size = s["seeds"], s["size"]
    tasks = [
        toy.ToyTask("multiclass_shapes_segmentation", size, 3, seed, s["count"])
        for seed in range(seeds)
    ]
    os.makedirs(args.outdir, exist_ok=True)
    table = {}
    for variant, _label in ABLATION_VARIANTS:
        row = []
        for seed, task in enumerate(tasks):
            cfg = toy.TrainConfig(variant, epochs=s["epochs"], seed=seed)
            try:
                result = toy.train_toy(cfg, task)
                miou = result.final["miou"]
                cell_csv = os.path.join(args.outdir, f"{variant}_seed{seed}.csv")
                _history_csv(cell_csv, result.history)
            except ag.DivergenceError:
                miou = None
            row.append(miou)
        table[variant] = row
    summary_path = os.path.join(args.outdir, "summary.csv")
    with T.open_output(summary_path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["variant", "label"] + [f"seed{i}" for i in range(seeds)] + ["mean"])
        for variant, label in ABLATION_VARIANTS:
            row = table[variant]
            cells = ["diverged" if v is None else repr(v) for v in row]
            valid = [v for v in row if v is not None]
            mean = repr(sum(valid) / len(valid)) if valid else "diverged"
            writer.writerow([variant, label] + cells + [mean])
    widths = max(len(label) for _, label in ABLATION_VARIANTS)
    _say(f"mIoU over {seeds} seeds (multiclass shapes, size {size}):")
    for variant, label in ABLATION_VARIANTS:
        row = table[variant]
        cells = " ".join("   div" if v is None else f"{v:.4f}" for v in row)
        _say(f"  {label:<{widths}}  {cells}")
    _write_manifest(
        os.path.join(args.outdir, "manifest.json"), "ablate", {**s, "seed": 0}, [],
        [summary_path],
    )
    return 0


# ---------------------------------------------------------------------------
# cost
# ---------------------------------------------------------------------------


_COST_OPTS = {
    "C": _Opt(int, 256),
    "d": _Opt(int, 64),
    "K": _Opt(int, 5),
    "H": _Opt(int, 112),
    "W": _Opt(int, 112),
}


def _cmd_cost(args) -> int:
    s = args.settings
    C, d, K, H, W = s["C"], s["d"], s["K"], s["H"], s["W"]
    gate_flag = not args.no_gate
    rows = args.rows.split(",") if args.rows else list(costmodel.ROWS)
    reports = []
    for row in rows:
        q = costmodel.CostQuery(
            row.strip(), channels=C, compressed=d, kernel_size=K, height=H, width=W,
            gate=gate_flag,
        )
        reports.append(costmodel.flops_of(q))
    name_w = max(len(r.row) for r in reports)
    _say(f"C={C} d={d} K={K} H={H} W={W} gate={'on' if gate_flag else 'off'}")
    _say(f"{'row':<{name_w}}  {'GFLOPs':>8}  {'params':>10}  {'extras':>7}")
    for r in reports:
        _say(
            f"{r.row:<{name_w}}  {costmodel.format_gflops(r.flops):>8}  "
            f"{r.params_counted:>10}  {r.extras_total:>7}"
        )
    if args.csv:
        with T.open_output(args.csv, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f)
            writer.writerow(["row", "gflops", "flops", "params", "extras"])
            for r in reports:
                writer.writerow(
                    [r.row, costmodel.format_gflops(r.flops), r.flops,
                     r.params_counted, r.extras_total]
                )
        config = {**s, "gate": gate_flag, "rows": ",".join(rows), "seed": 0}
        _write_manifest(str(args.csv) + ".manifest.json", "cost", config, [], [args.csv])
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@cache
def _build_parser() -> _Parser:
    """The parser, built once per process: parsing leaves it as it was, and
    its errors raise rather than exit."""
    parser = _Parser(prog="fadeup", description=__doc__)
    parser.add_argument("--config", help="key=value config file", default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, opts, help):
        p = sub.add_parser(name, help=help)
        for key, opt in opts.items():
            p.add_argument(f"--{key}", type=opt.type, choices=opt.choices, help=opt.help)
        p.set_defaults(run=run, opts=opts)
        return p

    p = command(
        "upsample", _cmd_upsample, _UPSAMPLE_OPTS, "run an upsampling operator on FTEN files"
    )
    p.add_argument("--decoder", required=True, help="low-res FTEN input")
    p.add_argument("--encoder", default=None, help="x2 guide FTEN input")
    p.add_argument("--weights", default=None, help="checkpoint to load")
    p.add_argument("--out", required=True)

    p = command("verify", _cmd_verify, _VERIFY_OPTS, "run a property suite")
    p.add_argument("--suite", choices=tuple(_SUITES), required=True)

    p = command("train", _cmd_train, _TRAIN_OPTS, "train a toy task with a chosen upsampler")
    p.add_argument("--task", choices=tuple(_TASK_ALIASES), required=True)
    p.add_argument("--outdir", required=True)

    p = command("ablate", _cmd_ablate, _ABLATE_OPTS, "run the six-variant ablation study")
    p.add_argument("--outdir", required=True)

    p = command("cost", _cmd_cost, _COST_OPTS, "closed-form FLOPs/parameter table")
    p.add_argument("--rows", default=None, help="comma-separated row names")
    p.add_argument("--no-gate", action="store_true")
    p.add_argument("--csv", default=None, help="also write the table as CSV")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = _read_config_file(args.config) if args.config else {}
        args.settings = _settings(args, args.opts, config)
        return args.run(args)
    except (FormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ShapeError, CliConfigError, costmodel.UnknownRowError, ValueError,
            ag.DivergenceError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

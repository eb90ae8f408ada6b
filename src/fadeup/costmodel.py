"""Closed-form FLOPs and parameter counts for the upsampling operators.

Per-position multiply-accumulate (MAC) polynomials are tabulated per
operator and stage; total FLOPs = 2 * MACs * H * W, where H, W are the
DECODER feature dims and the factor 2 converts MACs to FLOPs (it is the
unique integer factor that reproduces the published GFLOPs figures from
the same polynomials).  Parameter formulas count weights only; the bias
terms this implementation carries on top are reported separately as
"extras" so the headline numbers stay formula-exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .autograd import value_of
from .operators import VARIANT_SPECS, OperatorConfig, UpsampleOperator, effective_gate_mode

MAC_TO_FLOP = 2

# One row per operator: (C, d, K^2) -> ((kernel-generation MACs, weights),
# feature-assembly MACs, bias extras).  A row built here takes its weights
# from the variant table's polynomial, the one reconcile checks live
# operators against.
_ROW_COSTS = {
    "carafe": lambda C, d, K2: (
        (C * d + 36 * K2 * d, VARIANT_SPECS["carafe"].source.counted(C, d, K2)),
        4 * K2 * C,
        {"content_encoder.bias": 4 * K2},
    ),
    "indexnet_hin": lambda C, d, K2: ((32 * C * C + 8 * C, 32 * C * C + 8 * C), 4 * C, {}),
    "indexnet_m2o": lambda C, d, K2: ((68 * C * C, 68 * C * C), 4 * C, {}),
    "a2u": lambda C, d, K2: ((73 * C + 4 * K2, 4 * K2 * C + 2 * C), 4 * K2 * C, {}),
    "sapa": lambda C, d, K2: ((5 * C * d + 4 * K2 * d, 2 * C * d), 4 * K2 * C, {}),
    "fade": lambda C, d, K2: (
        (5 * C * d + 45 * K2 * d, VARIANT_SPECS["fade"].source.counted(C, d, K2)),
        4 * K2 * C,
        {"compressor_de.bias": d, "generator.bias": K2},
    ),
    "fade_lite": lambda C, d, K2: (
        (5 * C * K2 + 45 * K2, VARIANT_SPECS["fade_lite"].source.counted(C, d, K2)),
        4 * K2 * C,
        {"compressor_de.bias": K2, "generator.bias": K2},
    ),
}

ROWS = tuple(_ROW_COSTS)

GATED_ROWS = ("fade", "fade_lite")


class UnknownRowError(ValueError):
    """Cost query names an operator row that is not tabulated."""


class CostMismatchError(ValueError):
    """Live parameter count disagrees with the closed-form value."""


@dataclass(frozen=True)
class CostQuery:
    row: str
    channels: int  # C, of both encoder and decoder features
    compressed: int = 64  # d; ignored by rows without a compressor
    kernel_size: int = 5  # K
    height: int = 1  # H, decoder resolution
    width: int = 1  # W
    gate: bool = True  # only meaningful for gated rows

    def __post_init__(self):
        if self.row not in ROWS:
            raise UnknownRowError(f"unknown row {self.row!r}; known rows: {ROWS}")
        for name in ("channels", "compressed", "kernel_size", "height", "width"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer")
        if self.kernel_size % 2 == 0:
            raise ValueError(f"kernel_size must be odd, got {self.kernel_size}")


@dataclass
class CostReport:
    row: str
    gate: bool
    stage_macs: dict  # per-stage MACs per decoder position
    macs_total: int
    height: int
    width: int
    flops: int
    params_counted: int
    extras: dict = field(default_factory=dict)  # bias terms outside the formulas

    @property
    def gflops(self) -> float:
        return self.flops / 1e9

    @property
    def extras_total(self) -> int:
        return sum(self.extras.values())


def _gate_cost(C: int) -> tuple[int, int]:
    """(MACs, weights) per decoder position of the learned gate and its fusion."""
    return 9 * C, C


def _stages(q: CostQuery):
    """(stage -> (MACs, params)) plus the bias extras for rows built here."""
    generation, assembly, extras = _ROW_COSTS[q.row](
        q.channels, q.compressed, q.kernel_size**2
    )
    stages = {"kernel generation": generation, "feature assembly": (assembly, 0)}
    if q.row in GATED_ROWS and q.gate:
        stages["gated fusion"] = _gate_cost(q.channels)
        extras["gate.bias"] = 1
    return stages, extras


def flops_of(q: CostQuery) -> CostReport:
    stages, extras = _stages(q)
    stage_macs = {name: macs for name, (macs, _) in stages.items()}
    macs_total = sum(stage_macs.values())
    params = sum(p for _, p in stages.values())
    return CostReport(
        row=q.row,
        gate=q.gate if q.row in GATED_ROWS else False,
        stage_macs=stage_macs,
        macs_total=macs_total,
        height=q.height,
        width=q.width,
        flops=MAC_TO_FLOP * macs_total * q.height * q.width,
        params_counted=params,
        extras=extras,
    )


def _variant_counted(cfg: OperatorConfig) -> int:
    """The kernel source's weight polynomial, plus C for a learned gate."""
    source = VARIANT_SPECS[cfg.variant].source
    C = cfg.channels
    base = 0 if source is None else source.counted(C, cfg.compressed, cfg.kernel_size**2)
    return base + (_gate_cost(C)[1] if effective_gate_mode(cfg) == "learned" else 0)


def params_of(q) -> int:
    """Counted parameters for a Table row query or a built operator config."""
    if isinstance(q, OperatorConfig):
        return _variant_counted(q)
    if isinstance(q, CostQuery):
        stages, _ = _stages(q)
        return sum(p for _, p in stages.values())
    raise TypeError("params_of takes a CostQuery or an OperatorConfig")


@dataclass
class ReconcileReport:
    variant: str
    counted: int
    expected: int
    extras: dict  # tensor name -> element count (biases)
    adapter: dict  # tensor name -> element count (alignment adapter)

    @property
    def ok(self) -> bool:
        return self.counted == self.expected


def reconcile(op: UpsampleOperator) -> ReconcileReport:
    """Compare a built operator's live weight counts with the formulas."""
    counts = op.parameter_counts()
    expected = params_of(op.config)
    extras = {n: s for n, (b, s) in counts["tensors"].items() if b == "bias"}
    adapter = {n: s for n, (b, s) in counts["tensors"].items() if b == "adapter"}
    report = ReconcileReport(
        variant=op.config.variant,
        counted=counts["counted"],
        expected=expected,
        extras=extras,
        adapter=adapter,
    )
    if not report.ok:
        lines = [
            f"parameter mismatch for {op.config.variant}: live counted "
            f"{report.counted} != formula {report.expected}"
        ]
        for name, v in op.named_parameters():
            bucket, size = counts["tensors"][name]
            shape = tuple(value_of(v).shape)
            lines.append(f"  {name}: shape {shape} size {size} bucket {bucket}")
        raise CostMismatchError("\n".join(lines))
    return report


def format_gflops(flops: int) -> str:
    """Three significant figures, e.g. 2498363392 -> '2.50'."""
    return f"{flops / 1e9:#.3g}"

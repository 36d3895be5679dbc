"""Central-coverage summaries and side-by-side configuration comparisons.

Coverage here is the blunt geometric deployment metric: the fraction of
ROI cells with visibility above theta from at least one selected mount of
either modality.  It is not "detected": the optimizer sees a cell when both
modalities' detection probability 1 - prod(1 - v) reaches 1 - e^-tau, and
the simulator rolls against that same probability, while this test takes
one mount at a time, either modality, and no tau, so thinly covered cells
still count.

Costs are money, the selected mounts' unit costs, whatever budget mode
picked them; the mount count is a separate field.  So reports from count
and cost budgets compare on the same scale.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from .placement import PlacementProblem, Selection
from .scene import LIDAR, MODALITIES, RADAR


@dataclass(frozen=True)
class CoverageReport:
    config_name: str
    central_coverage: float
    covered_cells: int
    total_roi_cells: int
    total_cost: float
    sensor_count: int
    per_modality_cost: dict[str, float] = field(default_factory=dict)
    per_modality_covered: dict[str, int] = field(default_factory=dict)
    theta: float = 0.0

    def to_record(self) -> dict:
        return asdict(self)


def check_theta(theta: float, where: str = "theta") -> float:
    """``theta`` if nonnegative; the CLI reads its setting through this too."""
    if not theta >= 0:
        raise ValueError(f"{where} must be nonnegative, got {theta!r}")
    return theta


def coverage_report(
    problem: PlacementProblem,
    selection: Selection,
    config_name: str = "config",
    theta: float = 0.0,
) -> CoverageReport:
    """Fraction of ROI cells visible above theta from any selected mount.

    Raises IndexError for a pick outside its matrix, and ValueError if the
    problem carries no unit costs to price the selection with.
    """
    check_theta(theta)
    problem.check_selection(selection)
    covered = {m: (vis[sorted(selection.ids(m))] > theta).any(axis=0)
               for m, vis in problem.vis.items()}
    price = {m: problem.selection_price(Selection.of_picks((m, i) for i in selection.ids(m)))
             for m in MODALITIES}
    either = covered[LIDAR] | covered[RADAR]
    total = problem.n_cells
    return CoverageReport(
        config_name=config_name,
        central_coverage=float(either.sum()) / total if total else 0.0,
        covered_cells=int(either.sum()),
        total_roi_cells=total,
        total_cost=price[LIDAR] + price[RADAR],
        sensor_count=selection.size,
        per_modality_cost=price,
        per_modality_covered={m: int(c.sum()) for m, c in covered.items()},
        theta=theta,
    )


@dataclass(frozen=True)
class PairDelta:
    """Coverage and cost movement from a base config to another."""

    base: str
    other: str
    coverage_delta: float
    cost_reduction_pct: float | None

    def to_record(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ConfigComparison:
    reports: tuple[CoverageReport, ...]
    pairs: tuple[PairDelta, ...]

    def to_record(self) -> dict:
        return asdict(self)

    def to_text(self) -> str:
        lines = []
        header = f"{'config':<20} {'coverage':>9} {'cells':>12} {'sensors':>8} {'cost':>10}"
        lines.append(header)
        lines.append("-" * len(header))
        for r in self.reports:
            cells = f"{r.covered_cells}/{r.total_roi_cells}"
            lines.append(
                f"{r.config_name:<20} {r.central_coverage:>8.1%} {cells:>12}"
                f" {r.sensor_count:>8} {r.total_cost:>10.2f}"
            )
        lines.append("")
        for p in self.pairs:
            if p.cost_reduction_pct is None:
                cost_part = "cost reduction undefined (base cost is 0)"
            else:
                cost_part = f"cost reduction {p.cost_reduction_pct:.1f}%"
            lines.append(
                f"{p.base} -> {p.other}: coverage {p.coverage_delta:+.1%}, {cost_part}"
            )
        return "\n".join(lines) + "\n"


def compare_configs(reports: list[CoverageReport]) -> ConfigComparison:
    """Pairwise deltas for every ordered pair (i earlier than j in input)."""
    if len(reports) < 2:
        raise ValueError("comparison needs at least two coverage reports")
    pairs = []
    for a in range(len(reports)):
        for b in range(a + 1, len(reports)):
            base, other = reports[a], reports[b]
            if base.total_cost > 0:
                reduction = (base.total_cost - other.total_cost) / base.total_cost * 100.0
            else:
                reduction = None
            pairs.append(
                PairDelta(
                    base=base.config_name,
                    other=other.config_name,
                    coverage_delta=other.central_coverage - base.central_coverage,
                    cost_reduction_pct=reduction,
                )
            )
    return ConfigComparison(reports=tuple(reports), pairs=tuple(pairs))

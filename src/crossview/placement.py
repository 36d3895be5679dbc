"""Budget-constrained joint selection of lidar and radar mounts.

The planner picks a subset of candidate mounts, at most ``budget`` of them
(or within a cost cap), to maximize the weighted mass of ROI cells that are
simultaneously covered by both modalities.  A cell counts as covered by a
modality when the summed log-visibility of the selected mounts reaches the
seen threshold, i.e. the combined miss probability drops below e^-threshold.

Solvers:

* ``solve_exhaustive``  - reference enumeration, guarded to small instances.
* ``solve_branch_bound`` - exact search with a monotone relaxation bound;
  returns the same canonical optimum as enumeration.
* ``solve_greedy``      - fast warm start, no optimality guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import combinations
from typing import Iterable

import numpy as np

from .scene import LIDAR, RADAR
from .visibility import VisibilityMatrix, log_visibility

SEEN_TOL = 1e-9

EXHAUSTIVE_LIMIT = 20


class InstanceTooLargeError(ValueError):
    """Raised when enumeration would blow up combinatorially."""


@dataclass(frozen=True)
class Selection:
    """An unordered pick of lidar and radar candidate row indices."""

    lidar_ids: frozenset[int]
    radar_ids: frozenset[int]

    @property
    def size(self) -> int:
        return len(self.lidar_ids) + len(self.radar_ids)

    def canonical_key(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return (tuple(sorted(self.lidar_ids)), tuple(sorted(self.radar_ids)))

    @staticmethod
    def of(lidar_ids: Iterable[int] = (), radar_ids: Iterable[int] = ()) -> "Selection":
        return Selection(frozenset(lidar_ids), frozenset(radar_ids))


@dataclass(frozen=True)
class PlacementProblem:
    """Immutable solver input: matrices, their log transforms, and budget."""

    lidar_vis: np.ndarray
    radar_vis: np.ndarray
    lidar_log: np.ndarray
    radar_log: np.ndarray
    weights: np.ndarray
    budget: float
    seen_threshold: float = 1.0
    budget_mode: str = "count"
    lidar_costs: np.ndarray | None = None
    radar_costs: np.ndarray | None = None

    @classmethod
    def from_matrices(
        cls,
        lidar: VisibilityMatrix,
        radar: VisibilityMatrix,
        weights: np.ndarray,
        budget: float,
        seen_threshold: float = 1.0,
        budget_mode: str = "count",
        lidar_costs: np.ndarray | None = None,
        radar_costs: np.ndarray | None = None,
    ) -> "PlacementProblem":
        if lidar.n_cells != radar.n_cells:
            raise ValueError("lidar and radar matrices disagree on cell count")
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (lidar.n_cells,):
            raise ValueError("weights length must equal the ROI cell count")
        if np.any(weights < 0):
            raise ValueError("cell weights must be nonnegative")
        if budget_mode not in ("count", "cost"):
            raise ValueError(f"unknown budget_mode {budget_mode!r}")
        if seen_threshold <= 0:
            raise ValueError("seen_threshold must be positive")
        if budget < 0:
            raise ValueError("budget must be nonnegative")
        if budget_mode == "cost":
            if lidar_costs is None or radar_costs is None:
                raise ValueError("cost budget requires lidar_costs and radar_costs")
            lidar_costs = np.asarray(lidar_costs, dtype=float)
            radar_costs = np.asarray(radar_costs, dtype=float)
            if lidar_costs.shape != (lidar.n_candidates,):
                raise ValueError("lidar_costs length must match candidate count")
            if radar_costs.shape != (radar.n_candidates,):
                raise ValueError("radar_costs length must match candidate count")
            if np.any(lidar_costs < 0) or np.any(radar_costs < 0):
                raise ValueError("candidate costs must be nonnegative")
        return cls(
            lidar_vis=lidar.values,
            radar_vis=radar.values,
            lidar_log=log_visibility(lidar),
            radar_log=log_visibility(radar),
            weights=weights,
            budget=budget,
            seen_threshold=seen_threshold,
            budget_mode=budget_mode,
            lidar_costs=lidar_costs,
            radar_costs=radar_costs,
        )

    @property
    def n_lidar(self) -> int:
        return self.lidar_vis.shape[0]

    @property
    def n_radar(self) -> int:
        return self.radar_vis.shape[0]

    @property
    def n_cells(self) -> int:
        return self.weights.shape[0]

    def selection_cost(self, selection: Selection) -> float:
        if self.budget_mode == "count":
            return float(selection.size)
        assert self.lidar_costs is not None and self.radar_costs is not None
        total = 0.0
        for i in sorted(selection.lidar_ids):
            total += float(self.lidar_costs[i])
        for i in sorted(selection.radar_ids):
            total += float(self.radar_costs[i])
        return total


@dataclass(frozen=True)
class PlacementSolution:
    selection: Selection
    seen: np.ndarray = field(repr=False)
    cell_mass: np.ndarray = field(repr=False)
    objective: float = 0.0
    optimal: bool = False


def _sum_rows(matrix: np.ndarray, ids: Iterable[int]) -> np.ndarray:
    idx = sorted(ids)
    if not idx:
        return np.zeros(matrix.shape[1])
    return matrix[idx].sum(axis=0)


def evaluate_selection(problem: PlacementProblem, selection: Selection) -> PlacementSolution:
    """Score a selection; the budget is deliberately not enforced here."""
    for i in selection.lidar_ids:
        if not 0 <= i < problem.n_lidar:
            raise IndexError(f"lidar candidate index {i} out of range")
    for i in selection.radar_ids:
        if not 0 <= i < problem.n_radar:
            raise IndexError(f"radar candidate index {i} out of range")
    tau = problem.seen_threshold
    lidar_score = _sum_rows(problem.lidar_log, selection.lidar_ids)
    radar_score = _sum_rows(problem.radar_log, selection.radar_ids)
    seen = (lidar_score >= tau - SEEN_TOL) & (radar_score >= tau - SEEN_TOL)
    mass = (
        _sum_rows(problem.lidar_vis, selection.lidar_ids)
        + _sum_rows(problem.radar_vis, selection.radar_ids)
    ) * problem.weights
    objective = float(mass[seen].sum())
    return PlacementSolution(
        selection=selection,
        seen=seen,
        cell_mass=mass,
        objective=objective,
        optimal=False,
    )


def _within_budget(problem: PlacementProblem, selection: Selection) -> bool:
    return problem.selection_cost(selection) <= problem.budget + SEEN_TOL


def solve_exhaustive(problem: PlacementProblem) -> PlacementSolution:
    """Enumerate every feasible selection; exact but exponential."""
    n_total = problem.n_lidar + problem.n_radar
    if n_total > EXHAUSTIVE_LIMIT:
        raise InstanceTooLargeError(
            f"{n_total} candidates exceeds the enumeration limit of {EXHAUSTIVE_LIMIT}"
        )
    pool = [(LIDAR, i) for i in range(problem.n_lidar)]
    pool += [(RADAR, i) for i in range(problem.n_radar)]
    if problem.budget_mode == "count":
        max_size = min(n_total, int(problem.budget))
    else:
        max_size = n_total

    best: PlacementSolution | None = None
    best_key: tuple = ()
    for size in range(max_size + 1):
        for combo in combinations(pool, size):
            selection = Selection.of(
                (i for m, i in combo if m == LIDAR),
                (i for m, i in combo if m == RADAR),
            )
            if not _within_budget(problem, selection):
                continue
            cand = evaluate_selection(problem, selection)
            key = selection.canonical_key()
            if (
                best is None
                or cand.objective > best.objective
                or (cand.objective == best.objective and key < best_key)
            ):
                best, best_key = cand, key
    assert best is not None  # the empty selection is always feasible
    return replace(best, optimal=True)


def solve_greedy(problem: PlacementProblem) -> PlacementSolution:
    """Repeatedly add the best positive-gain mount, or mount pair.

    Coverage needs both modalities, so a lone mount often gains nothing;
    when no single addition helps, the step considers every affordable
    lidar+radar pair before giving up.  Ties resolve to the lowest
    indices because only strictly larger gains replace the incumbent.
    """
    current = Selection.of()
    value = evaluate_selection(problem, current).objective
    while True:
        best_gain = 0.0
        best_next: Selection | None = None
        for modality, count in ((LIDAR, problem.n_lidar), (RADAR, problem.n_radar)):
            for i in range(count):
                if modality == LIDAR:
                    if i in current.lidar_ids:
                        continue
                    trial = Selection(current.lidar_ids | {i}, current.radar_ids)
                else:
                    if i in current.radar_ids:
                        continue
                    trial = Selection(current.lidar_ids, current.radar_ids | {i})
                if not _within_budget(problem, trial):
                    continue
                gain = evaluate_selection(problem, trial).objective - value
                if gain > best_gain:
                    best_gain, best_next = gain, trial
        if best_next is None:
            for li in range(problem.n_lidar):
                if li in current.lidar_ids:
                    continue
                for ri in range(problem.n_radar):
                    if ri in current.radar_ids:
                        continue
                    trial = Selection(current.lidar_ids | {li}, current.radar_ids | {ri})
                    if not _within_budget(problem, trial):
                        continue
                    gain = evaluate_selection(problem, trial).objective - value
                    if gain > best_gain:
                        best_gain, best_next = gain, trial
        if best_next is None:
            break
        current = best_next
        value += best_gain
    return evaluate_selection(problem, current)


class _BranchBound:
    """Depth-first exact search over a fixed candidate ordering.

    The bound for a node assumes every undecided candidate is taken for
    free: coverage and per-cell mass are monotone in the selection, so the
    value of (includes + all remaining) ignoring the budget is a valid
    upper bound for the subtree.
    """

    def __init__(self, problem: PlacementProblem):
        self.problem = problem
        order = []
        for modality, matrix in ((LIDAR, problem.lidar_vis), (RADAR, problem.radar_vis)):
            mass = matrix * problem.weights
            for i in range(matrix.shape[0]):
                rank = 0 if modality == LIDAR else 1
                order.append((-float(mass[i].sum()), rank, i, modality))
        order.sort()
        self.order = [(modality, i) for _, _, i, modality in order]
        n = len(self.order)
        n_cells = problem.n_cells

        # Suffix sums over the ordering: adding candidates order[d:] to a
        # node costs one vector add per array instead of a fresh pass.
        self.suf_llog = np.zeros((n + 1, n_cells))
        self.suf_rlog = np.zeros((n + 1, n_cells))
        self.suf_lvis = np.zeros((n + 1, n_cells))
        self.suf_rvis = np.zeros((n + 1, n_cells))
        for d in range(n - 1, -1, -1):
            modality, i = self.order[d]
            self.suf_llog[d] = self.suf_llog[d + 1]
            self.suf_rlog[d] = self.suf_rlog[d + 1]
            self.suf_lvis[d] = self.suf_lvis[d + 1]
            self.suf_rvis[d] = self.suf_rvis[d + 1]
            if modality == LIDAR:
                self.suf_llog[d] = self.suf_llog[d] + problem.lidar_log[i]
                self.suf_lvis[d] = self.suf_lvis[d] + problem.lidar_vis[i]
            else:
                self.suf_rlog[d] = self.suf_rlog[d] + problem.radar_log[i]
                self.suf_rvis[d] = self.suf_rvis[d] + problem.radar_vis[i]

        self.best_obj = -1.0
        self.best_key: tuple = ()
        self.best_sel = Selection.of()

    def _offer(self, selection: Selection) -> None:
        obj = evaluate_selection(self.problem, selection).objective
        key = selection.canonical_key()
        if obj > self.best_obj or (obj == self.best_obj and key < self.best_key):
            self.best_obj = obj
            self.best_key = key
            self.best_sel = selection

    def _bound(self, depth: int, llog, rlog, lvis, rvis) -> float:
        tau = self.problem.seen_threshold
        seen = (llog + self.suf_llog[depth] >= tau - SEEN_TOL) & (
            rlog + self.suf_rlog[depth] >= tau - SEEN_TOL
        )
        mass = (lvis + self.suf_lvis[depth] + rvis + self.suf_rvis[depth]) * self.problem.weights
        return float(mass[seen].sum())

    def _cost_of(self, modality: str, i: int) -> float:
        if self.problem.budget_mode == "count":
            return 1.0
        costs = self.problem.lidar_costs if modality == LIDAR else self.problem.radar_costs
        assert costs is not None
        return float(costs[i])

    def run(self) -> PlacementSolution:
        problem = self.problem
        warm = solve_greedy(problem)
        self._offer(warm.selection)

        n = len(self.order)
        n_cells = problem.n_cells
        zeros = np.zeros(n_cells)

        def visit(depth: int, sel_l: frozenset[int], sel_r: frozenset[int],
                  spent: float, llog, rlog, lvis, rvis) -> None:
            bound = self._bound(depth, llog, rlog, lvis, rvis)
            # Strictly-worse pruning: equal-bound subtrees may still hold a
            # canonically smaller optimum, so they are explored.
            if bound < self.best_obj - SEEN_TOL:
                return
            if depth == n:
                self._offer(Selection(sel_l, sel_r))
                return
            modality, i = self.order[depth]
            cost = self._cost_of(modality, i)
            if spent + cost <= problem.budget + SEEN_TOL:
                if modality == LIDAR:
                    visit(depth + 1, sel_l | {i}, sel_r, spent + cost,
                          llog + problem.lidar_log[i], rlog,
                          lvis + problem.lidar_vis[i], rvis)
                else:
                    visit(depth + 1, sel_l, sel_r | {i}, spent + cost,
                          llog, rlog + problem.radar_log[i],
                          lvis, rvis + problem.radar_vis[i])
            visit(depth + 1, sel_l, sel_r, spent, llog, rlog, lvis, rvis)

        visit(0, frozenset(), frozenset(), 0.0, zeros, zeros, zeros, zeros)
        return replace(evaluate_selection(problem, self.best_sel), optimal=True)


def solve_branch_bound(problem: PlacementProblem) -> PlacementSolution:
    """Exact solver; agrees with enumeration on value and canonical pick."""
    # If even taking everything covers nothing, the empty pick is optimal.
    everything = Selection.of(range(problem.n_lidar), range(problem.n_radar))
    if evaluate_selection(problem, everything).objective <= 0.0:
        return replace(evaluate_selection(problem, Selection.of()), optimal=True)
    return _BranchBound(problem).run()

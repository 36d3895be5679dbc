"""Budget-constrained joint selection of lidar and radar mounts.

The planner picks a subset of candidate mounts, at most ``budget`` of them
(or within a cost cap), to maximize the weighted mass of ROI cells that are
simultaneously covered by both modalities.  A cell counts as covered by a
modality when the summed log-visibility of the selected mounts reaches the
seen threshold, i.e. the combined miss probability drops below e^-threshold:
the detection probability ``visibility.detection_probability`` gives, and
the simulator rolls against, reaches 1 - e^-threshold.  The test runs on the
log sums, which add along a search, rather than on that probability.

Solvers:

* ``solve_exhaustive``  - reference enumeration, guarded to small instances.
* ``solve_branch_bound`` - exact depth-first search, bounded per cell by
  the best that the picks still affordable under the budget can add;
  returns the same canonical optimum as enumeration.  It keeps
  O(candidates x cells) floats and an explicit stack, so neither memory
  nor recursion depth grows with the search.
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
        if not (np.isfinite(seen_threshold) and seen_threshold > 0):
            raise ValueError(f"seen_threshold must be finite and positive, got {seen_threshold!r}")
        if not (np.isfinite(budget) and budget >= 0):
            raise ValueError(f"budget must be finite and nonnegative, got {budget!r}")
        if (lidar_costs is None) != (radar_costs is None):
            raise ValueError("lidar_costs and radar_costs come together")
        if lidar_costs is None:
            if budget_mode == "cost":
                raise ValueError("cost budget requires lidar_costs and radar_costs")
        else:
            lidar_costs = np.asarray(lidar_costs, dtype=float)
            radar_costs = np.asarray(radar_costs, dtype=float)
            if lidar_costs.shape != (lidar.n_candidates,):
                raise ValueError("lidar_costs length must match candidate count")
            if radar_costs.shape != (radar.n_candidates,):
                raise ValueError("radar_costs length must match candidate count")
            if not (np.all(lidar_costs >= 0) and np.all(radar_costs >= 0)):
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
        """What ``selection`` spends of the budget: a count or money."""
        if self.budget_mode == "count":
            return float(selection.size)
        return self.selection_price(selection)

    def selection_price(self, selection: Selection) -> float:
        """Money: the picks' unit costs summed in index order, whatever the mode."""
        if self.lidar_costs is None or self.radar_costs is None:
            raise ValueError("the problem carries no unit costs")
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

    Candidates are ordered by falling weighted mass and each is decided
    include first.  A node bounds its subtree by r, the number of further
    picks that still fit the budget: the budget left, with the slack
    ``_within_budget`` allows, over the cheapest undecided cost (a count
    budget costs 1 per pick).  Coverage and mass are monotone in the
    selection, and r more picks add at most r times the largest undecided
    entry of a cell, so a cell's gain is bounded by min(suffix sum,
    r * suffix max): per modality over the log rows for the seen test, and
    over both modalities' weighted visibility rows for the mass.  This is
    the budgeted maximum coverage relaxation (Khuller, Moss & Naor, IPL
    1999) taken cell by cell.  If an undecided candidate is free, r is
    every undecided candidate and the bound is the plain suffix sum.

    Memory is O((n + 1) x cells): the suffix sum and max tables are built
    once along the order, each over one key's own rows (lidar logs, radar
    logs, all weighted visibility), and the search is an explicit stack
    over preallocated accumulators, one row per pick count.  Including a
    candidate writes parent row + candidate row into the next row; nothing
    is subtracted to backtrack, so a node's sums are the same floats
    however the search reached it.
    """

    def __init__(self, problem: PlacementProblem):
        self.problem = problem
        self.logs = {LIDAR: problem.lidar_log, RADAR: problem.radar_log}
        self.masses = {LIDAR: problem.lidar_vis * problem.weights,
                       RADAR: problem.radar_vis * problem.weights}
        order = []
        for modality, mass in self.masses.items():
            for i in range(mass.shape[0]):
                rank = 0 if modality == LIDAR else 1
                order.append((-float(mass[i].sum()), rank, i, modality))
        order.sort()
        self.order = [(modality, i) for _, _, i, modality in order]
        n = len(self.order)

        # Each key's tables run over its own rows in order: row k covers
        # that key's candidates from its k-th on, so a node at depth d reads
        # row decided[key][d].  Accumulating a zero row then the rows in
        # reverse adds in the same sequence as a loop from the back would.
        rows = {
            key: np.stack([np.zeros(problem.n_cells)]
                          + [table[modality][i] for modality, i in reversed(self.order)
                             if key in (modality, "mass")])
            for key, table in ((LIDAR, self.logs), (RADAR, self.logs), ("mass", self.masses))
        }
        self.suffix_sum = {key: np.add.accumulate(r)[::-1] for key, r in rows.items()}
        self.suffix_max = {key: np.maximum.accumulate(r, out=r)[::-1] for key, r in rows.items()}
        self.decided = {key: [0] * (n + 1) for key in (LIDAR, RADAR)}
        self.decided["mass"] = list(range(n + 1))
        for d, (modality, _) in enumerate(self.order):
            for key in (LIDAR, RADAR):
                self.decided[key][d + 1] = self.decided[key][d] + (key == modality)
        self.cheapest = [float("inf")] * (n + 1)
        for d in range(n - 1, -1, -1):
            self.cheapest[d] = min(self.cheapest[d + 1], self._cost_of(*self.order[d]))

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

    def _cost_of(self, modality: str, i: int) -> float:
        if self.problem.budget_mode == "count":
            return 1.0
        costs = self.problem.lidar_costs if modality == LIDAR else self.problem.radar_costs
        assert costs is not None
        return float(costs[i])

    def _picks_left(self, depth: int, spent: float) -> int:
        """How many more candidates of order[depth:] can still be taken."""
        undecided = len(self.order) - depth
        cheapest = self.cheapest[depth]
        if cheapest <= 0.0:
            return undecided
        fit = (self.problem.budget + SEEN_TOL - spent) / cheapest
        if not fit < undecided:  # NaN too: an infinite budget over an infinite cost
            return undecided
        # The 1e-9 keeps a quotient rounded just below an integer from
        # dropping a pick that the include test in ``run`` would allow.
        return int(fit + 1e-9)

    def _gain(self, key: str, depth: int, r: int, out: np.ndarray) -> np.ndarray:
        """Per-cell bound on what r more picks add to ``key``'s sums."""
        k = self.decided[key][depth]
        suffix_sum = self.suffix_sum[key]
        if r >= len(suffix_sum) - 1 - k:  # r picks can take every undecided one
            return suffix_sum[k]
        np.multiply(self.suffix_max[key][k], r, out=out)
        return np.minimum(out, suffix_sum[k], out=out)

    def run(self) -> PlacementSolution:
        problem = self.problem
        self._offer(solve_greedy(problem).selection)

        n_cells = problem.n_cells
        most = self._picks_left(0, 0.0)
        # Row k holds the sums of a node's k picks of that kind; a node only
        # ever writes the row above its own, which no pending node reads.
        acc = {key: np.zeros((min(most, table.shape[0] - 1) + 1, n_cells))
               for key, table in self.suffix_sum.items()}
        picked = [0] * most  # order positions of the current node's picks
        work = np.empty(n_cells)
        seen = np.empty(n_cells, dtype=bool)
        seen_radar = np.empty(n_cells, dtype=bool)
        threshold = problem.seen_threshold - SEEN_TOL

        stack = [(0, 0, 0, 0.0)]  # depth, lidar picks, radar picks, spent
        while stack:
            depth, n_l, n_r, spent = stack.pop()
            r = self._picks_left(depth, spent)
            np.add(acc[LIDAR][n_l], self._gain(LIDAR, depth, r, work), out=work)
            np.greater_equal(work, threshold, out=seen)
            np.add(acc[RADAR][n_r], self._gain(RADAR, depth, r, work), out=work)
            np.greater_equal(work, threshold, out=seen_radar)
            np.logical_and(seen, seen_radar, out=seen)
            np.add(acc["mass"][n_l + n_r], self._gain("mass", depth, r, work), out=work)
            np.multiply(work, seen, out=work)
            # Strictly-worse pruning: equal-bound subtrees may still hold a
            # canonically smaller optimum, so they are explored.
            if float(work.sum()) < self.best_obj - SEEN_TOL:
                continue
            if r == 0:
                # No further pick fits, so every branch below excludes the
                # rest and ends in this node's own selection.
                chosen = [self.order[d] for d in picked[:n_l + n_r]]
                self._offer(Selection.of((i for m, i in chosen if m == LIDAR),
                                         (i for m, i in chosen if m == RADAR)))
                continue
            stack.append((depth + 1, n_l, n_r, spent))
            modality, i = self.order[depth]
            cost = self._cost_of(modality, i)
            if spent + cost <= problem.budget + SEEN_TOL:
                k = n_l if modality == LIDAR else n_r
                np.add(acc[modality][k], self.logs[modality][i], out=acc[modality][k + 1])
                np.add(acc["mass"][n_l + n_r], self.masses[modality][i],
                       out=acc["mass"][n_l + n_r + 1])
                picked[n_l + n_r] = depth
                if modality == LIDAR:
                    stack.append((depth + 1, n_l + 1, n_r, spent + cost))
                else:
                    stack.append((depth + 1, n_l, n_r + 1, spent + cost))
        return replace(evaluate_selection(problem, self.best_sel), optimal=True)


def solve_branch_bound(problem: PlacementProblem) -> PlacementSolution:
    """Exact solver; agrees with enumeration on value and canonical pick."""
    # If even taking everything covers nothing, the empty pick is optimal.
    everything = Selection.of(range(problem.n_lidar), range(problem.n_radar))
    if evaluate_selection(problem, everything).objective <= 0.0:
        return replace(evaluate_selection(problem, Selection.of()), optimal=True)
    return _BranchBound(problem).run()

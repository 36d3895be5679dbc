"""Budget-constrained joint selection of lidar and radar mounts.

The planner picks a subset of candidate mounts, at most ``budget`` of them
(or within a cost cap), to maximize the weighted mass of ROI cells that are
simultaneously covered by both modalities.  A cell counts as covered by a
modality when the summed log-visibility of the selected mounts reaches the
seen threshold, i.e. the combined miss probability drops below e^-threshold:
the detection probability ``visibility.detection_probability`` gives, and
the simulator rolls against, reaches 1 - e^-threshold.  The test runs on the
log sums, which add along a search, rather than on that probability.

Both modalities enter as the same kind of data, so a ``PlacementProblem``
holds each per-candidate quantity (visibility row, its log row, unit cost)
as one table keyed by modality, in ``MODALITIES`` order, and its consumers
loop over that order: lidar first, then radar.

Solvers:

* ``solve_exhaustive``  - reference enumeration, guarded to small instances.
* ``solve_branch_bound`` - exact depth-first search over the r picks still
  affordable under the budget.  A node is bounded by its mass on the cells
  that may still be seen plus the r largest undecided row sums, with a
  float slack that keeps ties; the search finds its own incumbent.  It
  returns the same canonical optimum as enumeration, keeps
  O(candidates x cells) floats and an explicit stack, so neither memory
  nor recursion depth grows with the search.
* ``solve_greedy``      - fast heuristic, no optimality guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import accumulate, combinations
from typing import Iterable

import numpy as np

from .scene import LIDAR, MODALITIES, RADAR
from .visibility import VisibilityMatrix, log_visibility

BUDGET_MODES = ("count", "cost")

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

    def ids(self, modality: str) -> frozenset[int]:
        """The picks of one modality."""
        return {LIDAR: self.lidar_ids, RADAR: self.radar_ids}[modality]

    def canonical_key(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return (tuple(sorted(self.lidar_ids)), tuple(sorted(self.radar_ids)))

    @staticmethod
    def of(lidar_ids: Iterable[int] = (), radar_ids: Iterable[int] = ()) -> "Selection":
        return Selection(frozenset(lidar_ids), frozenset(radar_ids))

    @staticmethod
    def of_picks(picks: Iterable[tuple[str, int]]) -> "Selection":
        """The selection of ``(modality, row index)`` pairs."""
        picks = list(picks)
        return Selection.of(*([i for m, i in picks if m == key] for key in MODALITIES))


def check_budget(budget: float, seen_threshold: float) -> None:
    """The ranges of a problem's settings; the CLI checks its settings through this too."""
    if not (np.isfinite(seen_threshold) and seen_threshold > 0):
        raise ValueError(f"seen_threshold must be finite and positive, got {seen_threshold!r}")
    if not (np.isfinite(budget) and budget >= 0):
        raise ValueError(f"budget must be finite and nonnegative, got {budget!r}")


@dataclass(frozen=True)
class PlacementProblem:
    """Immutable solver input: per-modality tables, cell weights and budget.

    ``vis``, ``log`` and ``costs`` map each modality, in ``MODALITIES`` order,
    to its (candidates x cells) visibility matrix, that matrix's log
    transform -log(1 - v), and its candidates' unit costs.  ``costs`` is None
    for a problem without costs, which only a count budget allows.
    """

    vis: dict[str, np.ndarray]
    log: dict[str, np.ndarray]
    weights: np.ndarray
    budget: float
    seen_threshold: float = 1.0
    budget_mode: str = "count"
    costs: dict[str, np.ndarray] | None = None

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
        if budget_mode not in BUDGET_MODES:
            raise ValueError(f"unknown budget_mode {budget_mode!r}")
        check_budget(budget, seen_threshold)
        matrices = dict(zip(MODALITIES, (lidar, radar)))
        costs = None
        if (lidar_costs is None) != (radar_costs is None):
            raise ValueError("lidar_costs and radar_costs come together")
        if lidar_costs is None:
            if budget_mode == "cost":
                raise ValueError("cost budget requires lidar_costs and radar_costs")
        else:
            costs = {m: np.asarray(c, dtype=float)
                     for m, c in zip(MODALITIES, (lidar_costs, radar_costs))}
            for m, c in costs.items():
                if c.shape != (matrices[m].n_candidates,):
                    raise ValueError(f"{m}_costs length must match candidate count")
            if not all(np.all(c >= 0) for c in costs.values()):
                raise ValueError("candidate costs must be nonnegative")
        return cls(
            vis={m: matrix.values for m, matrix in matrices.items()},
            log={m: log_visibility(matrix) for m, matrix in matrices.items()},
            weights=weights,
            budget=budget,
            seen_threshold=seen_threshold,
            budget_mode=budget_mode,
            costs=costs,
        )

    @property
    def n_lidar(self) -> int:
        return self.vis[LIDAR].shape[0]

    @property
    def n_radar(self) -> int:
        return self.vis[RADAR].shape[0]

    @property
    def n_cells(self) -> int:
        return self.weights.shape[0]

    def check_selection(self, selection: Selection) -> None:
        """Raise IndexError unless every pick is a row of its modality's matrix."""
        for modality, vis in self.vis.items():
            for i in selection.ids(modality):
                if not 0 <= i < vis.shape[0]:
                    raise IndexError(f"{modality} candidate index {i} out of range")

    def unit_spend(self) -> dict[str, np.ndarray]:
        """What one pick of each candidate spends of the budget, per modality:
        1 in count mode, its unit cost in cost mode."""
        if self.budget_mode == "count":
            return {m: np.ones(vis.shape[0]) for m, vis in self.vis.items()}
        if self.costs is None:
            raise ValueError("the problem carries no unit costs")
        return self.costs

    def selection_cost(self, selection: Selection) -> float:
        """What ``selection`` spends of the budget: a count or money."""
        if self.budget_mode == "count":
            return float(selection.size)
        return self.selection_price(selection)

    def selection_price(self, selection: Selection) -> float:
        """Money: the picks' unit costs summed in index order, whatever the mode."""
        if self.costs is None:
            raise ValueError("the problem carries no unit costs")
        total = 0.0
        for modality, costs in self.costs.items():
            for i in sorted(selection.ids(modality)):
                total += float(costs[i])
        return total


@dataclass(frozen=True)
class PlacementSolution:
    selection: Selection
    seen: np.ndarray = field(repr=False)
    objective: float = 0.0
    optimal: bool = False


def _sum_rows(matrix: np.ndarray, ids: Iterable[int]) -> np.ndarray:
    idx = sorted(ids)
    if not idx:
        return np.zeros(matrix.shape[1])
    return matrix[idx].sum(axis=0)


def evaluate_selection(problem: PlacementProblem, selection: Selection) -> PlacementSolution:
    """Score a selection; the budget is deliberately not enforced here."""
    problem.check_selection(selection)
    tau = problem.seen_threshold - SEEN_TOL
    seen, mass = True, 0.0  # lidar rows, then radar rows
    for modality in MODALITIES:
        ids = selection.ids(modality)
        seen = seen & (_sum_rows(problem.log[modality], ids) >= tau)
        mass = mass + _sum_rows(problem.vis[modality], ids)
    mass = mass * problem.weights
    objective = float(mass[seen].sum())
    return PlacementSolution(selection=selection, seen=seen, objective=objective)


def within_budget(problem: PlacementProblem, selection: Selection) -> bool:
    """Whether ``selection`` fits the budget, up to ``SEEN_TOL``."""
    return problem.selection_cost(selection) <= problem.budget + SEEN_TOL


def solve_exhaustive(problem: PlacementProblem) -> PlacementSolution:
    """Enumerate every feasible selection; exact but exponential."""
    n_total = problem.n_lidar + problem.n_radar
    if n_total > EXHAUSTIVE_LIMIT:
        raise InstanceTooLargeError(
            f"{n_total} candidates exceeds the enumeration limit of {EXHAUSTIVE_LIMIT}"
        )
    pool = [(m, i) for m, vis in problem.vis.items() for i in range(vis.shape[0])]
    if problem.budget_mode == "count":
        max_size = min(n_total, int(problem.budget + SEEN_TOL))  # what within_budget allows
    else:
        max_size = n_total

    best: PlacementSolution | None = None
    best_key: tuple = ()
    for size in range(max_size + 1):
        for combo in combinations(pool, size):
            selection = Selection.of_picks(combo)
            if not within_budget(problem, selection):
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
        free_l = [i for i in range(problem.n_lidar) if i not in current.lidar_ids]
        free_r = [i for i in range(problem.n_radar) if i not in current.radar_ids]
        singles = [((i,), ()) for i in free_l] + [((), (i,)) for i in free_r]
        pairs = (((li,), (ri,)) for li in free_l for ri in free_r)
        best_gain = 0.0
        best_next: Selection | None = None
        for additions in (singles, pairs):  # pairs only when no single mount gains
            for add_l, add_r in additions:
                trial = Selection(current.lidar_ids.union(add_l), current.radar_ids.union(add_r))
                if not within_budget(problem, trial):
                    continue
                gain = evaluate_selection(problem, trial).objective - value
                if gain > best_gain:
                    best_gain, best_next = gain, trial
            if best_next is not None:
                break
        if best_next is None:
            break
        current = best_next
        value += best_gain
    return evaluate_selection(problem, current)


class _BranchBound:
    """Depth-first exact search over a fixed candidate ordering.

    Candidates are ordered by falling weighted mass (the row sum of
    visibility times weight) and each is decided include first.  A node
    bounds its subtree by r, the number of further picks that still fit the
    budget: the budget left, with the slack ``within_budget`` allows, over
    the least ``unit_spend`` of an undecided candidate.  If an undecided
    candidate is free, r is every undecided candidate.

    Visibilities, their log terms and weights are nonnegative, so coverage
    and mass are monotone in the selection.  Of the r further picks, at
    most r_m are of modality m: r_m is r, capped by the budget left over
    the least spend of an undecided candidate of that kind, as r is over
    the least of any.  Those picks add at most min(suffix sum, r_m * suffix
    max) of a cell's undecided log entries of that kind, so a cell whose
    lidar or radar sum stays below the threshold even so is seen by no
    descendant.  A descendant's objective is its mass over the cells it
    sees, which is at most the node's own mass on the cells still
    possibly seen plus the whole row sums of its further picks,
    and those are at most the r largest undecided row sums: the next r in
    the order, read from the table ``top``.  This is the budgeted maximum
    coverage relaxation (Khuller, Moss & Naor, IPL 1999) over whole
    candidates, and costs one dot product per node.  There is no warm
    start: nothing is pruned before the first leaf is offered, and the
    include-first dive down the order reaches one within n + 1 nodes.

    Float slack.  Every sum in the bound and in ``evaluate_selection``
    adds nonnegative terms (a dot with the 0/1 mask of possibly seen cells
    is such a sum), and a float sum of k nonnegative terms lies within a
    factor (1 +- u)^(k - 1) of the exact one in any order, u = 2^-53; a
    product with a weight is one more rounding.  No term of a bound or of
    an objective passes through more than m = n_cells + n_candidates
    roundings, so a descendant's float objective is at most
    (1 + u)^m / (1 - u)^(m + 1) times the float bound.  The bound is
    multiplied by ``self.slack`` = 1 + 2 m eps (eps = 2u, an exact float)
    before the strictly-worse test against the incumbent less
    ``SEEN_TOL``; even after that product's own rounding this covers the
    factor for every m from 2 to about 10^12, so a subtree that holds a
    tie is never cut, whatever the weights' scale.  The seen test divides
    its threshold by the same factor, since the search adds log rows in
    another order than ``evaluate_selection`` does.

    Memory is O((n + 1) x cells): the suffix sum and max tables are built
    once along the order, each over one modality's own log rows, and the
    search is an explicit stack over preallocated accumulators, one row per
    pick count.  Including a candidate writes parent row + candidate row
    into the next row; nothing is subtracted to backtrack, so a node's sums
    are the same floats however the search reached it.
    """

    def __init__(self, problem: PlacementProblem):
        self.problem = problem
        self.masses = {m: vis * problem.weights for m, vis in problem.vis.items()}
        order = []
        for rank, (modality, mass) in enumerate(self.masses.items()):
            for i in range(mass.shape[0]):
                order.append((-float(mass[i].sum()), rank, i, modality))
        order.sort()
        self.order = [(modality, i) for _, _, i, modality in order]
        n = len(self.order)
        # top[d][k]: the k largest row sums of order[d:], added in order.
        # Prefix differences of one table would cancel, so each depth keeps
        # its own sums of nonnegative terms, which the slack covers.
        self.top = [list(accumulate((-neg_sum for neg_sum, *_ in order[d:]), initial=0.0))
                    for d in range(n + 1)]
        self.slack = 1.0 + 2 * (problem.n_cells + n) * float(np.finfo(float).eps)

        # Each modality's tables run over its own rows in order: row k covers
        # its candidates from its k-th on, so a node at depth d reads row
        # decided[modality][d].  Accumulating a zero row then the rows in
        # reverse adds in the same sequence as a loop from the back would.
        rows = {
            key: np.stack([np.zeros(problem.n_cells)]
                          + [problem.log[key][i] for modality, i in reversed(self.order)
                             if modality == key])
            for key in MODALITIES
        }
        self.suffix_sum = {key: np.add.accumulate(r)[::-1] for key, r in rows.items()}
        self.suffix_max = {key: np.maximum.accumulate(r, out=r)[::-1] for key, r in rows.items()}
        self.decided = {key: [0] * (n + 1) for key in MODALITIES}
        for d, (modality, _) in enumerate(self.order):
            for key in MODALITIES:
                self.decided[key][d + 1] = self.decided[key][d] + (key == modality)
        spend = problem.unit_spend()
        self.costs = [float(spend[modality][i]) for modality, i in self.order]
        self.cheapest = self._cheapest(self.costs)
        # The same over each kind's own undecided candidates, by depth.
        self.cheapest_of = {
            key: self._cheapest([c if m == key else float("inf")
                                 for c, (m, _) in zip(self.costs, self.order)])
            for key in MODALITIES
        }

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

    @staticmethod
    def _cheapest(costs: list[float]) -> list[float]:
        """Entry d: the least of costs[d:], inf past the end."""
        return list(accumulate(reversed(costs), min, initial=float("inf")))[::-1]

    def _fit(self, spent: float, cheapest: float, undecided: int) -> int:
        """How many of ``undecided`` candidates costing at least ``cheapest``
        each can still be taken after spending ``spent``."""
        if cheapest <= 0.0:
            return undecided
        fit = (self.problem.budget + SEEN_TOL - spent) / cheapest
        if not fit < undecided:  # NaN too: an infinite budget over an infinite cost
            return undecided
        # The 1e-9 keeps a quotient rounded just below an integer from
        # dropping a pick that the include test in ``run`` would allow.
        return int(fit + 1e-9)

    def _picks_left(self, depth: int, spent: float) -> int:
        """How many more candidates of order[depth:] can still be taken."""
        return self._fit(spent, self.cheapest[depth], len(self.order) - depth)

    def _gain(self, key: str, depth: int, r: int, spent: float,
              out: np.ndarray) -> np.ndarray:
        """Per-cell bound on what r more picks add to ``key``'s sums.  Only
        as many of them can be of this kind as its cheapest undecided
        candidate allows."""
        k = self.decided[key][depth]
        suffix_sum = self.suffix_sum[key]
        undecided = len(suffix_sum) - 1 - k
        r = min(r, self._fit(spent, self.cheapest_of[key][depth], undecided))
        if r >= undecided:  # r picks can take every undecided one
            return suffix_sum[k]
        np.multiply(self.suffix_max[key][k], r, out=out)
        return np.minimum(out, suffix_sum[k], out=out)

    def run(self) -> PlacementSolution:
        problem = self.problem
        n_cells = problem.n_cells
        most = self._picks_left(0, 0.0)
        # Row k holds the sums of a node's k picks of that kind; a node only
        # ever writes the row above its own, which no pending node reads.
        counts = {**{m: vis.shape[0] for m, vis in problem.vis.items()}, "mass": len(self.order)}
        acc = {key: np.zeros((min(most, count) + 1, n_cells)) for key, count in counts.items()}
        picked = [0] * most  # order positions of the current node's picks
        work = np.empty(n_cells)
        seen = np.empty(n_cells, dtype=bool)
        seen_radar = np.empty(n_cells, dtype=bool)
        seen_mask = np.empty(n_cells)  # 1.0 where both modalities may see
        threshold = (problem.seen_threshold - SEEN_TOL) / self.slack

        stack = [(0, 0, 0, 0.0)]  # depth, lidar picks, radar picks, spent
        while stack:
            depth, n_l, n_r, spent = stack.pop()
            r = self._picks_left(depth, spent)
            np.add(acc[LIDAR][n_l], self._gain(LIDAR, depth, r, spent, work), out=work)
            np.greater_equal(work, threshold, out=seen)
            np.add(acc[RADAR][n_r], self._gain(RADAR, depth, r, spent, work), out=work)
            np.greater_equal(work, threshold, out=seen_radar)
            np.multiply(seen, seen_radar, out=seen_mask)
            # The node's mass on the cells still possibly seen, then the
            # bound.  Strictly-worse pruning: equal-bound subtrees may still
            # hold a canonically smaller optimum, so they are explored.
            held = float(np.dot(acc["mass"][n_l + n_r], seen_mask))
            if (held + self.top[depth][r]) * self.slack < self.best_obj - SEEN_TOL:
                continue
            if r == 0:
                # No further pick fits, so every branch below excludes the
                # rest and ends in this node's own selection.
                self._offer(Selection.of_picks(self.order[d] for d in picked[:n_l + n_r]))
                continue
            stack.append((depth + 1, n_l, n_r, spent))
            modality, i = self.order[depth]
            cost = self.costs[depth]
            if spent + cost <= problem.budget + SEEN_TOL:
                k = n_l if modality == LIDAR else n_r
                np.add(acc[modality][k], problem.log[modality][i], out=acc[modality][k + 1])
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

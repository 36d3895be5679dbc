"""Selection scoring and the three solvers."""

from __future__ import annotations

import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from crossview import (
    InstanceTooLargeError,
    PlacementProblem,
    Selection,
    VisibilityMatrix,
    detection_probability,
    evaluate_selection,
    solve_branch_bound,
    solve_exhaustive,
    solve_greedy,
)

from conftest import random_problem
from oracles import coverage_objective_reference


def make_problem(lidar, radar, weights=None, budget=2, threshold=1.0,
                 mode="count", lidar_costs=None, radar_costs=None):
    lidar = np.asarray(lidar, dtype=float)
    radar = np.asarray(radar, dtype=float)
    if weights is None:
        weights = np.ones(lidar.shape[1])
    return PlacementProblem.from_matrices(
        VisibilityMatrix("lidar", lidar),
        VisibilityMatrix("radar", radar),
        np.asarray(weights, dtype=float),
        budget=budget,
        seen_threshold=threshold,
        budget_mode=mode,
        lidar_costs=None if lidar_costs is None else np.asarray(lidar_costs, float),
        radar_costs=None if radar_costs is None else np.asarray(radar_costs, float),
    )


def test_evaluate_selection_single_cell():
    # One cell with v = 1 - 1/e on both modalities: each log term is
    # exactly the unit threshold, so the cell is seen and the objective
    # is the summed visibility, 2 * (1 - 1/e).
    v = 1.0 - math.exp(-1.0)
    problem = make_problem([[v]], [[v]], budget=2)
    result = evaluate_selection(problem, Selection.of([0], [0]))
    assert result.seen.tolist() == [True]
    assert result.objective == pytest.approx(2.0 * v, abs=1e-12)


def test_seen_test_is_the_detection_model_thresholded():
    # A cell is seen exactly when both modalities detect it with
    # probability at least 1 - e^-tau; cells within 1e-9 of that level
    # fall inside SEEN_TOL and are left out.
    rng = np.random.default_rng(23)
    checked = 0
    for _ in range(60):
        problem = replace(random_problem(rng), seen_threshold=float(rng.uniform(0.2, 3.0)))
        selection = Selection.of(
            (i for i in range(problem.n_lidar) if rng.random() < 0.5),
            (i for i in range(problem.n_radar) if rng.random() < 0.5))
        level = -math.expm1(-problem.seen_threshold)
        p_lidar = detection_probability(VisibilityMatrix("lidar", problem.lidar_vis),
                                        selection.lidar_ids)
        p_radar = detection_probability(VisibilityMatrix("radar", problem.radar_vis),
                                        selection.radar_ids)
        clear = (np.abs(p_lidar - level) > 1e-9) & (np.abs(p_radar - level) > 1e-9)
        seen = evaluate_selection(problem, selection).seen
        assert np.array_equal(seen[clear], ((p_lidar >= level) & (p_radar >= level))[clear])
        checked += int(seen[clear].sum())
    assert checked > 0


def test_seen_requires_both_modalities():
    v = 1.0 - math.exp(-1.0)
    problem = make_problem([[v]], [[v]], budget=2)
    lidar_only = evaluate_selection(problem, Selection.of([0], []))
    radar_only = evaluate_selection(problem, Selection.of([], [0]))
    assert not lidar_only.seen[0]
    assert not radar_only.seen[0]
    assert lidar_only.objective == 0.0
    assert radar_only.objective == 0.0


def test_visibilities_accumulate_across_mounts():
    # Two half-strength mounts per modality jointly cross the threshold.
    v = 1.0 - math.exp(-0.5)
    problem = make_problem([[v], [v]], [[v], [v]], budget=4)
    both = evaluate_selection(problem, Selection.of([0, 1], [0, 1]))
    assert both.seen[0]
    assert both.objective == pytest.approx(4.0 * v, abs=1e-12)
    one_each = evaluate_selection(problem, Selection.of([0], [0]))
    assert not one_each.seen[0]


def test_evaluate_selection_ignores_budget():
    v = 1.0 - math.exp(-1.0)
    problem = make_problem([[v], [v]], [[v], [v]], budget=0)
    result = evaluate_selection(problem, Selection.of([0, 1], [0, 1]))
    assert result.objective > 0.0


def test_evaluate_selection_rejects_bad_indices():
    problem = make_problem([[0.5]], [[0.5]])
    with pytest.raises(IndexError):
        evaluate_selection(problem, Selection.of([1], []))
    with pytest.raises(IndexError):
        evaluate_selection(problem, Selection.of([], [-1]))


def test_weights_scale_the_objective():
    v = 1.0 - math.exp(-1.0)
    problem = make_problem([[v, v]], [[v, v]], weights=[1.0, 3.0], budget=2)
    result = evaluate_selection(problem, Selection.of([0], [0]))
    assert result.objective == pytest.approx(2.0 * v * 4.0, abs=1e-12)


def test_exhaustive_picks_the_better_pair():
    v = 1.0 - math.exp(-1.0)
    # Lidar 1 and radar 1 cover a second cell; selecting them dominates.
    lidar = [[v, 0.0], [v, v]]
    radar = [[v, 0.0], [v, v]]
    solution = solve_exhaustive(make_problem(lidar, radar, budget=2))
    assert solution.selection == Selection.of([1], [1])
    assert solution.objective == pytest.approx(4.0 * v, abs=1e-12)
    assert solution.optimal


def test_exhaustive_canonical_tie_break():
    v = 1.0 - math.exp(-1.0)
    # All candidates identical: every one-per-modality pick ties, so the
    # lexicographically smallest index pair must win.
    lidar = [[v], [v]]
    radar = [[v], [v]]
    solution = solve_exhaustive(make_problem(lidar, radar, budget=2))
    assert solution.selection == Selection.of([0], [0])


def test_exhaustive_guard():
    rng = np.random.default_rng(0)
    lidar = rng.uniform(0, 0.9, (11, 4))
    radar = rng.uniform(0, 0.9, (10, 4))
    with pytest.raises(InstanceTooLargeError):
        solve_exhaustive(make_problem(lidar, radar, budget=2))


def test_branch_bound_matches_exhaustive_on_random_instances():
    rng = np.random.default_rng(2024)
    for _ in range(60):
        problem = random_problem(rng)
        bb = solve_branch_bound(problem)
        ex = solve_exhaustive(problem)
        assert bb.objective == ex.objective
        assert bb.selection == ex.selection
        assert bb.optimal and ex.optimal


def test_branch_bound_matches_exhaustive_cost_mode():
    rng = np.random.default_rng(77)
    for _ in range(50):
        problem = random_problem(rng, budget_mode="cost")
        bb = solve_branch_bound(problem)
        ex = solve_exhaustive(problem)
        assert bb.objective == ex.objective
        assert bb.selection == ex.selection


# Costs whose sums land on the budget only within SEEN_TOL (0.1 + 0.2 >
# 0.3 in floats), free candidates, and visibilities whose log terms sit on
# the unit seen threshold.
EDGE_COSTS = (0.0, 0.1, 0.2, 0.3, 0.7)
EDGE_VIS = (0.0, 0.3, 1.0 - math.exp(-0.5), 1.0 - math.exp(-1.0), 0.9)


def edge_problem(rng, mode: str, budget: float, identical: bool) -> PlacementProblem:
    n_l, n_r, n_c = (int(k) for k in rng.integers(1, [5, 5, 7]))
    lidar = rng.choice(EDGE_VIS, (n_l, n_c))
    radar = rng.choice(EDGE_VIS, (n_r, n_c))
    lidar_costs = rng.choice(EDGE_COSTS, n_l)
    radar_costs = rng.choice(EDGE_COSTS, n_r)
    if identical:
        lidar, radar = np.repeat(lidar[:1], n_l, axis=0), np.repeat(lidar[:1], n_r, axis=0)
        lidar_costs = np.full(n_l, lidar_costs[0])
        radar_costs = np.full(n_r, lidar_costs[0])
    return make_problem(lidar, radar, weights=rng.choice([0.5, 1.0, 2.0], n_c),
                        budget=budget, mode=mode, lidar_costs=lidar_costs,
                        radar_costs=radar_costs)


@pytest.mark.parametrize("mode, budget", [
    ("cost", 0.0), ("cost", 0.1), ("cost", 0.3), ("cost", 0.6), ("cost", 1.0),
    ("count", 9), ("count", 12),
])
def test_branch_bound_matches_exhaustive_at_tolerance_edges(mode, budget):
    # Count budgets 9 and 12 exceed every instance's candidate count (<= 8).
    rng = np.random.default_rng([19, int(budget * 10)])
    for trial in range(40):
        problem = edge_problem(rng, mode, budget, identical=trial % 4 == 0)
        bb = solve_branch_bound(problem)
        ex = solve_exhaustive(problem)
        assert bb.objective == ex.objective
        assert bb.selection == ex.selection


@pytest.mark.parametrize("cost, budget, picks", [
    (0.1, 0.3 - 5e-10, 3),
    (0.1, 0.6 - 1e-9, 6),
    (0.7, 2.1 - 1e-9, 3),
])
def test_branch_bound_takes_picks_that_fit_only_within_tolerance(cost, budget, picks):
    # The last pick fits only through SEEN_TOL, and budget / cost rounds to
    # just below the pick count.  No cell is seen without several mounts
    # of each kind, so the greedy warm start covers nothing and only the
    # search finds the optimum, which takes the last pick.
    rng = np.random.default_rng(0)
    lidar, radar = rng.uniform(0.0, 0.7, (4, 5)), rng.uniform(0.0, 0.7, (4, 5))
    problem = make_problem(lidar, radar, budget=budget, mode="cost",
                           lidar_costs=[cost] * 4, radar_costs=[cost] * 4)
    assert solve_greedy(problem).objective == 0.0
    bb = solve_branch_bound(problem)
    ex = solve_exhaustive(problem)
    assert bb.selection.size == picks
    assert (bb.objective, bb.selection) == (ex.objective, ex.selection)


def test_branch_bound_searches_past_the_recursion_limit():
    # 602 candidates, far more than the lowered limit of frames: a search
    # that recursed once per decided candidate would raise RecursionError.
    rng = np.random.default_rng(3)
    lidar = rng.uniform(0.0, 0.9, (600, 6))
    radar = rng.uniform(0.0, 0.9, (2, 6))
    problem = make_problem(lidar, radar, budget=2)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(250)
    try:
        solution = solve_branch_bound(problem)
    finally:
        sys.setrecursionlimit(limit)
    # At count budget 2 only a lidar + radar pair covers anything.
    best = max(
        (evaluate_selection(problem, Selection.of([li], [ri])).objective, -li, -ri)
        for li in range(600) for ri in range(2)
    )
    assert solution.objective == best[0]
    assert solution.selection == Selection.of([-best[1]], [-best[2]])


def test_objective_matches_scalar_reference():
    rng = np.random.default_rng(11)
    for _ in range(30):
        problem = random_problem(rng)
        sol = solve_branch_bound(problem)
        expected = coverage_objective_reference(
            problem.lidar_vis.tolist(),
            problem.radar_vis.tolist(),
            problem.weights.tolist(),
            sorted(sol.selection.lidar_ids),
            sorted(sol.selection.radar_ids),
            problem.seen_threshold,
        )
        assert sol.objective == pytest.approx(expected, abs=1e-9)


def test_branch_bound_empty_when_nothing_coverable():
    # Visibilities too weak for any cell to reach the threshold.
    problem = make_problem([[0.3, 0.2]], [[0.25, 0.1]], budget=2)
    solution = solve_branch_bound(problem)
    assert solution.selection == Selection.of()
    assert solution.objective == 0.0
    assert solution.optimal


def test_budget_zero_selects_nothing():
    v = 1.0 - math.exp(-1.0)
    solution = solve_branch_bound(make_problem([[v]], [[v]], budget=0))
    assert solution.selection == Selection.of()


def test_cost_mode_respects_cap():
    v = 1.0 - math.exp(-1.0)
    # The strong pair is unaffordable; the optimizer settles for the
    # affordable weaker pair.
    lidar = [[v, v], [v, 0.0]]
    radar = [[v, v], [v, 0.0]]
    problem = make_problem(
        lidar, radar, budget=4.0, mode="cost",
        lidar_costs=[10.0, 2.0], radar_costs=[10.0, 2.0],
    )
    solution = solve_branch_bound(problem)
    assert solution.selection == Selection.of([1], [1])
    ex = solve_exhaustive(problem)
    assert ex.selection == solution.selection


def test_greedy_never_beats_optimal_and_respects_budget():
    rng = np.random.default_rng(5)
    for _ in range(40):
        problem = random_problem(rng)
        greedy = solve_greedy(problem)
        best = solve_exhaustive(problem)
        assert greedy.objective <= best.objective + 1e-12
        assert greedy.selection.size <= problem.budget
        assert not greedy.optimal


def test_greedy_finds_obvious_optimum():
    v = 1.0 - math.exp(-1.0)
    lidar = [[v, v, 0.0], [0.0, 0.0, v]]
    radar = [[v, v, 0.0], [0.0, 0.0, v]]
    greedy = solve_greedy(make_problem(lidar, radar, budget=2))
    assert greedy.selection == Selection.of([0], [0])
    assert greedy.objective == pytest.approx(4.0 * v, abs=1e-12)


def test_from_matrices_validation():
    with pytest.raises(ValueError):
        make_problem([[0.5]], [[0.5, 0.5]])
    with pytest.raises(ValueError):
        make_problem([[0.5]], [[0.5]], weights=[1.0, 2.0])
    with pytest.raises(ValueError):
        make_problem([[0.5]], [[0.5]], weights=[-1.0])
    with pytest.raises(ValueError):
        make_problem([[0.5]], [[0.5]], threshold=0.0)
    with pytest.raises(ValueError):
        make_problem([[0.5]], [[0.5]], budget=-1)
    with pytest.raises(ValueError):
        make_problem([[0.5]], [[0.5]], mode="weird")
    with pytest.raises(ValueError):
        make_problem([[0.5]], [[0.5]], mode="cost")  # costs missing


@pytest.mark.parametrize("solver", [solve_branch_bound, solve_exhaustive, solve_greedy])
@pytest.mark.parametrize("mode", ["count", "cost"])
@pytest.mark.parametrize("field, value", [
    ("budget", math.nan), ("budget", math.inf), ("budget", -math.inf),
    ("threshold", math.nan), ("threshold", math.inf), ("threshold", -math.inf),
])
def test_non_finite_solver_inputs_are_rejected(solver, mode, field, value):
    # A NaN budget used to give the empty pick, and an infinite count
    # budget an OverflowError in enumeration; now no solver gets that far.
    with pytest.raises(ValueError, match="finite"):
        solver(make_problem([[0.9]], [[0.9]], mode=mode, lidar_costs=[1.0],
                            radar_costs=[1.0], **{field: value}))


def test_selection_canonical_key_sorted():
    sel = Selection.of([3, 1], [2])
    assert sel.canonical_key() == ((1, 3), (2,))
    assert sel.size == 3

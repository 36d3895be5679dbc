"""Selection scoring and the three solvers."""

from __future__ import annotations

import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from crossview import placement
from crossview import (
    CandidateMount,
    GridSpec,
    InstanceTooLargeError,
    Occluder,
    PlacementProblem,
    RegionOfInterest,
    Scene,
    Selection,
    SensorSpec,
    VisibilityMatrix,
    build_visibility,
    detection_probability,
    evaluate_selection,
    solve_branch_bound,
    solve_exhaustive,
    solve_greedy,
)

from conftest import random_problem
from oracles import coverage_objective_reference, greedy_reference


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


@pytest.mark.parametrize("mode", ["count", "cost"])
def test_branch_bound_finds_its_own_incumbent(mode, monkeypatch):
    # The exact search must not lean on the heuristic for a starting point.
    def refuse(problem):
        raise AssertionError("branch-and-bound ran solve_greedy")

    monkeypatch.setattr(placement, "solve_greedy", refuse)
    rng = np.random.default_rng([41, mode == "cost"])
    for _ in range(30):
        problem = random_problem(rng, budget_mode=mode)
        bb = solve_branch_bound(problem)
        ex = solve_exhaustive(problem)
        assert (bb.objective, bb.selection) == (ex.objective, ex.selection)


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


def duplicated_problem(rng, mode: str, scale: float) -> PlacementProblem:
    """Rows drawn with replacement from a few distinct ones, so that different
    picks score exactly the same float, with weights of the given scale."""
    n_l, n_r, n_c = (int(k) for k in rng.integers([1, 1, 3], [6, 6, 30]))
    lidar = rng.uniform(0.0, 0.95, (n_l, n_c)) * (rng.random((n_l, n_c)) < 0.7)
    radar = rng.uniform(0.0, 0.95, (n_r, n_c)) * (rng.random((n_r, n_c)) < 0.7)
    lidar, radar = lidar[rng.integers(0, n_l, n_l)], radar[rng.integers(0, n_r, n_r)]
    budget = int(rng.integers(1, 6)) if mode == "count" else float(rng.integers(1, 7))
    return make_problem(lidar, radar, weights=rng.uniform(0.5, 2.0, n_c) * scale,
                        budget=budget, mode=mode, lidar_costs=rng.choice([1.0, 2.0], n_l),
                        radar_costs=rng.choice([1.0, 2.0], n_r))


@pytest.mark.parametrize("mode", ["count", "cost"])
@pytest.mark.parametrize("scale", [1e-9, 1.0, 1e9])
def test_branch_bound_keeps_ties_at_every_weight_scale(mode, scale):
    # The bounds' float slack is relative, so a tie survives even where one
    # ulp of the objective is far above the absolute SEEN_TOL; at weights
    # near 1e9 a bound without it cut canonically smaller ties.
    rng = np.random.default_rng([53, int(math.log10(scale)) + 9, mode == "cost"])
    for _ in range(300):
        problem = duplicated_problem(rng, mode, scale)
        bb = solve_branch_bound(problem)
        ex = solve_exhaustive(problem)
        assert bb.selection.canonical_key() == ex.selection.canonical_key()
        assert bb.objective == ex.objective


@pytest.mark.parametrize("cost, budget, picks", [
    (0.1, 0.3 - 5e-10, 3),
    (0.1, 0.6 - 1e-9, 6),
    (0.7, 2.1 - 1e-9, 3),
])
def test_branch_bound_takes_picks_that_fit_only_within_tolerance(cost, budget, picks):
    # The last pick fits only through SEEN_TOL, and budget / cost rounds to
    # just below the pick count.  No cell is seen without several mounts
    # of each kind, so greedy covers nothing and only the exact search
    # finds the optimum, which takes the last pick.
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


def ring_scene(rng: np.random.Generator, weights_rng: np.random.Generator) -> Scene:
    """A planning-sized scene: 50 x 50 cells of 2 m weighted from ``weights_rng``,
    20 occluders, and on a square ring 2 m inside the edge 11 lidar poles (32
    and 128 beams in turn) with 11 radars between them facing the middle."""
    n, side = 50, 100.0
    grid = GridSpec(origin_xy=(0.0, 0.0), cell_size=2.0, nx=n, ny=n)
    weights = {j: round(float(w), 4) for j, w in enumerate(weights_rng.uniform(0.5, 2.0, n * n))}
    occluders = []
    for _ in range(20):
        (cx, cy), (hx, hy) = rng.uniform(20.0, 80.0, 2), rng.uniform(1.5, 4.0, 2)
        occluders.append(Occluder((float(cx - hx), float(cy - hy), 0.0),
                                  (float(cx + hx), float(cy + hy), float(rng.uniform(2.5, 6.0)))))

    def ring_point(t: float) -> tuple[float, float]:
        d = (t % 1.0) * 4.0 * 96.0
        edge, along = int(d // 96.0), d % 96.0
        return [(2.0 + along, 2.0), (98.0, 2.0 + along),
                (98.0 - along, 98.0), (2.0, 98.0 - along)][edge]

    offset = float(rng.uniform(0.0, 1.0))
    lidar, radar = [], []
    for p in range(11):
        x, y = ring_point(offset + (p + float(rng.uniform(-0.15, 0.15))) / 11)
        beams, reach, cost = (32, 70.0, 100.0) if p % 2 == 0 else (128, 110.0, 300.0)
        spec = SensorSpec("lidar", hfov_deg=360.0, vfov_deg=30.0, max_range_m=reach,
                          rate_hz=10.0, unit_cost=cost, beams=beams)
        lidar.append(CandidateMount(f"L{p:02d}", (x, y, float(rng.uniform(5.0, 7.0))), spec,
                                    pitch_deg=8.0))
    spec = SensorSpec("radar", hfov_deg=120.0, vfov_deg=30.0, max_range_m=100.0,
                      rate_hz=20.0, unit_cost=40.0)
    for p in range(11):
        x, y = ring_point(offset + (p + 0.5 + float(rng.uniform(-0.15, 0.15))) / 11)
        yaw = math.degrees(math.atan2(side / 2 - y, side / 2 - x)) + rng.uniform(-15.0, 15.0)
        radar.append(CandidateMount(f"R{p:02d}", (x, y, float(rng.uniform(4.0, 6.0))), spec,
                                    yaw_deg=float(yaw), pitch_deg=8.0))
    return Scene(grid=grid, roi=RegionOfInterest(frozenset(range(n * n)), weights),
                 occluders=tuple(occluders), lidar_candidates=tuple(lidar),
                 radar_candidates=tuple(radar))


def count_nodes(monkeypatch) -> list[int]:
    """The depths ``_picks_left`` is called at: one call per popped node,
    plus one that sizes the accumulators."""
    picks_left = placement._BranchBound._picks_left
    nodes = []

    def counted(self, depth, spent):
        nodes.append(depth)
        return picks_left(self, depth, spent)

    monkeypatch.setattr(placement._BranchBound, "_picks_left", counted)
    return nodes


def ring_problem(**budget) -> PlacementProblem:
    scene = ring_scene(np.random.default_rng([31, 0]), np.random.default_rng([1, 31, 0]))
    lidar, radar = build_visibility(scene)
    problem = PlacementProblem.from_matrices(
        lidar, radar, np.array([scene.roi.weight_of(j) for j in scene.roi.sorted_cells()]),
        lidar_costs=[m.spec.unit_cost for m in scene.lidar_candidates],
        radar_costs=[m.spec.unit_cost for m in scene.radar_candidates], **budget)
    assert (problem.n_lidar, problem.n_radar, problem.n_cells) == (11, 11, 2500)
    return problem


def test_branch_bound_prunes_a_planning_sized_search(monkeypatch):
    # The whole-row bound, with no warm start, visits 1,814 nodes in this
    # count-4 search; enumerating every pick of at most 4 of the 22
    # candidates is 9,109 selections.
    nodes = count_nodes(monkeypatch)
    problem = ring_problem(budget=4)
    assert solve_branch_bound(problem).selection.size == 4
    assert len(nodes) <= 2_000


def test_branch_bound_counts_each_kinds_picks_under_a_cost_budget(monkeypatch):
    # At cost 200 the cheapest candidate is a radar (40), so a node may
    # take 5 more picks, but a lidar costs 100 or 300, so at most 2 of them
    # are lidars.  Bounding each kind's sums by its own count visits 828
    # nodes here; letting all 5 picks add to both kinds' sums visited 1,341.
    nodes = count_nodes(monkeypatch)
    problem = ring_problem(budget=200.0, budget_mode="cost")
    solution = solve_branch_bound(problem)
    assert solution.selection.lidar_ids and solution.selection.radar_ids
    assert problem.selection_cost(solution.selection) <= 200.0
    assert len(nodes) <= 1_000


@pytest.mark.parametrize("ties", [False, True])
def test_branch_bound_matches_exhaustive_when_radars_are_cheapest(ties):
    # Radars cost 1 or 2 and lidars 2.5 to 7.5, so each kind's pick count
    # is bounded by its own cheapest; budgets on the half units make picks
    # fit exactly.  With ``ties``, rows repeat, so different picks score
    # exactly the same float and the canonical one must win.
    rng = np.random.default_rng([67, ties])
    for _ in range(80):
        n_l, n_r, n_c = (int(k) for k in rng.integers([1, 1, 3], [6, 6, 30]))
        lidar = rng.uniform(0.0, 0.95, (n_l, n_c)) * (rng.random((n_l, n_c)) < 0.7)
        radar = rng.uniform(0.0, 0.95, (n_r, n_c)) * (rng.random((n_r, n_c)) < 0.7)
        lidar_costs, radar_costs = rng.choice([2.5, 3.0, 7.5], n_l), rng.choice([1.0, 2.0], n_r)
        if ties:
            lidar, radar = lidar[rng.integers(0, n_l, n_l)], radar[rng.integers(0, n_r, n_r)]
            lidar_costs, radar_costs = np.full(n_l, lidar_costs[0]), np.full(n_r, radar_costs[0])
        problem = make_problem(lidar, radar, weights=rng.uniform(0.5, 2.0, n_c),
                               budget=float(rng.integers(2, 25)) / 2.0, mode="cost",
                               lidar_costs=lidar_costs, radar_costs=radar_costs)
        bb = solve_branch_bound(problem)
        ex = solve_exhaustive(problem)
        assert bb.selection.canonical_key() == ex.selection.canonical_key()
        assert bb.objective == ex.objective


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


@pytest.mark.parametrize("mode", ["count", "cost"])
def test_greedy_matches_the_two_loop_reference(mode, monkeypatch):
    # Singles then pairs through one trial loop: the same picks, objectives
    # and sequence of scored selections as the reference's two loops.
    calls = []

    def counted(problem, selection):
        calls.append(selection)
        return evaluate_selection(problem, selection)

    monkeypatch.setattr(placement, "evaluate_selection", counted)
    rng = np.random.default_rng(17)
    for _ in range(200):
        problem = random_problem(rng, budget_mode=mode)
        greedy = solve_greedy(problem)
        greedy_trials = calls[:]
        calls.clear()
        reference = greedy_reference(problem)
        assert greedy.selection == reference.selection
        assert greedy.objective == reference.objective
        assert greedy_trials == calls
        calls.clear()


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

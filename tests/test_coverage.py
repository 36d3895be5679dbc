"""Coverage reports and configuration comparison."""

from __future__ import annotations

import numpy as np
import pytest

from crossview import (
    CoverageReport,
    PlacementProblem,
    Selection,
    VisibilityMatrix,
    build_visibility,
    compare_configs,
    coverage_report,
)
from crossview.formats import coverage_from_record

from conftest import square_scene


def make_problem(lidar, radar, weights=None, **kwargs):
    lidar = np.asarray(lidar, dtype=float)
    radar = np.asarray(radar, dtype=float)
    if weights is None:
        weights = np.ones(lidar.shape[1])
    kwargs.setdefault("lidar_costs", np.full(lidar.shape[0], 100.0))
    kwargs.setdefault("radar_costs", np.full(radar.shape[0], 20.0))
    return PlacementProblem.from_matrices(
        VisibilityMatrix("lidar", lidar),
        VisibilityMatrix("radar", radar),
        np.asarray(weights, dtype=float),
        budget=kwargs.pop("budget", 4),
        **kwargs,
    )


def test_coverage_counts_either_modality():
    # Cell 0: lidar only.  Cell 1: radar only.  Cell 2: both.  Cell 3: none.
    problem = make_problem(
        lidar=[[0.5, 0.0, 0.4, 0.0]],
        radar=[[0.0, 0.3, 0.2, 0.0]],
    )
    report = coverage_report(problem, Selection.of([0], [0]), "both")
    assert report.central_coverage == 0.75
    assert report.covered_cells == 3
    assert report.total_roi_cells == 4
    assert report.per_modality_covered == {"lidar": 2, "radar": 2}


def test_unselected_mounts_do_not_count():
    problem = make_problem(
        lidar=[[0.9, 0.0], [0.0, 0.9]],
        radar=[[0.0, 0.0]],
    )
    report = coverage_report(problem, Selection.of([0], []), "lidar-only")
    assert report.covered_cells == 1
    empty = coverage_report(problem, Selection.of([], []), "nothing")
    assert empty.covered_cells == 0
    assert empty.central_coverage == 0.0


def test_theta_raises_the_bar():
    problem = make_problem(
        lidar=[[0.05, 0.5]],
        radar=[[0.0, 0.0]],
    )
    sel = Selection.of([0], [])
    assert coverage_report(problem, sel, theta=0.0).covered_cells == 2
    assert coverage_report(problem, sel, theta=0.1).covered_cells == 1
    # Strict inequality: a cell exactly at theta is not covered.
    assert coverage_report(problem, sel, theta=0.5).covered_cells == 0
    with pytest.raises(ValueError):
        coverage_report(problem, sel, theta=-0.1)


def test_count_mode_cost_is_money_and_count_is_separate():
    problem = make_problem(
        lidar=[[0.5], [0.5]],
        radar=[[0.5]],
    )
    report = coverage_report(problem, Selection.of([0, 1], [0]), "trio")
    assert report.total_cost == 220.0
    assert report.sensor_count == 3
    assert report.per_modality_cost == {"lidar": 200.0, "radar": 20.0}


def test_coverage_needs_unit_costs():
    problem = PlacementProblem.from_matrices(
        VisibilityMatrix("lidar", np.array([[0.5]])),
        VisibilityMatrix("radar", np.array([[0.5]])),
        np.ones(1), budget=2)
    with pytest.raises(ValueError, match="unit costs"):
        coverage_report(problem, Selection.of([0], [0]))


def test_selection_outside_the_matrix_is_refused():
    """coverage_report checks each pick as evaluate_selection does; row -1 used to
    price and cover the last lidar."""
    problem = make_problem(lidar=[[0.5], [0.0]], radar=[[0.5]])
    with pytest.raises(IndexError, match="lidar candidate index -1 out of range"):
        coverage_report(problem, Selection.of([-1], [0]))
    with pytest.raises(IndexError, match="radar candidate index 1 out of range"):
        coverage_report(problem, Selection.of([0], [1]))


def test_count_and_cost_budgets_compare_in_money():
    # At the same pick, a count budget of 2 and a cost budget of 300 spend
    # the same money; the reduction is 0, not a count set against money.
    lidar_vis, radar_vis = build_visibility(square_scene())
    weights = np.ones(lidar_vis.n_cells)
    costs = {"lidar_costs": np.full(2, 100.0), "radar_costs": np.full(2, 20.0)}
    count = PlacementProblem.from_matrices(lidar_vis, radar_vis, weights, budget=2, **costs)
    cost = PlacementProblem.from_matrices(lidar_vis, radar_vis, weights, budget=300.0,
                                          budget_mode="cost", **costs)
    pick = Selection.of([0], [1])
    reports = [coverage_report(count, pick, "count2"), coverage_report(cost, pick, "cost300")]
    assert [r.total_cost for r in reports] == [120.0, 120.0]
    assert [r.sensor_count for r in reports] == [2, 2]
    comparison = compare_configs(reports)
    assert comparison.pairs[0].cost_reduction_pct == 0.0
    assert "count2 -> cost300: coverage +0.0%, cost reduction 0.0%" in comparison.to_text()


def test_cost_mode_sums_unit_costs():
    problem = make_problem(
        lidar=[[0.5], [0.5]],
        radar=[[0.5]],
        budget=200.0,
        budget_mode="cost",
        lidar_costs=np.array([100.0, 80.0]),
        radar_costs=np.array([20.0]),
    )
    report = coverage_report(problem, Selection.of([1], [0]), "cheap")
    assert report.total_cost == 100.0
    assert report.sensor_count == 2
    assert report.per_modality_cost == {"lidar": 80.0, "radar": 20.0}


def test_compare_reports_pairwise_deltas():
    a = CoverageReport("dense", 0.90, 90, 100, 100.0, 2)
    b = CoverageReport("lean", 0.88, 88, 100, 44.0, 2)
    comparison = compare_configs([a, b])
    assert len(comparison.pairs) == 1
    pair = comparison.pairs[0]
    assert pair.base == "dense" and pair.other == "lean"
    assert pair.coverage_delta == pytest.approx(-0.02, abs=1e-12)
    assert pair.cost_reduction_pct == pytest.approx(56.0, abs=1e-12)
    text = comparison.to_text()
    assert "dense -> lean" in text
    assert "cost reduction 56.0%" in text


def test_compare_three_reports_gives_three_pairs():
    reports = [
        CoverageReport("a", 0.5, 50, 100, 10.0, 2),
        CoverageReport("b", 0.6, 60, 100, 20.0, 2),
        CoverageReport("c", 0.7, 70, 100, 30.0, 2),
    ]
    comparison = compare_configs(reports)
    assert [(p.base, p.other) for p in comparison.pairs] == [
        ("a", "b"), ("a", "c"), ("b", "c"),
    ]


def test_zero_base_cost_has_undefined_reduction():
    a = CoverageReport("free", 0.0, 0, 100, 0.0, 2)
    b = CoverageReport("paid", 0.5, 50, 100, 10.0, 2)
    comparison = compare_configs([a, b])
    assert comparison.pairs[0].cost_reduction_pct is None
    assert "undefined" in comparison.to_text()


def test_compare_needs_two_reports():
    only = CoverageReport("solo", 0.5, 50, 100, 10.0, 2)
    with pytest.raises(ValueError):
        compare_configs([only])
    with pytest.raises(ValueError):
        compare_configs([])


def test_record_round_trip_fields():
    a = CoverageReport("dense", 0.90, 90, 100, 100.0, 2,
                       per_modality_cost={"lidar": 80.0, "radar": 20.0},
                       per_modality_covered={"lidar": 85, "radar": 40},
                       theta=0.05)
    record = a.to_record()
    assert CoverageReport(**record) == a
    assert coverage_from_record(record, "record") == a
    comparison = compare_configs([a, CoverageReport("lean", 0.88, 88, 100, 44.0, 2)])
    rec = comparison.to_record()
    assert rec["pairs"][0]["cost_reduction_pct"] == pytest.approx(56.0)
    assert [r["config_name"] for r in rec["reports"]] == ["dense", "lean"]

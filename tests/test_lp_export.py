"""LP-format export: structure, numeric fidelity, external-solver agreement.

The tests parse the emitted text with a small LP reader and hand the model
to an independent MIP solver, so agreement with the in-process solvers
checks both the linearization and the serialization.
"""

from __future__ import annotations

import numpy as np
import pytest

from crossview import (
    PlacementProblem,
    VisibilityMatrix,
    export_milp,
    solve_exhaustive,
)

from conftest import random_problem


def parse_lp(text: str) -> dict:
    """Minimal reader for the subset of LP format the exporter emits."""

    def parse_expr(tokens):
        terms: dict[str, float] = {}
        sign = 1.0
        i = 0
        while i < len(tokens):
            tok = tokens[i]
            if tok == "+":
                sign = 1.0
                i += 1
            elif tok == "-":
                sign = -1.0
                i += 1
            else:
                terms[tokens[i + 1]] = terms.get(tokens[i + 1], 0.0) + sign * float(tok)
                sign = 1.0
                i += 2
        return terms

    model = {"objective": {}, "constraints": {}, "bounds": {}, "binaries": []}
    section = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("\\"):
            continue
        if line in ("Maximize", "Subject To", "Bounds", "Binaries", "End"):
            section = line
            continue
        if section == "Maximize":
            _, expr = line.split(":", 1)
            model["objective"] = parse_expr(expr.split())
        elif section == "Subject To":
            name, body = line.split(":", 1)
            tokens = body.split()
            op = "<=" if "<=" in tokens else ">="
            k = tokens.index(op)
            model["constraints"][name.strip()] = (
                parse_expr(tokens[:k]),
                op,
                float(tokens[k + 1]),
            )
        elif section == "Bounds":
            lo, _, var, _, hi = line.split()
            model["bounds"][var] = (float(lo), float(hi))
        elif section == "Binaries":
            model["binaries"].extend(line.split())
    return model


def solve_with_highs(model: dict) -> float:
    """Maximize the parsed model with scipy's HiGHS MIP front-end."""
    scipy_opt = pytest.importorskip("scipy.optimize")

    variables = sorted(set(model["binaries"]) | set(model["bounds"]))
    index = {v: k for k, v in enumerate(variables)}
    n = len(variables)

    c = np.zeros(n)
    for var, coef in model["objective"].items():
        c[index[var]] = -coef  # milp minimizes

    rows, lbs, ubs = [], [], []
    for terms, op, rhs in model["constraints"].values():
        row = np.zeros(n)
        for var, coef in terms.items():
            row[index[var]] = coef
        rows.append(row)
        lbs.append(-np.inf if op == "<=" else rhs)
        ubs.append(rhs if op == "<=" else np.inf)

    lower = np.zeros(n)
    upper = np.ones(n)
    integrality = np.zeros(n)
    for var in model["binaries"]:
        integrality[index[var]] = 1
    for var, (lo, hi) in model["bounds"].items():
        lower[index[var]] = lo
        upper[index[var]] = hi

    result = scipy_opt.milp(
        c=c,
        constraints=scipy_opt.LinearConstraint(np.array(rows), lbs, ubs),
        integrality=integrality,
        bounds=scipy_opt.Bounds(lower, upper),
    )
    assert result.success, result.message
    return -result.fun


def tiny_problem(**kwargs):
    return PlacementProblem.from_matrices(
        VisibilityMatrix("lidar", np.array([[1.0 - np.exp(-1.2)]])),
        VisibilityMatrix("radar", np.array([[1.0 - np.exp(-1.5)]])),
        np.array([2.0]),
        budget=kwargs.pop("budget", 2),
        **kwargs,
    )


def test_single_cell_structure():
    problem = tiny_problem()
    model = parse_lp(export_milp(problem))

    assert model["objective"] == {"z0": 1.0}
    assert set(model["constraints"]) == {
        "budget", "seenl0", "seenr0", "cap0", "mass0", "low0",
    }
    assert model["binaries"] == ["x0", "y0", "t0"]
    assert set(model["bounds"]) == {"z0"}

    terms, op, rhs = model["constraints"]["budget"]
    assert terms == {"x0": 1.0, "y0": 1.0} and op == "<=" and rhs == 2.0

    terms, op, rhs = model["constraints"]["seenl0"]
    assert op == ">=" and rhs == 0.0
    assert terms["x0"] == pytest.approx(1.2, abs=1e-12)
    assert terms["t0"] == -1.0

    big_m = 2.0 * float(problem.vis["lidar"][0, 0] + problem.vis["radar"][0, 0])
    terms, op, rhs = model["constraints"]["cap0"]
    assert terms == {"z0": 1.0, "t0": pytest.approx(-big_m)} and op == "<=" and rhs == 0.0
    terms, op, rhs = model["constraints"]["low0"]
    assert op == ">=" and rhs == pytest.approx(-big_m)
    assert model["bounds"]["z0"] == (0.0, pytest.approx(big_m))


def test_coefficients_round_trip_exactly():
    rng = np.random.default_rng(8)
    problem = random_problem(rng, max_lidar=3, max_radar=3, max_cells=6)
    model = parse_lp(export_milp(problem))
    for j in range(problem.n_cells):
        seen_l = model["constraints"][f"seenl{j}"][0]
        for i in range(problem.n_lidar):
            want = float(problem.log["lidar"][i, j])
            if want != 0.0:
                assert seen_l[f"x{i}"] == want  # .17g is repr-exact
        mass = model["constraints"][f"mass{j}"][0]
        for i in range(problem.n_radar):
            want = float(problem.weights[j] * problem.vis["radar"][i, j])
            if want != 0.0:
                assert mass[f"y{i}"] == -want


def test_zero_coefficients_are_omitted():
    problem = PlacementProblem.from_matrices(
        VisibilityMatrix("lidar", np.array([[0.5, 0.0]])),
        VisibilityMatrix("radar", np.array([[0.4, 0.4]])),
        np.array([1.0, 1.0]),
        budget=2,
    )
    model = parse_lp(export_milp(problem))
    # Cell 1 gets no lidar term: the row is just the -tau t entry.
    assert "x0" not in model["constraints"]["seenl1"][0]
    assert "x0" in model["constraints"]["seenl0"][0]


def test_budget_row_dropped_without_candidates():
    problem = PlacementProblem.from_matrices(
        VisibilityMatrix("lidar", np.zeros((0, 2))),
        VisibilityMatrix("radar", np.zeros((0, 2))),
        np.ones(2),
        budget=3,
    )
    text = export_milp(problem)
    assert "budget:" not in text
    model = parse_lp(text)
    assert set(model["constraints"]) == {
        "seenl0", "seenr0", "cap0", "mass0", "low0",
        "seenl1", "seenr1", "cap1", "mass1", "low1",
    }


def test_no_cells_is_an_error():
    problem = PlacementProblem.from_matrices(
        VisibilityMatrix("lidar", np.zeros((1, 0))),
        VisibilityMatrix("radar", np.zeros((1, 0))),
        np.zeros(0),
        budget=1,
    )
    with pytest.raises(ValueError):
        export_milp(problem)


def test_cost_mode_budget_row():
    problem = PlacementProblem.from_matrices(
        VisibilityMatrix("lidar", np.array([[0.6]])),
        VisibilityMatrix("radar", np.array([[0.5]])),
        np.array([1.0]),
        budget=120.0,
        budget_mode="cost",
        lidar_costs=np.array([100.0]),
        radar_costs=np.array([20.0]),
    )
    model = parse_lp(export_milp(problem))
    terms, op, rhs = model["constraints"]["budget"]
    assert terms == {"x0": 100.0, "y0": 20.0}
    assert rhs == 120.0


def test_external_solver_matches_exhaustive():
    pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(404)
    for trial in range(12):
        problem = random_problem(rng, max_lidar=4, max_radar=4,
                                 max_cells=10, max_budget=3)
        exact = solve_exhaustive(problem).objective
        external = solve_with_highs(parse_lp(export_milp(problem)))
        assert external == pytest.approx(exact, abs=1e-6), f"trial {trial}"


def test_external_solver_matches_exhaustive_cost_mode():
    pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(405)
    for trial in range(8):
        problem = random_problem(rng, max_lidar=4, max_radar=4,
                                 max_cells=8, budget_mode="cost")
        exact = solve_exhaustive(problem).objective
        external = solve_with_highs(parse_lp(export_milp(problem)))
        assert external == pytest.approx(exact, abs=1e-6), f"trial {trial}"

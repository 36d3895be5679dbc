"""Serialize a placement problem as a mixed-integer program in LP format.

The coverage objective multiplies a binary (cell seen) by a linear mass
term, so each cell gets an auxiliary continuous variable z_j linearized the
standard way: z <= M t, z <= mass, z >= mass - M (1 - t), with
M_j = w_j * (sum of all visibility the cell could ever receive).

Variables: x{i} lidar picks, y{i} radar picks, t{j} cell-seen flags
(binary), z{j} covered mass (continuous).  The text is plain LP format, one
constraint per line, coefficients printed with repr-exact precision so an
external solver sees the same numbers the in-process solvers use.
"""

from __future__ import annotations

from .placement import PlacementProblem
from .scene import LIDAR, MODALITIES, RADAR

# Each modality's pick variables and the name of its seen rows.
_PICK = {LIDAR: "x", RADAR: "y"}
_SEEN = {LIDAR: "seenl", RADAR: "seenr"}


def _num(x: float) -> str:
    if x == 0:
        return "0"
    return format(float(x), ".17g")


def _linexpr(terms: list[tuple[float, str]]) -> str:
    parts: list[str] = []
    for coef, var in terms:
        if coef == 0:
            continue
        sign = "-" if coef < 0 else "+"
        chunk = f"{_num(abs(coef))} {var}"
        if not parts:
            parts.append(chunk if sign == "+" else f"- {chunk}")
        else:
            parts.append(f"{sign} {chunk}")
    return " ".join(parts)


def export_milp(problem: PlacementProblem) -> str:
    """Render the problem as LP text an external MIP solver can consume."""
    n_l, n_r, n_c = problem.n_lidar, problem.n_radar, problem.n_cells
    if n_c == 0:
        raise ValueError("cannot export a problem with no ROI cells")
    tau = problem.seen_threshold
    w = problem.weights
    var = {m: [f"{_PICK[m]}{i}" for i in range(vis.shape[0])] for m, vis in problem.vis.items()}
    big_m = w * sum(vis.sum(axis=0) for vis in problem.vis.values())

    lines: list[str] = []
    lines.append("\\ crossview placement model")
    lines.append(
        f"\\ lidar={n_l} radar={n_r} cells={n_c} budget={_num(problem.budget)}"
        f" mode={problem.budget_mode} threshold={_num(tau)}"
    )
    lines.append("Maximize")
    lines.append(" obj: " + _linexpr([(1.0, f"z{j}") for j in range(n_c)]))
    lines.append("Subject To")

    spend = problem.unit_spend()
    budget_expr = _linexpr([(float(c), v) for m in MODALITIES for c, v in zip(spend[m], var[m])])
    if budget_expr:
        lines.append(f" budget: {budget_expr} <= {_num(problem.budget)}")

    for j in range(n_c):
        for m, log in problem.log.items():
            terms = [(float(c), v) for c, v in zip(log[:, j], var[m])]
            terms.append((-tau, f"t{j}"))
            lines.append(f" {_SEEN[m]}{j}: {_linexpr(terms)} >= 0")

    for j in range(n_c):
        mj = float(big_m[j])
        wj = float(w[j])
        mass = [(wj * float(c), v) for m, vis in problem.vis.items()
                for c, v in zip(vis[:, j], var[m])]
        lines.append(f" cap{j}: {_linexpr([(1.0, f'z{j}'), (-mj, f't{j}')])} <= 0")
        neg_mass = [(-c, v) for c, v in mass]
        lines.append(f" mass{j}: {_linexpr([(1.0, f'z{j}')] + neg_mass)} <= 0")
        low = [(1.0, f"z{j}")] + neg_mass + [(-mj, f"t{j}")]
        lines.append(f" low{j}: {_linexpr(low)} >= {_num(-mj)}")

    lines.append("Bounds")
    for j in range(n_c):
        lines.append(f" 0 <= z{j} <= {_num(float(big_m[j]))}")
    lines.append("Binaries")
    names = [v for m in MODALITIES for v in var[m]] + [f"t{j}" for j in range(n_c)]
    lines.append(" " + " ".join(names))
    lines.append("End")
    return "\n".join(lines) + "\n"

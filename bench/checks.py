"""Output checks that hold for any correct formulation of the engine.

None of these checks is timed.  Each returns a list of problems; an
empty list means the output passed.  The references held here are the
package's original functions, bound before any tracing is installed.
"""

from __future__ import annotations

import json
import math

import numpy as np

from relaxbound import Mesh, SolutionGrid, solve_block_system, solve_bound_state
from relaxbound.problems import block_builder, initial_guess

N = 3
RHS = 2 * N
# Newton must cut the largest residual entry by this factor from the
# starting profile to the relaxed grid.
RESIDUAL_DROP = 1e-6
# structured vs independent solve, normwise relative to the peak correction
# and divided by M^2: block entries grow like (1 - x)^-4 near x = 1, so
# both routes lose accuracy as the mesh reaches closer to it
SOLVE_RTOL_PER_M2 = 1e-12
# largest row residual of the structured solution, relative to the row's
# scale; the energy correction is too ill-conditioned for the forward
# comparison above to see an error confined to it
BACKWARD_ERROR = 1e-10
# analytic Jacobian entry vs central difference, relative to max(1, |entry|),
# plus the roundoff floor of the difference quotient
JACOBIAN_RTOL = 1e-6
ROUNDOFF_ULPS = 100.0
# a scan's selected energy vs a direct solve from the same guess
RESOLVE_RTOL = 1e-9
# dense LU up to this many mesh points, sparse LU beyond
DENSE_LIMIT = 1001


def _max_residual(build, mesh: Mesh, grid: SolutionGrid) -> float:
    """Largest meaningful residual entry of the blocks assembled at grid.

    Blocks are built and dropped one at a time, so the check never holds
    more of them than the engine does.
    """
    last = mesh.m + 1
    worst = abs(np.asarray(build(1, grid).s)[N - 1, RHS])
    for k in range(2, last):
        worst = max(worst, np.abs(np.asarray(build(k, grid).s)[:, RHS]).max())
    return float(max(worst, np.abs(np.asarray(build(last, grid).s)[:N - 1, RHS]).max()))


def relaxed_grid(spec, mesh: Mesh, guess: float, grid: SolutionGrid) -> list[str]:
    """The relaxed grid is finite and Newton shrank the residual."""
    if not np.isfinite(grid.y).all():
        return ["relaxed grid is not finite"]
    build = block_builder(mesh, spec)
    start = _max_residual(build, mesh, initial_guess(spec, mesh, guess))
    end = _max_residual(build, mesh, grid)
    if not end <= RESIDUAL_DROP * start:
        return [f"residual {end:.3e} not below {RESIDUAL_DROP:g} x start {start:.3e}"]
    return []


def scan_report(spec, mesh: Mesh, report, steps: int) -> list[str]:
    """Every guess is accounted for and the selection is reproducible."""
    problems = []
    if len(report.entries) != steps:
        problems.append(f"{len(report.entries)} entries for {steps} guesses")
    chosen = report.entries[report.selected]
    if not chosen.converged:
        problems.append("selected entry did not converge")
    for e in report.entries:
        if e.converged and not (math.isfinite(e.relaxed_e) and math.isfinite(e.roughness)):
            problems.append(f"converged entry at guess {e.e_guess} is not finite")
            break
    best = min(e.roughness for e in report.entries if e.converged)
    if chosen.roughness != best:
        problems.append("selected entry is not the smoothest converged one")
    direct = solve_bound_state(spec, mesh, report.selected_guess)
    if abs(direct.grid.energy - report.selected_relaxed) > RESOLVE_RTOL * abs(direct.grid.energy):
        problems.append(f"selected energy {report.selected_relaxed!r} differs from "
                        f"a direct solve {direct.grid.energy!r}")
    problems += relaxed_grid(spec, mesh, report.selected_guess, direct.grid)
    return problems


def smooth_grid(mesh: Mesh, rng, energy: float) -> SolutionGrid:
    """Random low-order sine mix with its exact derivative, constant energy."""
    coeff = rng.normal(size=4)
    y = np.zeros((N, mesh.m))
    for j, c in enumerate(coeff, start=1):
        y[0] += c * np.sin(j * np.pi * mesh.x)
        y[1] += c * j * np.pi * np.cos(j * np.pi * mesh.x)
    y[2] = energy * (1.0 + 0.5 * rng.normal())
    return SolutionGrid(y)


def _newton_matrix(blocks, m: int):
    """Rows, columns, values and right-hand side of A*delta = -E.

    Unknowns are ordered (y1, y2, y3) at point 0, then point 1, and so
    on; rows follow the block order k = 1..M+1.
    """
    rows, cols, vals, rhs = [], [], [], []

    def put(row, lo, coeffs):
        for j, v in enumerate(coeffs):
            if v != 0.0:
                rows.append(row)
                cols.append(lo + j)
                vals.append(v)

    s = np.asarray(blocks[0].s)
    put(0, 0, s[N - 1, N:RHS])
    rhs.append(-s[N - 1, RHS])
    for k in range(2, m + 1):
        s = np.asarray(blocks[k - 1].s)
        lo = N * (k - 2)
        for i in range(N):
            row = len(rhs)
            put(row, lo, s[i, :RHS])
            rhs.append(-s[i, RHS])
    s = np.asarray(blocks[m].s)
    for i in range(N - 1):
        put(len(rhs), N * (m - 1), s[i, N:RHS])
        rhs.append(-s[i, RHS])
    return np.array(rows), np.array(cols), np.array(vals), np.array(rhs)


def _backward_error(rows, cols, vals, rhs, delta: np.ndarray) -> float:
    """max_i |(A x - b)_i| / (sum_j |a_ij| max|x| + |b_i|), x = delta."""
    x = delta.T.ravel()
    resid = np.bincount(rows, vals * x[cols], minlength=rhs.size) - rhs
    scale = (np.bincount(rows, np.abs(vals), minlength=rhs.size) * np.abs(x).max()
             + np.abs(rhs))
    return float(np.max(np.abs(resid) / scale))


def _independent_solve(rows, cols, vals, rhs, m: int) -> np.ndarray:
    if m <= DENSE_LIMIT:
        a = np.zeros((N * m, N * m))
        a[rows, cols] = vals
        delta = np.linalg.solve(a, rhs)
    else:
        from scipy.sparse import csc_matrix
        from scipy.sparse.linalg import spsolve
        delta = spsolve(csc_matrix((vals, (rows, cols)), shape=(N * m, N * m)), rhs)
    return delta.reshape(m, N).T


def _central_difference(build, k, grid: SolutionGrid, row: int,
                        col: int) -> tuple[float, float]:
    """d(residual row of block k)/d(unknown of column col), central step,
    and the roundoff floor of that quotient.

    The residuals are at most bilinear in the unknowns, so a generous
    step has no truncation error and damps roundoff.
    """
    point = k - 2 if col < N else k - 1
    var = col % N
    base = np.array(grid.y)
    step = 1e-2 * max(1.0, abs(base[var, point]))
    plus, minus = np.array(base), np.array(base)
    plus[var, point] += step
    minus[var, point] -= step
    e_plus = np.asarray(build(k, SolutionGrid(plus)).s)[row, RHS]
    e_minus = np.asarray(build(k, SolutionGrid(minus)).s)[row, RHS]
    floor = ROUNDOFF_ULPS * np.finfo(float).eps * max(abs(e_plus), abs(e_minus)) / step
    return (e_plus - e_minus) / (2.0 * step), floor


def linear_algebra(spec, mesh: Mesh, rng, energy: float, n_blocks: int = 8) -> list[str]:
    """On one seeded grid: the block solver matches an independent LU
    of the same assembled matrix, and sampled Jacobian columns match
    central differences of the residual column."""
    grid = smooth_grid(mesh, rng, energy)
    build = block_builder(mesh, spec)
    blocks = [build(k, grid) for k in range(1, mesh.m + 2)]
    problems = []
    matrix = _newton_matrix(blocks, mesh.m)
    fast = solve_block_system(blocks)
    slow = _independent_solve(*matrix, mesh.m)
    gap = float(np.abs(fast - slow).max() / np.abs(slow).max())
    if not gap <= SOLVE_RTOL_PER_M2 * mesh.m ** 2:
        problems.append(f"M={mesh.m} {spec.kind.value}: block solve differs from "
                        f"LU by {gap:.2e} of the peak")
    backward = _backward_error(*matrix, fast)
    if not backward <= BACKWARD_ERROR:
        problems.append(f"M={mesh.m} {spec.kind.value}: block solve leaves a "
                        f"backward error of {backward:.2e}")
    ks = sorted({2, mesh.m, *rng.integers(2, mesh.m + 1, size=n_blocks).tolist()})
    worst = 0.0
    for k in ks:
        s = np.asarray(blocks[k - 1].s)
        for row in range(N):
            for col in range(RHS):
                fd, floor = _central_difference(build, k, grid, row, col)
                allowed = JACOBIAN_RTOL * max(1.0, abs(s[row, col])) + floor
                worst = max(worst, abs(fd - s[row, col]) / allowed)
    if not worst <= 1.0:
        problems.append(f"M={mesh.m} {spec.kind.value}: Jacobian differs from "
                        f"central differences by {worst:.2f} x its tolerance")
    return problems


def tables_report(text: str, n_coulomb: int, n_linear: int, n_scans: int) -> list[str]:
    """The tables report has every row of its three tables, none FAILED."""
    sections = [s for s in text.split("\n\n") if s.strip()]
    want = (n_coulomb, n_linear, n_scans)
    if len(sections) != 1 + len(want):
        return [f"tables report has {len(sections)} sections"]
    problems = []
    for section, rows in zip(sections[1:], want):
        body = [ln for ln in section.splitlines()
                if ln.startswith("  ") and ln.strip()[:1].isdigit()]
        if len(body) != rows:
            problems.append(f"table '{section.splitlines()[0]}' has {len(body)} "
                            f"of {rows} rows")
        if any("FAILED" in ln for ln in body):
            problems.append(f"table '{section.splitlines()[0]}' has a FAILED row")
    return problems


def solve_json(path, m: int) -> list[str]:
    """The solve --format json payload is complete and finite."""
    with open(path) as fh:
        payload = json.load(fh)
    problems = []
    if not payload.get("converged"):
        problems.append("solve payload reports no convergence")
    if len(payload.get("x", ())) != m or len(payload.get("value", ())) != m:
        problems.append(f"solve payload does not hold {m} points")
    values = np.asarray(payload.get("value", []) + [payload.get("eigenvalue")], dtype=float)
    if not np.isfinite(values).all():
        problems.append("solve payload is not finite")
    return problems


def oracle_dat(path, m: int) -> list[str]:
    """The oracle curve file holds m finite 'x value' rows."""
    data = np.loadtxt(path, ndmin=2)
    if data.shape != (m, 2) or not np.isfinite(data).all():
        return [f"oracle curve file has shape {data.shape}, not ({m}, 2) finite"]
    return []

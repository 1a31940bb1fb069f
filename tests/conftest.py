"""Shared fixtures and oracle helpers for the test suite.

The dense assembler here is the independent route for checking the
structured block solver: it materialises the full NM x NM Newton matrix
from the very same difference blocks and solves it with numpy's LU.
Keep it dumb on purpose; it must not share code with the solver.

reference_blocks is the scalar route for checking the array assembler,
for both formulations: the one-block-at-a-time arithmetic on scalars,
point by point, which the array code must reproduce bit for bit.
reference_elimination does the same for the block solver: the same
pivots and arithmetic written as plain loops over index lists.

reference_relax and reference_scan are the routes for checking the
batched engine: the one-grid Newton loop and the guess-by-guess scan,
on solve_block_system, that relax_batch and scan must reproduce
exactly.

reference_ai_series is the scalar route for checking the Airy series
on arrays: the one-point Maclaurin loop on Python floats, which every
entry of an array evaluation must reproduce bit for bit.

linear_level is the independent route for the linear potential's
levels at any l: a second-order finite-difference Hamiltonian in r
itself (no compactification, no relaxation), diagonalised by scipy.
fd_level is the route for any potential and l: the same kind of matrix
on the compactified mesh, sharing only V with the box scheme, whose
O(h^2) error one Richardson step removes.

serial_engine and helper choose who eliminates a batch's groups: this
process alone, or this process and a fresh helper process that is
ready before the test starts, so that every sweep of two groups or more
splits the same way.
"""

import itertools
import math
import os
import time
from dataclasses import replace
from importlib import import_module

import numpy as np
import pytest

from relaxbound import (BlockBuilder, DifferenceBlock, Mesh, Potential, ProblemSpec,
                        RelaxOutcome, ScanEntry, ScanReport,
                        SingularBlockError, SolutionGrid, block_builder,
                        default_config, initial_guess, level_guess,
                        roughness, solve_block_system)
from relaxbound.scanner import _select

# the package re-exports a function named relax over its relax module
relax_mod = import_module("relaxbound.relax")
N = 3
RHS = 6


def dense_solve(blocks, m, n_left=1):
    """Assemble and solve the full Newton system A*delta = -E by LU.

    Blocks are N x (2N+1) with N read from the first one; the left block
    holds n_left meaningful rows (its last), the right block N - n_left
    (its first).  Unknown ordering: y1..yN at point 0, then point 1,
    and so on.  Row blocks follow the k = 1..M+1 block order.
    """
    n = np.asarray(blocks[0].s).shape[0]
    rhs_col = 2 * n
    a = np.zeros((n * m, n * m))
    rhs = np.zeros(n * m)
    row = 0

    s = np.asarray(blocks[0].s, dtype=float)
    for i in range(n - n_left, n):
        a[row, 0:n] = s[i, n:rhs_col]
        rhs[row] = -s[i, rhs_col]
        row += 1

    for k in range(2, m + 1):
        s = np.asarray(blocks[k - 1].s, dtype=float)
        lo = n * (k - 2)
        for i in range(n):
            a[row, lo:lo + n] = s[i, 0:n]
            a[row, lo + n:lo + 2 * n] = s[i, n:rhs_col]
            rhs[row] = -s[i, rhs_col]
            row += 1

    s = np.asarray(blocks[m].s, dtype=float)
    lo = n * (m - 1)
    for i in range(n - n_left):
        a[row, lo:lo + n] = s[i, n:rhs_col]
        rhs[row] = -s[i, rhs_col]
        row += 1

    delta = np.linalg.solve(a, rhs)
    return delta.reshape(m, n).T


def reference_elimination(s, left=(0,)):
    """Block-by-block elimination with plain loops: scaled partial
    pivoting per stage, substitution of the previous stage's relations
    for the pinned unknowns, back-substitution.  Returns the N x M
    corrections."""
    s = np.asarray(s, dtype=float)
    m, n = s.shape[0] - 1, s.shape[1]
    lead = list(left)
    trail = [v for v in range(n) if v not in lead]
    nl, rhs = len(lead), 2 * n
    carry = [n + t for t in trail] + [rhs]

    def gauss_jordan(rows, cols, tail):
        scale = []
        for row in rows:
            big = abs(row[cols[0]])
            for c in cols[1:]:
                big = abs(row[c]) if abs(row[c]) > big else big
            scale.append(1.0 / big)
        open_cols, free, pivots = list(cols), list(range(len(rows))), {}
        for _ in cols:
            best, prow, pcol = 0.0, -1, -1
            for i in free:
                big, jp = 0.0, -1
                for c in open_cols:
                    if abs(rows[i][c]) > big:
                        big, jp = abs(rows[i][c]), c
                if big * scale[i] > best:
                    best, prow, pcol = big * scale[i], i, jp
            open_cols.remove(pcol)
            free.remove(prow)
            piv = rows[prow]
            inv = 1.0 / piv[pcol]
            for c in open_cols + tail:
                piv[c] *= inv
            for row in rows:
                f = row[pcol]
                if row is not piv and f != 0.0:
                    for c in open_cols + tail:
                        row[c] -= f * piv[c]
            pivots[pcol] = piv
        return [[pivots[c][j] for j in tail] for c in cols]

    def substituted(rows, rels, offset):
        for row in rows:
            row[rhs] = -row[rhs]
            for a, rel in zip(lead, rels):
                f = row[offset + a]
                if f != 0.0:
                    for j, t in enumerate(trail):
                        row[offset + t] -= f * rel[j]
                    row[rhs] -= f * rel[-1]
        return rows

    rels = [gauss_jordan(substituted(s[0].tolist()[n - nl:], [], 0),
                         [n + a for a in lead], carry)]
    for idx in range(1, m):
        rows = substituted(s[idx].tolist(), rels[-1][-nl:], 0)
        rels.append(gauss_jordan(rows, trail + [n + a for a in lead], carry))
    rows = substituted(s[m].tolist()[:n - nl], rels[-1][-nl:], n)
    last = gauss_jordan(rows, carry[:-1], [rhs])

    dy = [[0.0] * m for _ in range(n)]
    for j, t in enumerate(trail):
        dy[t][m - 1] = last[j][0]
    for idx in range(m - 1, -1, -1):
        x = [dy[t][idx] for t in trail]
        targets = [(a, idx) for a in lead]
        if idx > 0:
            targets = [(t, idx - 1) for t in trail] + targets
        for (v, point), rel in zip(targets, rels[idx]):
            val = rel[-1]
            for c, xv in zip(rel, x):
                val -= c * xv
            dy[v][point] = val
    return np.array(dy)


def reference_relax(problem, initial, config):
    """relax for one grid, one sweep after another."""
    n, nl = initial.n_vars, len(getattr(problem, "left", (0,)))
    y = np.array(initial.y)
    err = math.inf
    for it in range(1, config.itmax + 1):
        grid = SolutionGrid(y, n)
        s = (problem.assemble(grid) if hasattr(problem, "assemble") else
             np.array([problem(k, grid).s for k in range(1, initial.m + 2)]))
        if not (s[0, n - nl:, -1].any() or s[1:-1, :, -1].any()
                or s[-1, :n - nl, -1].any()):
            return RelaxOutcome(grid, it, 0.0, True)
        dy = solve_block_system(s, getattr(problem, "left", (0,)))
        err = float(sum(np.abs(dy[j]).sum() / config.scalv[j] for j in range(n))) / (n * initial.m)
        if not math.isfinite(err):
            return RelaxOutcome(grid, it, math.inf, False)
        with np.errstate(over="ignore"):
            stepped = y + config.slowc / max(config.slowc, err) * dy
        if not np.isfinite(stepped).all():
            return RelaxOutcome(grid, it, err, False)
        y = stepped
        if err < config.conv:
            return RelaxOutcome(SolutionGrid(y, n), it, err, True)
    return RelaxOutcome(SolutionGrid(y, n), config.itmax, err, False)


def reference_scan(spec, mesh, config, e_min, e_max, steps,
                   formulation="original"):
    """scan's report, built by relaxing one guess at a time."""
    build = BlockBuilder(mesh, spec, formulation)
    entries = []
    for guess in np.linspace(e_min, e_max, steps):
        guess = float(guess)
        cfg = config if config is not None else default_config(spec, guess, formulation)
        scale = abs(level_guess(spec, guess))
        cfg = replace(cfg, scalv=cfg.scalv[:2] + (scale if scale > 0.0 else cfg.scalv[2],)
                      + cfg.scalv[3:])
        try:
            out = reference_relax(build, initial_guess(spec, mesh, guess, formulation),
                                  cfg)
        except SingularBlockError:
            entries.append(ScanEntry(guess, False, math.nan, math.inf))
            continue
        entries.append(ScanEntry(guess, out.converged, out.grid.energy,
                                 roughness(out.grid)))
    idx = _select(entries)
    return ScanReport(tuple(entries), idx)


def reference_ai_series(x):
    """Ai(x) = Ai(0)*f + Ai'(0)*g by the Maclaurin pair, one float at a time."""
    ai0 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
    aip0 = -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)
    x3 = x * x * x
    f_term = 1.0
    g_term = x
    f_sum = f_term
    g_sum = g_term
    for k in range(1, 400):
        f_term *= x3 / ((3 * k - 1) * (3 * k))
        g_term *= x3 / ((3 * k) * (3 * k + 1))
        f_sum += f_term
        g_sum += g_term
        if abs(f_term) + abs(g_term) < 1e-17 * (1.0 + abs(f_sum) + abs(g_sum)):
            break
    return ai0 * f_sum + aip0 * g_sum


def linear_level(l, n=1, mu=0.75, lam=5.0, r_max=12.0, points=20000):
    """Level n of -u''/(2 mu) + (lam*r + l(l+1)/(2 mu r^2)) u = E u with
    u(0) = u(r_max) = 0, by central differences on a uniform r grid."""
    from scipy.linalg import eigh_tridiagonal

    h = r_max / (points + 1)
    r = h * np.arange(1, points + 1)
    diag = 1.0 / (mu * h * h) + lam * r + l * (l + 1) / (2.0 * mu * r * r)
    off = np.full(points - 1, -0.5 / (mu * h * h))
    return float(eigh_tridiagonal(diag, off, eigvals_only=True,
                                  select="i", select_range=(n - 1, n - 1))[0])


def fd_level(spec, m):
    """Level spec.n of l = spec.l by three-point differences on the
    self-adjoint form in x = r/(1+r), with u = 0 at both ends:

        -((1-x)^2 u')'/(2 mu a0^2) + (V + l(l+1)/(2 mu a0^2 r^2)) u/(1-x)^2
            = E u/(1-x)^2

    on the m - 2 interior points of the m-point mesh.  With W =
    diag(1/(1-x)^2) the matrix W^(-1/2)(K + Q)W^(-1/2) is symmetric
    tridiagonal, and level n is its n-th eigenvalue.  Its error is O(h^2),
    so fd_level(spec, 2m - 1) + (fd_level(spec, 2m - 1) - fd_level(spec, m))/3
    removes the leading term.  The tiny tol resolves each eigenvalue to
    its last bits: with eigh_tridiagonal's default, eps times the
    matrix's 1-norm, that value for Coulomb (2, 1) at m = 801 is 6e-9
    off the closed form, not 1.1e-9."""
    from scipy.linalg import eigh_tridiagonal

    h = 1.0 / (m - 1)
    x = h * np.arange(1, m - 1)
    omx = 1.0 - x
    r = x / omx
    mass = 2.0 * spec.mu * spec.a0 * spec.a0
    v = (-spec.coupling / (spec.a0 * r) if spec.kind is Potential.COULOMB
         else spec.coupling * r)
    p = (1.0 - h * (np.arange(m - 1) + 0.5)) ** 2      # (1-x)^2 at the midpoints
    centrifugal = spec.l * (spec.l + 1) / (mass * r * r)
    diag = omx * omx * (p[:-1] + p[1:]) / (mass * h * h) + v + centrifugal
    off = -omx[:-1] * omx[1:] * p[1:-1] / (mass * h * h)
    return float(eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                                  select_range=(spec.n - 1, spec.n - 1),
                                  tol=np.finfo(float).tiny)[0])


def _boundary_block(k, mesh, grid):
    n = grid.n_vars
    rhs = 2 * n
    s = np.zeros((n, rhs + 1))
    if k == 1:
        s[2, n] = 1.0
        s[2, rhs] = grid.y[0, 0]
        if n == 4:
            s[3, n + 3] = 1.0
            s[3, rhs] = grid.y[3, 0]
    else:
        s[0, n] = 1.0
        s[0, rhs] = grid.y[0, -1]
        if n == 4:
            s[1, n + 3] = 1.0
            s[1, rhs] = grid.y[3, -1] - 1.0
        else:
            s[1, n + 1] = 1.0
            s[1, rhs] = grid.y[1, -1]
    return s


def _interior_block(k, mesh, grid, spec):
    p, i = k - 2, k - 1
    h = mesh.h
    y = grid.y
    n = grid.n_vars
    rhs = 2 * n
    # E2's first-derivative term: + in the original system, - in the normalised one
    sign = 1.0 if n == 3 else -1.0
    xbar = 0.5 * (mesh.x[p] + mesh.x[i])
    y1b = 0.5 * (y[0, p] + y[0, i])
    y2b = 0.5 * (y[1, p] + y[1, i])
    y3b = 0.5 * (y[2, p] + y[2, i])
    ratio = (1.0 - xbar) / xbar
    if spec.kind is Potential.COULOMB:
        mu_eff = spec.mu * spec.a0 * spec.a0
        bracket = (2.0 * mu_eff * (y3b + ratio * spec.coupling / spec.a0)
                   - ratio * ratio * spec.l * (spec.l + 1))
    else:
        mu_eff = spec.mu
        bracket = (2.0 * spec.mu * (y3b - xbar / (1.0 - xbar) * spec.coupling)
                   - ratio * ratio * spec.l * (spec.l + 1))
    omx = 1.0 - xbar
    omx4 = omx ** 4

    s = np.zeros((n, rhs + 1))
    s[0, 0] = -1.0
    s[0, 1] = -0.5 * h
    s[0, n] = 1.0
    s[0, n + 1] = -0.5 * h
    s[0, rhs] = y[0, i] - y[0, p] - h * y2b

    d_wave = 0.5 * h * bracket / omx4
    d_energy = h * mu_eff * y1b / omx4
    s[1, 0] = d_wave
    s[1, 1] = -1.0 + sign * h / omx
    s[1, 2] = d_energy
    s[1, n] = d_wave
    s[1, n + 1] = 1.0 + sign * h / omx
    s[1, n + 2] = d_energy
    s[1, rhs] = (y[1, i] - y[1, p] + 2.0 * sign * h / omx * y2b
                 + h / omx4 * bracket * y1b)

    s[2, 2] = -1.0
    s[2, n + 2] = 1.0
    s[2, rhs] = y[2, i] - y[2, p]

    if n == 4:
        s[3, 0] = -h * y1b
        s[3, 3] = -1.0
        s[3, n] = -h * y1b
        s[3, n + 3] = 1.0
        s[3, rhs] = y[3, i] - y[3, p] - h * y1b * y1b
    return s


def reference_blocks(spec, mesh, grid):
    """All M+1 blocks, built one at a time from scalar arithmetic; a
    grid of four unknowns gets the normalised formulation's blocks."""
    last = mesh.m + 1
    return np.array([_boundary_block(k, mesh, grid) if k in (1, last)
                     else _interior_block(k, mesh, grid, spec)
                     for k in range(1, last + 1)])


def smooth_grid(mesh, rng, energy_scale=1.0, n_vars=3):
    """Random smooth trial grid: a low-order sine mix plus a constant
    eigenvalue row.  The derivative row is the exact x-derivative so the
    grid looks like something relaxation could actually visit.  With
    n_vars = 4 a smooth increasing fourth row stands in for the
    normalisation integral."""
    coeff = rng.normal(size=4)
    x = mesh.x
    y = np.zeros((n_vars, mesh.m))
    for j, c in enumerate(coeff, start=1):
        y[0] += c * np.sin(j * np.pi * x)
        y[1] += c * j * np.pi * np.cos(j * np.pi * x)
    y[2] = energy_scale * (1.0 + 0.5 * rng.normal())
    if n_vars == 4:
        y[3] = x * (1.0 + 0.3 * rng.normal() * np.sin(np.pi * x))
    return SolutionGrid(y, n_vars)


def fd_jacobian_entry(build, k, mesh, grid, row, col):
    """Central finite difference of residual row `row` of block k with
    respect to the unknown that column `col` differentiates."""
    n = grid.n_vars
    point = k - 2 if col < n else k - 1
    var = col % n
    base = np.array(grid.y)
    # residuals are at most quadratic in the unknowns, so the central
    # difference has no truncation error; a generous step just damps the
    # roundoff amplification from the (1-x)^-4 entries near the far end
    delta = 1e-2 * max(1.0, abs(base[var, point]))

    plus = np.array(base)
    plus[var, point] += delta
    minus = np.array(base)
    minus[var, point] -= delta
    e_plus = np.asarray(build(k, SolutionGrid(plus, n)).s, dtype=float)[row, 2 * n]
    e_minus = np.asarray(build(k, SolutionGrid(minus, n)).s, dtype=float)[row, 2 * n]
    return (e_plus - e_minus) / (2.0 * delta)


def assert_blocks_match_fd(spec, mesh, grid, ks=None, rtol=1e-6, build=None):
    """Every S entry of every requested interior block matches the
    central finite difference of its residual row."""
    if build is None:
        build = block_builder(mesh, spec)
    n = grid.n_vars
    if ks is None:
        ks = range(2, mesh.m + 1)
    for k in ks:
        s = np.asarray(build(k, grid).s, dtype=float)
        for row in range(n):
            for col in range(2 * n):
                fd = fd_jacobian_entry(build, k, mesh, grid, row, col)
                assert abs(fd - s[row, col]) <= rtol * max(1.0, abs(s[row, col])), (
                    f"S[{row},{col}] at k={k}: analytic {s[row, col]!r} "
                    f"vs finite difference {fd!r}")


@pytest.fixture(scope="session")
def mesh101():
    return Mesh.uniform(101)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def serial_engine(monkeypatch):
    """No helper process for one test: this process eliminates every group."""
    monkeypatch.setattr(relax_mod._Helper, "batch", lambda self: None)


@pytest.fixture
def helper(monkeypatch):
    """A fresh helper process, ready, standing in for the process's own.

    Two CPUs are reported whatever the host has.  helper.sent lists the
    grid count of each group the helper was sent.  It is stopped after
    the test.
    """
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    helper = relax_mod._Helper()
    monkeypatch.setattr(relax_mod, "_HELPER", helper)
    helper.batches, helper.sent, send = itertools.count(1), [], helper.send
    helper.send = lambda s, *args: helper.sent.append(len(s)) or send(s, *args)
    deadline = time.monotonic() + 60.0
    while helper.batch() is None:       # the first call starts it
        assert helper.proc is not None, "the helper did not start"
        assert time.monotonic() < deadline, "the helper did not report ready"
        time.sleep(0.005)
    yield helper
    helper.stop()

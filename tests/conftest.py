"""Shared fixtures and oracle helpers for the test suite.

The dense assembler here is the independent route for checking the
structured block solver: it materialises the full 3M x 3M Newton matrix
from the very same difference blocks and solves it with numpy's LU.
Keep it dumb on purpose; it must not share code with the solver.

reference_blocks is the scalar route for checking the array assembler:
the original one-block-at-a-time arithmetic on scalars, point by point,
which the array code must reproduce bit for bit.
"""

import numpy as np
import pytest

from relaxbound import (DifferenceBlock, Mesh, Potential, ProblemSpec,
                        SolutionGrid, block_builder)

N = 3
RHS = 6


def dense_solve(blocks, m):
    """Assemble and solve the full Newton system A*delta = -E by LU.

    Unknown ordering: (y1, y2, y3) at point 0, then point 1, and so on.
    Row blocks follow the k = 1..M+1 block order.
    """
    a = np.zeros((N * m, N * m))
    rhs = np.zeros(N * m)
    row = 0

    s = np.asarray(blocks[0].s, dtype=float)
    a[row, 0:N] = s[2, N:RHS]
    rhs[row] = -s[2, RHS]
    row += 1

    for k in range(2, m + 1):
        s = np.asarray(blocks[k - 1].s, dtype=float)
        lo = N * (k - 2)
        for i in range(N):
            a[row, lo:lo + N] = s[i, 0:N]
            a[row, lo + N:lo + 2 * N] = s[i, N:RHS]
            rhs[row] = -s[i, RHS]
            row += 1

    s = np.asarray(blocks[m].s, dtype=float)
    lo = N * (m - 1)
    for i in range(2):
        a[row, lo:lo + N] = s[i, N:RHS]
        rhs[row] = -s[i, RHS]
        row += 1

    delta = np.linalg.solve(a, rhs)
    return delta.reshape(m, N).T


def _boundary_block(k, mesh, grid):
    s = np.zeros((3, 7))
    if k == 1:
        s[2, 3] = 1.0
        s[2, 6] = grid.y[0, 0]
    else:
        s[0, 3] = 1.0
        s[0, 6] = grid.y[0, -1]
        s[1, 4] = 1.0
        s[1, 6] = grid.y[1, -1]
    return s


def _interior_block(k, mesh, grid, spec):
    p, i = k - 2, k - 1
    h = mesh.h
    y = grid.y
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

    s = np.zeros((3, 7))
    s[0, 0] = -1.0
    s[0, 1] = -0.5 * h
    s[0, 3] = 1.0
    s[0, 4] = -0.5 * h
    s[0, 6] = y[0, i] - y[0, p] - h * y2b

    d_wave = 0.5 * h * bracket / omx4
    d_energy = h * mu_eff * y1b / omx4
    s[1, 0] = d_wave
    s[1, 1] = -1.0 + h / omx
    s[1, 2] = d_energy
    s[1, 3] = d_wave
    s[1, 4] = 1.0 + h / omx
    s[1, 5] = d_energy
    s[1, 6] = (y[1, i] - y[1, p] + 2.0 * h / omx * y2b
               + h / omx4 * bracket * y1b)

    s[2, 2] = -1.0
    s[2, 5] = 1.0
    s[2, 6] = y[2, i] - y[2, p]
    return s


def reference_blocks(spec, mesh, grid):
    """All M+1 blocks, built one at a time from scalar arithmetic."""
    last = mesh.m + 1
    return np.array([_boundary_block(k, mesh, grid) if k in (1, last)
                     else _interior_block(k, mesh, grid, spec)
                     for k in range(1, last + 1)])


def smooth_grid(mesh, rng, energy_scale=1.0):
    """Random smooth trial grid: a low-order sine mix plus a constant
    eigenvalue row.  The derivative row is the exact x-derivative so the
    grid looks like something relaxation could actually visit."""
    coeff = rng.normal(size=4)
    x = mesh.x
    y = np.zeros((3, mesh.m))
    for j, c in enumerate(coeff, start=1):
        y[0] += c * np.sin(j * np.pi * x)
        y[1] += c * j * np.pi * np.cos(j * np.pi * x)
    y[2] = energy_scale * (1.0 + 0.5 * rng.normal())
    return SolutionGrid(y)


def fd_jacobian_entry(build, k, mesh, grid, row, col):
    """Central finite difference of residual row `row` of block k with
    respect to the unknown that column `col` differentiates."""
    point = k - 2 if col < N else k - 1
    var = col % N
    base = np.array(grid.y)
    # residuals are at most bilinear in the unknowns, so the central
    # difference has no truncation error; a generous step just damps the
    # roundoff amplification from the (1-x)^-4 entries near the far end
    delta = 1e-2 * max(1.0, abs(base[var, point]))

    plus = np.array(base)
    plus[var, point] += delta
    minus = np.array(base)
    minus[var, point] -= delta
    e_plus = np.asarray(build(k, SolutionGrid(plus)).s, dtype=float)[row, RHS]
    e_minus = np.asarray(build(k, SolutionGrid(minus)).s, dtype=float)[row, RHS]
    return (e_plus - e_minus) / (2.0 * delta)


def assert_blocks_match_fd(spec, mesh, grid, ks=None, rtol=1e-6):
    """Every S entry of every requested interior block matches the
    central finite difference of its residual row."""
    build = block_builder(mesh, spec)
    if ks is None:
        ks = range(2, mesh.m + 1)
    for k in ks:
        s = np.asarray(build(k, grid).s, dtype=float)
        for row in range(N):
            for col in range(RHS):
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

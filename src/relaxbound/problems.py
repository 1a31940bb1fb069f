"""Difference blocks for the compactified radial Schrodinger equation.

Both potentials share the first-order system y1' = y2, y3' = 0 plus a
second-order equation written at interval midpoints.  With x the
compactified coordinate, xb the interval midpoint, and overbars denoting
point averages, the interior residuals are

    E1 = y1_k - y1_(k-1) - h*y2b
    E2 = y2_k - y2_(k-1) + (2h/(1-xb))*y2b + (h/(1-xb)^4)*B*y1b
    E3 = y3_k - y3_(k-1)

where B collects the potential and centrifugal terms:

    Coulomb:  B = 2*mu*a0^2*(y3b + ((1-xb)/xb)*e^2/a0) - ((1-xb)/xb)^2*l*(l+1)
    Linear:   B = 2*mu*(y3b - (xb/(1-xb))*lambda)       - ((1-xb)/xb)^2*l*(l+1)

Boundary conditions: y1 = 0 at x = 0 (block k=1) and y1 = y2 = 0 at
x = 1 (sentinel block k=M+1).

block_builder binds mesh and spec into the problem relax takes.  Its
assemble(grid) builds a whole Newton sweep as one (M+1, 3, 7) array,
row k-1 holding block k, and relax calls it once per sweep; calling it
as (k, grid) still returns the single DifferenceBlock k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Mesh, Potential, ProblemSpec, RelaxConfig, SolutionGrid
from .relax import DifferenceBlock, RelaxOutcome, relax


@dataclass(frozen=True)
class MidpointState:
    """Averages over one mesh interval, evaluated at its midpoint."""

    xbar: float
    y1: float
    y2: float
    y3: float

    def __post_init__(self):
        if not 0.0 < self.xbar < 1.0:
            raise ValueError("midpoint must lie strictly inside (0, 1)")

    @classmethod
    def at(cls, k: int, mesh: Mesh, grid: SolutionGrid) -> "MidpointState":
        """Midpoint state of the interval joining mesh points k-1 and k (1-based)."""
        p, i = k - 2, k - 1
        y = grid.y
        return cls(xbar=0.5 * (mesh.x[p] + mesh.x[i]),
                   y1=0.5 * (y[0, p] + y[0, i]),
                   y2=0.5 * (y[1, p] + y[1, i]),
                   y3=0.5 * (y[2, p] + y[2, i]))


# (mass factor, potential term) of B for each potential, with omx = 1 - xb
_TERMS = {
    Potential.COULOMB: lambda xbar, omx, spec: (
        spec.mu * spec.a0 * spec.a0, omx / xbar * spec.coupling / spec.a0),
    Potential.LINEAR: lambda xbar, omx, spec: (
        spec.mu, -(xbar / omx * spec.coupling)),
}


def _assemble(mesh: Mesh, grid: SolutionGrid, spec: ProblemSpec,
              terms) -> np.ndarray:
    """Every block of one Newton sweep; row k-1 of the result is block k."""
    y, h = grid.y, mesh.h
    s = np.zeros((mesh.m + 1, 3, 7))
    # y1 = 0 at x = 0; only the last row of the left block is meaningful.
    s[0, 2, 3] = 1.0
    s[0, 2, 6] = y[0, 0]
    # y1 = y2 = 0 at x = 1.
    s[-1, 0, 3] = s[-1, 1, 4] = 1.0
    s[-1, 0, 6] = y[0, -1]
    s[-1, 1, 6] = y[1, -1]

    xbar = 0.5 * (mesh.x[:-1] + mesh.x[1:])
    y1b, y2b, y3b = 0.5 * (y[:, :-1] + y[:, 1:])
    dy = y[:, 1:] - y[:, :-1]
    omx = 1.0 - xbar
    # float_power, not **: numpy's integer-power fast path differs from
    # C pow by an ulp at some midpoints
    omx4 = np.float_power(omx, 4.0)
    ratio = omx / xbar
    mu_eff, potential = terms(xbar, omx, spec)
    bracket = (2.0 * mu_eff * (y3b + potential)
               - ratio * ratio * spec.l * (spec.l + 1))

    mid = s[1:-1]
    mid[:] = [[-1.0, -0.5 * h, 0.0, 1.0, -0.5 * h, 0.0, 0.0],
              [0.0] * 7,
              [0.0, 0.0, -1.0, 0.0, 0.0, 1.0, 0.0]]
    mid[:, 0, 6] = dy[0] - h * y2b
    mid[:, 1, 0] = mid[:, 1, 3] = 0.5 * h * bracket / omx4
    mid[:, 1, 1] = -1.0 + h / omx
    mid[:, 1, 2] = mid[:, 1, 5] = h * mu_eff * y1b / omx4
    mid[:, 1, 4] = 1.0 + h / omx
    mid[:, 1, 6] = dy[1] + 2.0 * h / omx * y2b + h / omx4 * bracket * y1b
    mid[:, 2, 6] = dy[2]
    return s


def coulomb_block(k: int, mesh: Mesh, grid: SolutionGrid,
                  spec: ProblemSpec) -> DifferenceBlock:
    """Difference block k for the Bohr-rescaled Coulomb equation."""
    return BlockBuilder(mesh, spec, _TERMS[Potential.COULOMB])(k, grid)


def linear_block(k: int, mesh: Mesh, grid: SolutionGrid,
                 spec: ProblemSpec) -> DifferenceBlock:
    """Difference block k for the linear confining potential."""
    return BlockBuilder(mesh, spec, _TERMS[Potential.LINEAR])(k, grid)


class BlockBuilder:
    """Mesh and physics bound into the problem relax expects.

    assemble(grid) returns the whole sweep.  Calling the builder as
    (k, grid) returns block k of the last grid's sweep, assembling and
    keeping the sweep whenever the grid changes.
    """

    def __init__(self, mesh: Mesh, spec: ProblemSpec, terms):
        self.mesh, self.spec, self._terms = mesh, spec, terms
        self._grid = self._blocks = None

    def assemble(self, grid: SolutionGrid) -> np.ndarray:
        """The (M+1, 3, 7) blocks of the sweep at grid."""
        return _assemble(self.mesh, grid, self.spec, self._terms)

    def __call__(self, k: int, grid: SolutionGrid) -> DifferenceBlock:
        if not 1 <= k <= self.mesh.m + 1:
            raise IndexError(f"block index k={k} outside 1..{self.mesh.m + 1}")
        if grid is not self._grid:
            self._grid, self._blocks = grid, self.assemble(grid)
            self._blocks.setflags(write=False)   # blocks are views of it
        return DifferenceBlock(self._blocks[k - 1])


def block_builder(mesh: Mesh, spec: ProblemSpec) -> BlockBuilder:
    """Bind mesh and physics into the problem relax expects."""
    return BlockBuilder(mesh, spec, _TERMS[spec.kind])


def level_guess(spec: ProblemSpec, e_guess: float) -> float:
    """Eigenvalue actually placed on the grid for a given guess.

    Coulomb guesses are quoted at the ground-state scale and divided by
    (n+l)^2 for the target level; linear guesses are used directly.
    """
    if spec.kind is Potential.COULOMB:
        return e_guess / (spec.n + spec.l) ** 2
    return e_guess


def initial_guess(spec: ProblemSpec, mesh: Mesh, e_guess: float) -> SolutionGrid:
    """Half-wave starting profile with the right number of interior nodes.

    Coulomb states use n - l half-waves (n - l >= 1 required), linear
    states use n.  The x = 1 endpoint is forced to zero so the starting
    grid satisfies the right boundary conditions exactly.
    """
    if spec.kind is Potential.COULOMB:
        waves = spec.n - spec.l
        if waves < 1:
            raise ValueError("Coulomb states need n - l >= 1")
    else:
        waves = spec.n
    arg = waves * np.pi * mesh.x
    y = np.empty((3, mesh.m))
    y[0] = np.sin(arg) ** 2
    y[1] = 2.0 * waves * np.pi * np.sin(arg) * np.cos(arg)
    y[2] = level_guess(spec, e_guess)
    y[0, -1] = 0.0
    y[1, -1] = 0.0
    return SolutionGrid(y)


def default_config(spec: ProblemSpec, e_guess: float) -> RelaxConfig:
    """Reference iteration controls: conv per potential, eigenvalue-scaled error."""
    conv = 1e-5 if spec.kind is Potential.COULOMB else 1e-6
    scale = abs(level_guess(spec, e_guess))
    return RelaxConfig(itmax=100, conv=conv, slowc=1.0,
                       scalv=(1.0, 1.0, scale if scale > 0.0 else 1.0))


def solve_bound_state(spec: ProblemSpec, mesh: Mesh, e_guess: float,
                      config: RelaxConfig | None = None) -> RelaxOutcome:
    """Relax from the standard initial guess; convenience wrapper."""
    if config is None:
        config = default_config(spec, e_guess)
    start = initial_guess(spec, mesh, e_guess)
    return relax(block_builder(mesh, spec), mesh, start, config)

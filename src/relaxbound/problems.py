"""Difference blocks for the compactified radial Schrodinger equation.

Two formulations share the first-order rows y1' = y2, y3' = 0 and a
second-order equation written at interval midpoints.  With x the
compactified coordinate, xb the interval midpoint, and overbars denoting
point averages, the interior residuals are

    E1 = y1_k - y1_(k-1) - h*y2b
    E2 = y2_k - y2_(k-1) -/+ (2h/(1-xb))*y2b + (h/(1-xb)^4)*B*y1b
    E3 = y3_k - y3_(k-1)

where B collects the potential and centrifugal terms:

    Coulomb:  B = 2*mu*a0^2*(y3b + ((1-xb)/xb)*e^2/a0) - ((1-xb)/xb)^2*l*(l+1)
    Linear:   B = 2*mu*(y3b - (xb/(1-xb))*lambda)       - ((1-xb)/xb)^2*l*(l+1)

The original formulation ("original", the default) has N = 3 unknowns,
E2 with the + sign, and homogeneous boundary rows: y1 = 0 at x = 0
(block k=1) and y1 = y2 = 0 at x = 1 (sentinel block k=M+1).  Its +
sign is wrong for r = x/(1-x): u_rr = (1-x)^4 u_xx - 2(1-x)^3 u_x, so
the first-derivative term enters with -.  And since every row is
homogeneous in (y1, y2) at fixed energy, y = 0 solves it at any E and
Newton collapses there, returning its starting eigenvalue.  It is kept
unchanged, bit for bit, because unit tests, acceptance criterion 7 and
the benchmark's baselines pin its results.

The normalised formulation ("normalized") has N = 4: E2 with the -
sign, plus the running normalisation integral y4 with

    E4 = y4_k - y4_(k-1) - h*y1b^2

and boundary rows y1 = y4 = 0 at x = 0 and y1 = 0, y4 = 1 at x = 1.
The inhomogeneous y4(1) = 1 rules out y = 0, so Newton relaxes to a
real eigenstate whose level converges as O(h^2) (the normalisation
condition of sfroid, Numerical Recipes section 17.4).

block_builder and normalized_builder bind mesh and spec into the
problem relax takes.  Its assemble(grid) builds a whole Newton sweep
as one (M+1, N, 2N+1) array, row k-1 holding block k, and relax calls
it once per sweep; assemble_slab(y, lo, hi) builds blocks lo+1..hi for
a whole batch of grids, which relax_batch streams through; calling it
as (k, grid) still returns the single DifferenceBlock k.
"""

from __future__ import annotations

import math
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


def _assemble(mesh: Mesh, y: np.ndarray, spec: ProblemSpec, terms,
              normalized: bool, lo: int, hi: int) -> np.ndarray:
    """Blocks lo+1..hi of one Newton sweep at each grid of y (B, N, M).

    Returns (B, hi-lo, N, 2N+1); row k-1-lo of a member's blocks is
    block k.  Every entry is computed elementwise, so a block has the
    same bits whichever slab or batch it is assembled in.
    """
    h, m = mesh.h, mesh.m
    n = 4 if normalized else 3
    c, rhs = n, 2 * n           # first column of point k; residual column
    s = np.zeros((y.shape[0], hi - lo, n, rhs + 1))
    if lo == 0:                 # y1 = 0 at x = 0; its rows are the block's last
        s[:, 0, 2, c] = 1.0
        s[:, 0, 2, rhs] = y[:, 0, 0]
        if normalized:          # y4 = 0 at x = 0
            s[:, 0, 3, c + 3] = 1.0
            s[:, 0, 3, rhs] = y[:, 3, 0]
    if hi == m + 1:             # y1 = 0 at x = 1
        s[:, -1, 0, c] = 1.0
        s[:, -1, 0, rhs] = y[:, 0, -1]
        if normalized:          # y4 = 1 at x = 1
            s[:, -1, 1, c + 3] = 1.0
            s[:, -1, 1, rhs] = y[:, 3, -1] - 1.0
        else:                   # y2 = 0 at x = 1
            s[:, -1, 1, c + 1] = 1.0
            s[:, -1, 1, rhs] = y[:, 1, -1]
    first, stop = max(lo, 1), min(hi, m)    # interior blocks k = first+1..stop
    if first >= stop:
        return s

    x = mesh.x[first - 1:stop]
    xbar = 0.5 * (x[:-1] + x[1:])
    yl, yr = y[:, :, first - 1:stop - 1], y[:, :, first:stop]
    y1b, y2b, y3b = (0.5 * (yl[:, :3] + yr[:, :3])).transpose(1, 0, 2)
    dy = (yr - yl).transpose(1, 0, 2)
    omx = 1.0 - xbar
    # float_power, not **: numpy's integer-power fast path differs from
    # C pow by an ulp at some midpoints
    omx4 = np.float_power(omx, 4.0)
    ratio = omx / xbar
    mu_eff, potential = terms(xbar, omx, spec)
    bracket = (2.0 * mu_eff * (y3b + potential)
               - ratio * ratio * spec.l * (spec.l + 1))
    # first-derivative term per y2b, signed as the formulation has it
    drift = -(h / omx) if normalized else h / omx

    mid = s[:, first - lo:stop - lo]
    mid[:, :, 0, [0, 1, c, c + 1]] = -1.0, -0.5 * h, 1.0, -0.5 * h
    mid[:, :, 0, rhs] = dy[0] - h * y2b
    mid[:, :, 1, 0] = mid[:, :, 1, c] = 0.5 * h * bracket / omx4
    mid[:, :, 1, 1] = -1.0 + drift
    mid[:, :, 1, 2] = mid[:, :, 1, c + 2] = h * mu_eff * y1b / omx4
    mid[:, :, 1, c + 1] = 1.0 + drift
    mid[:, :, 1, rhs] = dy[1] + 2.0 * drift * y2b + h / omx4 * bracket * y1b
    mid[:, :, 2, [2, c + 2]] = -1.0, 1.0
    mid[:, :, 2, rhs] = dy[2]
    if normalized:
        mid[:, :, 3, 0] = mid[:, :, 3, c] = -h * y1b
        mid[:, :, 3, [3, c + 3]] = -1.0, 1.0
        mid[:, :, 3, rhs] = dy[3] - h * y1b * y1b
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
    keeping the sweep whenever the grid changes.  left names the
    unknowns the left boundary rows determine.
    """

    def __init__(self, mesh: Mesh, spec: ProblemSpec, terms,
                 normalized: bool = False):
        self.mesh, self.spec, self._terms = mesh, spec, terms
        self.normalized = normalized
        self.left = (0, 3) if normalized else (0,)
        self._grid = self._blocks = None

    def assemble(self, grid: SolutionGrid) -> np.ndarray:
        """The (M+1, N, 2N+1) blocks of the sweep at grid."""
        return self.assemble_slab(grid.y[None], 0, self.mesh.m + 1)[0]

    def assemble_slab(self, y: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """Blocks lo+1..hi of the sweep at each grid of the stacked
        (B, N, M) array y, as (B, hi-lo, N, 2N+1)."""
        return _assemble(self.mesh, y, self.spec, self._terms,
                         self.normalized, lo, hi)

    def __call__(self, k: int, grid: SolutionGrid) -> DifferenceBlock:
        if not 1 <= k <= self.mesh.m + 1:
            raise IndexError(f"block index k={k} outside 1..{self.mesh.m + 1}")
        if grid is not self._grid:
            self._grid, self._blocks = grid, self.assemble(grid)
            self._blocks.setflags(write=False)   # blocks are views of it
        return DifferenceBlock(self._blocks[k - 1])


def block_builder(mesh: Mesh, spec: ProblemSpec) -> BlockBuilder:
    """Bind mesh and physics into the original (N = 3) problem."""
    return BlockBuilder(mesh, spec, _TERMS[spec.kind])


def normalized_builder(mesh: Mesh, spec: ProblemSpec) -> BlockBuilder:
    """Bind mesh and physics into the normalised (N = 4) problem."""
    return BlockBuilder(mesh, spec, _TERMS[spec.kind], normalized=True)


ORIGINAL, NORMALIZED = "original", "normalized"


def is_normalized(formulation: str) -> bool:
    """True for "normalized", False for "original"; ValueError otherwise."""
    if formulation not in (ORIGINAL, NORMALIZED):
        raise ValueError(f"formulation must be {ORIGINAL!r} or {NORMALIZED!r}, "
                         f"not {formulation!r}")
    return formulation == NORMALIZED


def level_guess(spec: ProblemSpec, e_guess: float) -> float:
    """Eigenvalue actually placed on the grid for a given guess.

    Coulomb guesses are quoted at the ground-state scale and divided by
    (n+l)^2 for the target level; linear guesses are used directly.
    """
    if spec.kind is Potential.COULOMB:
        return e_guess / (spec.n + spec.l) ** 2
    return e_guess


def initial_guess(spec: ProblemSpec, mesh: Mesh, e_guess: float,
                  formulation: str = ORIGINAL) -> SolutionGrid:
    """Half-wave starting profile with the right number of interior nodes.

    Coulomb states use n - l half-waves (n - l >= 1 required), linear
    states use n.  The x = 1 endpoint is forced to zero so the starting
    grid satisfies the right boundary conditions exactly.  The
    normalised formulation adds y4, the running midpoint integral of
    y1^2, with y1 and y2 scaled so that y4(1) = 1.
    """
    normalized = is_normalized(formulation)
    if spec.kind is Potential.COULOMB:
        waves = spec.n - spec.l
        if waves < 1:
            raise ValueError("Coulomb states need n - l >= 1")
    else:
        waves = spec.n
    arg = waves * np.pi * mesh.x
    y = np.empty((4 if normalized else 3, mesh.m))
    y[0] = np.sin(arg) ** 2
    y[1] = 2.0 * waves * np.pi * np.sin(arg) * np.cos(arg)
    y[2] = level_guess(spec, e_guess)
    y[0, -1] = 0.0
    y[1, -1] = 0.0
    if normalized:
        y1b = 0.5 * (y[0, :-1] + y[0, 1:])
        y[3, 0] = 0.0
        np.cumsum(mesh.h * y1b * y1b, out=y[3, 1:])
        norm = y[3, -1]
        y[:2] /= math.sqrt(norm)
        y[3] /= norm
    return SolutionGrid(y, len(y))


def default_config(spec: ProblemSpec, e_guess: float,
                   formulation: str = ORIGINAL) -> RelaxConfig:
    """Reference iteration controls: conv per potential, eigenvalue-scaled error."""
    conv = 1e-5 if spec.kind is Potential.COULOMB else 1e-6
    scale = abs(level_guess(spec, e_guess))
    scalv = (1.0, 1.0, scale if scale > 0.0 else 1.0)
    if is_normalized(formulation):
        scalv += (1.0,)
    return RelaxConfig(itmax=100, conv=conv, slowc=1.0, scalv=scalv)


def solve_bound_state(spec: ProblemSpec, mesh: Mesh, e_guess: float,
                      config: RelaxConfig | None = None,
                      formulation: str = ORIGINAL) -> RelaxOutcome:
    """Relax from the standard initial guess; convenience wrapper.

    formulation is "original" (the default, N = 3) or "normalized"
    (N = 4, the one that finds real eigenstates; see the module
    docstring).
    """
    start = initial_guess(spec, mesh, e_guess, formulation)
    if config is None:
        config = default_config(spec, e_guess, formulation)
    build = (normalized_builder(mesh, spec) if is_normalized(formulation)
             else block_builder(mesh, spec))
    return relax(build, mesh, start, config)

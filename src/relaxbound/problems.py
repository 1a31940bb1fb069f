"""Difference blocks for the compactified radial Schrodinger equation.

Two formulations share the first-order rows y1' = y2, y3' = 0 and a
second-order equation written at interval midpoints.  With x the
compactified coordinate, xb the interval midpoint, and overbars denoting
point averages, the interior residuals are

    E1 = y1_k - y1_(k-1) - h*y2b
    E2 = y2_k - y2_(k-1) -/+ (2h/(1-xb))*y2b + (h/(1-xb)^4)*B*y1b
    E3 = y3_k - y3_(k-1)

where B collects the potential V, at r = xb/(1-xb) in units of a0
(ProblemSpec.a0), and the centrifugal term:

    B = 2*mu*a0^2*(y3b - V) - ((1-xb)/xb)^2*l*(l+1)

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

BlockBuilder(mesh, spec, formulation) binds mesh and spec into the problem
relax takes, reading N, left, its boundary rows and its drift sign from
_FORMULATIONS, one entry per formulation.  Its assemble_batch(y, lo,
hi) builds rows lo..hi-1 of the Newton sweeps of a stack of grids, row
k-1 of a sweep holding block k: the engine names the rows of every
request, 0..M+1 for a group of grids' whole sweeps and one slab of
GROUP_BLOCKS rows at a time for a longer sweep.  assemble(grid) is its
one-grid case, and calling the builder as (k, grid) returns block
k from the aligned slab of GROUP_BLOCKS rows that holds it.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import Mesh, Potential, ProblemSpec, RelaxConfig, SolutionGrid
from .relax import GROUP_BLOCKS, DifferenceBlock, RelaxOutcome, relax


# V at the midpoints, -e^2/(a0*r) or lambda*r, with omx = 1 - xb
_TERMS = {
    Potential.COULOMB: lambda xbar, omx, spec: -(omx / xbar * spec.coupling / spec.a0),
    Potential.LINEAR: lambda xbar, omx, spec: xbar / omx * spec.coupling,
}

ORIGINAL, NORMALIZED = "original", "normalized"

# Each formulation's end conditions y_u = value as (u, value) pairs at x = 0, then
# at x = 1 (N is their count, left the unknowns at x = 0), and E2's drift sign
_FORMULATIONS = {ORIGINAL: (((0, 0.0),), ((0, 0.0), (1, 0.0)), 1.0),
                 NORMALIZED: (((0, 0.0), (3, 0.0)), ((0, 0.0), (3, 1.0)), -1.0)}


def _formulation(name: str) -> tuple:
    """(x = 0 ends, x = 1 ends, drift sign, N) of a formulation; ValueError if unknown."""
    if name not in (ORIGINAL, NORMALIZED):
        raise ValueError(f"formulation must be 'original' or 'normalized', not {name!r}")
    first, last, sign = _FORMULATIONS[name]
    return first, last, sign, len(first) + len(last)


class BlockBuilder:
    """Mesh and physics bound into the problem relax expects.

    Construction computes the midpoint terms that only mesh and spec
    fix: V, (1-xb)^4, the centrifugal term, the signed drift and mu*a0^2.
    It refuses a mesh and spec whose y-independent E2 factor overflows:
    every sweep would be non-finite.  assemble_batch(y, lo, hi) returns
    rows of the sweeps at a stack of grids and assemble(grid) the sweep at
    one; both refuse a grid whose point count is not the mesh's.  Calling the
    builder as (k, grid) returns block k of the grid's sweep from the one
    slab it keeps, the aligned GROUP_BLOCKS rows that hold k, assembled
    when grid or slab changes.  N, left, the boundary rows and the drift
    sign come from the _FORMULATIONS entry of formulation, a public name.
    """

    def __init__(self, mesh: Mesh, spec: ProblemSpec, formulation: str = ORIGINAL):
        first, last, sign, self._n = _formulation(formulation)
        self.mesh, self.spec, self.normalized = mesh, spec, formulation == NORMALIZED
        self._ends, self.left = (first, last), tuple(u for u, _ in first)
        self._grid = self._blocks = self._lo = None
        xbar = 0.5 * (mesh.x[:-1] + mesh.x[1:])
        omx = 1.0 - xbar
        with np.errstate(over="ignore", invalid="ignore"):
            # float_power, not **: numpy's integer-power fast path differs
            # from C pow by an ulp at some midpoints
            self._omx4 = np.float_power(omx, 4.0)
            self._v = _TERMS[spec.kind](xbar, omx, spec)
            ratio = omx / xbar
            self._centrifugal = ratio * ratio * spec.l * (spec.l + 1)
            # first-derivative term per y2b, signed as the formulation has it
            self._drift = sign * (mesh.h / omx)
            self._mass = spec.mu * spec.a0 * spec.a0    # r is measured in units of a0
            factor = mesh.h * self._mass / self._omx4 * (1.0 + np.abs(self._v))
        if not np.isfinite(factor).all():
            raise ValueError(f"{spec.kind.value} blocks overflow on {mesh.m} points: "
                             f"h*mu*a0^2*(1+|V|)/(1-x)^4 is not finite")

    @np.errstate(over="ignore", invalid="ignore")
    def assemble_batch(self, y: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """Rows lo..hi-1 (0 <= lo < hi <= M+1) of the (B, M+1, N, 2N+1)
        sweeps at each grid of the stacked (B, N, M) array y, M the mesh's
        point count.  Entries are elementwise: a block's bits ignore its slab."""
        m = self.mesh.m
        if y.shape[-1] != m:
            raise ValueError(f"grids of {y.shape[-1]} points on a mesh of {m}")
        if not 0 <= lo < hi <= m + 1:
            raise ValueError(f"rows lo={lo}, hi={hi} are not 0 <= lo < hi <= {m + 1}")
        h, normalized = self.mesh.h, self.normalized
        first, last = self._ends
        n = self._n
        c, rhs = n, 2 * n           # first column of point k; residual column
        s = np.zeros((y.shape[0], hi - lo, n, rhs + 1))
        # x = 0's conditions fill block 1's last rows, x = 1's block M+1's first
        for held, k, top, conds in ((lo == 0, 0, -len(first), first), (hi == m + 1, -1, 0, last)):
            for row, (u, value) in enumerate(conds if held else (), top):
                s[:, k, row, c + u] = 1.0
                s[:, k, row, rhs] = y[:, u, k] - value

        a, z = max(lo, 1) - 1, min(m, hi) - 1       # the slab's intervals a..z-1
        yl, yr = y[:, :, a:z], y[:, :, a + 1:z + 1]
        y1b, y2b, y3b = (0.5 * (yl[:, :3] + yr[:, :3])).transpose(1, 0, 2)
        dy = (yr - yl).transpose(1, 0, 2)
        omx4, drift, mass = self._omx4[a:z], self._drift[a:z], self._mass
        bracket = 2.0 * mass * (y3b - self._v[a:z]) - self._centrifugal[a:z]

        mid = s[:, a + 1 - lo:z + 1 - lo]
        mid[:, :, 0, [0, 1, c, c + 1]] = -1.0, -0.5 * h, 1.0, -0.5 * h
        mid[:, :, 0, rhs] = dy[0] - h * y2b
        mid[:, :, 1, 0] = mid[:, :, 1, c] = 0.5 * h * bracket / omx4
        mid[:, :, 1, 1] = -1.0 + drift
        mid[:, :, 1, 2] = mid[:, :, 1, c + 2] = h * mass * y1b / omx4
        mid[:, :, 1, c + 1] = 1.0 + drift
        mid[:, :, 1, rhs] = dy[1] + 2.0 * drift * y2b + h / omx4 * bracket * y1b
        mid[:, :, 2, [2, c + 2]] = -1.0, 1.0
        mid[:, :, 2, rhs] = dy[2]
        if normalized:
            mid[:, :, 3, 0] = mid[:, :, 3, c] = -h * y1b
            mid[:, :, 3, [3, c + 3]] = -1.0, 1.0
            mid[:, :, 3, rhs] = dy[3] - h * y1b * y1b
        return s

    def assemble(self, grid: SolutionGrid) -> np.ndarray:
        """The (M+1, N, 2N+1) blocks of the sweep at grid."""
        return self.assemble_batch(grid.y[None], 0, self.mesh.m + 1)[0]

    def __call__(self, k: int, grid: SolutionGrid) -> DifferenceBlock:
        if not 1 <= k <= self.mesh.m + 1:
            raise IndexError(f"block index k={k} outside 1..{self.mesh.m + 1}")
        lo = (k - 1) // GROUP_BLOCKS * GROUP_BLOCKS
        if grid is not self._grid or lo != self._lo:
            self._grid = self._blocks = None        # drop the old slab first
            self._blocks = self.assemble_batch(grid.y[None], lo,
                                               min(lo + GROUP_BLOCKS, self.mesh.m + 1))[0]
            self._blocks.setflags(write=False)   # blocks are views of it
            self._grid, self._lo = grid, lo
        return DifferenceBlock(self._blocks[k - 1 - lo])


def block_builder(mesh: Mesh, spec: ProblemSpec) -> BlockBuilder:
    """Bind mesh and physics into the original (N = 3) problem."""
    return BlockBuilder(mesh, spec)


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
    """Half-wave starting profile: n - l half-waves for Coulomb states
    (n - l >= 1 required), n for linear ones.

    The (n, l) level has n - 1 interior nodes, so a Coulomb start with
    l > 0 has l fewer than its level (ROADMAP item 4).  Both formulations
    start with y1(1) = y2(1) = 0, though y2(1) = 0 is not a normalised
    condition.  The normalised formulation adds y4, the running midpoint
    integral of y1^2, with y1 and y2 scaled so that y4(1) = 1.
    """
    *_, n = _formulation(formulation)
    if spec.kind is Potential.COULOMB:
        waves = spec.n - spec.l
        if waves < 1:
            raise ValueError("Coulomb states need n - l >= 1")
    else:
        waves = spec.n
    arg = waves * np.pi * mesh.x
    y = np.empty((n, mesh.m))
    y[0] = np.sin(arg) ** 2
    y[1] = 2.0 * waves * np.pi * np.sin(arg) * np.cos(arg)
    y[2] = level_guess(spec, e_guess)
    y[0, -1] = 0.0
    y[1, -1] = 0.0
    if formulation == NORMALIZED:
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
    *_, n = _formulation(formulation)
    scalv = (1.0, 1.0, scale if scale > 0.0 else 1.0) + (1.0,) * (n - 3)
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
    build = (block_builder(mesh, spec) if formulation == ORIGINAL
             else BlockBuilder(mesh, spec, formulation))
    return relax(build, start, config)

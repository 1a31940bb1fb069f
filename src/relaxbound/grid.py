"""Meshes, solution grids, and the compactified radial coordinate.

The solver works on x in [0, 1], related to the radial coordinate by
r = x/(1 - x) so that r = infinity maps to x = 1.  For the Coulomb
problem r is additionally measured in Bohr radii, so the same map sends
x to z = r/a0.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

# Hydrogen parameters in natural units (hbar = c = 1, energies in eV).
HYDROGEN_MU = 0.5107208e6
HYDROGEN_E2 = 7.297353e-3

# Linear confining potential V = lambda*r, quarkonium-style parameters (GeV).
LINEAR_MU = 0.75
LINEAR_LAMBDA = 5.0


def _is_count(value) -> bool:
    """True for a Python or numpy integer; bool is refused."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def map_x_to_z(x):
    """Map x in [0, 1) to the radial coordinate z = x/(1 - x)."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0) or np.any(arr >= 1.0):
        raise ValueError("x must lie in [0, 1)")
    z = arr / (1.0 - arr)
    return float(z) if z.ndim == 0 else z


def map_z_to_x(z):
    """Inverse of map_x_to_z: z in [0, inf) back to x = z/(1 + z)."""
    arr = np.asarray(z, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("z must be nonnegative")
    x = arr / (1.0 + arr)
    return float(x) if x.ndim == 0 else x


@dataclass(frozen=True)
class Mesh:
    """Uniform grid of m points covering [0, 1] with spacing h = 1/(m-1)."""

    m: int
    h: float
    x: np.ndarray

    def __post_init__(self):
        if not _is_count(self.m) or self.m < 3:
            raise ValueError("mesh needs an integer count of at least 3 points")
        if self.x.shape != (self.m,):
            raise ValueError("coordinate array does not match point count")
        if self.x[0] != 0.0 or self.x[-1] != 1.0:
            raise ValueError("mesh must span [0, 1] exactly")
        if np.any(np.diff(self.x) <= 0.0):
            raise ValueError("mesh coordinates must increase strictly")

    @classmethod
    def uniform(cls, m: int) -> "Mesh":
        if not _is_count(m) or m < 3:
            raise ValueError("mesh needs an integer count of at least 3 points")
        # Per-point division: x[k] == k/(m-1) exactly, and x[-1] == 1.0.
        x = np.arange(m, dtype=float) / (m - 1)
        x.setflags(write=False)
        return cls(m=m, h=1.0 / (m - 1), x=x)


@dataclass(frozen=True)
class SolutionGrid:
    """n_vars x M array of unknowns.

    Row 0 holds the wavefunction values, row 1 its x-derivative, and
    row 2 the eigenvalue, carried as a constant unknown so the Newton
    step can adjust it alongside the function values.  The normalised
    formulation declares n_vars = 4 and carries the running integral
    of the squared wavefunction in row 3.  The row count is declared,
    not inferred, so an array of the wrong shape is refused rather than
    taken for a grid with extra unknowns.
    """

    y: np.ndarray
    n_vars: int = 3

    def __post_init__(self):
        y = np.array(self.y, dtype=float)  # private copy, frozen below
        if self.n_vars < 3:
            raise ValueError("a grid carries at least three unknowns")
        if y.ndim != 2 or y.shape[0] != self.n_vars or y.shape[1] < 2:
            raise ValueError(f"grid must be a {self.n_vars} x M array with M >= 2")
        if not np.isfinite(y).all():
            raise ValueError("grid contains non-finite values")
        y.setflags(write=False)
        object.__setattr__(self, "y", y)

    @property
    def m(self) -> int:
        return self.y.shape[1]

    @property
    def wavefunction(self) -> np.ndarray:
        return self.y[0]

    @property
    def derivative(self) -> np.ndarray:
        return self.y[1]

    @property
    def energy(self) -> float:
        """Eigenvalue unknown (row 2 is constant up to the last Newton step)."""
        return float(self.y[2, 0])


@dataclass(frozen=True)
class RelaxConfig:
    """Iteration controls for the relaxation engine.

    scalv sets the error scale per variable, one entry per unknown (at
    least three); the convergence norm is the mean of |correction|/scalv
    over all variables and mesh points.
    """

    itmax: int = 100
    conv: float = 1e-5
    slowc: float = 1.0
    scalv: tuple[float, ...] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        if not _is_count(self.itmax) or self.itmax < 1:
            raise ValueError("itmax must be a positive integer")
        if not (0.0 < self.conv < np.inf and 0.0 < self.slowc < np.inf):
            raise ValueError("conv and slowc must be positive and finite")
        if len(self.scalv) < 3 or not all(0.0 < s < np.inf for s in self.scalv):
            raise ValueError("scalv needs at least three positive finite entries")
        object.__setattr__(self, "scalv", tuple(float(s) for s in self.scalv))


class Potential(Enum):
    COULOMB = "coulomb"
    LINEAR = "linear"


@dataclass(frozen=True)
class ProblemSpec:
    """Physics of one bound-state problem.

    coupling is e^2 for the Coulomb potential and the slope lambda for
    the linear potential.  a0 is the Bohr radius used to rescale the
    Coulomb equation; the linear problem carries a0 = 1 and ignores it.
    """

    kind: Potential
    mu: float
    coupling: float
    a0: float
    l: int
    n: int

    def __post_init__(self):
        if not (0.0 < self.mu < np.inf and 0.0 < self.coupling < np.inf):
            raise ValueError("mu and coupling must be positive and finite")
        if not (_is_count(self.n) and _is_count(self.l)):
            raise ValueError("n and l must be integers")
        if self.n < 1 or self.l < 0:
            raise ValueError("need n >= 1 and l >= 0")
        if self.kind is Potential.COULOMB:
            ref = 1.0 / (self.mu * self.coupling)
            if not abs(self.a0 - ref) <= 1e-12 * ref:
                raise ValueError("a0 must equal 1/(mu*e^2)")
        elif not 0.0 < self.a0 < np.inf:
            raise ValueError("a0 must be positive and finite")

    @classmethod
    def coulomb(cls, n: int, l: int, mu: float = HYDROGEN_MU,
                coupling: float = HYDROGEN_E2) -> "ProblemSpec":
        return cls(kind=Potential.COULOMB, mu=mu, coupling=coupling,
                   a0=1.0 / (mu * coupling), l=l, n=n)

    @classmethod
    def linear(cls, n: int, l: int, mu: float = LINEAR_MU,
               coupling: float = LINEAR_LAMBDA) -> "ProblemSpec":
        return cls(kind=Potential.LINEAR, mu=mu, coupling=coupling,
                   a0=1.0, l=l, n=n)

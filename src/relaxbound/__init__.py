"""Bound states of the radial Schrodinger equation by Newton relaxation.

The equation is compactified onto x in [0, 1] via r = x/(1 - x),
discretised with centered differences, and solved as a block-tridiagonal
Newton iteration with the eigenvalue carried as an extra unknown.
Closed-form oracles (hydrogen levels, Airy-function spectra for the
linear potential) back the scan heuristics and the test suite.
"""

from .grid import (HYDROGEN_E2, HYDROGEN_MU, LINEAR_LAMBDA, LINEAR_MU,
                   Mesh, Potential, ProblemSpec, RelaxConfig, SolutionGrid,
                   map_x_to_z, map_z_to_x)
from .oracles import (MAX_AIRY_ZEROS, airy_ai, airy_zero, airy_zero_table,
                      hydrogen_energy, hydrogen_radial, linear_energy,
                      linear_radial)
from .problems import (block_builder, default_config, initial_guess,
                       level_guess, normalized_builder, solve_bound_state)
from .relax import (DifferenceBlock, RelaxOutcome, SingularBlockError, relax,
                    relax_batch, solve_block_system)
from .scanner import (ScanEntry, ScanReport, ScanSelectionError,
                      compare_wavefunction, reproduce_tables, roughness,
                      sample_exact_curve, scan, scan_diagnostics, write_curve)

__version__ = "0.1.0"

__all__ = [
    "HYDROGEN_E2", "HYDROGEN_MU", "LINEAR_LAMBDA", "LINEAR_MU",
    "MAX_AIRY_ZEROS", "DifferenceBlock", "Mesh",
    "Potential", "ProblemSpec", "RelaxConfig", "RelaxOutcome", "ScanEntry",
    "ScanReport", "ScanSelectionError", "SingularBlockError", "SolutionGrid",
    "airy_ai", "airy_zero", "airy_zero_table", "block_builder",
    "compare_wavefunction", "default_config", "hydrogen_energy",
    "hydrogen_radial", "initial_guess", "level_guess", "linear_energy",
    "linear_radial", "map_x_to_z", "map_z_to_x", "normalized_builder", "relax",
    "relax_batch", "reproduce_tables", "roughness", "sample_exact_curve", "scan",
    "scan_diagnostics", "solve_block_system", "solve_bound_state",
    "write_curve",
]

"""Bound states of the radial Schrodinger equation by Newton relaxation.

The equation is compactified onto x in [0, 1] via r = x/(1 - x),
discretised with centered differences, and solved as a block-tridiagonal
Newton iteration with the eigenvalue carried as an extra unknown.
Closed-form oracles (hydrogen levels, Airy-function spectra for the
linear potential) back the scan heuristics and the test suite.  Each
public name imports its submodule on first use: ``relaxbound.relax`` is
the function, its module ``importlib.import_module("relaxbound.relax")``.
"""

import sys
from importlib import import_module
from types import ModuleType

__version__ = "0.1.0"

_EXPORTS = {     # each submodule and the public names it defines
    "grid": "HYDROGEN_E2 HYDROGEN_MU LINEAR_LAMBDA LINEAR_MU Mesh Potential ProblemSpec"
            " RelaxConfig SolutionGrid map_x_to_z map_z_to_x",
    "oracles": "MAX_AIRY_ZEROS airy_ai airy_zero airy_zero_table exact_level"
               " hydrogen_energy hydrogen_radial linear_energy linear_radial"
               " sample_exact_curve",
    "problems": "BlockBuilder block_builder default_config initial_guess level_guess"
                " solve_bound_state",
    "relax": "DifferenceBlock RelaxOutcome SingularBlockError relax relax_batch"
             " solve_block_system",
    "scanner": "ScanEntry ScanReport ScanSelectionError compare_wavefunction reproduce_tables"
               " roughness scan scan_diagnostics write_curve",
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_OWNER)


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals().setdefault(name, getattr(import_module(f".{_OWNER[name]}", __name__), name))


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(ModuleType):
    """Binds no submodule named relax: it would hide the relax function."""

    def __setattr__(self, name, value):
        if not (name == "relax" and isinstance(value, ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package

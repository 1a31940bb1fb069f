"""Command-line front end: solve, scan, oracle, and tables subcommands."""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import re
import sys
from dataclasses import asdict
from pathlib import Path

from .grid import Mesh, ProblemSpec
# kept importable here: bench/spans.py wraps cli.hydrogen_energy and cli.linear_energy
from .oracles import hydrogen_energy, linear_energy
from .problems import solve_bound_state
from .relax import SingularBlockError
from .scanner import (ScanSelectionError, _closed_form, compare_wavefunction,
                      reproduce_tables, sample_exact_curve, scan,
                      scan_diagnostics, write_curve)


@functools.cache                # one parser per process, reused by every main call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relaxbound",
        description="Bound states of the radial Schrodinger equation by relaxation")
    sub = parser.add_subparsers(dest="command", required=True)

    # tables builds its own problems: the physics and format are not its options
    physics = argparse.ArgumentParser(add_help=False)
    physics.add_argument("--potential", choices=["coulomb", "linear"],
                         default="coulomb")
    physics.add_argument("--n", type=int, default=1)
    physics.add_argument("--l", type=int, default=0)
    physics.add_argument("--lambda", dest="lam", type=float, default=None,
                         help="coupling: e^2 for coulomb, slope for linear")
    physics.add_argument("--mu", type=float, default=None,
                         help="reduced mass (eV for coulomb, GeV for linear)")
    physics.add_argument("--format", choices=["dat", "json"], default="dat")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--mesh-points", type=int, default=101)
    output.add_argument("--out", default=None, help="write results to this path")

    p_solve = sub.add_parser("solve", parents=[physics, output],
                             help="relax a single starting guess")
    p_solve.add_argument("--guess", type=float, required=True,
                         help="starting eigenvalue (ground-state scale for coulomb)")

    p_scan = sub.add_parser("scan", parents=[physics, output],
                            help="scan guesses and pick the smoothest state")
    p_scan.add_argument("--emin", type=float, required=True)
    p_scan.add_argument("--emax", type=float, required=True)
    p_scan.add_argument("--steps", type=int, required=True)

    sub.add_parser("oracle", parents=[physics, output],
                   help="closed-form energy (and curve, with --out)")

    p_tables = sub.add_parser("tables", parents=[output],
                              help="reproduce the reference eigenvalue tables")
    p_tables.add_argument("--steps", type=int, default=41,
                          help="guesses per smoothness scan")
    for command in sub.choices.values():    # reports its own usage errors
        command.set_defaults(command_parser=command)
        # a value, not an option: argparse's own test misses -1.36e1
        command._negative_number_matcher = re.compile(r"-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")
    return parser


def _make_spec(args) -> ProblemSpec:
    make = ProblemSpec.coulomb if args.potential == "coulomb" else ProblemSpec.linear
    given = {"mu": args.mu, "coupling": args.lam}    # omitted: the spec's default
    return make(args.n, args.l, **{k: v for k, v in given.items() if v is not None})


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _cmd_solve(args) -> int:
    spec = _make_spec(args)
    mesh = Mesh.uniform(args.mesh_points)
    outcome = solve_bound_state(spec, mesh, args.guess)
    lines = [f"potential={args.potential} n={args.n} l={args.l} guess={args.guess}",
             f"converged={outcome.converged} iterations={outcome.iterations} "
             f"final_err={outcome.final_err:.3e}",
             f"eigenvalue={outcome.grid.energy:.6f}"]
    with contextlib.suppress(ValueError):   # closed form out of double range, or a zero curve
        exact = sample_exact_curve(spec, mesh)
        if exact is not None:
            lines.append(f"rms_vs_exact={compare_wavefunction(outcome.grid, exact):.4f}")
    if args.out:
        write_curve(mesh.x, outcome.grid.wavefunction, args.out, args.format,
                    converged=outcome.converged, iterations=outcome.iterations,
                    final_err=_json_safe(outcome.final_err),
                    eigenvalue=outcome.grid.energy)
    print("\n".join(lines))
    return 0 if outcome.converged else 1


def _cmd_scan(args) -> int:
    report = scan(_make_spec(args), Mesh.uniform(args.mesh_points), None,
                  args.emin, args.emax, args.steps)
    if args.out and args.format == "dat":
        Path(args.out).write_text("# e_guess converged relaxed_e roughness\n" + "".join(
            f"{e.e_guess:.6f} {int(e.converged)} {e.relaxed_e:.6f} {e.roughness:.6e}\n"
            for e in report.entries))
    elif args.out:
        Path(args.out).write_text(json.dumps({
            "entries": [{k: _json_safe(v) for k, v in asdict(e).items()}
                        for e in report.entries],
            "selected": report.selected,
            "selected_guess": report.selected_guess,
            "selected_relaxed": report.selected_relaxed,
        }, indent=1))
    diag = scan_diagnostics(report)
    n_conv = sum(e.converged for e in report.entries)
    print(f"scanned {len(report.entries)} guesses, {n_conv} converged")
    print(f"selected_guess={report.selected_guess:.6f} "
          f"selected_relaxed={report.selected_relaxed:.6f}")
    print(f"roughness min={diag['min']:.3e} median={diag['median']:.3e} "
          f"distinguishable={diag['distinguishable']}")
    return 0


def _cmd_oracle(args) -> int:
    spec = _make_spec(args)
    energy = _closed_form(spec)
    if energy is None:
        raise ValueError(f"no closed form for {args.potential} n={args.n} l={args.l}")
    if args.out:
        mesh = Mesh.uniform(args.mesh_points)
        write_curve(mesh.x, sample_exact_curve(spec, mesh), args.out, args.format,
                    eigenvalue=energy)
    print(f"exact eigenvalue: {energy:.6f}")
    return 0


def _cmd_tables(args) -> int:
    report = reproduce_tables(scan_steps=args.steps, mesh_points=args.mesh_points)
    if args.out:
        Path(args.out).write_text(report)
    print(report)
    return 0


_COMMANDS = {"solve": _cmd_solve, "scan": _cmd_scan,
             "oracle": _cmd_oracle, "tables": _cmd_tables}


def main(argv=None) -> int:
    """Run one subcommand with the process's one parser; it writes --out before
    it prints, and the failures it raises map to exit code 1 here, bad input to 2."""
    args, extra = _build_parser().parse_known_args(argv)
    if extra:
        args.command_parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return _COMMANDS[args.command](args)
    except (SingularBlockError, ScanSelectionError) as exc:
        print(f"{args.command} failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())

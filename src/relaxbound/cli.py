"""Command-line front end: solve, scan, oracle, and tables subcommands."""

from __future__ import annotations

import argparse
import json
import math
import sys

from .grid import Mesh, ProblemSpec
# kept importable here: bench/spans.py wraps cli.hydrogen_energy and cli.linear_energy
from .oracles import hydrogen_energy, linear_energy
from .problems import solve_bound_state
from .relax import SingularBlockError
from .scanner import (ScanSelectionError, _closed_form, compare_wavefunction,
                      reproduce_tables, sample_exact_curve, scan,
                      scan_diagnostics, write_curve)


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
    try:
        outcome = solve_bound_state(spec, mesh, args.guess)
    except SingularBlockError as exc:
        print(f"solve failed: {exc}", file=sys.stderr)
        return 1
    print(f"potential={args.potential} n={args.n} l={args.l} guess={args.guess}")
    print(f"converged={outcome.converged} iterations={outcome.iterations} "
          f"final_err={outcome.final_err:.3e}")
    print(f"eigenvalue={outcome.grid.energy:.6f}")
    try:
        exact = sample_exact_curve(spec, mesh)
        print(f"rms_vs_exact={compare_wavefunction(outcome.grid, exact):.4f}")
    except (NotImplementedError, ValueError):
        pass
    if args.out:
        write_curve(mesh.x, outcome.grid.wavefunction, args.out, args.format,
                    converged=outcome.converged, iterations=outcome.iterations,
                    final_err=_json_safe(outcome.final_err),
                    eigenvalue=outcome.grid.energy)
    return 0 if outcome.converged else 1


def _cmd_scan(args) -> int:
    spec = _make_spec(args)
    mesh = Mesh.uniform(args.mesh_points)
    try:
        report = scan(spec, mesh, None, args.emin, args.emax, args.steps)
    except ScanSelectionError as exc:
        print(f"scan failed: {exc}", file=sys.stderr)
        return 1
    diag = scan_diagnostics(report)
    n_conv = sum(e.converged for e in report.entries)
    print(f"scanned {len(report.entries)} guesses, {n_conv} converged")
    print(f"selected_guess={report.selected_guess:.6f} "
          f"selected_relaxed={report.selected_relaxed:.6f}")
    print(f"roughness min={diag['min']:.3e} median={diag['median']:.3e} "
          f"distinguishable={diag['distinguishable']}")
    if args.out:
        if args.format == "dat":
            with open(args.out, "w") as fh:
                fh.write("# e_guess converged relaxed_e roughness\n")
                for e in report.entries:
                    fh.write(f"{e.e_guess:.6f} {int(e.converged)} "
                             f"{e.relaxed_e:.6f} {e.roughness:.6e}\n")
        else:
            payload = {
                "entries": [{
                    "e_guess": e.e_guess,
                    "converged": e.converged,
                    "relaxed_e": _json_safe(e.relaxed_e),
                    "roughness": _json_safe(e.roughness),
                } for e in report.entries],
                "selected": report.selected,
                "selected_guess": report.selected_guess,
                "selected_relaxed": report.selected_relaxed,
            }
            with open(args.out, "w") as fh:
                json.dump(payload, fh, indent=1)
    return 0


def _cmd_oracle(args) -> int:
    spec = _make_spec(args)
    energy = _closed_form(spec)
    if energy is None:
        print("no closed form for linear states with l > 0", file=sys.stderr)
        return 2
    print(f"exact eigenvalue: {energy:.6f}")
    if args.out:
        mesh = Mesh.uniform(args.mesh_points)
        write_curve(mesh.x, sample_exact_curve(spec, mesh), args.out, args.format,
                    eigenvalue=energy)
    return 0


def _cmd_tables(args) -> int:
    report = reproduce_tables(scan_steps=args.steps, mesh_points=args.mesh_points)
    print(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report)
    return 0


_COMMANDS = {"solve": _cmd_solve, "scan": _cmd_scan,
             "oracle": _cmd_oracle, "tables": _cmd_tables}


def main(argv=None) -> int:
    args, extra = _build_parser().parse_known_args(argv)
    if extra:
        args.command_parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())

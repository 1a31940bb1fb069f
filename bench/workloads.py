"""Seeded workloads: the inputs each pass hands to relaxbound's public API.

Every pass draws its inputs from its own generator, seeded by
(run seed, pass index), so a run covers many starting guesses and the
same seed always reproduces the same inputs.  A pass is a list of
top-level calls; each call carries its output check and the record
(relaxed energy, sweep count) written to the run's output file.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from functools import lru_cache, partial
from pathlib import Path
from typing import Callable

import numpy as np

import relaxbound.cli
from relaxbound import Mesh, Potential, ProblemSpec, scan, solve_bound_state
from relaxbound.oracles import hydrogen_energy, linear_energy

import checks
import spans

# Starting levels of the reference tables: (potential, n, l, level).
# Coulomb levels are in eV, linear ones in GeV.
STATES = (
    ("coulomb", 1, 0, -13.598270),
    ("coulomb", 2, 0, -3.399750),
    ("coulomb", 2, 1, -1.510056),
    ("linear", 1, 0, 5.9719),
    ("linear", 2, 0, 10.4410),
)
SCAN_LEVELS = (("coulomb", 1, 0, -13.598270),) + tuple(
    ("linear", 1, l, level) for l, level in
    enumerate((5.9719, 8.5850, 10.8514, 12.9020, 14.9790, 16.5845)))
# seeded grids of the linear-algebra checks, one per potential
LINALG_STATES = (STATES[0], STATES[3])
JITTER = 0.02           # guesses and scan centres move by up to +/-2%
WINDOW = 0.04           # scans cover +/-4% around their centre
SCAN_STEPS = 61
TABLE_STEPS = 41
TABLE_ROWS = (3, 2, 6)  # Coulomb solves, linear solves, linear scans
FINE_M = 10001
COARSE_M = 101
CLI_M = 1001


@dataclass(frozen=True)
class Call:
    """One timed top-level public call."""

    label: str
    layer: str                          # span name of the called layer
    fn: Callable[[], object]
    check: Callable[[object], list]     # problems with the output
    record: Callable[[object], dict]    # what the run output keeps
    note: Callable[[object], dict] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    setup_mesh: int                     # mesh points of the first mesh built
    linalg_meshes: tuple[int, ...]      # M values of the linear-algebra checks
    calls: Callable[[np.random.Generator, Path], list[Call]]


def spec_for(kind: str, n: int, l: int) -> ProblemSpec:
    return ProblemSpec.coulomb(n, l) if kind == "coulomb" else ProblemSpec.linear(n, l)


@lru_cache(maxsize=None)
def mesh_for(m: int) -> Mesh:
    return Mesh.uniform(m)


def exact_energy(spec: ProblemSpec) -> float | None:
    if spec.kind is Potential.COULOMB:
        return hydrogen_energy(spec.n, spec.l, spec)
    return linear_energy(spec.n, spec.coupling, spec.mu) if spec.l == 0 else None


def quoted_guess(kind: str, n: int, l: int, level: float) -> float:
    """Guess as the API takes it: Coulomb guesses at ground-state scale."""
    return level * (n + l) ** 2 if kind == "coulomb" else level


def _rel_err(value: float, exact: float | None):
    return None if exact is None else abs(value - exact) / abs(exact)


# -- solve-fine -----------------------------------------------------------

def _check_solve(spec, mesh, guess, out) -> list[str]:
    problems = [] if out.converged else ["solve did not converge"]
    return problems + checks.relaxed_grid(spec, mesh, guess, out.grid)


def _record_solve(guess, exact, out) -> dict:
    return {"guess": guess, "energy": out.grid.energy, "sweeps": out.iterations,
            "converged": out.converged,
            "err_vs_exact": _rel_err(out.grid.energy, exact)}


def solve_calls(rng, out_dir) -> list[Call]:
    """One solve per reference state at M = 10001.

    Coulomb guesses are jittered.  Linear states start at their table
    level: at this M their sweep count jumps between 3 and 32 within
    +/-2% of it, as Newton collapses towards y = 0 (README, reproduction
    limits), and no run of a few passes can average that out.
    """
    mesh = mesh_for(FINE_M)
    calls = []
    for kind, n, l, level in STATES:
        spec = spec_for(kind, n, l)
        jitter = rng.uniform(-JITTER, JITTER) if kind == "coulomb" else 0.0
        guess = quoted_guess(kind, n, l, level) * (1.0 + jitter)
        calls.append(Call(
            label=f"solve {kind} n={n} l={l}", layer=spans.PROBLEMS,
            fn=partial(solve_bound_state, spec, mesh, guess),
            check=partial(_check_solve, spec, mesh, guess),
            record=partial(_record_solve, guess, exact_energy(spec))))
    return calls


# -- scan-coarse ----------------------------------------------------------

def _record_scan(window, exact, report) -> dict:
    return {"window": window, "selected": report.selected,
            "selected_guess": report.selected_guess,
            "selected_relaxed": report.selected_relaxed,
            "energies": [e.relaxed_e for e in report.entries],
            "converged": sum(e.converged for e in report.entries),
            "err_vs_exact": _rel_err(report.selected_relaxed, exact)}


def scan_calls(rng, out_dir) -> list[Call]:
    mesh = mesh_for(COARSE_M)
    calls = []
    for kind, n, l, level in SCAN_LEVELS:
        spec = spec_for(kind, n, l)
        centre = quoted_guess(kind, n, l, level) * (1.0 + rng.uniform(-JITTER, JITTER))
        lo, hi = sorted((centre * (1.0 - WINDOW), centre * (1.0 + WINDOW)))
        calls.append(Call(
            label=f"scan {kind} n={n} l={l}", layer=spans.SCANNER,
            fn=partial(scan, spec, mesh, None, lo, hi, SCAN_STEPS),
            check=partial(checks.scan_report, spec, mesh, steps=SCAN_STEPS),
            record=partial(_record_scan, [lo, hi], exact_energy(spec)),
            note=partial(spans.note_scan, None)))
    return calls


# -- cli-tables -----------------------------------------------------------

def _run_cli(argv: list[str]) -> tuple[int, str]:
    """cli.main in process, with its report captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = relaxbound.cli.main(argv)
    return code, out.getvalue() + err.getvalue()


def _check_exit(result) -> list[str]:
    code, text = result
    return [] if code == 0 else [f"exit code {code}: {text.strip()[-200:]}"]


def _check_tables(result) -> list[str]:
    return _check_exit(result) or checks.tables_report(result[1], *TABLE_ROWS)


def _record_tables(result) -> dict:
    return {"exit": result[0], "report": result[1]}


def _check_cli_solve(path, result) -> list[str]:
    problems = _check_exit(result)
    if not problems and "converged=True" not in result[1]:
        problems.append("solve report lacks converged=True")
    return problems or checks.solve_json(path, CLI_M)


def _record_cli_solve(path, guess, exact, result) -> dict:
    with open(path) as fh:
        payload = json.load(fh)
    return {"exit": result[0], "guess": guess, "energy": payload["eigenvalue"],
            "sweeps": payload["iterations"], "converged": payload["converged"],
            "err_vs_exact": _rel_err(payload["eigenvalue"], exact)}


def _check_cli_oracle(path, energy, result) -> list[str]:
    problems = _check_exit(result)
    if not problems and f"exact eigenvalue: {energy:.6f}" not in result[1]:
        problems.append("oracle report lacks the closed-form eigenvalue")
    return problems or checks.oracle_dat(path, CLI_M)


def cli_calls(rng, out_dir) -> list[Call]:
    calls = [Call(label="tables", layer=spans.CLI,
                  fn=partial(_run_cli, ["tables", "--steps", str(TABLE_STEPS)]),
                  check=_check_tables, record=_record_tables)]
    for kind, n, l, level in STATES:
        guess = quoted_guess(kind, n, l, level) * (1.0 + rng.uniform(-JITTER, JITTER))
        path = out_dir / f"cli-solve-{kind}-{n}-{l}.json"
        argv = ["solve", "--potential", kind, "--n", str(n), "--l", str(l),
                "--guess", repr(guess), "--mesh-points", str(CLI_M),
                "--format", "json", "--out", str(path)]
        calls.append(Call(
            label=f"cli solve {kind} n={n} l={l}", layer=spans.CLI,
            fn=partial(_run_cli, argv), check=partial(_check_cli_solve, path),
            record=partial(_record_cli_solve, path, guess,
                           exact_energy(spec_for(kind, n, l)))))
    path = out_dir / "cli-oracle-linear.dat"
    calls.append(Call(
        label="cli oracle linear", layer=spans.CLI,
        fn=partial(_run_cli, ["oracle", "--potential", "linear",
                              "--mesh-points", str(CLI_M), "--out", str(path)]),
        check=partial(_check_cli_oracle, path, linear_energy(1)),
        record=lambda result: {"exit": result[0]}))
    return calls


# why each workload exists: BENCHMARK.json and bench/README.md
WORKLOADS = {w.name: w for w in (
    Workload("solve-fine", FINE_M, (FINE_M,), solve_calls),
    Workload("scan-coarse", COARSE_M, (COARSE_M,), scan_calls),
    Workload("cli-tables", CLI_M, (COARSE_M, CLI_M), cli_calls),
)}

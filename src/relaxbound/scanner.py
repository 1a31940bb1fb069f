"""Eigenvalue scans and the smoothness heuristic that ranks them.

Relaxation converges to *some* eigenstate for many starting guesses,
often with visible mesh-scale kinks when the guess sat closer to a
different level.  Scanning a guess window and keeping the converged
solution whose normalised wavefunction has the smallest summed squared
second difference picks out the intended smooth state without knowing
the spectrum beforehand.

With two CPUs a scan sends its odd-indexed guesses, pickled, to one
helper process (_Helper), started at a process's second scan that could
be shared and killed at its exit, and relaxes the even-indexed ones here.
"""

from __future__ import annotations

import atexit
import contextlib
import itertools
import json
import math
import os
import pickle
import sys
import threading
from dataclasses import dataclass, replace

import numpy as np

from .grid import Mesh, Potential, ProblemSpec, RelaxConfig, SolutionGrid, _is_count
from .oracles import exact_level
from .problems import (ORIGINAL, BlockBuilder, block_builder, default_config,
                       initial_guess, level_guess, solve_bound_state)
from .relax import SingularBlockError, relax_batch
# hydrogen_energy, linear_energy and relax stay importable: bench/spans.py wraps them here
from .oracles import hydrogen_energy, linear_energy
from .relax import relax


def roughness(grid: SolutionGrid) -> float:
    """Sum of squared second differences of the max-normalised wavefunction.

    Zero amplitude scores 0 by convention (a flat line is smooth).
    """
    w = grid.wavefunction
    peak = np.abs(w).max()
    if peak == 0.0:
        return 0.0
    w = w / peak
    d2 = w[2:] - 2.0 * w[1:-1] + w[:-2]
    return float(np.dot(d2, d2))


@dataclass(frozen=True)
class ScanEntry:
    e_guess: float
    converged: bool
    relaxed_e: float
    roughness: float


@dataclass(frozen=True)
class ScanReport:
    """Scan results; selected indexes the smoothest converged entry,
    whose guess and relaxed level the selected_* properties read."""

    entries: tuple[ScanEntry, ...]
    selected: int
    selected_guess = property(lambda self: self.entries[self.selected].e_guess)
    selected_relaxed = property(lambda self: self.entries[self.selected].relaxed_e)


class ScanSelectionError(RuntimeError):
    """No guess in the scan window converged; entries carried for inspection."""

    def __init__(self, entries: tuple[ScanEntry, ...]):
        self.entries = entries
        super().__init__("no converged entry to select from")


def _select(entries) -> int:
    """Smallest roughness among converged entries; ties prefer the
    smaller |e_guess|, then the earlier entry."""
    converged = [i for i, e in enumerate(entries) if e.converged]
    if not converged:
        raise ScanSelectionError(tuple(entries))
    return min(converged, key=lambda i: (entries[i].roughness, abs(entries[i].e_guess)))


def _entries(build, spec, mesh, config, formulation, guesses) -> list[ScanEntry]:
    """The scan entries of guesses, relaxed together in one relax_batch call."""
    configs = [default_config(spec, guess, formulation) if config is None
               else replace(config, scalv=config.scalv[:2]
                            + (abs(level_guess(spec, guess)) or config.scalv[2],)
                            + config.scalv[3:])
               for guess in guesses]
    starts = (initial_guess(spec, mesh, guess, formulation) for guess in guesses)
    return [ScanEntry(guess, False, math.nan, math.inf) if isinstance(out, SingularBlockError)
            else ScanEntry(guess, out.converged, out.grid.energy, roughness(out.grid))
            for guess, out in zip(guesses, relax_batch(build, starts, configs))]


class _Helper:
    """The one helper process of a process: _serve answers each pickled
    request on its stdin, the arguments of _entries, with their entries,
    or the exception they raised, pickled on its stdout.  Only the thread
    that started it uses it, so requests never interleave."""

    proc = owner = None
    ready = False

    def __init__(self):
        self.batches = itertools.count()

    def batch(self):
        """For a scan that could be shared: this helper if it is ready and
        this thread started it, else None.  It starts at the second such scan."""
        if len(getattr(os, "sched_getaffinity", lambda _: ())(0)) < 2:
            return None
        if next(self.batches) == 1:
            import subprocess
            code = ("import signal, sys; signal.signal(signal.SIGINT, signal.SIG_IGN); "
                    f"sys.path.insert(0, {os.path.dirname(os.path.dirname(__file__))!r}); "
                    "from relaxbound.scanner import _serve; _serve()")
            with contextlib.suppress(OSError):      # no Popen, no helper
                self.proc = subprocess.Popen([sys.executable, "-c", code],
                                             stdin=subprocess.PIPE, stdout=subprocess.PIPE)
                self.owner = os.getpid(), threading.get_ident()
                atexit.register(self.stop)
        if self.proc is None or self.owner != (os.getpid(), threading.get_ident()):
            return None
        if not self.ready:
            import select
            if not select.select([self.proc.stdout], [], [], 0)[0]:
                return None
            self.ready = self.proc.stdout.read(1) == b"R"
        if not self.ready or self.proc.poll() is not None:
            self.stop()             # it died: run without it
        return None if self.proc is None else self

    def send(self, *request):
        try:
            pickle.dump(request, self.proc.stdin)
            self.proc.stdin.flush()
        except BrokenPipeError as exc:
            raise RuntimeError("the scan helper died") from exc

    def receive(self) -> list[ScanEntry]:
        try:
            answer = pickle.load(self.proc.stdout)
        except (EOFError, pickle.UnpicklingError) as exc:
            raise RuntimeError("the scan helper died") from exc
        if isinstance(answer, Exception):
            raise answer
        return answer

    def stop(self):
        """Kill and reap the helper, unless another process started it."""
        if self.proc is not None and self.owner[0] == os.getpid():
            proc, self.proc = self.proc, None
            with contextlib.suppress(BrokenPipeError), proc:    # closes the pipes, waits
                proc.kill()


_HELPER = _Helper()


def _serve():
    """The helper's loop: answer each request until its stdin closes."""
    src, dst = sys.stdin.buffer, sys.stdout.buffer
    dst.write(b"R")
    dst.flush()
    with contextlib.suppress(EOFError):     # pickle.load at the end of its input
        while True:
            request = pickle.load(src)
            try:
                answer = _entries(*request)
            except Exception as exc:        # the scan that sent it raises it
                answer = exc
            pickle.dump(answer, dst)
            dst.flush()


def scan(spec: ProblemSpec, mesh: Mesh, config: RelaxConfig | None,
         e_min: float, e_max: float, steps: int,
         formulation: str = ORIGINAL) -> ScanReport:
    """Relax every guess in linspace(e_min, e_max, steps) and rank by roughness.

    Guesses follow the initial_guess convention (ground-state scale for
    Coulomb, level energy for linear); relaxed_e always reports the
    level eigenvalue from the relaxed grid.  config None means each
    guess's default_config; a given config gets each guess's |level| as
    scalv[2] (kept at a zero level).  Divergent guesses and singular
    eliminations become non-converged entries, never exceptions.
    selected_guess is the guess itself; the relaxed value at that guess
    sits in selected_relaxed.  formulation picks the difference system
    as in solve_bound_state.  In the normalised one every guess of a
    window around a level relaxes to that level, so selected_guess is
    then one of many equivalent starts and selected_relaxed is the
    selected state.  The guesses relax together in one relax_batch call,
    or, once the process's helper is ready and the problem is exactly a
    BlockBuilder, the even-indexed ones here and the odd-indexed ones in
    the helper; each entry is exactly what relaxing its guess alone would
    give.
    """
    if not (e_min < e_max and math.isfinite(e_max - e_min)):
        raise ValueError("need finite e_min < e_max")
    if not _is_count(steps) or steps < 2:
        raise ValueError("need an integer count of at least two scan steps")
    build = (block_builder(mesh, spec) if formulation == ORIGINAL
             else BlockBuilder(mesh, spec, formulation))
    guesses = [float(g) for g in np.linspace(e_min, e_max, steps)]
    args = build, spec, mesh, config, formulation
    helper = _HELPER.batch() if type(build) is BlockBuilder else None
    if helper is None:
        entries = _entries(*args, guesses)
    else:
        entries = [None] * steps
        try:
            helper.send(*args, guesses[1::2])
            entries[::2] = _entries(*args, guesses[::2])
            entries[1::2] = helper.receive()
        except BaseException:
            helper.stop()           # a request or answer may be cut short
            raise
    return ScanReport(entries=tuple(entries), selected=_select(entries))


def scan_diagnostics(report: ScanReport) -> dict:
    """Contrast between the best and typical converged roughness.

    distinguishable means the minimum sits at or below half a nonzero
    median, i.e. the smooth state visibly separates from the kinked ones.
    """
    rough = sorted(e.roughness for e in report.entries if e.converged)
    if not rough:
        return {"min": math.nan, "median": math.nan,
                "ratio": math.nan, "distinguishable": False}
    lo = rough[0]
    med = float(np.median(rough))
    ratio = lo / med if med > 0.0 else math.inf
    return {"min": lo, "median": med, "ratio": ratio,
            "distinguishable": med > 0.0 and lo <= 0.5 * med}


def compare_wavefunction(relaxed: SolutionGrid, exact: np.ndarray) -> float:
    """RMS difference after normalising both curves to unit peak |value|,
    the exact curve taking the relaxed one's overall sign."""
    w = relaxed.wavefunction
    e = np.asarray(exact, dtype=float)
    if e.shape != w.shape:
        raise ValueError("curves must share the mesh")
    wp = np.abs(w).max()
    ep = np.abs(e).max()
    if wp == 0.0 or ep == 0.0:
        raise ValueError("comparison undefined for an identically zero curve")
    diff = w / wp - math.copysign(1.0, np.dot(w, e)) * e / ep
    return float(math.sqrt(np.mean(diff * diff)))


def write_curve(x: np.ndarray, values: np.ndarray, path, fmt: str = "dat",
                **fields) -> None:
    """Write a curve with its values normalised to unit peak |value|.

    fmt "dat" writes 'x value' lines; "json" writes fields, then the x and
    value lists, as one JSON object laid out as by json.dump(..., indent=1).
    x and values must be one-dimensional and equally long."""
    x, values = np.asarray(x), np.asarray(values)
    if x.ndim != 1 or values.ndim != 1:
        raise ValueError("x and values must be one-dimensional")
    if "value" in fields:
        raise ValueError("a field named 'value' would clash with the values list")
    if len(x) != len(values):
        raise ValueError(f"{len(x)} x values for {len(values)} curve values")
    if fmt not in ("dat", "json"):
        raise ValueError(f"fmt must be 'dat' or 'json', not {fmt!r}")
    values = values / max(np.abs(values).max(), 1e-300)
    if fmt == "dat":
        text = "".join(map("{:.6f} {:.6f}\n".format, x.tolist(), values.tolist()))
    else:
        # an indent turns json's C encoder off; the lists are laid out here
        xs, vs = (json.dumps(a.tolist(), separators=(",\n  ", ": "))[1:-1]
                  for a in (x, values))
        head = json.dumps(fields, indent=1)[:-2] + "," if fields else "{"  # drop "\n}"
        text = f'{head}\n "x": [\n  {xs}\n ],\n "value": [\n  {vs}\n ]\n}}'
    with open(path, "w") as fh:
        fh.write(text)


# Reference eigenvalues (single-precision runs of the same scheme) used
# as the comparison column by reproduce_tables: (n, l, starting level,
# relaxed level) for the direct solves and (l, level) for the scans.
REFERENCE_COULOMB = (
    (1, 0, -13.598270, -13.621142),
    (2, 0, -3.399750, -3.400535),
    (2, 1, -1.510056, -1.510060),
)
REFERENCE_LINEAR = (
    (1, 0, 5.9719, 6.146734),
    (2, 0, 10.4410, 10.418742),
)
REFERENCE_SCAN_LINEAR = (
    (0, 5.9719),
    (1, 8.5850),
    (2, 10.8514),
    (3, 12.9020),
    (4, 14.9790),
    (5, 16.5845),
)


def reproduce_tables(scan_steps: int = 41, mesh_points: int = 101) -> str:
    """Re-run the reference solves and scans; returns the formatted report.

    Rows that fail to converge or meet a singular block read FAILED, never aborting it.
    Scan windows cover +/-4% around each reference level.
    """
    mesh = Mesh.uniform(mesh_points)
    lines = [f"eigenvalue tables (mesh points M={mesh_points})", ""]

    direct = (("Coulomb potential (eV)", ProblemSpec.coulomb, REFERENCE_COULOMB),
              ("linear potential (GeV)", ProblemSpec.linear, REFERENCE_LINEAR))
    for title, make, rows in direct:
        lines.append(f"direct solves, {title}")
        lines.append("  n  l  initial        relaxed        exact          reference")
        for n, l, start, ref in rows:
            spec = make(n, l)
            # Coulomb guesses are quoted at the ground-state scale
            guess = start * (n + l) ** 2 if spec.kind is Potential.COULOMB else start
            try:
                outcome = solve_bound_state(spec, mesh, guess)
                relaxed = f"{outcome.grid.energy:<13.6f}" if outcome.converged else "FAILED       "
            except SingularBlockError:
                relaxed = "FAILED       "
            lines.append(f"  {n}  {l}  {start:<13.6f} {relaxed} "
                         f"{exact_level(spec):<13.6f}  {ref:.6f}")
        lines.append("")

    lines.append(f"smoothness scans, linear potential, n=1 "
                 f"(+/-4% windows, {scan_steps} guesses)")
    lines.append("  l  selected guess relaxed        exact          reference")
    for l, ref in REFERENCE_SCAN_LINEAR:
        spec = ProblemSpec.linear(1, l)
        try:
            report = scan(spec, mesh, None, 0.96 * ref, 1.04 * ref, scan_steps)
        except ScanSelectionError:
            lines.append(f"  {l}  FAILED                                       "
                         f"        {ref:.4f}")
            continue
        exact = exact_level(spec)
        exact_txt = f"{exact:<13.6f}" if exact is not None else "-            "
        lines.append(f"  {l}  {report.selected_guess:<13.6f}  "
                     f"{report.selected_relaxed:<13.6f} {exact_txt}  {ref:.4f}")
    lines.append("")
    return "\n".join(lines)

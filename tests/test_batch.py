"""Batched relaxation: relax_batch, batch assembly and the scanner built
on them, each against the one-grid route it must reproduce bit for bit."""

import io
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from importlib import import_module
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from relaxbound import (BlockBuilder, Mesh, ProblemSpec, RelaxConfig, SingularBlockError,
                        SolutionGrid, block_builder, default_config,
                        initial_guess, level_guess, relax, relax_batch, scan,
                        solve_block_system, solve_bound_state)
from conftest import reference_relax, reference_scan, smooth_grid

# the package re-exports a function named relax over its relax module
relax_mod = import_module("relaxbound.relax")
scanner_mod = import_module("relaxbound.scanner")


def _groups(b, mesh):
    """Assembly groups a sweep of b grids on mesh takes."""
    return math.ceil(b / max(1, relax_mod.GROUP_BLOCKS // (mesh.m + 1)))


def _assert_same_outcome(got, want):
    assert got.grid.y.tobytes() == want.grid.y.tobytes()
    assert got.iterations == want.iterations
    assert got.final_err == want.final_err
    assert got.converged == want.converged


# ------------------------------------------------------------------ scan --


WINDOWS = {"coulomb-1s": (ProblemSpec.coulomb(1, 0), -14.1, -13.1, 45),
           "coulomb-zero-guess": (ProblemSpec.coulomb(1, 0), -1.0, 1.0, 45),
           "linear-l2": (ProblemSpec.linear(1, 2), 10.4, 11.3, 45)}
# a caller's config per formulation; scan swaps in each guess's scalv[2]
CUSTOM = {"original": RelaxConfig(itmax=30, conv=1e-7, slowc=0.5,
                                  scalv=(2.0, 0.5, 3.0)),
          "normalized": RelaxConfig(itmax=30, conv=1e-7, slowc=0.5,
                                    scalv=(2.0, 0.5, 3.0, 0.25))}


@pytest.mark.parametrize("spec, e_min, e_max, steps, formulation, config", [
    pytest.param(*window, formulation, config,
                 id=f"{name}-{formulation}" + ("" if config is None else "-custom"))
    for formulation in ("original", "normalized")
    for name, window in WINDOWS.items()
    for config in (None, CUSTOM[formulation])])
def test_scan_matches_the_guess_by_guess_reference(spec, e_min, e_max, steps,
                                                   formulation, config, mesh101):
    assert _groups(steps, mesh101) >= 3         # the batch spans several groups
    got = scan(spec, mesh101, config, e_min, e_max, steps, formulation=formulation)
    want = reference_scan(spec, mesh101, config, e_min, e_max, steps, formulation)
    assert repr(got) == repr(want)              # repr keeps every bit, NaN included


# --------------------------------------------------------- relax_batch --


SINGULAR, POISONED, OVERFLOW, HIDDEN = 5.5, 5.6, 5.7, 5.8    # energies that mark members


class Spoiled:
    """block_builder with four members spoiled, told apart by energy.

    SINGULAR gets an all-zero block k = 17, POISONED a NaN left-boundary
    residual (a non-finite err), and OVERFLOW a permutation system whose
    correction carries y[1, 0] = 1e308 past the largest float (a finite
    err but a non-finite step).  HIDDEN gets an all-zero block k = 17 and
    a NaN right-boundary residual.  assemble_batch(y, lo, hi) returns
    rows lo..hi-1 of the spoiled sweeps and notes (lo, hi) in requests.
    """

    def __init__(self, build):
        self.build, self.left, self.requests = build, build.left, []

    def assemble_batch(self, y, lo, hi):
        self.requests.append((lo, hi))
        s = self.build.assemble_batch(y, 0, y.shape[2] + 1)
        for b, energy in enumerate(y[:, 2, 0]):
            if energy in (SINGULAR, HIDDEN):
                s[b, 16] = 0.0
            if energy == HIDDEN:
                s[b, -1, 0, 6] = math.nan
            elif energy == POISONED:
                s[b, 0, 2, 6] = math.nan
            elif energy == OVERFLOW:         # delta = -residual, see test_relax
                s[b] = 0.0
                s[b, 0, 2, 3] = 1.0
                s[b, 1:-1, [0, 1, 2], [1, 2, 3]] = 1.0
                s[b, -1, [0, 1], [4, 5]] = 1.0
                s[b, 1, 0, 6] = -1e308
        return s[:, lo:hi]

    def assemble(self, grid):
        return self.assemble_batch(grid.y[None], 0, grid.m + 1)[0]


def _mixed_members(mesh):
    spec = ProblemSpec.linear(1, 0)
    starts, configs = [], []
    for i, guess in enumerate(np.linspace(5.0, 7.0, 40)):
        starts.append(initial_guess(spec, mesh, float(guess)))
        configs.append(RelaxConfig(itmax=(1, 2, 3, 100)[i % 4],
                                   conv=(1e-3, 1e-6, 1e-12)[i % 3],
                                   slowc=(0.3, 1.0)[i % 2], scalv=(1.0, 1.0, 6.0)))
    for energy in (SINGULAR, POISONED):
        starts.append(initial_guess(spec, mesh, energy))
        configs.append(default_config(spec, energy))
    y = np.zeros((3, mesh.m))
    y[1, 0], y[2] = 1e308, OVERFLOW
    starts.append(SolutionGrid(y))
    configs.append(RelaxConfig(slowc=1e10, scalv=(1.0, 1e300, 1.0)))
    y = np.zeros((3, mesh.m))
    y[2] = 6.0                                  # y = 0 solves the system exactly
    starts.append(SolutionGrid(y))
    configs.append(default_config(spec, 6.0))
    return spec, starts, configs


def test_mixed_retirement_batch_matches_relax(mesh101):
    spec, starts, configs = _mixed_members(mesh101)
    assert _groups(len(starts), mesh101) >= 3
    problem = Spoiled(block_builder(mesh101, spec))
    got = relax_batch(problem, starts, configs)
    sweeps = set()
    for out, start, cfg in zip(got, starts, configs):
        if start.energy == SINGULAR:
            for alone in (relax, reference_relax):
                with pytest.raises(SingularBlockError) as info:
                    alone(problem, start, cfg)
                assert isinstance(out, SingularBlockError) and out.k == info.value.k == 17
            continue
        _assert_same_outcome(out, relax(problem, start, cfg))
        _assert_same_outcome(out, reference_relax(problem, start, cfg))
        sweeps.add(out.iterations)
    by_energy = {start.energy: out for start, out in zip(starts, got)}
    assert by_energy[POISONED].final_err == math.inf
    assert math.isfinite(by_energy[OVERFLOW].final_err)
    assert not by_energy[OVERFLOW].converged
    assert by_energy[6.0].converged and by_energy[6.0].final_err == 0.0
    assert len(sweeps) >= 4                     # members leave at different sweeps


@pytest.mark.parametrize("route", ["streamed", "whole"])
def test_long_sweeps_stream_slab_by_slab_with_the_same_bits(route, mesh101, monkeypatch):
    # on both routes an exactly solved grid whose elimination fails at block
    # k = 17 is still exactly solved, and one whose only residual sits in the
    # last block is still singular.  streamed: seven-block slabs, k = 17 in the
    # third; whole: each sweep whole to solve_block_system
    if route == "streamed":
        monkeypatch.setattr(relax_mod, "GROUP_BLOCKS", 7)
        slabs = {(lo, min(lo + 7, mesh101.m + 1)) for lo in range(0, mesh101.m + 1, 7)}
    else:
        slabs = {(0, mesh101.m + 1)}
    spec, starts, configs = _mixed_members(mesh101)
    for energy, zero in [(SINGULAR, True), (HIDDEN, True), (HIDDEN, False)]:
        y = np.zeros((3, mesh101.m))
        y[2] = energy
        starts.append(SolutionGrid(y) if zero else initial_guess(spec, mesh101, energy))
        configs.append(default_config(spec, energy))
    problem = Spoiled(block_builder(mesh101, spec))
    got = relax_batch(problem, starts, configs)
    assert set(problem.requests) == slabs
    for out, start, cfg in zip(got, starts, configs):
        if isinstance(out, SingularBlockError):
            assert out.k == 17
            for alone in (relax, reference_relax):
                with pytest.raises(SingularBlockError) as info:
                    alone(problem, start, cfg)
                assert info.value.k == 17
            continue
        _assert_same_outcome(out, relax(problem, start, cfg))
        _assert_same_outcome(out, reference_relax(problem, start, cfg))
    exact = [out for out in got[-4:] if not isinstance(out, SingularBlockError)]
    assert [(out.iterations, out.final_err, out.converged) for out in exact] == [
        (1, 0.0, True)] * 2                     # the y = 0 grids, SINGULAR's too
    assert sum(isinstance(out, SingularBlockError) for out in got) == 3


class Rows:
    """block_builder behind an assemble_batch that must be told its rows:
    no defaults, and each (lo, hi) noted in requests."""

    def __init__(self, build):
        self.build, self.left, self.requests = build, build.left, []

    def assemble_batch(self, y, lo, hi):
        self.requests.append((lo, hi))
        return self.build.assemble_batch(y, lo, hi)


@pytest.mark.parametrize("rows", [None, 7], ids=["whole", "slabs"])
def test_every_request_names_its_rows(rows, mesh101, monkeypatch):
    # whole sweeps are asked for as rows 0..M+1 too, so a problem that
    # takes only (y, lo, hi) relaxes as the builder it wraps does
    if rows is not None:
        monkeypatch.setattr(relax_mod, "GROUP_BLOCKS", rows)
    spec, m = ProblemSpec.linear(1, 0), mesh101.m
    build = block_builder(mesh101, spec)
    guesses = [float(g) for g in np.linspace(5.0, 7.0, 13)]
    starts = [initial_guess(spec, mesh101, g) for g in guesses]
    configs = [default_config(spec, g) for g in guesses]
    problem = Rows(build)
    got, want = relax_batch(problem, starts, configs), relax_batch(build, starts, configs)
    assert repr(got) == repr(want)
    for out, alone in zip(got, want):
        _assert_same_outcome(out, alone)
    step = rows or m + 1
    assert set(problem.requests) == {(lo, min(lo + step, m + 1)) for lo in range(0, m + 1, step)}


@pytest.mark.parametrize("formulation", ["original", "normalized"])
def test_a_streamed_scan_matches_the_guess_by_guess_reference(formulation, mesh101,
                                                              monkeypatch):
    monkeypatch.setattr(relax_mod, "GROUP_BLOCKS", 7)
    spec = ProblemSpec.coulomb(1, 0)
    got = scan(spec, mesh101, None, -14.1, -13.1, 9, formulation=formulation)
    want = reference_scan(spec, mesh101, None, -14.1, -13.1, 9, formulation)
    assert repr(got) == repr(want)


class BoundaryOnly:
    """Permutation systems (see test_relax) whose only residuals are y1
    at x = 0, in the left block, and y1 at x = 1, in the right block."""

    left = (0,)

    def assemble_batch(self, y, lo, hi):
        s = np.zeros((len(y), y.shape[2] + 1, 3, 7))
        s[:, 0, 2, 3] = 1.0
        s[:, 1:-1, [0, 1, 2], [1, 2, 3]] = 1.0
        s[:, -1, [0, 1], [4, 5]] = 1.0
        s[:, 0, 2, 6] = y[:, 0, 0]
        s[:, -1, 0, 6] = y[:, 0, -1]
        return s[:, lo:hi]

    def assemble(self, grid):
        return self.assemble_batch(grid.y[None], 0, grid.m + 1)[0]


def test_a_grid_is_exactly_solved_only_with_zero_boundary_residuals(mesh101):
    starts = []
    for where in (0, -1, None):                 # left residual, right residual, none
        y = np.zeros((3, mesh101.m))
        if where is not None:
            y[0, where] = 0.5
        starts.append(SolutionGrid(y))
    cfg = RelaxConfig(itmax=1)
    got = relax_batch(BoundaryOnly(), starts, [cfg] * 3)
    for out, start in zip(got, starts):
        _assert_same_outcome(out, reference_relax(BoundaryOnly(), start, cfg))
    assert [out.final_err > 0.0 for out in got] == [True, True, False]


@pytest.mark.parametrize("route", ["alone", "serial"])
def test_an_exactly_solved_grid_keeps_its_signed_zeros(route, mesh101):
    # y = 0 with -0.0 at every third point solves the system exactly: its
    # zero step keeps every bit, where y + 0.0 would turn -0.0 into 0.0.  In a
    # batch of 13 it is member 11, in the second group
    spec, guess = ProblemSpec.coulomb(1, 0), -13.598270
    build, cfg = block_builder(mesh101, spec), default_config(spec, guess)
    y = np.zeros((3, mesh101.m))
    y[:2, ::3] = -0.0
    y[2] = level_guess(spec, guess)
    start = SolutionGrid(y)
    if route == "alone":
        out = relax(build, start, cfg)
    else:
        starts = [initial_guess(spec, mesh101, g) for g in np.linspace(-14.0, -13.0, 12)]
        starts.insert(11, start)
        assert _groups(len(starts), mesh101) == 2
        out = relax_batch(build, starts, [cfg] * len(starts))[11]
    assert (out.converged, out.iterations, out.final_err) == (True, 1, 0.0)
    assert out.grid.y.tobytes() == start.y.tobytes()


def test_per_k_problem_runs_through_the_batched_path(mesh101):
    spec = ProblemSpec.coulomb(1, 0)
    build = block_builder(mesh101, spec)
    guesses = np.linspace(-14.0, -13.0, 45)
    assert _groups(len(guesses), mesh101) >= 3
    starts = [initial_guess(spec, mesh101, g) for g in guesses]
    configs = [default_config(spec, g) for g in guesses]
    seen = []

    def per_k(k, grid):
        seen.append(k)
        return build(k, grid)

    got = relax_batch(per_k, starts, configs)
    for out, start, cfg in zip(got, starts, configs):
        _assert_same_outcome(out, reference_relax(build, start, cfg))
    # every member requests its sweep in order, one member after another
    sweep = list(range(1, mesh101.m + 2))
    assert seen == sweep * sum(out.iterations for out in got)


def test_per_k_sweeps_go_whole_through_solve_block_system(mesh101, monkeypatch):
    # the benchmark's traced passes count relax.block_solves by wrapping this
    # name, and every grid-sweep they trace comes from a per-k problem
    build, starts, configs = _coulomb_batch(mesh101)
    calls, solve = [], relax_mod.solve_block_system
    monkeypatch.setattr(relax_mod, "solve_block_system",
                        lambda blocks, *args: calls.append(len(blocks)) or solve(blocks, *args))
    got = relax_batch(lambda k, grid: build(k, grid), starts, configs)
    assert all(isinstance(out, relax_mod.RelaxOutcome) for out in got)
    assert calls == [mesh101.m + 1] * sum(out.iterations for out in got)


def test_relax_is_a_batch_of_one(mesh101):
    spec = ProblemSpec.linear(2, 0)
    start = initial_guess(spec, mesh101, 10.4410)
    cfg = default_config(spec, 10.4410)
    out, = relax_batch(block_builder(mesh101, spec), [start], [cfg])
    _assert_same_outcome(out, relax(block_builder(mesh101, spec), start, cfg))


def test_relax_batch_checks_its_members(mesh101):
    spec = ProblemSpec.linear(1, 0)
    build = block_builder(mesh101, spec)
    start, cfg = initial_guess(spec, mesh101, 6.0), default_config(spec, 6.0)
    assert relax_batch(build, [], []) == []
    with pytest.raises(ValueError):
        relax_batch(build, [start, start], [cfg])
    with pytest.raises(ValueError):
        relax_batch(build, [start, initial_guess(spec, mesh101, 6.0, "normalized")],
                    [cfg, cfg])
    with pytest.raises(ValueError, match="51 points on a mesh of 101"):
        relax_batch(build, [initial_guess(spec, Mesh.uniform(51), 6.0)], [cfg])


# ------------------------------------------------------- batch assembly --


@pytest.mark.parametrize("b", [1, 3, 13])
@pytest.mark.parametrize("formulation, n_vars", [("original", 3), ("normalized", 4)],
                         ids=["original", "normalized"])
def test_batch_assembly_matches_one_grid_at_a_time(formulation, n_vars, b, mesh101, rng):
    build = BlockBuilder(mesh101, ProblemSpec.linear(1, 2), formulation)
    grids = [smooth_grid(mesh101, rng, 10.0, n_vars) for _ in range(b)]
    sweeps = build.assemble_batch(np.stack([grid.y for grid in grids]), 0, mesh101.m + 1)
    assert sweeps.shape == (b, mesh101.m + 1, n_vars, 2 * n_vars + 1)
    for sweep, grid in zip(sweeps, grids):
        assert sweep.tobytes() == build.assemble(grid).tobytes()


@pytest.mark.parametrize("b", [1, 3])
@pytest.mark.parametrize("formulation, n_vars", [("original", 3), ("normalized", 4)],
                         ids=["original", "normalized"])
def test_slabs_of_a_sweep_concatenate_to_the_whole_sweep(formulation, n_vars, b,
                                                         mesh101, rng):
    build = BlockBuilder(mesh101, ProblemSpec.linear(1, 2), formulation)
    y = np.stack([smooth_grid(mesh101, rng, 10.0, n_vars).y for _ in range(b)])
    m = mesh101.m
    whole = build.assemble_batch(y, 0, m + 1).tobytes()
    # slabs of row 0 alone, one interior row alone, row M alone, and wider ones
    for cuts in ([0, 1, 2, 3, 40, m, m + 1], [0, 7, 14, 50, 51, m + 1],
                 [0, m, m + 1], [0, 1, m + 1]):
        slabs = [build.assemble_batch(y, lo, hi) for lo, hi in zip(cuts, cuts[1:])]
        assert np.concatenate(slabs, axis=1).tobytes() == whole, cuts


@pytest.mark.parametrize("lo, hi", [(-2, 3), (5, 5), (7, 3), (0, 13)])
def test_assemble_batch_takes_only_rows_inside_the_sweep(lo, hi):
    # an 11-point mesh has rows 0..11, block k in row k-1
    mesh = Mesh.uniform(11)
    spec = ProblemSpec.linear(1, 0)
    y = initial_guess(spec, mesh, 6.0).y[None]
    with pytest.raises(ValueError, match=rf"lo={lo}, hi={hi} "):
        block_builder(mesh, spec).assemble_batch(y, lo, hi)


# --------------------------------------------------------------- memory --


@pytest.mark.parametrize("formulation", ["original", "normalized"])
def test_scan_memory_stays_small(formulation, mesh101, serial_engine):
    # a sweep assembles about GROUP_BLOCKS blocks at a time; holding the
    # whole batch's (B, M+1, N, 2N+1) sweeps would add 1-2 MB here
    spec = ProblemSpec.linear(1, 2)
    scan(spec, mesh101, None, 10.4, 11.3, 61, formulation=formulation)   # warm caches
    tracemalloc.start()
    try:
        scan(spec, mesh101, None, 10.4, 11.3, 61, formulation=formulation)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_000_000


FINE_M = 10001          # a sweep of about ten GROUP_BLOCKS slabs


@pytest.mark.parametrize("formulation, per_point", [("original", 155), ("normalized", 215)])
def test_a_long_sweep_holds_one_slab_at_a_time(formulation, per_point):
    # the whole sweep alone is 168 B per point at N = 3 and 288 B at N = 4;
    # two slabs alive at once would read about 165 and 232 B
    mesh, spec = Mesh.uniform(FINE_M), ProblemSpec.coulomb(1, 0)
    build = BlockBuilder(mesh, spec, formulation)
    start = initial_guess(spec, mesh, -13.6, formulation)
    cfg = replace(default_config(spec, -13.6, formulation), itmax=1)
    relax(build, start, cfg)            # builds the layout outside the trace
    tracemalloc.start()
    try:
        relax(build, start, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= per_point * FINE_M, peak / FINE_M


@pytest.mark.parametrize("formulation", ["original", "normalized"])
def test_a_block_by_block_pass_holds_one_slab_at_a_time(formulation):
    mesh, spec = Mesh.uniform(FINE_M), ProblemSpec.coulomb(1, 0)
    build = BlockBuilder(mesh, spec, formulation)
    build(1, initial_guess(spec, mesh, -13.6, formulation))     # an earlier grid's slab
    grid = initial_guess(spec, mesh, -13.6, formulation)
    tracemalloc.start()
    try:
        for k in range(1, FINE_M + 2):
            build(k, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 60 * FINE_M, peak / FINE_M




# -------------------------------------------------------- helper process --


def _coulomb_batch(mesh, steps=45):
    spec = ProblemSpec.coulomb(1, 0)
    guesses = np.linspace(-14.1, -13.1, steps)
    return (block_builder(mesh, spec), [initial_guess(spec, mesh, g) for g in guesses],
            [default_config(spec, g) for g in guesses])


def _scan_1s(mesh, steps=45, formulation="original"):
    """A scan around hydrogen's 1s level, held to the guess-by-guess
    reference; returns the guesses a helper would be sent."""
    spec = ProblemSpec.coulomb(1, 0)
    want = reference_scan(spec, mesh, None, -14.1, -13.1, steps, formulation)
    got = scan(spec, mesh, None, -14.1, -13.1, steps, formulation=formulation)
    assert repr(got) == repr(want)
    return [entry.e_guess for entry in want.entries][1::2]


def _kill(helper):
    helper.proc.kill()
    helper.proc.wait()


@pytest.mark.parametrize("steps", [45, 61])
@pytest.mark.parametrize("formulation", ["original", "normalized"])
def test_a_scan_shared_with_the_helper_matches_the_reference(formulation, steps, mesh101,
                                                             helper):
    spec = ProblemSpec.coulomb(1, 0)
    got = scan(spec, mesh101, None, -14.1, -13.1, steps, formulation=formulation)
    want = reference_scan(spec, mesh101, None, -14.1, -13.1, steps, formulation)
    assert repr(got) == repr(want)
    # one request: the odd-indexed guesses
    assert helper.sent == [[entry.e_guess for entry in want.entries][1::2]]


def test_spoiled_members_in_the_helpers_groups_match_relax(mesh101, helper):
    # guesses that fail, on both sides: in a normalised scan of the zero-guess
    # window with a caller's config, 19 of 45 run out of sweeps; in the
    # original window -20..1e308, every guess past the first overflows its
    # blocks and meets a singular one
    spec = ProblemSpec.coulomb(1, 0)
    for e_min, e_max, formulation, config in [(-1.0, 1.0, "normalized", CUSTOM["normalized"]),
                                              (-20.0, 1e308, "original", None)]:
        helper.sent.clear()
        got = scan(spec, mesh101, config, e_min, e_max, 45, formulation=formulation)
        want = reference_scan(spec, mesh101, config, e_min, e_max, 45, formulation)
        assert repr(got) == repr(want)
        shared = got.entries[1::2]
        assert helper.sent == [[entry.e_guess for entry in shared]]
        assert any(entry.converged for entry in got.entries)
        assert any(not entry.converged for entry in shared)
        assert any(math.isnan(entry.relaxed_e) for entry in shared) == (config is None)


@pytest.mark.parametrize("formulation", ["original", "normalized"])
def test_a_scan_on_a_long_mesh_is_shared_with_the_helper(formulation, helper):
    # each sweep streams into its elimination slab by slab, in both processes
    mesh = Mesh.uniform(relax_mod.GROUP_BLOCKS + 101)
    guesses = _scan_1s(mesh, steps=5, formulation=formulation)
    assert helper.sent == [guesses] and len(guesses) == 2


@pytest.mark.parametrize("wrap", [lambda build: lambda k, grid: build(k, grid), Spoiled],
                         ids=["per-k", "wrapper"])
def test_only_a_block_builder_scan_is_shared(wrap, mesh101, helper, monkeypatch):
    # a per-k adapter, as the benchmark's traced passes install, or any other
    # problem wrapping the builder, relaxes every guess in this process
    monkeypatch.setattr(scanner_mod, "block_builder",
                        lambda mesh, spec: wrap(block_builder(mesh, spec)))
    _scan_1s(mesh101)
    assert helper.sent == []


def test_a_helper_killed_between_batches_is_dropped(mesh101, helper):
    _kill(helper)
    _scan_1s(mesh101)
    assert helper.proc is None and not helper.sent


def test_a_helper_dead_before_a_request_is_written_raises(mesh101, helper, monkeypatch):
    pid, send = helper.proc.pid, helper.send
    with monkeypatch.context() as patch:
        patch.setattr(helper, "send", lambda *request: _kill(helper) or send(*request))
        with pytest.raises(RuntimeError, match="helper died") as raised:
            _scan_1s(mesh101)
    assert isinstance(raised.value.__cause__, BrokenPipeError)
    assert helper.proc is None
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)
    guesses = _scan_1s(mesh101)                 # in this process alone now
    assert helper.sent == [guesses]             # the attempt


def _pending(mesh, helper, monkeypatch, act, exc, match):
    """scan raises exc when act runs as this process starts relaxing its
    share, the request sent; the helper is then gone, and the next scan
    relaxes every guess in this process."""
    pid = helper.proc.pid
    with monkeypatch.context() as patch:
        patch.setattr(scanner_mod, "relax_batch", lambda *args: act() or relax_batch(*args))
        with pytest.raises(exc, match=match):
            _scan_1s(mesh)
    assert helper.proc is None
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)
    guesses = _scan_1s(mesh)
    assert helper.sent == [guesses]             # the one request


def test_a_helper_that_dies_with_an_answer_pending_raises(mesh101, helper, monkeypatch):
    _pending(mesh101, helper, monkeypatch, lambda: _kill(helper), RuntimeError, "helper died")


def test_a_raise_here_with_an_answer_pending_drops_the_helper(mesh101, helper, monkeypatch):
    def fail():
        raise ValueError("assembly failed")

    _pending(mesh101, helper, monkeypatch, fail, ValueError, "assembly failed")


def test_other_threads_run_their_batches_without_the_helper(mesh101, helper):
    # four threads and this one scan at once, switching often: only this
    # one, which started the helper, may use it, so no request interleaves
    spec = ProblemSpec.coulomb(1, 0)
    want = repr(reference_scan(spec, mesh101, None, -14.1, -13.1, 45))
    got = {}

    def run(name):
        got[name] = repr(scan(spec, mesh101, None, -14.1, -13.1, 45))

    workers = [threading.Thread(target=run, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for worker in workers:
            worker.start()
        run("owner")
        for worker in workers:
            worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert len(got) == 5 and len(helper.sent) == 1      # the owner's scan alone
    assert set(got.values()) == {want}


def test_another_process_neither_uses_nor_stops_the_helper(mesh101, helper, monkeypatch):
    proc, pid = helper.proc, os.getpid()
    with monkeypatch.context() as patch:        # as in a child forked from this process
        patch.setattr(os, "getpid", lambda: pid + 1)
        _scan_1s(mesh101)
        helper.stop()                           # what the child's exit would run
    assert not helper.sent
    assert helper.proc is proc and proc.poll() is None
    guesses = _scan_1s(mesh101)
    assert helper.sent == [guesses]


def test_the_helper_loop_answers_each_request_as_this_process_would(mesh101, monkeypatch):
    # two requests over in-memory pipes, written by _Helper.send and read back
    # by _Helper.receive: the odd-indexed guesses of a normalised scan, whose
    # entries come back, and the same with a config of three scalv entries for
    # N = 4, whose ValueError comes back; _serve returns at the end of its input
    spec = ProblemSpec.linear(1, 2)
    build = BlockBuilder(mesh101, spec, "normalized")
    want = reference_scan(spec, mesh101, None, 10.4, 11.3, 9, "normalized").entries[1::2]
    guesses = [entry.e_guess for entry in want]
    request, answer = io.BytesIO(), io.BytesIO()
    sender = scanner_mod._Helper()
    sender.proc = SimpleNamespace(stdin=request)
    sender.send(build, spec, mesh101, None, "normalized", guesses)
    sender.send(build, spec, mesh101, RelaxConfig(), "normalized", guesses)
    monkeypatch.setattr(sys, "stdin", SimpleNamespace(buffer=io.BytesIO(request.getvalue())))
    monkeypatch.setattr(sys, "stdout", SimpleNamespace(buffer=answer))
    scanner_mod._serve()
    sender.proc.stdout = io.BytesIO(answer.getvalue())
    assert sender.proc.stdout.read(1) == b"R"
    assert repr(sender.receive()) == repr(list(want))
    with pytest.raises(ValueError, match="scalv needs one entry per unknown"):
        sender.receive()
    assert sender.proc.stdout.read() == b""


def test_the_helper_exits_when_its_input_closes(helper):
    helper.proc.stdin.close()
    assert helper.proc.wait(timeout=10) == 0


@pytest.fixture
def popen_calls(monkeypatch):
    """A fresh helper record whose Popen fails; lists each start attempt."""
    calls = []

    def refuse(*args, **kwargs):
        calls.append(args)
        raise OSError("no processes here")

    monkeypatch.setattr(subprocess, "Popen", refuse)
    monkeypatch.setattr(scanner_mod, "_HELPER", scanner_mod._Helper())
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return calls


def test_the_helper_starts_once_at_the_second_batch(mesh101, popen_calls):
    _scan_1s(mesh101, steps=11)
    assert popen_calls == []
    for _ in range(3):                  # a failed Popen is not retried
        _scan_1s(mesh101, steps=11)
        assert len(popen_calls) == 1


def test_no_helper_starts_for_work_it_cannot_share(mesh101, popen_calls, monkeypatch):
    # relax_batch and solve_bound_state run in this process whatever their
    # size; a scan shares only a BlockBuilder, and only on two CPUs
    build, starts, configs = _coulomb_batch(mesh101)
    for _ in range(2):
        relax_batch(build, starts, configs)
        solve_bound_state(ProblemSpec.coulomb(1, 0), mesh101, -13.6)
    with monkeypatch.context() as patch:
        patch.setattr(scanner_mod, "block_builder",
                      lambda mesh, spec: Spoiled(block_builder(mesh, spec)))
        for _ in range(2):
            _scan_1s(mesh101)
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        for _ in range(2):
            _scan_1s(mesh101)
    assert popen_calls == []


def test_scan_memory_stays_small_with_the_helper(mesh101, helper):
    # this process's share; the original formulation keeps the traced run short
    spec = ProblemSpec.linear(1, 2)
    scan(spec, mesh101, None, 10.4, 11.3, 61)       # warm caches
    tracemalloc.start()
    try:
        scan(spec, mesh101, None, 10.4, 11.3, 61)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(helper.sent) == 2
    assert peak <= 2_000_000


EXITING = """import os, relaxbound
from importlib import import_module
os.sched_getaffinity = lambda pid: {0, 1}      # two CPUs on any host
spec, mesh = relaxbound.ProblemSpec.linear(1, 0), relaxbound.Mesh.uniform(101)
for _ in range(3):
    relaxbound.scan(spec, mesh, None, 5.7, 6.2, 61)
print(import_module("relaxbound.scanner")._HELPER.proc.pid)
"""


def test_no_helper_outlives_its_process():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-W", "error", "-c", EXITING], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0 and done.stderr == "", done.stderr
    pid = int(done.stdout)
    deadline = time.monotonic() + 5.0
    while True:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            break
        assert time.monotonic() < deadline, f"helper {pid} still runs"
        time.sleep(0.05)

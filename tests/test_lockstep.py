"""Lockstep relaxation: relax_batch, the batched elimination and the
scanner built on them, each against the one-grid engine it must
reproduce bit for bit."""

import math
import tracemalloc
from importlib import import_module

import numpy as np
import pytest

from relaxbound import (Mesh, ProblemSpec, RelaxConfig, SingularBlockError,
                        SolutionGrid, block_builder, default_config,
                        initial_guess, normalized_builder, relax, relax_batch,
                        scan, solve_block_system)
from relaxbound.lockstep import eliminate
from conftest import reference_relax, reference_scan, smooth_grid

# the package re-exports a function named relax over its relax module
relax_mod = import_module("relaxbound.relax")


def solve_block_batch(blocks, left=(0,)):
    """Corrections and first singular block (0 for none) of each system
    in the (B, M+1, N, 2N+1) stack, by one lockstep elimination fed four
    blocks at a time, so slab edges fall inside the mesh."""
    with np.errstate(all="ignore"):
        dy, _, singular = eliminate(lambda lo, hi: blocks[:, lo:hi], len(blocks),
                                    blocks.shape[1] - 1,
                                    relax_mod._layout(blocks.shape[2], tuple(left)), 4)
    return dy, singular


def _same_bits(a, b):
    """Equal arrays with equal signs of zero; NaNs count as equal."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a) | np.isnan(a),
                               np.signbit(b) | np.isnan(b)))


def _assert_same_outcome(got, want):
    assert got.grid.y.tobytes() == want.grid.y.tobytes()
    assert got.iterations == want.iterations
    assert got.final_err == want.final_err
    assert got.converged == want.converged


# ------------------------------------------------------------------ scan --


@pytest.mark.parametrize("formulation", ["original", "normalized"])
@pytest.mark.parametrize("spec, e_min, e_max, steps", [
    (ProblemSpec.coulomb(1, 0), -14.1, -13.1, 21),
    (ProblemSpec.coulomb(1, 0), -1.0, 1.0, 17),
    (ProblemSpec.linear(1, 2), 10.4, 11.3, 21),
], ids=["coulomb-1s", "coulomb-zero-guess", "linear-l2"])
def test_scan_matches_the_guess_by_guess_reference(spec, e_min, e_max, steps,
                                                   formulation, mesh101):
    assert steps >= relax_mod.BATCH_MIN         # the batched kernel runs
    got = scan(spec, mesh101, None, e_min, e_max, steps, formulation=formulation)
    want = reference_scan(spec, mesh101, None, e_min, e_max, steps, formulation)
    assert repr(got) == repr(want)              # repr keeps every bit, NaN included


# --------------------------------------------------------- relax_batch --


SINGULAR, POISONED, OVERFLOW = 5.5, 5.6, 5.7    # energies that mark members


class Spoiled:
    """block_builder with three members spoiled, told apart by energy.

    SINGULAR gets an all-zero block k = 17, POISONED a NaN left-boundary
    residual (a non-finite err), and OVERFLOW a permutation system whose
    correction carries y[1, 0] = 1e308 past the largest float (a finite
    err but a non-finite step).
    """

    def __init__(self, build):
        self.build, self.left = build, build.left

    def assemble_slab(self, y, lo, hi):
        s = self.build.assemble_slab(y, lo, hi)
        for b, energy in enumerate(y[:, 2, 0]):
            if energy == SINGULAR and lo <= 16 < hi:
                s[b, 16 - lo] = 0.0
            elif energy == POISONED and lo == 0:
                s[b, 0, 2, 6] = math.nan
            elif energy == OVERFLOW:
                s[b] = 0.0
                for k in range(lo, hi):     # delta = -residual, see test_relax
                    if k == 0:
                        s[b, 0, 2, 3] = 1.0
                    elif k < y.shape[2]:
                        s[b, k - lo, [0, 1, 2], [1, 2, 3]] = 1.0
                    else:
                        s[b, k - lo, [0, 1], [4, 5]] = 1.0
                if lo <= 1 < hi:
                    s[b, 1 - lo, 0, 6] = -1e308
        return s

    def assemble(self, grid):
        return self.assemble_slab(grid.y[None], 0, grid.m + 1)[0]


def _mixed_members(mesh):
    spec = ProblemSpec.linear(1, 0)
    starts, configs = [], []
    for i, guess in enumerate(np.linspace(5.0, 7.0, 16)):
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
    assert len(starts) >= relax_mod.BATCH_MIN
    problem = Spoiled(block_builder(mesh101, spec))
    got = relax_batch(problem, mesh101, starts, configs)
    sweeps = set()
    for out, start, cfg in zip(got, starts, configs):
        if start.energy == SINGULAR:
            for alone in (relax, reference_relax):
                with pytest.raises(SingularBlockError) as info:
                    alone(problem, mesh101, start, cfg)
                assert isinstance(out, SingularBlockError) and out.k == info.value.k == 17
            continue
        _assert_same_outcome(out, relax(problem, mesh101, start, cfg))
        _assert_same_outcome(out, reference_relax(problem, mesh101, start, cfg))
        sweeps.add(out.iterations)
    by_energy = {start.energy: out for start, out in zip(starts, got)}
    assert by_energy[POISONED].final_err == math.inf
    assert math.isfinite(by_energy[OVERFLOW].final_err)
    assert not by_energy[OVERFLOW].converged
    assert by_energy[6.0].converged and by_energy[6.0].final_err == 0.0
    assert len(sweeps) >= 4                     # members leave at different sweeps


def test_per_k_problem_runs_through_the_batched_path(mesh101):
    spec = ProblemSpec.coulomb(1, 0)
    build = block_builder(mesh101, spec)
    guesses = np.linspace(-14.0, -13.0, relax_mod.BATCH_MIN + 1)
    starts = [initial_guess(spec, mesh101, g) for g in guesses]
    configs = [default_config(spec, g) for g in guesses]
    seen = []

    def per_k(k, grid):
        seen.append(k)
        return build(k, grid)

    got = relax_batch(per_k, mesh101, starts, configs)
    for out, start, cfg in zip(got, starts, configs):
        _assert_same_outcome(out, reference_relax(build, mesh101, start, cfg))
    # every member requests its sweep in order, one member after another
    sweep = list(range(1, mesh101.m + 2))
    assert seen == sweep * sum(out.iterations for out in got)


def test_relax_is_a_batch_of_one(mesh101):
    spec = ProblemSpec.linear(2, 0)
    start = initial_guess(spec, mesh101, 10.4410)
    cfg = default_config(spec, 10.4410)
    out, = relax_batch(block_builder(mesh101, spec), mesh101, [start], [cfg])
    _assert_same_outcome(out, relax(block_builder(mesh101, spec), mesh101, start, cfg))


def test_relax_batch_checks_its_members(mesh101):
    spec = ProblemSpec.linear(1, 0)
    build = block_builder(mesh101, spec)
    start, cfg = initial_guess(spec, mesh101, 6.0), default_config(spec, 6.0)
    assert relax_batch(build, mesh101, [], []) == []
    with pytest.raises(ValueError):
        relax_batch(build, mesh101, [start, start], [cfg])
    with pytest.raises(ValueError):
        relax_batch(build, mesh101, [start, initial_guess(spec, mesh101, 6.0, "normalized")],
                    [cfg, cfg])
    with pytest.raises(ValueError):
        relax_batch(build, Mesh.uniform(51), [start], [cfg])


# ---------------------------------------------------- batched elimination --


def _stacks(builder, n_vars, rng, m=12, b=10):
    """Physics blocks, physics blocks with a few NaN/inf entries, small
    integer blocks full of ties and singular stages, and those with one
    entry in twenty-five NaN or infinite."""
    mesh = Mesh.uniform(m)
    build = builder(mesh, ProblemSpec.linear(1, 2))
    smooth = np.stack([build.assemble(smooth_grid(mesh, rng, 10.0, n_vars))
                       for _ in range(b)])
    spoiled = smooth.copy()
    for i in range(b):
        for _ in range(i % 4):
            spoiled[i, rng.integers(m + 1), rng.integers(n_vars),
                    rng.integers(2 * n_vars + 1)] = (math.nan, math.inf, -math.inf)[i % 3]
    ties = rng.integers(-2, 3, size=(4 * b, m + 1, n_vars, 2 * n_vars + 1)).astype(float)
    odd = ties.copy()
    where = rng.random(odd.shape) < 0.04
    odd[where] = rng.choice([math.nan, math.inf, -math.inf], size=where.sum())
    return build.left, [smooth, spoiled, ties, odd]


@pytest.mark.parametrize("builder, n_vars", [(block_builder, 3), (normalized_builder, 4)],
                         ids=["original", "normalized"])
def test_batched_elimination_matches_solve_block_system(builder, n_vars, rng):
    left, stacks = _stacks(builder, n_vars, rng)
    flags = set()
    for blocks in stacks:
        dy, singular = solve_block_batch(blocks, left)
        for b in range(len(blocks)):
            try:
                want = solve_block_system(blocks[b], left)
            except SingularBlockError as exc:
                assert singular[b] == exc.k
                flags.add(exc.k)
                continue
            assert singular[b] == 0
            assert _same_bits(dy[b], want)
    assert len(flags) >= 3                      # singular at several stages


def test_batched_elimination_treats_nans_as_the_scalar_rule_does():
    # permutation systems (see test_relax) with one interior stage edited:
    # a NaN first in a row's scale scan makes the scalar stage singular,
    # a NaN later in the row never wins its pivot search
    def permutation(m=4):
        s = np.zeros((m + 1, 3, 7))
        s[0, 2, 3] = 1.0
        for k in range(1, m):
            s[k, [0, 1, 2], [1, 2, 3]] = 1.0
        s[m, [0, 1], [4, 5]] = 1.0
        s[:, :, 6] = 0.25
        return s

    first, later = permutation(), permutation()
    first[1, 0, 1:4] = math.nan, 2.0, 0.0
    first[1, 1, 1:4] = 1.0, 0.0, 0.0
    later[1, 0, 1:4] = 1.0, math.nan, 0.0
    dy, singular = solve_block_batch(np.stack([first, later]))
    with pytest.raises(SingularBlockError) as info:
        solve_block_system(first)
    assert singular[0] == info.value.k == 2
    assert singular[1] == 0
    assert _same_bits(dy[1], solve_block_system(later))


# --------------------------------------------------------------- memory --


@pytest.mark.parametrize("formulation", ["original", "normalized"])
def test_scan_memory_stays_small(formulation, mesh101):
    # the batch is streamed a few blocks at a time; holding a whole
    # (B, M+1, N, 2N+1) sweep would add 1-2 MB here
    spec = ProblemSpec.linear(1, 2)
    scan(spec, mesh101, None, 10.4, 11.3, 61, formulation=formulation)   # warm caches
    tracemalloc.start()
    try:
        scan(spec, mesh101, None, 10.4, 11.3, 61, formulation=formulation)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_000_000

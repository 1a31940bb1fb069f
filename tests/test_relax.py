"""Block-tridiagonal Newton engine: structured elimination vs dense LU,
stepping, damping, and failure reporting."""

import copy
import inspect
import itertools
import math
import pickle
import tracemalloc
from importlib import import_module

import numpy as np
import pytest

from relaxbound import (BlockBuilder, DifferenceBlock, Mesh, ProblemSpec, RelaxConfig,
                        RelaxOutcome, SingularBlockError, SolutionGrid,
                        block_builder, default_config, initial_guess,
                        level_guess, relax, solve_block_system, solve_bound_state)
from conftest import dense_solve, reference_elimination, smooth_grid

# the package re-exports a function named relax over its relax module
relax_mod = import_module("relaxbound.relax")
LAYOUTS = [(3, (0,)), (4, (0, 3))]


def _zeros_block():
    return np.zeros((3, 7))


# ----------------------------------------------------------- validation --


def test_block_must_be_three_by_seven():
    with pytest.raises(ValueError):
        DifferenceBlock(np.zeros((3, 6)))
    with pytest.raises(ValueError):
        DifferenceBlock(np.zeros((2, 7)))
    DifferenceBlock(np.zeros((3, 7)))       # the right shape constructs fine


def test_solver_needs_at_least_one_interior_block():
    blocks = [DifferenceBlock(_zeros_block()) for _ in range(2)]
    with pytest.raises(ValueError):
        solve_block_system(blocks)


def test_solver_refuses_blocks_that_are_not_n_by_2n_plus_1():
    with pytest.raises(ValueError, match="must stack"):
        solve_block_system(np.zeros((5, 3, 6)))


class _OneBlockShort:
    def assemble_batch(self, y, lo, hi):
        b, n, m = y.shape
        return np.zeros((b, m, n, 2 * n + 1))


@pytest.mark.parametrize("problem, got", [
    pytest.param(_OneBlockShort(), r"\(1, 11, 3, 7\)", id="assemble_batch"),
    pytest.param(lambda k, grid: np.zeros((2, 5)), r"\(1, 12, 2, 5\)", id="per-k")])
def test_relax_refuses_a_sweep_of_the_wrong_shape(problem, got):
    grid = SolutionGrid(np.ones((3, 11)))
    with pytest.raises(ValueError, match=r"sweeps of 1 grids must be \(1, 12, 3, 7\), not " + got):
        relax(problem, grid, RelaxConfig())


def test_relax_rejects_mismatched_mesh():
    # the problem owns the mesh: its builder refuses a grid of another size
    build = block_builder(Mesh.uniform(11), ProblemSpec.coulomb(1, 0))
    grid = SolutionGrid(np.zeros((3, 21)))
    with pytest.raises(ValueError, match="21 points on a mesh of 11"):
        relax(build, grid, RelaxConfig())


# --------------------------------------------- hand-solvable block system --


def _permutation_system(m, e_left, e_interior, e_right):
    """Blocks whose Newton matrix is a permutation of the identity.

    The left row pins variable 0 at point 0; each interior block pins
    variables 1, 2 at its left point and variable 0 at its right point;
    the right rows pin variables 1, 2 at the last point.  Every pivot is
    exactly 1 so the elimination is exact and delta = -residual.
    """
    blocks = []
    s = _zeros_block()
    s[2, 3] = 1.0
    s[2, 6] = e_left
    blocks.append(DifferenceBlock(s))
    for k in range(2, m + 1):
        s = _zeros_block()
        s[0, 1] = 1.0
        s[1, 2] = 1.0
        s[2, 3] = 1.0
        s[:, 6] = e_interior[k - 2]
        blocks.append(DifferenceBlock(s))
    s = _zeros_block()
    s[0, 4] = 1.0
    s[1, 5] = 1.0
    s[0, 6], s[1, 6] = e_right
    blocks.append(DifferenceBlock(s))
    return blocks


def test_permutation_system_solves_exactly():
    m = 6
    rng = np.random.default_rng(7)
    e_interior = rng.normal(size=(m - 1, 3))
    e_left = 0.625
    e_right = (-1.25, 2.5)
    dy = solve_block_system(_permutation_system(m, e_left, e_interior, e_right))

    assert dy.shape == (3, m)
    assert dy[0, 0] == -e_left
    for k in range(2, m + 1):
        assert dy[1, k - 2] == -e_interior[k - 2][0]
        assert dy[2, k - 2] == -e_interior[k - 2][1]
        assert dy[0, k - 1] == -e_interior[k - 2][2]
    assert dy[1, m - 1] == -e_right[0]
    assert dy[2, m - 1] == -e_right[1]


def test_permutation_system_matches_dense_route():
    m = 6
    rng = np.random.default_rng(8)
    blocks = _permutation_system(m, 1.5, rng.normal(size=(m - 1, 3)),
                                 (0.5, -0.5))
    assert np.array_equal(solve_block_system(blocks), dense_solve(blocks, m))


# ----------------------------------------- dual route on real problems --


@pytest.mark.parametrize("spec", [
    ProblemSpec.coulomb(1, 0),
    ProblemSpec.coulomb(2, 1),
    ProblemSpec.linear(2, 0),
], ids=["coulomb-1s", "coulomb-2p", "linear-n2"])
@pytest.mark.parametrize("m", [4, 7, 12])
def test_structured_solver_matches_dense_lu(spec, m, rng):
    mesh = Mesh.uniform(m)
    build = block_builder(mesh, spec)
    scale = 13.6 if spec.kind.name == "COULOMB" else 5.0
    for _ in range(3):
        grid = smooth_grid(mesh, rng, energy_scale=scale)
        blocks = [build(k, grid) for k in range(1, m + 2)]
        fast = solve_block_system(blocks)
        slow = dense_solve(blocks, m)
        # 1e-10 relative per element, with an absolute floor at the LU
        # roundoff scale so near-zero elements stay comparable
        peak = np.abs(slow).max()
        assert np.all(np.abs(fast - slow) <= 1e-10 * np.abs(slow) + 5e-12 * peak)


@pytest.mark.parametrize("formulation, n_vars", [("original", 3), ("normalized", 4)],
                         ids=["original", "normalized"])
@pytest.mark.parametrize("spec, scale", [
    (ProblemSpec.coulomb(1, 0), 13.6),
    (ProblemSpec.linear(1, 3), 12.9),
], ids=["coulomb-1s", "linear-l3"])
@pytest.mark.parametrize("m", [3, 12, 301])
def test_elimination_matches_the_plain_loop_reference_exactly(
        formulation, n_vars, spec, scale, m, rng):
    # the stage arithmetic written out per layout must round exactly as
    # the loops over index lists do
    mesh = Mesh.uniform(m)
    build = BlockBuilder(mesh, spec, formulation)
    for _ in range(3):
        grid = smooth_grid(mesh, rng, energy_scale=scale, n_vars=n_vars)
        blocks = build.assemble(grid)
        fast = solve_block_system(blocks, left=build.left)
        assert fast.tobytes() == reference_elimination(blocks, build.left).tobytes()


@pytest.mark.parametrize("formulation, n_vars", [("original", 3), ("normalized", 4)],
                         ids=["original", "normalized"])
def test_every_input_form_gives_the_same_bits(formulation, n_vars, mesh101, rng):
    # the elimination reads a C-contiguous sweep; any other form of the
    # same blocks must be brought to it without changing a bit
    build = BlockBuilder(mesh101, ProblemSpec.coulomb(1, 0), formulation)
    grid = smooth_grid(mesh101, rng, energy_scale=13.6, n_vars=n_vars)
    s = np.ascontiguousarray(build.assemble(grid), dtype=float)
    wide = np.zeros(s.shape[:2] + (s.shape[2] + 3,))
    wide[..., 1:-2] = s
    forms = [wide[..., 1:-2], np.asfortranarray(s), [DifferenceBlock(b) for b in s]]
    assert not (forms[0].flags.c_contiguous or forms[1].flags.c_contiguous)
    # the generated elimination writes only into the array it is handed
    out = inspect.signature(relax_mod._layout(n_vars, build.left).eliminate).parameters["out"]
    assert out.default is inspect.Parameter.empty
    want = solve_block_system(s, build.left)
    assert not np.shares_memory(want, s)
    for form in forms:
        got = solve_block_system(form, build.left)
        assert got.tobytes() == want.tobytes()
        # a fresh float64 (N, M) array per call: a caller may keep every
        # result it gets, so two calls must never share a buffer
        assert got.dtype == np.float64 and got.shape == (n_vars, mesh101.m)
        assert got.flags.c_contiguous and got.flags.writeable
        assert not np.shares_memory(got, want)
        want = got


@pytest.mark.parametrize("m", [2, 3, 9, 40])
@pytest.mark.parametrize("n, left", [(2, (0,)), (3, (2,)), (3, (0, 1)), (4, (1,)),
                                     (4, (0, 1, 2)), (4, (3, 0)), (5, (1, 3)), (6, (0, 5))])
def test_every_layout_matches_the_plain_loop_reference_exactly(n, left, m, rng):
    # stages of r = 2..6 unknowns with 1-3 pinned: each stage's relations
    # must come back in sub-column order, whatever columns it pivoted on
    for _ in range(5):
        s = rng.normal(size=(m + 1, n, 2 * n + 1))
        fast = solve_block_system(s, left)
        assert fast.tobytes() == reference_elimination(s, left).tobytes()


def test_elimination_stores_little_per_mesh_point(rng):
    # per point, only the relation record (72 B at N = 3, 96 B at N = 4)
    # and the corrections (8 B per unknown, written straight into the
    # returned float64 array) may be stored
    m = 1001
    for n, left, per_point in [(3, (0,), 110), (4, (0, 3), 150)]:
        s = rng.normal(size=(m + 1, n, 2 * n + 1))
        solve_block_system(s, left)     # builds the layout outside the trace
        tracemalloc.start()
        try:
            solve_block_system(s, left)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= per_point * m, (n, left, peak / m)


# ---------------------------------------------------------- pivot paths --


LOW = 49.0                  # 49 * (1/49) rounds to one ulp below 1
# +/-1 sub-blocks whose steps tie on rows and columns: Hadamard for r = 2, 4
TIES = {1: [[1]], 2: [[1, 1], [1, -1]], 3: [[1, 1, 1], [1, -1, 1], [1, 1, -1]],
        4: [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]}


def _stage_kinds(n, left):
    """(rows, sub columns, carry columns) of the left boundary, interior
    and right boundary stages of solve_block_system."""
    trail = [v for v in range(n) if v not in left]
    pinned, trailing = [n + a for a in left], [n + t for t in trail]
    nl = len(left)
    return [(range(n - nl, n), pinned, trailing + [2 * n]),
            (range(n), trail + pinned, trailing + [2 * n]),
            (range(n - nl), trailing, [2 * n])]


def _forced_block(n, kind, cols, lows, rng):
    """A block whose stage pivots on known rows and columns.

    Row i of the stage has its largest entry, +/-LOW for the first
    `lows` rows and +/-1.0 for the rest, in sub column cols[i].  Its
    scaled offer is then one ulp below 1.0 or exactly 1.0, so the 1.0
    rows win first, in order, then the LOW rows, in order (ties among
    equal offers go to the first), each on its largest entry.  Each row
    also holds smaller entries in the columns pivoted before its turn,
    so elimination steps run without changing any open entry.  Returns
    the block and the stage's rows in pivot order.
    """
    rows, sub, carry = kind
    order = [*range(lows, len(rows)), *range(lows)]
    s = np.zeros((n, 2 * n + 1))
    for step, i in enumerate(order):
        sign = rng.choice([-1.0, 1.0])
        s[rows[i], sub[cols[i]]] = sign * (LOW if i < lows else 1.0)
        for j in order[:step]:
            s[rows[i], sub[cols[j]]] = rng.uniform(-0.9, 0.9)
        s[rows[i], carry] = rng.normal(size=len(carry))
    return s, order


def _forced_system(n, left, m, rng):
    """M+1 blocks that each pivot on their diagonal, in order."""
    kinds = _stage_kinds(n, left)
    kind_of = [kinds[0], *[kinds[1]] * (m - 1), kinds[2]]
    return np.stack([_forced_block(n, kind, range(len(kind[0])), 0, rng)[0]
                     for kind in kind_of])


@pytest.mark.parametrize("n, left", LAYOUTS, ids=["original", "normalized"])
def test_every_pivot_row_and_column_choice_matches_the_reference(n, left, rng):
    # one stage of each kind pivots in every column order and with every
    # count of LOW rows, so every step takes each free row and each open
    # column it can, ties between equal offers included; a TIES stage
    # ties between the largest entries of a row as well
    m = 3
    for where, kind in zip((0, 2, m), _stage_kinds(n, left)):
        rows, sub, _ = kind
        r = len(rows)
        s = _forced_system(n, left, m, rng)
        s[where][np.ix_(rows, sub)] = TIES[r]
        fast = solve_block_system(s, left)
        assert fast.tobytes() == reference_elimination(s, left).tobytes()
        taken = set()
        for cols in itertools.permutations(range(r)):
            for lows in range(r + 1):
                s = _forced_system(n, left, m, rng)
                s[where], order = _forced_block(n, kind, cols, lows, rng)
                fast = solve_block_system(s, left)
                assert fast.tobytes() == reference_elimination(s, left).tobytes()
                free, open_cols = list(range(r)), list(range(r))
                for step, i in enumerate(order):
                    taken.add((step, "row", free.index(i)))
                    taken.add((step, "column", open_cols.index(cols[i])))
                    free.remove(i)
                    open_cols.remove(cols[i])
        assert taken == {(step, what, slot) for step in range(r)
                         for what in ("row", "column") for slot in range(r - step)}


def test_stage_kernels_build_in_little_memory():
    # the kernels' source grows as r**3; unrolling every pivot order
    # instead grows as r! and peaked at 7 MB for one N = 4 stage
    tracemalloc.start()
    try:
        for n, left in LAYOUTS:
            relax_mod._Layout(n, left)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_000_000


# ------------------------------------------------------------- stepping --


def test_zero_wavefunction_is_a_one_iteration_fixed_point(mesh101):
    # every residual is exactly zero on the trivial solution, so the
    # correction is zero by definition and the grid must come back
    # untouched after a single iteration
    spec = ProblemSpec.coulomb(1, 0)
    y = np.zeros((3, mesh101.m))
    y[2] = level_guess(spec, -13.598270)
    start = SolutionGrid(y)
    out = relax(block_builder(mesh101, spec), start,
                default_config(spec, -13.598270))
    assert out.converged
    assert out.iterations == 1
    assert out.final_err == 0.0
    assert np.array_equal(out.grid.y, start.y)


def test_zero_amplitude_with_nonzero_slope_has_singular_jacobian(mesh101):
    # with the wavefunction row still zero every dE2/dy3 entry vanishes
    # (it is proportional to the wavefunction), so once any residual is
    # nonzero the elimination must give up at the right sentinel block:
    # nothing determines the eigenvalue update
    spec = ProblemSpec.coulomb(1, 0)
    y = np.zeros((3, mesh101.m))
    y[1] = 1.0
    y[2] = level_guess(spec, -13.598270)
    start = SolutionGrid(y)
    with pytest.raises(SingularBlockError) as info:
        relax(block_builder(mesh101, spec), start,
              default_config(spec, -13.598270))
    assert info.value.k == mesh101.m + 1


def test_full_newton_step_annihilates_the_wavefunction(mesh101):
    # the discrete system is linear in (y1, y2) at fixed energy with all
    # homogeneous boundary rows, so one undamped Newton step lands exactly
    # on the zero wavefunction and never moves the eigenvalue row
    spec = ProblemSpec.coulomb(2, 0)
    e_guess = -13.598270
    out = solve_bound_state(spec, mesh101, e_guess)
    assert out.converged
    assert out.grid.energy == pytest.approx(level_guess(spec, e_guess), rel=1e-9)
    assert np.abs(out.grid.wavefunction).max() <= 1e-8


def test_damped_step_is_previous_grid_plus_fac_delta(mesh101):
    spec = ProblemSpec.linear(1, 0)
    rng = np.random.default_rng(11)
    start = smooth_grid(mesh101, rng, energy_scale=5.0)
    cfg = RelaxConfig(itmax=1, conv=1e-30, slowc=0.1, scalv=(1.0, 1.0, 5.0))

    build = block_builder(mesh101, spec)
    dy = solve_block_system([build(k, start) for k in range(1, mesh101.m + 2)])
    err = float(sum(np.abs(dy[j]).sum() / cfg.scalv[j] for j in range(3)))
    err /= 3 * mesh101.m
    assert err > cfg.slowc                  # guarantees real damping below
    fac = cfg.slowc / err

    out = relax(build, start, cfg)
    assert not out.converged
    assert out.iterations == 1
    assert out.final_err == pytest.approx(err, rel=1e-15)
    assert np.allclose(out.grid.y, start.y + fac * dy, rtol=0.0, atol=1e-15)


def test_blocks_are_requested_in_order_once_per_sweep(mesh101):
    spec = ProblemSpec.coulomb(1, 0)
    build = block_builder(mesh101, spec)
    seen = []

    def recording(k, grid):
        seen.append(k)
        return build(k, grid)

    start = initial_guess(spec, mesh101, -13.598270)
    out = relax(recording, start,
                RelaxConfig(itmax=2, conv=1e-30, scalv=(1.0, 1.0, 13.6)))
    sweep = list(range(1, mesh101.m + 2))
    assert seen == sweep * out.iterations


@pytest.mark.parametrize("spec, guess", [
    (ProblemSpec.coulomb(1, 0), -14.0),
    (ProblemSpec.linear(2, 0), 10.4410),
], ids=["coulomb-1s", "linear-n2"])
def test_whole_sweep_and_per_block_problems_relax_identically(mesh101, spec, guess):
    build = block_builder(mesh101, spec)
    start = initial_guess(spec, mesh101, guess)
    cfg = default_config(spec, guess)
    whole = relax(build, start, cfg)
    per_block = relax(lambda k, g: build(k, g), start, cfg)
    assert whole.grid.y.tobytes() == per_block.grid.y.tobytes()
    assert whole.iterations == per_block.iterations > 1
    assert whole.final_err == per_block.final_err
    assert whole.converged == per_block.converged


def test_itmax_exhaustion_reports_nonconvergence(mesh101):
    spec = ProblemSpec.coulomb(1, 0)
    start = initial_guess(spec, mesh101, -13.598270)
    out = relax(block_builder(mesh101, spec), start,
                RelaxConfig(itmax=1, conv=1e-300, scalv=(1.0, 1.0, 13.6)))
    assert isinstance(out, RelaxOutcome)
    assert not out.converged
    assert out.iterations == 1
    assert math.isfinite(out.final_err)


def test_nonfinite_residual_reports_nonconvergence(mesh101):
    spec = ProblemSpec.coulomb(1, 0)
    build = block_builder(mesh101, spec)

    def poisoned(k, grid):
        block = build(k, grid)
        if k == 1:
            s = np.array(block.s)
            s[2, 6] = math.nan
            return DifferenceBlock(s)
        return block

    start = initial_guess(spec, mesh101, -13.598270)
    out = relax(poisoned, start, default_config(spec, -13.598270))
    assert not out.converged
    assert out.final_err == math.inf
    assert np.array_equal(out.grid.y, start.y)   # grid never moved


# ---------------------------------------------------------- singularity --


def test_singular_left_boundary_block_names_block_one():
    m = 5
    blocks = _permutation_system(m, 0.0, np.zeros((m - 1, 3)), (0.0, 0.0))
    s = np.array(blocks[0].s)
    s[2, 3] = 0.0                           # left row loses its only pivot
    blocks[0] = DifferenceBlock(s)
    with pytest.raises(SingularBlockError) as info:
        solve_block_system(blocks)
    assert info.value.k == 1
    assert "k=1" in str(info.value)
    assert isinstance(info.value, ArithmeticError)


def test_singular_block_error_survives_pickling_and_copying():
    for again in (pickle.loads(pickle.dumps(SingularBlockError(17))),
                  copy.copy(SingularBlockError(17))):
        assert again.k == 17
        assert str(again) == "singular block at k=17"


def test_singular_interior_block_names_its_position():
    m = 8
    blocks = _permutation_system(m, 0.0, np.zeros((m - 1, 3)), (0.0, 0.0))
    s = np.array(blocks[4].s)               # block k = 5
    s[2, 1:4] = 0.0                         # row 2 has no pivot candidates
    blocks[4] = DifferenceBlock(s)
    with pytest.raises(SingularBlockError) as info:
        solve_block_system(blocks)
    assert info.value.k == 5


def test_singular_right_boundary_block_names_the_sentinel():
    m = 5
    blocks = _permutation_system(m, 0.0, np.zeros((m - 1, 3)), (0.0, 0.0))
    s = np.array(blocks[m].s)
    s[1, 4:6] = 0.0
    blocks[m] = DifferenceBlock(s)
    with pytest.raises(SingularBlockError) as info:
        solve_block_system(blocks)
    assert info.value.k == m + 1


@pytest.mark.parametrize("n, left", LAYOUTS, ids=["original", "normalized"])
@pytest.mark.parametrize("place", ["first", "last"])
def test_singular_interior_block_names_its_place_in_a_long_chain(n, left, place, rng):
    # the elimination counts k in its loop over the interior blocks, so
    # a zero row at k = 2 or k = M of a chain of many blocks must name
    # exactly that block
    m = 40
    s = _forced_system(n, left, m, rng)
    k = 2 if place == "first" else m
    rows, sub, _ = _stage_kinds(n, left)[1]
    s[k - 1, rows[-1], sub] = 0.0
    with pytest.raises(SingularBlockError) as info:
        solve_block_system(s, left)
    assert info.value.k == k


@pytest.mark.parametrize("where", [0, 2, 3], ids=["left", "interior", "right"])
@pytest.mark.parametrize("route", ["zero-row", "rows-alike", "last-alike"])
def test_singular_normalized_stage_names_its_block(where, route, rng):
    # a row with no nonzero sub entry fails at the scales; rows that are
    # all nonzero but multiples of the first fail at a later pivot step
    n, left, m = 4, (0, 3), 3
    s = _forced_system(n, left, m, rng)
    rows, sub, _ = _stage_kinds(n, left)[min(where, 1) if where < m else 2]
    if route == "zero-row":
        s[where, rows[-1], sub] = 0.0
    else:
        for row in rows[1:] if route == "rows-alike" else rows[-1:]:
            s[where, row, sub] = -3.0 * s[where, rows[0], sub]
    with pytest.raises(SingularBlockError) as info:
        solve_block_system(s, left)
    assert info.value.k == where + 1

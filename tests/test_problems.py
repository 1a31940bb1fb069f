"""Difference-block assembly: boundary pins, analytic Jacobian entries,
starting profiles, and the solve wrapper."""

import numpy as np
import pytest

from relaxbound import (BlockBuilder, Mesh, Potential, ProblemSpec, RelaxConfig,
                        SingularBlockError, block_builder, default_config,
                        initial_guess, level_guess, relax, solve_bound_state)
import relaxbound.problems as problems
from conftest import assert_blocks_match_fd, reference_blocks, smooth_grid


@pytest.fixture
def coulomb_1s():
    return ProblemSpec.coulomb(1, 0)


# ------------------------------------------------------ boundary blocks --


def test_left_boundary_block_pins_the_wavefunction(mesh101, rng, coulomb_1s):
    grid = smooth_grid(mesh101, rng, energy_scale=13.6)
    s = block_builder(mesh101, coulomb_1s)(1, grid).s
    expect = np.zeros((3, 7))
    expect[2, 3] = 1.0
    expect[2, 6] = grid.y[0, 0]
    assert np.array_equal(s, expect)


def test_right_sentinel_block_pins_value_and_slope(mesh101, rng, coulomb_1s):
    grid = smooth_grid(mesh101, rng, energy_scale=13.6)
    s = block_builder(mesh101, coulomb_1s)(mesh101.m + 1, grid).s
    expect = np.zeros((3, 7))
    expect[0, 3] = 1.0
    expect[0, 6] = grid.y[0, -1]
    expect[1, 4] = 1.0
    expect[1, 6] = grid.y[1, -1]
    assert np.array_equal(s, expect)


@pytest.mark.parametrize("formulation", ["original", "normalized"])
def test_left_names_the_unknowns_the_first_block_pins(formulation, mesh101, rng, coulomb_1s):
    # the elimination takes block 1's last len(left) rows to pin exactly the
    # unknowns in left, in order, and block M+1 to hold the other N - len(left)
    build = BlockBuilder(mesh101, coulomb_1s, formulation)
    n = 4 if build.normalized else 3
    s = build.assemble(smooth_grid(mesh101, rng, energy_scale=13.6, n_vars=n))
    first, last = s[0, :, :2 * n], s[-1, :, :2 * n]
    pinned = []
    for row in first[n - len(build.left):]:
        (col,) = np.flatnonzero(row)
        assert row[col] == 1.0 and col >= n
        pinned.append(col - n)
    assert tuple(pinned) == build.left
    assert len(build.left) + np.count_nonzero(last.any(axis=1)) == n


@pytest.mark.parametrize("k", [0, -1, 103, 500])
def test_block_index_outside_range_is_rejected(mesh101, rng, coulomb_1s, k):
    grid = smooth_grid(mesh101, rng)
    with pytest.raises(IndexError, match=fr"k={k} outside 1\.\.102"):
        block_builder(mesh101, coulomb_1s)(k, grid)


# ------------------------------------------------------ interior blocks --


def test_first_and_third_residual_rows_are_exact(mesh101, rng, coulomb_1s):
    grid = smooth_grid(mesh101, rng, energy_scale=13.6)
    h = mesh101.h
    for k in (2, 51, 101):
        s = block_builder(mesh101, coulomb_1s)(k, grid).s
        p, i = k - 2, k - 1
        y2b = 0.5 * (grid.y[1, p] + grid.y[1, i])
        assert np.array_equal(s[0, :6], [-1.0, -0.5 * h, 0.0, 1.0, -0.5 * h, 0.0])
        assert s[0, 6] == grid.y[0, i] - grid.y[0, p] - h * y2b
        assert np.array_equal(s[2, :6], [0.0, 0.0, -1.0, 0.0, 0.0, 1.0])
        assert s[2, 6] == grid.y[2, i] - grid.y[2, p]


def test_second_row_couples_both_interval_endpoints_symmetrically(mesh101, rng):
    # midpoint averaging puts identical wave and energy derivatives on the
    # two points of the interval
    for spec in (ProblemSpec.coulomb(2, 1), ProblemSpec.linear(1, 0)):
        grid = smooth_grid(mesh101, rng, energy_scale=5.0)
        for k in (2, 30, 101):
            s = block_builder(mesh101, spec)(k, grid).s
            assert s[1, 0] == s[1, 3]
            assert s[1, 2] == s[1, 5]
            assert s[1, 4] - s[1, 1] == 2.0


@pytest.mark.parametrize("spec", [
    ProblemSpec.coulomb(1, 0),
    ProblemSpec.coulomb(2, 1),
    ProblemSpec.linear(1, 0),
    ProblemSpec.linear(2, 0),
], ids=["coulomb-1s", "coulomb-2p", "linear-n1", "linear-n2"])
def test_jacobian_entries_match_finite_differences(spec, rng):
    mesh = Mesh.uniform(9)
    scale = 13.6 if spec.kind is Potential.COULOMB else 5.0
    for _ in range(3):
        grid = smooth_grid(mesh, rng, energy_scale=scale)
        assert_blocks_match_fd(spec, mesh, grid, rtol=2e-6)


def test_jacobian_spot_check_on_the_production_mesh(mesh101, rng):
    spec = ProblemSpec.coulomb(2, 0)
    grid = smooth_grid(mesh101, rng, energy_scale=3.4)
    assert_blocks_match_fd(spec, mesh101, grid, ks=(2, 17, 51, 101), rtol=2e-6)


def test_jacobian_matches_finite_differences_from_the_standard_start(mesh101):
    # same check at k=2 from the canonical starting profile instead of a
    # randomized grid
    for spec, guess in ((ProblemSpec.coulomb(1, 0), -13.6),
                        (ProblemSpec.linear(1, 0), 6.0)):
        grid = initial_guess(spec, mesh101, guess)
        assert_blocks_match_fd(spec, mesh101, grid, ks=(2,), rtol=1e-6)


def test_centrifugal_term_shifts_only_the_wave_derivatives(mesh101, rng):
    for base, spun in ((ProblemSpec.coulomb(2, 0), ProblemSpec.coulomb(1, 1)),
                       (ProblemSpec.linear(1, 0), ProblemSpec.linear(1, 1))):
        grid = smooth_grid(mesh101, rng, energy_scale=5.0)
        build0 = block_builder(mesh101, base)
        build1 = block_builder(mesh101, spun)
        h = mesh101.h
        ll1 = spun.l * (spun.l + 1)
        for k in (2, 40, 101):
            s0 = build0(k, grid).s
            s1 = build1(k, grid).s
            xbar = 0.5 * (mesh101.x[k - 2] + mesh101.x[k - 1])
            y1b = 0.5 * (grid.y[0, k - 2] + grid.y[0, k - 1])
            ratio = (1.0 - xbar) / xbar
            shift = -0.5 * h * ll1 * ratio * ratio / (1.0 - xbar) ** 4
            # near x = 1 the shift is extracted from entries many orders
            # larger, so allow the eps-level noise of those operands
            for col, want in ((0, shift), (3, shift), (6, 2.0 * shift * y1b)):
                slack = 1e-12 * max(1.0, abs(s0[1, col]), abs(s1[1, col]))
                assert abs((s1[1, col] - s0[1, col]) - want) <= (
                    1e-12 * abs(want) + slack)
            same = np.ones((3, 7), dtype=bool)
            same[1, 0] = same[1, 3] = same[1, 6] = False
            assert np.array_equal(s0[same], s1[same])


@pytest.mark.parametrize("m", [3, 12, 101, 10001])
@pytest.mark.parametrize("l", [0, 2])
@pytest.mark.parametrize("kind", ["coulomb", "linear"])
def test_sweep_assembly_matches_the_scalar_reference_exactly(kind, l, m, rng):
    # bit for bit: (1 - xb)^4 computed the array way must round like the
    # scalar power at every midpoint, which the fine mesh probes densely;
    # both formulations, in one case per (kind, l, m)
    spec = getattr(ProblemSpec, kind)(3, l)
    mesh = Mesh.uniform(m)
    for formulation, n in (("original", 3), ("normalized", 4)):
        grid = smooth_grid(mesh, rng, energy_scale=13.6 if kind == "coulomb" else 5.0,
                           n_vars=n)
        build = BlockBuilder(mesh, spec, formulation)
        ref = reference_blocks(spec, mesh, grid)
        sweep = build.assemble(grid)
        assert sweep.shape == (m + 1, n, 2 * n + 1)
        assert np.array_equal(sweep, ref)
        for k in (1, 2, m, m + 1):
            assert np.array_equal(build(k, grid).s, ref[k - 1])


@pytest.mark.parametrize("formulation", ["original", "normalized"])
def test_builder_evaluates_the_potential_once(formulation, mesh101, rng, monkeypatch):
    # V depends only on mesh and spec: construction computes it, and
    # neither a sweep nor a per-k block computes it again
    spec = ProblemSpec.coulomb(1, 0)
    term, calls = problems._TERMS[spec.kind], []
    monkeypatch.setitem(problems._TERMS, spec.kind,
                        lambda *args: calls.append(args) or term(*args))
    build = BlockBuilder(mesh101, spec, formulation)
    n = 4 if build.normalized else 3
    grids = [smooth_grid(mesh101, rng, energy_scale=13.6, n_vars=n) for _ in range(4)]
    for grid in grids[:3]:
        build.assemble(grid)
    build(2, grids[3])
    assert len(calls) == 1


# ------------------------------------------------------- guesses, config --


def test_level_guess_rescales_coulomb_only():
    assert level_guess(ProblemSpec.coulomb(1, 0), -13.6) == -13.6
    assert level_guess(ProblemSpec.coulomb(2, 0), -13.6) == -13.6 / 4.0
    assert level_guess(ProblemSpec.coulomb(2, 1), -13.6) == -13.6 / 9.0
    assert level_guess(ProblemSpec.linear(3, 0), 12.9) == 12.9


def test_initial_guess_profile(mesh101):
    spec = ProblemSpec.coulomb(2, 0)
    grid = initial_guess(spec, mesh101, -13.598270)
    x = mesh101.x

    assert np.allclose(grid.wavefunction, np.sin(2.0 * np.pi * x) ** 2,
                       rtol=0.0, atol=1e-15)
    assert grid.y[0, 0] == 0.0 and grid.y[0, -1] == 0.0
    assert grid.y[1, -1] == 0.0
    assert np.all(grid.y[2] == -13.598270 / 4.0)
    assert grid.energy == -13.598270 / 4.0

    # derivative row is the x-derivative of the profile (FD comparison is
    # second order, so the bound carries the (2*pi*waves)^3 h^2/6 factor)
    fd = np.gradient(np.sin(2.0 * np.pi * x) ** 2, x)
    assert np.allclose(grid.derivative[1:-1], fd[1:-1], atol=0.05)
    assert np.allclose(grid.derivative[1:-1],
                       2.0 * np.pi * np.sin(4.0 * np.pi * x[1:-1]), atol=1e-12)


def test_initial_guess_node_counts(mesh101):
    # n - l half-waves for Coulomb, n for linear: count the interior
    # touches of zero (the profile is a squared sine, so it never dips
    # below zero)
    # 240 intervals divide evenly by every wave count used here, so the
    # profile's interior zeros land exactly on mesh points
    for spec, waves in ((ProblemSpec.coulomb(1, 0), 1),
                        (ProblemSpec.coulomb(3, 1), 2),
                        (ProblemSpec.linear(2, 0), 2),
                        (ProblemSpec.linear(3, 0), 3)):
        grid = initial_guess(spec, Mesh.uniform(241), 5.0)
        w = grid.wavefunction
        assert np.all(w >= -1e-15)
        interior_zeros = np.sum(np.abs(w[1:-1]) < 1e-12)
        assert interior_zeros == waves - 1


def test_initial_guess_rejects_coulomb_without_a_radial_wave():
    with pytest.raises(ValueError):
        initial_guess(ProblemSpec.coulomb(1, 1), Mesh.uniform(11), -13.6)


def test_default_config_values():
    cfg = default_config(ProblemSpec.coulomb(2, 0), -13.598270)
    assert cfg.itmax == 100
    assert cfg.conv == 1e-5
    assert cfg.slowc == 1.0
    assert cfg.scalv == (1.0, 1.0, 13.598270 / 4.0)

    cfg = default_config(ProblemSpec.linear(1, 0), 5.9719)
    assert cfg.conv == 1e-6
    assert cfg.scalv[2] == 5.9719


def test_default_config_zero_guess_falls_back_to_unit_scale():
    cfg = default_config(ProblemSpec.linear(1, 0), 0.0)
    assert cfg.scalv == (1.0, 1.0, 1.0)


# ---------------------------------------------------------- solve wrapper --


def test_solve_bound_state_equals_manual_assembly(mesh101):
    spec = ProblemSpec.linear(2, 0)
    wrapped = solve_bound_state(spec, mesh101, 10.4410)
    manual = relax(block_builder(mesh101, spec),
                   initial_guess(spec, mesh101, 10.4410),
                   default_config(spec, 10.4410))
    assert wrapped.converged == manual.converged
    assert wrapped.iterations == manual.iterations
    assert wrapped.final_err == manual.final_err
    assert np.array_equal(wrapped.grid.y, manual.grid.y)


def test_solve_bound_state_honours_a_custom_config(mesh101):
    spec = ProblemSpec.coulomb(1, 0)
    out = solve_bound_state(spec, mesh101, -13.598270,
                            config=RelaxConfig(itmax=1, conv=1e-300,
                                               scalv=(1.0, 1.0, 13.6)))
    assert out.iterations == 1
    assert not out.converged


def test_builders_dispatch_on_potential(mesh101, rng):
    grid = smooth_grid(mesh101, rng, energy_scale=5.0)
    cspec = ProblemSpec.coulomb(1, 0)
    lspec = ProblemSpec.linear(1, 0)
    assert not np.array_equal(block_builder(mesh101, cspec)(50, grid).s,
                              block_builder(mesh101, lspec)(50, grid).s)


@pytest.mark.parametrize("build", [
    block_builder,
    pytest.param(lambda mesh, spec: BlockBuilder(mesh, spec, "normalized"), id="normalized")])
@pytest.mark.parametrize("m", [11, 101, 10001])
def test_builders_refuse_a_spec_whose_blocks_overflow(build, m):
    # a0 = 1/(mu*e^2) = 1.4e302 is finite, but mu*a0^2 = 1.9e304 overflows E2
    with pytest.raises(ValueError, match="overflow"):
        build(Mesh.uniform(m), ProblemSpec.coulomb(1, 0, mu=1e-300))


@pytest.mark.parametrize("formulation", ["original", "normalized"])
@pytest.mark.parametrize("guess", [1e308, -1e308])
def test_a_guess_that_overflows_assembly_is_a_singular_block(formulation, guess):
    # midpoint averages of a start this large overflow to inf: the
    # elimination refuses the block, and assembly warns of nothing
    with pytest.raises(SingularBlockError):
        solve_bound_state(ProblemSpec.linear(1, 0), Mesh.uniform(11), guess,
                          formulation=formulation)


@pytest.mark.parametrize("m", [101, 10001])
def test_builders_accept_every_reference_state(m):
    mesh = Mesh.uniform(m)
    specs = [ProblemSpec.coulomb(n, l) for n, l in ((1, 0), (2, 0), (2, 1), (3, 0))]
    specs += [ProblemSpec.linear(n, l) for n, l in ((1, 0), (2, 0), (1, 5))]
    for spec in specs:
        block_builder(mesh, spec)
        BlockBuilder(mesh, spec, "normalized")

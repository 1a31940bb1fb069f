"""The normalised formulation: N = 4 unknowns, corrected E2 sign, and
the normalisation integral y4 with y4(0) = 0, y4(1) = 1.

Checked by the same independent routes as the original system (central
differences of the residuals, a dense LU of the assembled matrix, the
closed-form levels and a finite-difference r-space solve), plus the
observed order of the discretisation error.
"""

import math

import numpy as np
import pytest

from relaxbound import (DifferenceBlock, Mesh, ProblemSpec, RelaxConfig,
                        SolutionGrid, block_builder, compare_wavefunction,
                        default_config, hydrogen_energy, initial_guess,
                        linear_energy, normalized_builder, relax,
                        sample_exact_curve, scan, solve_block_system,
                        solve_bound_state)
from conftest import (assert_blocks_match_fd, dense_solve, linear_level,
                      smooth_grid)

NORMALIZED = "normalized"


# ------------------------------------------------------------- the blocks --


@pytest.mark.parametrize("spec, scale", [
    (ProblemSpec.coulomb(1, 0), 13.6),
    (ProblemSpec.coulomb(3, 2), 13.6),
    (ProblemSpec.linear(1, 0), 6.0),
    (ProblemSpec.linear(1, 4), 15.0),
], ids=["coulomb-1s", "coulomb-3d", "linear-1s", "linear-l4"])
def test_normalized_jacobian_matches_central_differences(spec, scale, rng):
    mesh = Mesh.uniform(9)
    build = normalized_builder(mesh, spec)
    for _ in range(10):
        grid = smooth_grid(mesh, rng, energy_scale=scale, n_vars=4)
        assert_blocks_match_fd(spec, mesh, grid, build=build)


@pytest.mark.parametrize("spec, scale", [
    (ProblemSpec.coulomb(1, 0), 13.6),
    (ProblemSpec.coulomb(2, 1), 13.6),
    (ProblemSpec.linear(2, 0), 5.0),
    (ProblemSpec.linear(1, 3), 12.9),
], ids=["coulomb-1s", "coulomb-2p", "linear-n2", "linear-l3"])
@pytest.mark.parametrize("m", [4, 7, 12])
def test_normalized_structured_solve_matches_dense_lu(spec, scale, m, rng):
    mesh = Mesh.uniform(m)
    build = normalized_builder(mesh, spec)
    for _ in range(3):
        grid = smooth_grid(mesh, rng, energy_scale=scale, n_vars=4)
        blocks = [build(k, grid) for k in range(1, m + 2)]
        fast = solve_block_system(blocks, left=build.left)
        slow = dense_solve(blocks, m, n_left=2)
        peak = np.abs(slow).max()
        assert np.all(np.abs(fast - slow) <= 1e-10 * np.abs(slow) + 5e-12 * peak)


def test_normalized_boundary_rows(mesh101, rng):
    grid = smooth_grid(mesh101, rng, energy_scale=6.0, n_vars=4)
    s = normalized_builder(mesh101, ProblemSpec.linear(1, 0)).assemble(grid)
    y = grid.y
    assert s.shape == (mesh101.m + 1, 4, 9)
    left = np.zeros((2, 9))
    left[0, 4], left[0, 8] = 1.0, y[0, 0]        # y1(0) = 0
    left[1, 7], left[1, 8] = 1.0, y[3, 0]        # y4(0) = 0
    right = np.zeros((2, 9))
    right[0, 4], right[0, 8] = 1.0, y[0, -1]     # y1(1) = 0
    right[1, 7], right[1, 8] = 1.0, y[3, -1] - 1.0   # y4(1) = 1
    assert np.array_equal(s[0, 2:], left)
    assert np.array_equal(s[-1, :2], right)


def test_normalized_rows_differ_from_the_original_only_in_e2_sign_and_y4(mesh101, rng):
    spec = ProblemSpec.coulomb(2, 0)
    grid4 = smooth_grid(mesh101, rng, energy_scale=13.6, n_vars=4)
    s3 = block_builder(mesh101, spec).assemble(SolutionGrid(grid4.y[:3]))
    s4 = normalized_builder(mesh101, spec).assemble(grid4)
    cols = [0, 1, 2, 4, 5, 6, 8]                  # the three shared unknowns
    mid3, mid4 = s3[1:-1], s4[1:-1][:, :3][:, :, cols]
    assert np.array_equal(mid3[:, [0, 2]], mid4[:, [0, 2]])   # E1 and E3
    h, xbar = mesh101.h, 0.5 * (mesh101.x[:-1] + mesh101.x[1:])
    drift = h / (1.0 - xbar)
    assert np.allclose(mid3[:, 1, 1] - mid4[:, 1, 1], 2.0 * drift, rtol=1e-12)
    assert np.allclose(mid3[:, 1, 4] - mid4[:, 1, 4], 2.0 * drift, rtol=1e-12)
    y2b = 0.5 * (grid4.y[1, :-1] + grid4.y[1, 1:])
    assert np.allclose(mid3[:, 1, 6] - mid4[:, 1, 6], 4.0 * drift * y2b,
                       rtol=1e-9, atol=1e-9 * np.abs(mid3[:, 1, 6]).max())


# --------------------------------------------------- a hand-solvable system --


def _pinned_permutation_system(m, rng):
    """N = 4 blocks whose Newton matrix is a permutation of the identity,
    with the left rows pinning unknowns 0 and 3 (not the first two)."""
    e = rng.normal(size=(m + 1, 4))
    blocks = np.zeros((m + 1, 4, 9))
    blocks[0, 2, 4] = blocks[0, 3, 7] = 1.0
    blocks[0, 2:, 8] = e[0, :2]
    for k in range(1, m):
        blocks[k, [0, 1, 2, 3], [1, 2, 4, 7]] = 1.0
        blocks[k, :, 8] = e[k]
    blocks[m, 0, 5] = blocks[m, 1, 6] = 1.0
    blocks[m, :2, 8] = e[m, :2]
    return blocks, e


def test_pinned_permutation_system_solves_exactly(rng):
    m = 6
    blocks, e = _pinned_permutation_system(m, rng)
    dy = solve_block_system(blocks, left=(0, 3))
    assert dy.shape == (4, m)
    assert dy[0, 0] == -e[0, 0] and dy[3, 0] == -e[0, 1]
    for k in range(1, m):
        assert dy[1, k - 1] == -e[k, 0] and dy[2, k - 1] == -e[k, 1]
        assert dy[0, k] == -e[k, 2] and dy[3, k] == -e[k, 3]
    assert dy[1, m - 1] == -e[m, 0] and dy[2, m - 1] == -e[m, 1]
    assert np.array_equal(dy, dense_solve([DifferenceBlock(b) for b in blocks],
                                          m, n_left=2))


@pytest.mark.parametrize("left", [(), (4,), (0, 0), (0, 1, 2, 3), (-1,)])
def test_solver_rejects_bad_left_lists(left, rng):
    blocks, _ = _pinned_permutation_system(5, rng)
    with pytest.raises(ValueError):
        solve_block_system(blocks, left=left)


# ----------------------------------------------------- start and controls --


def test_normalized_initial_guess(mesh101):
    spec = ProblemSpec.linear(2, 0)
    plain = initial_guess(spec, mesh101, 10.4410)
    grid = initial_guess(spec, mesh101, 10.4410, formulation=NORMALIZED)
    assert grid.n_vars == 4
    scale = plain.y[0, 25] / grid.y[0, 25]
    assert np.allclose(grid.y[:2] * scale, plain.y[:2], rtol=1e-13, atol=1e-13)
    assert np.array_equal(grid.y[2], plain.y[2])
    assert grid.y[3, 0] == 0.0 and grid.y[3, -1] == 1.0
    assert np.all(np.diff(grid.y[3]) >= 0.0)
    # the start already satisfies the normalisation row and both ends
    s = normalized_builder(mesh101, spec).assemble(grid)
    assert np.abs(s[1:-1, 3, 8]).max() <= 1e-15
    assert not s[0, 2:, 8].any() and not s[-1, :2, 8].any()


def test_normalized_default_config_scales_the_fourth_unknown():
    cfg = default_config(ProblemSpec.coulomb(2, 0), -13.598270, NORMALIZED)
    assert cfg.scalv == (1.0, 1.0, 13.598270 / 4.0, 1.0)
    assert default_config(ProblemSpec.coulomb(2, 0), -13.598270).scalv == (
        1.0, 1.0, 13.598270 / 4.0)


def test_grid_and_config_take_four_rows():
    grid = SolutionGrid(np.zeros((4, 5)), n_vars=4)
    assert grid.n_vars == 4 and grid.m == 5
    with pytest.raises(ValueError):
        SolutionGrid(np.zeros((3, 5)), n_vars=4)
    with pytest.raises(ValueError):
        SolutionGrid(np.zeros((2, 5)), n_vars=2)
    assert RelaxConfig(scalv=(1, 2, 3, 4)).scalv == (1.0, 2.0, 3.0, 4.0)


def test_relax_rejects_a_scalv_of_the_wrong_length(mesh101):
    spec = ProblemSpec.coulomb(1, 0)
    start = initial_guess(spec, mesh101, -13.6, formulation=NORMALIZED)
    with pytest.raises(ValueError, match="scalv"):
        relax(normalized_builder(mesh101, spec), start, RelaxConfig())


@pytest.mark.parametrize("call", [
    lambda mesh: solve_bound_state(ProblemSpec.coulomb(1, 0), mesh, -13.6,
                                   formulation="normalised"),
    lambda mesh: scan(ProblemSpec.linear(1, 0), mesh, None, 5.0, 7.0, 3,
                      formulation="sfroid"),
], ids=["solve", "scan"])
def test_unknown_formulation_is_refused(call, mesh101):
    with pytest.raises(ValueError, match="formulation"):
        call(mesh101)


def test_original_is_the_default_formulation(mesh101):
    spec = ProblemSpec.linear(2, 0)
    default = solve_bound_state(spec, mesh101, 10.4410)
    named = solve_bound_state(spec, mesh101, 10.4410, formulation="original")
    assert default.grid.y.tobytes() == named.grid.y.tobytes()
    assert default.iterations == named.iterations


# ------------------------------------------------------------ the physics --


_STATES = [(ProblemSpec.coulomb(1, 0), -13.598270),
           (ProblemSpec.coulomb(2, 0), -13.598270),
           (ProblemSpec.coulomb(2, 1), -13.598270)] + [
    (ProblemSpec.linear(1, l), level) for l, level in enumerate(
        (5.9719, 8.5850, 10.8514, 12.9020, 14.8011, 16.5845))]


@pytest.mark.parametrize("spec, guess", _STATES, ids=[
    f"{s.kind.value}-{s.n}{s.l}" for s, _ in _STATES])
def test_normalized_relaxation_finds_the_level(spec, guess, mesh101):
    out = solve_bound_state(spec, mesh101, guess, formulation=NORMALIZED)
    assert out.converged and out.iterations <= 12
    if spec.kind.value == "coulomb":
        exact = hydrogen_energy(spec.n, spec.l, spec)
    else:
        exact = linear_level(spec.l)
    # M = 101 discretisation error is below 0.5%; the start sits within
    # 1% (Coulomb, at the n = 1 scale divided by (n + l)^2) of the level
    assert out.grid.energy == pytest.approx(exact, rel=5e-3)
    # a real state: normalised, not collapsed, with the radial node
    # count of the requested level (sign changes above 1% of the peak;
    # at M = 101 the discrete tail next to x = 1 rings at ~1e-4 of it)
    y = out.grid.y
    assert y[3, -1] == pytest.approx(1.0, abs=1e-12)
    peak = np.abs(y[0]).max()
    assert peak > 0.5
    body = y[0][np.abs(y[0]) > 1e-2 * peak]
    # n - 1 nodes for both potentials: a Coulomb (n, l) here is the level
    # of principal quantum number n + l, which has n - 1 radial nodes
    assert np.count_nonzero(np.diff(np.sign(body))) == spec.n - 1


@pytest.mark.parametrize("spec, guess, exact", [
    (ProblemSpec.coulomb(1, 0), -13.598270, hydrogen_energy(1, 0)),
    (ProblemSpec.linear(1, 0), 5.9719, linear_energy(1, 5.0, 0.75)),
], ids=["coulomb-1s", "linear-1s"])
def test_normalized_levels_converge_at_second_order(spec, guess, exact):
    # with the + sign of the original E2 these levels sit at -8.28 eV and
    # 6.43 GeV at every M, so the observed order would be about zero
    errors = []
    for m in (101, 401, 1601):
        out = solve_bound_state(spec, Mesh.uniform(m), guess,
                                formulation=NORMALIZED)
        assert out.converged
        errors.append(abs(out.grid.energy - exact))
    orders = [math.log(a / b) / math.log(4.0) for a, b in zip(errors, errors[1:])]
    assert all(1.8 <= p <= 2.2 for p in orders), (errors, orders)


@pytest.mark.parametrize("spec, guess", [
    (ProblemSpec.coulomb(2, 0), -13.598270),
    (ProblemSpec.coulomb(2, 1), -13.598270),
    (ProblemSpec.linear(2, 0), 10.4421),
], ids=["coulomb-20", "coulomb-21", "linear-20"])
def test_normalized_excited_states_match_their_closed_forms(spec, guess):
    # each state against its own closed-form curve, up to sign, at O(h^2)
    rms = []
    for m in (101, 401):
        mesh = Mesh.uniform(m)
        out = solve_bound_state(spec, mesh, guess, formulation=NORMALIZED)
        assert out.converged
        rms.append(compare_wavefunction(out.grid, sample_exact_curve(spec, mesh)))
    assert rms[0] < 1e-2
    assert rms[1] < rms[0] / 10.0, rms


def test_normalized_scan_relaxes_every_guess_to_one_level(mesh101):
    report = scan(ProblemSpec.coulomb(1, 0), mesh101, None, -15.0, -12.0, 13,
                  formulation=NORMALIZED)
    relaxed = [e.relaxed_e for e in report.entries]
    assert all(e.converged for e in report.entries)
    assert max(relaxed) - min(relaxed) <= 1e-6 * abs(report.selected_relaxed)
    assert report.selected_relaxed == pytest.approx(hydrogen_energy(1, 0), rel=5e-4)

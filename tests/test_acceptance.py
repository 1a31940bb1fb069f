"""Acceptance gate: one test and one printed verdict line per criterion.

Each test prints its scoreboard line before asserting, so a full run
always shows every verdict; a FAIL line is accompanied by a failing
test.  Criteria 5, 6 and 8 relax real eigenstates, so they run the
normalised formulation: the original one has homogeneous boundary rows
and collapses to y = 0, returning its own guess (see README,
"Reproduction limits").  Two of their reference values were replaced
because they contradict the closed forms and an independent
finite-difference solve: criterion 5's linear (1,0) level (6.146734,
2.9% from the exact 5.972379) and criterion 6's l = 4 level (14.9790,
1.2% from 14.80107); test_scan_levels_match_the_finite_difference_oracle
below keeps that evidence in the suite.
"""

import math

import numpy as np
import pytest

from relaxbound import (Mesh, ProblemSpec, SolutionGrid, airy_ai, airy_zero,
                        block_builder, compare_wavefunction, hydrogen_energy,
                        level_guess, linear_energy, relax, default_config,
                        sample_exact_curve, scan, solve_block_system,
                        solve_bound_state)
from conftest import (N, RHS, dense_solve, fd_jacobian_entry, linear_level,
                      smooth_grid)


def _verdict(capsys, num, name, ok, detail):
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    with capsys.disabled():
        print(line)
    assert ok, line


def test_criterion_1_oracle_exactness(capsys):
    checks = [
        ("hydrogen 1s", hydrogen_energy(1, 0), -13.598289, 1e-5),
        ("hydrogen 2s", hydrogen_energy(2, 0), -3.399572, 1e-5),
        ("hydrogen 2p", hydrogen_energy(2, 1), -1.510921, 1e-5),
        ("linear n=1", linear_energy(1, 5.0, 0.75), 5.972379, 1e-5),
        ("linear n=2", linear_energy(2, 5.0, 0.75), 10.442114, 1e-5),
        ("level coefficient", (5.0 ** 2 / 1.5) ** (1.0 / 3.0), 2.554364772, 1e-8),
    ]
    bad = [f"{name} {got:.8f} vs {want:.8f}"
           for name, got, want, tol in checks
           if abs(got - want) > tol * abs(want)]
    _verdict(capsys, 1, "closed-form energies", not bad,
             "; ".join(bad) or f"{len(checks)} values within tolerance")


def test_criterion_2_airy_quality(capsys):
    residuals = [abs(airy_ai(airy_zero(n))) for n in range(1, 11)]
    z1, z2 = airy_zero(1), airy_zero(2)
    w1 = -5.972379 / 2.554364772
    w2 = -10.442114 / 2.554364772
    ok = (max(residuals) < 1e-10
          and abs(z1 - w1) <= 1e-5 * abs(w1)
          and abs(z2 - w2) <= 1e-5 * abs(w2))
    _verdict(capsys, 2, "Airy zeros", ok,
             f"max |Ai(zero)| = {max(residuals):.2e}, "
             f"zero1 {z1:.6f} vs {w1:.6f}, zero2 {z2:.6f} vs {w2:.6f}")


def test_criterion_3_dual_route_equivalence(capsys):
    rng = np.random.default_rng(20240814)
    worst = -math.inf
    for m in range(4, 13):
        mesh = Mesh.uniform(m)
        for spec, scale in ((ProblemSpec.coulomb(1, 0), 13.6),
                            (ProblemSpec.linear(1, 0), 6.0)):
            build = block_builder(mesh, spec)
            for _ in range(2):
                grid = smooth_grid(mesh, rng, energy_scale=scale)
                blocks = [build(k, grid) for k in range(1, m + 2)]
                fast = solve_block_system(blocks)
                slow = dense_solve(blocks, m)
                # 1e-10 relative per element, with an absolute floor at
                # the LU roundoff scale so exact zeros stay comparable
                peak = np.abs(slow).max()
                excess = (np.abs(fast - slow)
                          - 1e-10 * np.abs(slow) - 5e-12 * peak) / peak
                worst = max(worst, float(excess.max()))
    _verdict(capsys, 3, "structured vs dense solve", worst <= 0.0,
             f"worst tolerance excess {worst:.2e} of peak over M=4..12, "
             f"both potentials")


def test_criterion_4_jacobian_consistency(capsys):
    rng = np.random.default_rng(20240814)
    mesh = Mesh.uniform(9)
    worst = 0.0
    for spec, scale in ((ProblemSpec.coulomb(1, 0), 13.6),
                        (ProblemSpec.linear(1, 0), 6.0)):
        build = block_builder(mesh, spec)
        for _ in range(100):
            grid = smooth_grid(mesh, rng, energy_scale=scale)
            for k in range(2, mesh.m + 1):
                s = np.asarray(build(k, grid).s, dtype=float)
                for row in range(N):
                    for col in range(RHS):
                        fd = fd_jacobian_entry(build, k, mesh, grid, row, col)
                        rel = abs(fd - s[row, col]) / max(1.0, abs(s[row, col]))
                        worst = max(worst, rel)
    _verdict(capsys, 4, "analytic Jacobian vs finite differences",
             worst <= 1e-6,
             f"worst entry error {worst:.2e} over 100 grids per potential")


_EIGENVALUE_ROWS = (
    ("coulomb", 1, 0, -13.598270, -13.621142, 0.005),
    ("coulomb", 2, 0, -3.399750, -3.400535, 0.005),
    ("coulomb", 2, 1, -1.510056, -1.510060, 0.005),
    ("linear", 1, 0, 5.9719, 5.972379, 0.01),
    ("linear", 2, 0, 10.4410, 10.418742, 0.01),
)


def test_criterion_5_relaxed_eigenvalues(capsys, mesh101):
    bad = []
    for kind, n, l, start, ref, tol in _EIGENVALUE_ROWS:
        if kind == "coulomb":
            spec = ProblemSpec.coulomb(n, l)
            guess = start * (n + l) ** 2      # quoted at the level scale
        else:
            spec = ProblemSpec.linear(n, l)
            guess = start
        out = solve_bound_state(spec, mesh101, guess, formulation="normalized")
        dev = abs(out.grid.energy - ref) / abs(ref)
        if not (out.converged and dev <= tol):
            bad.append(f"{kind}({n},{l}) relaxed {out.grid.energy:.6f} "
                       f"vs {ref:.6f}, dev {100 * dev:.4f}% > {100 * tol:.1f}%"
                       if out.converged else f"{kind}({n},{l}) did not converge")
    _verdict(capsys, 5, "relaxed eigenvalue table", not bad,
             "; ".join(bad) or "all rows converged within tolerance")


# (l, level) of the linear potential's n = 1 states scanned by criterion 6
_SCAN_LEVELS = ((0, 5.9719), (1, 8.5850), (2, 10.8514),
                (3, 12.9020), (4, 14.8011), (5, 16.5845))


def test_criterion_6_scan_selection(capsys, mesh101):
    bad = []

    report = scan(ProblemSpec.coulomb(1, 0), mesh101, None, -15.0, -12.0, 61,
                  formulation="normalized")
    if abs(report.selected_relaxed - (-13.598)) > 0.05 + 1e-12:
        bad.append(f"coulomb window selected {report.selected_relaxed:.4f}, "
                   f"wanted -13.598 +/- 0.05")

    report = scan(ProblemSpec.linear(1, 0), mesh101, None, 5.0, 7.0, 81,
                  formulation="normalized")
    if abs(report.selected_relaxed - 5.972) > 0.025 + 1e-12:
        bad.append(f"linear window selected {report.selected_relaxed:.4f}, "
                   f"wanted 5.972 +/- 0.025")

    for l, ref in _SCAN_LEVELS:
        report = scan(ProblemSpec.linear(1, l), mesh101, None,
                      0.96 * ref, 1.04 * ref, 41, formulation="normalized")
        if abs(report.selected_relaxed - ref) > 0.01 * ref:
            bad.append(f"l={l} selected {report.selected_relaxed:.4f}, "
                       f"wanted {ref:.4f} +/- 1%")

    _verdict(capsys, 6, "smoothness scan selection", not bad, "; ".join(bad)
             or "all windows selected the oracle level")


def test_scan_levels_match_the_finite_difference_oracle():
    # criterion 6's references against the independent r-space solve;
    # two box sizes and resolutions show the oracle itself is converged,
    # and l = 0 ties it to the closed form
    assert linear_level(0) == pytest.approx(linear_energy(1, 5.0, 0.75), rel=1e-6)
    for l, ref in _SCAN_LEVELS:
        level = linear_level(l)
        assert linear_level(l, r_max=15.0, points=40000) == pytest.approx(
            level, rel=1e-6)
        assert ref == pytest.approx(level, rel=2e-4), f"l={l}"


def test_criterion_7_fixed_point_and_degeneracy(capsys, mesh101):
    spec = ProblemSpec.coulomb(1, 0)
    y = np.zeros((3, mesh101.m))
    y[2] = level_guess(spec, -13.598270)
    start = SolutionGrid(y)
    out = relax(block_builder(mesh101, spec), start,
                default_config(spec, -13.598270))
    fixed = (out.converged and out.iterations == 1 and out.final_err == 0.0
             and np.array_equal(out.grid.y, start.y))
    degenerate = hydrogen_energy(2, 1) == hydrogen_energy(3, 0)
    _verdict(capsys, 7, "trivial fixed point and level degeneracy",
             fixed and degenerate,
             f"fixed point in {out.iterations} iteration(s) with "
             f"err {out.final_err}, degeneracy exact: {degenerate}")


def test_criterion_8_wavefunction_shape(capsys, mesh101):
    bad = []
    for spec, guess in ((ProblemSpec.coulomb(1, 0), -13.598270),
                        (ProblemSpec.linear(1, 0), 5.9719)):
        out = solve_bound_state(spec, mesh101, guess, formulation="normalized")
        if not out.converged:
            bad.append(f"{spec.kind.value} did not converge")
            continue
        rms = compare_wavefunction(out.grid, sample_exact_curve(spec, mesh101))
        if rms >= 0.15:
            bad.append(f"{spec.kind.value} RMS {rms:.4f} >= 0.15")
    _verdict(capsys, 8, "relaxed wavefunction shape", not bad,
             "; ".join(bad) or "both ground states match the closed forms")

"""Smoothness scoring, guess scans, curve comparison, and table output."""

import math

import numpy as np
import pytest

from relaxbound import (Mesh, ProblemSpec, RelaxConfig, ScanEntry, ScanReport,
                        ScanSelectionError, SolutionGrid, compare_wavefunction,
                        hydrogen_radial, level_guess, reproduce_tables,
                        roughness, sample_exact_curve, scan, scan_diagnostics,
                        write_curve)
from relaxbound.relax import DifferenceBlock
from relaxbound.scanner import (REFERENCE_COULOMB, REFERENCE_LINEAR,
                                REFERENCE_SCAN_LINEAR, _select)


def _grid_from_wave(mesh, wave, energy=-1.0):
    y = np.zeros((3, mesh.m))
    y[0] = wave
    y[2] = energy
    return SolutionGrid(y)


# -------------------------------------------------------------- roughness --


def test_roughness_of_flat_zero_is_zero(mesh101):
    assert roughness(_grid_from_wave(mesh101, np.zeros(mesh101.m))) == 0.0


def test_roughness_is_scale_and_sign_invariant(mesh101):
    wave = np.sin(np.pi * mesh101.x) ** 2
    base = roughness(_grid_from_wave(mesh101, wave))
    # powers of two scale exactly, so invariance is bitwise
    assert roughness(_grid_from_wave(mesh101, 8.0 * wave)) == base
    assert roughness(_grid_from_wave(mesh101, wave / 1024.0)) == base
    assert roughness(_grid_from_wave(mesh101, -wave)) == base


def test_roughness_of_a_smooth_profile_is_curvature_sized(mesh101):
    # for a unit-peak half-wave profile each second difference is at most
    # (pi*h)^2, giving the 4M(pi h)^4 ceiling with room to spare
    wave = np.sin(np.pi * mesh101.x) ** 2
    r = roughness(_grid_from_wave(mesh101, wave))
    m, h = mesh101.m, mesh101.h
    assert 0.0 < r <= 4.0 * m * (np.pi * h) ** 4


def test_roughness_grows_quadratically_with_a_displaced_point(mesh101):
    wave = np.sin(np.pi * mesh101.x) ** 2
    smooth = roughness(_grid_from_wave(mesh101, wave))
    delta = 0.01
    kinked = np.array(wave)
    kinked[30] += delta                 # peak stays 1, so no renormalising
    r = roughness(_grid_from_wave(mesh101, kinked))
    # the spike contributes (1, -2, 1)*delta to three second differences
    assert r - smooth >= 6.0 * delta * delta * 0.9


# ------------------------------------------------------------------ scan --


def test_scan_is_deterministic(mesh101):
    spec = ProblemSpec.linear(1, 0)
    a = scan(spec, mesh101, None, 5.7, 6.2, 6)
    b = scan(spec, mesh101, None, 5.7, 6.2, 6)
    assert a == b


def test_scan_covers_the_window_in_order(mesh101):
    spec = ProblemSpec.coulomb(2, 0)
    report = scan(spec, mesh101, None, -15.0, -12.0, 7)
    guesses = [e.e_guess for e in report.entries]
    assert guesses == [float(g) for g in np.linspace(-15.0, -12.0, 7)]
    assert len(report.entries) == 7
    assert report.selected_guess == report.entries[report.selected].e_guess
    assert report.selected_relaxed == report.entries[report.selected].relaxed_e


def test_scan_relaxed_energy_tracks_the_guess_level(mesh101):
    # Newton annihilates the wavefunction without moving the eigenvalue,
    # so each converged entry reports its own starting level back
    spec = ProblemSpec.coulomb(2, 0)
    report = scan(spec, mesh101, None, -15.0, -12.0, 7)
    for entry in report.entries:
        assert entry.converged
        level = level_guess(spec, entry.e_guess)
        assert entry.relaxed_e == pytest.approx(level, rel=1e-9)


def test_scan_rejects_a_bad_window(mesh101):
    spec = ProblemSpec.linear(1, 0)
    with pytest.raises(ValueError):
        scan(spec, mesh101, None, 6.0, 5.0, 5)
    with pytest.raises(ValueError):
        scan(spec, mesh101, None, 5.0, 6.0, 1)


@pytest.mark.parametrize("steps", [5.0, True, np.float64(5.0)], ids=repr)
def test_scan_rejects_a_step_count_that_is_not_an_integer(mesh101, steps):
    with pytest.raises(ValueError, match="integer count"):
        scan(ProblemSpec.linear(1, 0), mesh101, None, 5.7, 6.2, steps)


def test_scan_takes_a_numpy_integer_step_count(mesh101):
    spec = ProblemSpec.linear(1, 0)
    assert (scan(spec, mesh101, None, 5.7, 6.2, np.int64(3))
            == scan(spec, mesh101, None, 5.7, 6.2, 3))


def test_scan_handles_a_zero_guess_inside_the_window(mesh101):
    spec = ProblemSpec.coulomb(1, 0)
    report = scan(spec, mesh101, None, -1.0, 1.0, 3)
    assert any(e.e_guess == 0.0 for e in report.entries)
    assert len(report.entries) == 3


def test_scan_reports_every_guess_nonconverged_via_selection_error(mesh101):
    spec = ProblemSpec.linear(1, 0)
    strangled = RelaxConfig(itmax=1, conv=1e-300, scalv=(1.0, 1.0, 6.0))
    with pytest.raises(ScanSelectionError) as info:
        scan(spec, mesh101, strangled, 5.7, 6.2, 4)
    assert len(info.value.entries) == 4
    assert not any(e.converged for e in info.value.entries)
    assert "no converged entry" in str(info.value)


def test_scan_absorbs_singular_eliminations(mesh101, monkeypatch):
    # the guess at 6.0 gets an all-zero block k = 17, so its elimination
    # is singular while its neighbours relax on
    import relaxbound.scanner as scanner_mod
    spec = ProblemSpec.linear(1, 0)
    real_builder = scanner_mod.block_builder

    def sometimes_singular(mesh, spec):
        build = real_builder(mesh, spec)

        def blocks(k, grid):
            if k == 17 and abs(grid.energy - 6.0) < 1e-12:
                return DifferenceBlock(np.zeros((3, 7)))
            return build(k, grid)
        return blocks

    monkeypatch.setattr(scanner_mod, "block_builder", sometimes_singular)
    report = scan(spec, mesh101, None, 5.8, 6.2, 3)
    poisoned = report.entries[1]
    assert poisoned.e_guess == 6.0
    assert not poisoned.converged
    assert math.isnan(poisoned.relaxed_e)
    assert poisoned.roughness == math.inf
    assert report.entries[0].converged and report.entries[2].converged


# --------------------------------------------------------------- _select --


def _entry(guess, converged=True, rough=1.0):
    return ScanEntry(e_guess=guess, converged=converged, relaxed_e=guess,
                     roughness=rough)


def test_select_prefers_smallest_roughness():
    entries = [_entry(1.0, rough=3.0), _entry(2.0, rough=0.5),
               _entry(3.0, rough=2.0)]
    assert _select(entries) == 1


def test_select_skips_nonconverged_entries():
    entries = [_entry(1.0, converged=False, rough=0.0), _entry(2.0, rough=5.0)]
    assert _select(entries) == 1


def test_select_breaks_roughness_ties_by_guess_magnitude_then_order():
    entries = [_entry(-4.0, rough=1.0), _entry(2.0, rough=1.0),
               _entry(-2.0, rough=1.0)]
    assert _select(entries) == 1        # |2.0| ties |-2.0|, earlier one wins
    entries = [_entry(-4.0, rough=1.0), _entry(-3.0, rough=1.0)]
    assert _select(entries) == 1


def test_select_raises_when_nothing_converged():
    entries = [_entry(1.0, converged=False), _entry(2.0, converged=False)]
    with pytest.raises(ScanSelectionError) as info:
        _select(entries)
    assert info.value.entries == tuple(entries)


# ------------------------------------------------------------ diagnostics --


def _report_from_roughness(values, converged=None):
    converged = converged or [True] * len(values)
    entries = tuple(ScanEntry(float(i), c, float(i), r)
                    for i, (r, c) in enumerate(zip(values, converged)))
    return ScanReport(entries=entries, selected=0)


def test_diagnostics_flags_a_clear_minimum():
    d = scan_diagnostics(_report_from_roughness([10.0, 1.0, 4.0]))
    assert d["min"] == 1.0
    assert d["median"] == 4.0
    assert d["ratio"] == 0.25
    assert d["distinguishable"]


def test_diagnostics_flags_a_flat_landscape():
    d = scan_diagnostics(_report_from_roughness([3.0, 4.0, 5.0]))
    assert d["ratio"] == 0.75
    assert not d["distinguishable"]


def test_diagnostics_handle_an_all_failed_report():
    d = scan_diagnostics(_report_from_roughness([1.0, 2.0],
                                                converged=[False, False]))
    assert math.isnan(d["min"]) and math.isnan(d["median"])
    assert not d["distinguishable"]


def test_diagnostics_handle_all_zero_roughness():
    d = scan_diagnostics(_report_from_roughness([0.0, 0.0, 0.0]))
    assert d["ratio"] == math.inf
    assert d["distinguishable"]         # 0 <= 0.5 * 0 holds


# ---------------------------------------------------- curve comparison --


def test_compare_wavefunction_identity_and_scaling(mesh101):
    wave = np.sin(np.pi * mesh101.x) ** 2
    grid = _grid_from_wave(mesh101, wave)
    assert compare_wavefunction(grid, wave) == 0.0
    assert compare_wavefunction(grid, 4.0 * wave) == 0.0   # exact rescale
    assert compare_wavefunction(grid, 5.0 * wave) < 1e-15


def test_compare_wavefunction_hand_value():
    mesh = Mesh.uniform(3)
    grid = _grid_from_wave(mesh, np.array([0.0, 2.0, 0.0]))
    rms = compare_wavefunction(grid, np.array([0.0, 1.0, 1.0]))
    assert rms == pytest.approx(math.sqrt(1.0 / 3.0), rel=1e-15)


def test_compare_wavefunction_ignores_a_sign_flip(mesh101):
    wave = np.sin(np.pi * mesh101.x) ** 2
    grid = _grid_from_wave(mesh101, wave)
    assert compare_wavefunction(grid, -wave) == 0.0


def test_compare_wavefunction_rejects_bad_input(mesh101):
    wave = np.sin(np.pi * mesh101.x) ** 2
    grid = _grid_from_wave(mesh101, wave)
    with pytest.raises(ValueError):
        compare_wavefunction(grid, wave[:-1])
    with pytest.raises(ValueError):
        compare_wavefunction(grid, np.zeros(mesh101.m))
    with pytest.raises(ValueError):
        compare_wavefunction(_grid_from_wave(mesh101, np.zeros(mesh101.m)), wave)


# ------------------------------------------------------------ exact curves --


def test_sample_exact_curve_coulomb_values(mesh101):
    curve = sample_exact_curve(ProblemSpec.coulomb(1, 0), mesh101)
    assert curve.shape == (mesh101.m,)
    assert curve[-1] == 0.0
    assert curve[0] == 0.0
    # x = 0.5 maps to one rescaled radius, where the ground form is z*exp(-z)
    assert curve[50] == pytest.approx(math.exp(-1.0), rel=1e-12)
    z = mesh101.x[25] / (1.0 - mesh101.x[25])
    assert curve[25] == pytest.approx(hydrogen_radial(1, 0, z), rel=1e-12)


def test_sample_exact_curve_linear_vanishes_at_both_ends(mesh101):
    curve = sample_exact_curve(ProblemSpec.linear(1, 0), mesh101)
    assert abs(curve[0]) < 1e-10        # Airy zero at the origin
    assert curve[-1] == 0.0             # clamped at the compactified infinity
    assert np.abs(curve).max() > 0.1


def test_sample_exact_curve_rejects_spinning_linear_states(mesh101):
    with pytest.raises(NotImplementedError):
        sample_exact_curve(ProblemSpec.linear(1, 1), mesh101)


# ----------------------------------------------------------- file output --


def test_write_wavefunction_format_and_normalisation(mesh101, tmp_path):
    wave = 3.0 * np.sin(np.pi * mesh101.x) ** 2
    grid = _grid_from_wave(mesh101, wave)
    path = tmp_path / "wave.dat"
    write_curve(mesh101.x, grid.wavefunction, path)

    lines = path.read_text().splitlines()
    assert len(lines) == mesh101.m
    assert lines[0] == "0.000000 0.000000"
    data = np.array([[float(tok) for tok in line.split()] for line in lines])
    assert np.allclose(data[:, 0], mesh101.x, atol=5e-7)
    assert np.abs(data[:, 1]).max() == pytest.approx(1.0, abs=5e-7)
    assert np.allclose(data[:, 1], wave / 3.0, atol=5e-7)


def test_write_wavefunction_zero_grid_writes_zeros(mesh101, tmp_path):
    grid = _grid_from_wave(mesh101, np.zeros(mesh101.m))
    path = tmp_path / "flat.dat"
    write_curve(mesh101.x, grid.wavefunction, path)
    values = [float(line.split()[1]) for line in path.read_text().splitlines()]
    assert values == [0.0] * mesh101.m


def test_write_wavefunction_rejects_mesh_mismatch(mesh101, tmp_path):
    # zip would silently truncate to the shorter curve
    grid = _grid_from_wave(Mesh.uniform(11), np.ones(11))
    with pytest.raises(ValueError, match="101 x values for 11 curve values"):
        write_curve(mesh101.x, grid.wavefunction, tmp_path / "x.dat")
    assert not (tmp_path / "x.dat").exists()


def test_write_wavefunction_propagates_path_errors(mesh101, tmp_path):
    grid = _grid_from_wave(mesh101, np.ones(mesh101.m))
    with pytest.raises(OSError):
        write_curve(mesh101.x, grid.wavefunction, tmp_path / "missing" / "x.dat")


# ----------------------------------------------------------- table report --


def test_reference_tables_are_well_formed():
    assert len(REFERENCE_COULOMB) == 3
    assert all(start < 0.0 and ref < 0.0 for _, _, start, ref in REFERENCE_COULOMB)
    assert len(REFERENCE_LINEAR) == 2
    assert all(start > 0.0 and ref > 0.0 for _, _, start, ref in REFERENCE_LINEAR)
    levels = [ref for _, ref in REFERENCE_SCAN_LINEAR]
    assert levels == sorted(levels)     # angular momentum raises the level


def test_reproduce_tables_smoke():
    report = reproduce_tables(scan_steps=5, mesh_points=21)
    assert "direct solves, Coulomb potential" in report
    assert "direct solves, linear potential" in report
    assert "smoothness scans, linear potential" in report
    assert "M=21" in report
    assert "FAILED" not in report
    assert "-13.621142" in report       # reference column carried through
    # every scan row made it into the report
    assert report.count("\n  ") >= 3 + 2 + 6

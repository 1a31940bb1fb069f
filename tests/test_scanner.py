"""Smoothness scoring, guess scans, curve comparison, and table output."""

import io
import json
import math

import numpy as np
import pytest

from relaxbound import (LINEAR_LAMBDA, LINEAR_MU, MAX_AIRY_ZEROS, Mesh, ProblemSpec,
                        RelaxConfig, ScanEntry, ScanReport, ScanSelectionError,
                        SingularBlockError, SolutionGrid, airy_ai, compare_wavefunction,
                        exact_level, hydrogen_energy, hydrogen_radial, level_guess,
                        linear_energy, map_x_to_z, reproduce_tables, roughness,
                        sample_exact_curve, scan, scan_diagnostics, solve_bound_state,
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
    # an infinite end, or a width past double range, leaves no finite guesses
    for e_min, e_max in [(5.0, math.inf), (-math.inf, 5.0), (-1e308, 1e308)]:
        with pytest.raises(ValueError, match="finite"):
            scan(spec, mesh101, None, e_min, e_max, 3)


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


def test_original_builds_go_through_the_traced_names(mesh101, monkeypatch):
    # bench/spans.py times assembly by wrapping these two module names
    import relaxbound.problems as problems_mod
    import relaxbound.scanner as scanner_mod
    calls = []
    for mod in (problems_mod, scanner_mod):
        def counted(mesh, spec, mod=mod, real=mod.block_builder):
            calls.append(mod)
            return real(mesh, spec)
        monkeypatch.setattr(mod, "block_builder", counted)
    spec = ProblemSpec.linear(1, 0)
    solve_bound_state(spec, mesh101, 5.9719)
    assert calls == [problems_mod]
    scan(spec, mesh101, None, 5.8, 6.2, 3)
    assert calls == [problems_mod, scanner_mod]


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
    # with a zero median no entry separates from the others
    d = scan_diagnostics(_report_from_roughness([0.0, 0.0, 0.0]))
    assert d["ratio"] == math.inf
    assert not d["distinguishable"]
    d = scan_diagnostics(_report_from_roughness([1.0, 0.0, 0.0, 2.0, 0.0]))
    assert d["median"] == 0.0 and d["ratio"] == math.inf
    assert not d["distinguishable"]
    d = scan_diagnostics(_report_from_roughness([0.0, 1.0, 2.0]))
    assert d["ratio"] == 0.0 and d["distinguishable"]


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


def test_sample_exact_curve_linear_matches_the_scaled_airy_argument(mesh101):
    # u(r) = Ai((2*mu/lam^2)^(1/3)*(lam*r - E_n)), clamped to 0 where the argument passes 20
    lam, mu = LINEAR_LAMBDA, LINEAR_MU
    r = map_x_to_z(mesh101.x[:-1])
    for n in range(1, MAX_AIRY_ZEROS + 1):
        arg = (2.0 * mu / lam**2) ** (1.0 / 3.0) * (lam * r - linear_energy(n, lam, mu))
        expected = np.array([0.0 if a > 20.0 else airy_ai(a) for a in arg] + [0.0])
        curve = sample_exact_curve(ProblemSpec.linear(n, 0), mesh101)
        assert np.abs(curve - expected).max() <= 1e-8 * np.abs(curve).max()


def test_sample_exact_curve_rejects_spinning_linear_states(mesh101):
    # a linear state has a curve and a level only at l = 0 within the
    # tabulated Airy zeros, every Coulomb state has both: one rule for each
    linear = [ProblemSpec.linear(n, l) for n in (1, MAX_AIRY_ZEROS, MAX_AIRY_ZEROS + 1)
              for l in (0, 1)]
    coulomb = [ProblemSpec.coulomb(n, l) for n, l in ((1, 0), (1, 1), (3, 2))]
    for spec in linear + coulomb:
        level, curve = exact_level(spec), sample_exact_curve(spec, mesh101)
        assert (level is None) == (curve is None), spec
        if spec in coulomb:
            assert level == hydrogen_energy(spec.n, spec.l)
        elif spec.l == 0 and spec.n <= MAX_AIRY_ZEROS:
            assert level == linear_energy(spec.n)
        else:
            assert level is None
    huge = ProblemSpec.coulomb(1, 0, mu=1e-100, coupling=1e300)     # its level overflows
    for closed_form in (exact_level, lambda spec: sample_exact_curve(spec, mesh101)):
        with pytest.raises(ValueError, match="overflows"):
            closed_form(huge)


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


def test_write_curve_rejects_an_unknown_format(mesh101, tmp_path):
    # anything but "dat" used to be written as JSON
    with pytest.raises(ValueError, match="'csv'"):
        write_curve(mesh101.x, np.ones(mesh101.m), tmp_path / "x.csv", fmt="csv")
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("fields", [
    {}, {"eigenvalue": 5.972379},
    {"converged": True, "iterations": 7, "final_err": None, "eigenvalue": -13.6},
], ids=["none", "oracle", "solve"])
@pytest.mark.parametrize("nan", [False, True], ids=["finite", "nan"])
def test_write_curve_lays_out_a_long_curve_as_json_dump_does(tmp_path, fields, nan):
    rng = np.random.default_rng(1001)
    x = np.linspace(0.0, 1.0, 1001)
    values = rng.uniform(-1.0, 1.0, 1001)
    values[500] = 1.0                   # the peak: normalising keeps every bit
    x[1:5] = values[1:5] = (-0.0, 5e-324, -2.5e-310, 1e-320)
    if nan:                             # the peak is then NaN, and so is every value
        x[7] = values[7] = math.nan
    normalised = values / max(np.abs(values).max(), 1e-300)
    for fmt in ("json", "dat"):
        write_curve(x, values, tmp_path / f"c.{fmt}", fmt, **fields)
    want = io.StringIO()
    json.dump({**fields, "x": x.tolist(), "value": normalised.tolist()}, want, indent=1)
    assert (tmp_path / "c.json").read_text() == want.getvalue()
    assert (tmp_path / "c.dat").read_text() == "".join(
        f"{a:.6f} {v:.6f}\n" for a, v in zip(x.tolist(), normalised.tolist()))


def test_write_curve_refuses_a_curve_that_is_not_one_dimensional(tmp_path):
    # a 2-D curve used to truncate the file, then fail formatting its rows
    path = tmp_path / "kept.dat"
    path.write_text("kept\n")
    for x, values in ((np.zeros((2, 3)), np.ones((2, 3))), (np.zeros(3), np.ones((1, 3))),
                      (np.float64(0.5), np.float64(1.0))):
        for fmt in ("dat", "json"):
            with pytest.raises(ValueError, match="one-dimensional"):
                write_curve(x, values, path, fmt)
    assert path.read_text() == "kept\n"


def test_write_curve_refuses_a_field_named_value(tmp_path):
    # it used to be dropped for the values list, and the key order changed
    path = tmp_path / "kept.json"
    path.write_text("kept\n")
    with pytest.raises(ValueError, match="'value'"):
        write_curve(np.zeros(3), np.ones(3), path, "json", value=7)
    assert path.read_text() == "kept\n"


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


def test_reproduce_tables_marks_a_scan_without_a_converged_guess_failed(monkeypatch):
    import relaxbound.scanner as scanner_mod

    def hopeless(spec, mesh, config, e_min, e_max, steps):
        raise ScanSelectionError(())

    monkeypatch.setattr(scanner_mod, "scan", hopeless)
    report = reproduce_tables(scan_steps=5, mesh_points=21)
    rows = [line.split() for line in report.splitlines() if "FAILED" in line]
    assert rows == [[str(l), "FAILED", f"{ref:.4f}"] for l, ref in REFERENCE_SCAN_LINEAR]


def test_reproduce_tables_marks_a_singular_direct_solve_failed(monkeypatch):
    import relaxbound.scanner as scanner_mod

    solve = scanner_mod.solve_bound_state
    n, l, start, ref = REFERENCE_COULOMB[2]

    def singular_for_one(spec, mesh, guess):
        if spec == ProblemSpec.coulomb(n, l):
            raise SingularBlockError(4)
        return solve(spec, mesh, guess)

    plain = reproduce_tables(scan_steps=5, mesh_points=21).splitlines()
    monkeypatch.setattr(scanner_mod, "solve_bound_state", singular_for_one)
    marked = reproduce_tables(scan_steps=5, mesh_points=21).splitlines()
    assert len(marked) == len(plain)
    changed = [i for i, (a, b) in enumerate(zip(plain, marked)) if a != b]
    assert len(changed) == 1
    row = marked[changed[0]]
    assert len(row) == len(plain[changed[0]])         # the columns stay aligned
    assert row.split() == [str(n), str(l), f"{start:.6f}", "FAILED",
                           f"{exact_level(ProblemSpec.coulomb(n, l)):.6f}", f"{ref:.6f}"]

"""Command-line interface, exercised in process through cli.main."""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import relaxbound.cli as cli
from relaxbound import (RelaxOutcome, ScanEntry, ScanReport, SingularBlockError,
                        SolutionGrid)


# ------------------------------------------------------------------ solve --


def test_solve_prints_summary_and_exits_zero(capsys):
    rc = cli.main(["solve", "--potential", "linear", "--n", "1",
                   "--guess", "5.9719"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "potential=linear n=1 l=0 guess=5.9719" in out
    assert "converged=True" in out
    assert "eigenvalue=5.971900" in out
    assert "rms_vs_exact=" in out


def test_solve_writes_dat_curve(tmp_path, capsys):
    path = tmp_path / "wave.dat"
    rc = cli.main(["solve", "--guess", "-13.598270", "--out", str(path)])
    capsys.readouterr()
    assert rc == 0
    rows = [line.split() for line in path.read_text().splitlines()]
    assert len(rows) == 101
    assert float(rows[0][0]) == 0.0
    assert all(len(r) == 2 for r in rows)


def test_solve_writes_json_payload(tmp_path, capsys):
    path = tmp_path / "wave.json"
    rc = cli.main(["solve", "--potential", "linear", "--guess", "10.4410",
                   "--n", "2", "--mesh-points", "51",
                   "--out", str(path), "--format", "json"])
    capsys.readouterr()
    assert rc == 0
    payload = json.loads(path.read_text())
    assert payload["converged"] is True
    assert payload["eigenvalue"] == pytest.approx(10.4410, rel=1e-9)
    assert len(payload["x"]) == 51 and len(payload["value"]) == 51
    assert payload["x"][0] == 0.0 and payload["x"][-1] == 1.0
    assert max(abs(v) for v in payload["value"]) <= 1.0 + 1e-12
    assert isinstance(payload["iterations"], int)


def test_solve_without_a_closed_form_prints_no_comparison(capsys):
    # linear l = 1 has none; at lambda = 1e-200 the linear energy scale
    # underflows, and Coulomb (242, 241)'s u(z) overflows at z = 19
    for argv in (["--potential", "linear", "--l", "1", "--guess", "8.6"],
                 ["--potential", "linear", "--lambda", "1e-200", "--guess", "1"],
                 ["--n", "242", "--l", "241", "--guess", "-13.6"]):
        rc = cli.main(["solve", *argv, "--mesh-points", "21"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "converged=True" in out
        assert "rms_vs_exact" not in out


def test_solve_past_the_tabulated_airy_zeros_still_writes_its_curve(tmp_path, capsys):
    # linear n = 11 has no tabulated Airy zero: no comparison, but no error either
    path = tmp_path / "wave.dat"
    rc = cli.main(["solve", "--potential", "linear", "--n", "11",
                   "--guess", "20", "--mesh-points", "21", "--out", str(path)])
    captured = capsys.readouterr()
    assert rc in (0, 1)
    assert "error:" not in captured.err
    assert "rms_vs_exact" not in captured.out
    assert len(path.read_text().splitlines()) == 21


def test_solve_nonconvergence_exits_one(monkeypatch, capsys):
    def stuck(spec, mesh, e_guess, config=None):
        y = np.zeros((3, mesh.m))
        y[2] = e_guess
        return RelaxOutcome(grid=SolutionGrid(y), iterations=100,
                            final_err=1.0, converged=False)

    monkeypatch.setattr(cli, "solve_bound_state", stuck)
    rc = cli.main(["solve", "--guess", "-13.6"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "converged=False" in out


def test_solve_propagates_domain_errors_as_exit_two(capsys):
    # coulomb with n=l has no radial half-wave to start from
    rc = cli.main(["solve", "--l", "1", "--guess", "-13.6"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:")


def test_solve_rejects_nonfinite_parameters_as_exit_two(capsys):
    rc = cli.main(["solve", "--potential", "linear", "--mu", "nan",
                   "--guess", "5.97", "--mesh-points", "51"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and "finite" in err


def test_solve_reports_a_singular_elimination_as_a_failed_solve(monkeypatch, capsys):
    def singular(spec, mesh, e_guess, config=None):
        raise SingularBlockError(11)

    monkeypatch.setattr(cli, "solve_bound_state", singular)
    rc = cli.main(["solve", "--guess", "-13", "--mesh-points", "11"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "solve failed: singular block at k=11" in err


def test_solve_refuses_a_spec_whose_blocks_overflow_as_exit_two(capsys):
    # finite input: a0 = 1/(mu*e^2) = 1.4e302 overflows the Coulomb blocks
    rc = cli.main(["solve", "--potential", "coulomb", "--mu", "1e-300",
                   "--guess", "-13", "--mesh-points", "11"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and "overflow" in captured.err


def test_solve_rejects_an_underflowing_bohr_radius_as_exit_two(capsys):
    rc = cli.main(["solve", "--potential", "coulomb", "--mu", "1e-300",
                   "--lambda", "1e-300", "--guess", "-13", "--mesh-points", "11"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and "Traceback" not in err


def test_float_options_take_negative_numbers_in_exponent_form(capsys):
    # argparse reads -1.36e1 as an option unless told it is a number
    argv = ["solve", "--potential", "coulomb", "--mesh-points", "11", "--guess"]
    assert cli.main(argv + ["-13.6"]) == 0
    plain = capsys.readouterr().out
    assert cli.main(argv + ["-1.36e1"]) == 0
    assert capsys.readouterr().out == plain
    rc = cli.main(["scan", "--emin", "-1.41e1", "--emax", "-1.31e1", "--steps", "3",
                   "--mesh-points", "11"])
    assert rc == 0
    assert "scanned 3 guesses" in capsys.readouterr().out
    for option in ("--lambda", "--mu"):     # reach the spec, which refuses them
        assert cli.main(["oracle", option, "-1e0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "expected one argument" not in err


# ------------------------------------------------------------------- scan --


def test_scan_prints_selection_and_writes_dat(tmp_path, capsys):
    path = tmp_path / "scan.dat"
    rc = cli.main(["scan", "--potential", "linear", "--emin", "5.7",
                   "--emax", "6.2", "--steps", "4", "--out", str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "scanned 4 guesses, 4 converged" in out
    assert "selected_guess=" in out
    assert "distinguishable=" in out

    lines = path.read_text().splitlines()
    assert lines[0] == "# e_guess converged relaxed_e roughness"
    assert len(lines) == 5
    first = lines[1].split()
    assert float(first[0]) == pytest.approx(5.7)
    assert first[1] == "1"


def test_scan_writes_json_payload(tmp_path, capsys):
    path = tmp_path / "scan.json"
    rc = cli.main(["scan", "--emin", "-15", "--emax", "-12", "--steps", "3",
                   "--n", "2", "--out", str(path), "--format", "json"])
    capsys.readouterr()
    assert rc == 0
    payload = json.loads(path.read_text())
    assert len(payload["entries"]) == 3
    assert {"e_guess", "converged", "relaxed_e", "roughness"} <= set(
        payload["entries"][0])
    assert payload["selected"] in range(3)
    assert payload["selected_guess"] == payload["entries"][payload["selected"]]["e_guess"]


def test_scan_bad_window_exits_two(capsys):
    rc = cli.main(["scan", "--emin", "6.0", "--emax", "5.0", "--steps", "4"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "error:" in err


def test_scan_with_nothing_converged_exits_one(monkeypatch, capsys):
    from relaxbound import ScanSelectionError

    def hopeless(spec, mesh, config, e_min, e_max, steps):
        raise ScanSelectionError(())

    monkeypatch.setattr(cli, "scan", hopeless)
    rc = cli.main(["scan", "--emin", "5.0", "--emax", "6.0", "--steps", "3"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "scan failed" in err


def test_scan_json_writes_nonfinite_entries_as_null(monkeypatch, tmp_path, capsys):
    # a singular guess enters a scan as relaxed_e = nan, roughness = inf
    def one_singular(spec, mesh, config, e_min, e_max, steps):
        return ScanReport(entries=(ScanEntry(5.0, False, math.nan, math.inf),
                                   ScanEntry(6.0, True, 5.97, 1e-4)), selected=1)

    monkeypatch.setattr(cli, "scan", one_singular)
    path = tmp_path / "scan.json"
    rc = cli.main(["scan", "--emin", "5", "--emax", "6", "--steps", "2",
                   "--format", "json", "--out", str(path)])
    capsys.readouterr()
    assert rc == 0
    text = path.read_text()
    payload = json.loads(text)
    assert text == json.dumps(payload, indent=1)
    assert list(payload) == ["entries", "selected", "selected_guess", "selected_relaxed"]
    assert payload["entries"] == [
        {"e_guess": 5.0, "converged": False, "relaxed_e": None, "roughness": None},
        {"e_guess": 6.0, "converged": True, "relaxed_e": 5.97, "roughness": 1e-4}]


# ----------------------------------------------------------------- oracle --


def test_oracle_prints_coulomb_energy(capsys):
    rc = cli.main(["oracle", "--n", "2", "--l", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "exact eigenvalue: -1.510921" in out


def test_oracle_linear_energy_and_curve(tmp_path, capsys):
    path = tmp_path / "exact.dat"
    rc = cli.main(["oracle", "--potential", "linear", "--n", "1",
                   "--out", str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "exact eigenvalue: 5.972379" in out
    rows = [line.split() for line in path.read_text().splitlines()]
    assert len(rows) == 101
    assert max(abs(float(r[1])) for r in rows) == pytest.approx(1.0, abs=5e-7)


def test_oracle_json_curve(tmp_path, capsys):
    path = tmp_path / "exact.json"
    rc = cli.main(["oracle", "--n", "1", "--mesh-points", "41",
                   "--out", str(path), "--format", "json"])
    capsys.readouterr()
    assert rc == 0
    payload = json.loads(path.read_text())
    assert payload["eigenvalue"] == pytest.approx(-13.598289, rel=1e-6)
    assert len(payload["x"]) == 41


def test_curve_writers_keep_their_layout(tmp_path, capsys):
    # solve and oracle share one curve writer; their files keep the
    # field order, indentation and number format they always had
    paths = {name: tmp_path / name for name in ("s.json", "o.json", "s.dat", "o.dat")}
    for cmd, name in (("solve", "s"), ("oracle", "o")):
        for fmt in ("json", "dat"):
            extra = ["--guess", "-13.6"] if cmd == "solve" else []
            cli.main([cmd, *extra, "--mesh-points", "11", "--format", fmt,
                      "--out", str(paths[f"{name}.{fmt}"])])
    capsys.readouterr()
    for name, fields in (("s", ["converged", "iterations", "final_err", "eigenvalue"]),
                         ("o", ["eigenvalue"])):
        text = paths[f"{name}.json"].read_text()
        payload = json.loads(text)
        assert list(payload) == fields + ["x", "value"]
        assert text == json.dumps(payload, indent=1)
        assert paths[f"{name}.dat"].read_text() == "".join(
            f"{x:.6f} {v:.6f}\n" for x, v in zip(payload["x"], payload["value"]))


def test_oracle_writes_every_coulomb_curve(tmp_path, capsys):
    path = tmp_path / "r30.dat"
    rc = cli.main(["oracle", "--n", "3", "--l", "0", "--out", str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "exact eigenvalue: -1.510921" in out
    assert len(path.read_text().splitlines()) == 101


def test_oracle_refuses_a_level_that_overflows_as_exit_two(capsys):
    # a0 = 1e-200 is a valid Bohr radius, but the level -e^2/(2*a0) is not finite
    rc = cli.main(["oracle", "--mu", "1e-100", "--lambda", "1e300"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and "overflows" in captured.err


def test_oracle_spinning_linear_state_exits_two(capsys):
    # l = 1, and n = 11 past the tabulated Airy zeros: no closed form
    for state in (["--l", "1"], ["--n", "11"]):
        rc = cli.main(["oracle", "--potential", "linear", *state])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error: no closed form")


def test_oracle_refuses_a_bad_mesh_before_any_output(tmp_path, capsys):
    path = tmp_path / "curve.dat"
    rc = cli.main(["oracle", "--mesh-points", "2", "--out", str(path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert not path.exists()


# ----------------------------------------------------------------- tables --


def test_tables_prints_and_writes_the_report(tmp_path, capsys):
    path = tmp_path / "tables.txt"
    rc = cli.main(["tables", "--steps", "5", "--mesh-points", "21",
                   "--out", str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "direct solves, Coulomb potential" in out
    assert path.read_text().strip() == out.strip()


@pytest.mark.parametrize("option", [["--potential", "linear"], ["--n", "3"],
                                    ["--l", "1"], ["--lambda", "99"],
                                    ["--mu", "2"], ["--format", "json"]],
                         ids=lambda option: option[0])
def test_tables_refuses_the_options_it_would_ignore(option, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["tables", "--steps", "5", "--mesh-points", "21", *option])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: relaxbound tables ")
    assert (f"relaxbound tables: error: unrecognized arguments: {' '.join(option)}"
            in err)


# ------------------------------------------------------------ bad usage --


def test_unknown_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as info:
        cli.main(["frobnicate"])
    assert info.value.code == 2


def test_bad_choice_is_a_usage_error():
    with pytest.raises(SystemExit) as info:
        cli.main(["solve", "--potential", "cubic", "--guess", "1.0"])
    assert info.value.code == 2


def test_one_parser_serves_every_call_in_a_process(monkeypatch, capsys):
    # a good solve, an unknown option, then the good solve again: the parser
    # is built at the first call only, and neither call sees another's state
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    good = ["solve", "--potential", "linear", "--guess", "5.9719", "--mesh-points", "21"]
    cli._build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    first = cli.main(good), capsys.readouterr()
    parsers = len(built)
    assert parsers > 0
    with pytest.raises(SystemExit) as info:
        cli.main([*good, "--bogus"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: relaxbound solve ")
    assert "relaxbound solve: error: unrecognized arguments: --bogus" in captured.err
    again = cli.main(good), capsys.readouterr()
    assert again == first
    assert first[0] == 0 and "eigenvalue=5.971900" in first[1].out
    assert first[1].err == ""
    assert len(built) == parsers


# one run of each subcommand, to which the tests below add an --out
EVERY_COMMAND = [
    ["solve", "--guess", "-13.598270", "--mesh-points", "21"],
    ["scan", "--emin", "-14", "--emax", "-13", "--steps", "3", "--mesh-points", "21"],
    ["oracle", "--potential", "linear", "--mesh-points", "21"],
    ["tables", "--steps", "5", "--mesh-points", "21"],
]


@pytest.mark.parametrize("argv", EVERY_COMMAND, ids=lambda argv: argv[0])
def test_out_in_a_missing_directory_exits_two_before_any_output(argv, tmp_path, capsys):
    missing = tmp_path / "missing"
    rc = cli.main([*argv, "--out", str(missing / "x.dat")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err
    assert not missing.exists()


@pytest.mark.parametrize("argv", EVERY_COMMAND, ids=lambda argv: argv[0])
def test_an_out_path_that_cannot_be_written_exits_two(argv, tmp_path, capsys):
    # the directory exists, so the failure comes only when the file is written,
    # and that comes before anything is printed
    rc = cli.main([*argv, "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_a_singular_elimination_in_tables_exits_one(monkeypatch, capsys):
    def singular(scan_steps, mesh_points):
        raise SingularBlockError(7)

    monkeypatch.setattr(cli, "reproduce_tables", singular)
    rc = cli.main(["tables", "--steps", "5", "--mesh-points", "21"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == "tables failed: singular block at k=7\n"


def test_python_dash_m_runs_the_cli():
    # __main__.py itself, in a fresh interpreter that imports from src
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "relaxbound", "oracle", "--potential", "linear"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "exact eigenvalue: 5.972379" in proc.stdout


def test_module_entry_point_matches_main(capsys):
    # python -m relaxbound routes through run() -> sys.exit(main())
    with pytest.raises(SystemExit) as info:
        cli_argv = ["oracle", "--n", "1"]
        import sys
        old = sys.argv
        sys.argv = ["relaxbound"] + cli_argv
        try:
            cli.run()
        finally:
            sys.argv = old
    assert info.value.code == 0
    assert "exact eigenvalue" in capsys.readouterr().out

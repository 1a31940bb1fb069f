"""Command-line interface, exercised in process through cli.main."""

import json

import numpy as np
import pytest

import relaxbound.cli as cli
from relaxbound import RelaxOutcome, SolutionGrid


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


def test_solve_reports_a_singular_elimination_as_a_failed_solve(capsys):
    # finite input: a0 = 1/(mu*e^2) overflows the Coulomb blocks, so the
    # elimination finds no usable pivot in the last interior block
    with np.errstate(over="ignore", invalid="ignore"):
        rc = cli.main(["solve", "--potential", "coulomb", "--mu", "1e-300",
                       "--guess", "-13", "--mesh-points", "11"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "solve failed: singular block at k=11" in err


def test_solve_rejects_an_underflowing_bohr_radius_as_exit_two(capsys):
    rc = cli.main(["solve", "--potential", "coulomb", "--mu", "1e-300",
                   "--lambda", "1e-300", "--guess", "-13", "--mesh-points", "11"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and "Traceback" not in err


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


def test_oracle_spinning_linear_state_exits_two(capsys):
    rc = cli.main(["oracle", "--potential", "linear", "--l", "1"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "no closed form" in err


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

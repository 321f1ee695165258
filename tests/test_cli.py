import json

import pytest

from su11pct import cli, specfun, systems
from su11pct.errors import ParameterError


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_spectrum_csv_rows(capsys):
    code, out = run_cli(
        capsys,
        "spectrum", "--family", "morse", "--A", "2.5", "--B", "1", "--alpha", "0",
        "--format", "csv",
    )
    assert code == 0
    assert out.splitlines() == ["0,-6.25", "1,-2.25", "2,-0.25"]


def test_spectrum_json_default(capsys):
    code, out = run_cli(
        capsys, "spectrum", "--family", "morse", "--A", "2.5", "--B", "1"
    )
    assert code == 0
    payload = json.loads(out)
    assert [lev["energy"] for lev in payload["levels"]] == [-6.25, -2.25, -0.25]


def test_spectrum_ho(capsys):
    code, out = run_cli(
        capsys, "spectrum", "--family", "ho", "--omega", "1", "--L", "0", "--nmax", "2"
    )
    payload = json.loads(out)
    assert [lev["energy"] for lev in payload["levels"]] == [1.5, 3.5, 5.5]


def test_map_chain(capsys):
    code, out = run_cli(
        capsys,
        "map", "--from", "ho", "--to", "coulomb",
        "--omega", "1", "--L", "2.5", "--alpha", "0", "--n", "1",
    )
    assert code == 0
    payload = json.loads(out)
    # L = 2.5 -> A0 = 1.5 -> Lcal = 1.0, Z1 = B (A1 + 1/2) = 0.25 * 3
    assert payload["target"]["Lcal"] == pytest.approx(1.0, abs=1e-14)
    assert payload["target"]["Z0"] == pytest.approx(0.5, abs=1e-14)
    assert payload["member"]["coupling"] == pytest.approx(0.75, abs=1e-14)
    assert payload["member"]["energy"] == pytest.approx(-0.0625, abs=1e-14)


def test_hierarchy_rows(capsys):
    code, out = run_cli(
        capsys,
        "hierarchy", "--from", "ho", "--to", "morse",
        "--omega", "1", "--L", "0", "--nmax", "2", "--format", "csv",
    )
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()]
    assert [float(r[1]) for r in rows] == [0.25, 1.25, 2.25]
    assert all(float(r[2]) == -0.0625 for r in rows)


def test_state_tabulation(capsys):
    code, out = run_cli(
        capsys,
        "state", "--family", "ho", "--omega", "1", "--L", "0", "--n", "0",
        "--grid-min", "0.5", "--grid-max", "1.5", "--grid-count", "3",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["samples"]) == 3
    mid = payload["samples"][1]
    assert mid["point"] == 1.0
    assert mid["value"] == pytest.approx(0.89324384173800233 * 2.718281828459045**-0.25)


def test_verify_single_family(capsys):
    code, out = run_cli(
        capsys,
        "verify", "--family", "ho", "--omega", "1", "--L", "0",
        "--alpha", "0", "--nmax", "3",
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["overall_pass"] is True
    assert set(payload["sections"]) == {
        "eigen_residuals", "orthonormality", "ladder", "commutators",
        "casimir", "mapping", "oracle",
    }


def test_verify_exit_code_on_failure(capsys):
    # an absurd tolerance forces verification failure (exit 1)
    code, out = run_cli(
        capsys,
        "verify", "--family", "ho", "--omega", "1", "--L", "0",
        "--nmax", "2", "--tol", "1e-18",
    )
    assert code == 1
    assert json.loads(out)["overall_pass"] is False


def test_verify_all_battery(capsys):
    code, out = run_cli(capsys, "verify", "--all", "--nmax", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["overall_pass"] is True
    assert len(payload["reports"]) == 6
    families = [r["spec"]["family"] for r in payload["reports"]]
    assert families.count("ho") == families.count("morse") == 2


def test_oracle_compare(capsys):
    code, out = run_cli(
        capsys,
        "oracle-compare", "--family", "morse", "--A", "2.5", "--B", "1",
        "--nmax", "2", "--grid-min", "-6", "--grid-max", "25",
        "--grid-count", "4000",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["overall_pass"] is True
    assert [lev["closed_form"] for lev in payload["levels"]] == [-6.25, -2.25, -0.25]


def test_oracle_compare_deformed_ho_default_grid(capsys):
    # the battery's deformed oscillator on its default (log) grid
    code, out = run_cli(
        capsys, "oracle-compare", "--family", "ho", "--omega", "2", "--L", "0",
        "--alpha", "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["overall_pass"] is True
    assert payload["grid"]["spacing"] == "geomspace"


def test_reports_are_byte_stable(capsys):
    args = (
        "verify", "--family", "morse", "--A", "0.25", "--B", "0.25", "--nmax", "2"
    )
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["spectrum", "--family", "morse", "--A", "1", "--B", "1", "--bogus"])
    assert err.value.code == 2


def test_missing_family_parameters_exit_2(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["spectrum", "--family", "ho", "--L", "0"])
    assert err.value.code == 2


def test_invalid_physical_parameters_exit_2(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["spectrum", "--family", "morse", "--A", "-2", "--B", "1"])
    assert err.value.code == 2


def test_deformed_map_error_exit_2(capsys):
    code = cli.main(
        ["map", "--from", "ho", "--to", "morse", "--omega", "1", "--L", "0",
         "--alpha", "0.6"]
    )
    assert code == 2


def exit_code(*argv):
    """main's exit code, also when argparse exits through SystemExit."""
    try:
        return cli.main(list(argv))
    except SystemExit as exc:
        return exc.code


HO = ("--family", "ho", "--omega", "1", "--L", "0")


@pytest.mark.parametrize("command", ["state", "oracle-compare"])
@pytest.mark.parametrize("bound", [("--grid-min", "0.5"), ("--grid-max", "4")])
def test_lone_grid_bound_exits_2(capsys, command, bound):
    assert exit_code(command, *HO, *bound) == 2
    assert "--grid-min and --grid-max" in capsys.readouterr().err


@pytest.mark.parametrize("nmax", ["-1", "0"])
def test_verify_nmax_below_one_exits_2(capsys, nmax):
    assert exit_code("verify", *HO, "--nmax", nmax) == 2
    assert exit_code("verify", "--all", "--nmax", nmax) == 2
    with pytest.raises(ParameterError):
        cli.build_report(systems.OscillatorSpec(1.0, 0.0), n_max=int(nmax))


@pytest.mark.parametrize(
    "family",
    [
        HO,
        ("--family", "morse", "--A", "2.5", "--B", "1"),
        ("--family", "coulomb", "--Z", "1", "--Lcal", "0"),
    ],
)
def test_spectrum_negative_nmax_exits_2(capsys, family):
    assert exit_code("spectrum", *family, "--nmax", "-1") == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("count", ["-3", "0"])
def test_state_nonpositive_grid_count_exits_2(capsys, count):
    morse = ("--family", "morse", "--A", "1", "--B", "1")
    assert exit_code("state", *morse, "--grid-count", count) == 2
    assert capsys.readouterr().out == ""


MAPPED = ("--from", "ho", "--to", "coulomb", "--omega", "2", "--L", "0", "--alpha", "0.1")


@pytest.mark.parametrize(
    "command",
    [
        ("spectrum", "--family", "coulomb", "--Z", "1", "--Lcal", "0"),
        ("spectrum", *HO),
        ("hierarchy", *MAPPED),
    ],
)
def test_nmax_capped_at_max_degree(capsys, command):
    # the Coulomb well holds infinitely many levels and a hierarchy has no
    # last member, so --nmax is capped where the bound states stop
    assert exit_code(*command, "--nmax", str(specfun.MAX_DEGREE + 1)) == 2
    assert capsys.readouterr().out == ""
    assert exit_code(*command, "--nmax", str(specfun.MAX_DEGREE)) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows["levels" if command[0] == "spectrum" else "members"]) == specfun.MAX_DEGREE + 1

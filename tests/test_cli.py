import json
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from su11pct import cli, operators, oracle, pct, specfun, systems
from su11pct.errors import ConvergenceError, ParameterError


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


def test_spectrum_lists_the_member_0_levels_without_a_warning(capsys):
    # the deformation keeps 2 of the 3 constant-mass Morse levels; the command
    # prints the levels the spec's well holds and warns about no spectrum it
    # was not asked for
    argv = ("spectrum", "--family", "morse", "--A", "2.5", "--B", "1", "--alpha", "1")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(list(argv)) == 0
    out, err = capsys.readouterr()
    assert err == ""
    levels = [(lev["n"], lev["energy"]) for lev in json.loads(out)["levels"]]
    spec = systems.MorseSpec(A0=2.5, B=1.0, alpha=1.0)
    assert levels == systems.member_levels(spec, 0, 16) and len(levels) == 2


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


def test_state_tabulation_in_the_tail_of_the_top_degree(capsys):
    # psi_200 underflows to 0 on [60, 120] while its polynomial overflows
    code, out = run_cli(
        capsys,
        "state", "--family", "ho", "--omega", "1", "--L", "0", "--n", "200",
        "--grid-min", "60", "--grid-max", "120", "--grid-count", "7",
    )
    assert code == 0

    def reject(token):
        raise AssertionError(f"{token} in the JSON output")

    payload = json.loads(out, parse_constant=reject)
    assert len(payload["samples"]) == 7


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


@pytest.mark.parametrize(
    "args",
    [
        ("ho", "--omega", "1", "--L", "0.5", "--alpha", "1e-8"),
        ("morse", "--A", "1", "--B", "0.75", "--alpha", "1e-8"),
        ("ho", "--omega", "1", "--L", "0.5", "--alpha", "1e-10"),
        ("morse", "--A", "1", "--B", "0.75", "--alpha", "1e-10"),
        ("coulomb", "--Z", "1", "--Lcal", "0.5", "--alpha", "1e-10"),
    ],
    ids=lambda a: f"{a[0]}-{a[-1]}",
)
def test_verify_passes_at_tiny_alpha(capsys, args):
    code, out = run_cli(capsys, "verify", "--family", *args, "--nmax", "2")
    assert code == 0, out


def test_ladder_sections_pass_at_L_minus_half():
    # at L = -1/2 the eigen and Casimir sections still fail (-psi'' cancels
    # L(L+1)/r^2 psi near r = 0) and so does the oracle, but the report is
    # built and its ladder and commutator sections pass
    sections = cli.build_report(systems.OscillatorSpec(1.0, -0.5)).to_dict()["sections"]
    for name in ("ladder", "commutators"):
        assert all(e["pass"] for e in sections[name]), name


def _expected_layout(spec):
    """(section, name, tolerance) of each entry of a default battery report, in order.

    Written out from the stated tolerances, not from cli's tables: the second of
    each pair is the deformed-mass one.
    """
    kind = int(spec.alpha > 0)
    rows = [("eigen_residuals", f"eigen_residual[n={n}]", 1e-9) for n in range(6)]
    rows.append(("orthonormality", "gram_deviation[6x6]", 1e-7))
    rows += [("ladder", f"ladder_{d}[n={n}]", 1e-7) for n in range(6) for d in ("plus", "minus")]
    rows.append(("ladder", "lowest_weight_annihilation", 1e-8))
    commutator = (1e-10, 1e-7)[kind]
    for n in range(6):
        spacings = ("mu_spacing_up", "mu_spacing_down") if n else ("mu_spacing_up",)
        for name in (*spacings, "plus_minus_bracket"):
            rows.append(("commutators", f"{name}[n={n}]", commutator))
    for n in range(3):
        for pair in ("zero_plus", "zero_minus", "plus_minus"):
            rows.append(("commutators", f"comm_{pair}_pointwise[n={n}]", commutator))
    rows += [("casimir", f"casimir_action[n={n}]", 1e-7) for n in range(4)]
    target = {"ho": "morse", "morse": "coulomb"}.get(spec.family)
    if target is not None:
        mapped = (1e-12, 1e-9)[kind]
        rows += [("mapping", f"mapped_state[{target},n={n}]", mapped) for n in range(4)]
        for which in ("zero", "plus", "minus"):
            rows.append(("mapping", f"generator_conjugation[{which}]", 1e-9))
    levels = 1 if spec.family == "morse" else 2  # each battery Morse well holds one level
    rows += [("oracle", f"oracle_level[{i}]", (5e-4, 2e-3)[kind]) for i in range(levels)]
    return rows


def test_battery_reports_list_their_entries_and_tolerances():
    for spec in cli.VERIFY_ALL_SPECS:
        report = cli.build_report(spec)
        layout = [(s, e["name"], e["tolerance"]) for s, es in report.sections.items() for e in es]
        assert layout == _expected_layout(spec), spec


def test_an_error_in_the_mapping_rows_propagates(monkeypatch):
    # only a missing image family skips the mapping section; any ParameterError
    # in it used to drop the section and leave the report passing
    def broken(mapping, state):
        raise ParameterError("broken map")

    monkeypatch.setattr(pct, "map_state", broken)
    with pytest.raises(ParameterError, match="^broken map$"):
        cli.build_report(systems.OscillatorSpec(1.0, 0.0), n_max=2)


def test_an_oscillator_without_a_morse_image_reports_no_mapping():
    spec = systems.OscillatorSpec(1.0, 0.0, 1.0)  # omega^2 <= 3 alpha^2
    with pytest.raises(ParameterError):
        pct.map_parameters(spec, 0, "morse")
    report = cli.build_report(spec, n_max=2)
    assert "mapping" not in report.sections
    assert report.overall_pass


@pytest.mark.parametrize(
    "spec, mapped",
    [
        (cli.VERIFY_ALL_SPECS[1], True),
        (cli.VERIFY_ALL_SPECS[4], False),
        (systems.OscillatorSpec(1.0, 0.0, 1.0), False),  # no Morse image
    ],
    ids=("ho-deformed", "coulomb", "ho-no-morse-image"),
)
def test_each_section_runs_once_in_run_position_order(monkeypatch, spec, mapped):
    calls = []

    def recorded(name, run):
        return lambda gs, held: calls.append(name) or run(gs, held)

    table = [(name, position, recorded(name, run)) for name, position, run in cli._SECTIONS]
    monkeypatch.setattr(cli, "_SECTIONS", tuple(table))
    report = cli.build_report(spec, n_max=2)
    positions = [position for _, position, _ in table]
    assert sorted(positions) == list(range(len(table)))
    assert calls == [name for name, _, _ in sorted(table, key=lambda row: row[1])]
    assert calls[-1] == "oracle"  # the benchmark reads the report's last solve
    # printed in table order; a section that yields no rows is left out
    assert list(report.sections) == [name for name, _, _ in table if mapped or name != "mapping"]


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_commands():
    """Each su11pct line of README's "Command line" block and the output lines shown under it."""
    text = README.read_text().split("## Command line", 1)[1]
    block = text.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.splitlines():
        if line.startswith("su11pct "):
            commands.append((shlex.split(line.partition("#")[0])[1:], []))
        elif line.startswith("# ") and commands:
            commands[-1][1].append(line[2:])
    return commands


def test_readme_command_lines_run(capsys):
    commands = _readme_commands()
    assert len(commands) == 7
    for argv, shown in commands:
        code, out = run_cli(capsys, *argv)
        assert code == 0, argv
        if shown:
            assert out.splitlines() == shown, argv
    assert commands[0][1] == ["0,-6.25", "1,-2.25", "2,-0.25"]


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
    assert list(payload["grid"]) == ["q_min", "q_max", "count"]


@pytest.mark.parametrize("args", [("--L", "0", "--alpha", "0"), ("--L", "1", "--alpha", "0.3")])
def test_oracle_compare_ten_levels(capsys, args):
    # the default grid's node count grows with the top level's energy
    code, out = run_cli(
        capsys, "oracle-compare", "--family", "ho", "--omega", "1", *args, "--nmax", "9"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["overall_pass"] is True
    assert len(payload["levels"]) == 10


def test_a_well_that_loses_a_level_reports_without_a_warning(capsys):
    # the deformation keeps one of the fixed well's two constant-mass levels;
    # the oracle rows count the levels on the matrix's seeds, so su11pct does
    # not warn on its own behalf about the level the caller never asked for
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = cli.build_report(systems.MorseSpec(1.5, 0.5, 0.4))
        code, out = run_cli(
            capsys, "oracle-compare", "--family", "morse", "--A", "1.5", "--B", "0.5",
            "--alpha", "0.4", "--nmax", "3",
        )
    assert [e["name"] for e in report.sections["oracle"]] == ["oracle_level[0]"]
    assert report.overall_pass
    assert code == 0
    assert [lev["n"] for lev in json.loads(out)["levels"]] == [0]


def test_oracle_rows_solve_only_the_levels_they_report(monkeypatch):
    solve = oracle.lowest_eigenvalues
    ks = []

    def recorded(dh, k, tol):
        ks.append(k)
        return solve(dh, k, tol)

    monkeypatch.setattr(oracle, "lowest_eigenvalues", recorded)
    for spec in cli.VERIFY_ALL_SPECS:
        ks.clear()
        report = cli.build_report(spec)
        # the fixed Morse wells hold one level, every other member-0 well two or more
        assert ks == [len(report.sections["oracle"])], spec


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--family", "ho", "--omega", "1", "--L", "-0.495", "--alpha", "0"),
        ("oracle-compare", "--family", "ho", "--omega", "1", "--L", "-0.49", "--nmax", "1"),
        ("oracle-compare", "--family", "ho", "--omega", "1", "--L", "-0.48", "--nmax", "1"),
        ("oracle-compare", "--family", "ho", "--omega", "1", "--L", "-0.45", "--nmax", "1"),
        ("oracle-compare", "--family", "coulomb", "--Z", "1", "--Lcal", "-0.49", "--nmax", "1"),
        ("oracle-compare", "--family", "coulomb", "--Z", "1", "--Lcal", "-0.48", "--nmax", "1"),
        ("oracle-compare", "--family", "coulomb", "--Z", "1", "--Lcal", "-0.47", "--nmax", "1"),
    ],
    ids=lambda argv: f"{argv[0]}-{argv[2]}{argv[6]}",
)
def test_a_power_near_one_half_reports_its_oracle_levels(capsys, argv):
    # the wall term of the default grid's start underflows as L or Lcal nears
    # -1/2; floored, the grid gives a finite matrix and the report is printed.
    # The finite-difference levels may miss there, and then the report fails.
    with pytest.warns(UserWarning, match="half-integer"):
        code = cli.main(list(argv))
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert err == ""
    assert code == (0 if payload["overall_pass"] else 1)
    levels = payload["sections"]["oracle"] if argv[0] == "verify" else payload["levels"]
    assert len(levels) == 2


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


def test_build_report_nmax_must_be_an_integer():
    # a non-integer n_max ended in a bare TypeError
    with pytest.raises(ParameterError, match="^n_max must be at least 1$"):
        cli.build_report(systems.OscillatorSpec(1.0, 0.0), n_max=2.5)


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_tolerance_not_finite_and_positive_exits_2(capsys, tol):
    # NaN failed every check and printed NaN tokens, inf passed every check
    for command in ("verify", "oracle-compare"):
        assert exit_code(command, *HO, "--nmax", "1", "--tol", tol) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tolerance must be finite and positive" in captured.err
    with pytest.raises(ParameterError):
        cli.build_report(systems.OscillatorSpec(1.0, 0.0), n_max=1, tol=float(tol))


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
    assert exit_code("oracle-compare", *family, "--nmax", "-1") == 2
    assert "--nmax must be in [0, 9]" in capsys.readouterr().err


def test_oracle_compare_nmax_capped_at_9(capsys):
    assert exit_code("oracle-compare", *HO, "--nmax", "10") == 2
    assert capsys.readouterr().out == ""


def test_an_overflowing_grid_exits_2(capsys):
    argv = ("--nmax", "1", "--grid-min", "1e-200", "--grid-max", "10")
    assert exit_code("oracle-compare", *HO, *argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        "error: the matrix overflows on the grid [1e-200, 10] of 4000 nodes"
    ]


def test_a_grid_above_the_node_limit_exits_2(capsys):
    # numpy refused the 800 GB grid only when discretize allocated it
    assert exit_code("oracle-compare", *HO, "--grid-count", "100000000000") == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        f"error: a grid of 100000000000 nodes is above the limit of {oracle.MAX_COUNT}"
    ]


@pytest.mark.parametrize("omega, end", [("1e-14", "1e+06"), ("1e14", "1e-06")])
def test_a_state_peaking_past_its_probe_exits_2(capsys, omega, end):
    # psi_0 peaks at sqrt(2/omega): 1.4e7 and 1.4e-7, outside [1e-6, 1e6]; the
    # reports ran on a clipped support (1e-14) or a 172 GiB oracle grid (1e14)
    assert exit_code("verify", "--family", "ho", "--omega", omega, "--L", "0") == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        f"error: state 0 peaks at {end}, an end of the probe interval "
        "[1e-06, 1e+06], so its support would be clipped"
    ]


@pytest.mark.parametrize(
    "argv, peak, interval",
    [
        (("ho", "--omega", "1e-11", "--L", "0"), "446684", "[1e-06, 1e+06]"),
        (("morse", "--A", "0.03", "--B", "0.25"), "2.14333", "[-80, 300]"),
    ],
)
def test_a_state_reaching_the_far_probe_end_exits_2(capsys, argv, peak, interval):
    # the peaks lie inside the probes, but |psi_0| is still 0.30 of its peak at
    # r = 1e6 for the oscillator; both reports ran on supports cut at the far end
    assert exit_code("verify", "--family", *argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        f"error: state 0 peaks at {peak}, keeps 1e-05 of it at the far end of the probe "
        f"interval {interval}, so its support would be clipped"
    ]


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


NUMPY_ONLY = """
import sys

class TestOnly:
    # numpy is the one runtime dependency; these serve only tests and benches
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in {"scipy", "mpmath", "hypothesis", "pytest"}:
            raise ImportError(f"{name} is not a runtime dependency")

sys.meta_path.insert(0, TestOnly())
import su11pct
from su11pct import cli

argv = ["verify", "--family", "coulomb", "--Z", "1", "--Lcal", "0", "--alpha", "0.1"]
sys.exit(cli.main(argv))
"""


def test_verify_runs_with_numpy_as_the_only_dependency():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    done = subprocess.run(
        [sys.executable, "-c", NUMPY_ONLY], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["command"] == "verify"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", ["--alpha", "--L", "--omega"])
def test_non_finite_parameters_exit_2(capsys, flag, value):
    args = {"--omega": "1", "--L": "0", "--alpha": "0", flag: value}  # "=" passes "-inf"
    assert exit_code("spectrum", "--family", "ho", *(f"{k}={v}" for k, v in args.items())) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"error: {flag[2:]} must be finite, got {float(value)}" in err


def test_state_on_the_default_residual_grid(capsys):
    code, out = run_cli(capsys, "state", *HO, "--n", "2", "--grid-count", "9")
    assert code == 0
    grid = operators.default_residual_grid(systems.OscillatorSpec(1.0, 0.0), 2, count=9)
    assert [s["point"] for s in json.loads(out)["samples"]] == grid.tolist()


def test_verify_needs_a_family_or_all(capsys):
    assert exit_code("verify") == 2
    assert "verify needs --family or --all" in capsys.readouterr().err


def test_a_convergence_error_exits_1(capsys, monkeypatch):
    def fail(*args):
        raise ConvergenceError("no convergence")

    monkeypatch.setattr(oracle, "lowest_eigenvalues", fail)
    assert exit_code("oracle-compare", *HO) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["error: no convergence"]


def run_module(*argv):
    """`python -m su11pct.cli` with these arguments, in a fresh interpreter."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return subprocess.run(
        [sys.executable, "-m", "su11pct.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_module_entry_point_prints_csv():
    done = run_module("spectrum", "--family", "morse", "--A", "2.5", "--B", "1", "--format", "csv")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["0,-6.25", "1,-2.25", "2,-0.25"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", ["--grid-min", "--grid-max"])
@pytest.mark.parametrize("command", ["state", "oracle-compare"])
def test_a_non_finite_grid_bound_is_one_error_line(command, flag, value):
    # inf leaked numpy's RuntimeWarning and dumped the grid array; nan read
    # as "q_min must be below q_max"
    bounds = {"--grid-min": "-6", "--grid-max": "25", flag: value}  # "=" passes "-inf"
    done = run_module(
        command, "--family", "morse", "--A", "2.5", "--B", "1",
        *(f"{k}={v}" for k, v in bounds.items()),
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.splitlines() == [f"error: {flag} must be finite, got {float(value)}"]


def test_a_grid_outside_the_domain_names_one_point(capsys):
    # the whole 21-point grid was dumped into stderr over two lines
    code = exit_code("state", *HO, "--grid-min", "-1", "--grid-max", "3")
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["error: point -1.0 (entry 0 of 21) outside open domain (0.0, inf)"]


def test_a_half_line_grid_from_zero_is_one_error_line(capsys):
    code = exit_code("oracle-compare", *HO, "--grid-min", "0", "--grid-max", "10")
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["error: point 0.0 (entry 0 of 2) outside open domain (0.0, inf)"]

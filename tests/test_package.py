import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import su11pct
from su11pct import cli

SUBCOMMANDS = ("spectrum", "state", "map", "hierarchy", "verify", "oracle-compare")


def test_all_lists_exactly_the_public_names():
    public = {
        name
        for name, value in vars(su11pct).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(su11pct.__all__) == sorted(public)
    for name in su11pct.__all__:
        assert getattr(su11pct, name) is not None


# imports su11pct.cli and builds one report; prints the top-level modules
# this added to the interpreter's own start-up set that are not stdlib
_RUNTIME_IMPORTS = """
import sys
start = set(sys.modules)
from su11pct import cli
assert cli.build_report(cli.VERIFY_ALL_SPECS[1]).overall_pass
added = {name.partition(".")[0] for name in set(sys.modules) - start}
print(" ".join(sorted(added - set(sys.stdlib_module_names))))
"""


def test_numpy_is_the_only_runtime_dependency():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    done = subprocess.run(
        [sys.executable, "-c", _RUNTIME_IMPORTS], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["numpy", "su11pct"]


@pytest.mark.parametrize("argv", [["--help"]] + [[command, "--help"] for command in SUBCOMMANDS])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 0
    assert "usage:" in capsys.readouterr().out

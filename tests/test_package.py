import types

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


@pytest.mark.parametrize("argv", [["--help"]] + [[command, "--help"] for command in SUBCOMMANDS])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 0
    assert "usage:" in capsys.readouterr().out

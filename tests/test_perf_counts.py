"""A timing-free guard on the work of the six ``su11pct verify --all`` reports.

Counts polynomial derivative stacks (``specfun.jacobi_derivs``, one per
state evaluation that the remembered stacks of ``systems`` do not serve)
and Sturm sweeps of the finite-difference oracle (``oracle._count_below``).
A change that defeats the memo or grows the oracle fails here, on any
host, not only in the benchmark.
"""

from su11pct import cli, oracle, specfun

# 726 stacks before states shared their remembered stacks, 284 after
MAX_POLYNOMIAL_STACKS = 300
MAX_STURM_SWEEPS = 115


def test_verify_all_reports_stay_within_their_work_counts(monkeypatch):
    counts = {"stacks": 0, "sweeps": 0}
    stacks, sweep = specfun.jacobi_derivs, oracle._count_below

    def counted_stacks(*args):
        counts["stacks"] += 1
        return stacks(*args)

    def counted_sweep(*args):
        counts["sweeps"] += 1
        return sweep(*args)

    monkeypatch.setattr(specfun, "jacobi_derivs", counted_stacks)
    monkeypatch.setattr(oracle, "_count_below", counted_sweep)
    for family, params in cli.VERIFY_ALL_SPECS:
        assert cli.build_report(cli._FAMILY_ARGS[family][0](**params)).overall_pass
    assert counts["stacks"] <= MAX_POLYNOMIAL_STACKS
    assert counts["sweeps"] <= MAX_STURM_SWEEPS

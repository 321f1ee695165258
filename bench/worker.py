"""The measured process: runs one workload against su11pct and reports raw data.

Started by run.py as a fresh interpreter.  It imports su11pct (and numpy)
only: reference libraries such as scipy never enter this process, so its
peak memory is the program's own.  Protocol on stdin/stdout:

1. import, build the inputs and warm every kind of operation once, then
   print ``ready``;
2. with ``--mode setup`` exit there; with ``--mode run`` wait for a line
   on stdin, run the timed loop printing one JSON line per operation
   (its output, for the checks), then one JSON line of results.

Usage (normally through run.py):
    python3 bench/worker.py --workload battery --seed 1 --seconds 15 \
        --trace 0 --mode run
"""

import argparse
import json
import os
import resource
import sys
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import su11pct  # noqa: E402
from su11pct import algebra, cli, measures, operators, oracle, pct, systems  # noqa: E402

import workloads  # noqa: E402
from workloads import make_spec  # noqa: E402

MIN_OPS = 100  # enough samples for ten above the 90th percentile
SAMPLES = 96  # tabulate outputs returned to the checker, per array

if os.path.dirname(os.path.abspath(su11pct.__file__)) != os.path.join(SRC, "su11pct"):
    sys.exit(f"su11pct imported from {su11pct.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# operations, and the outputs handed to the checker
# ---------------------------------------------------------------------------


class OracleCapture:
    """Keeps the matrix and levels of every oracle solve made by build_report.

    The Sturm levels are checked against an independent eigensolver in the
    parent, on the very matrix the program solved; the report only holds
    their differences from the closed form.
    """

    def __init__(self):
        self.calls = []
        self._inner = None

    def __call__(self, dh, k, tol=1e-10):
        levels = self._inner(dh, k, tol)
        self.calls.append((dh, k, tol, levels))
        return levels

    def install(self):
        # wraps whatever is installed, so it stacks on the layer tracer
        self._inner = oracle.lowest_eigenvalues
        oracle.lowest_eigenvalues = self

    def uninstall(self):
        oracle.lowest_eigenvalues = self._inner


def op_identities(inp):
    """Every analytic check of build_report for one spec, without the oracle.

    n runs over 0..5 as in `su11pct verify`, plus the draw's n_top for the
    eigen-residual.
    """
    spec = make_spec(inp["family"], inp["params"])
    n_top = inp["n_top"]
    rows = []
    for n in (*range(6), n_top):
        grid = operators.default_residual_grid(spec, n)
        rows.append(("eigen_residuals", n, operators.eigen_residual(spec, n, grid)))

    meas = measures.family_measure(spec.family)
    states = [systems.bound_state(spec, n) for n in range(6)]
    gram = measures.gram_matrix(meas, states)

    gs = algebra.generator_set(spec)
    for n in range(6):
        for direction in (algebra.PLUS, algebra.MINUS):
            numeric = algebra.matrix_element_numeric(gs, n, direction)
            closed = algebra.ladder_coefficient(gs, n, direction)
            rows.append(("ladder", n, numeric - closed))
    rows.append(("annihilation", 0, algebra.annihilation_residual(gs)))

    comm = "commutators_deformed" if spec.deformed else "commutators_constant"
    for rec in algebra.commutator_residuals(gs, 5, pointwise_n_max=2):
        rows.append((comm, rec.n, rec.value))

    uni = algebra.unirrep(gs)
    for n in range(4):
        state = states[n]
        pts = algebra.pointwise_grid(spec, n)
        v = state(pts)
        resid = np.max(np.abs(algebra.casimir_apply(gs, state, pts) - uni.casimir * v))
        rows.append(("casimir", n, float(resid / np.max(np.abs(v)))))

    if spec.family in ("ho", "morse"):
        rows.extend(_mapping_rows(spec, gs, states))
    return {
        "rows": [[s, n, float(v)] for s, n, v in rows],
        "gram": gram.tolist(),
        "energies": [st.energy for st in states],
    }


def _mapping_rows(spec, gs, states):
    target_family = "morse" if spec.family == "ho" else "coulomb"
    try:
        target, _ = pct.map_parameters(spec, 0, target_family)
    except su11pct.ParameterError:
        return []  # no image family (omega^2 <= 3 alpha^2)
    kind = "mapping_deformed" if spec.deformed else "mapping_constant"
    mapping = pct.mapping(spec.family, target_family)
    rows = []
    for n in range(4):
        mapped = pct.map_state(mapping, states[n])
        pts = algebra.pointwise_grid(target, n)
        direct = systems.bound_state(target, n)
        rows.append((kind, n, float(np.max(np.abs(mapped(pts) - direct(pts))))))
    state = states[2]
    mapped = pct.map_state(mapping, state)
    tgt_gs = algebra.generator_set(target)
    pts = algebra.pointwise_grid(target, 2)
    src_pts = mapping.coord_map(pts)
    inv_pref = mapping.inv_prefactor_derivs(pts)[0]
    for which in (algebra.ZERO, algebra.PLUS, algebra.MINUS):
        lhs = algebra.apply_generator_fn(tgt_gs, which, mapped, 2)(pts)
        rhs = inv_pref * algebra.apply_generator(gs, which, state)(src_pts)
        rows.append(("conjugation", 2, float(np.max(np.abs(lhs - rhs)))))
    return rows


def tabulation_points(inp):
    lo, hi = inp["window"]
    if inp["family"] == "morse":
        return np.linspace(lo, hi, inp["count"])
    return np.geomspace(lo, hi, inp["count"])


def op_tabulate(inp, points):
    state = systems.bound_state(make_spec(inp["family"], inp["params"]), inp["n"])
    return state.derivs(points, inp["order"])


def tabulate_output(points, out):
    """A strided sample of the tabulated arrays, for the checker."""
    idx = np.linspace(0, len(points) - 1, SAMPLES).round().astype(int)
    return {
        "points": points[idx].tolist(),
        "values": [np.asarray(o)[idx].tolist() for o in out],
        "finite": bool(all(np.all(np.isfinite(o)) for o in out)),
    }


# ---------------------------------------------------------------------------
# passes and the timed loop
# ---------------------------------------------------------------------------


class Workload:
    """Inputs of one workload and the timed call of one operation."""

    def __init__(self, name, seed):
        self.name = name
        self.seed = seed
        self.make_pass = workloads.PASSES[name]
        self.capture = OracleCapture() if name == "battery" else None

    def inputs(self, k, seed=None):
        """Pass k's inputs, with everything not timed (grids) prepared."""
        ops = self.make_pass(self.seed if seed is None else seed, k)
        if self.name == "tabulate":
            for op in ops:
                op["points"] = tabulation_points(op)
        return ops

    def timed(self, inp, first_pass):
        """Run one operation; returns (seconds, output for the checker)."""
        if self.name == "battery":
            self.capture.install()
            try:
                t0 = time.perf_counter()
                spec = make_spec(inp["family"], inp["params"])
                report = cli.build_report(spec)
                dt = time.perf_counter() - t0
            finally:
                self.capture.uninstall()
            dh, k, tol, levels = self.capture.calls.pop()
            out = {"report": report.to_dict(), "levels": levels, "k": k, "tol": tol}
            if first_pass:
                out["diag"] = dh.diag.tolist()
                out["offdiag"] = dh.offdiag.tolist()
            return dt, out
        if self.name == "identities":
            t0 = time.perf_counter()
            out = op_identities(inp)
            return time.perf_counter() - t0, out
        points = inp["points"]
        t0 = time.perf_counter()
        arrays = op_tabulate(inp, points)
        dt = time.perf_counter() - t0
        return dt, tabulate_output(points, arrays)

    def warm_up(self):
        """One operation of every kind, from inputs the timed loop never uses.

        The warm-up inputs do not depend on the seed, so set-up time is the
        same work in every run.
        """
        ops = self.inputs(0, seed="warm-up")
        seen = set()
        for inp in ops:
            kind = (inp["family"], inp["params"]["alpha"] > 0, inp.get("order"))
            if self.name == "battery" or kind not in seen:
                seen.add(kind)
                self.timed(inp, False)


def emit(out):
    sys.stdout.write(json.dumps(out) + "\n")


def run_loop(wl, seconds, first_ops, tracer=None):
    """Whole passes until `seconds` have passed (and, untraced, MIN_OPS ops).

    Each operation's output is emitted at once, so the process does not
    accumulate outputs.  With a tracer, each pass is run twice, traced and
    untraced in alternating order, so the tracing overhead is measured on
    identical inputs; outputs and latencies then come from the traced copy.
    """
    min_ops = 1 if tracer else MIN_OPS
    latencies, pass_times = [], []
    t_start = time.perf_counter()
    k, ops = 0, first_ops
    while True:
        if tracer is None:
            for inp in ops:
                dt, out = wl.timed(inp, k == 0)
                latencies.append(dt)
                emit(out)
        else:
            order = (False, True) if k % 2 == 0 else (True, False)
            times = {}
            for traced in order:
                if traced:
                    tracer.install()
                t0 = time.perf_counter()
                try:
                    results = [wl.timed(inp, k == 0) for inp in ops]
                finally:
                    if traced:
                        tracer.uninstall()
                times[traced] = time.perf_counter() - t0
                if traced:
                    for dt, out in results:
                        latencies.append(dt)
                        emit(out)
            pass_times.append((times[False], times[True]))
        k += 1
        if time.perf_counter() - t_start >= seconds and len(latencies) >= min_ops:
            return latencies, pass_times
        ops = wl.inputs(k)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(workloads.PASSES), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--spans", help="where a traced run writes its spans (.npz)")
    args = ap.parse_args()
    # mapped Coulomb specs warn on non-half-integer Lcal; see README
    warnings.simplefilter("ignore", UserWarning)

    wl = Workload(args.workload, args.seed)
    first_ops = wl.inputs(0)
    wl.warm_up()
    print("ready", flush=True)
    if args.mode == "setup":
        return 0
    sys.stdin.readline()

    tracer = None
    if args.trace:
        import trace_layers

        tracer = trace_layers.Tracer()
    latencies, pass_times = run_loop(wl, args.seconds, first_ops, tracer)
    result = {
        "latencies": latencies,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(len(latencies), pass_times)
        result["pass_times"] = pass_times
        if args.spans:
            tracer.save(args.spans)
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of su11pct: one workload, one seed, one JSON result line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload battery --seed 1 --seconds 50 --trace 0

Workloads (see README.md): ``battery`` (the `su11pct verify --all` reports),
``identities`` (every analytic check on random specs) and ``tabulate``
(large bound-state tabulations).

With ``--trace 0`` the workload runs untraced in a fresh worker process and
the end-to-end metrics are printed; set-up time is the median over fresh
interpreters launched before and after the measured one.  With
``--trace 1`` a worker runs the same workload with the layer tracer
(trace_layers.py) and the per-layer metrics are printed.  Either way every output is checked (checks.py) in this
process, which is not the measured one, and the last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with status 1 and prints no result.
"""

import argparse
import copy
import json
import os
import statistics
import subprocess
import sys
import threading
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, HERE]

import workloads  # noqa: E402
OUT = os.path.join(HERE, "out")
SETUP_SIDE_S = 1.5
QUAD_EVERY = 3
WORKER_DEADLINE_S = 170.0


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(1)


def worker_env():
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    # one thread in the measured process, whatever numpy links against
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def start_worker(args, mode, deadline):
    """Launch a fresh worker; returns (process, seconds until it was ready)."""
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--mode", mode,
    ]
    if args.trace:
        cmd += ["--spans", os.path.join(OUT, f"{args.workload}-seed{args.seed}-spans.npz")]
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=worker_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        text=True,
    )
    guard = threading.Timer(deadline, proc.kill)
    guard.start()
    proc.guard = guard
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        guard.cancel()
        fail(f"worker did not get ready (exit status {proc.returncode})")
    return proc, ready


def finish(proc, stdin_text=""):
    """Send stdin_text, collect stdout and reap the worker."""
    try:
        out, _ = proc.communicate(stdin_text)
    finally:
        proc.guard.cancel()
    if proc.returncode != 0:
        fail(f"worker exited with status {proc.returncode}")
    return out


def sample_setups(args, deadline):
    """Set-up-only workers until SETUP_SIDE_S of set-up time is sampled."""
    times = []
    while sum(times) < SETUP_SIDE_S:
        proc, ready = start_worker(args, "setup", deadline - time.perf_counter())
        finish(proc)
        times.append(ready)
    return times


def run_worker(args):
    """Set-up samples around one measured run; returns (set-up times, result).

    Host speed drifts within a run, and a set-up lasts from 0.3 s to 2 s.
    Sampling set-ups on both sides of the measured run, and each side for
    at least SETUP_SIDE_S, lets their median span the run instead of one
    moment.  The measured worker's own set-up is a sample too.
    """
    deadline = time.perf_counter() + WORKER_DEADLINE_S
    setups = [] if args.trace else sample_setups(args, deadline)
    proc, ready = start_worker(args, "run", deadline - time.perf_counter())
    setups.append(ready)
    lines = finish(proc, "go\n").strip().splitlines()
    if not args.trace:
        setups += sample_setups(args, deadline)
    result = json.loads(lines[-1])
    result["outputs"] = [json.loads(line) for line in lines[:-1]]
    return setups, result


# ---------------------------------------------------------------------------
# checking
# ---------------------------------------------------------------------------


def check_outputs(checks, workload, seed, outputs):
    """(failed, problems) over all outputs, in pass order."""
    make_pass = workloads.PASSES[workload]
    failed, problems = 0, []
    battery = checks.BatteryChecker()
    k, ops = 0, make_pass(seed, 0)
    for i, out in enumerate(outputs):
        j = i % len(ops)
        if i and j == 0:
            k += 1
            ops = make_pass(seed, k)
        if j == 0:
            # quad norms are slow (scalar calls): one every QUAD_EVERY
            # passes, on the first eligible operation from a rotating start
            quad_pending = k % QUAD_EVERY == 0
            quad_from = (k // QUAD_EVERY) % len(ops)
        inp = ops[j]
        want_quad = quad_pending and j >= quad_from
        if workload == "battery":
            bad, probs = battery.check(j, inp, out)
        elif workload == "identities":
            bad, probs = checks.check_identities(inp, out)
            if want_quad and not inp.get("fault"):
                probs += checks.quad_norm(inp, k % 6, out["gram"])
                quad_pending = False
        else:
            bad, probs = checks.check_tabulate(inp, out)
            if want_quad and inp["n"] <= 40:
                probs += checks.reference_norm(inp)
                quad_pending = False
        if bad:
            failed += 1
            if not inp.get("fault"):
                problems.append(f"op {i}: verification failed on a draw expected to pass")
        problems += [f"op {i}: {p}" for p in probs]
    return failed, problems


def self_test(checks, workload, seed, outputs):
    """Corrupt one output by 1e-6 and require the checks to reject it."""
    inp = workloads.PASSES[workload](seed, 0)[0]
    out = copy.deepcopy(outputs[0])
    if workload == "battery":
        out["levels"][0] += 1e-6  # an oracle level
        bad, probs = checks.BatteryChecker().check(0, inp, out)
    elif workload == "identities":
        out["gram"][1][2] += 1e-6  # a Gram entry, kept symmetric
        out["gram"][2][1] += 1e-6
        bad, probs = checks.check_identities(inp, out)
    else:
        values = out["values"][0]
        peak = max(range(len(values)), key=lambda i: abs(values[i]))
        values[peak] += 1e-6 * abs(values[peak])  # a state value
        bad, probs = checks.check_tabulate(inp, out)
    return bad or bool(probs)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(setups, result):
    lat = result["latencies"]
    deciles = statistics.quantiles(lat, n=10)
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "ops_per_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
        "op_ms_p50": {"value": 1e3 * statistics.median(lat), "unit": "ms"},
        "op_ms_p90": {"value": 1e3 * deciles[8], "unit": "ms"},
        "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024.0, "unit": "MB"},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.PASSES), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "su11pct", "__init__.py")):
        fail(f"no su11pct package under {SRC}")
    if args.trace:
        os.makedirs(OUT, exist_ok=True)

    setups, result = run_worker(args)
    # imported only now: scipy and su11pct stay out of this process while
    # the worker is measured
    warnings.simplefilter("ignore", UserWarning)
    import checks

    outputs = result["outputs"]
    failed, problems = check_outputs(checks, args.workload, args.seed, outputs)
    if not self_test(checks, args.workload, args.seed, outputs):
        problems.append("self-test: a corrupted output passed the checks")
    for p in problems[:20]:
        print(f"check: {p}", file=sys.stderr)

    metrics = result["layers"] if args.trace else end_to_end(setups, result)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": len(outputs),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one benchmark workload and print its metrics.

From the root of a checkout:

    python3 perfbench/run.py --workload detect_n16 --seed 1 --seconds 25 --trace 0

Every workload process is a fresh interpreter with the package's ``src/`` on
its path and BLAS pinned to one thread, so one process uses one core.  Each
call is a closed loop from one client with the package's defaults.

``--trace 0`` sets the workload up ``SETUP_RUNS`` times, once in the
process that times the calls and the others half before and half after it,
so that the set-up samples span the run; it reports the end-to-end metrics.
``--trace 1`` reports the per-layer metrics of a traced run instead (see
``spans.py``).  Both print an environment line, a readable table, and as
the last line one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  Every output is checked; a wrong output, a failing
workload process or a missing package exits non-zero without that line.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Names only: this process does not import the package (workloads.py does).
WORKLOADS = ("detect_n16", "sweep_qubit", "create_qubit", "oracle_sampled")
SETUP_RUNS = 5
DEADLINE_S = 170.0
END_TO_END_UNITS = {
    "evals_per_s": "1/s",
    "call_p50_s": "s",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name):
    if name.endswith(".self_s"):
        return "s/eval"
    if name.endswith(".calls") or name in ("ipm.iterations", "ipm.nonoptimal"):
        return "1/eval"
    if name in ("sdp.programs_per_eval", "search.sdps_per_post"):
        return "1/call"
    if name == "ipm.iters_per_solve":
        return "1/solve"
    if name == "trace.evals":
        return "count"
    return "ratio"


class BenchError(RuntimeError):
    pass


def _worker(workload, seed, mode, seconds, deadline):
    """Run one workload process; returns (its JSON result, launch time)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode, str(seconds)]
    launched = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process timed out") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{mode} process exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), launched


def _finite(values):
    bad = [k for k, v in values.items() if not math.isfinite(v)]
    if bad:
        raise BenchError("non-finite metric: " + ", ".join(bad))


def end_to_end(workload, seed, seconds, deadline):
    def setup_time(mode):
        result, launched = _worker(workload, seed, mode, seconds, deadline)
        return result, result["ready"] - launched

    setups = [setup_time("setup")[1] for _ in range(SETUP_RUNS // 2)]
    result, measured_setup = setup_time("measure")
    setups.append(measured_setup)
    setups += [setup_time("setup")[1] for _ in range(SETUP_RUNS - len(setups))]
    summary = result["summary"]
    values = {
        "evals_per_s": summary["evals_per_s"],
        "call_p50_s": summary["call_p50_s"],
        "ok_ratio": summary["ok_ratio"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    tail = summary["tail"]
    if tail is None:
        tail_line = f"call_tail_s    omitted: {summary['attempted']} calls are too few"
    else:
        tail_line = f"call_tail_s    {tail[0]:.6g} s (p{tail[1]:.1f} of {tail[2]} calls)"
    table = [
        f"{workload} seed={seed}: {summary['attempted']} calls in {result['passes']} passes, "
        f"{summary['failed']} failed, {result['elapsed_s']:.3f} s timed",
        f"evals_per_s    {values['evals_per_s']:.6g} 1/s",
        f"call_p50_s     {values['call_p50_s']:.6g} s",
        tail_line,
        f"fail_ratio     {1.0 - values['ok_ratio']:.6g}",
        f"setup_s        {values['setup_s']:.6g} s (median of "
        + ", ".join(f"{s:.4f}" for s in setups) + ")",
        f"peak_rss_mb    {values['peak_rss_mb']:.6g} MB",
    ]
    return result, summary["attempted"], summary["failed"], values, END_TO_END_UNITS, table


def per_layer(workload, seed, seconds, deadline):
    result, _ = _worker(workload, seed, "trace", seconds, deadline)
    durations = result["durations"]
    failed = sum(1 for d in durations if not math.isfinite(d))
    values = result["layers"]
    units = {name: layer_unit(name) for name in values}
    table = [f"{workload} seed={seed}: {len(durations)} traced calls, {failed} failed"]
    for name in sorted(values, key=lambda k: (not k.endswith(".self_s"), -values[k], k)):
        table.append(f"{name:45s} {values[name]:.6g} {units[name]}")
    return result, len(durations), failed, values, units, table


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "dyncoh" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: package source not found under {ROOT / 'src'}\n")
        return 2

    deadline = time.monotonic() + DEADLINE_S
    run = per_layer if args.trace else end_to_end
    try:
        result, attempted, failed, values, units, table = run(
            args.workload, args.seed, args.seconds, deadline)
        _finite(values)
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {args.workload}: {exc}\n")
        return 1
    env = dict(result["env"], workload=args.workload, seed=args.seed,
               seconds=args.seconds, trace=args.trace)
    print(json.dumps({"env": env}))
    print("\n".join(table))
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

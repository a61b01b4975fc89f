"""Workload process: set up one workload, warm up, then time its calls.

``run.py`` starts this in a fresh interpreter, with the package on
``PYTHONPATH`` and BLAS pinned to one thread:

    python3 perfbench/worker.py <workload> <seed> <mode> <seconds>

Modes:

* ``setup``: import, make the inputs and make the untimed warm-up call.
* ``measure``: then call the workload in a closed loop, untraced, for as
  many whole passes over its calls as fit in ``seconds`` (at least one).
* ``trace``: make those passes untraced in half of ``seconds``, then make
  the same passes again with every layer's entry points wrapped in spans.

Prints one JSON object on stdout.  ``ready`` is the CLOCK_MONOTONIC time at
which set-up ended, so the parent can time set-up from before it started
this interpreter.  A wrong output or a missing entry point exits with
status 1 and a message on stderr.
"""

import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

import metrics
import spans
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return None


def _git_sha():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text(encoding="utf-8").strip()
        return head
    except OSError:
        return None


def environment():
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "git_sha": _git_sha(),
    }


def timed_window(calls, seconds):
    """Closed loop over whole passes of ``calls``.

    Passes go on while another pass, at the mean pass time so far, still
    ends within ``seconds``; there is always at least one.  Returns the
    call durations, the window's wall time and the number of passes.
    """
    durations = []
    passes = 0
    start = time.perf_counter()
    while True:
        durations.extend(wl.attempt(call) for call in calls)
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed * (passes + 1) / passes > seconds:
            return durations, elapsed, passes


def traced_run(workload, calls, seconds):
    """Untraced passes in half the window, then as many passes traced."""
    _, plain_s, passes = timed_window(calls, seconds / 2.0)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        start = time.perf_counter()
        traced = [wl.attempt(call) for _ in range(passes) for call in calls]
        traced_s = time.perf_counter() - start
    evals = len(traced) * workload.evals_per_call
    layers = spans.layer_metrics(tracer, evals)
    layers["trace_overhead_ratio"] = traced_s / plain_s
    layers["fail_ratio"] = sum(1 for d in traced if math.isinf(d)) / len(traced)
    layers["trace.evals"] = evals
    return {"durations": traced, "layers": layers}


def main(argv):
    name, seed, mode, seconds = argv[0], int(argv[1]), argv[2], float(argv[3])
    workload = wl.WORKLOADS[name]
    warmup, calls = wl.plan(workload, seed, wl.load_reference())
    wl.attempt(warmup)
    out = {"ready": time.clock_gettime(time.CLOCK_MONOTONIC)}
    if mode == "measure":
        durations, elapsed, passes = timed_window(calls, seconds)
        out["summary"] = metrics.summarize(durations, workload.evals_per_call, elapsed)
        out["elapsed_s"] = elapsed
        out["passes"] = passes
    elif mode == "trace":
        out.update(traced_run(workload, calls, seconds))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["env"] = environment()
    print(json.dumps(out))


if __name__ == "__main__":
    try:
        main(sys.argv[1:])
    except (wl.WrongOutput, spans.MissingEntryPoints) as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        sys.exit(1)

"""Print how far the exact pre-processed evaluation reaches, one row per channel.

From the root of a checkout:

    python3 tools/reach.py

It takes no flags.  Each row is one `sdp.preprocessed_improvement` at
da = db = d, lam = 0.5 and phi_k = 2 pi k / d, in a fresh interpreter, so
that its peak RSS (``ru_maxrss``) and its time include the build of the
constraint family.  ``qft:d`` is `channels.qft`, ``random:d:key`` is
``perfbench.workloads.random_channel``.  Per row it prints the wall time of
the call, the peak RSS, the programs solved and the program-iterations,
both summed over `sdp.solve_stacked` runs, the patterns pruned out of all
2^d, the bracket ``upper_bound - lower_bound`` and the value's float bits.
BLAS is pinned to one thread before numpy loads, as in
``tools/pool_digest.py``.
"""

import os
import subprocess
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
CHANNELS = ["qft:5", "qft:6", "random:6:1", "qft:7", "random:7:1", "qft:8", "random:8:1",
            "random:9:1"]


def row(name):
    """Evaluate one channel and print its row; run in a fresh interpreter."""
    import resource
    import time

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import numpy as np
    import workloads

    from dyncoh import channels as ch
    from dyncoh import measures as ms
    from dyncoh import sdp

    kind, d, *key = name.split(":")
    d = int(d)
    theta = ch.qft(d) if kind == "qft" else workloads.random_channel(d, int(key[0]))
    cfg = ms.GameConfig(0.5, 2.0 * np.pi * np.arange(d) / d)
    counts = [0, 0]
    solve_stacked = sdp.solve_stacked

    def counting(*args, **kwargs):
        out = solve_stacked(*args, **kwargs)
        counts[0] += len(out[3])
        counts[1] += sum(info.iterations for info in out[3])
        return out

    sdp.solve_stacked = counting
    start = time.perf_counter()
    report = sdp.preprocessed_improvement(theta, cfg)
    seconds = time.perf_counter() - start
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(f"| {name} | {seconds:.2f} s | {rss:.1f} MB | {counts[0]} | {counts[1]} "
          f"| {report.pruned} of {2**d} | {report.upper_bound - report.lower_bound:.1e} "
          f"| {report.value.hex()} |", flush=True)


def main():
    print("| channel | time | peak RSS | progs | prog-its | pruned | bracket | value |")
    print("|---|---|---|---|---|---|---|---|", flush=True)
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'tools')!r}); import reach; reach.row"
    for name in CHANNELS:
        subprocess.run([sys.executable, "-c", f"{code}({name!r})"], check=True)


if __name__ == "__main__":
    main()

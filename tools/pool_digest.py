"""Print SHA-256 digests of what the package computes on the benchmark pools.

From the root of a checkout:

    python3 tools/pool_digest.py

It takes no flags.  One pass over each workload pool of
``perfbench/reference.json``, in the order of seed 7, gives per workload a
digest of its outputs (for ``detect_n16`` the value, the bracket, the
per-sign values, statuses and orbits and ``x_opt`` of each report; for the
others the returned values; a `SolverFailure` counts as its status) and a
digest of every `IpmInfo` that its stacked interior-point runs returned.
Then one digest per constraint-family table: the targets, the start,
``gram_inv``, the split into unit and dense rows, and ``schur``, ``dot``
and ``combine`` at fixed inputs.  Floats are hashed by their bits, so two
trees that print the same lines computed the same numbers.  BLAS is pinned
to one thread before numpy loads, since LAPACK's last bits depend on the
thread count.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import dataclasses  # noqa: E402
import hashlib  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
import workloads  # noqa: E402

from dyncoh import sdp, search  # noqa: E402
from dyncoh.errors import SolverFailure  # noqa: E402

SEED = 7
FAMILIES = {"sign_family": sdp.sign_family, "mio_family": search._mio_family}
FAMILY_DIMS = [(2, 2), (3, 3), (4, 4), (2, 3), (3, 2), (6, 6), (8, 8)]


def _feed(h, obj):
    """Hash ``obj`` by type, shape and bits."""
    if isinstance(obj, (list, tuple)):
        h.update(f"[{len(obj)}".encode())
        for item in obj:
            _feed(h, item)
    elif isinstance(obj, np.ndarray):
        h.update(f"a{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (float, np.floating)):
        h.update(f"f{float(obj).hex()}".encode())
    else:
        h.update(f"{type(obj).__name__}:{obj!r};".encode())


def digest(*objs):
    h = hashlib.sha256()
    _feed(h, list(objs))
    return h.hexdigest()


def _output(name, out):
    if name == "detect_n16":
        return (out.value, out.lower_bound, out.upper_bound, out.per_sign_values,
                out.per_sign_status, out.per_sign_orbit, out.x_opt)
    return out


def pool_digests():
    """``(workload, outputs digest, number of IpmInfos, IpmInfo digest)``
    per workload, with `sdp.solve_stacked` wrapped to record every info."""
    reference, infos = workloads.load_reference(), []
    solve_stacked = sdp.solve_stacked

    def recording(*args, **kwargs):
        x, y, s, run_infos = solve_stacked(*args, **kwargs)
        infos.extend(dataclasses.astuple(info) for info in run_infos)
        return x, y, s, run_infos

    sdp.solve_stacked = recording
    try:
        for name, workload in workloads.WORKLOADS.items():
            infos.clear()
            outputs = []
            for call in workloads.plan(workload, SEED, reference)[1]:
                try:
                    outputs.append(_output(name, call.run()))
                except SolverFailure as exc:
                    outputs.append(f"SolverFailure:{exc.status}")
            yield name, digest(outputs), len(infos), digest(infos)
    finally:
        sdp.solve_stacked = solve_stacked


def family_digest(build, dims):
    """Digest of one family's tables and of its kernels at fixed inputs."""
    family = build(*dims)
    c = family.constraints
    rng = np.random.default_rng(0)
    g = rng.standard_normal((2, c.n, c.n)) + 1j * rng.standard_normal((2, c.n, c.n))
    w = g @ np.conj(np.swapaxes(g, -1, -2)) + np.eye(c.n)
    y = rng.standard_normal((2, c.m))
    return digest(family.targets, family.start, c.gram_inv, c.unit_rows, c.dense_rows,
                  c.schur(w), c.dot(w), c.combine(y))


def main():
    for name, outputs, count, infos in pool_digests():
        print(f"{name:16} outputs {outputs}")
        print(f"{name:16} infos   {infos} ({count})")
    for label, build in FAMILIES.items():
        for dims in FAMILY_DIMS:
            print(f"{label}{dims} {family_digest(build, dims)}")


if __name__ == "__main__":
    main()

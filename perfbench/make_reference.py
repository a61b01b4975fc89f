"""Write ``reference.json``: the benchmark's case pool and reference values.

Run from the repository root, at the commit whose outputs are the
reference:

    PYTHONPATH=src python3 perfbench/make_reference.py

The pool is drawn from a fixed seed, so rerunning it changes only the
values, and only if the package's outputs changed.  Lower bounds (creation
side, oracles) are stored as floors; a case whose call raised
``SolverFailure`` is stored with its status and no value.
"""

import json
import math

import numpy as np

from dyncoh import sdp, search
from dyncoh.errors import SolverFailure

import workloads as wl

POOL_SEED = 20210209
PRIORS = (0.3, 0.5, 0.7)


def _phases(rng, dim):
    return [float(x) for x in rng.uniform(0.0, 2.0 * math.pi, dim)]


def detect_cases(rng):
    """Eight cases (~10 s a pass), so that a run's window holds two passes."""
    specs = ["qft:4", "h_x_id"] + [f"random:4:{1000 + k}" for k in range(6)]
    return [{"group": spec.split(":")[0], "channel": spec, "lam": float(rng.choice(PRIORS)),
             "phi": _phases(rng, 4)} for spec in specs]


def create_cases(rng):
    cases = [{"group": "anchor", "channel": "hadamard", "lam": 0.5, "phi": list(wl.README_PHI)}]
    for lam in (0.3, 0.4, 0.6, 0.7):
        cases.append({"group": "hadamard", "channel": "hadamard", "lam": lam,
                      "phi": list(wl.README_PHI)})
    for _ in range(12):
        cases.append({"group": "mixture", "channel": f"mix:{float(rng.uniform()):.6f}",
                      "lam": float(rng.choice(PRIORS)), "phi": _phases(rng, 2)})
    for k in range(12):
        cases.append({"group": "random", "channel": f"random:2:{2000 + k}",
                      "lam": float(rng.choice(PRIORS)), "phi": _phases(rng, 2)})
    return cases


def oracle_cases(rng):
    cases = []
    for group, dim, base in (("qubit", 2, 3000), ("qutrit", 3, 3100)):
        for k in range(12):
            cases.append({"group": group, "channel": f"random:{dim}:{base + k}",
                          "lam": float(rng.choice(PRIORS)), "phi": _phases(rng, dim)})
    return cases


def detect_value(case):
    report = sdp.preprocessed_improvement(wl.make_channel(case["channel"]), wl.game(case))
    return {"value": report.value}


def sweep_value(case):
    lambdas, p1s = wl.sweep_grid()
    rows = search.mixture_sweep(lambdas, p1s, wl.README_PHI)
    values = [value for _, _, value in rows]
    anchor = values[len(p1s) - 1]  # lambda = 1/2, p1 = 1
    if wl.check_exact(anchor, wl.ANCHOR):
        raise RuntimeError(f"sweep misses the Hadamard anchor: {anchor!r}")
    return {"values": values}


def create_value(case):
    theta, cfg = wl.make_channel(case["channel"]), wl.game(case)
    try:
        return {"value": search.postprocessed_improvement_lower(theta, cfg)}
    except SolverFailure as exc:
        return {"status": exc.status}


def oracle_value(case):
    theta, cfg = wl.make_channel(case["channel"]), wl.game(case)
    exact = sdp.preprocessed_improvement(theta, cfg)
    return {
        "brute_force": search.brute_force_game_value(theta, cfg),
        "no_preprocessing": search.no_preprocessing_improvement(theta, cfg),
        "exact_trace_norm": exact.trace_norm,
        "exact_value": exact.value,
    }


def main():
    rng = np.random.default_rng(POOL_SEED)
    pools = {
        "detect_n16": (detect_cases(rng), detect_value),
        "sweep_qubit": ([{"group": "grid"}], sweep_value),
        "create_qubit": (create_cases(rng), create_value),
        "oracle_sampled": (oracle_cases(rng), oracle_value),
    }
    out = {}
    for name, (cases, evaluate) in pools.items():
        for i, case in enumerate(cases):
            case["id"] = f"{name}-{i}"
        out[name] = {"cases": cases, "values": {c["id"]: evaluate(c) for c in cases}}
        print(name, len(cases), "cases", flush=True)
    with open(wl.REFERENCE, "w", encoding="utf-8") as f:
        json.dump(out, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()

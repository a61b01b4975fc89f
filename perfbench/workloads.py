"""The benchmark's workloads: inputs, public calls and output checks.

Inputs come from the case pool in ``reference.json``.  Every case there is a
fully specified input (channel, prior, phases) drawn from a fixed seed, with
the values the package returned for it when the pool was made
(``make_reference.py``).  The workload seed orders the pool, and a run
times whole passes over it in that order, so the same seed gives the same
inputs and every input has a reference value.  Per-call cost varies two- to
four-fold between cases of one kind, so a run that timed part of a pass
would measure which cases it reached more than the package; whole passes
keep the mix of a run the same for every seed.  The package receives only the
generated inputs, through its public entry points, looked up at call time
so that a traced run sees them.

Workloads, and why each is here:

* ``detect_n16``: ``preprocessed_improvement`` with extraction on
  4-outcome channels and 4-entry phase vectors (14 sign programs over a
  16 x 16 complex block).  Presolve and the interior-point method carry it.
* ``sweep_qubit``: the documented ``mixture_sweep`` grid, 4 priors x 51
  mixture weights, 408 tiny programs per call.  Per-solve Python overhead
  in the interior-point method carries it.  The grid takes no seed because
  this exact call is the documented traffic.
* ``create_qubit``: ``postprocessed_improvement_lower`` on the Hadamard
  channel at several priors, Hadamard mixtures and random qubit channels.
  The same SDP layers in a sequential, non-batchable pattern.  The Hadamard
  points away from prior 1/2 fail with ``numerical_failure`` at the commit
  that made the pool; they stay in, so their failure ratio is the baseline
  a fix moves.
* ``oracle_sampled``: ``brute_force_game_value`` and
  ``no_preprocessing_improvement`` on random qubit and qutrit channels.  No
  SDP is solved; pure-state ascent and sampling carry it.
"""

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dyncoh import channels as ch
from dyncoh import measures as ms
from dyncoh import sdp, search
from dyncoh.errors import SolverFailure

REFERENCE = Path(__file__).with_name("reference.json")
TOL = 1e-6  # the package's own extraction round-trip tolerance
ANCHOR = math.sqrt(3.0) / 2.0  # Hadamard at prior 1/2 with phases (2 pi / 3, 0)
README_PHI = (2.0 * math.pi / 3.0, 0.0)
SWEEP_LAMBDAS = (0.5, 0.6, 0.75, 0.9)
SWEEP_P1_STEPS = 51


class WrongOutput(RuntimeError):
    """A call returned a value its check rejects."""


@dataclass(frozen=True)
class Call:
    """One public call of a workload and the check of its output."""

    label: str
    run: object  # () -> output
    check: object  # output -> None, or a message saying what is wrong


@dataclass(frozen=True)
class Workload:
    name: str
    evals_per_call: int  # evaluations one successful call completes
    calls: object  # (case, reference entry) -> list of Call


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def random_channel(dim, key):
    """Haar-random full-rank channel on ``dim`` levels, from a seed key."""
    rng = np.random.default_rng(key)
    rank = dim * dim
    g = rng.standard_normal((dim * rank, dim)) + 1j * rng.standard_normal((dim * rank, dim))
    v, _ = np.linalg.qr(g)
    return ch.from_kraus([v.reshape(dim, rank, dim)[:, e, :] for e in range(rank)])


def make_channel(spec):
    """Channel from a pool spec: ``hadamard``, ``qft:<d>``, ``h_x_id``,
    ``mix:<p1>`` or ``random:<dim>:<key>``."""
    kind, *args = spec.split(":")
    if kind == "hadamard":
        return ch.hadamard()
    if kind == "qft":
        return ch.qft(int(args[0]))
    if kind == "h_x_id":
        return ch.tensor(ch.hadamard(), ch.identity_channel(2))
    if kind == "mix":
        return ch.hadamard_mixture(float(args[0]))
    if kind == "random":
        return random_channel(int(args[0]), int(args[1]))
    raise ValueError(f"unknown channel spec {spec!r}")


def game(case):
    return ms.GameConfig(float(case["lam"]), np.asarray(case["phi"], dtype=float))


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def check_exact(value, reference):
    if not abs(value - reference) <= TOL:
        return f"value {value!r} differs from reference {reference!r} by more than {TOL}"
    return None


def check_lower_bound(value, floor, ceiling):
    """A lower bound may rise to its ceiling but not fall below its floor."""
    if not value >= floor - TOL:
        return f"lower bound {value!r} fell below reference {floor!r}"
    if not value <= ceiling + TOL:
        return f"lower bound {value!r} exceeds the valid ceiling {ceiling!r}"
    return None


# ---------------------------------------------------------------------------
# Workload calls
# ---------------------------------------------------------------------------

def _detect_calls(case, ref):
    theta, cfg = make_channel(case["channel"]), game(case)
    return [Call(
        case["id"],
        lambda: sdp.preprocessed_improvement(theta, cfg),
        lambda report: check_exact(report.value, ref["value"]),
    )]


def sweep_grid():
    return SWEEP_LAMBDAS, np.linspace(0.0, 1.0, SWEEP_P1_STEPS)


def check_sweep(rows, values):
    lambdas, p1s = sweep_grid()
    grid = [(lam, p1) for lam in lambdas for p1 in p1s]
    if len(rows) != len(grid):
        return f"{len(rows)} rows for a {len(grid)}-point grid"
    for (lam, p1, value), (glam, gp1), ref in zip(rows, grid, values):
        if (lam, p1) != (glam, gp1):
            return f"row ({lam}, {p1}) out of grid order"
        problem = check_exact(value, ref)
        if problem:
            return f"lambda={lam}, p1={p1}: {problem}"
        if lam == 0.5 and p1 == 1.0:
            problem = check_exact(value, ANCHOR)
            if problem:
                return f"Hadamard anchor: {problem}"
    return None


def _sweep_calls(case, ref):
    lambdas, p1s = sweep_grid()
    return [Call(
        case["id"],
        lambda: search.mixture_sweep(lambdas, p1s, README_PHI),
        lambda rows: check_sweep(rows, ref["values"]),
    )]


def hadamard_ceiling(cfg):
    """Improvement ceiling for a qubit output at phases ``README_PHI``.

    ``|| lam rho - mu Z rho Z^+ ||_1`` is convex in ``rho``, so it peaks on a
    pure state, where it is ``sqrt(1 - 4 lam mu |<psi|Z psi>|^2)``.  With a
    relative phase of 2 pi / 3 the overlap is at least 1/4 (on the equator),
    which gives ``sqrt(1 - lam mu)``: sqrt(3)/2 at prior 1/2.
    """
    return math.sqrt(1.0 - cfg.lam * cfg.mu) - cfg.prior_gap


def _create_calls(case, ref):
    theta, cfg = make_channel(case["channel"]), game(case)
    # Where the call failed when the pool was made, the floor is 0: a
    # Helstrom norm is never below the prior gap it is compared with.
    floor = ref.get("value", 0.0)
    ceiling = 1.0 - cfg.prior_gap
    if case["channel"] == "hadamard":
        ceiling = hadamard_ceiling(cfg)
    if case["group"] == "anchor":
        floor = ANCHOR
    return [Call(
        case["id"],
        lambda: search.postprocessed_improvement_lower(theta, cfg),
        lambda value: check_lower_bound(value, floor, ceiling),
    )]


def _oracle_calls(case, ref):
    theta, cfg = make_channel(case["channel"]), game(case)
    return [
        Call(
            case["id"] + "/brute_force",
            lambda: search.brute_force_game_value(theta, cfg),
            lambda v: check_lower_bound(v, ref["brute_force"], ref["exact_trace_norm"]),
        ),
        Call(
            case["id"] + "/no_preprocessing",
            lambda: search.no_preprocessing_improvement(theta, cfg),
            lambda v: check_lower_bound(v, ref["no_preprocessing"], ref["exact_value"]),
        ),
    ]


WORKLOADS = {
    w.name: w for w in (
        Workload("detect_n16", 1, _detect_calls),
        Workload("sweep_qubit", len(SWEEP_LAMBDAS) * SWEEP_P1_STEPS, _sweep_calls),
        Workload("create_qubit", 1, _create_calls),
        Workload("oracle_sampled", 1, _oracle_calls),
    )
}


def load_reference():
    with open(REFERENCE, encoding="utf-8") as f:
        return json.load(f)


def plan(workload, seed, reference):
    """``(warm-up call, timed calls)`` for one seed.

    The warm-up is the first call of the pool's first case for every seed,
    so set-up time compares across seeds.  The timed calls are one pass
    over the whole pool, in an order drawn from the seed.
    """
    pool = reference[workload.name]
    cases = pool["cases"]
    order = np.random.default_rng(seed).permutation(len(cases))
    values = pool["values"]
    warmup = workload.calls(cases[0], values[cases[0]["id"]])[0]
    timed = [call for i in order for call in workload.calls(cases[i], values[cases[i]["id"]])]
    return warmup, timed


def attempt(call):
    """Wall time of one call, ``inf`` if the package raised `SolverFailure`.

    Raises `WrongOutput` when the call returns a value its check rejects.
    """
    start = time.perf_counter()
    try:
        output = call.run()
    except SolverFailure:
        return math.inf
    duration = time.perf_counter() - start
    problem = call.check(output)
    if problem:
        raise WrongOutput(f"{call.label}: {problem}")
    return duration

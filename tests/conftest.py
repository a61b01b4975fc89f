import os

# One BLAS thread, set before numpy is first imported (BLAS reads these at
# load time): on a small machine a multi-threaded OpenBLAS makes each first
# evaluation at new dims several times slower than one thread does.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from dyncoh import ipm, sdp

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def rng():
    return np.random.default_rng(20240809)


@pytest.fixture
def nan_at_fifth_pair(monkeypatch):
    """Make the signed output populations, and with them the sign objectives,
    of the fifth evaluated (channel, game) pair NaN.

    Pairs are counted across calls of the stacked populations, one per row
    of each call's output."""
    seen = []
    original = sdp._signed_populations

    def corrupted(thetas, signs):
        out = original(thetas, signs)
        fifth = 4 - len(seen)
        seen.extend(range(len(out)))
        if 0 <= fifth < len(out):
            out[fifth] = np.nan
        return out

    monkeypatch.setattr(sdp, "_signed_populations", corrupted)


@pytest.fixture
def failing_third_bound(monkeypatch):
    """Make LAPACK's ``eigvalsh`` fail in the third `ipm._dual_bound` call
    after the returned function is called with ``alone``: on the stack, and
    on each matrix redone alone, as a stack of one, whose position is in
    ``alone`` (every one for None)."""
    state = {"armed": False, "failing": False, "bounds": 0, "solo": 0, "alone": None}
    bound, eigvalsh = ipm._dual_bound, np.linalg.eigvalsh

    def counting(*args):
        state["bounds"] += 1
        state["failing"] = state["armed"] and state["bounds"] == 3
        try:
            return bound(*args)
        finally:
            state["failing"] = False

    def failing(a, *args, **kwargs):
        if state["failing"]:
            solo = len(a) == 1
            k = state["solo"]
            state["solo"] += solo
            if not solo or state["alone"] is None or k in state["alone"]:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvalsh(a, *args, **kwargs)

    def arm(alone):
        state.update(armed=True, bounds=0, solo=0, alone=alone)

    monkeypatch.setattr(ipm, "_dual_bound", counting)
    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    return arm


def perfbench_module(name):
    """A module of the benchmark harness, loaded from its file: the harness
    is a directory of scripts, not a package on the path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def full_sign_enumeration(theta, cfg):
    """Solve all 2^N sign programs of a pair, the constant ones included.

    Returns (signs, per-sign values): the reference that the analytic
    constant patterns of `sdp.evaluate_pairs` must reproduce.
    """
    signs = sdp.enumerate_sign_vectors(theta.dim_out, full=True)
    _, infos = sdp.solve_family(sdp.sign_family(cfg.dim, theta.dim_in),
                                *sdp._sign_factors(theta, cfg, signs))
    return signs, [info.primal_objective for info in infos]


def random_hermitian(rng, dim, scale=1.0):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * 0.5 * (g + g.conj().T)


def dense_functionals(functionals, p, q):
    """``functionals`` followed by each pin (p, q) written out as the
    functional ``(E_pq, 0)``, X[p, q] = 0."""
    eye = np.eye(len(functionals[0][0]), dtype=complex)
    return list(functionals) + [(np.outer(eye[a], eye[b]), 0.0) for a, b in zip(p, q)]


def constraint_rows(functionals, p, q):
    """The Hermitian rows `sdp.constraint_family` makes of complex
    functionals ``(F, t)`` and pins (p, q), as one stack: the Hermitian part
    of each F and its anti-Hermitian part over 2i, each kept unless it
    vanishes, then the same two parts of each pin's E_pq."""
    parts = [part for f, _ in dense_functionals(functionals, p, q)
             for part in (0.5 * (f + f.conj().T), (f - f.conj().T) / 2j)]
    return np.array([part for part in parts if np.abs(part).max() > 1e-14])

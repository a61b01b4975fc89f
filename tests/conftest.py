import os

# One BLAS thread, set before numpy is first imported (BLAS reads these at
# load time): on a small machine a multi-threaded OpenBLAS makes each first
# evaluation at new dims several times slower than one thread does.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from dyncoh import sdp


@pytest.fixture
def rng():
    return np.random.default_rng(20240809)


@pytest.fixture
def nan_at_fifth_pair(monkeypatch):
    """Make the sign objectives of the fifth evaluated (channel, game) pair NaN."""
    calls = []
    original = sdp._sign_objectives

    def corrupted(theta, cfg, signs):
        calls.append(None)
        out = original(theta, cfg, signs)
        return out * np.nan if len(calls) == 5 else out

    monkeypatch.setattr(sdp, "_sign_objectives", corrupted)


def full_sign_enumeration(theta, cfg):
    """Solve all 2^N sign programs of a pair, the constant ones included.

    Returns (signs, per-sign values): the reference that the analytic
    constant patterns of `sdp.evaluate_pairs` must reproduce.
    """
    signs = sdp.enumerate_sign_vectors(theta.dim_out, full=True)
    _, infos = sdp.solve_family(sdp.sign_family(cfg.dim, theta.dim_in),
                                sdp._sign_objectives(theta, cfg, signs))
    return signs, [info.primal_objective for info in infos]


def random_hermitian(rng, dim, scale=1.0):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * 0.5 * (g + g.conj().T)

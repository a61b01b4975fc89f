import numpy as np
import pytest

from dyncoh import linalg as la
from dyncoh.errors import DimensionMismatch, ValidationError

from conftest import random_hermitian, random_pure_state

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def test_partial_trace_product_state():
    psi00 = np.zeros((4, 4), dtype=complex)
    psi00[0, 0] = 1.0
    out = la.partial_trace(psi00, (2, 2), keep=0)
    assert np.allclose(out, np.diag([1.0, 0.0]))


def test_partial_trace_bell_state():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0 / np.sqrt(2.0)
    bell = np.outer(v, v.conj())
    for keep in (0, 1):
        assert np.allclose(la.partial_trace(bell, (2, 2), keep), np.eye(2) / 2, atol=1e-12)


def _partial_trace_bruteforce(m, da, db, keep):
    # independent index-summation oracle
    out_dim = da if keep == 0 else db
    out = np.zeros((out_dim, out_dim), dtype=complex)
    for i in range(da):
        for j in range(da):
            for a in range(db):
                for b in range(db):
                    if keep == 0 and a == b:
                        out[i, j] += m[i * db + a, j * db + b]
                    if keep == 1 and i == j:
                        out[a, b] += m[i * db + a, j * db + b]
    return out


def test_partial_trace_against_bruteforce(rng):
    for _ in range(25):
        da, db = rng.integers(2, 5, size=2)
        m = rng.standard_normal((da * db, da * db)) + 1j * rng.standard_normal((da * db, da * db))
        for keep in (0, 1):
            assert np.allclose(la.partial_trace(m, (int(da), int(db)), keep),
                               _partial_trace_bruteforce(m, da, db, keep), atol=1e-12)


def test_partial_trace_of_product_factorizes(rng):
    rho = random_hermitian(rng, 3)
    sigma = random_hermitian(rng, 2)
    got = la.partial_trace(np.kron(rho, sigma), (3, 2), keep=1)
    assert np.allclose(got, sigma * np.trace(rho), atol=1e-12)


def test_partial_trace_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        la.partial_trace(np.eye(5), (2, 2), keep=0)


def test_eig_hermitian_diagonal():
    w, _ = la.eig_hermitian(np.diag([3.0, 1.0, 2.0]).astype(complex))
    assert np.allclose(w, [1.0, 2.0, 3.0])


def test_eig_hermitian_pauli_spectrum():
    w, _ = la.eig_hermitian(SX)
    assert np.allclose(w, [-1.0, 1.0])


def test_eig_hermitian_reconstruction_and_orthonormality(rng):
    for _ in range(50):
        d = int(rng.integers(2, 8))
        h = random_hermitian(rng, d, scale=3.0)
        w, v = la.eig_hermitian(h)
        assert la.max_abs(v @ np.diag(w) @ v.conj().T - h) <= 1e-9
        assert la.max_abs(v.conj().T @ v - np.eye(d)) <= 1e-9


def test_eig_hermitian_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        la.eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_trace_norm_examples():
    assert la.trace_norm_hermitian(np.diag([1.0, -1.0]).astype(complex)) == pytest.approx(2.0)
    rho = np.array([[0.7, 0.1], [0.1, 0.3]], dtype=complex)
    assert la.trace_norm_hermitian(rho) == pytest.approx(1.0)


def test_trace_norm_phase_difference_matrix():
    # eigenvalues are +-|1 - e^{i 2 pi/3}|/4 = +-sqrt(3)/4, so the norm is sqrt(3)/2
    z = 1.0 - np.exp(2j * np.pi / 3.0)
    m = 0.25 * np.array([[0.0, z], [np.conj(z), 0.0]])
    assert la.trace_norm_hermitian(m) == pytest.approx(np.sqrt(3.0) / 2.0, abs=1e-12)


def test_state_helpers(rng):
    # both generators give Hermitian, positive semidefinite, unit-trace
    # states: full rank from the Ginibre draw, rank one from the pure draw
    rho = la.random_density_matrix(4, rng)
    pure = random_pure_state(3, rng)
    for state in (rho, pure):
        assert la.max_abs(state - state.conj().T) <= 1e-15
        assert np.trace(state).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(rho).min() > 0.0
    w = np.linalg.eigvalsh(pure)
    assert w.min() >= -1e-12
    assert np.allclose(sorted(w)[-1], 1.0, atol=1e-9)

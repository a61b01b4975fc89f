import numpy as np
import pytest

from dyncoh import kernels, sdp


def _random_sparse_symmetric(rng, n, nnz):
    a = np.zeros((n, n))
    for _ in range(nnz):
        i, j = rng.integers(0, n, size=2)
        v = rng.standard_normal()
        a[i, j] += v
        a[j, i] = a[i, j]
    return a


def _random_sparse_hermitian(rng, n, nnz):
    a = np.zeros((n, n), dtype=complex)
    for _ in range(nnz):
        i, j = rng.integers(0, n, size=2)
        a[i, j] += rng.standard_normal() + (1j * rng.standard_normal() if i != j else 0.0)
        a[j, i] = np.conj(a[i, j])
    return a


def test_sparse_constraints_roundtrip(rng):
    mats = [_random_sparse_symmetric(rng, 10, 4) for _ in range(12)]
    sc = kernels.SparseConstraints(mats)
    x = _random_sparse_symmetric(rng, 10, 30)
    expected = np.array([np.sum(a * x) for a in mats])
    assert np.allclose(sc.dot(x), expected, atol=1e-12)
    y = rng.standard_normal(12)
    assert np.allclose(sc.combine(y), sum(c * a for c, a in zip(y, mats)), atol=1e-12)


@pytest.mark.parametrize("dims", [(2, 2), (4, 4)])
def test_least_norm_solves_the_constraints_in_their_span(rng, dims):
    sc = sdp.sign_family(*dims).constraints
    r = rng.standard_normal((5, sc.m))
    x = sc.least_norm(r)
    assert np.abs(sc.dot(x) - r).max() <= 1e-12
    assert np.array_equal(x, x.conj().swapaxes(-1, -2))
    # the least-norm solution is a real combination of the constraint matrices
    rows = kernels.real_vectors(sc.dense)
    coeffs = np.linalg.lstsq(rows.T, kernels.real_vectors(x).T, rcond=None)[0].T
    assert np.abs(sc.combine(coeffs) - x).max() <= 1e-12
    # each row of a stack is computed alone
    for k in range(5):
        assert np.array_equal(sc.least_norm(r[k:k + 1])[0], x[k])


def test_schur_backends_agree(rng):
    # real symmetric rows, then complex Hermitian rows with a complex W
    for sparse, phase in ((_random_sparse_symmetric, 0.0), (_random_sparse_hermitian, 1j)):
        mats = [sparse(rng, 14, 5) for _ in range(20)]
        sc = kernels.SparseConstraints(mats)
        w = rng.standard_normal((14, 14)) + phase * rng.standard_normal((14, 14))
        w = w @ w.conj().T + np.eye(14)
        dense = kernels.schur_numpy(sc.dense, w)
        sparse_py = kernels.schur_sparse_py(mats, w)
        assert np.allclose(dense, sparse_py, atol=1e-9)
        assert np.allclose(sc.schur(w), dense, atol=1e-9)


@pytest.mark.parametrize("dims", [(2, 2), (4, 4)])
def test_stacked_schur_matches_per_matrix_schur(rng, dims):
    sc = sdp.sign_family(*dims).constraints
    g = rng.standard_normal((12, sc.n, sc.n)) + 1j * rng.standard_normal((12, sc.n, sc.n))
    w = g @ g.conj().swapaxes(-1, -2) + np.eye(sc.n)
    stacked = sc.schur(w)
    assert stacked.shape == (12, sc.m, sc.m)
    for wk, mk in zip(w, stacked):
        single = sc.schur(wk)
        assert np.abs(mk - single).max() <= 1e-12 * np.abs(single).max()


def test_ascent_improves_and_matches_reference(rng):
    d = 3
    r_stack = np.stack([
        0.5 * (m + m.conj().T)
        for m in (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                  for _ in range(2))
    ])
    x0 = rng.standard_normal(2 * d)
    start = kernels.objective_numpy(r_stack, x0)
    x_np, val_np = kernels.ascent_numpy(r_stack, x0, 50, 0.3, 1e-6)
    assert val_np >= start - 1e-12
    x_sel, val_sel = kernels.pure_state_ascent(r_stack, x0, max_sweeps=50)
    assert val_sel == pytest.approx(val_np, abs=1e-9)


def test_objective_matches_direct_sum(rng):
    d = 4
    r_stack = np.stack([
        0.5 * (m + m.conj().T)
        for m in (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                  for _ in range(3))
    ])
    x = rng.standard_normal(2 * d)
    v = x[:d] + 1j * x[d:]
    v = v / np.linalg.norm(v)
    direct = sum(abs((v.conj() @ r @ v).real) for r in r_stack)
    assert kernels.objective_numpy(r_stack, x) == pytest.approx(direct, abs=1e-12)

import tracemalloc

import numpy as np
import pytest

from dyncoh import kernels, sdp, search
from dyncoh.errors import ValidationError

from conftest import constraint_rows

# the complex functionals and pins each solver family is built from
CONSTRAINTS = {sdp.sign_family: sdp._sign_constraints,
               search._mio_family: search._mio_constraints}


def _random_sparse_symmetric(rng, n, nnz):
    a = np.zeros((n, n))
    for _ in range(nnz):
        i, j = rng.integers(0, n, size=2)
        v = rng.standard_normal()
        a[i, j] += v
        a[j, i] = a[i, j]
    return a


def _disjoint_rows(rng, n, count, most, phase=0.0):
    """``count`` random symmetric rows (Hermitian for ``phase=1j``) over
    disjoint entries of the upper triangle, 1 to ``most`` entries each."""
    p, q = np.triu_indices(n)
    order = iter(rng.permutation(len(p)))
    rows = np.zeros((count, n, n), dtype=complex)
    for h in rows:
        for _ in range(rng.integers(1, most + 1)):
            e = next(order)
            h[p[e], q[e]] = rng.standard_normal() + phase * rng.standard_normal() * (p[e] != q[e])
            h[q[e], p[e]] = np.conj(h[p[e], q[e]])
    return rows


def test_sparse_constraints_roundtrip(rng):
    mats = _disjoint_rows(rng, 10, 12, 4)
    sc = kernels.SparseConstraints(mats, [], [])
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
    rows = kernels.real_vectors(constraint_rows(*sdp._sign_constraints(*dims)))
    coeffs = np.linalg.lstsq(rows.T, kernels.real_vectors(x).T, rcond=None)[0].T
    assert np.abs(sc.combine(coeffs) - x).max() <= 1e-12
    # each row of a stack is computed alone
    for k in range(5):
        assert np.array_equal(sc.least_norm(r[k:k + 1])[0], x[k])


def _schur_reference(matrices, w):
    """Re tr(H_k W H_l W) by one python loop over the nonzeros of each pair of rows."""
    nonzeros = [[(a, b, h[a, b]) for a, b in zip(*np.nonzero(h))] for h in matrices]
    m = len(nonzeros)
    out = np.zeros((m, m))
    for k in range(m):
        for l in range(k, m):
            acc = 0.0j
            for a, b, hk in nonzeros[k]:
                for c, d, hl in nonzeros[l]:
                    acc += hk * hl * w[b, c] * w[d, a]
            out[k, l] = out[l, k] = acc.real
    return out


def _random_weights(rng, n, count=None):
    shape = (n, n) if count is None else (count, n, n)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return g @ g.conj().swapaxes(-1, -2) + np.eye(n)


def _assert_matches_reference(sc, matrices, w):
    got = sc.schur(w)
    assert np.array_equal(got, got.swapaxes(-1, -2))
    expected = _schur_reference(matrices, w)
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


def test_schur_backends_agree(rng):
    # real symmetric rows, then complex Hermitian rows with a complex W
    for phase in (0.0, 1j):
        mats = _disjoint_rows(rng, 14, 20, 5, phase)
        sc = kernels.SparseConstraints(mats, [], [])
        w = rng.standard_normal((14, 14)) + phase * rng.standard_normal((14, 14))
        w = w @ w.conj().T + np.eye(14)
        _assert_matches_reference(sc, mats, w)


SOLVER_FAMILIES = [
    (sdp.sign_family, (2, 2)), (sdp.sign_family, (2, 3)), (sdp.sign_family, (3, 3)),
    (sdp.sign_family, (4, 4)), (search._mio_family, (2, 2)), (search._mio_family, (2, 3)),
    (search._mio_family, (3, 2)),
]


@pytest.mark.parametrize("family, dims", SOLVER_FAMILIES)
def test_schur_matches_reference_on_the_solver_families(rng, family, dims):
    sc = family(*dims).constraints
    _assert_matches_reference(sc, constraint_rows(*CONSTRAINTS[family](*dims)),
                              _random_weights(rng, sc.n))


@pytest.mark.parametrize("family, dims", SOLVER_FAMILIES)
def test_schur_reads_of_the_dense_products_match_a_dense_product(rng, family, dims):
    # <vec H_k, vec T_l> for each dense row l, T_l = W H_l W: a pin's row k
    # gathers its two slots to the bit of the dense product, whose weights
    # are +-1/2, and the dense rows take a product of their own
    sc = family(*dims).constraints
    rows = constraint_rows(*CONSTRAINTS[family](*dims))
    u, d = sc.unit_rows, sc.dense_rows
    w = _random_weights(rng, sc.n)
    t = kernels.real_vectors(w @ (rows[d] @ w))
    cross = kernels.real_vectors(rows) @ t.T
    got = sc.schur(w)
    assert np.array_equal(got[u[:, None], d], cross[u])
    expected = 0.5 * (cross[d] + cross[d].T)
    assert np.abs(got[d[:, None], d] - expected).max() <= 1e-14 * np.abs(expected).max()


def _single_entry(n, p, q, g):
    h = np.zeros((n, n), dtype=complex)
    h[p, q] += g
    h[q, p] += np.conj(g)
    return h


def _mixed_constraints(n=5):
    """Dense rows: diagonal single entries, a single entry of phase pi/3, a
    partial trace row and a two-entry row; then pins (p, q) beside them,
    and no two rows read one slot of vec X."""
    rows = [_single_entry(n, p, q, g) for p, q, g in (
        (0, 0, 2.0), (3, 3, -1.5), (2, 4, np.exp(1j * np.pi / 3)))]
    two = np.zeros((n, n), dtype=complex)
    two[0, 2] = two[2, 0] = 1.0
    two[1, 3], two[3, 1] = 0.5j, -0.5j
    return np.array(rows + [np.diag([0.0, 1.0, 1.0, 0.0, 1.0]), two]), [0, 1, 3], [1, 2, 4]


def _rows(matrices, p, q):
    """The Hermitian rows of dense rows ``matrices`` and pins (p, q)."""
    return constraint_rows([(h, 0.0) for h in matrices], p, q)


def test_schur_mixes_unit_and_dense_rows(rng):
    sc = kernels.SparseConstraints(*_mixed_constraints())
    # single entries of any phase are dense rows; each pin takes two rows
    assert sc.dense_rows.tolist() == [0, 1, 2, 3, 4]
    assert sc.unit_rows.tolist() == [5, 6, 7, 8, 9, 10]
    _assert_matches_reference(sc, _rows(*_mixed_constraints()), _random_weights(rng, sc.n))


def _repeated_rows(n=4):
    """Single-entry rows that share their slots, as a dependent set can hold."""
    re, im, diag = _single_entry(n, 1, 2, 1.5), _single_entry(n, 1, 2, -0.5j), \
        _single_entry(n, 3, 3, 2.0)
    return [re, im, re, diag, np.eye(n), diag, 2.0 * re]


@pytest.mark.parametrize("rows, p, q", [
    (_repeated_rows(), [], []),
    ([np.eye(4), _single_entry(4, 2, 2, 1.0)], [], []),
    ([_single_entry(4, 0, 1, 1.0), _single_entry(4, 2, 3, 1e-11)], [], []),
    ([np.eye(4)], [1, 0, 1], [2, 3, 2]),
    (_mixed_constraints()[0], [0, 0], [1, 2]),
    ([np.eye(4)], [0, 2], [1, 1]),
    ([np.eye(4)], [1], [4]),
], ids=["repeated", "trace_and_diagonal_pin", "row_of_norm_below_1e-10", "repeated_pin",
        "pin_on_a_dense_slot", "pin_below_the_diagonal", "pin_outside_the_block"])
def test_rows_that_share_a_slot_or_vanish_are_refused(rows, p, q):
    with pytest.raises(ValidationError):
        kernels.SparseConstraints(rows, p, q)
    # a row of norm just above 1e-10 is kept
    assert kernels.SparseConstraints([_single_entry(4, 2, 3, 1e-10)], [], []).m == 1


@pytest.mark.parametrize("make", [
    *(lambda f=family, d=dims: (f(*d).constraints, constraint_rows(*CONSTRAINTS[f](*d)))
      for family, dims in SOLVER_FAMILIES),
    lambda: (kernels.SparseConstraints(*_mixed_constraints()), _rows(*_mixed_constraints())),
], ids=[f"{family.__name__}{dims}" for family, dims in SOLVER_FAMILIES] + ["mixed"])
def test_gathers_match_the_dense_products(rng, make):
    sc, rows = make()
    flat = kernels.real_vectors(rows)
    x = _random_weights(rng, sc.n, 6)
    y = rng.standard_normal((6, sc.m))
    dense_dot = (flat @ kernels.real_vectors(x)[..., None])[..., 0]
    coeffs = y @ np.linalg.pinv(flat @ flat.T, hermitian=True)
    for got, expected in ((sc.dot(x), dense_dot),
                          (kernels.real_vectors(sc.combine(y)), y @ flat),
                          (kernels.real_vectors(sc.least_norm(y)), coeffs @ flat)):
        assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()
    # each matrix of a stack gets the bits of a stack of one
    for k in range(6):
        assert np.array_equal(sc.dot(x[k:k + 1])[0], sc.dot(x)[k])
        assert np.array_equal(sc.combine(y[k:k + 1])[0], sc.combine(y)[k])
        assert np.array_equal(sc.least_norm(y[k:k + 1])[0], sc.least_norm(y)[k])


@pytest.mark.parametrize("dims, rows, most", [((8, 8), 449, 6e6), ((9, 9), 649, 4e6)])
def test_sign_family_holds_no_dense_row_store(dims, rows, most):
    # 448 pins and the trace row over 64 x 64: the dense rows alone would
    # take 28 MB, where the gather tables take under 5 MB; at (9, 9) one
    # m x m float64 table takes 3.4 MB, and `schur`, which writes M from the
    # row layout, needs none
    tracemalloc.start()
    try:
        family = sdp.constraint_family(*sdp._sign_constraints(*dims))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    sc = family.constraints
    assert sc.m == rows
    assert held <= most
    assert all(np.size(getattr(sc, name)) < sc.m * sc.m for name in type(sc).__slots__)


@pytest.mark.parametrize("build, dims, most", [
    (sdp.sign_family, (8, 8), 16e6), (search._mio_family, (6, 6), 8e6),
])
def test_an_uncached_family_build_forms_no_matrix_per_pin(build, dims, most):
    # the pins arrive as positions: one n x n complex matrix per pin would
    # take 29 MB at sign_family(8, 8) alone, and a build peaked at 85.6 MB
    # when it formed them; `__wrapped__` passes the cache
    tracemalloc.start()
    try:
        build.__wrapped__(*dims)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= most


@pytest.mark.parametrize("family, dims, unit, dense", [
    (sdp.sign_family, (4, 4), 48, 1), (sdp.sign_family, (2, 2), 4, 1),
    (search._mio_family, (2, 2), 4, 4),
])
def test_schur_gathers_every_row_but_the_dense_ones(family, dims, unit, dense):
    sc = family(*dims).constraints
    assert (len(sc.unit_rows), len(sc.dense_rows)) == (unit, dense)
    assert not (sc.unit_rows.flags.writeable or sc.dense_rows.flags.writeable)


@pytest.mark.parametrize("family, dims", SOLVER_FAMILIES)
def test_stacked_schur_matches_per_matrix_schur(rng, family, dims):
    # the MIO families have several dense rows, so the strided writes of
    # every block of M are checked, the dense ones too
    sc = family(*dims).constraints
    w = _random_weights(rng, sc.n, 12)
    stacked = sc.schur(w)
    assert stacked.shape == (12, sc.m, sc.m)
    for wk, mk in zip(w, stacked):
        assert np.array_equal(mk, sc.schur(wk))


def test_ascent_improves_and_matches_reference(rng):
    d = 3
    r_stack = np.stack([
        0.5 * (m + m.conj().T)
        for m in (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                  for _ in range(2))
    ])

    def direct(x):
        v = x[:d] + 1j * x[d:]
        v = v / np.linalg.norm(v)
        return sum(abs((v.conj() @ r @ v).real) for r in r_stack)

    x0 = rng.standard_normal(2 * d)
    x, value = kernels.pure_state_ascent(r_stack, x0, max_sweeps=50)
    assert value >= direct(x0) - 1e-12
    assert value == pytest.approx(direct(x), abs=1e-12)


def test_objective_matches_direct_sum(rng):
    # with no sweeps the ascent only evaluates its objective at the start
    d = 4
    r_stack = np.stack([
        0.5 * (m + m.conj().T)
        for m in (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                  for _ in range(3))
    ])
    x0 = rng.standard_normal(2 * d)
    v = x0[:d] + 1j * x0[d:]
    v = v / np.linalg.norm(v)
    direct = sum(abs((v.conj() @ r @ v).real) for r in r_stack)
    x, value = kernels.pure_state_ascent(r_stack, x0, max_sweeps=0)
    assert np.array_equal(x, x0)
    assert value == pytest.approx(direct, abs=1e-12)

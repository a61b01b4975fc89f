"""Numeric kernels, pure numpy.

Assembly of the interior-point Schur complement
``M[k,l] = Re tr(H_k W H_l W)`` over sparse complex Hermitian constraint
matrices (`SparseConstraints.schur`): entries between rows that pin one
entry of X are gathered from W, and only the other rows, such as the trace
row, take dense products W H W.  The same split serves ``A(X)``
(`SparseConstraints.dot`): a row that pins one entry of X gathers two
float64 slots of X, and only the other rows take a dense product.
``A*(y)`` (`SparseConstraints.combine`) gathers each slot of X from the
one row that owns it.  Also the least-norm solution of ``A(X) = r`` that
keeps the interior-point iterates primal-feasible
(`SparseConstraints.least_norm`), and a pure-state coordinate ascent
(`pure_state_ascent`) that the tests use as an independent reference for the
exact oracle in `search`.
"""

import numpy as np

from .errors import ValidationError


# ---------------------------------------------------------------------------
# Sparse constraint representation
# ---------------------------------------------------------------------------

class SparseConstraints:
    """m sparse Hermitian matrices H_k sharing one shape, each owning its
    float64 slots of vec X: `ValidationError` unless no slot of [Re, Im] X is
    read by two rows and no row has norm <= 1e-10.  So the rows are
    independent, their real Gram matrix Re tr(H_k H_l) is diagonal, and
    ``A*(y) = sum_k y_k H_k`` takes one term per slot; ``A(X)`` is the
    vector of Re tr(H_k X).  The rows are split once for `schur` and `dot`:
    each of ``unit_rows`` is g E_pq + conj(g) E_qp with p <= q and g real or
    imaginary, and ``dense_rows``, the only rows kept as matrices, are the rest.
    """

    __slots__ = ("m", "n", "gram_inv", "unit_rows", "dense_rows", "_dense_flat", "_reads",
                 "_read_weights", "_unit_reads", "_unit_read_weights", "_slot_rows",
                 "_slot_weights", "_gather", "_stacked", "_assemble", "_weights")

    def __init__(self, matrices):
        self.m = m = len(matrices)
        dense = np.array(matrices, dtype=complex)
        self.n = n = dense.shape[-1]
        flat = real_vectors(dense)  # one row per H_k
        touched = flat != 0.0
        if touched.sum(axis=0).max() > 1:
            raise ValidationError("constraint rows share a slot of vec X")
        norms = np.einsum("kj,kj->k", flat, flat)  # the diagonal of the Gram matrix
        if (norms <= 1e-20).any():
            raise ValidationError("constraint row of norm <= 1e-10")
        self.gram_inv = 1.0 / norms
        # Unit rows: one nonzero in the upper triangle, at (p, q), with g = h_pq
        # (h_pp / 2 on the diagonal) real (a Re row) or imaginary (an Im row)
        r, p, q = np.nonzero(dense)
        r, p, q = r[p <= q], p[p <= q], q[p <= q]
        single = (np.bincount(r, minlength=m) == 1)[r]
        rows, p, q = r[single], p[single], q[single]
        g = dense[rows, p, q] * np.where(p == q, 0.5, 1.0)
        unit = (g.real == 0.0) | (g.imag == 0.0)
        self.unit_rows = u = rows[unit]
        self.dense_rows = d = np.flatnonzero(np.bincount(u, minlength=m) == 0)
        im, v = (g[unit].real == 0.0).astype(np.intp), g[unit].real + g[unit].imag
        # `dot` reads two entries per row from vec X followed by the products of
        # the dense rows: a unit row reads Re or Im of X[p,q] and of X[q,p],
        # weighted by its own entries, and a row with a single entry to read
        # (a diagonal unit row, or a dense row its product) reads it twice at
        # half weight, which sums to that entry times its weight exactly.
        # `schur` reads the unit rows' two slots of each T_l the same way.
        pu, qu = p[unit], q[unit]
        self._dense_flat = flat[d]
        self._reads = reads = np.empty((2, m), dtype=np.intp)
        self._read_weights = read_weights = np.full((2, m), 0.5)
        reads[:, u] = 2 * np.stack([pu * n + qu, qu * n + pu]) + im
        read_weights[:, u] = flat[u, reads[:, u]] * np.where(pu == qu, 0.5, 1.0)
        reads[:, d] = 2 * n * n + np.arange(len(d))
        self._unit_reads, self._unit_read_weights = reads[:, u], read_weights[:, u]
        # `combine` reads each slot of vec A*(y) from its row, or row 0 at weight 0
        self._slot_rows = touched.argmax(axis=0)
        self._slot_weights = flat[self._slot_rows, np.arange(flat.shape[1])]
        # The Re and Im rows of one functional share their position (p, q), so
        # W is gathered once per pair of positions a, b: W[p_b,q_a], W[q_a,q_b]
        # and W[p_b,p_a], at flat indices into W.  (np.unique would do, but
        # its first call imports numpy.ma.)
        key = pu * n + qu
        positions = np.flatnonzero(np.bincount(key, minlength=n * n))
        slot = np.searchsorted(positions, key)
        p, q = np.divmod(positions, n)
        self._gather = np.stack([p * n + q[:, None], q[:, None] * n + q, p * n + p[:, None]])
        self._stacked = dense[d].reshape(len(d) * n, n)  # for H_l W of every dense l
        # Where `schur` reads each entry of M, and its weight: a Re row k reads
        # E, an Im row F, at (s_k, s_l), the real part if row l is of the same
        # kind, else the imaginary part (negated from an Im to a Re row).
        npos, nu, nd = len(positions), len(u), len(d)
        self._assemble = index = np.empty((m, m), dtype=np.intp)
        self._weights = weights = np.ones((m, m))
        index[u[:, None], u] = np.ravel_multi_index(
            (im[:, None], slot[:, None], slot, im[:, None] ^ im), (2, npos, npos, 2))
        weights[u[:, None], u] = np.outer(v, v) * np.where(im[:, None] > im, -1.0, 1.0)
        index[d[:, None], u] = 4 * npos * npos + np.arange(nd * nu).reshape(nd, nu)
        index[u[:, None], d] = index[d[:, None], u].T
        index[d[:, None], d] = 4 * npos * npos + nd * nu + np.arange(nd * nd).reshape(nd, nd)
        weights[d[:, None], d] = 0.5
        for part in (self.gram_inv, u, d, self._dense_flat, reads, read_weights, self._unit_reads,
                     self._unit_read_weights, self._slot_rows, self._slot_weights,
                     self._gather, self._stacked, index, weights):
            part.flags.writeable = False

    def dot(self, x):
        """Vector of Re tr(H_k X); a stack of X gives one row per matrix.

        Each row is a gather of two entries: of vec X for a unit row, of the
        product of a dense row with vec X for a dense row.  Each matrix of a
        stack takes its own product, so its row does not depend on the other
        matrices of the stack.
        """
        vec = real_vectors(x)
        ext = np.concatenate([vec, (self._dense_flat @ vec[..., None])[..., 0]], axis=-1)
        terms = ext[..., self._reads] * self._read_weights
        return terms[..., 0, :] + terms[..., 1, :]

    def combine(self, y):
        """sum_k y_k H_k; a stack of y gives one matrix per row, each computed alone.

        Each slot of vec A*(y) is a gather of the one row that owns it.
        """
        flat = np.take(y, self._slot_rows, axis=-1) * self._slot_weights
        return flat.view(complex).reshape(*y.shape[:-1], self.n, self.n)

    def least_norm(self, r):
        """The least-norm X with A(X) = r, that is A^*(G^-1 r) for the
        diagonal Gram matrix G; a stack of r gives one matrix per row, each
        computed alone, as in `combine`."""
        return self.combine(r * self.gram_inv)

    def schur(self, w):
        """Matrix M[k,l] = Re tr(H_k W H_l W); a stack of W gives one matrix per W.

        Between unit rows the entries are gathered from W (Fujisawa, Kojima
        & Nakata, Math. Program. 79, 1997): with A[k,l] = W[q_k,p_l] W[q_l,p_k]
        and B[k,l] = W[q_k,q_l] W[p_l,p_k], taken once per pair of positions,
        M[k,l] = 2 Re(g_k g_l A + g_k conj(g_l) B).  For g = v (a Re row) or
        g = i v (an Im row), M / (2 v_k v_l) is a real or imaginary part of
        E = B + conj(A) or F = B - conj(A).  A dense row l takes the product
        T_l = W H_l W and fills its row and column with <vec H_k, vec T_l>:
        a unit row k gathers its two slots of vec T_l, as `dot` does, and the
        dense rows take one product with every slot of vec T_l.  A, B and the
        block between dense rows are summed with their transposes first, so
        M is symmetric to the last bit.  Each W of a stack takes the same
        products as alone, so its matrix does not depend on the other
        matrices of the stack.
        """
        if w.ndim == 2:
            return self.schur(w[None])[0]
        k, d = w.shape[0], self.dense_rows
        w_pq, w_qq, w_pp = w.reshape(k, -1)[:, self._gather].swapaxes(0, 1)
        a = w_pq * w_pq.swapaxes(-1, -2)  # conj(A), as W is Hermitian
        a = a + a.swapaxes(-1, -2)
        b = w_qq * w_pp
        b += b.conj().swapaxes(-1, -2)
        # T_l = W H_l W is Hermitian, so Re tr(H_k T_l) = <vec H_k, vec T_l>
        t = real_vectors(w[:, None] @ (self._stacked @ w).reshape(k, len(d), *w.shape[1:]))
        terms = t[..., self._unit_reads] * self._unit_read_weights
        both = self._dense_flat @ t.swapaxes(-1, -2)
        blocks = (real_vectors(b + a), real_vectors(b - a), terms[..., 0, :] + terms[..., 1, :],
                  both + both.swapaxes(-1, -2))
        out = np.concatenate([x.reshape(k, -1) for x in blocks], axis=1)[:, self._assemble]
        out *= self._weights
        return out


def real_vectors(a):
    """The real vectorizations [Re, Im] of a complex matrix or a stack of them,
    the float64 view of its entries: Re tr(H X) = <vec H, vec X> for Hermitian H."""
    a = np.ascontiguousarray(a, dtype=complex)
    return a.view(np.float64).reshape(*a.shape[:-2], 2 * a.shape[-2] * a.shape[-1])


# ---------------------------------------------------------------------------
# Pure-state coordinate ascent
# ---------------------------------------------------------------------------

# The ascent's first coordinate step, and the step below which it stops.
ASCENT_STEP = 0.3
ASCENT_MIN_STEP = 1e-6


def pure_state_ascent(r_stack, x0, max_sweeps=60):
    """Cyclic coordinate ascent of sum_n |v^dag R_n v| over pure states.

    ``x0`` is the real encoding [Re v, Im v] of the start, normalized at
    each evaluation.  Each sweep tries +-step on every coordinate and keeps
    a move that raises the value; a sweep without one halves the step, which
    starts at ``ASCENT_STEP`` and ends the ascent below ``ASCENT_MIN_STEP``.
    Returns (x, value at x).
    """
    r_stack = np.ascontiguousarray(r_stack, dtype=np.complex128)
    d = r_stack.shape[1]

    def objective(x):
        v = x[:d] + 1j * x[d:]
        nrm = np.linalg.norm(v)
        if nrm == 0.0:
            return 0.0
        v = v / nrm
        vals = np.einsum("i,nij,j->n", v.conj(), r_stack, v).real
        return float(np.sum(np.abs(vals)))

    x = np.array(x0, dtype=np.float64)
    best = objective(x)
    step = ASCENT_STEP
    sweeps = 0
    while step >= ASCENT_MIN_STEP and sweeps < max_sweeps:
        sweeps += 1
        improved = False
        for c in range(x.size):
            for sgn in (1.0, -1.0):
                old = x[c]
                x[c] = old + sgn * step
                val = objective(x)
                if val > best + 1e-15:
                    best = val
                    improved = True
                else:
                    x[c] = old
        if not improved:
            step *= 0.5
    return x, best

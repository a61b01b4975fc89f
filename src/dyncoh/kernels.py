"""Numeric kernels, pure numpy.

Assembly of the interior-point Schur complement ``M[k,l] = tr(A_k W A_l W)``
over sparse constraint matrices (`SparseConstraints.schur`, dense-batched in
`schur_numpy`, with the loop-based `schur_sparse_py` as its independent
reference), the least-norm solution of ``A(X) = r`` that keeps the
interior-point iterates primal-feasible (`SparseConstraints.least_norm`),
and a pure-state coordinate ascent (`pure_state_ascent`) that
the tests use as an independent reference for the exact oracle in `search`.
"""

import numpy as np


# ---------------------------------------------------------------------------
# Sparse constraint representation
# ---------------------------------------------------------------------------

class SparseConstraints:
    """CSR-style bundle of m sparse symmetric matrices sharing one shape."""

    __slots__ = ("rows", "cols", "vals", "offsets", "m", "n", "dense", "gram_inv")

    def __init__(self, matrices):
        self.m = len(matrices)
        self.n = matrices[0].shape[0] if self.m else 0
        rows, cols, vals, offsets = [], [], [], [0]
        for a in matrices:
            r, c = np.nonzero(a)
            rows.append(r)
            cols.append(c)
            vals.append(a[r, c])
            offsets.append(offsets[-1] + r.size)
        self.rows = np.concatenate(rows).astype(np.int64) if self.m else np.zeros(0, np.int64)
        self.cols = np.concatenate(cols).astype(np.int64) if self.m else np.zeros(0, np.int64)
        self.vals = np.concatenate(vals).astype(np.float64) if self.m else np.zeros(0)
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.dense = np.ascontiguousarray(np.stack(matrices)) if self.m else np.zeros((0, 0, 0))
        # inverse of the Gram matrix G = A A^*, G[k,l] = tr(A_k A_l), for `least_norm`
        flat = self.dense.reshape(self.m, self.n * self.n)
        self.gram_inv = np.linalg.pinv(flat @ flat.T, hermitian=True)

    def dot(self, x):
        """Vector of tr(A_k X); a stack of X gives one row per matrix.

        Each matrix of a stack takes its own matrix-vector product, so its
        row does not depend on the other matrices of the stack.
        """
        flat = x.reshape(*x.shape[:-2], -1, 1)
        return (self.dense.reshape(self.m, -1) @ flat)[..., 0]

    def combine(self, y):
        """sum_k y_k A_k; a stack of y gives one matrix per row, each computed alone."""
        flat = y[..., None, :] @ self.dense.reshape(self.m, -1)
        return flat.reshape(*y.shape[:-1], self.n, self.n)

    def least_norm(self, r):
        """The least-norm X with A(X) = r, that is A^*(G^-1 r); a stack of r
        gives one matrix per row, each computed alone, as in `combine`."""
        return self.combine((r[..., None, :] @ self.gram_inv)[..., 0, :])

    def schur(self, w):
        """Matrix M[k,l] = tr(A_k W A_l W); a stack of W gives one matrix per W.

        Each W of a stack takes the same products as alone, so its matrix
        does not depend on the other matrices of the stack.
        """
        return schur_numpy(self.dense, w)


# Byte budget of one (chunk, m, n, n) temporary of the Schur assembly.  It
# holds a whole stack of qubit sign programs (2.5 KiB each), while a 4 x 4
# sign program (400 KiB) is assembled alone, as an unstacked solve would.
SCHUR_TEMP_BYTES = 1 << 18


def schur_numpy(a_dense, w):
    """Dense-batched Schur assembly: M[k,l] = tr(A_k W A_l W), also stacked.

    A stack of W is assembled in chunks whose (chunk, m, n, n) temporaries
    stay within ``SCHUR_TEMP_BYTES`` whatever the stack length; a program
    whose temporaries alone exceed it is assembled by itself.
    """
    if w.ndim == 2:
        return schur_numpy(a_dense, w[None])[0]
    m, n = a_dense.shape[0], a_dense.shape[-1]
    a_rows = a_dense.reshape(m, -1)
    chunk = max(1, SCHUR_TEMP_BYTES // (m * n * n * a_dense.itemsize))
    out = np.empty((w.shape[0], m, m))
    for lo in range(0, w.shape[0], chunk):
        wc = w[lo:lo + chunk, None]
        t = np.matmul(wc, np.matmul(a_dense, wc))
        part = a_rows @ t.reshape(t.shape[0], m, -1).swapaxes(-1, -2)
        out[lo:lo + chunk] = 0.5 * (part + part.swapaxes(-1, -2))
    return out


def schur_sparse_py(rows, cols, vals, offsets, w):
    """Reference sparse assembly, one python loop over the nonzeros."""
    m = offsets.size - 1
    out = np.zeros((m, m))
    for k in range(m):
        for l in range(k, m):
            acc = 0.0
            for p in range(offsets[k], offsets[k + 1]):
                a, b, va = rows[p], cols[p], vals[p]
                wrow = w[b]
                for q in range(offsets[l], offsets[l + 1]):
                    acc += va * vals[q] * wrow[rows[q]] * w[cols[q], a]
            out[k, l] = acc
            out[l, k] = acc
    return out


# ---------------------------------------------------------------------------
# Pure-state coordinate ascent
# ---------------------------------------------------------------------------

def objective_numpy(r_stack, x):
    """sum_n |v^dag R_n v| with v the normalized complex vector encoded by x."""
    d = r_stack.shape[1]
    v = x[:d] + 1j * x[d:]
    nrm = np.linalg.norm(v)
    if nrm == 0.0:
        return 0.0
    v = v / nrm
    vals = np.einsum("i,nij,j->n", v.conj(), r_stack, v).real
    return float(np.sum(np.abs(vals)))


def ascent_numpy(r_stack, x0, max_sweeps, step0, min_step):
    """Cyclic coordinate ascent on the real encoding of a pure state."""
    x = x0.copy()
    best = objective_numpy(r_stack, x)
    step = step0
    sweeps = 0
    while step >= min_step and sweeps < max_sweeps:
        sweeps += 1
        improved = False
        for c in range(x.size):
            for sgn in (1.0, -1.0):
                old = x[c]
                x[c] = old + sgn * step
                val = objective_numpy(r_stack, x)
                if val > best + 1e-15:
                    best = val
                    improved = True
                else:
                    x[c] = old
        if not improved:
            step *= 0.5
    return x, best


def pure_state_ascent(r_stack, x0, max_sweeps=60, step0=0.3, min_step=1e-6):
    """Refine a pure-state encoding x0; returns (x, objective value)."""
    r_stack = np.ascontiguousarray(r_stack, dtype=np.complex128)
    x0 = np.ascontiguousarray(x0, dtype=np.float64)
    return ascent_numpy(r_stack, x0, max_sweeps, step0, min_step)

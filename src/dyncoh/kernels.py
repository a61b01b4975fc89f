"""Numeric kernels, pure numpy.

Assembly of the interior-point Schur complement
``M[k,l] = Re tr(H_k W H_l W)`` over sparse complex Hermitian constraint
matrices (`SparseConstraints.schur`, dense-batched in `schur_numpy`, with the
loop-based `schur_sparse_py` as its independent reference), the least-norm
solution of ``A(X) = r`` that keeps the interior-point iterates
primal-feasible (`SparseConstraints.least_norm`), and a pure-state coordinate
ascent (`pure_state_ascent`) that the tests use as an independent reference
for the exact oracle in `search`.
"""

import numpy as np


# ---------------------------------------------------------------------------
# Sparse constraint representation
# ---------------------------------------------------------------------------

class SparseConstraints:
    """m sparse Hermitian matrices H_k sharing one shape, held densely.

    ``A(X)`` is the vector of Re tr(H_k X) and ``A*(y)`` is sum_k y_k H_k.
    """

    __slots__ = ("m", "n", "dense", "flat", "gram_inv")

    def __init__(self, matrices):
        self.m = len(matrices)
        self.dense = np.array(matrices, dtype=complex) if self.m else np.zeros((0, 0, 0), complex)
        self.n = self.dense.shape[-1]
        # real vectorizations [Re, Im] of the H_k, one row each
        self.flat = real_vectors(self.dense)
        # inverse of the real Gram matrix G[k,l] = Re tr(H_k H_l), for `least_norm`
        self.gram_inv = np.linalg.pinv(self.flat @ self.flat.T, hermitian=True)

    def dot(self, x):
        """Vector of Re tr(H_k X); a stack of X gives one row per matrix.

        Each matrix of a stack takes its own matrix-vector product, so its
        row does not depend on the other matrices of the stack.
        """
        return (self.flat @ real_vectors(x)[..., None])[..., 0]

    def combine(self, y):
        """sum_k y_k H_k; a stack of y gives one matrix per row, each computed alone."""
        flat = (y[..., None, :] @ self.flat)[..., 0, :]
        return flat.view(complex).reshape(*y.shape[:-1], self.n, self.n)

    def least_norm(self, r):
        """The least-norm X with A(X) = r, that is A^*(G^-1 r); a stack of r
        gives one matrix per row, each computed alone, as in `combine`."""
        return self.combine((r[..., None, :] @ self.gram_inv)[..., 0, :])

    def schur(self, w):
        """Matrix M[k,l] = Re tr(H_k W H_l W); a stack of W gives one matrix per W.

        Each W of a stack takes the same products as alone, so its matrix
        does not depend on the other matrices of the stack.
        """
        return schur_numpy(self.dense, w)


def real_vectors(a):
    """The real vectorizations [Re, Im] of a complex matrix or a stack of them,
    the float64 view of its entries: Re tr(H X) = <vec H, vec X> for Hermitian H."""
    a = np.ascontiguousarray(a, dtype=complex)
    return a.view(np.float64).reshape(*a.shape[:-2], -1)


# Byte budget of one (chunk, m, n, n) temporary of the Schur assembly.  It
# holds a whole stack of qubit sign programs (1.25 KiB each), while a 4 x 4
# sign program (196 KiB) is assembled alone, as an unstacked solve would.
SCHUR_TEMP_BYTES = 1 << 18


def schur_numpy(a_dense, w):
    """Dense-batched Schur assembly: M[k,l] = Re tr(H_k W H_l W), also stacked.

    A stack of W is assembled in chunks whose (chunk, m, n, n) temporaries
    stay within ``SCHUR_TEMP_BYTES`` whatever the stack length; a program
    whose temporaries alone exceed it is assembled by itself.
    """
    if w.ndim == 2:
        return schur_numpy(a_dense, w[None])[0]
    m, n = a_dense.shape[0], a_dense.shape[-1]
    a_rows = real_vectors(a_dense)
    chunk = max(1, SCHUR_TEMP_BYTES // (m * n * n * a_dense.itemsize))
    out = np.empty((w.shape[0], m, m))
    for lo in range(0, w.shape[0], chunk):
        wc = w[lo:lo + chunk, None]
        # T_l = W H_l W is Hermitian, so Re tr(H_k T_l) = <vec H_k, vec T_l>
        t = real_vectors(np.matmul(wc, np.matmul(a_dense, wc)))
        part = a_rows @ t.swapaxes(-1, -2)
        out[lo:lo + chunk] = 0.5 * (part + part.swapaxes(-1, -2))
    return out


def schur_sparse_py(matrices, w):
    """Reference sparse assembly, one python loop over the nonzeros."""
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

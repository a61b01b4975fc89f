"""Hot numeric kernels with selectable backend.

Two inner loops dominate runtime: assembly of the interior-point Schur
complement ``M[k,l] = tr(A_k W A_l W)`` (constraint matrices are extremely
sparse) and the pure-state coordinate-ascent refinement used by the search
module.  Both ship in a numba ``@njit`` variant and a pure-numpy variant.

Backend selection, resolved at import time:

* ``DYNCOH_BACKEND=numpy``  force the pure-numpy path
* ``DYNCOH_BACKEND=numba``  force numba (raises if numba is unavailable)
* unset                     numba when importable, numpy otherwise

numba is the optional ``jit`` extra of the package.
"""

import math
import os

import numpy as np

_env = os.environ.get("DYNCOH_BACKEND", "").strip().lower()

try:
    from numba import njit

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised via env flag instead
    _HAVE_NUMBA = False

if _env in ("numpy", "python"):
    USE_NUMBA = False
elif _env in ("numba", "jit"):
    if not _HAVE_NUMBA:
        raise ImportError("DYNCOH_BACKEND=numba but numba is not importable")
    USE_NUMBA = True
elif _env == "":
    USE_NUMBA = _HAVE_NUMBA
else:
    raise ValueError(f"unrecognized DYNCOH_BACKEND value {_env!r}")


# ---------------------------------------------------------------------------
# Sparse constraint representation
# ---------------------------------------------------------------------------

class SparseConstraints:
    """CSR-style bundle of m sparse symmetric matrices sharing one shape."""

    __slots__ = ("rows", "cols", "vals", "offsets", "m", "n", "dense")

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

    def schur(self, w):
        """Matrix M[k,l] = tr(A_k W A_l W); a stack of W gives one matrix per W.

        Each W of a stack takes the same products as alone, so its matrix
        does not depend on the other matrices of the stack.
        """
        if USE_NUMBA:
            if w.ndim == 2:
                return _schur_numba(self.rows, self.cols, self.vals, self.offsets, w)
            return np.stack([_schur_numba(self.rows, self.cols, self.vals, self.offsets, wk)
                             for wk in w])
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
    """Reference sparse assembly (python loop; numba compiles the same body)."""
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


if _HAVE_NUMBA:

    @njit(cache=True)
    def _schur_numba(rows, cols, vals, offsets, w):
        m = offsets.size - 1
        out = np.zeros((m, m))
        for k in range(m):
            for l in range(k, m):
                acc = 0.0
                for p in range(offsets[k], offsets[k + 1]):
                    a = rows[p]
                    b = cols[p]
                    va = vals[p]
                    for q in range(offsets[l], offsets[l + 1]):
                        acc += va * vals[q] * w[b, rows[q]] * w[cols[q], a]
                out[k, l] = acc
                out[l, k] = acc
        return out

    @njit(cache=True)
    def _objective_numba(r_stack, x):
        nmat = r_stack.shape[0]
        d = r_stack.shape[1]
        nrm2 = 0.0
        for i in range(2 * d):
            nrm2 += x[i] * x[i]
        if nrm2 == 0.0:
            return 0.0
        inv = 1.0 / math.sqrt(nrm2)
        v = np.empty(d, dtype=np.complex128)
        for i in range(d):
            v[i] = complex(x[i], x[d + i]) * inv
        total = 0.0
        for n in range(nmat):
            acc = 0.0
            for i in range(d):
                row = 0.0 + 0.0j
                for j in range(d):
                    row += r_stack[n, i, j] * v[j]
                acc += (np.conj(v[i]) * row).real
            total += abs(acc)
        return total

    @njit(cache=True)
    def _ascent_numba(r_stack, x0, max_sweeps, step0, min_step):
        x = x0.copy()
        best = _objective_numba(r_stack, x)
        step = step0
        sweeps = 0
        while step >= min_step and sweeps < max_sweeps:
            sweeps += 1
            improved = False
            for c in range(x.size):
                for s in range(2):
                    sgn = 1.0 if s == 0 else -1.0
                    old = x[c]
                    x[c] = old + sgn * step
                    val = _objective_numba(r_stack, x)
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
    if USE_NUMBA:
        return _ascent_numba(r_stack, x0, max_sweeps, step0, min_step)
    return ascent_numpy(r_stack, x0, max_sweeps, step0, min_step)

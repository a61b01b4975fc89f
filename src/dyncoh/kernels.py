"""Numeric kernels, pure numpy.

Assembly of the interior-point Schur complement
``M[k,l] = Re tr(H_k W H_l W)`` over sparse complex Hermitian constraint
matrices (`SparseConstraints.schur`).  The constraints arrive as a few
dense rows, such as the trace row, and pins, positions (p, q) whose entry
X[p, q] two rows read.  Entries between the pins' rows are gathered from
W, only the dense rows take products W H W, and M is written in place
from the row layout.  The same split serves ``A(X)``
(`SparseConstraints.dot`): a pin's row gathers two float64 slots of X,
and only the dense rows take a product.  ``A*(y)``
(`SparseConstraints.combine`) gathers each slot of X from the one row
that owns it.  Also the least-norm solution of ``A(X) = r`` that keeps
the interior-point iterates primal-feasible
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
    """m sparse Hermitian matrices H_k on n x n blocks: the dense rows
    ``matrices`` (at least one, which fixes n), then two rows per pin.

    A pin (p, q), one entry of the index arrays ``p`` and ``q``, is the pair
    of rows that read X[p, q]: a Re row (E_pq + E_qp) / 2 and an Im row
    (E_pq - E_qp) / 2i.  `ValidationError` unless 0 <= p < q < n, no slot of
    [Re, Im] X is read by two rows and no dense row has norm <= 1e-10.  So
    the rows are independent, their real Gram matrix Re tr(H_k H_l) is
    diagonal, and ``A*(y) = sum_k y_k H_k`` takes one term per slot;
    ``A(X)`` is the vector of Re tr(H_k X).  ``dense_rows`` are the rows
    kept as matrices, ``unit_rows`` the pins' rows, which `schur` and `dot`
    gather from W and X.  As a pin's Re and Im rows alternate, `schur` writes
    M by strided slices, with no table of where each entry comes from.
    """

    __slots__ = ("m", "n", "gram_inv", "unit_rows", "dense_rows", "_dense_flat", "_stacked",
                 "_pin_reads", "_pin_weights", "_slot_rows", "_slot_weights", "_gather")

    def __init__(self, matrices, p, q):
        dense = np.array(matrices, dtype=complex)
        p, q = np.asarray(p, dtype=np.intp), np.asarray(q, dtype=np.intp)
        nd, npin = len(dense), len(p)
        self.n, self.m = n, m = dense.shape[-1], nd + 2 * npin
        if not ((0 <= p) & (p < q) & (q < n)).all():
            raise ValidationError("a pin (p, q) needs 0 <= p < q < n")
        flat = real_vectors(dense)  # one row per dense H_k
        # A pin's Re row reads the Re slots of X[p,q] and X[q,p] at weights
        # 1/2 and 1/2, its Im row the Im slots, one further on, at -1/2 and 1/2
        re = 2 * np.stack([p * n + q, q * n + p])
        reads = np.stack([re, re + 1], axis=-1).reshape(2, 2 * npin)
        read_weights = np.tile([[0.5, -0.5], [0.5, 0.5]], npin)
        touched = np.count_nonzero(flat, axis=0) + np.bincount(reads.ravel(), minlength=2 * n * n)
        if touched.max() > 1:
            raise ValidationError("constraint rows share a slot of vec X")
        norms = np.einsum("kj,kj->k", flat, flat)  # the diagonal of the Gram matrix
        if (norms <= 1e-20).any():
            raise ValidationError("constraint row of norm <= 1e-10")
        self.gram_inv = 1.0 / np.concatenate([norms, np.full(2 * npin, 0.5)])
        self.dense_rows, self.unit_rows = d, u = np.arange(nd), np.arange(nd, m)
        self._dense_flat, self._stacked = flat, dense.reshape(nd * n, n)  # one buffer
        self._pin_reads, self._pin_weights = reads, read_weights
        # `combine` reads each slot of vec A*(y) from its row, or row 0 at weight 0
        rows, slots = np.nonzero(flat)
        self._slot_rows = np.zeros(2 * n * n, dtype=np.intp)
        self._slot_weights = np.zeros(2 * n * n)
        self._slot_rows[slots], self._slot_weights[slots] = rows, flat[rows, slots]
        self._slot_rows[reads], self._slot_weights[reads] = u, read_weights
        # The Re and Im rows of a pin share its position, so W is gathered once
        # per pair of pins a, b: W[p_b,q_a], W[q_a,q_b] and W[p_b,p_a], at flat
        # indices into W.
        self._gather = np.stack([p * n + q[:, None], q[:, None] * n + q, p * n + p[:, None]])
        for part in (self.gram_inv, u, d, flat, self._stacked, reads, read_weights,
                     self._slot_rows, self._slot_weights, self._gather):
            part.flags.writeable = False

    def dot(self, x):
        """Vector of Re tr(H_k X); a stack of X gives one row per matrix.

        A dense row takes its product with vec X, and a pin's row is a
        gather of its two slots of vec X, at its weights.  Each matrix of a
        stack takes its own product, so its row does not depend on the other
        matrices of the stack.
        """
        vec = real_vectors(x)
        dense = (self._dense_flat @ vec[..., None])[..., 0]
        return np.concatenate([dense, self._pin_terms(vec)], axis=-1)

    def _pin_terms(self, vec):
        """The pins' rows of real vectorizations ``vec``: two slots each, weighted."""
        terms = vec[..., self._pin_reads] * self._pin_weights
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

        Between the pins' rows the entries are gathered from W (Fujisawa,
        Kojima & Nakata, Math. Program. 79, 1997): a row g E_pq + conj(g) E_qp
        of pin (p, q) has g = v = 1/2 (its Re row) or g = i v, v = -1/2 (its
        Im row).  With A[k,l] = W[q_k,p_l] W[q_l,p_k] and B[k,l] =
        W[q_k,q_l] W[p_l,p_k], taken once per pair of pins,
        M[k,l] = 2 Re(g_k g_l A + g_k conj(g_l) B), so M / (2 v_k v_l) is a
        real or imaginary part of E = B + conj(A) or F = B - conj(A), written
        into a strided slice of M: E.real / 4 between Re rows, F.real / 4
        between Im rows, -E.imag / 4 from a Re to an Im row and F.imag / 4
        back.  A dense row l takes the product T_l = W H_l W and fills its row
        and column with <vec H_k, vec T_l>: a pin's row k gathers its two
        slots of vec T_l, as `dot` does, and the dense rows take one product
        with every slot of vec T_l.  A, B and the block between dense rows are
        summed with their transposes first, so M is symmetric to the last bit.
        Each W of a stack takes the same products as alone, so its matrix does
        not depend on the other matrices of the stack.
        """
        if w.ndim == 2:
            return self.schur(w[None])[0]
        k, nd = w.shape[0], len(self.dense_rows)
        w_pq, w_qq, w_pp = w.reshape(k, -1)[:, self._gather].swapaxes(0, 1)
        a = w_pq * w_pq.swapaxes(-1, -2)  # conj(A), as W is Hermitian
        a = a + a.swapaxes(-1, -2)
        b = w_qq * w_pp
        b += b.conj().swapaxes(-1, -2)
        e, f = b + a, b - a
        # T_l = W H_l W is Hermitian, so Re tr(H_k T_l) = <vec H_k, vec T_l>
        t = real_vectors(w[:, None] @ (self._stacked @ w).reshape(k, nd, *w.shape[1:]))
        both = self._dense_flat @ t.swapaxes(-1, -2)
        out = np.empty((k, self.m, self.m))
        out[:, nd::2, nd::2] = 0.25 * e.real  # pin a's rows are nd + 2a (Re) and nd + 2a + 1 (Im)
        out[:, nd::2, nd + 1::2] = -0.25 * e.imag
        out[:, nd + 1::2, nd::2] = 0.25 * f.imag
        out[:, nd + 1::2, nd + 1::2] = 0.25 * f.real
        out[:, :nd, nd:] = self._pin_terms(t)
        out[:, nd:, :nd] = out[:, :nd, nd:].swapaxes(-1, -2)
        out[:, :nd, :nd] = 0.5 * (both + both.swapaxes(-1, -2))
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

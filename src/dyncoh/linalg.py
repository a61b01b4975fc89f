"""Dense complex matrix substrate.

Everything in this package works on plain ``numpy`` arrays of dtype
complex128.  Subsystem dimensions stay small (<= 16), so all routines are
dense and favour clarity over asymptotics.
"""

import numpy as np

from .errors import DimensionMismatch, ValidationError

# Absolute tolerance on max entry deviation ||M - M^dag||_max.  SDP and
# eigensolver outputs carry noise well below this.
HERMITICITY_ATOL = 1e-10


def dagger(m):
    """Conjugate transpose (of each matrix of a stack)."""
    return np.swapaxes(m.conj(), -1, -2)


def max_abs(m):
    """Largest entry magnitude, 0.0 for empty input."""
    m = np.asarray(m)
    return float(np.max(np.abs(m))) if m.size else 0.0


def is_hermitian(m, atol=HERMITICITY_ATOL):
    m = np.asarray(m)
    return m.ndim == 2 and m.shape[0] == m.shape[1] and max_abs(m - dagger(m)) <= atol


def hermitian_part(m):
    """(M + M^dag)/2, also stacked."""
    return 0.5 * (m + dagger(m))


def _require_finite(m, what="matrix"):
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValidationError(f"{what} contains NaN or Inf entries")


def _require_hermitian(m, atol, what="matrix"):
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionMismatch(f"{what} must be square, got shape {m.shape}")
    _require_finite(m, what)
    dev = max_abs(m - dagger(m))
    if dev > atol:
        raise ValidationError(f"{what} is not Hermitian: max deviation {dev:.3e} > {atol:.1e}")
    return m


def partial_trace(m, dims, keep):
    """Trace out one factor of a bipartite operator, or of each of a stack.

    Parameters
    ----------
    m : array, shape (..., dA*dB, dA*dB)
        Operator on the tensor product A (x) B, or a stack of them.
    dims : (int, int)
        Dimensions (dA, dB).
    keep : int
        0 keeps subsystem A (traces out B), 1 keeps B.

    The total trace is preserved: tr(out) == tr(m).
    """
    da, db = dims
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-2:] != (da * db, da * db):
        raise DimensionMismatch(
            f"operator shape {m.shape} incompatible with subsystem dims ({da},{db})"
        )
    r = m.reshape(*m.shape[:-2], da, db, da, db)
    if keep == 0:
        return np.einsum("...abcb->...ac", r)
    if keep == 1:
        return np.einsum("...abad->...bd", r)
    raise ValidationError(f"keep must be 0 or 1, got {keep!r}")


def eig_hermitian(m, atol=HERMITICITY_ATOL):
    """Eigendecomposition of a Hermitian matrix, or of each matrix of a stack.

    The input is validated against ``atol`` (every matrix of a stack) and
    symmetrized before the decomposition so solver noise cannot leak into
    complex eigenvalues.

    Returns
    -------
    (w, v) : eigenvalues ascending (real, last axis), eigenvectors as columns.
    """
    m = _require_hermitian(m, atol)
    w, v = np.linalg.eigh(hermitian_part(m))
    return w, v


def trace_norm_hermitian(m, atol=HERMITICITY_ATOL):
    """Trace norm sum(|eigenvalues|) of a Hermitian matrix."""
    w, _ = eig_hermitian(m, atol)
    return float(np.sum(np.abs(w)))


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------

def basis_proj(dim, i):
    p = np.zeros((dim, dim), dtype=complex)
    p[i, i] = 1.0
    return p


def pure_state(v):
    """Density matrix |v><v| of a (normalized) state vector."""
    v = np.asarray(v, dtype=complex)
    n = np.linalg.norm(v)
    if n == 0:
        raise ValidationError("cannot normalize the zero vector")
    v = v / n
    return np.outer(v, v.conj())


def random_state_vector(dim, rng):
    """Haar-random pure state vector."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_pure_state(dim, rng):
    return pure_state(random_state_vector(dim, rng))


def random_density_matrix(dim, rng):
    """Random full-rank mixed state: GG^dag normalized, G a square Ginibre matrix."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ dagger(g)
    return rho / np.trace(rho).real

"""Quantum channel representations and the free-class membership tests.

The canonical internal form is the Choi matrix on ``out (x) in`` index order,

    J = sum_{i,j} Theta(|i><j|) (x) |i><j| ,

so ``J[(k,i),(l,j)] = <k| Theta(|i><j|) |l>``.  Kraus sets and the 4-index
coefficient view are derived from it.  The computational basis is the
incoherent basis throughout.

Free classes:

* detection-incoherent (DI): output populations never depend on input
  coherences, equivalently ``coeff[i,j,k,k] == 0`` for all ``i != j``.
* maximally incoherent (MIO): incoherent states map to incoherent states,
  equivalently ``coeff[i,i,k,l] == 0`` for all ``k != l``.
"""

import json
from dataclasses import dataclass

import numpy as np

from . import linalg as la
from .errors import DimensionMismatch, ValidationError

# Flag / membership default tolerances.  Membership must exceed solver and
# eigensolver noise but still catch weakly resourceful mixtures.
FLAG_ATOL = 1e-9
MEMBERSHIP_ATOL = 1e-8
KRAUS_TRUNCATION = 1e-10


@dataclass(frozen=True, eq=False)
class LinearMap:
    """A linear map between operator spaces in Choi form.

    The three flags are guarantees, not exhaustive tests: a ``True`` flag
    asserts the property holds (within construction tolerance); ``False``
    means it is not guaranteed.
    """

    dim_in: int
    dim_out: int
    choi: np.ndarray
    hermiticity_preserving: bool
    completely_positive: bool
    trace_preserving: bool

    def __post_init__(self):
        d = self.dim_in * self.dim_out
        if self.dim_in < 1 or self.dim_out < 1:
            raise ValidationError("dimensions must be positive")
        if self.choi.shape != (d, d):
            raise DimensionMismatch(
                f"choi shape {self.choi.shape} inconsistent with dims "
                f"in={self.dim_in} out={self.dim_out}"
            )
        self.choi.flags.writeable = False


@dataclass(frozen=True, eq=False)
class Channel(LinearMap):
    """A LinearMap with all three CPTP flags true."""

    def __post_init__(self):
        super().__post_init__()
        if not (
            self.hermiticity_preserving
            and self.completely_positive
            and self.trace_preserving
        ):
            raise ValidationError("Channel requires all CPTP flags true")


def _cptp_flags(choi, dim_in, dim_out, atol):
    """(Hermitian, PSD, output-trace reduction equal to identity) within atol."""
    if not la.is_hermitian(choi, atol):
        return False, False, False
    cp = bool(np.linalg.eigvalsh(la.hermitian_part(choi)).min() >= -atol)
    red = la.partial_trace(choi, (dim_out, dim_in), keep=1)
    return True, cp, la.max_abs(red - np.eye(dim_in)) <= atol


def linear_map_from_choi(choi, dim_in, dim_out, atol=FLAG_ATOL):
    """Wrap a Choi matrix, computing the property flags numerically."""
    choi = np.ascontiguousarray(choi, dtype=complex)
    return LinearMap(dim_in, dim_out, choi, *_cptp_flags(choi, dim_in, dim_out, atol))


def channel_from_choi(choi, dim_in, dim_out, atol=FLAG_ATOL):
    m = linear_map_from_choi(choi, dim_in, dim_out, atol)
    if not (m.completely_positive and m.trace_preserving):
        raise ValidationError("Choi matrix is not CPTP within tolerance")
    return Channel(dim_in, dim_out, m.choi, True, True, True)


# ---------------------------------------------------------------------------
# Representation conversions
# ---------------------------------------------------------------------------

def from_kraus(kraus_ops, atol=FLAG_ATOL):
    """Build a Channel from a complete Kraus set.

    Completeness sum_n K_n^dag K_n = 1 is enforced within ``atol``.
    """
    ops = [np.asarray(k, dtype=complex) for k in kraus_ops]
    if not ops:
        raise ValidationError("empty Kraus set")
    dim_out, dim_in = ops[0].shape
    for k in ops:
        if k.shape != (dim_out, dim_in):
            raise DimensionMismatch("Kraus operators must share one shape")
    # huge entries overflow the sum to inf or NaN, which the check rejects
    with np.errstate(over="ignore", invalid="ignore"):
        comp = sum(la.dagger(k) @ k for k in ops)
        dev = la.max_abs(comp - np.eye(dim_in))
    if not dev <= max(atol, 1e-9):
        raise ValidationError(f"incomplete Kraus set: ||sum K^dag K - 1||_max = {dev:.3e}")
    choi = np.zeros((dim_out * dim_in,) * 2, dtype=complex)
    for k in ops:
        v = k.reshape(-1)
        choi += np.outer(v, v.conj())
    return Channel(dim_in, dim_out, choi, True, True, True)


def to_kraus(m, truncation=KRAUS_TRUNCATION):
    """Kraus operators from the Choi eigendecomposition.

    Eigenvalues below ``truncation`` are dropped as numerical zeros; genuinely
    negative eigenvalues signal a non-CP map and raise.
    """
    w, v = la.eig_hermitian(m.choi, atol=1e-8)
    if w.min() < -1e-8:
        raise ValidationError(f"map is not completely positive (min Choi eig {w.min():.3e})")
    ops = []
    for i in range(len(w)):
        if w[i] > truncation:
            ops.append(np.sqrt(w[i]) * v[:, i].reshape(m.dim_out, m.dim_in))
    return ops


def index_coeffs(m):
    """4-index view ``coeff[i,j,k,l] = <k| m(|i><j|) |l>``."""
    r = m.choi.reshape(m.dim_out, m.dim_in, m.dim_out, m.dim_in)
    return np.ascontiguousarray(np.transpose(r, (1, 3, 0, 2)))


def coefficient_identity_residuals(coeffs):
    """Violations of the three CPTP identities of the index coefficients.

    Returns (negativity of diagonal transfer terms, Hermiticity-pair
    deviation, trace-preservation deviation); all are ~0 for a channel.
    """
    din = coeffs.shape[0]
    diag = coeffs[
        np.arange(din)[:, None], np.arange(din)[:, None],
        np.arange(coeffs.shape[2])[None, :], np.arange(coeffs.shape[2])[None, :],
    ]
    r1 = max(0.0, -float(diag.real.min())) + la.max_abs(diag.imag)
    r2 = la.max_abs(coeffs - np.transpose(coeffs, (1, 0, 3, 2)).conj())
    traced = np.einsum("ijmm->ij", coeffs)
    r3 = la.max_abs(traced - np.eye(din))
    return r1, r2, r3


# ---------------------------------------------------------------------------
# Action and algebra
# ---------------------------------------------------------------------------

def apply(m, op):
    """Act with the map on a square operator via Choi contraction."""
    op = np.asarray(op, dtype=complex)
    if op.shape != (m.dim_in, m.dim_in):
        raise DimensionMismatch(f"operator shape {op.shape}, map expects {(m.dim_in,)*2}")
    r = m.choi.reshape(m.dim_out, m.dim_in, m.dim_out, m.dim_in)
    return np.einsum("kilj,ij->kl", r, op)


def compose(second, first):
    """Choi of ``second o first`` (first acts first).  Flags AND-combine."""
    if first.dim_out != second.dim_in:
        raise DimensionMismatch(
            f"cannot compose: first outputs dim {first.dim_out}, "
            f"second expects dim {second.dim_in}"
        )
    r2 = second.choi.reshape(second.dim_out, second.dim_in, second.dim_out, second.dim_in)
    r1 = first.choi.reshape(first.dim_out, first.dim_in, first.dim_out, first.dim_in)
    out = np.einsum("kalb,aibj->kilj", r2, r1)
    choi = out.reshape(second.dim_out * first.dim_in, second.dim_out * first.dim_in)
    flags = (
        first.hermiticity_preserving and second.hermiticity_preserving,
        first.completely_positive and second.completely_positive,
        first.trace_preserving and second.trace_preserving,
    )
    cls = Channel if all(flags) else LinearMap
    return cls(first.dim_in, second.dim_out, choi, *flags)


def tensor(a, b):
    """Choi of ``a (x) b`` with interleaved subsystem indices."""
    ra = a.choi.reshape(a.dim_out, a.dim_in, a.dim_out, a.dim_in)
    rb = b.choi.reshape(b.dim_out, b.dim_in, b.dim_out, b.dim_in)
    out = np.einsum("KILJ,kilj->KkIiLlJj", ra, rb)
    dim_in = a.dim_in * b.dim_in
    dim_out = a.dim_out * b.dim_out
    choi = out.reshape(dim_out * dim_in, dim_out * dim_in)
    flags = (
        a.hermiticity_preserving and b.hermiticity_preserving,
        a.completely_positive and b.completely_positive,
        a.trace_preserving and b.trace_preserving,
    )
    cls = Channel if all(flags) else LinearMap
    return cls(dim_in, dim_out, choi, *flags)


# ---------------------------------------------------------------------------
# Standard maps
# ---------------------------------------------------------------------------

def identity_channel(dim):
    return from_kraus([np.eye(dim)])


def dephasing(dim):
    """Total dephasing: deletes all off-diagonal entries."""
    if dim < 1:
        raise ValidationError("dim must be >= 1")
    return from_kraus([la.basis_proj(dim, i) for i in range(dim)])


def complementary_dephasing(dim):
    """id - dephasing; keeps only off-diagonal entries.  Not CP for dim > 1."""
    choi = identity_channel(dim).choi - dephasing(dim).choi
    return linear_map_from_choi(choi, dim, dim)


def unitary_channel(u, atol=1e-10):
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DimensionMismatch("unitary must be square")
    if la.max_abs(la.dagger(u) @ u - np.eye(u.shape[0])) > atol:
        raise ValidationError("matrix is not unitary within tolerance")
    return from_kraus([u])


def phase_channel(phi):
    """Diagonal unitary channel imprinting relative phases phi_i - phi_j."""
    phi = np.asarray(phi, dtype=float)
    if phi.ndim != 1 or phi.size < 1:
        raise ValidationError("phi must be a nonempty 1-d real vector")
    return unitary_channel(np.diag(np.exp(1j * phi)))


def hadamard():
    h = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
    return unitary_channel(h)


def qft(dim):
    """Discrete Fourier transform channel; qft(2) is the Hadamard."""
    j = np.arange(dim)
    f = np.exp(2j * np.pi * np.outer(j, j) / dim) / np.sqrt(dim)
    return unitary_channel(f)


def swap_channel(dim_a, dim_b):
    """Exchange the two tensor factors of a dim_a (x) dim_b system."""
    d = dim_a * dim_b
    u = np.zeros((d, d), dtype=complex)
    for i in range(dim_a):
        for j in range(dim_b):
            u[j * dim_a + i, i * dim_b + j] = 1.0
    return unitary_channel(u)


def mixture(channels, probs):
    """Convex mixture of channels with a probability vector."""
    probs = np.asarray(probs, dtype=float)
    if len(channels) != probs.size or probs.size == 0:
        raise ValidationError("need one probability per channel")
    if not np.all(np.isfinite(probs)):
        raise ValidationError("probabilities contain NaN or Inf entries")
    if probs.min() < -1e-12 or abs(probs.sum() - 1.0) > 1e-9:
        raise ValidationError("probabilities must be nonnegative and sum to 1")
    dim_in, dim_out = channels[0].dim_in, channels[0].dim_out
    for c in channels:
        if (c.dim_in, c.dim_out) != (dim_in, dim_out):
            raise DimensionMismatch("mixture components must share dimensions")
    choi = sum(p * c.choi for p, c in zip(probs, channels))
    return Channel(dim_in, dim_out, choi, True, True, True)


def hadamard_mixture(p1):
    """Stochastic mixture p1 * Hadamard + (1 - p1) * identity."""
    return mixture([hadamard(), identity_channel(2)], [p1, 1.0 - p1])


# ---------------------------------------------------------------------------
# Membership tests
# ---------------------------------------------------------------------------

def is_cptp(m, atol=MEMBERSHIP_ATOL):
    """Choi PSD within atol and output-trace reduction equal to identity."""
    return all(_cptp_flags(m.choi, m.dim_in, m.dim_out, atol))


def _require_cptp(m, atol):
    if not is_cptp(m, max(atol, MEMBERSHIP_ATOL)):
        raise ValidationError("membership test requires a CPTP input")


def is_detection_incoherent(m, atol=MEMBERSHIP_ATOL):
    """True iff output populations are insensitive to input coherences."""
    _require_cptp(m, atol)
    c = index_coeffs(m)
    din = m.dim_in
    viol = 0.0
    for i in range(din):
        for j in range(din):
            if i != j:
                viol = max(viol, la.max_abs(np.diagonal(c[i, j])))
    return viol <= atol


def is_mio(m, atol=MEMBERSHIP_ATOL):
    """True iff incoherent inputs produce incoherent outputs."""
    _require_cptp(m, atol)
    c = index_coeffs(m)
    viol = 0.0
    for i in range(m.dim_in):
        block = c[i, i].copy()
        np.fill_diagonal(block, 0.0)
        viol = max(viol, la.max_abs(block))
    return viol <= atol


# ---------------------------------------------------------------------------
# Random generators
# ---------------------------------------------------------------------------

def _haar_isometry(rows, cols, rng):
    g = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_channel(dim_in, dim_out, rng):
    """Random CPTP map via isometric dilation and environment trace-out."""
    if dim_in < 1 or dim_out < 1:
        raise ValidationError("dimensions must be positive")
    rank = dim_in * dim_out
    v = _haar_isometry(dim_out * rank, dim_in, rng)
    ops = [v.reshape(dim_out, rank, dim_in)[:, e, :] for e in range(rank)]
    return from_kraus(ops)


def permutation_phase_channel(dim, rng):
    """Unitary channel P diag(e^{i a}); free in both DI and MIO classes."""
    perm = rng.permutation(dim)
    u = np.zeros((dim, dim), dtype=complex)
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=dim))
    for col in range(dim):
        u[perm[col], col] = phases[col]
    return unitary_channel(u)


def _mix_free_unitaries(base, rng):
    """Mix ``base`` with two permutation-phase channels when it is square."""
    if base.dim_in != base.dim_out:
        return base
    extra = [permutation_phase_channel(base.dim_in, rng) for _ in range(2)]
    return mixture([base] + extra, rng.dirichlet(np.ones(3)))


def random_di(dim_in, dim_out, rng):
    """Random detection-incoherent channel.

    The generating family is (random channel) o dephasing, mixed with
    permutation-phase unitary channels when dimensions allow.  Membership is
    asserted at construction.
    """
    base = compose(random_channel(dim_in, dim_out, rng), dephasing(dim_in))
    ch = _mix_free_unitaries(base, rng)
    assert is_detection_incoherent(ch), "generator produced a non-DI channel"
    return ch


def random_mio(dim_in, dim_out, rng):
    """Random maximally-incoherent channel: dephasing o (random channel),
    mixed like `random_di`."""
    base = compose(dephasing(dim_out), random_channel(dim_in, dim_out, rng))
    ch = _mix_free_unitaries(base, rng)
    assert is_mio(ch), "generator produced a non-MIO channel"
    return ch


# ---------------------------------------------------------------------------
# Serialization and URIs
# ---------------------------------------------------------------------------

def channel_to_dict(ch):
    kraus = to_kraus(ch)
    return {
        "dim_in": ch.dim_in,
        "dim_out": ch.dim_out,
        "kraus": [
            [[[float(x.real), float(x.imag)] for x in row] for row in k]
            for k in kraus
        ],
    }


def channel_from_dict(data):
    """The channel of a `channel_to_dict` record; `ValidationError` on any
    malformed field.  The dims must be JSON integers: neither a float such as
    2.9 nor a bool is read as one.  Each Kraus entry must be a list of exactly
    two JSON numbers, its real and imaginary parts, neither of them a bool."""

    def entry(c):  # json reads a number as an int or a float, and true as a bool
        if not (isinstance(c, list) and len(c) == 2 and {type(x) for x in c} <= {int, float}):
            raise TypeError(f"Kraus entries must be [re, im] pairs of numbers, got {c!r}")
        return complex(*c)

    try:
        dim_in, dim_out = data["dim_in"], data["dim_out"]
        for dim in (dim_in, dim_out):
            if isinstance(dim, bool) or not isinstance(dim, int):
                raise TypeError(f"channel dims must be integers, got {dim!r}")
        raw = [np.array([[entry(c) for c in row] for row in k]) for k in data["kraus"]]
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
        raise ValidationError(f"malformed channel JSON: {exc!r}") from exc
    ops = []
    for arr in raw:
        if arr.shape != (dim_out, dim_in):
            raise DimensionMismatch(
                f"Kraus shape {arr.shape} does not match dims out={dim_out} in={dim_in}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValidationError("Kraus operator contains NaN or Inf entries")
        ops.append(arr)
    return from_kraus(ops)


def save_channel(ch, path):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(channel_to_dict(ch), f)


def load_channel(path):
    """Read a channel JSON file; `ValidationError` when it is not UTF-8 JSON
    of a channel, `OSError` when it cannot be read."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            data = json.load(f)
        except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
            raise ValidationError(f"{path} is not UTF-8 JSON: {exc}") from exc
    return channel_from_dict(data)


def from_uri(uri):
    """Resolve a built-in channel URI.

    Supported: ``hadamard``, ``qft:<d>``, ``mix:hadamard:<p1>``,
    ``swap:<dA>:<dB>``.
    """
    parts = uri.split(":")
    try:
        if parts == ["hadamard"]:
            return hadamard()
        if parts[0] == "qft" and len(parts) == 2:
            return qft(int(parts[1]))
        if parts[:2] == ["mix", "hadamard"] and len(parts) == 3:
            return hadamard_mixture(float(parts[2]))
        if parts[0] == "swap" and len(parts) == 3:
            return swap_channel(int(parts[1]), int(parts[2]))
    except (ValueError, ValidationError) as exc:
        raise ValidationError(f"bad channel URI {uri!r}: {exc}") from exc
    raise ValidationError(f"unknown channel URI {uri!r}")

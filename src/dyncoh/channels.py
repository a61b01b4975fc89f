"""Quantum channel representations and the free-class membership tests.

The canonical internal form is the Choi matrix on ``out (x) in`` index order,

    J = sum_{i,j} Theta(|i><j|) (x) |i><j| ,

so ``J[(k,i),(l,j)] = <k| Theta(|i><j|) |l>``.  Kraus sets and the 4-index
coefficient view are derived from it.  The computational basis is the
incoherent basis throughout.

`Channel` is the one map type: a frozen CPTP map with a read-only Choi
matrix.  Its constructors test CPTP (`from_kraus`, `channel_from_choi`) or
keep it by construction (`compose`, `tensor`, `mixture`, the generators), so
a caller that needs a channel checks ``isinstance(theta, Channel)``.  Linear
maps that are not channels are never built: the game's hypothesis
difference lam id - mu Lambda_phi multiplies entry (i, j) by a weight, and
`measures.GameConfig` holds those weights as one matrix.

Free classes:

* detection-incoherent (DI): output populations never depend on input
  coherences, equivalently ``coeff[i,j,k,k] == 0`` for all ``i != j``.
* maximally incoherent (MIO): incoherent states map to incoherent states,
  equivalently ``coeff[i,i,k,l] == 0`` for all ``k != l``.

Construction and checks are stacked numpy: `from_kraus` forms the
completeness sum and the Choi matrix of a whole Kraus set in one product
each (`_kraus_chois`, which takes stacks of sets too), `_cptp_flags` gives
one CPTP flag for a Choi matrix or one per matrix of a stack, and each
membership test takes one masked maximum over the coefficients.
`random_free_channels` draws a whole stack of free channels this way, in
the draw order of successive `random_di` or `random_mio` calls.  The
constant maps `identity_channel`, `dephasing` and `hadamard` are built once
per dimension and shared: a `Channel` is frozen and its Choi matrix
read-only.
"""

import functools
import json
from dataclasses import dataclass

import numpy as np

from . import linalg as la
from .errors import DimensionMismatch, ValidationError

# CPTP-test / membership default tolerances.  Membership must exceed solver and
# eigensolver noise but still catch weakly resourceful mixtures.
FLAG_ATOL = 1e-9
MEMBERSHIP_ATOL = 1e-8
KRAUS_TRUNCATION = 1e-10
# Largest entry of U^dag U - 1 that `unitary_channel` accepts.
UNITARY_ATOL = 1e-10


@dataclass(frozen=True, eq=False)
class Channel:
    """A completely positive, trace-preserving map in Choi form, frozen and
    with a read-only Choi matrix; its constructors ensure CPTP."""

    dim_in: int
    dim_out: int
    choi: np.ndarray

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


def _cptp_flags(choi, dim_in, dim_out, atol):
    """Whether a Choi matrix is CPTP within atol: Hermitian, PSD and with
    output-trace reduction equal to the identity.  One bool for one Choi
    matrix, a (K,) bool array for a stack of K; a matrix that is not square
    fails.
    """
    choi = np.asarray(choi)
    if choi.ndim < 2 or choi.shape[-1] != choi.shape[-2]:
        return False
    stack = choi.reshape(-1, *choi.shape[-2:])
    ok = np.abs(stack - la.dagger(stack)).max(axis=(1, 2), initial=0.0) <= atol
    h = stack[ok]  # only these are decomposed: NaN never reaches eigvalsh
    red = la.partial_trace(h, (dim_out, dim_in), keep=1)
    ok[ok] = ((np.linalg.eigvalsh(la.hermitian_part(h)).min(axis=1) >= -atol)
              & (np.abs(red - np.eye(dim_in)).max(axis=(1, 2)) <= atol))
    return bool(ok[0]) if choi.ndim == 2 else ok


def channel_from_choi(choi, dim_in, dim_out, atol=FLAG_ATOL):
    """The Channel of a Choi matrix that is CPTP within ``atol``."""
    choi = np.ascontiguousarray(choi, dtype=complex)
    if not _cptp_flags(choi, dim_in, dim_out, atol):
        raise ValidationError("Choi matrix is not CPTP within tolerance")
    return Channel(dim_in, dim_out, choi)


# ---------------------------------------------------------------------------
# Representation conversions
# ---------------------------------------------------------------------------

def from_kraus(kraus_ops):
    """Build a Channel from a complete Kraus set.

    Completeness sum_n K_n^dag K_n = 1 is enforced within ``FLAG_ATOL``.
    """
    ops = [np.asarray(k, dtype=complex) for k in kraus_ops]
    if not ops:
        raise ValidationError("empty Kraus set")
    dim_out, dim_in = ops[0].shape
    for k in ops:
        if k.shape != (dim_out, dim_in):
            raise DimensionMismatch("Kraus operators must share one shape")
    return Channel(dim_in, dim_out, _kraus_chois(np.stack(ops)))


def _kraus_chois(ks):
    """Choi matrices V^T conj(V) of Kraus sets ``ks[..., n, out, in]``, with
    row n of V the vectorized K_n; every set must be complete within
    ``FLAG_ATOL``."""
    # huge entries overflow the sum to inf or NaN, which the check rejects
    with np.errstate(over="ignore", invalid="ignore"):
        comp = np.einsum("...nki,...nkj->...ij", ks.conj(), ks)
        dev = la.max_abs(comp - np.eye(ks.shape[-1]))
    if not dev <= FLAG_ATOL:
        raise ValidationError(f"incomplete Kraus set: ||sum K^dag K - 1||_max = {dev:.3e}")
    v = ks.reshape(*ks.shape[:-2], -1)
    return np.swapaxes(v, -1, -2) @ v.conj()


def to_kraus(m):
    """Kraus operators from the Choi eigendecomposition.

    Eigenvalues below ``KRAUS_TRUNCATION`` are dropped as numerical zeros;
    genuinely negative eigenvalues signal a non-CP map and raise.
    """
    w, v = la.eig_hermitian(m.choi, atol=1e-8)
    if w.min() < -1e-8:
        raise ValidationError(f"map is not completely positive (min Choi eig {w.min():.3e})")
    ops = []
    for i in range(len(w)):
        if w[i] > KRAUS_TRUNCATION:
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
    """Choi of ``second o first`` (first acts first)."""
    if first.dim_out != second.dim_in:
        raise DimensionMismatch(
            f"cannot compose: first outputs dim {first.dim_out}, "
            f"second expects dim {second.dim_in}"
        )
    r2 = second.choi.reshape(second.dim_out, second.dim_in, second.dim_out, second.dim_in)
    r1 = first.choi.reshape(first.dim_out, first.dim_in, first.dim_out, first.dim_in)
    out = np.einsum("kalb,aibj->kilj", r2, r1)
    choi = out.reshape(second.dim_out * first.dim_in, second.dim_out * first.dim_in)
    return Channel(first.dim_in, second.dim_out, choi)


def tensor(a, b):
    """Choi of ``a (x) b`` with interleaved subsystem indices."""
    ra = a.choi.reshape(a.dim_out, a.dim_in, a.dim_out, a.dim_in)
    rb = b.choi.reshape(b.dim_out, b.dim_in, b.dim_out, b.dim_in)
    out = np.einsum("KILJ,kilj->KkIiLlJj", ra, rb)
    dim_in = a.dim_in * b.dim_in
    dim_out = a.dim_out * b.dim_out
    return Channel(dim_in, dim_out, out.reshape(dim_out * dim_in, dim_out * dim_in))


# ---------------------------------------------------------------------------
# Standard maps
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def identity_channel(dim):
    return from_kraus([np.eye(dim)])


@functools.lru_cache(maxsize=None)
def dephasing(dim):
    """Total dephasing: deletes all off-diagonal entries."""
    if dim < 1:
        raise ValidationError("dim must be >= 1")
    return from_kraus([la.basis_proj(dim, i) for i in range(dim)])


def unitary_channel(u):
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DimensionMismatch("unitary must be square")
    if la.max_abs(la.dagger(u) @ u - np.eye(u.shape[0])) > UNITARY_ATOL:
        raise ValidationError("matrix is not unitary within tolerance")
    return from_kraus([u])


def phase_channel(phi):
    """Diagonal unitary channel imprinting relative phases phi_i - phi_j."""
    phi = np.asarray(phi, dtype=float)
    if phi.ndim != 1 or phi.size < 1:
        raise ValidationError("phi must be a nonempty 1-d real vector")
    return unitary_channel(np.diag(np.exp(1j * phi)))


@functools.lru_cache(maxsize=None)
def hadamard():
    h = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
    return unitary_channel(h)


def qft(dim):
    """Discrete Fourier transform channel; qft(2) is the Hadamard."""
    if dim < 1:
        raise ValidationError("dim must be >= 1")
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
    return Channel(dim_in, dim_out, choi)


def hadamard_mixture(p1):
    """Stochastic mixture p1 * Hadamard + (1 - p1) * identity."""
    return mixture([hadamard(), identity_channel(2)], [p1, 1.0 - p1])


# ---------------------------------------------------------------------------
# Membership tests
# ---------------------------------------------------------------------------

def is_cptp(m, atol=MEMBERSHIP_ATOL):
    """Choi PSD within atol and output-trace reduction equal to identity."""
    return _cptp_flags(m.choi, m.dim_in, m.dim_out, atol)


def _require_cptp(choi, dim_in, dim_out, atol):
    """Raise unless the Choi matrix, or every matrix of a stack, is CPTP."""
    if not np.all(_cptp_flags(choi, dim_in, dim_out, max(atol, MEMBERSHIP_ATOL))):
        raise ValidationError("membership test requires a CPTP input")


def _choi_tensors(choi, dim_in, dim_out):
    """``r[p, k, i, l, j] = <k| map_p(|i><j|) |l>`` of one Choi matrix (p = 0)
    or of each of a stack."""
    return np.reshape(choi, (-1, dim_out, dim_in, dim_out, dim_in))


def _di_violations(choi, dim_in, dim_out):
    """Per Choi matrix (one, or each of a stack): the largest
    ``|coeff[i,j,k,k]|`` with ``i != j``, an output population an input
    coherence writes."""
    pops = np.einsum("pkikj->pijk", _choi_tensors(choi, dim_in, dim_out))
    return np.abs(pops[:, ~np.eye(dim_in, dtype=bool)]).max(axis=(1, 2), initial=0.0)


def _mio_violations(choi, dim_in, dim_out):
    """Per Choi matrix: the largest ``|coeff[i,i,k,l]|`` with ``k != l``, an
    output coherence an incoherent input writes."""
    outs = np.einsum("pkili->pikl", _choi_tensors(choi, dim_in, dim_out))
    return np.abs(outs[:, :, ~np.eye(dim_out, dtype=bool)]).max(axis=(1, 2), initial=0.0)


def is_detection_incoherent(m, atol=MEMBERSHIP_ATOL):
    """True iff output populations are insensitive to input coherences."""
    _require_cptp(m.choi, m.dim_in, m.dim_out, atol)
    return bool(_di_violations(m.choi, m.dim_in, m.dim_out)[0] <= atol)


def is_mio(m, atol=MEMBERSHIP_ATOL):
    """True iff incoherent inputs produce incoherent outputs."""
    _require_cptp(m.choi, m.dim_in, m.dim_out, atol)
    return bool(_mio_violations(m.choi, m.dim_in, m.dim_out)[0] <= atol)


# ---------------------------------------------------------------------------
# Random generators
# ---------------------------------------------------------------------------

def _ginibre(rows, cols, rng):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _haar_isometries(g):
    """Haar isometries from complex Ginibre matrices (one, or a stack): the Q
    of each QR decomposition, its columns rephased so that diag(R) > 0."""
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _dilation_kraus(v, dim_in, dim_out):
    """The Kraus sets ``[..., e, out, in]`` of isometries V from dim_in to
    dim_out x environment: trace out the environment index e."""
    rank = v.shape[-2] // dim_out
    return np.swapaxes(v.reshape(*v.shape[:-2], dim_out, rank, dim_in), -3, -2)


def random_channel(dim_in, dim_out, rng):
    """Random CPTP map via isometric dilation and environment trace-out."""
    if dim_in < 1 or dim_out < 1:
        raise ValidationError("dimensions must be positive")
    v = _haar_isometries(_ginibre(dim_out * dim_in * dim_out, dim_in, rng))
    return from_kraus(_dilation_kraus(v, dim_in, dim_out))


def _permutation_phase_unitary(dim, rng):
    """P diag(e^{i a}) from one permutation draw and then one phase draw."""
    perm = rng.permutation(dim)
    u = np.zeros((dim, dim), dtype=complex)
    u[perm, np.arange(dim)] = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=dim))
    return u


def permutation_phase_channel(dim, rng):
    """Unitary channel P diag(e^{i a}); free in both DI and MIO classes."""
    return unitary_channel(_permutation_phase_unitary(dim, rng))


def random_free_channels(free_class, dim_in, dim_out, rng, count):
    """``count`` random channels of the free class ``"di"`` or ``"mio"``.

    A DI channel is (random channel) o dephasing, an MIO channel dephasing o
    (random channel); when the map is square, each is mixed with two
    permutation-phase unitary channels by Dirichlet weights.  Draw k takes
    its random numbers in the order of one `random_di` or `random_mio` call
    (the random channel's Ginibre matrix, the two permutation-phase pairs,
    the weights), so a stack of ``count`` equals ``count`` successive calls.
    The channels are built as one stack, and their membership is asserted
    at construction.
    """
    if free_class not in ("di", "mio"):
        raise ValidationError(f"free class must be 'di' or 'mio', got {free_class!r}")
    if dim_in < 1 or dim_out < 1:
        raise ValidationError("dimensions must be positive")
    if count < 1:
        return []
    square = dim_in == dim_out
    ginibre, unitaries, weights = [], [], []
    for _ in range(count):
        ginibre.append(_ginibre(dim_out * dim_in * dim_out, dim_in, rng))
        if square:
            unitaries += [[_permutation_phase_unitary(dim_in, rng)] for _ in range(2)]
            weights.append(rng.dirichlet(np.ones(3)))
    kraus = _dilation_kraus(_haar_isometries(np.stack(ginibre)), dim_in, dim_out)
    r = _choi_tensors(_kraus_chois(kraus), dim_in, dim_out)
    if free_class == "di":  # after dephasing, only incoherent inputs remain
        r = r * np.eye(dim_in)[:, None, :]
    else:  # and here only incoherent outputs
        r = r * np.eye(dim_out)[:, None, :, None]
    choi = r.reshape(count, dim_out * dim_in, -1)
    if square:
        # each unitary is a Kraus set of one operator
        extra = _kraus_chois(np.array(unitaries)).reshape(count, 2, *choi.shape[1:])
        w = np.array(weights)[:, :, None, None]
        choi = w[:, 0] * choi + w[:, 1] * extra[:, 0] + w[:, 2] * extra[:, 1]
    _require_cptp(choi, dim_in, dim_out, MEMBERSHIP_ATOL)
    violations = _di_violations if free_class == "di" else _mio_violations
    assert np.all(violations(choi, dim_in, dim_out) <= MEMBERSHIP_ATOL), \
        f"generator produced a non-{free_class.upper()} channel"
    return [Channel(dim_in, dim_out, c) for c in choi]


def random_di(dim_in, dim_out, rng):
    """Random detection-incoherent channel (`random_free_channels`)."""
    return random_free_channels("di", dim_in, dim_out, rng, 1)[0]


def random_mio(dim_in, dim_out, rng):
    """Random maximally-incoherent channel (`random_free_channels`)."""
    return random_free_channels("mio", dim_in, dim_out, rng, 1)[0]


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

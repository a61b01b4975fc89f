"""Game functionals and discrimination quantities.

The binary guessing game: with probability ``lam`` the probe state passes
unchanged, with probability ``mu = 1 - lam`` it picks up relative phases
from the diagonal unitary diag(e^{i phi}), whose channel Lambda_phi
multiplies entry (i, j) of a state by P_ij = e^{i(phi_i - phi_j)}.  So the
hypothesis-difference map lam id - mu Lambda_phi is the entrywise product
with the weight matrix W = lam - mu P.  `GameConfig` forms P
(``phase_factors``) and W (``signal_weights``) once, read-only, and every
game quantity of the package reads them; its ``ceiling`` bounds them all.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import channels as ch
from . import linalg as la
from .errors import DimensionMismatch, ValidationError


@dataclass(frozen=True)
class GameConfig:
    """Game parameters: prior ``lam`` (and ``mu = 1 - lam``) plus the phase vector.

    ``phase_factors`` is P = e^{i(phi_i - phi_j)}, the multiplier of the
    phases, and ``signal_weights`` is W = lam - mu P, the multiplier of the
    hypothesis difference lam id - mu Lambda_phi; both are read-only.
    ``ceiling`` is the most ||W o tau||_1 reaches over all states tau, a
    closed form in ``lam`` and the widest gap between the phases; it bounds
    every strategy of the game, pre- or post-processed, and is computed
    when read.  Two configs are equal when their ``lam`` and the bytes of
    their ``phi`` are, and hash alike then.
    """

    lam: float
    phi: np.ndarray
    phase_factors: np.ndarray = field(init=False, repr=False, compare=False)
    signal_weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValidationError(f"lam must lie in [0,1], got {self.lam}")
        phi = np.atleast_1d(np.asarray(self.phi, dtype=float))
        if phi.ndim != 1 or phi.size < 1:
            raise ValidationError("phi must be a nonempty 1-d real vector")
        if not np.all(np.isfinite(phi)):
            raise ValidationError("phi contains NaN or Inf entries")
        phases = np.exp(1j * (phi[:, None] - phi[None, :]))
        weights = self.lam * np.ones(phases.shape) - self.mu * phases
        for name, value in (("phi", phi), ("phase_factors", phases),
                            ("signal_weights", weights)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if not isinstance(other, GameConfig):
            return NotImplemented
        return self.lam == other.lam and self.phi.tobytes() == other.phi.tobytes()

    def __hash__(self):
        return hash((self.lam, self.phi.tobytes()))

    @property
    def mu(self):
        return 1.0 - self.lam

    @property
    def dim(self):
        return self.phi.size

    @property
    def prior_gap(self):
        """|lam - mu|, the best bias obtainable from the prior alone (x2)."""
        return abs(self.lam - self.mu)

    @property
    def ceiling(self):
        """sqrt(1 - 4 lam mu r^2), the most ||W o tau||_1 reaches over states tau.

        r is the distance from 0 to the convex hull of the phases e^{i phi_k}:
        with g the widest gap between neighbouring phases around the circle,
        r = max(0, -cos(g / 2)).  The bound holds because the trace norm is
        convex, so pure states carry the maximum, where
        ||lam psi - mu U psi U^dag||_1 = sqrt(1 - 4 lam mu |<psi|U psi>|^2),
        and <psi|U psi> ranges over the numerical range of the normal
        U = diag(e^{i phi}), the hull of its eigenvalues.  It is lam + mu = 1
        when the phases surround 0 (g <= pi), |lam - mu| for a single phase.
        """
        phi = np.sort(np.mod(self.phi, 2.0 * np.pi))
        gap = max(np.diff(phi).max(initial=0.0), 2.0 * np.pi - (phi[-1] - phi[0]))
        if gap <= math.pi:
            return 1.0
        # 1 - 4 lam mu r^2 = (lam - mu)^2 + 4 lam mu sin^2(g / 2): a sum of
        # two nonnegative terms, where the difference cancels as it nears 0
        return math.sqrt((self.lam - self.mu) ** 2
                         + 4.0 * self.lam * self.mu * math.sin(gap / 2.0) ** 2)


@dataclass(frozen=True)
class IncoherentPovm:
    """Two-or-more outcome POVM whose elements are diagonal."""

    elements: tuple

    def __post_init__(self):
        elems = tuple(np.asarray(e, dtype=complex) for e in self.elements)
        if not elems:
            raise ValidationError("POVM needs at least one element")
        dim = elems[0].shape[0]
        total = np.zeros((dim, dim), dtype=complex)
        for e in elems:
            if e.shape != (dim, dim):
                raise DimensionMismatch("POVM elements must share one shape")
            off = e - np.diag(np.diagonal(e))
            if la.max_abs(off) > 1e-9:
                raise ValidationError("POVM element is not diagonal in the incoherent basis")
            if np.min(np.diagonal(e).real) < -1e-9:
                raise ValidationError("POVM element is not positive semidefinite")
            total = total + e
        if la.max_abs(total - np.eye(dim)) > 1e-9:
            raise ValidationError("POVM elements do not sum to the identity")
        object.__setattr__(self, "elements", elems)

    @property
    def dim(self):
        return self.elements[0].shape[0]


def game_value(theta, pre, rho, cfg):
    """Trace norm of the dephased pipeline output for fixed inputs.

    Computes ``|| dephasing o theta o pre o (lam - mu * Lambda_phi) (rho) ||_1``,
    twice the bias Bob achieves with the optimal incoherent readout when he
    prepares ``rho`` and pre-processes with ``pre`` before the fixed channel
    ``theta``.  The first map is the entrywise product with W
    (``cfg.signal_weights``).
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (cfg.dim, cfg.dim):
        raise DimensionMismatch(f"rho shape {rho.shape}, game expects dim {cfg.dim}")
    if pre.dim_in != cfg.dim:
        raise DimensionMismatch("pre-processing input must match the phase system")
    if pre.dim_out != theta.dim_in:
        raise DimensionMismatch("pre-processing output must match the channel input")
    x = ch.apply(theta, ch.apply(pre, cfg.signal_weights * rho))
    dephased = np.diag(np.diagonal(x))
    return la.trace_norm_hermitian(dephased, atol=1e-8)


def _weighted_difference(cfg, sigma0, sigma1):
    """lam sigma0 - mu sigma1, for two states of one shape."""
    sigma0 = np.asarray(sigma0, dtype=complex)
    sigma1 = np.asarray(sigma1, dtype=complex)
    if sigma0.shape != sigma1.shape:
        raise DimensionMismatch("states must share dimensions")
    return cfg.lam * sigma0 - cfg.mu * sigma1


def helstrom_norm(cfg, sigma0, sigma1):
    """``|| lam * sigma0 - mu * sigma1 ||_1``: twice the optimal unrestricted bias."""
    return la.trace_norm_hermitian(_weighted_difference(cfg, sigma0, sigma1), atol=1e-8)


def trivial_bias(cfg):
    """Guessing advantage from the prior alone."""
    return 0.5 * cfg.prior_gap


def measurement_bias(cfg, sigma0, sigma1):
    """Best advantage achievable with incoherent measurements."""
    d = np.diagonal(_weighted_difference(cfg, sigma0, sigma1)).real
    return 0.5 * float(np.sum(np.abs(d)))


def optimal_incoherent_povm(cfg, sigma0, sigma1):
    """Two-outcome diagonal POVM achieving the measurement bias.

    Outcome 0 collects the nonnegative part of the dephased difference
    (ties at zero go to outcome 0, i.e. the guess "not applied"), outcome 1
    the rest.  Labels: outcome 0 -> guess "not applied", 1 -> "applied".
    """
    d = np.diagonal(_weighted_difference(cfg, sigma0, sigma1)).real
    p0 = np.diag((d >= 0.0).astype(complex))
    p1 = np.eye(len(d), dtype=complex) - p0
    return IncoherentPovm((p0, p1))


def success_probability(measure_value, cfg):
    """Optimal guessing probability from a measure value.

    ``p = 1/2 + (measure_value + |lam - mu|) / 2``; values above 1 signal an
    invalid measure value and raise.
    """
    if measure_value < -1e-9:
        raise ValidationError(f"measure value must be nonnegative, got {measure_value}")
    p = 0.5 + 0.5 * (measure_value + cfg.prior_gap)
    if p > 1.0 + 1e-9:
        raise ValidationError(f"success probability {p} exceeds 1: invalid measure value")
    return min(p, 1.0)

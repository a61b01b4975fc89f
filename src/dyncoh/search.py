"""Game-value oracles, alternating lower bounds, and game simulation.

Everything here is independent of the SDP sign-program reduction.  For a
fixed pre-processing the best input state is found exactly, from the
eigenvalues of signed sums of the pipeline's response tensors
(`sign_eigen_maximum`); pre-processings are sampled.  That is what makes
these values usable as oracles against the exact SDP path (lower bounds
can never exceed it).  The response tensors of all sampled pre-processings
come from their stacked Choi matrices in one contraction and one product
with the game's weight matrix W = lam - mu e^{i(phi_i - phi_j)}
(`_response_stacks`).  The sampled permutations are drawn by lexicographic
index (`_nth_permutation`), and each one's unitary channel is built once
and shared (`_permutation_channel`).

The creation side (`postprocessed_improvement_lower`) is an alternating
lower bound: independent chains of Helstrom and MIO-step SDP rounds, which
advance in lockstep so that each round's MIO steps are solved in one
stacked interior-point run over the shared `_mio_family` constraints, and
their solutions pass one stacked CPTP test.  A Helstrom step weights the
output pair's difference by W, and its observable enters the MIO step
weighted by conj(W), the adjoint.  A chain whose sign observable is +-I
stops without its MIO step: trace preservation pins that step's objective
to +-(lam - mu) on every MIO channel, as it pins the detection side's two
constant sign patterns.  Every chain stops once the best chain comes within
``STOP_GAIN`` (1 + c*) of the game's ceiling c* (`GameConfig.ceiling`),
checked after each round's Helstrom steps and before its MIO steps: no
strategy's trace norm exceeds c*, so the floor is then exact within
``STOP_GAIN``.  The game simulation applies the phases
as the multiplier e^{i(phi_i - phi_j)} (`_game_outputs`).

Both searches take one setting, ``rng_seed``.  Their effort is fixed by the
module constants: ``PERMUTATION_DRAWS`` and ``RANDOM_PRE_DRAWS`` sampled
pre-processings on the detection side, and on the creation side chains from
the identity and ``MIO_RESTARTS`` random MIO channels, of at most
``MAX_ROUNDS`` rounds each.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import channels as ch
from . import linalg as la
from . import measures as ms
from . import sdp as sdpmod
from .errors import DimensionMismatch, SolverFailure, ValidationError
from .ipm import GAP_TOL

# A chain stops once a round raises its value v by at most STOP_GAIN (1 + |v|).
# Each MIO step is solved to the relative gap ipm.GAP_TOL, and a last-bit
# change of its objective moves the next round's value by up to several
# GAP_TOL, so a smaller gain is solver noise.
STOP_GAIN = 10 * GAP_TOL
# Permutation channels among the candidate pre-processings of a square pair.
PERMUTATION_DRAWS = 8
# Random detection-incoherent pre-processings `brute_force_game_value` samples.
RANDOM_PRE_DRAWS = 5
# Rounds of one creation chain, and random MIO starts beside the identity.
MAX_ROUNDS = 60
MIO_RESTARTS = 8


@dataclass
class GameTranscript:
    trials: int
    successes: int
    empirical_rate: float
    predicted_rate: float
    z_score: float


# ---------------------------------------------------------------------------
# Pipeline response tensors and the exact pure-state maximum
# ---------------------------------------------------------------------------

def _response_stacks(theta, pres, cfg):
    """Stacks R, one per pre-processing, with f_n(rho) = v^dag R_n v for pure
    rho = |v><v|.

    f_n is the n-th output population of theta o pre o (lam - mu Lambda_phi);
    the game value for the input is sum_n |f_n|.  Every pre-processing must
    take the game's dimension to the channel's input.  With Choi tensors
    r[k, i, l, j] = <k| map(|i><j|) |l>, only the diagonal r[n, :, n, :] of
    theta enters, and lam id - mu Lambda_phi weights entry (i, j) by
    W[i, j] (``cfg.signal_weights``), so the whole stack is one contraction
    and one product:
    R[p, n, j, i] = W[i, j] sum r_theta[n, c, n, e] r_pre[p][c, i, e, j].
    """
    for pre in pres:
        if pre.dim_in != cfg.dim:
            raise DimensionMismatch(
                f"cannot compose: first outputs dim {cfg.dim}, second expects dim {pre.dim_in}")
        if pre.dim_out != theta.dim_in:
            raise DimensionMismatch(
                f"cannot compose: first outputs dim {pre.dim_out}, "
                f"second expects dim {theta.dim_in}")
    d, dim_b = cfg.dim, theta.dim_in
    r_pre = np.stack([pre.choi for pre in pres]).reshape(len(pres), dim_b, d, dim_b, d)
    r_theta = theta.choi.reshape(theta.dim_out, dim_b, theta.dim_out, dim_b)
    pulled = np.einsum("ncne,pcaeb->pnab", r_theta, r_pre)
    return np.swapaxes(pulled * cfg.signal_weights, -1, -2)


def sign_eigen_maximum(r_stacks):
    """Exact max over unit v of sum_n |v^dag R_n v|, one per stack of R.

    Takes a (P, N, d, d) stack of response tensors.  With H_n the Hermitian
    part of R_n, sum_n |v^dag H_n v| = max_s v^dag (sum_n s_n H_n) v over
    sign vectors s, so the maximum is max_s lambda_max(sum_n s_n H_n).  The
    patterns s and -s share one decomposition (lambda_max of -A is
    -lambda_min of A), so only the representatives with first entry +1 are
    decomposed, all in one stacked ``eigvalsh``.  Returns a (P,) array.
    """
    h = la.hermitian_part(np.asarray(r_stacks))
    signs = np.array(sdpmod.enumerate_sign_vectors(h.shape[1]), dtype=float)
    w = np.linalg.eigvalsh(np.einsum("sn,pnij->psij", signs, h))
    # + 0.0 turns an exact zero's sign bit off, so no value prints as -0.0
    return np.maximum(w[..., -1], -w[..., 0]).max(axis=-1) + 0.0


# ---------------------------------------------------------------------------
# Pre-processing candidates
# ---------------------------------------------------------------------------

def _classical_embed(dim_in, dim_out):
    """Deterministic classical relabeling |i> -> |min(i, dim_out - 1)>, one
    Kraus operator per input; free in both classes."""
    inputs = np.arange(dim_in)
    kraus = np.zeros((dim_in, dim_out, dim_in), dtype=complex)
    kraus[inputs, np.minimum(inputs, dim_out - 1), inputs] = 1.0
    return ch.from_kraus(kraus)


def _isometric_embed(dim_in, dim_out):
    v = np.eye(dim_out, dim_in, dtype=complex)
    return ch.from_kraus([v])


@functools.lru_cache(maxsize=256)
def _permutation_channel(perm):
    """The unitary channel |col> -> |perm[col]>; cached and shared, since the
    channel is frozen and its Choi matrix read-only."""
    dim = len(perm)
    u = np.zeros((dim, dim), dtype=complex)
    u[list(perm), np.arange(dim)] = 1.0
    return ch.unitary_channel(u)


def _nth_permutation(dim, index):
    """Permutation ``index`` of range(dim) in the lexicographic order of
    `itertools.permutations`."""
    rest, perm = list(range(dim)), []
    for k in range(dim - 1, -1, -1):
        digit, index = divmod(index, math.factorial(k))
        perm.append(rest.pop(digit))
    return tuple(perm)


def _permutation_channels(dim, rng):
    """Every permutation channel on dim levels when there are at most
    ``PERMUTATION_DRAWS``; else the identity and ``PERMUTATION_DRAWS - 1``
    others, drawn by lexicographic index without replacement.  The dim!
    permutations are never listed."""
    count = math.factorial(dim)
    if count > PERMUTATION_DRAWS:
        drawn = rng.choice(count - 1, PERMUTATION_DRAWS - 1, replace=False) + 1
        indices = [0] + [int(i) for i in drawn]
    else:
        indices = range(count)
    return [_permutation_channel(_nth_permutation(dim, i)) for i in indices]


def _pre_candidates(dim_a, dim_b, rng, n_random):
    """Detection-incoherent pre-processings to sample over."""
    cands = []
    if dim_a == dim_b:
        cands.extend(_permutation_channels(dim_a, rng))  # the identity first
        cands.append(ch.permutation_phase_channel(dim_a, rng))
    elif dim_a < dim_b:
        cands.append(_isometric_embed(dim_a, dim_b))
        cands.append(_classical_embed(dim_a, dim_b))
    else:
        cands.append(_classical_embed(dim_a, dim_b))
    return cands + ch.random_free_channels("di", dim_a, dim_b, rng, n_random)


def brute_force_game_value(theta, cfg, rng_seed=7):
    """Sampled lower bound on the optimized game trace norm.

    Pre-processings are sampled from the free generator families (identity,
    permutation and permutation-phase unitaries including pair swaps, and
    ``RANDOM_PRE_DRAWS`` random dephasing-composed channels), drawn from
    ``rng_seed``.  For each candidate the best input state is found exactly
    by `sign_eigen_maximum`, so only the pre-processing is sampled and the
    result never exceeds the exact optimum.  For a fixed seed more random
    draws extend the candidate list, so the value never falls with them.
    """
    if not isinstance(theta, ch.Channel):
        raise ValidationError("brute force requires a CPTP channel")
    rng = np.random.default_rng(rng_seed)
    pres = _pre_candidates(cfg.dim, theta.dim_in, rng, RANDOM_PRE_DRAWS)
    return float(sign_eigen_maximum(_response_stacks(theta, pres, cfg)).max())


def no_preprocessing_improvement(theta, cfg):
    """Improvement without the optimal pre-processing (identity in its place).

    Exact: the maximum over input states is attained on a pure state
    (convexity of the trace norm) and computed by `sign_eigen_maximum`.
    Unlike the pre-processed improvement this is not monotone under free
    superchannels, see `swap_monotonicity_counterexample`.
    """
    if theta.dim_in != cfg.dim:
        raise DimensionMismatch("without pre-processing the phases act on the channel input")
    stacks = _response_stacks(theta, [ch.identity_channel(cfg.dim)], cfg)
    return float(sign_eigen_maximum(stacks)[0]) - cfg.prior_gap


def swap_monotonicity_counterexample():
    """Free relabeling can create value when no pre-processing is allowed.

    A qubit detector tensored with an idle qubit scores zero when the phases
    are encoded on the idle side, yet composing with the (free) SWAP that
    exchanges the sides unlocks the full value.  Returns (before, after);
    raises if the expected gap is not reproduced.
    """
    detector = ch.tensor(ch.hadamard(), ch.identity_channel(2))
    phi = np.array([np.pi, 0.0, np.pi, 0.0])  # phases live on the second qubit
    cfg = ms.GameConfig(0.5, phi)
    l_before = no_preprocessing_improvement(detector, cfg)
    swapped = ch.compose(detector, ch.swap_channel(2, 2))
    l_after = no_preprocessing_improvement(swapped, cfg)
    if not (l_before <= 1e-6 < l_after):
        raise RuntimeError(
            f"counterexample regression: before={l_before:.3e}, after={l_after:.3e}"
        )
    return l_before, l_after


# ---------------------------------------------------------------------------
# Post-processed improvement (creation side): alternating lower bound
# ---------------------------------------------------------------------------

def _mio_constraints(dim_b, dim_c):
    """``(functionals, p, q)`` of the Choi matrices of MIO channels: trace
    preservation, by i <= j, as functionals, and for each incoherent input b
    the pins of the vanishing coherences k < l of its output, at
    (p, q) = (k dim_b + b, l dim_b + b) in the order of (b, k, l)."""
    n = dim_c * dim_b
    i, j = np.triu_indices(dim_b)
    c = np.arange(dim_c) * dim_b
    trace = np.zeros((len(i), n, n), dtype=complex)
    trace[np.arange(len(i))[:, None], c + i[:, None], c + j[:, None]] = 1.0
    k, l = np.triu_indices(dim_c, 1)
    b = np.repeat(np.arange(dim_b), len(k))
    return ([(f, complex(t)) for f, t in zip(trace, i == j)],
            np.tile(k, dim_b) * dim_b + b, np.tile(l, dim_b) * dim_b + b)


@functools.lru_cache(maxsize=None)
def _mio_family(dim_b, dim_c):
    """The shared MIO-step constraints, which start at the Choi matrix I / dim_c."""
    return sdpmod.constraint_family(*_mio_constraints(dim_b, dim_c))


@functools.lru_cache(maxsize=32)
def _mio_starts(dim_b, dim_c, rng_seed, restarts):
    """Starting post-processings of the alternating chains.

    The identity (or a classical embedding) first, then ``restarts`` draws of
    `random_mio` from ``rng_seed``, so more restarts extend the same tuple.
    ``restarts`` is part of the cache key, so a caller that changes
    ``MIO_RESTARTS`` never reads a stale entry.  Cached and shared: the
    channels are frozen and their Choi arrays read-only.
    """
    rng = np.random.default_rng(rng_seed)
    first = ch.identity_channel(dim_b) if dim_b == dim_c else _classical_embed(dim_b, dim_c)
    return (first,) + tuple(ch.random_free_channels("mio", dim_b, dim_c, rng, restarts))


def postprocessed_improvement_lower(theta, cfg, rng_seed=7):
    """Certified lower bound on the post-processed improvement.

    One chain runs per incoherent basis input and starting post-processing:
    the identity (or a classical embedding) and ``MIO_RESTARTS`` random MIO
    channels drawn from ``rng_seed`` (`_mio_starts`).  Its rounds alternate
    between the optimal sign observable for the current output pair
    (Helstrom step) and an SDP over the Choi matrix of the free
    post-processing with the observable fixed (MIO step), until a round
    raises its value v by no more than ``STOP_GAIN`` (1 + |v|), above the
    noise of the MIO steps' solver tolerance, for at most ``MAX_ROUNDS``
    rounds.  The last round takes no MIO step: no round would evaluate it.

    A chain also stops when its observable P is uniform, +-I, under the
    ``w >= 0`` rule that forms it.  Then ||W o tau||_1 = |tr(W o tau)| =
    |lam - mu|, the least any chain holds, and the MIO objective
    (conj(W) o P) (x) conj(sigma) is +-(lam - mu) I (x) conj(sigma).  Every
    trace-preserving Choi matrix J has tr_C J = I, so tr(J (I (x)
    conj(sigma))) = tr sigma = 1: the objective is the constant
    +-(lam - mu) on the MIO set, and the step is never solved.

    Every chain stops when the best value, taken after a round's Helstrom
    steps and before its MIO steps, reaches c* - ``STOP_GAIN`` (1 + c*),
    where c* = ``cfg.ceiling`` bounds ||W o tau||_1 over all states tau.  No
    chain could then raise the result by more than its own stop threshold,
    so the floor is exact within ``STOP_GAIN`` (1 + c*) wherever this stop
    fires.  At the default phases (2 pi / 3, 0) the Hadamard's identity chain
    meets c* = sqrt(1 - lam mu) in round 1, and no MIO step is solved.

    Every iterate is a feasible strategy, so the value is a true lower
    bound, and each step is a restricted maximization, so a chain's value
    never falls.  The chains advance in lockstep: a round's Helstrom steps
    are one stacked eigendecomposition and the MIO steps of the chains
    still running one `solve_family` call, which raises `SolverFailure` if
    any of them fails.  A solved Choi matrix that is not CPTP within 1e-6
    is solver trouble too, and raises `SolverFailure` ("numerical_failure").
    Exact evaluation is out of scope.
    """
    if not isinstance(theta, ch.Channel):
        raise ValidationError("post-processed improvement requires a CPTP channel")
    dim_b = theta.dim_out
    dim_c = cfg.dim
    family = _mio_family(dim_b, dim_c)
    starts = _mio_starts(dim_b, dim_c, rng_seed, MIO_RESTARTS)

    # one chain per (incoherent input, start): its input and current Choi matrix
    inputs = [ch.apply(theta, la.basis_proj(theta.dim_in, i)) for i in range(theta.dim_in)]
    sigma = np.stack([s for s in inputs for _ in starts])
    choi = np.stack([post.choi for _ in inputs for post in starts])
    value = np.full(len(choi), -np.inf)
    active = np.arange(len(choi))
    # once the best chain is this close to the game's ceiling, no chain can
    # raise the result by more than its own stop threshold
    stop_at = cfg.ceiling - STOP_GAIN * (1.0 + cfg.ceiling)
    for round_ in range(1, MAX_ROUNDS + 1):
        posts = choi[active].reshape(-1, dim_c, dim_b, dim_c, dim_b)
        tau = np.einsum("pkilj,pij->pkl", posts, sigma[active])
        diff = cfg.signal_weights * tau
        w, v = la.eig_hermitian(diff, atol=1e-8)
        new_value = np.abs(w).sum(axis=-1)
        improved = new_value - value[active] > STOP_GAIN * (1.0 + np.abs(new_value))
        value[active] = np.maximum(value[active], new_value)
        # sign observable: +1 on the nonnegative eigenspace, -1 on the rest;
        # a uniform one is +-I, whose MIO step is vacuous
        signs = np.where(w >= 0.0, 1.0, -1.0)
        keep = improved & (signs != signs[:, :1]).any(axis=-1)
        active, v, signs = active[keep], v[keep], signs[keep]
        if not active.size or round_ == MAX_ROUNDS or value.max() >= stop_at:
            break
        p_obs = (v * signs[:, None, :]) @ la.dagger(v)
        q = np.conj(cfg.signal_weights) * p_obs  # the adjoint of the difference map
        # tr(Q Psi(sigma)) = tr(J (Q (x) sigma^T)) over the Choi matrix J of Psi
        new_choi, _ = sdpmod.solve_family(family, q, np.conj(sigma[active]))
        cptp = ch._cptp_flags(new_choi, dim_b, dim_c, atol=1e-6)
        if not cptp.all():
            raise SolverFailure("numerical_failure", f"{np.count_nonzero(~cptp)} of "
                                f"{len(new_choi)} MIO steps returned a Choi matrix that is "
                                "not CPTP within 1e-6")
        choi[active] = new_choi
    return float(value.max() - cfg.prior_gap)


# ---------------------------------------------------------------------------
# Monte-Carlo game simulation
# ---------------------------------------------------------------------------

def _game_outputs(theta, pre, rho, cfg):
    """The channel's outputs ``(omega0, omega1)`` for input ``rho`` and
    pre-processing ``pre``, without and with the game's phases."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (cfg.dim, cfg.dim):
        raise DimensionMismatch(f"rho shape {rho.shape}, game expects dim {cfg.dim}")
    return tuple(ch.apply(theta, ch.apply(pre, state))
                 for state in (rho, cfg.phase_factors * rho))


def optimal_game_instance(theta, report):
    """The game a pre-processed `sdp.MeasureReport` of ``theta`` plays best.

    Returns ``(omega0, omega1, povm)``: the channel's outputs for the
    report's optimal input and pre-processing, without and with the phases
    of its game, and the optimal incoherent POVM between them.
    """
    cfg = report.config
    omega0, omega1 = _game_outputs(theta, report.phi_opt, report.rho_opt, cfg)
    return omega0, omega1, ms.optimal_incoherent_povm(cfg, omega0, omega1)


def monte_carlo_game(theta, phi_pre, rho, povm, cfg, trials, rng_seed):
    """Simulate the guessing game and compare with the predicted rate.

    Per trial the phases are applied with probability mu, the probe runs
    through pre-processing and channel, the POVM outcome is sampled from the
    Born probabilities, and outcome 0 is announced as "not applied".  The
    predicted rate is computed exactly for the supplied POVM; for the optimal
    incoherent POVM it equals 1/2 plus the measurement bias.
    """
    if trials < 1:
        raise ValidationError("need at least one trial")
    if len(povm.elements) != 2:
        raise ValidationError("the game uses a two-outcome POVM")
    if povm.dim != theta.dim_out:
        raise DimensionMismatch("POVM dimension must match the channel output")
    omega0, omega1 = _game_outputs(theta, phi_pre, rho, cfg)

    def _outcome_prob(state):
        p0 = float(np.real(np.trace(povm.elements[0] @ state)))
        return min(max(p0, 0.0), 1.0)

    p0_given = (_outcome_prob(omega0), _outcome_prob(omega1))
    predicted = cfg.lam * p0_given[0] + cfg.mu * (1.0 - p0_given[1])

    rng = np.random.default_rng(rng_seed)
    applied = rng.random(trials) < cfg.mu
    outcome_draws = rng.random(trials)
    p0_per_trial = np.where(applied, p0_given[1], p0_given[0])
    outcome_is_0 = outcome_draws < p0_per_trial
    success = np.where(applied, ~outcome_is_0, outcome_is_0)
    successes = int(np.count_nonzero(success))
    empirical = successes / trials

    var = predicted * (1.0 - predicted) / trials
    if var > 0.0:
        z = (empirical - predicted) / np.sqrt(var)
    else:
        z = 0.0 if empirical == predicted else np.inf
    return GameTranscript(trials, successes, empirical, predicted, float(z))


def mixture_sweep(lambdas, p1_values, phi):
    """Pre-processed improvement of Hadamard mixtures over a parameter grid.

    Every weight and prior is checked before any SDP is solved.  Each
    mixture's channel and each prior's game are built once and shared by
    their grid points.  The sign programs of all grid points are then
    solved together through `sdp.evaluate_pairs`, in stacked runs sized by
    their working set (``sdp.STACK_BYTES``; the documented 204-point grid
    takes two), with the same checks as `sdp.preprocessed_improvement`: if
    any program fails or any point comes out negative, `SolverFailure` is
    raised and no row is returned.

    Returns rows (lam, p1, improvement) in grid order (priors outer),
    CSV-ready; an empty grid gives no rows.
    """
    p1_values = [float(p1) for p1 in p1_values]
    if not all(0.0 <= p1 <= 1.0 for p1 in p1_values):
        raise ValidationError("mixture weights must lie in [0, 1]")
    phi = np.asarray(phi, dtype=float)
    games = [ms.GameConfig(float(lam), phi) for lam in lambdas]
    mixtures = [ch.hadamard_mixture(p1) for p1 in p1_values]
    _, evaluations = sdpmod.evaluate_pairs([(theta, cfg) for cfg in games for theta in mixtures])
    grid = [(cfg.lam, p1) for cfg in games for p1 in p1_values]
    return [(lam, p1, ev.improvement) for (lam, p1), ev in zip(grid, evaluations)]

"""Exact evaluation of the pre-processed improvement via semidefinite programs.

The maximization over detection-incoherent pre-processings and input states
reduces to a family of linear-objective SDPs over one PSD matrix ``X`` on the
joint system A (x) B (A carries the phases, B is the channel input):

    maximize   sum_n s_n <n| theta(Z) |n>,
               Z = sum_{ij} (lam - mu e^{i(phi_i - phi_j)}) <i|_A X |j>_A
    subject to X PSD, tr X = 1,
               diag(<i|_A X |j>_A) = 0 for all i != j,

one program per sign vector ``s`` over the channel's output dimension (the
off-diagonals of tr_B X vanish too, as sums of the last family).  The
winning ``X`` yields an optimal input state and pre-processing by a direct
constructive recipe (`extract_optimal`).

Complex functionals become Hermitian rows ``Re tr(H X) = t`` on the n x n
block, over which the backend (`ipm`) maximizes natively.  Every program,
one (`solve_sdp`) or a family (`solve_family`), goes through one presolve
(`constraint_family`), which keeps the independent rows.  The sign programs
share every constraint, so the constraints are built once per dims
(`sign_family`), and the programs of one evaluation, or of many evaluations
over the same dims (`evaluate_pairs`, which the mixture sweep uses), are
solved together in stacked interior-point runs of at most ``MAX_STACK``
programs.  The two constant sign patterns are never solved: trace
preservation pins their value to +-(lam - mu).

Each sign program carries a certified ceiling, its dual bound
(`ipm._dual_bound`), and the programs of one pair form a group whose floor
starts at the exact constant-pattern value |lam - mu| and rises with the
objective of every primal-feasible iterate.  A program stops at the
relative gap ``ipm.GAP_TOL``, or as ``pruned`` once its ceiling falls
below its pair's floor by more than that gap: it cannot win, and its
ceiling stands in for its value.
"""

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from . import channels as ch
from . import linalg as la
from . import measures as ms
from .errors import DimensionMismatch, SolverFailure, ValidationError
from .ipm import (ConstraintFamily, initial_point, rounding_allowance, solve_real_sdp,
                  solve_stacked)
from .kernels import SparseConstraints, real_vectors

SUPPORT_THRESHOLD = 1e-9
# Feasibility tolerance of a winning X, and of the channel extracted from it
EXTRACTION_ATOL = 1e-6
MAX_SIGN_DIMENSION = 20
# Programs per stacked interior-point run.  Longer stacks are split, which
# bounds a run's memory; a 4-outcome channel's 14 programs stay one stack.
MAX_STACK = 64
# Widest bracket [lower_bound, upper_bound] a report may carry
BRACKET_TOL = 1e-7


@dataclass(frozen=True)
class ExtractionResult:
    """Optimal input state and pre-processing recovered from a winning X."""

    sigma_diag: np.ndarray
    rho_opt: np.ndarray
    phi_opt: ch.Channel


@dataclass
class MeasureReport:
    """Result of evaluating the pre-processed improvement.

    ``value`` is the improvement over prior-only betting; ``trace_norm`` the
    underlying optimized trace norm (``value + |lam - mu|``).  The optimal
    pair (``rho_opt``, ``phi_opt``) is always extracted, and
    ``verification_residual`` is the distance between its direct game value
    and ``trace_norm``.  The optimized trace norm lies in
    [``lower_bound``, ``upper_bound``]: the direct game value of the
    extracted pair, and the largest per-sign ceiling plus a rounding
    allowance (`SignEvaluation`).  ``per_sign_status``
    says what each of ``per_sign_values`` is: ``exact`` (a constant
    pattern), ``optimal`` (a solved program's value) or ``pruned`` (the
    ceiling of a program stopped because it cannot win); ``pruned`` counts
    the last.
    """

    value: float
    trace_norm: float
    lower_bound: float
    upper_bound: float
    per_sign_values: list
    per_sign_status: list
    pruned: int
    sign_vectors: list
    x_opt: np.ndarray
    rho_opt: np.ndarray
    phi_opt: ch.Channel
    verification_residual: float
    config: ms.GameConfig
    sigma_diag: np.ndarray = field(repr=False)


# ---------------------------------------------------------------------------
# Presolve and single programs
# ---------------------------------------------------------------------------

def constraint_family(functionals):
    """The presolve: complex functionals ``(F, t)`` -> independent Hermitian rows.

    Each functional splits into its Hermitian part (target Re t) and its
    anti-Hermitian part over 2i (target -Im t).  A vanishing part is
    dropped, as is a row i whose residual against the rows kept before it,
    |R_ii| of a QR factorization of their real vectorizations v, is at most
    1e-10 max(1, |v_i|).  A dropped row whose target disagrees with what
    the kept rows imply raises ``SolverFailure("infeasible")``.  The arrays
    are read-only, since cached families are shared.
    """
    mats, targets = [], []
    for f, t in functionals:
        t = complex(t)
        for part, target in ((0.5 * (f + la.dagger(f)), t.real),
                             ((f - la.dagger(f)) / 2j, -t.imag)):
            if la.max_abs(part) > 1e-14:
                mats.append(part)
                targets.append(target)
            elif abs(target) > 1e-12:
                raise SolverFailure("infeasible",
                                    "constraint with zero functional, nonzero target")
    if not mats:
        raise ValidationError("problem has no effective constraints")
    mats, targets = np.array(mats), np.array(targets)
    v = real_vectors(mats)
    tol = 1e-10 * np.maximum(1.0, np.linalg.norm(v, axis=1))
    keep = np.arange(len(v))
    while True:
        # QR goes on past a dependent column along an arbitrary direction,
        # which can hide a later independent row, so it restarts without it
        r = np.abs(np.diagonal(np.linalg.qr(v[keep].T, mode="r")))
        small = np.flatnonzero(r <= tol[keep[:r.size]])
        if not small.size:
            break
        j = small[0]
        coeff, *_ = np.linalg.lstsq(v[keep[:j]].T, v[keep[j]], rcond=None)
        implied, target = targets[keep[:j]] @ coeff, targets[keep[j]]
        if abs(implied - target) > 1e-9 * max(1.0, abs(target)):
            raise SolverFailure(
                "infeasible",
                f"inconsistent dependent constraint: target {target}, implied {implied}",
            )
        keep = np.delete(keep, j)
    constraints = SparseConstraints(mats[keep])
    targets = targets[keep]
    start = initial_point(constraints, targets)
    for shared in (constraints.dense, constraints.flat, constraints.gram_inv, targets, start):
        shared.flags.writeable = False
    return ConstraintFamily(constraints, targets, start)


def solve_sdp(functionals, objective):
    """Maximize ``Re tr(objective X)`` over PSD X on one Hermitian block,
    subject to complex functionals ``(F, t)``: ``sum_pq conj(F[p,q]) X[p,q] = t``.

    One program through the presolve and `solve_real_sdp`.  Returns
    ``(X, info)``; a non-Hermitian objective raises `ValidationError`, and
    any status other than ``optimal`` raises `SolverFailure` with diagnostics.
    """
    objective = np.asarray(objective, dtype=complex)
    if not la.is_hermitian(objective, 1e-9):
        raise ValidationError("objective must be Hermitian (real-valued objective)")
    x, _, _, info = solve_real_sdp(constraint_family(functionals), objective)
    if info.status != "optimal":
        raise SolverFailure(info.status, f"SDP did not reach optimality: {info}")
    return x, info


# ---------------------------------------------------------------------------
# Families of programs sharing their constraints
# ---------------------------------------------------------------------------

def solve_family(family, objectives, groups=None, floors=None):
    """Maximize ``Re tr(C_k X)`` over a family for a stack of Hermitian C_k.

    Returns ``(maximizers, infos)``, of shape (K, n, n) and one `IpmInfo`
    per program.  The programs go through consecutive `solve_stacked` runs
    of at most ``MAX_STACK`` programs, so the memory of a run stays bounded
    whatever the stack length.  With ``groups`` (one label per program, an
    index into ``floors``, the best value known per group), programs that
    cannot win their group are pruned, and a group's floor carries over
    from run to run.  Raises `SolverFailure` when any program ends neither
    optimal nor pruned, so no value of a failed stack is ever returned.
    """
    floors = None if groups is None else np.array(floors, dtype=float)
    xs, infos = [], []
    for lo in range(0, len(objectives), MAX_STACK):
        run = slice(lo, lo + MAX_STACK)
        x, _, _, run_infos = solve_stacked(
            family, objectives[run], groups=groups if groups is None else groups[run],
            floors=floors)
        xs.append(x)
        infos.extend(run_infos)
    failed = [k for k, info in enumerate(infos) if info.status not in ("optimal", "pruned")]
    if failed:
        info = infos[failed[0]]
        raise SolverFailure(info.status, f"{len(failed)} of {len(infos)} SDPs did not reach "
                                         f"optimality, first #{failed[0]}: {info}")
    return (np.concatenate(xs) if xs else np.empty_like(objectives)), infos


# ---------------------------------------------------------------------------
# Sign-vector programs
# ---------------------------------------------------------------------------

def enumerate_sign_vectors(n, full=False):
    """Sign patterns over the channel output dimension.

    By default returns the 2^(n-1) representatives with first entry +1, one
    per pair {s, -s}; the exact oracle `search.sign_eigen_maximum` uses them,
    since s and -s share one eigen-decomposition.  ``full=True`` gives all 2^n
    patterns, one sign program each.  Guarded against combinatorial blowup.
    """
    if n < 1:
        raise ValidationError("need at least one output dimension")
    if n > MAX_SIGN_DIMENSION:
        raise ValidationError(f"output dimension {n} exceeds the enumeration guard")
    if full:
        return [tuple(s) for s in itertools.product((1, -1), repeat=n)]
    return [(1,) + tuple(s) for s in itertools.product((1, -1), repeat=n - 1)]


def _sign_functionals(da, db):
    """tr X = 1 and diag(<i|_A X |j>_A) = 0 for i < j, as complex functionals."""
    n = da * db
    functionals = [(np.eye(n, dtype=complex), 1.0 + 0.0j)]
    for i in range(da):
        for j in range(i + 1, da):
            for b in range(db):
                f = np.zeros((n, n), dtype=complex)
                f[i * db + b, j * db + b] = 1.0
                functionals.append((f, 0.0 + 0.0j))
    return functionals


@functools.lru_cache(maxsize=None)
def sign_family(da, db):
    """The constraints every sign program over dims (da, db) shares.

    m = 1 + da (da - 1) db independent Hermitian rows; the start is the
    maximally mixed X, strictly feasible for every sign program.
    """
    return constraint_family(_sign_functionals(da, db))


def _sign_objectives(theta, cfg, signs):
    """Stack of the Hermitian objectives of the programs for ``signs``."""
    da, db = cfg.dim, theta.dim_in
    signs = np.asarray(signs, dtype=float)
    if signs.shape[-1] != theta.dim_out:
        raise DimensionMismatch("sign vector length must equal the output dimension")
    coeffs = ch.index_coeffs(theta)
    idx = np.arange(theta.dim_out)
    t_mats = np.moveaxis(coeffs[:, :, idx, idx] @ signs.T, -1, 0)
    w_mat = cfg.lam * np.ones((da, da)) - cfg.mu * np.exp(
        1j * (cfg.phi[:, None] - cfg.phi[None, :])
    )
    n = da * db
    objectives = np.conj(np.einsum("ij,kab->kiajb", w_mat, t_mats)).reshape(-1, n, n)
    return la.hermitian_part(objectives)


def build_sign_program(theta, cfg, signs):
    """``(functionals, objective)`` of the SDP whose optimum is the best signed
    sum of output populations, for `solve_sdp`.

    ``signs`` is a +-1 vector of length ``theta.dim_out``.
    """
    return (_sign_functionals(cfg.dim, theta.dim_in),
            _sign_objectives(theta, cfg, [signs])[0])


# ---------------------------------------------------------------------------
# Extraction of the optimal pair
# ---------------------------------------------------------------------------

def extract_optimal(x_opt, dims):
    """Recover (sigma, rho_opt, phi_opt) from a feasible winning X.

    The input-state populations sigma come from the diagonal of tr_B X, the
    optimal input is the maximally coherent purification of sigma, and the
    pre-processing acts on the support of sigma via the rescaled blocks of X,
    preceded by a projector-transfer map that handles rank deficiency.
    """
    da, db = dims
    n = da * db
    x = la.hermitian_part(np.asarray(x_opt, dtype=complex))
    if x.shape != (n, n):
        raise DimensionMismatch(f"X shape {x.shape} does not match dims {dims}")

    # feasibility within tolerance
    if abs(np.trace(x).real - 1.0) > EXTRACTION_ATOL:
        raise ValidationError("X is not unit trace within tolerance")
    if np.linalg.eigvalsh(x).min() < -EXTRACTION_ATOL:
        raise ValidationError("X is not PSD within tolerance")
    x4 = x.reshape(da, db, da, db)  # x4[i, a, j, b] = <i a| X |j b>
    if la.max_abs(np.einsum("ibjb->ijb", x4)[~np.eye(da, dtype=bool)]) > EXTRACTION_ATOL:
        raise ValidationError("X violates the free-pre-processing constraints")

    red = la.partial_trace(x, (da, db), keep=0)
    sigma = np.diagonal(red).real.copy()
    amp = np.sqrt(np.clip(sigma, 0.0, None))
    rho_opt = np.outer(amp, amp).astype(complex)

    support = [i for i in range(da) if sigma[i] > SUPPORT_THRESHOLD]
    ds = len(support)

    # channel on the support: blocks of X rescaled by the populations,
    # J[k ds + a, l ds + c] = <a k| X |c l> / sqrt(sigma_a sigma_c)
    blocks = x4[np.ix_(support, range(db), support, range(db))]
    scale = 1.0 / np.sqrt(np.outer(sigma[support], sigma[support]))
    j_tilde = (blocks * scale[:, None, :, None]).transpose(1, 0, 3, 2).reshape(db * ds, -1)
    try:
        phi_tilde = ch.channel_from_choi(j_tilde, ds, db, atol=EXTRACTION_ATOL)
    except ValidationError as exc:
        raise ValidationError(f"rescaled X does not define a channel: {exc}") from exc

    # projector transfer onto the support, unsupported indices to a fixed state
    unit = np.eye(da, dtype=complex)
    kraus = [unit[support]] + [np.outer(unit[0, :ds], unit[j]) for j in range(da)
                               if j not in support]
    projector_transfer = ch.from_kraus(kraus)

    phi_opt = ch.compose(phi_tilde, projector_transfer)
    if not ch.is_detection_incoherent(phi_opt, atol=EXTRACTION_ATOL):
        raise ValidationError("extracted pre-processing fails the membership test")
    return ExtractionResult(sigma_diag=sigma, rho_opt=rho_opt, phi_opt=phi_opt)


def verify_extraction(theta, cfg, result):
    """The direct game value of the extracted pair, which the pair attains:
    the floor of a report's bracket."""
    return ms.game_value(theta, result.phi_opt, result.rho_opt, cfg)


# ---------------------------------------------------------------------------
# Full evaluation
# ---------------------------------------------------------------------------

@dataclass
class SignEvaluation:
    """The sign programs of one (channel, game) pair, solved.

    ``per_sign`` holds each pattern's value, or its ceiling where
    ``per_sign_status`` says ``pruned``.  ``upper_bound`` is the largest
    ceiling, the constant patterns counting as exact, plus the rounding
    allowance of the n x n game arithmetic (`ipm.rounding_allowance`), so
    that a value computed for a strategy never exceeds it by rounding alone.
    """

    per_sign: list
    per_sign_status: list
    winner: int
    improvement: float
    upper_bound: float
    x_opt: np.ndarray  # the winning program's maximizer


def evaluate_pairs(pairs):
    """Solve the sign programs of many (theta, cfg) pairs with the same dims.

    The non-constant patterns of every pair go into stacked runs over the
    shared `sign_family`, one group per pair, whose floor starts at the
    exact constant-pattern value |lam - mu|; the two constant patterns are
    pinned to +-(lam - mu) by trace preservation.  Returns ``(signs,
    evaluations)``, all 2^N patterns and one `SignEvaluation` per pair.
    Raises `SolverFailure` when any program fails or any pair's improvement
    is negative, so no value of such a batch is returned.
    """
    for theta, _ in pairs:
        if not (theta.completely_positive and theta.trace_preserving):
            raise ValidationError("pre-processed improvement requires a CPTP channel")
    dims = {(cfg.dim, theta.dim_in, theta.dim_out) for theta, cfg in pairs}
    if not dims:
        return [], []
    if len(dims) > 1:
        raise DimensionMismatch("pairs evaluated together must share their dims")
    ((da, db, dim_out),) = dims

    signs = enumerate_sign_vectors(dim_out, full=True)
    per_sign = np.array([[(cfg.lam - cfg.mu) * s[0] for s in signs] for _, cfg in pairs])
    ceiling = per_sign.copy()
    status = np.full(per_sign.shape, "exact", dtype=object)
    solved = [k for k, s in enumerate(signs) if len(set(s)) > 1]
    if solved:
        objectives = np.concatenate([
            _sign_objectives(theta, cfg, [signs[k] for k in solved]) for theta, cfg in pairs
        ])
        groups = np.repeat(np.arange(len(pairs)), len(solved))
        xs, infos = solve_family(sign_family(da, db), objectives, groups,
                                 [cfg.prior_gap for _, cfg in pairs])
        shape = (len(pairs), len(solved))
        status[:, solved] = np.array([info.status for info in infos], dtype=object).reshape(shape)
        ceiling[:, solved] = np.array([info.bound for info in infos]).reshape(shape)
        per_sign[:, solved] = np.where(
            status[:, solved] == "pruned", ceiling[:, solved],
            np.array([info.primal_objective for info in infos]).reshape(shape))
        xs = xs.reshape(len(pairs), len(solved), *xs.shape[1:])

    evaluations = []
    for p, (_, cfg) in enumerate(pairs):
        # a pruned entry is a ceiling, which no X attains, so it never wins
        winner = int(np.argmax(np.where(status[p] == "pruned", -np.inf, per_sign[p])))
        improvement = float(per_sign[p, winner] - cfg.prior_gap)
        if improvement < -1e-7:
            raise SolverFailure(
                "numerical_failure",
                f"non-negativity violated: improvement {improvement:.3e}",
            )
        # a constant pattern wins at the maximally mixed X, feasible for all
        x_opt = (xs[p, solved.index(winner)] if winner in solved
                 else np.eye(da * db, dtype=complex) / (da * db))
        top = ceiling[p].max()
        upper = float(top + rounding_allowance(da * db, 1.0 + abs(top)))
        evaluations.append(SignEvaluation(per_sign[p].tolist(), status[p].tolist(), winner,
                                          improvement, upper, x_opt))
    return signs, evaluations


def preprocessed_improvement(theta, cfg):
    """Evaluate the pre-processed improvement of ``theta`` for a game ``cfg``.

    Solves one SDP per non-constant sign vector through `evaluate_pairs`,
    stacked over the shared `sign_family`, and reports the maximum, the
    winning X, and the optimal input state and pre-processing extracted from
    it, with the residual of their round trip through the game arithmetic,
    and the bracket of the direct game value of that pair and the largest
    ceiling.  If any program fails, the extraction fails, the residual
    exceeds 1e-6, or the bracket is inverted or wider than ``BRACKET_TOL``,
    `SolverFailure` is raised and no value is reported.
    """
    signs, (evaluation,) = evaluate_pairs([(theta, cfg)])
    trace_norm = evaluation.per_sign[evaluation.winner]
    try:
        res = extract_optimal(evaluation.x_opt, (cfg.dim, theta.dim_in))
    except ValidationError as exc:
        raise SolverFailure(
            "numerical_failure", f"no optimal pair extracted from the solver's X: {exc}"
        ) from exc
    achieved = verify_extraction(theta, cfg, res)
    residual = abs(achieved - trace_norm)
    if residual > 1e-6:
        raise SolverFailure(
            "numerical_failure",
            f"extraction round-trip residual {residual:.3e} exceeds 1e-6",
        )
    if not 0.0 <= evaluation.upper_bound - achieved <= BRACKET_TOL:
        raise SolverFailure(
            "numerical_failure",
            f"bracket [{achieved!r}, {evaluation.upper_bound!r}] is inverted or wider "
            f"than {BRACKET_TOL}",
        )

    return MeasureReport(
        value=evaluation.improvement,
        trace_norm=trace_norm,
        lower_bound=achieved,
        upper_bound=evaluation.upper_bound,
        per_sign_values=evaluation.per_sign,
        per_sign_status=evaluation.per_sign_status,
        pruned=evaluation.per_sign_status.count("pruned"),
        sign_vectors=signs,
        x_opt=evaluation.x_opt,
        rho_opt=res.rho_opt,
        phi_opt=res.phi_opt,
        verification_residual=residual,
        config=cfg,
        sigma_diag=res.sigma_diag,
    )

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

Complex functionals become dense Hermitian rows ``Re tr(H X) = t`` on the
n x n block, and pins, entries X[p, q] = 0 given by position, two rows each
that `kernels.SparseConstraints` defines; the backend (`ipm`) maximizes
over them natively.  Every program, one (`solve_sdp`, all rows dense) or a
family (`solve_family`), takes its rows and start from `constraint_family`.
The sign programs share every constraint, so the constraints are built
once per dims (`sign_family`), and the programs of one evaluation, or of
many evaluations over the same dims (`evaluate_pairs`, which the mixture
sweep uses), are solved together in stacked interior-point runs, each as
long as its working set allows (`stack_runs`).  Programs that take
several runs go in descending order of a cheap ceiling (`_pinned_ceilings`)
within each pair, so that the likely winner's value prunes the runs after
it.  The two constant sign patterns are never solved: trace preservation
pins their value to +-(lam - mu).

Every objective is a Kronecker product, which `solve_family` takes as its
two factors and forms (`_kron_objectives`) only when a run starts: O_s =
conj(W (x) T_s) for the sign program s, with W the game's weights on A and
T_s the signed output populations on B (`_signed_populations`), and
q (x) conj(sigma) for a creation-side MIO step.

Programs whose objectives are conjugate, O' = D O D^dag for a diagonal
unitary D on A (x) B, are solved once: D keeps every constraint (a pinned
entry (i b, j b) picks up d_ib conj(d_jb)), so they have one value, as in
the symmetry reduction of Gatermann & Parrilo (J. Pure Appl. Algebra 192,
2004).  An output permutation pi with T_{pi(n)} = V^dag T_n V gives
D = I_A (x) V, and the negation s -> -s at lam = mu, with two phase
values, D = +-1 by phase class on A.  The test runs on the 2 d_B x 2 d_B
factors F_s = W^ (x) conj(T_s) (`_class_factors`), W^ the Frobenius norms
of W's blocks between S0 = {0} u {i : W_0i = 0} and the rest, and it is
exact.  W_ij = lam - mu e^{i(phi_i - phi_j)} vanishes only at lam = mu
between equal phases, so D can be taken constant on A within S0 and within
the rest: I (x) D_B in general, one D_B per phase class where the phases
take two values.  For D lifted to D~ on A (x) B, ||O' - D~ O D~^dag||_F =
||F' - D F D^dag||_F.  `evaluate_pairs` solves each class's lowest
pattern (`_conjugate_classes`) and transfers its outcome to the rest.

Each sign program carries a certified ceiling, its dual bound
(`ipm._dual_bound`), and the programs of one pair form a group whose floor
starts at the exact constant-pattern value |lam - mu| and rises with the
objective of every primal-feasible iterate.  A program stops at the
relative gap ``ipm.GAP_TOL``, or as ``pruned`` once its ceiling falls
below its pair's floor by more than that gap: it cannot win, and its
ceiling stands in for its value.  A transferred pattern's ceiling is its
representative's plus the transfer defect, the Frobenius norm of the
difference between its objective and the conjugated one.
"""

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from . import channels as ch
from . import linalg as la
from . import measures as ms
from .errors import DimensionMismatch, SolverFailure, ValidationError
from .ipm import ConstraintFamily, rounding_allowance, solve_real_sdp, solve_stacked
from .kernels import SparseConstraints

SUPPORT_THRESHOLD = 1e-9
# Feasibility tolerance of a winning X, and of the channel extracted from it
EXTRACTION_ATOL = 1e-6
MAX_SIGN_DIMENSION = 20
# Working-set bytes of one stacked interior-point run.  A longer stack is
# split (`stack_runs`): the programs of the 204-point qubit sweep take two
# runs, a 4-outcome channel's 14 programs one, and from six levels on each
# program runs alone.
STACK_BYTES = 5 * 2**19
# Widest bracket [lower_bound, upper_bound] a report may carry
BRACKET_TOL = 1e-7
# Two objectives are conjugate within this deviation, relative to the
# largest objective entry of their pair
SYMMETRY_TOL = 1e-12


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
    the last.  ``per_sign_orbit`` gives each pattern's class
    representative, the lowest pattern whose objective is conjugate to its
    own under a diagonal unitary: a pattern k with
    ``per_sign_orbit[k] != k`` was not solved but transferred from its
    representative, whose status it carries.  The winner, and with it
    ``x_opt`` and the extracted pair, is always a solved program.
    """

    value: float
    trace_norm: float
    lower_bound: float
    upper_bound: float
    per_sign_values: list
    per_sign_status: list
    per_sign_orbit: list
    pruned: int
    sign_vectors: list
    x_opt: np.ndarray
    rho_opt: np.ndarray
    phi_opt: ch.Channel
    verification_residual: float
    config: ms.GameConfig
    sigma_diag: np.ndarray = field(repr=False)


# ---------------------------------------------------------------------------
# Constraint families and single programs
# ---------------------------------------------------------------------------

def constraint_family(functionals, p, q):
    """Complex functionals ``(F, t)`` and pins -> independent Hermitian rows and a start.

    Each functional splits into its Hermitian part (target Re t) and its
    anti-Hermitian part over 2i (target -Im t), the dense rows; a vanishing
    part is dropped.  Each pin X[p, q] = 0, p < q, from the index arrays
    ``p`` and ``q``, takes its two rows in `SparseConstraints`, after the
    dense rows, at targets 0.0 and -0.0, as that split gives.
    `ValidationError` is raised unless the rows are independent in the
    sense of `SparseConstraints` (no two read the same float64 slot of vec
    X, and none has norm <= 1e-10) and the start, the projection
    I + A^+(b - A(I)) of the identity onto A(X) = b, is positive definite,
    and for a vanishing part with a nonzero target.  The arrays are
    read-only: cached families are shared.
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
                raise ValidationError("constraint with zero functional, nonzero target")
    if not mats:
        raise ValidationError("problem has no effective constraints")
    constraints = SparseConstraints(mats, p, q)
    targets = np.array(targets + [0.0, -0.0] * len(p))
    eye = np.eye(constraints.n, dtype=complex)
    start = eye + constraints.least_norm(targets - constraints.dot(eye))
    if not np.linalg.eigvalsh(start)[0] > 1e-8:
        raise ValidationError("the projected identity is not positive definite")
    for shared in (targets, start):
        shared.flags.writeable = False
    return ConstraintFamily(constraints, targets, start)


def solve_sdp(functionals, objective):
    """Maximize ``Re tr(objective X)`` over PSD X on one Hermitian block,
    subject to complex functionals ``(F, t)``: ``sum_pq conj(F[p,q]) X[p,q] = t``.

    One program through `constraint_family` with no pins, so every row is
    dense, and `solve_real_sdp`: the reference path of the tests.  Returns
    ``(X, info)``; a non-Hermitian objective raises `ValidationError`, and
    any status other than ``optimal`` raises `SolverFailure` with diagnostics.
    """
    objective = np.asarray(objective, dtype=complex)
    if not la.is_hermitian(objective, 1e-9):
        raise ValidationError("objective must be Hermitian (real-valued objective)")
    x, _, _, info = solve_real_sdp(constraint_family(functionals, (), ()), objective)
    if info.status != "optimal":
        raise SolverFailure(info.status, f"SDP did not reach optimality: {info}")
    return x, info


# ---------------------------------------------------------------------------
# Families of programs sharing their constraints
# ---------------------------------------------------------------------------

def stack_footprint(n, m):
    """Working-set bytes of one program in a stacked interior-point run over
    n x n blocks with m constraint rows: twenty complex n x n and five real
    m x m arrays, plus 3 KiB of small ones.

    Fitted to the tracemalloc peak of `solve_stacked`, which grows linearly
    in the stack length: within 11% of the measured slope for the sign
    programs from n = 4, m = 5 (9.2 KiB) to n = 64, m = 449 (9.4 MiB), and
    for the creation side's MIO steps at n = 4 and 9.
    """
    return 3072 + 320 * n * n + 40 * m * m


def stack_runs(count, n, m):
    """Consecutive slices that split ``count`` programs over n x n blocks with
    m rows into the fewest runs whose working set, length times
    `stack_footprint`, fits ``STACK_BYTES``; the runs' lengths differ by at
    most one, and each holds at least one program."""
    most = max(1, STACK_BYTES // stack_footprint(n, m))
    parts = -(-count // most)
    edges = [count * i // max(parts, 1) for i in range(parts + 1)]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


def _kron_objectives(left, right):
    """L (x) R for stacks of Kronecker factors, broadcast over leading axes:
    the one contraction every caller uses (`np.kron` rounds otherwise)."""
    out = np.einsum("...ij,...ab->...iajb", left, right)
    n = left.shape[-1] * right.shape[-1]
    return out.reshape(out.shape[:-4] + (n, n))


def solve_family(family, left, right, groups=None, floors=None):
    """Maximize ``Re tr(C_k X)`` over a family, each Hermitian C_k given by
    its Kronecker factors, C_k = left[k] (x) right[k] (`_kron_objectives`).

    Returns ``(maximizers, infos)``, of shape (K, n, n) and one `IpmInfo`
    per program.  The programs go through consecutive `solve_stacked` runs
    (`stack_runs`), each of whose n x n objectives are formed when it
    starts, so a run's working set stays within ``STACK_BYTES`` and no
    n x n stack outlives its run.  With ``groups`` (a label per program, an
    index into ``floors``, the best value known per group), programs that
    cannot win their group are pruned, and a group's floor carries over
    from run to run.  Raises `SolverFailure` when any program ends neither
    optimal nor pruned, so no value of a failed stack is returned.
    """
    floors = None if groups is None else np.array(floors, dtype=float)
    n, m = family.constraints.n, family.constraints.m
    xs, infos = np.empty((len(left), n, n), dtype=complex), []
    for run in stack_runs(len(left), n, m):
        xs[run], _, _, run_infos = solve_stacked(
            family, _kron_objectives(left[run], right[run]),
            groups=groups if groups is None else groups[run], floors=floors)
        infos.extend(run_infos)
    failed = [k for k, info in enumerate(infos) if info.status not in ("optimal", "pruned")]
    if failed:
        info = infos[failed[0]]
        raise SolverFailure(info.status, f"{len(failed)} of {len(infos)} SDPs did not reach "
                                         f"optimality, first #{failed[0]}: {info}")
    return xs, infos


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


def _sign_constraints(da, db):
    """``(functionals, p, q)`` of the sign programs: tr X = 1, and the pins
    diag(<i|_A X |j>_A) = 0 for i < j, at (p, q) = (i db + b, j db + b) in
    the order of (i, j, b)."""
    i, j = np.triu_indices(da, 1)
    b = np.arange(db)
    return ([(np.eye(da * db, dtype=complex), 1.0 + 0.0j)],
            (i[:, None] * db + b).ravel(), (j[:, None] * db + b).ravel())


@functools.lru_cache(maxsize=None)
def sign_family(da, db):
    """The constraints every sign program over dims (da, db) shares.

    m = 1 + da (da - 1) db independent Hermitian rows, the trace row and
    two per pin; the start is the maximally mixed X, strictly feasible for
    every sign program.
    """
    return constraint_family(*_sign_constraints(da, db))


def _signed_populations(thetas, signs):
    """T[p, k] = sum_n s_kn T_n, T_n[a, b] = <n| theta_p(|a><b|) |n>: the
    signed output populations of each channel of one shape for each sign
    row; the program for row k of pair p maximizes conj(W_p (x) T[p, k])."""
    dim_out, dim_in = thetas[0].dim_out, thetas[0].dim_in
    idx = np.arange(dim_out)
    chois = np.stack([theta.choi for theta in thetas]).reshape(-1, dim_out, dim_in, dim_out, dim_in)
    pops = np.ascontiguousarray(np.swapaxes(chois[:, idx, :, idx, :], 0, 1))
    return np.moveaxis(np.moveaxis(pops, 1, -1) @ signs.T, -1, 1)


def _sign_factors(theta, cfg, signs):
    """The factors ``(conj W, conj T_s)`` of one pair's programs for ``signs``."""
    signs = np.asarray(signs, dtype=float)
    if signs.shape[-1] != theta.dim_out:
        raise DimensionMismatch("sign vector length must equal the output dimension")
    left, right = np.conj(cfg.signal_weights), np.conj(_signed_populations([theta], signs)[0])
    return np.broadcast_to(left, right.shape[:1] + left.shape), right


def _sign_objectives(theta, cfg, signs):
    """Stack of the n x n Hermitian objectives of one pair's programs for
    ``signs``: the Hermitian part of the product of their `_sign_factors`."""
    return la.hermitian_part(_kron_objectives(*_sign_factors(theta, cfg, signs)))


# ---------------------------------------------------------------------------
# Conjugate objectives: one sign program per class
# ---------------------------------------------------------------------------

def _class_factors(weights, signed):
    """F[p, k], the Hermitian part of W^_p (x) signed[p, k]: W^_p the 2 x 2
    Frobenius norms of pair p's weights between S0 (index 0 and every i with
    |W_0i| <= ``SYMMETRY_TOL`` max |W|) and the rest, for all pairs at once."""
    mag = np.abs(weights)
    first = mag[:, 0] <= SYMMETRY_TOL * mag.max(axis=(1, 2))[:, None]
    first[:, 0] = True
    member = np.stack([first, ~first], axis=-1).astype(float)
    w_hat = np.sqrt(np.swapaxes(member, 1, 2) @ mag**2 @ member)
    return la.hermitian_part(_kron_objectives(w_hat[:, None], signed))


def _tree_phases(rep, candidates, floor):
    """Phases d, one row per candidate O, with d_a conj(d_b) rep[a, b] in
    the phase of O[a, b] along a maximum spanning forest of the entries of
    ``rep`` above ``floor``; each tree's root takes phase 1.

    Prim's algorithm on Python floats, which at the sizes of the sign
    programs is several times cheaper than a numpy step per node.
    """
    n = len(rep)
    mag = np.abs(rep).tolist()
    link, parent, free, edges = [0.0] * n, [-1] * n, list(range(n)), []
    while free:
        # the free node closest to the forest; with none linked, a new root
        c = max(free, key=link.__getitem__)
        free.remove(c)
        if parent[c] >= 0:
            edges.append((parent[c], c))
        for j in free:
            if mag[c][j] > max(link[j], floor):
                link[j], parent[j] = mag[c][j], c
    phases = np.ones((len(candidates), n), dtype=complex)
    if edges:
        up, down = np.array(edges).T
        turns = np.exp(-1j * np.angle(candidates[:, up, down] * np.conj(rep[up, down])))
        for e, (p, c) in enumerate(edges):
            phases[:, c] = phases[:, p] * turns[:, e]
    return phases


def _conjugate_classes(objectives):
    """Classes of conjugate objectives in a (P, K, n, n) stack, for the sign
    programs their (P, K, 2 d_B, 2 d_B) factors (`_class_factors`).

    Returns ``(rep, phases)``: per pair p and objective k, the lowest index
    of k's class, its representative, and phases d with O_k = D O_rep D^dag,
    D = diag(d).  Diagonal conjugation keeps the real diagonal and the
    entrywise magnitudes, so only objectives that share them are compared:
    first through a weighted sum of those invariants, for all pairs at once,
    then entry by entry.  A representative's remaining candidates take
    their phases from `_tree_phases`, and each is accepted only if
    max |D O_rep D^dag - O_k| <= ``SYMMETRY_TOL`` max |O| over the pair.
    A class that this misses only leaves more programs to solve.
    """
    pairs, count, n = objectives.shape[:3]
    mag = np.abs(objectives)
    tol = SYMMETRY_TOL * mag.max(axis=(1, 2, 3), initial=0.0)
    invariants = np.concatenate([mag.reshape(pairs, count, n * n),
                                 np.diagonal(objectives, axis1=2, axis2=3).real], axis=-1)
    weights = np.linspace(1.0, 2.0, invariants.shape[-1])
    key = invariants @ weights
    # invariants that agree within tol give keys that agree within sum(w) tol
    close = np.abs(key[:, :, None] - key[:, None, :]) <= weights.sum() * tol[:, None, None]
    index = np.arange(count)
    rep = np.tile(index, (pairs, 1))
    phases = np.ones((pairs, count, n), dtype=complex)
    for p in np.flatnonzero(np.triu(close, 1).any(axis=(1, 2))):
        for k in range(count):
            if rep[p, k] != k:
                continue
            later = np.flatnonzero(close[p, k] & (rep[p] == index) & (index > k))
            later = later[np.abs(invariants[p, later] - invariants[p, k]).max(axis=1, initial=0.0)
                          <= tol[p]]
            if not len(later):
                continue
            d = _tree_phases(objectives[p, k], objectives[p, later], tol[p])
            moved = d[:, :, None] * objectives[p, k] * np.conj(d[:, None, :])
            ok = np.abs(moved - objectives[p, later]).max(axis=(1, 2)) <= tol[p]
            rep[p, later[ok]], phases[p, later[ok]] = k, d[ok]
    return rep, phases


def build_sign_program(theta, cfg, signs):
    """``(functionals, objective)`` of the SDP whose optimum is the best signed
    sum of output populations, for `solve_sdp`: the constraints of
    `sign_family` with each pin written out as the dense functional
    ``(E_pq, 0)``, so the reference path runs every row dense.

    ``signs`` is a +-1 vector of length ``theta.dim_out``.
    """
    functionals, p, q = _sign_constraints(cfg.dim, theta.dim_in)
    eye = np.eye(cfg.dim * theta.dim_in, dtype=complex)
    pins = [(np.outer(eye[a], eye[b]), 0.0 + 0.0j) for a, b in zip(p, q)]
    return functionals + pins, _sign_objectives(theta, cfg, [signs])[0]


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
    ``per_sign_status`` says ``pruned``.  ``per_sign_orbit`` gives each
    pattern's class representative (`_conjugate_classes`); only
    representatives are solved, and every non-constant pattern k reads its
    class: the representative's value and status, and its ceiling plus the
    transfer defect ||O_k - D O_rep D^dag||_F (0 for the representative),
    which bounds |tr((O_k - D O_rep D^dag) X)| for every X >= 0 with tr X = 1.
    ``upper_bound`` is the largest ceiling, the constant patterns counting
    as exact, plus the rounding allowance of the n x n game arithmetic
    (`ipm.rounding_allowance`), so that a value computed for a strategy
    never exceeds it by rounding alone.
    """

    per_sign: list
    per_sign_status: list
    per_sign_orbit: list
    winner: int
    improvement: float
    upper_bound: float
    x_opt: np.ndarray  # the winning program's maximizer


def _pinned_ceilings(family, left, right):
    """lambda_max of each objective left[k] (x) right[k] without the entries
    (i b, j b), i != j, that every feasible X of `sign_family` pins to zero:
    a ceiling on the program's value, since tr X = 1 and X >= 0.  The
    objectives are formed one run of `stack_runs` at a time."""
    pinned = np.kron(1 - np.eye(left.shape[-1]), np.eye(right.shape[-1])).astype(bool)
    return np.concatenate([
        np.linalg.eigvalsh(np.where(pinned, 0.0, la.hermitian_part(
            _kron_objectives(left[run], right[run]))))[:, -1]
        for run in stack_runs(len(left), family.constraints.n, family.constraints.m)])


def evaluate_pairs(pairs):
    """Solve the sign programs of many (theta, cfg) pairs with the same dims.

    Only the objectives' Kronecker factors are held: conj(T_s) per pair and
    pattern, conj(W) per program.  The non-constant patterns split into
    classes, found exactly on the 2 d_B x 2 d_B factors W^ (x) conj(T_s)
    (`_class_factors`, `_conjugate_classes`), and each class's lowest
    pattern is solved, in stacked runs over the shared `sign_family`, one
    group per pair, whose floor starts at the exact value |lam - mu|.  Every
    other non-constant pattern reads its class (`SignEvaluation`); ties go
    to the lowest pattern, so the winner is always a solved program.  Over
    several runs (`stack_runs`), a program is pruned only below what its
    pair reached before, so each pair's programs go in descending order of
    their `_pinned_ceilings`, the likely winner first; no value depends on
    the order.  Returns ``(signs, evaluations)``, all 2^N patterns and one
    `SignEvaluation` per pair.  Raises `SolverFailure` when any program
    fails or any pair's improvement is negative.
    """
    for theta, _ in pairs:
        if not isinstance(theta, ch.Channel):
            raise ValidationError("pre-processed improvement requires a CPTP channel")
    dims = {(cfg.dim, theta.dim_in, theta.dim_out) for theta, cfg in pairs}
    if not dims:
        return [], []
    if len(dims) > 1:
        raise DimensionMismatch("pairs evaluated together must share their dims")
    ((da, db, dim_out),) = dims

    signs = enumerate_sign_vectors(dim_out, full=True)
    sign_rows = np.array(signs, dtype=float)
    per_sign = np.array([cfg.lam - cfg.mu for _, cfg in pairs])[:, None] * sign_rows[:, 0]
    ceiling = per_sign.copy()
    status = np.full(per_sign.shape, "exact", dtype=object)
    # patterns 0 and 2^N - 1 are the constant ones
    non_constant = np.arange(1, len(signs) - 1)
    weights = np.array([cfg.signal_weights for _, cfg in pairs])
    signed = np.conj(_signed_populations([theta for theta, _ in pairs], sign_rows[non_constant]))
    factors = _class_factors(weights, signed)
    rep, phases = _conjugate_classes(factors)
    orbit = np.tile(np.arange(len(signs)), (len(pairs), 1))
    orbit[:, non_constant] = non_constant[rep]
    # the transfer defects ||F_k - D F_rep D^dag||_F, 0 for a representative
    moved = (phases[..., :, None] * np.take_along_axis(factors, rep[..., None, None], 1)
             * np.conj(phases[..., None, :]))
    defects = np.linalg.norm(factors - moved, axis=(2, 3))
    rows, cols = np.nonzero(rep == np.arange(len(non_constant)))
    left, right = np.conj(weights)[rows], signed[rows, cols]
    family = sign_family(da, db)
    if len(stack_runs(len(rows), family.constraints.n, family.constraints.m)) > 1:
        try:
            order = np.lexsort((-_pinned_ceilings(family, left, right), rows))
        except np.linalg.LinAlgError:  # the order only speeds up pruning
            order = np.arange(len(rows))
        rows, cols, left, right = rows[order], cols[order], left[order], right[order]
    solved = non_constant[cols]
    xs, infos = solve_family(family, left, right, rows, [cfg.prior_gap for _, cfg in pairs])
    # the representatives' outcomes, which every pattern reads through its class
    status[rows, solved] = [info.status for info in infos]
    ceiling[rows, solved] = [info.bound for info in infos]
    per_sign[rows, solved] = [info.primal_objective for info in infos]
    reps = (np.arange(len(pairs))[:, None], orbit[:, non_constant])
    status[:, non_constant] = status[reps]
    ceiling[:, non_constant] = ceiling[reps] + defects
    per_sign[:, non_constant] = np.where(status[:, non_constant] == "pruned",
                                         ceiling[:, non_constant], per_sign[reps])
    position = np.full(per_sign.shape, -1)
    position[rows, solved] = np.arange(len(rows))

    evaluations = []
    for p, (_, cfg) in enumerate(pairs):
        # a pruned entry is a ceiling, which no X attains, so it never wins;
        # ties go to the lowest pattern, a solved one
        winner = int(np.argmax(np.where(status[p] == "pruned", -np.inf, per_sign[p])))
        improvement = float(per_sign[p, winner] - cfg.prior_gap)
        if improvement < -1e-7:
            raise SolverFailure("numerical_failure",
                                f"non-negativity violated: improvement {improvement:.3e}")
        # a constant pattern wins at the maximally mixed X, feasible for all
        x_opt = (xs[position[p, winner]] if position[p, winner] >= 0
                 else np.eye(da * db, dtype=complex) / (da * db))
        top = ceiling[p].max()
        upper = float(top + rounding_allowance(da * db, 1.0 + abs(top)))
        evaluations.append(SignEvaluation(per_sign[p].tolist(), status[p].tolist(),
                                          orbit[p].tolist(), winner, improvement, upper, x_opt))
    return signs, evaluations


def preprocessed_improvement(theta, cfg):
    """Evaluate the pre-processed improvement of ``theta`` for a game ``cfg``.

    Solves one SDP per class of non-constant sign vectors (`evaluate_pairs`)
    and reports the maximum, the winning X, the optimal input state and
    pre-processing extracted from it with the residual of their round trip
    through the game arithmetic, and the bracket of the direct game value
    of that pair and the largest ceiling.  If any program or the extraction
    fails, the residual exceeds 1e-6, or the bracket is inverted or wider
    than ``BRACKET_TOL``, `SolverFailure` is raised and no value is reported.
    """
    signs, (evaluation,) = evaluate_pairs([(theta, cfg)])
    trace_norm = evaluation.per_sign[evaluation.winner]
    try:
        res = extract_optimal(evaluation.x_opt, (cfg.dim, theta.dim_in))
    except ValidationError as exc:
        raise SolverFailure("numerical_failure",
                            f"no optimal pair extracted from the solver's X: {exc}") from exc
    achieved = verify_extraction(theta, cfg, res)
    residual = abs(achieved - trace_norm)
    if residual > 1e-6:
        raise SolverFailure("numerical_failure",
                            f"extraction round-trip residual {residual:.3e} exceeds 1e-6")
    if not 0.0 <= evaluation.upper_bound - achieved <= BRACKET_TOL:
        raise SolverFailure("numerical_failure", f"bracket [{achieved!r}, "
                            f"{evaluation.upper_bound!r}] is inverted or wider than {BRACKET_TOL}")

    return MeasureReport(
        value=evaluation.improvement,
        trace_norm=trace_norm,
        lower_bound=achieved,
        upper_bound=evaluation.upper_bound,
        per_sign_values=evaluation.per_sign,
        per_sign_status=evaluation.per_sign_status,
        per_sign_orbit=evaluation.per_sign_orbit,
        pruned=evaluation.per_sign_status.count("pruned"),
        sign_vectors=signs,
        x_opt=evaluation.x_opt,
        rho_opt=res.rho_opt,
        phi_opt=res.phi_opt,
        verification_residual=residual,
        config=cfg,
        sigma_diag=res.sigma_diag,
    )

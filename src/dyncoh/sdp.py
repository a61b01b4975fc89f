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
one (`solve_sdp`) or a family (`solve_family`), takes its independent rows
and positive definite start from `constraint_family`.  The sign programs
share every constraint, so the constraints are built once per dims
(`sign_family`), and the programs of one evaluation, or of many evaluations
over the same dims (`evaluate_pairs`, which the mixture sweep uses), are
solved together in stacked interior-point runs.  Each run holds as many
programs as its working set allows: its length times `stack_footprint`
stays within ``STACK_BYTES``, and a run holds at least one program
(`stack_runs`).  Programs that take several runs go in descending order
of a cheap ceiling (`_pinned_ceilings`) within each pair, so that the
likely winner's value prunes the runs after it.  The objectives of all
pairs come from one stack of output populations (`_populations`) in one
contraction (`_signed_objectives`).
The two constant sign patterns are never solved: trace preservation pins
their value to +-(lam - mu).

Programs related by a symmetry of the channel's outputs are solved once.
If T_{pi(n)} = V^dag T_n V, with T_n[a, b] = <n| theta(|a><b|) |n>, for an
output permutation pi and a diagonal unitary V, the programs of s and pi s
have objectives conjugate under I_A (x) V, which keeps every constraint,
and so one value.  `evaluate_pairs` finds such symmetries (a stacked
magnitude test over all pairs, then a stabilizer-chain search, each
candidate accepted only to ``SYMMETRY_TOL``), solves the lowest pattern of
each orbit, and transfers its value and status to the rest of the orbit.

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
from .kernels import SparseConstraints, real_vectors

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
# An output symmetry is accepted within this deviation, relative to the
# largest population coefficient |T_n[a, b]| of its channel ...
SYMMETRY_TOL = 1e-12
# ... and the search for one is steered among candidate images within this
_STEER_TOL = 1e-9


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
    the last.  ``per_sign_orbit`` gives each pattern's orbit representative
    under the channel's output symmetries: a pattern k with
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

def constraint_family(functionals):
    """Complex functionals ``(F, t)`` -> independent Hermitian rows and a start.

    Each functional splits into its Hermitian part (target Re t) and its
    anti-Hermitian part over 2i (target -Im t); a vanishing part is dropped.
    `ValidationError` is raised unless the rows are independent (each |R_ii|
    of a QR factorization of their real vectorizations v exceeds
    1e-10 max(1, |v_i|)) and the start, the projection I + A^+(b - A(I)) of
    the identity onto A(X) = b, is positive definite, and for a vanishing
    part with a nonzero target.  The arrays are read-only: cached families
    are shared.
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
    v = real_vectors(np.array(mats))
    r = np.abs(np.diagonal(np.linalg.qr(v.T, mode="r")))
    if r.size < len(v) or (r <= 1e-10 * np.maximum(1.0, np.linalg.norm(v, axis=1))).any():
        raise ValidationError("constraints are linearly dependent")
    constraints, targets = SparseConstraints(mats), np.array(targets)
    eye = np.eye(constraints.n, dtype=complex)
    start = eye + constraints.least_norm(targets - constraints.dot(eye))
    if not np.linalg.eigvalsh(start)[0] > 1e-8:
        raise ValidationError("the projected identity is not positive definite")
    for shared in (constraints.dense, constraints.flat, constraints.gram_inv, targets, start):
        shared.flags.writeable = False
    return ConstraintFamily(constraints, targets, start)


def solve_sdp(functionals, objective):
    """Maximize ``Re tr(objective X)`` over PSD X on one Hermitian block,
    subject to complex functionals ``(F, t)``: ``sum_pq conj(F[p,q]) X[p,q] = t``.

    One program through `constraint_family` and `solve_real_sdp`.  Returns
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


def solve_family(family, objectives, groups=None, floors=None):
    """Maximize ``Re tr(C_k X)`` over a family for a stack of Hermitian C_k.

    Returns ``(maximizers, infos)``, of shape (K, n, n) and one `IpmInfo`
    per program.  The programs go through consecutive `solve_stacked` runs
    (`stack_runs`), so the working set of a run stays within
    ``STACK_BYTES`` whatever the stack length.  With ``groups`` (one label
    per program, an index into ``floors``, the best value known per group),
    programs that cannot win their group are pruned, and a group's floor
    carries over from run to run.  Raises `SolverFailure` when any program
    ends neither optimal nor pruned, so no value of a failed stack is ever
    returned.
    """
    floors = None if groups is None else np.array(floors, dtype=float)
    xs, infos = [], []
    for run in stack_runs(len(objectives), family.constraints.n, family.constraints.m):
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


def _populations(thetas):
    """T[p, n, a, b] = <n| theta_p(|a><b|) |n>: each output population of
    each channel as a form on its input, one C-contiguous stack for
    channels of one shape."""
    dim_out, dim_in = thetas[0].dim_out, thetas[0].dim_in
    idx = np.arange(dim_out)
    chois = np.stack([theta.choi for theta in thetas]).reshape(-1, dim_out, dim_in, dim_out, dim_in)
    return np.ascontiguousarray(np.swapaxes(chois[:, idx, :, idx, :], 0, 1))


def _signed_objectives(pops, weights, signs):
    """O[p, k], the Hermitian objective of the program for sign row k of pair
    p: the pair's signed output populations (a `_populations` stack), weighted
    by its game's W (``weights``, one matrix per pair).  One contraction for
    every pair; each pair's objectives are those it has alone, to the bit."""
    t_mats = np.moveaxis(np.moveaxis(pops, 1, -1) @ signs.T, -1, 1)
    pairs, rows, db = t_mats.shape[:3]
    n = weights.shape[-1] * db
    objectives = np.conj(np.einsum("pij,pkab->pkiajb", weights, t_mats))
    return la.hermitian_part(objectives.reshape(pairs, rows, n, n))


def _sign_objectives(theta, cfg, signs):
    """Stack of the Hermitian objectives of one pair's programs for ``signs``:
    `_signed_objectives` for a single pair."""
    signs = np.asarray(signs, dtype=float)
    if signs.shape[-1] != theta.dim_out:
        raise DimensionMismatch("sign vector length must equal the output dimension")
    return _signed_objectives(_populations([theta]), cfg.signal_weights[None], signs)[0]


# ---------------------------------------------------------------------------
# Output symmetries: one sign program per orbit
# ---------------------------------------------------------------------------
#
# Suppose T_{pi(n)} = V^dag T_n V for a permutation pi of the outputs and a
# diagonal unitary V = diag(v) on the channel input.  The pattern pi s, with
# (pi s)_{pi(n)} = s_n, then has the objective U O_s U^dag, U = I_A (x) V,
# and conjugation by U keeps every constraint (a pinned entry (i b, j b)
# picks up |v_b|^2 = 1), so the programs of s and pi s have one value for
# every game.  This is the symmetry reduction of an SDP family (Gatermann &
# Parrilo, J. Pure Appl. Algebra 192, 2004), with the group acting on the
# family rather than inside one program.

def _candidate_images(pops):
    """``match[p, n, m]``: |T_m| = |T_n| entrywise for pair p of the
    `_populations` stack, within ``SYMMETRY_TOL`` of the pair's largest
    entry.  Only such an m can be pi(n)."""
    mag = np.abs(pops)
    scale = mag.max(axis=(1, 2, 3))
    dev = np.abs(mag[:, :, None] - mag[:, None, :]).max(axis=(3, 4))
    return dev <= SYMMETRY_TOL * scale[:, None, None]


def _link(tn, tm, root, rel):
    """Join T_{pi(n)} = tm with T_n = tn into partial phases, or None.

    ``rel`` gives each input's phase relative to the root of its component,
    v_a = rel[a] v_{root[a]}.  Each entry of T_n above ``SYMMETRY_TOL`` of
    its largest fixes v_b / v_a = tm[a, b] / tn[a, b]; the largest entries
    join components first, and the rest must agree within ``_STEER_TOL``.
    """
    mag = np.abs(tn)
    size = mag.max()
    a, b = np.nonzero(np.triu(mag > SYMMETRY_TOL * size, 1))
    order = np.argsort(-mag[a, b], kind="stable")
    a, b = a[order], b[order]
    ratio = np.exp(1j * np.angle(tm[a, b] / tn[a, b]))
    root, rel = root.copy(), rel.copy()
    for i, j, r in zip(a, b, ratio):
        if root[i] != root[j]:
            joined = root == root[j]
            rel[joined] *= r * rel[i] / rel[j]
            root[joined] = root[i]
    if not (np.abs(np.conj(rel[a]) * rel[b] * tn[a, b] - tm[a, b]) <= _STEER_TOL * size).all():
        return None
    return root, rel


def _completion(t, match, pinned):
    """One output symmetry ``(perm, v)`` with ``perm[n] = pinned[n]`` for
    the first ``len(pinned)`` outputs, or None.

    The other outputs take, in index order, the first free candidate image
    whose T agrees with the phases fixed so far; a component of inputs that
    no T_n links gets phase 1.  The pair is accepted only if
    max |T_{perm(n)} - V^dag T_n V| <= ``SYMMETRY_TOL`` max |T|.  A symmetry
    that this greedy choice misses only leaves more programs to solve.
    """
    n_out, db = t.shape[:2]
    root, rel = np.arange(db), np.ones(db, dtype=complex)
    perm, free = np.full(n_out, -1), np.ones(n_out, dtype=bool)
    for n in range(n_out):
        options = [pinned[n]] if n < len(pinned) else np.flatnonzero(match[n] & free)
        for m in options:
            linked = _link(t[n], t[m], root, rel)
            if linked is not None:
                break
        else:
            return None
        (root, rel), perm[n], free[m] = linked, m, False
    conjugated = np.conj(rel)[:, None] * t * rel[None, :]
    if not la.max_abs(t[perm] - conjugated) <= SYMMETRY_TOL * np.abs(t).max():
        return None
    return perm, rel


def _output_symmetries(t, match):
    """Generators ``(perm, v)`` of the output symmetries of one pair.

    ``t`` stacks T_n along its first axis, and ``match`` is the pair's
    `_candidate_images`.  Stabilizer-chain style: at level i, for each
    candidate image m > i of output i not yet in the orbit of i under the
    symmetries found at that level, one `_completion` looks for a symmetry
    that fixes outputs 0..i-1 and takes i to m, a coset representative.  So
    at most N (N - 1) / 2 completions run, and no list of the N!
    permutations is formed.
    """
    gens = []
    for i in range(len(t) - 1):
        orbit, level = {i}, []
        for m in np.flatnonzero(match[i, i + 1:]) + i + 1:
            if m in orbit:
                continue
            found = _completion(t, match, list(range(i)) + [m])
            if found is None:
                continue
            gens.append(found)
            level.append(found[0])
            frontier = [i]
            for j in frontier:
                for perm in level:
                    if perm[j] not in orbit:
                        orbit.add(perm[j])
                        frontier.append(perm[j])
    return gens


def _sign_orbits(n_out, db, gens):
    """The orbit of each sign pattern under the generators.

    Returns ``(rep, v)``: the lowest pattern index of each pattern's orbit,
    its representative, and per pattern k the phases with
    O_k = U O_rep U^dag, U = I (x) diag(v[k]).  Pattern k has s_n = -1
    where bit N-1-n of k is set, as in `enumerate_sign_vectors`.
    """
    size = 2 ** n_out
    shift = n_out - 1 - np.arange(n_out)
    bits = (np.arange(size)[:, None] >> shift) & 1
    # (pi s)_m = s_{pi^-1(m)}
    images = [(bits[:, np.argsort(perm)] << shift).sum(axis=1) for perm, _ in gens]
    rep, v = np.full(size, -1), np.ones((size, db), dtype=complex)
    for k in range(size):
        if rep[k] >= 0:
            continue
        rep[k], frontier = k, [k]
        for j in frontier:
            for image, (_, phases) in zip(images, gens):
                if rep[image[j]] < 0:
                    rep[image[j]], v[image[j]] = k, v[j] * phases
                    frontier.append(image[j])
    return rep, v


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
    ``per_sign_status`` says ``pruned``.  ``per_sign_orbit`` gives each
    pattern's orbit representative under the channel's output symmetries;
    only representatives are solved, and a pattern k with
    ``per_sign_orbit[k] != k`` is transferred: it takes its
    representative's value and status, and the representative's ceiling
    plus the transfer defect ||O_k - U O_rep U^dag||_F, which bounds
    |tr((O_k - U O_rep U^dag) X)| for every X >= 0 with tr X = 1.
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


def _pair_orbits(pops, n_signs):
    """Orbit representatives (P, 2^N) of the sign patterns of each pair, and
    for each pair with a symmetry the phases of `_sign_orbits`, from the
    pairs' `_populations` stack.

    One stacked `_candidate_images` test covers every pair; a pair whose
    outputs each match only themselves keeps the trivial group without
    further work.
    """
    match = _candidate_images(pops)
    orbit = np.tile(np.arange(n_signs), (len(pops), 1))
    phases = {}
    for p in np.flatnonzero((match & ~np.eye(match.shape[-1], dtype=bool)).any(axis=(1, 2))):
        gens = _output_symmetries(pops[p], match[p])
        if gens:
            orbit[p], phases[int(p)] = _sign_orbits(pops.shape[1], pops.shape[-1], gens)
    return orbit, phases


def _pinned_ceilings(objectives, da, db):
    """lambda_max of each objective without the entries (i b, j b), i != j,
    that every feasible X of `sign_family` pins to zero: a ceiling on the
    program's value, since tr X = 1 and X >= 0."""
    pinned = np.kron(1 - np.eye(da), np.eye(db)).astype(bool)
    return np.linalg.eigvalsh(np.where(pinned, 0.0, objectives))[:, -1]


def evaluate_pairs(pairs):
    """Solve the sign programs of many (theta, cfg) pairs with the same dims.

    Each pair's output symmetries split its sign patterns into orbits
    (`_pair_orbits`), and only each orbit's lowest pattern is solved; a
    channel without symmetries solves every pattern.  The non-constant
    representatives of every pair go into stacked runs over the shared
    `sign_family`, one group per pair, whose floor starts at the exact
    constant-pattern value |lam - mu|; the two constant patterns are pinned
    to +-(lam - mu) by trace preservation.  The other patterns are
    transferred (`SignEvaluation`); a representative precedes its orbit and
    ties go to the lowest pattern, so the winner is always a solved program.
    When the programs take more than one run (`stack_runs`), a program is
    pruned only below what its pair reached in this and earlier runs, so
    each pair's programs go in descending order of their `_pinned_ceilings`,
    which puts the likely winner first; no value depends on the order.
    Returns ``(signs, evaluations)``, all 2^N patterns and one
    `SignEvaluation` per pair.  Raises `SolverFailure` when any program
    fails or any pair's improvement is negative, so no value of such a
    batch is returned.
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
    pops = _populations([theta for theta, _ in pairs])
    orbit, phases = _pair_orbits(pops, len(signs))
    # patterns 0 and 2^N - 1 are the constant ones
    non_constant = np.arange(1, len(signs) - 1)
    objectives = _signed_objectives(pops, np.array([cfg.signal_weights for _, cfg in pairs]),
                                    sign_rows[non_constant])
    is_rep = orbit[:, non_constant] == non_constant
    # per pair with a symmetry: its transferred patterns and their defects
    transfers = {}
    for p, v in phases.items():
        moved = non_constant[~is_rep[p]]
        rep_objectives = objectives[p, orbit[p, moved] - 1]
        # U O_rep U^dag, U = I_A (x) diag(v), has entry (i a, j b) times v_a conj(v_b)
        u = np.tile(v[moved], da)
        transported = u[:, :, None] * rep_objectives * np.conj(u[:, None, :])
        transfers[p] = moved, np.linalg.norm(objectives[p, moved - 1] - transported, axis=(1, 2))
    rows, cols = np.nonzero(is_rep)
    family = sign_family(da, db)
    if len(stack_runs(len(rows), family.constraints.n, family.constraints.m)) > 1:
        try:
            order = np.lexsort((-_pinned_ceilings(objectives[rows, cols], da, db), rows))
        except np.linalg.LinAlgError:  # the order only speeds up pruning
            order = np.arange(len(rows))
        rows, cols = rows[order], cols[order]
    solved = non_constant[cols]
    xs, infos = solve_family(family, objectives[rows, cols], rows,
                             [cfg.prior_gap for _, cfg in pairs])
    status[rows, solved] = [info.status for info in infos]
    ceiling[rows, solved] = [info.bound for info in infos]
    per_sign[rows, solved] = [info.bound if info.status == "pruned" else info.primal_objective
                              for info in infos]
    for p, (moved, defects) in transfers.items():
        reps = orbit[p, moved]
        status[p, moved] = status[p, reps]
        ceiling[p, moved] = ceiling[p, reps] + defects
        per_sign[p, moved] = np.where(status[p, reps] == "pruned", ceiling[p, moved],
                                      per_sign[p, reps])
    position = np.full(per_sign.shape, -1)
    position[rows, solved] = np.arange(len(rows))

    evaluations = []
    for p, (_, cfg) in enumerate(pairs):
        # a pruned entry is a ceiling, which no X attains, so it never wins;
        # ties go to the lowest pattern, a solved one
        winner = int(np.argmax(np.where(status[p] == "pruned", -np.inf, per_sign[p])))
        improvement = float(per_sign[p, winner] - cfg.prior_gap)
        if improvement < -1e-7:
            raise SolverFailure(
                "numerical_failure",
                f"non-negativity violated: improvement {improvement:.3e}",
            )
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

    Solves one SDP per orbit of non-constant sign vectors through
    `evaluate_pairs`, stacked over the shared `sign_family`, and reports the maximum, the
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

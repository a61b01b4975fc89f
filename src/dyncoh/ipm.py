"""Dense primal-dual interior-point method for small complex Hermitian SDPs.

Maximizes Re tr(C_k X) subject to Re tr(H_i X) = b_i and X PSD for a stack
of K objectives C_k that share their constraints, each over a single dense
Hermitian PSD block, with C_k and H_i Hermitian.  Every objective, floor
and ceiling in and out is in these terms.  Only inside is C_k negated, once
on entry: the iteration runs on the pair

    (P_k)  min Re tr(-C_k X)   s.t.  Re tr(H_i X) = b_i,  X PSD
    (D_k)  max b.y             s.t.  sum_i y_i H_i + S = -C_k,  S PSD,

to which the returned y and S belong, with Nesterov-Todd scaling (Todd,
Toh & Tutuncu, SIAM J. Optim. 1998) and Mehrotra's predictor-corrector
(SIAM J. Optim. 2, 1992), as SDPT3 runs it in the same frame: an affine
predictor step fixes the centering parameter and the corrector's
second-order term.  The block is handled natively, at its complex dimension
n, as SDPT3 handles complex blocks.  Every program starts at its family's
strictly feasible start, and every direction is corrected onto
A(dX) = r_p, so the iterates stay primal-feasible to roundoff.

Layout: the programs still running hold their state in arrays along a
leading axis, so each dense factorization (Cholesky, SVD, Hermitian
eigenvalues, the Schur solves) is one stacked numpy call.  Every program
keeps its own stopping tests, stall counter, Schur jitter and failure
status, so a program takes the same steps in a stack as alone.  Where
LAPACK fails on a stack, `_each` redoes each program alone, as a stack of
one, and one that fails again takes its own fallback: the SVD of the
adjoint, jitter on its Schur matrix, the upper triangle of a step-length
congruence, a NaN ceiling, and for any other failure in the step a zero
step, which ends it as ``numerical_failure``.  When programs stop, their
X, y and S are written to the returned arrays and the running arrays are
compacted to the rest.  A single program is the stack with K = 1
(`solve_real_sdp`).

No inverse: the scaled frame of Todd, Toh & Tutuncu, as in SDPT3, gives the
step from the Cholesky factors of X and S and one SVD (`_scaled_frame`).
Frames P_x, P_s with P X P^H = I turn each step-length test into the least
eigenvalue of a congruence P dM P^H, and in the frame of G, with W = G G^H,
X and S are both the diagonal Sigma of singular values.  The predictor and
the corrector each solve the same Schur matrix M by LU (`_solve`): the
predictor's congruences, taken once for its step lengths, also give its
directions in the frame of G, from which the corrector's second-order term
is one Lyapunov equation with a diagonal coefficient.  Only a program
whose M is singular, alone as in the stack, takes jitter (`_jittered`).

The Schur matrices of the whole stack come from one
``kernels.SparseConstraints.schur`` call, which gathers most entries from W.
A run's working set grows linearly with the stack length, so the caller
sizes each stack by its bytes (``sdp.STACK_BYTES``, `sdp.stack_runs`).

Certificates and pruning: when every feasible X has tr X = 1, as in the
sign programs, any dual iterate bounds its program from above
(`_dual_bound`).  In a stack whose programs carry group labels, one stacked
``eigvalsh`` call per iteration gives that ceiling for every running
program, and a program whose ceiling shows it cannot reach the greatest
objective attained in its group stops as ``pruned``; one whose ceiling
LAPACK cannot compute ends as ``numerical_failure`` at that iteration.  A
stack without groups computes neither.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg as la
from .kernels import SparseConstraints

# A program stops as optimal at this relative duality gap and these scaled
# primal and dual residuals, or fails after MAX_ITER iterations.
GAP_TOL = 1e-8
FEAS_TOL = 1e-9
MAX_ITER = 200
_STEP_FRACTION = 0.98
_TINY = 1e-14
_STALL_LIMIT = 25


@dataclass(frozen=True)
class ConstraintFamily:
    """Independent Hermitian constraints ``A(X) = b`` on a Hermitian block.

    ``start`` is the positive definite X with A(X) = b that every program
    over the family starts from (`sdp.constraint_family`).
    """

    constraints: SparseConstraints
    targets: np.ndarray
    start: np.ndarray


@dataclass
class IpmInfo:
    # "optimal" | "pruned" | "numerical_failure"; "pruned" only in a stack
    # with groups (see `solve_stacked`)
    status: str
    iterations: int
    gap: float
    primal_residual: float
    dual_residual: float
    primal_objective: float
    dual_objective: float
    # certified ceiling on the objective of every feasible X at the last
    # iterate (`_dual_bound`); inf in a stack without groups
    bound: float = np.inf


def _inner(a, b):
    """Re tr(A B) of Hermitian A, B, one per matrix of a stack."""
    return np.einsum("kij,kij->k", a, b.conj()).real


def _entry_size(m):
    """Largest entry of the real form [[Re, -Im], [Im, Re]] of each matrix."""
    return np.maximum(np.abs(m.real), np.abs(m.imag)).max(axis=(-2, -1), initial=0.0)


def _each(call, retry, *stacks):
    """``call(*stacks)``, a LAPACK-backed call with one result (an array or a
    tuple of arrays) per position of the stacks' leading axis.  If LAPACK
    fails, each position is redone alone, as a stack of one, and one that
    fails again takes ``retry`` of its slices: no result depends on its stack.
    """
    try:
        return call(*stacks)
    except np.linalg.LinAlgError:
        parts = []
        for k in range(len(stacks[0])):
            one = [a[k:k + 1] for a in stacks]
            try:
                parts.append(call(*one))
            except np.linalg.LinAlgError:
                parts.append(retry(*one))
        if isinstance(parts[0], np.ndarray):
            return np.concatenate(parts)
        return tuple(np.concatenate(p) for p in zip(*parts))


def _least_eigenvalue(a, uplo="L"):
    """Least eigenvalue of each Hermitian matrix of a stack, from one triangle."""
    return np.linalg.eigvalsh(a, UPLO=uplo)[:, 0]


def _max_step(cong):
    """Largest alpha with M + alpha*dM PSD, per matrix, from the congruence
    C = P dM P^H by a frame P with P M P^H = I: the congruence takes
    M + alpha*dM to I + alpha*C, so alpha is -1 / lambda_min(C), and
    unbounded when that is >= 0.  C is exactly Hermitian, so a matrix whose
    lower triangle LAPACK cannot decompose takes its upper triangle."""
    lam = _each(_least_eigenvalue, lambda one: _least_eigenvalue(one, "U"), cong)
    return np.where(lam >= -_TINY, np.inf, -1.0 / np.minimum(lam, -_TINY))


def _scaled_frame(x, s):
    """NT scaling and scaled frames of each X, S pair, with no inverse.

    With L_s^H L_x = U Sigma V^H (Cholesky factors X = L_x L_x^H, S = L_s L_s^H
    and one SVD), G = L_x V Sigma^-1/2 gives W = G G^H with W S W = X and
    G^-1 X G^-H = G^H S G = Sigma.  P_x = Sigma^-1 U^H L_s^H = Sigma^-1/2 G^-1
    and P_s = Sigma^-1 V^H L_x^H = Sigma^-1/2 G^H map X and S to the identity,
    P X P^H = I.  Returns ``(W, frames, Sigma, G)``, where ``frames`` stacks
    P_x of every program over P_s of every program and Sigma holds the
    singular values.
    """
    k = x.shape[0]
    factors = np.linalg.cholesky(np.concatenate([x, s]))
    lx, ls = factors[:k], factors[k:]

    def adjoint(a):  # the SVD of A from that of A^H = V Sigma U^H
        v, sv, uh = np.linalg.svd(la.dagger(a))
        return la.dagger(uh), sv, la.dagger(v)

    u, sv, vh = _each(np.linalg.svd, adjoint, la.dagger(ls) @ lx)
    lxv = lx @ la.dagger(vh)
    # P_x^H, P_s^H and G, each a matrix with scaled columns
    cols = np.concatenate([ls @ u, lxv, lxv]) / np.concatenate([sv, sv, np.sqrt(sv)])[:, None]
    g = cols[2 * k:]
    return g @ la.dagger(g), la.dagger(cols[:2 * k]), sv, g


def _jittered(mat, rhs):
    """dy with (M + jitter I) dy = rhs for a stack of one singular Schur
    system, the retry of `_solve` once M itself has failed alone (`_each`).
    Jitter guards against roundoff near a singular Schur complement; after
    two jittered attempts the factorization failure propagates.
    """
    m = mat.shape[-1]
    jitter = 1e-13 * (1.0 + np.trace(mat[0]) / m)
    for scale in (1.0, 10.0):
        try:
            return np.linalg.solve(mat + scale * jitter * np.eye(m), rhs[..., None])[..., 0]
        except np.linalg.LinAlgError:
            pass
    raise np.linalg.LinAlgError("Schur complement is singular")


def _solve(schur, rhs):
    """dy with M dy = rhs for each program of a stack, by one stacked LU solve;
    only a program whose M is singular takes jitter (`_jittered`)."""
    return _each(lambda m, r: np.linalg.solve(m, r[..., None])[..., 0], _jittered, schur, rhs)


def _step(constraints, x, s, rp, rd, gap, centre):
    """Mehrotra predictor-corrector NT direction and step lengths for a stack."""
    k, n = x.shape[0], x.shape[-1]
    w, frames, sv, g = _scaled_frame(x, s)
    schur = constraints.schur(w)
    wrw = w @ rd @ w

    def direction(rc):
        """dX, dy, dS with A(dX) = r_p, A*(dy) + dS = r_d and dX + W dS W = r_c,
        the congruences P_x dX P_x^H over P_s dS P_s^H, and the step lengths."""
        dy = _solve(schur, rp + constraints.dot(wrw - rc))
        ds = rd - constraints.combine(dy)
        dx = la.hermitian_part(rc - w @ ds @ w)
        # Least-norm correction so that A(dX) = r_p holds to roundoff: the
        # ill-conditioned Schur solve leaves an error there that otherwise
        # builds up near degenerate optimal faces and stalls the run.
        dx += constraints.least_norm(rp - constraints.dot(dx))
        cong = la.hermitian_part(frames @ np.concatenate([dx, ds]) @ la.dagger(frames))
        alpha = np.minimum(1.0, _STEP_FRACTION * _max_step(cong))
        return dx, dy, ds, cong, alpha[:k], alpha[k:]

    mu = gap / n
    # The affine predictor, r_c = -X, fixes the centering parameter ...
    dx, _, ds, cong, ap, ad = direction(-x)
    mu_aff = _inner(x + ap[:, None, None] * dx, s + ad[:, None, None] * ds) / n
    sigma = np.clip((np.maximum(mu_aff, 0.0) / mu) ** 3, 1e-10, 0.99)
    # keep centering up while infeasibility dominates the gap
    sigma_mu = np.where(centre, np.maximum(sigma, 0.5), sigma) * mu
    # ... and the second-order term.  In the frame of G, where X and S are
    # both Sigma, the predictor's directions are Sigma^1/2 C Sigma^1/2, and E
    # solves Sigma E + E Sigma = Q + Q^H for their product Q.  The corrector
    # takes r_c = sigma mu S^-1 - X - G E G^H = G (sigma mu Sigma^-1 - E) G^H - X.
    root = np.sqrt(np.concatenate([sv, sv]))
    scaled = root[:, :, None] * cong * root[:, None, :]
    q = scaled[:k] @ scaled[k:]
    inner = -(q + la.dagger(q)) / (sv[:, :, None] + sv[:, None, :])
    diag = np.arange(n)
    inner[:, diag, diag] += sigma_mu[:, None] / sv
    dx, dy, ds, _, ap, ad = direction(g @ inner @ la.dagger(g) - x)
    return dx, dy, ds, ap, ad


def rounding_allowance(n, size):
    """Rounding allowance of a computation on n x n matrices, or of a sum of
    n terms, whose terms are at most ``size``: 4 n eps size."""
    return 4.0 * np.finfo(float).eps * n * size


def _dual_bound(b, y, z, size):
    """Ceiling on the maximization at a dual iterate, per program of a stack:
    -(b.y + lambda_min(Z)) plus its rounding allowance.

    With Z = -C - A*(y) and tr X = 1 on the feasible set, every feasible X has
    Re tr(-C X) = b.y + Re tr(Z X) >= b.y + lambda_min(Z).  The bound is made
    safe in floating point by a stated allowance, not by interval arithmetic
    (as Jansson, Chaykin & Keil, SIAM J. Numer. Anal. 46, 2007, do):
    forming Z moves each entry by a few eps times ``size``, the largest
    entry of C, S and r_d, which moves its spectrum by up to n times that;
    ``eigvalsh`` adds a backward error of order n eps ||Z|| <= n^2 eps
    ``size``; b.y adds m eps |b|.|y|.  The allowance is
    4 eps (n^2 size + m |b|.|y|).  Z must be finite.  A Z whose eigenvalues
    LAPACK cannot compute, alone as in its stack, gets a NaN bound (`_each`).
    """
    n, m = z.shape[-1], y.shape[-1]
    allowance = rounding_allowance(n, n * size) + rounding_allowance(m, np.abs(y) @ np.abs(b))
    least = _each(_least_eigenvalue, lambda one: np.full(1, np.nan), z)
    return -(y @ b + least - allowance)


# A program that diverges overflows to inf and NaN; the finiteness and
# stuck tests then end it.
@np.errstate(over="ignore", invalid="ignore")
def solve_stacked(family, c, groups=None, floors=None):
    """Run the interior-point iteration on K objectives over one family.

    Parameters
    ----------
    family : ConstraintFamily
        The m constraints H_i (Hermitian, linearly independent), their
        targets b, and the start every program takes.
    c : (K, n, n) array
        Hermitian objective matrices of the K maximizations.
    groups : (K,) int array, optional
        The group of each program, an index into ``floors``.  Only for
        constraints under which every feasible X has tr X = 1.
    floors : (G,) float array
        With ``groups``: per group, the greatest objective known to be
        attained, updated in place with the objective of every
        primal-feasible iterate (primal residual at most ``FEAS_TOL``) of the
        group's programs, so it carries over to the next run.

    Returns
    -------
    (X, y, S, infos) with X, S of shape (K, n, n), y of shape (K, m) and one
    `IpmInfo` per program.  A program stops as ``optimal`` at relative gap
    ``GAP_TOL`` and residuals ``FEAS_TOL``, and as ``numerical_failure`` on
    a stall, an overflow, ``MAX_ITER`` iterations or a ceiling whose
    eigenvalues LAPACK cannot compute.  With ``groups``, each
    info carries the program's ceiling at its last iterate, and a program
    stops as ``pruned`` once its ceiling falls below its group's floor f by
    more than GAP_TOL (1 + |f|).  The other programs take the same steps, to
    the bit.
    """
    constraints, b = family.constraints, family.targets
    c = la.hermitian_part(-np.asarray(c, dtype=complex))  # the iteration minimizes
    k_total, n = len(c), constraints.n

    # S0 and the dual residual are scaled as in the real form of the program,
    # for which the tolerances are set: min <C', X'> with X' = [[Re X, -Im X],
    # [Im X, Re X]] and C' the same form of C / 2, whose dual slack is S / 2.
    scale_b = max(1.0, float(np.max(np.abs(b))))
    scale_c = np.maximum(1.0, 0.5 * _entry_size(c))
    # The running programs' state, compacted when programs stop; a program's
    # X, y and S are written to the returned arrays when it stops.
    xr = np.array(np.broadcast_to(family.start, c.shape))
    sr = np.eye(n, dtype=complex) * (2.0 * scale_c[:, None, None])
    yr = np.zeros((k_total, constraints.m))
    x, y, s = np.empty_like(xr), np.empty_like(yr), np.empty_like(sr)
    cr, scale_cr = c, scale_c
    best_gap = np.full(k_total, np.inf)
    stall = np.zeros(k_total, dtype=int)
    status = np.empty(k_total, dtype=object)
    stopped_at = np.zeros(k_total, dtype=int)
    record = np.full((k_total, 6), np.inf)  # the figures of IpmInfo, bound last
    run = np.arange(k_total)  # the programs still running

    def stop(mask, outcome, it, figures):
        """End the running programs in ``mask`` with ``outcome``."""
        ended = run[mask]
        if not ended.size:
            return
        # A failure leaves its group with no floor, so the group prunes no
        # more and its other programs end as they would alone.
        if groups is not None and outcome == "numerical_failure":
            floors[groups[ended]] = np.nan
        status[ended] = outcome
        stopped_at[ended] = it
        record[ended, :figures.shape[1]] = figures[mask]
        x[ended], y[ended], s[ended] = xr[mask], yr[mask], sr[mask]

    for it in range(1, MAX_ITER + 1):
        if not run.size:
            break
        rp = b - constraints.dot(xr)
        rd = cr - sr - constraints.combine(yr)
        gap = _inner(xr, sr)
        pobj = -_inner(cr, xr)  # the objectives of the maximization
        dobj = -(yr @ b)
        prim_res = np.abs(rp).max(axis=1) / scale_b
        rd_size = _entry_size(rd)
        dual_res = 0.5 * rd_size / (1.0 + scale_cr)
        rel_gap = gap / (1.0 + np.abs(pobj) + np.abs(dobj))
        # one row per program, in the order of the IpmInfo fields
        figures = np.stack([rel_gap, prim_res, dual_res, pobj, dobj], axis=1)

        optimal = (rel_gap <= GAP_TOL) & (prim_res <= FEAS_TOL) & (dual_res <= FEAS_TOL)
        improved = gap < best_gap * (1.0 - 1e-4)
        best_gap = np.where(improved, gap, best_gap)
        stall = np.where(improved, 0, stall + 1)
        finite = np.isfinite(figures[:, :3]).all(axis=1)
        failed = ~optimal & (~finite | (stall > _STALL_LIMIT))
        done = optimal | failed
        if groups is not None:
            # A finite dual residual makes C, S and r_d finite, so no
            # non-finite iterate reaches eigvalsh.
            bound = np.full(run.size, np.inf)
            bound[finite] = _dual_bound(
                b, yr[finite], sr[finite] + rd[finite],
                2.0 * scale_cr[finite] + _entry_size(sr[finite]) + rd_size[finite])
            # a program without a bound ends here, optimal or not
            lost = np.isnan(bound)
            optimal &= ~lost
            failed |= lost
            done = optimal | failed
            group = groups[run]
            feasible = finite & (prim_res <= FEAS_TOL)
            np.maximum.at(floors, group[feasible], pobj[feasible])
            floors[group[failed]] = np.nan  # as `stop` does
            best = floors[group]
            pruned = ~done & (bound < best - GAP_TOL * (1.0 + np.abs(best)))
            done |= pruned
            figures = np.column_stack([figures, bound])
            stop(pruned, "pruned", it, figures)
        if done.any():
            stop(optimal, "optimal", it, figures)
            stop(failed, "numerical_failure", it, figures)
            run, xr, yr, sr, cr, scale_cr, best_gap, stall, rp, rd, gap, figures = (
                a[~done] for a in (run, xr, yr, sr, cr, scale_cr, best_gap, stall,
                                   rp, rd, gap, figures))
            if not run.size:
                break

        centre = np.maximum(figures[:, 1], figures[:, 2]) > figures[:, 0]
        # A program whose step LAPACK cannot take, alone as in the stack,
        # takes a zero step, which fails the stuck test: only it ends.
        dx, dy, ds, ap, ad = _each(
            lambda *one: _step(constraints, *one),
            lambda x, s, rp, *_: (np.zeros_like(x), np.zeros_like(rp), np.zeros_like(x),
                                  np.zeros(1), np.zeros(1)),
            xr, sr, rp, rd, gap, centre)
        stuck = (ap < 1e-10) & (ad < 1e-10)
        if stuck.any():
            stop(stuck, "numerical_failure", it, figures)
            run, xr, yr, sr, cr, scale_cr, best_gap, stall, figures, dx, dy, ds, ap, ad = (
                a[~stuck] for a in (run, xr, yr, sr, cr, scale_cr, best_gap, stall,
                                    figures, dx, dy, ds, ap, ad))
        xr = la.hermitian_part(xr + ap[:, None, None] * dx)
        yr = yr + ad[:, None] * dy
        sr = la.hermitian_part(sr + ad[:, None, None] * ds)
    else:
        stop(np.ones(run.size, dtype=bool), "numerical_failure", MAX_ITER, figures)
    infos = [IpmInfo(str(status[k]), int(stopped_at[k]), *(float(f) for f in record[k]))
             for k in range(k_total)]
    return x, y, s, infos


def solve_real_sdp(family, c):
    """One program: `solve_stacked` with K = 1.

    ``c`` is the (n, n) Hermitian objective of the maximization.  Returns
    ``(X, y, S, info)``.
    """
    x, y, s, infos = solve_stacked(family, np.asarray(c, dtype=complex)[None])
    return x[0], y[0], s[0], infos[0]

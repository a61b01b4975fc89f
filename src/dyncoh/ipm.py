"""Dense primal-dual interior-point method for small complex Hermitian SDPs.

Maximizes Re tr(C_k X) subject to Re tr(H_i X) = b_i and X PSD for a stack
of K objectives C_k that share their constraints, each over a single dense
Hermitian PSD block, with C_k and H_i Hermitian.  Every objective, floor
and ceiling in and out is in these terms.  Only inside is C_k negated, once
on entry: the iteration runs on the pair

    (P_k)  min Re tr(-C_k X)   s.t.  Re tr(H_i X) = b_i,  X PSD
    (D_k)  max b.y             s.t.  sum_i y_i H_i + S = -C_k,  S PSD,

to which the returned y and S belong, with Nesterov-Todd scaling and an
adaptive centering parameter chosen from an affine predictor step (Todd,
Toh & Tutuncu, SIAM J. Optim. 1998).  The block is handled natively, at
its complex dimension n, as SDPT3 handles complex blocks.  The start is
primal-feasible when the constraints admit a strictly feasible point, and
every direction is corrected onto A(dX) = r_p, so the iterates stay
primal-feasible to roundoff.

Layout: each program has one state in arrays over the whole stack, from
which every iteration gathers the programs still running along a leading
axis, so each dense factorization (Cholesky, SVD, Hermitian eigenvalues,
the Schur solve) is one stacked numpy call, and to which it writes their
step back.  Every program keeps its own stopping tests, stall counter, Schur
jitter retries and failure status, so a program takes the same steps in a
stack as alone, and it leaves the running set once it stops.  A single program
is the stack with K = 1 (`solve_real_sdp`).

No inverse: the scaled frame of Todd, Toh & Tutuncu, as in SDPT3, gives the
step from the Cholesky factors of X and S and one SVD (`_scaled_frame`):
frames P_x, P_s with P X P^H = I turn each step-length test into the least
eigenvalue of P dM P^H, and S^-1 = P_s^H P_s.  The corrector has no
second-order term, so its direction is affine in the centring term sigma mu:
one solve of the Schur system with two right-hand sides gives the dual
direction of the predictor and its slope in sigma mu (`_schur_solve`), and
dS and dX of both come out of one stacked pass, so the corrector only
combines them.

The Schur matrices of the whole stack come from one
``kernels.SparseConstraints.schur`` call, which gathers most entries from W.
The caller caps the stack length (``sdp.MAX_STACK`` programs per run), which
bounds its memory.

Certificates and pruning: when every feasible X has tr X = 1, as in the
sign programs, any dual iterate bounds its program from above
(`_dual_bound`).  In a stack whose programs carry group labels, one stacked
``eigvalsh`` call per iteration gives that ceiling for every running
program, and a program whose ceiling shows it cannot reach the greatest
objective attained in its group stops as ``pruned``.  A stack without
groups computes neither.
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

    ``start`` is the point every program over the family starts from,
    strictly feasible when the family admits one (`initial_point`).
    """

    constraints: SparseConstraints
    targets: np.ndarray
    start: np.ndarray


@dataclass
class IpmInfo:
    # "optimal" | "pruned" | "unbounded" | "infeasible" | "numerical_failure";
    # "pruned" only in a stack with groups (see `solve_stacked`)
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


def _max_step(frame, dm):
    """Largest alpha with M + alpha*dM PSD, per matrix, from a frame P with
    P M P^H = I: the congruence takes M + alpha*dM to I + alpha*P dM P^H, so
    alpha is -1 / lambda_min(P dM P^H), and unbounded when that is >= 0."""
    lam = np.linalg.eigvalsh(la.hermitian_part(frame @ dm @ la.dagger(frame)))[..., 0]
    return np.where(lam >= -_TINY, np.inf, -1.0 / np.minimum(lam, -_TINY))


def _scaled_frame(x, s):
    """NT scaling and scaled frames of each X, S pair, with no inverse.

    With L_s^H L_x = U Sigma V^H (Cholesky factors X = L_x L_x^H, S = L_s L_s^H
    and one SVD), G = L_x V Sigma^-1/2 gives W = G G^H with W S W = X, and
    P_x = Sigma^-1 U^H L_s^H, P_s = Sigma^-1 V^H L_x^H = Sigma^-1/2 G^H map X
    and S to the identity, P X P^H = I.  Returns ``(W, frames, S^-1)``, where
    ``frames`` stacks P_x of every program over P_s of every program and
    S^-1 = G Sigma^-1 G^H = P_s^H P_s.
    """
    k = x.shape[0]
    factors = np.linalg.cholesky(np.concatenate([x, s]))
    lx, ls = factors[:k], factors[k:]
    u, sv, vh = np.linalg.svd(la.dagger(ls) @ lx)
    lxv = lx @ la.dagger(vh)
    # P_x^H, P_s^H and G, each a matrix with scaled columns
    cols = np.concatenate([ls @ u, lxv, lxv]) / np.concatenate([sv, sv, np.sqrt(sv)])[:, None]
    products = cols[k:] @ la.dagger(cols[k:])
    return products[k:], la.dagger(cols[:2 * k]), la.hermitian_part(products[:k])


def _jittered(mat):
    """One Schur complement, with jitter on its diagonal if it is not
    positive definite.

    Jitter guards against dependence sneaking past the presolve; after three
    attempts the factorization failure propagates.
    """
    m = mat.shape[0]
    jitter = 0.0
    for _ in range(3):
        candidate = mat + jitter * np.eye(m)
        try:
            np.linalg.cholesky(candidate)
            return candidate
        except np.linalg.LinAlgError:
            jitter = max(10.0 * jitter, 1e-13 * (1.0 + np.trace(mat) / m))
    raise np.linalg.LinAlgError("Schur complement is not positive definite")


def _schur_solve(constraints, w, s_inv, x, rp, rd):
    """``[u, v]`` of shape (2, K, m), with the dual direction dy = u - sigma mu v.

    The right-hand side of the Schur system, r_p + A(W r_d W) - A(r_c), is
    affine in sigma mu, as r_c = sigma mu S^-1 - X, so one solve of
    M [u, v] = [r_p + A(W r_d W + X), A(S^-1)] serves the predictor
    (sigma mu = 0) and the corrector.  A stacked Cholesky call only tests M
    for positive definiteness; when it fails, jitter retries stay with the
    program whose matrix needs them.
    """
    schur = constraints.schur(w)
    try:
        np.linalg.cholesky(schur)
    except np.linalg.LinAlgError:
        schur = np.stack([_jittered(mk) for mk in schur])
    k = x.shape[0]
    rhs = constraints.dot(np.concatenate([w @ rd @ w + x, s_inv])).reshape(2, k, -1)
    rhs[0] += rp
    return np.linalg.solve(schur, rhs.transpose(1, 2, 0)).transpose(2, 0, 1)


def _feasible_start(constraints, b, n):
    """Strictly feasible interior point via a least-norm projection, if any.

    Takes the min-norm correction that moves a multiple of the identity onto
    A(X) = b, and keeps it only when safely positive definite.  Starting
    primal-feasible, with every direction corrected onto A(dX) = r_p (see
    `_step`), pins the primal residual at roundoff for the whole run,
    which sidesteps the stall of infeasible iterations on degenerate
    optimal faces.
    """
    eye = np.eye(n, dtype=complex)
    a_of_eye = constraints.dot(eye)
    best = None
    for center in (1.0, 0.5, 0.1, 2.0):
        cand = center * eye + constraints.least_norm(b - center * a_of_eye)
        if np.max(np.abs(constraints.dot(cand) - b)) > 1e-10 * max(1.0, np.max(np.abs(b))):
            continue
        margin = np.linalg.eigvalsh(cand).min()
        if margin > 1e-8 and (best is None or margin > best[0]):
            best = (margin, cand)
    return None if best is None else best[1]


def initial_point(constraints, b):
    """The strictly feasible start when there is one, else a scaled identity."""
    b = np.asarray(b, dtype=float)
    x = _feasible_start(constraints, b, constraints.n)
    if x is None:
        x = np.eye(constraints.n, dtype=complex) * max(1.0, float(np.max(np.abs(b))))
    return x


def _step(constraints, x, s, rp, rd, gap, centre):
    """Predictor-corrector NT direction and step lengths for a stack, and
    whether each primal step is unbounded (dX keeps X PSD at any length)."""
    k, n = x.shape[0], x.shape[-1]
    w, frames, s_inv = _scaled_frame(x, s)
    # dy, dS and dX are affine in sigma mu: index 0 holds the predictor
    # (sigma mu = 0) and index 1 minus the slope, so both take one stacked pass.
    dy = _schur_solve(constraints, w, s_inv, x, rp, rd)
    ds = -constraints.combine(dy)
    ds[0] += rd
    dx = -la.hermitian_part(np.concatenate([x, s_inv]).reshape(ds.shape) + w @ ds @ w)
    # Least-norm correction so that A(dX) = r_p holds to roundoff: the
    # ill-conditioned Schur solve leaves an error there that otherwise
    # builds up near degenerate optimal faces and stalls the run.
    r = -constraints.dot(dx)
    r[0] += rp
    dx += constraints.least_norm(r)

    def steps(dx, ds):
        alpha = _max_step(frames, np.concatenate([dx, ds]))
        ray = np.isinf(alpha[:k])
        alpha = np.minimum(1.0, _STEP_FRACTION * alpha)
        return alpha[:k], alpha[k:], ray

    mu = gap / n
    # Affine predictor fixes the centering parameter.
    ap, ad, _ = steps(dx[0], ds[0])
    mu_aff = _inner(x + ap[:, None, None] * dx[0], s + ad[:, None, None] * ds[0]) / n
    sigma = np.clip((np.maximum(mu_aff, 0.0) / mu) ** 3, 1e-10, 0.99)
    # keep centering up while infeasibility dominates the gap
    sigma_mu = np.where(centre, np.maximum(sigma, 0.5), sigma) * mu
    t = sigma_mu[:, None, None]
    dx, ds = dx[0] - t * dx[1], ds[0] - t * ds[1]
    return (dx, dy[0] - sigma_mu[:, None] * dy[1], ds, *steps(dx, ds))


def _step_each(constraints, *stacks):
    """`_step` one program at a time; a failed factorization gives a zero step.

    A zero step fails the stuck test, so only the program whose factorization
    failed ends with ``numerical_failure``.
    """
    parts = []
    for k in range(stacks[0].shape[0]):
        one = [a[k:k + 1] for a in stacks]
        try:
            parts.append(_step(constraints, *one))
        except np.linalg.LinAlgError:
            x = one[0]
            zero = np.zeros(1)
            parts.append((np.zeros_like(x), np.zeros((1, constraints.m)),
                          np.zeros_like(x), zero, zero, np.zeros(1, dtype=bool)))
    return tuple(np.concatenate(p) for p in zip(*parts))


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
    4 eps (n^2 size + m |b|.|y|).  Z must be finite.
    """
    n, m = z.shape[-1], y.shape[-1]
    allowance = rounding_allowance(n, n * size) + rounding_allowance(m, np.abs(y) @ np.abs(b))
    return -(y @ b + np.linalg.eigvalsh(z)[:, 0] - allowance)


def _recedes(constraints, c, dx, tol):
    """Whether each dX is a recession direction of its minimization: dX PSD,
    A(dX) = 0 and Re tr(C dX) < 0, each to ``tol`` relative to the size of dX."""
    size = np.linalg.norm(dx, axis=(-2, -1))
    rows = np.linalg.norm(constraints.flat, axis=1)
    return ((np.linalg.eigvalsh(dx)[:, 0] >= -tol * size)
            & (np.abs(constraints.dot(dx)) <= tol * size[:, None] * rows).all(axis=1)
            & (_inner(c, dx) < -tol * size * np.linalg.norm(c, axis=(-2, -1))))


def _farkas(constraints, b, dy, tol):
    """Whether each dy is a Farkas ray, a proof that no PSD X has A(X) = b:
    b.dy > 0 and A*(dy) negative semidefinite, to ``tol`` relative to the size of dy."""
    dy = dy / np.maximum(np.abs(dy).max(axis=1, keepdims=True), _TINY)  # no overflow
    aty = constraints.combine(dy)
    return ((dy @ b > tol * np.linalg.norm(dy, axis=1))
            & (np.linalg.eigvalsh(aty)[:, -1] <= tol * np.linalg.norm(aty, axis=(-2, -1))))


# A program that diverges along no recession direction overflows to inf and
# NaN; the finiteness and stuck tests then end it.
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
    ``GAP_TOL`` and residuals ``FEAS_TOL``; one whose direction from a
    primal-feasible iterate is a recession direction (`_recedes`) as
    ``unbounded``; one that fails after a dual step along a Farkas ray as
    ``infeasible``; any other stall, overflow or ``MAX_ITER`` iterations as
    ``numerical_failure``.  With ``groups``, each info carries the program's
    ceiling at its last iterate, and a program stops as ``pruned`` once its
    ceiling falls below its group's floor f by more than GAP_TOL (1 + |f|).
    The other programs take the same steps, to the bit.
    """
    constraints, b = family.constraints, family.targets
    c = la.hermitian_part(-np.asarray(c, dtype=complex))  # the iteration minimizes
    k_total, n = len(c), constraints.n

    # S0 and the dual residual are scaled as in the real form of the program,
    # for which the tolerances are set: min <C', X'> with X' = [[Re X, -Im X],
    # [Im X, Re X]] and C' the same form of C / 2, whose dual slack is S / 2.
    scale_b = max(1.0, float(np.max(np.abs(b))))
    scale_c = np.maximum(1.0, 0.5 * _entry_size(c))
    x = np.array(np.broadcast_to(family.start, c.shape))
    s = np.eye(n, dtype=complex) * (2.0 * scale_c[:, None, None])
    y = np.zeros((k_total, constraints.m))
    last_dy = np.zeros_like(y)  # the last finite dual direction
    best_gap = np.full(k_total, np.inf)
    stall = np.zeros(k_total, dtype=int)
    status = np.empty(k_total, dtype=object)
    stopped_at = np.zeros(k_total, dtype=int)
    record = np.full((k_total, 6), np.inf)  # the figures of IpmInfo, bound last
    run = np.arange(k_total)  # the programs still running

    def stop(mask, outcome, it, figures):
        """End the running programs in ``mask`` with ``outcome``; None is a
        failure, ``infeasible`` when the last finite dy is a Farkas ray."""
        ended = run[mask]
        if not ended.size:
            return
        # A failure leaves its group with no floor, so the group prunes no
        # more and its other programs end as they would alone.
        if groups is not None and outcome not in ("optimal", "pruned"):
            floors[groups[ended]] = np.nan
        if outcome is None:
            outcome = np.where(_farkas(constraints, b, last_dy[ended], FEAS_TOL),
                               "infeasible", "numerical_failure")
        status[ended] = outcome
        stopped_at[ended] = it
        record[ended, :figures.shape[1]] = figures[mask]

    for it in range(1, MAX_ITER + 1):
        if not run.size:
            break
        xr, yr, sr, cr = x[run], y[run], s[run], c[run]
        rp = b - constraints.dot(xr)
        rd = cr - sr - constraints.combine(yr)
        gap = _inner(xr, sr)
        pobj = -_inner(cr, xr)  # the objectives of the maximization
        dobj = -(yr @ b)
        prim_res = np.abs(rp).max(axis=1) / scale_b
        rd_size = _entry_size(rd)
        dual_res = 0.5 * rd_size / (1.0 + scale_c[run])
        rel_gap = gap / (1.0 + np.abs(pobj) + np.abs(dobj))
        # one row per program, in the order of the IpmInfo fields
        figures = np.stack([rel_gap, prim_res, dual_res, pobj, dobj], axis=1)

        optimal = (rel_gap <= GAP_TOL) & (prim_res <= FEAS_TOL) & (dual_res <= FEAS_TOL)
        closest = best_gap[run]
        improved = gap < closest * (1.0 - 1e-4)
        best_gap[run] = np.where(improved, gap, closest)
        stall[run] = stalled = np.where(improved, 0, stall[run] + 1)
        finite = np.isfinite(figures[:, :3]).all(axis=1)
        failed = ~optimal & (~finite | (stalled > _STALL_LIMIT))
        done = optimal | failed
        if groups is not None:
            # A finite dual residual makes C, S and r_d finite, so no
            # non-finite iterate reaches eigvalsh.
            bound = np.full(run.size, np.inf)
            bound[finite] = _dual_bound(
                b, yr[finite], sr[finite] + rd[finite],
                2.0 * scale_c[run][finite] + _entry_size(sr[finite]) + rd_size[finite])
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
            stop(failed, None, it, figures)
            run, xr, yr, sr, cr, rp, rd, gap, figures = (
                a[~done] for a in (run, xr, yr, sr, cr, rp, rd, gap, figures))
            if not run.size:
                break

        centre = np.maximum(figures[:, 1], figures[:, 2]) > figures[:, 0]
        try:
            dx, dy, ds, ap, ad, ray = _step(constraints, xr, sr, rp, rd, gap, centre)
        except np.linalg.LinAlgError:
            dx, dy, ds, ap, ad, ray = _step_each(constraints, xr, sr, rp, rd, gap, centre)
        last_dy[run] = np.where(np.isfinite(dy).all(axis=1)[:, None], dy, last_dy[run])
        stuck = (ap < 1e-10) & (ad < 1e-10)
        unbounded = ray & (figures[:, 1] <= FEAS_TOL)  # X feasible, X + t dX PSD for all t
        if unbounded.any():
            unbounded[unbounded] = _recedes(constraints, cr[unbounded], dx[unbounded], FEAS_TOL)
        ended = stuck | unbounded
        if ended.any():
            stop(stuck, None, it, figures)
            stop(unbounded, "unbounded", it, figures)
            run, xr, yr, sr, figures, dx, dy, ds, ap, ad = (
                a[~ended] for a in (run, xr, yr, sr, figures, dx, dy, ds, ap, ad))
        x[run] = la.hermitian_part(xr + ap[:, None, None] * dx)
        y[run] = yr + ad[:, None] * dy
        s[run] = la.hermitian_part(sr + ad[:, None, None] * ds)
    else:
        stop(np.ones(run.size, dtype=bool), None, MAX_ITER, figures)
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

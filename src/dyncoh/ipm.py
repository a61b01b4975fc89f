"""Dense primal-dual interior-point method for small complex Hermitian SDPs.

Solves a stack of K programs that share their constraints and differ only
in the objective,

    (P_k)  min Re tr(C_k X)   s.t.  Re tr(H_i X) = b_i,  X PSD
    (D_k)  max b.y            s.t.  sum_i y_i H_i + S = C_k,  S PSD

each over a single dense Hermitian PSD block, with C_k and H_i Hermitian,
Nesterov-Todd scaling and an adaptive centering parameter chosen from an
affine predictor step (Todd, Toh & Tutuncu, SIAM J. Optim. 1998).  The
block is handled natively, at its complex dimension n, as SDPT3 handles
complex blocks.  The start is primal-feasible when the constraints admit a
strictly feasible point, and every direction is corrected onto
A(dX) = r_p, so the iterates stay primal-feasible to roundoff.

Layout: the iterates of the programs still running are stacked along a
leading axis, so each dense factorization (Cholesky, SVD, Hermitian
eigenvalues, the Schur solve) is one stacked numpy call per iteration.  Every
program keeps its own stopping tests, stall counter, Schur jitter retries
and failure status, so a program takes the same steps in a stack as alone,
and it leaves the stack as soon as it stops.  A single program is the
stack with K = 1 (`solve_real_sdp`).

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
sign programs, any dual iterate bounds its program from below
(`_dual_bound`).  In a stack whose programs carry group labels, one stacked
``eigvalsh`` call per iteration gives that bound for every running program,
and a program whose bound shows it cannot reach the least objective of its
group stops as ``pruned``.  A stack without groups computes neither.
"""

from dataclasses import dataclass

import numpy as np

_STEP_FRACTION = 0.98
_TINY = 1e-14
_STALL_LIMIT = 25


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
    # certified lower bound on the objective of every feasible X at the last
    # iterate (`_dual_bound`); -inf in a stack without groups
    bound: float = -np.inf


def _h(m):
    return m.conj().swapaxes(-1, -2)


def _herm(m):
    return 0.5 * (m + _h(m))


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
    lam = np.linalg.eigvalsh(_herm(frame @ dm @ _h(frame)))[..., 0]
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
    u, sv, vh = np.linalg.svd(_h(ls) @ lx)
    lxv = lx @ _h(vh)
    # P_x^H, P_s^H and G, each a matrix with scaled columns
    cols = np.concatenate([ls @ u, lxv, lxv]) / np.concatenate([sv, sv, np.sqrt(sv)])[:, None]
    products = cols[k:] @ _h(cols[k:])
    return products[k:], _h(cols[:2 * k]), _herm(products[:k])


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
    dx = -_herm(np.concatenate([x, s_inv]).reshape(ds.shape) + w @ ds @ w)
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
    """b.y + lambda_min(Z) less its rounding allowance, per program of a stack.

    With Z = C - A*(y) and tr X = 1 on the feasible set, every feasible X has
    Re tr(C X) = b.y + Re tr(Z X) >= b.y + lambda_min(Z).  The bound is made
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
    return y @ b + np.linalg.eigvalsh(z)[:, 0] - allowance


def _recedes(constraints, c, dx, tol):
    """Whether each dX is a recession direction of its program: dX PSD,
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
# NaN; the finiteness and stuck tests then end it (see `fail`).
@np.errstate(over="ignore", invalid="ignore")
def solve_stacked(constraints, b, c, gap_tol=1e-8, feas_tol=1e-9, max_iter=200, x0=None,
                  groups=None, incumbents=None):
    """Run the interior-point iteration on K objectives over shared constraints.

    Parameters
    ----------
    constraints : SparseConstraints
        The m constraint matrices H_i (Hermitian, linearly independent).
    b : (m,) array
        Constraint targets.
    c : (K, n, n) array
        Hermitian objective matrices of the K minimizations.
    x0 : (n, n) array, optional
        Strictly feasible start shared by all programs; `initial_point` when
        omitted.
    groups : (K,) int array, optional
        The group of each program, an index into ``incumbents``.  Only for
        constraints under which every feasible X has tr X = 1.
    incumbents : (G,) float array
        With ``groups``: per group, the least objective known to be attained,
        updated in place with the objective of every primal-feasible iterate
        (primal residual at most ``feas_tol``) of the group's programs, so it
        carries over to the next run.

    Returns
    -------
    (X, y, S, infos) with X, S of shape (K, n, n), y of shape (K, m) and one
    `IpmInfo` per program.  A program whose direction from a primal-feasible
    iterate is a recession direction (`_recedes`) stops as ``unbounded``, and
    one that fails after a dual step along a Farkas ray as ``infeasible``.
    With ``groups``, each info carries the program's bound at its last
    iterate, and a program stops as ``pruned`` once its bound exceeds its
    group's incumbent f by more than gap_tol (1 + |f|).  The other programs
    take the same steps, to the bit.
    """
    m, n = constraints.m, constraints.n
    if m == 0:
        raise ValueError("interior-point solver requires at least one constraint")
    b = np.asarray(b, dtype=float)
    c = _herm(np.asarray(c, dtype=complex))
    k_total = c.shape[0]
    if groups is not None:
        groups = np.asarray(groups, dtype=np.intp)

    # S0 and the dual residual are scaled as in the real form of the program,
    # for which the tolerances are set: min <C', X'> with X' = [[Re X, -Im X],
    # [Im X, Re X]] and C' the same form of C / 2, whose dual slack is S / 2.
    scale_b = max(1.0, float(np.max(np.abs(b))))
    scale_c = np.maximum(1.0, 0.5 * _entry_size(c))
    if x0 is None:
        x0 = initial_point(constraints, b)
    x = np.array(np.broadcast_to(x0, c.shape))
    s = np.eye(n, dtype=complex) * (2.0 * scale_c[:, None, None])
    y = np.zeros((k_total, m))
    last_dy = np.zeros((k_total, m))  # the last finite dual direction
    best_gap = np.full(k_total, np.inf)
    stall = np.zeros(k_total, dtype=int)

    out_x, out_y, out_s = np.empty_like(x), np.empty_like(y), np.empty_like(s)
    infos = [None] * k_total
    ids = np.arange(k_total)  # original index of each program still running

    def finish(mask, status, it, figures):
        for j in np.flatnonzero(mask):
            k = ids[j]
            out_x[k], out_y[k], out_s[k] = x[j], y[j], s[j]
            infos[k] = IpmInfo(status, it, *(float(f) for f in figures[j]))
        # A failure leaves its group with no incumbent, so the group prunes
        # no more and its other programs end as they would alone.
        if groups is not None and status not in ("optimal", "pruned"):
            incumbents[groups[ids[mask]]] = np.nan

    def fail(mask, it, figures):
        # infeasible when the last finite dy is a Farkas ray
        ray = mask.copy()
        if mask.any():
            ray[mask] = _farkas(constraints, b, last_dy[mask], feas_tol)
        finish(ray, "infeasible", it, figures)
        finish(mask & ~ray, "numerical_failure", it, figures)

    for it in range(1, max_iter + 1):
        if not ids.size:
            break
        rp = b - constraints.dot(x)
        rd = c - s - constraints.combine(y)
        gap = _inner(x, s)
        pobj = _inner(c, x)
        dobj = y @ b
        prim_res = np.abs(rp).max(axis=1) / scale_b
        rd_size = _entry_size(rd)
        dual_res = 0.5 * rd_size / (1.0 + scale_c)
        rel_gap = gap / (1.0 + np.abs(pobj) + np.abs(dobj))
        # one row per program, in the order of the IpmInfo fields
        figures = np.stack([rel_gap, prim_res, dual_res, pobj, dobj], axis=1)

        optimal = (rel_gap <= gap_tol) & (prim_res <= feas_tol) & (dual_res <= feas_tol)
        improved = gap < best_gap * (1.0 - 1e-4)
        best_gap = np.where(improved, gap, best_gap)
        stall = np.where(improved, 0, stall + 1)
        finite = np.isfinite(figures[:, :3]).all(axis=1)
        failed = ~optimal & (~finite | (stall > _STALL_LIMIT))
        done = optimal | failed
        if groups is not None:
            # A finite dual residual makes C, S and r_d finite, so no
            # non-finite iterate reaches eigvalsh.
            bound = np.full(ids.size, -np.inf)
            bound[finite] = _dual_bound(
                b, y[finite], s[finite] + rd[finite],
                2.0 * scale_c[finite] + _entry_size(s[finite]) + rd_size[finite])
            group = groups[ids]
            feasible = finite & (prim_res <= feas_tol)
            np.minimum.at(incumbents, group[feasible], pobj[feasible])
            incumbents[group[failed]] = np.nan  # as `finish` does
            best = incumbents[group]
            pruned = ~done & (bound > best + gap_tol * (1.0 + np.abs(best)))
            done |= pruned
            figures = np.column_stack([figures, bound])
        if done.any():
            finish(optimal, "optimal", it, figures)
            fail(failed, it, figures)
            if groups is not None:
                finish(pruned, "pruned", it, figures)
            ids, x, y, s, c, scale_c, best_gap, stall, rp, rd, gap, figures, last_dy = (
                a[~done] for a in (ids, x, y, s, c, scale_c, best_gap, stall,
                                   rp, rd, gap, figures, last_dy))
            if not ids.size:
                break

        centre = np.maximum(figures[:, 1], figures[:, 2]) > figures[:, 0]
        try:
            dx, dy, ds, ap, ad, ray = _step(constraints, x, s, rp, rd, gap, centre)
        except np.linalg.LinAlgError:
            dx, dy, ds, ap, ad, ray = _step_each(constraints, x, s, rp, rd, gap, centre)
        last_dy = np.where(np.isfinite(dy).all(axis=1)[:, None], dy, last_dy)
        stuck = (ap < 1e-10) & (ad < 1e-10)
        unbounded = ray & (figures[:, 1] <= feas_tol)  # X feasible, X + t dX PSD for all t
        if unbounded.any():
            unbounded[unbounded] = _recedes(constraints, c[unbounded], dx[unbounded], feas_tol)
        ended = stuck | unbounded
        if ended.any():
            fail(stuck, it, figures)
            finish(unbounded, "unbounded", it, figures)
            ids, x, y, s, c, scale_c, best_gap, stall, figures, dx, dy, ds, ap, ad, last_dy = (
                a[~ended] for a in (ids, x, y, s, c, scale_c, best_gap, stall, figures,
                                    dx, dy, ds, ap, ad, last_dy))
        x = _herm(x + ap[:, None, None] * dx)
        y = y + ad[:, None] * dy
        s = _herm(s + ad[:, None, None] * ds)
    else:
        fail(np.ones(ids.size, dtype=bool), max_iter, figures)
    return out_x, out_y, out_s, infos


def solve_real_sdp(constraints, b, c, gap_tol=1e-8, feas_tol=1e-9, max_iter=200, x0=None):
    """One program: `solve_stacked` with K = 1.

    ``c`` is the (n, n) Hermitian objective of the minimization.  Returns
    ``(X, y, S, info)``.
    """
    x, y, s, infos = solve_stacked(constraints, b, np.asarray(c, dtype=complex)[None],
                                   gap_tol=gap_tol, feas_tol=feas_tol, max_iter=max_iter,
                                   x0=x0)
    return x[0], y[0], s[0], infos[0]

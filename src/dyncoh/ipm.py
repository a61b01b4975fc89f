"""Dense primal-dual interior-point method for small real symmetric SDPs.

Solves a stack of K programs that share their constraints and differ only
in the objective,

    (P_k)  min <C_k, X>   s.t.  tr(A_i X) = b_i,  X PSD
    (D_k)  max b.y        s.t.  sum_i y_i A_i + S = C_k,  S PSD

each over a single dense PSD block, with Nesterov-Todd scaling and an
adaptive centering parameter chosen from an affine predictor step (Todd,
Toh & Tutuncu, SIAM J. Optim. 1998).  The start is primal-feasible when
the constraints admit a strictly feasible point, and every direction is
corrected onto A(dX) = r_p, so the iterates stay primal-feasible to
roundoff.

Layout: the iterates of the programs still running are stacked along a
leading axis, so each dense factorization (Cholesky, SVD, symmetric
eigenvalues, inverses) is one stacked numpy call per iteration.  Every
program keeps its own stopping tests, stall counter, Schur jitter retries
and failure status, so a program takes the same steps in a stack as alone,
and it leaves the stack as soon as it stops.  A single program is the
stack with K = 1 (`solve_real_sdp`).

Factor reuse: the Cholesky factors of X and S that build the NT scaling are
inverted once per iteration, and those inverses serve both step-length
tests and S^-1.  The Cholesky factor of each Schur complement is inverted
once as well and serves the predictor and the corrector solve.

The Schur-complement assembly is the hot kernel.  The Schur matrices of the
whole stack come from one ``kernels.SparseConstraints.schur`` call, which
builds its temporaries in chunks under a fixed byte budget, and they are
factorized in one stacked Cholesky call; only when that call fails are they
factorized one by one with jitter retries.  The stack length itself is
capped by the caller (``sdp.MAX_STACK`` programs per run), so the memory of
a run stays bounded however many programs a caller has.
"""

from dataclasses import dataclass

import numpy as np

_STEP_FRACTION = 0.98
_TINY = 1e-14
_STALL_LIMIT = 25


@dataclass
class IpmInfo:
    status: str  # "optimal" | "numerical_failure"
    iterations: int
    gap: float
    primal_residual: float
    dual_residual: float
    primal_objective: float
    dual_objective: float


def _t(m):
    return m.swapaxes(-1, -2)


def _sym(m):
    return 0.5 * (m + _t(m))


def _max_step(ell_inv, dm):
    """Largest alpha with M + alpha*dM PSD, per matrix, from inv(chol(M))."""
    lam = np.linalg.eigvalsh(_sym(ell_inv @ dm @ _t(ell_inv)))[..., 0]
    return np.where(lam >= -_TINY, np.inf, -1.0 / np.minimum(lam, -_TINY))


def _nt_scaling(lx, ls):
    """W with W S W = X, from the Cholesky factors of X and S and one SVD."""
    _, sv, vt = np.linalg.svd(_t(ls) @ lx)
    g = (lx @ _t(vt)) * (sv[..., None, :] ** -0.5)
    return g @ _t(g)


def _schur_factor(mat):
    """Cholesky factor of one Schur complement.

    Jitter guards against dependence sneaking past the presolve; after three
    attempts the factorization failure propagates.
    """
    m = mat.shape[0]
    jitter = 0.0
    for _ in range(3):
        try:
            return np.linalg.cholesky(mat + jitter * np.eye(m))
        except np.linalg.LinAlgError:
            jitter = max(10.0 * jitter, 1e-13 * (1.0 + np.trace(mat) / m))
    raise np.linalg.LinAlgError("Schur complement is not positive definite")


def _feasible_start(constraints, b, n):
    """Strictly feasible interior point via a least-norm projection, if any.

    Takes the min-norm correction that moves a multiple of the identity onto
    A(X) = b, and keeps it only when safely positive definite.  Starting
    primal-feasible, with every direction corrected onto A(dX) = r_p (see
    `_step`), pins the primal residual at roundoff for the whole run,
    which sidesteps the stall of infeasible iterations on degenerate
    optimal faces.
    """
    a_of_eye = constraints.dot(np.eye(n))
    best = None
    for center in (1.0, 0.5, 0.1, 2.0):
        cand = center * np.eye(n) + constraints.least_norm(b - center * a_of_eye)
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
        x = np.eye(constraints.n) * max(1.0, float(np.max(np.abs(b))))
    return x


def _step(constraints, x, s, rp, rd, gap, centre):
    """Predictor-corrector NT direction and step lengths for a stack."""
    k, n = x.shape[0], x.shape[-1]
    # X and S of every program factorized and inverted in one stacked call each
    factors = np.linalg.cholesky(np.concatenate([x, s]))
    w = _nt_scaling(factors[:k], factors[k:])
    factors_inv = np.linalg.inv(factors)
    ls_inv = factors_inv[k:]
    # Inverse Cholesky factor L^-1 of each Schur complement, applied as
    # L^-T (L^-1 r): forming M^-1 itself lets the primal residual drift
    # once M grows ill-conditioned near the optimum.
    schur = constraints.schur(w)
    try:
        schur_factor = np.linalg.cholesky(schur)
    except np.linalg.LinAlgError:
        # jitter retries stay with the program whose matrix needs them
        schur_factor = np.stack([_schur_factor(mk) for mk in schur])
    schur_inv = np.linalg.inv(schur_factor)
    rhs0 = rp + constraints.dot(w @ rd @ w)

    def direction(rc):
        dy = (_t(schur_inv) @ (schur_inv @ (rhs0 - constraints.dot(rc))[..., None]))[..., 0]
        ds = rd - constraints.combine(dy)
        dx = _sym(rc - w @ ds @ w)
        # Least-norm correction so that A(dX) = r_p holds to roundoff: the
        # ill-conditioned Schur solve leaves an error there that otherwise
        # builds up near degenerate optimal faces and stalls the run.
        dx = dx + constraints.least_norm(rp - constraints.dot(dx))
        steps = np.minimum(1.0, _STEP_FRACTION * _max_step(factors_inv, np.concatenate([dx, ds])))
        return dx, dy, ds, steps[:k], steps[k:]

    mu = gap / n
    # Affine predictor fixes the centering parameter.
    dx_a, _, ds_a, ap, ad = direction(-x)
    mu_aff = np.einsum("kij,kij->k", x + ap[:, None, None] * dx_a,
                       s + ad[:, None, None] * ds_a) / n
    sigma = np.clip((np.maximum(mu_aff, 0.0) / mu) ** 3, 1e-10, 0.99)
    # keep centering up while infeasibility dominates the gap
    sigma = np.where(centre, np.maximum(sigma, 0.5), sigma)
    s_inv = _sym(_t(ls_inv) @ ls_inv)
    return direction((sigma * mu)[:, None, None] * s_inv - x)


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
                          np.zeros_like(x), zero, zero))
    return tuple(np.concatenate(p) for p in zip(*parts))


# A diverging program (an unbounded one, say) overflows to inf and NaN; the
# finiteness and stuck tests then end it with ``numerical_failure``.
@np.errstate(over="ignore", invalid="ignore")
def solve_stacked(constraints, b, c, gap_tol=1e-8, feas_tol=1e-9, max_iter=200, x0=None):
    """Run the interior-point iteration on K objectives over shared constraints.

    Parameters
    ----------
    constraints : SparseConstraints
        The m constraint matrices A_i (symmetric, linearly independent).
    b : (m,) array
        Constraint targets.
    c : (K, n, n) array
        Symmetric objective matrices of the K minimizations.
    x0 : (n, n) array, optional
        Strictly feasible start shared by all programs; `initial_point` when
        omitted.

    Returns
    -------
    (X, y, S, infos) with X, S of shape (K, n, n), y of shape (K, m) and one
    `IpmInfo` per program.
    """
    m, n = constraints.m, constraints.n
    if m == 0:
        raise ValueError("interior-point solver requires at least one constraint")
    b = np.asarray(b, dtype=float)
    c = _sym(np.asarray(c, dtype=float))
    k_total = c.shape[0]

    scale_b = max(1.0, float(np.max(np.abs(b))))
    scale_c = np.maximum(1.0, np.abs(c).max(axis=(1, 2), initial=0.0))
    if x0 is None:
        x0 = initial_point(constraints, b)
    x = np.array(np.broadcast_to(x0, c.shape))
    s = np.eye(n) * scale_c[:, None, None]
    y = np.zeros((k_total, m))
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

    for it in range(1, max_iter + 1):
        if not ids.size:
            break
        rp = b - constraints.dot(x)
        rd = c - s - constraints.combine(y)
        gap = np.einsum("kij,kij->k", x, s)
        pobj = np.einsum("kij,kij->k", c, x)
        dobj = y @ b
        prim_res = np.abs(rp).max(axis=1) / scale_b
        dual_res = np.abs(rd).max(axis=(1, 2)) / (1.0 + scale_c)
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
        if done.any():
            finish(optimal, "optimal", it, figures)
            finish(failed, "numerical_failure", it, figures)
            ids, x, y, s, c, scale_c, best_gap, stall, rp, rd, gap, figures = (
                a[~done] for a in (ids, x, y, s, c, scale_c, best_gap, stall,
                                   rp, rd, gap, figures))
            if not ids.size:
                break

        centre = np.maximum(figures[:, 1], figures[:, 2]) > figures[:, 0]
        try:
            dx, dy, ds, ap, ad = _step(constraints, x, s, rp, rd, gap, centre)
        except np.linalg.LinAlgError:
            dx, dy, ds, ap, ad = _step_each(constraints, x, s, rp, rd, gap, centre)
        stuck = (ap < 1e-10) & (ad < 1e-10)
        if stuck.any():
            finish(stuck, "numerical_failure", it, figures)
            ids, x, y, s, c, scale_c, best_gap, stall, figures, dx, dy, ds, ap, ad = (
                a[~stuck] for a in (ids, x, y, s, c, scale_c, best_gap, stall, figures,
                                    dx, dy, ds, ap, ad))
        x = _sym(x + ap[:, None, None] * dx)
        y = y + ad[:, None] * dy
        s = _sym(s + ad[:, None, None] * ds)
    else:
        finish(np.ones(ids.size, dtype=bool), "numerical_failure", max_iter, figures)
    return out_x, out_y, out_s, infos


def solve_real_sdp(constraints, b, c, gap_tol=1e-8, feas_tol=1e-9, max_iter=200, x0=None):
    """One program: `solve_stacked` with K = 1.

    ``c`` is the (n, n) symmetric objective of the minimization.  Returns
    ``(X, y, S, info)``.
    """
    x, y, s, infos = solve_stacked(constraints, b, np.asarray(c, dtype=float)[None],
                                   gap_tol=gap_tol, feas_tol=feas_tol, max_iter=max_iter,
                                   x0=x0)
    return x[0], y[0], s[0], infos[0]

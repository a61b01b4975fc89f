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
eigenvalues, inverses) is one stacked numpy call per iteration.  Every
program keeps its own stopping tests, stall counter, Schur jitter retries
and failure status, so a program takes the same steps in a stack as alone,
and it leaves the stack as soon as it stops.  A single program is the
stack with K = 1 (`solve_real_sdp`).

Factor reuse: the Cholesky factors of X and S that build the NT scaling are
inverted once per iteration, and those inverses serve both step-length
tests and S^-1.  The Cholesky factor of each Schur complement is inverted
once as well and serves the predictor and the corrector solve.

The Schur matrices of the whole stack come from one
``kernels.SparseConstraints.schur`` call, which gathers most entries from W,
and are factorized in one stacked Cholesky call; only when that call fails
are they factorized one by one with jitter retries.  The caller caps the
stack length (``sdp.MAX_STACK`` programs per run), which bounds its memory.
"""

from dataclasses import dataclass

import numpy as np

_STEP_FRACTION = 0.98
_TINY = 1e-14
_STALL_LIMIT = 25


@dataclass
class IpmInfo:
    status: str  # "optimal" | "unbounded" | "infeasible" | "numerical_failure"
    iterations: int
    gap: float
    primal_residual: float
    dual_residual: float
    primal_objective: float
    dual_objective: float


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


def _max_step(ell_inv, dm):
    """Largest alpha with M + alpha*dM PSD, per matrix, from inv(chol(M))."""
    lam = np.linalg.eigvalsh(_herm(ell_inv @ dm @ _h(ell_inv)))[..., 0]
    return np.where(lam >= -_TINY, np.inf, -1.0 / np.minimum(lam, -_TINY))


def _nt_scaling(lx, ls):
    """W with W S W = X, from the Cholesky factors of X and S and one SVD."""
    _, sv, vh = np.linalg.svd(_h(ls) @ lx)
    g = (lx @ _h(vh)) * (sv[..., None, :] ** -0.5)
    return g @ _h(g)


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
        rhs = (rhs0 - constraints.dot(rc))[..., None]
        dy = (schur_inv.swapaxes(-1, -2) @ (schur_inv @ rhs))[..., 0]
        ds = rd - constraints.combine(dy)
        dx = _herm(rc - w @ ds @ w)
        # Least-norm correction so that A(dX) = r_p holds to roundoff: the
        # ill-conditioned Schur solve leaves an error there that otherwise
        # builds up near degenerate optimal faces and stalls the run.
        dx = dx + constraints.least_norm(rp - constraints.dot(dx))
        steps = _max_step(factors_inv, np.concatenate([dx, ds]))
        ray = np.isinf(steps[:k])
        steps = np.minimum(1.0, _STEP_FRACTION * steps)
        return dx, dy, ds, steps[:k], steps[k:], ray

    mu = gap / n
    # Affine predictor fixes the centering parameter.
    dx_a, _, ds_a, ap, ad, _ = direction(-x)
    mu_aff = _inner(x + ap[:, None, None] * dx_a, s + ad[:, None, None] * ds_a) / n
    sigma = np.clip((np.maximum(mu_aff, 0.0) / mu) ** 3, 1e-10, 0.99)
    # keep centering up while infeasibility dominates the gap
    sigma = np.where(centre, np.maximum(sigma, 0.5), sigma)
    s_inv = _herm(_h(ls_inv) @ ls_inv)
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
                          np.zeros_like(x), zero, zero, np.zeros(1, dtype=bool)))
    return tuple(np.concatenate(p) for p in zip(*parts))


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
def solve_stacked(constraints, b, c, gap_tol=1e-8, feas_tol=1e-9, max_iter=200, x0=None):
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

    Returns
    -------
    (X, y, S, infos) with X, S of shape (K, n, n), y of shape (K, m) and one
    `IpmInfo` per program.  A program whose direction from a primal-feasible
    iterate is a recession direction (`_recedes`) stops as ``unbounded``, and
    one that fails after a dual step along a Farkas ray as ``infeasible``.
    """
    m, n = constraints.m, constraints.n
    if m == 0:
        raise ValueError("interior-point solver requires at least one constraint")
    b = np.asarray(b, dtype=float)
    c = _herm(np.asarray(c, dtype=complex))
    k_total = c.shape[0]

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
        dual_res = 0.5 * _entry_size(rd) / (1.0 + scale_c)
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
            fail(failed, it, figures)
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

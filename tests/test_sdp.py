import numpy as np
import pytest

from dyncoh import channels as ch
from dyncoh import ipm
from dyncoh import linalg as la
from dyncoh import measures as ms
from dyncoh import sdp as sd
from dyncoh.errors import SolverFailure, ValidationError
from dyncoh.kernels import real_vectors

from conftest import full_sign_enumeration


def cfg_half():
    return ms.GameConfig(0.5, np.array([2.0 * np.pi / 3.0, 0.0]))


# ---------------------------------------------------------------------------
# Solver contract
# ---------------------------------------------------------------------------

def test_solver_rank_one_objective():
    _, info = sd.solve_sdp(((np.eye(2, dtype=complex), 1.0),),
                           np.diag([1.0, 0.0]).astype(complex))
    assert info.status == "optimal"
    assert info.primal_objective == pytest.approx(1.0, abs=1e-7)


def test_the_solver_maximizes_and_reports_no_ceiling_without_groups():
    family = sd.constraint_family([(np.eye(2, dtype=complex), 1.0)])
    x, _, _, info = ipm.solve_real_sdp(family, np.diag([1.0, 0.0]))
    assert info.status == "optimal"
    assert info.primal_objective == pytest.approx(1.0, abs=1e-7)
    assert info.dual_objective == pytest.approx(1.0, abs=1e-7)
    assert x[0, 0].real == pytest.approx(1.0, abs=1e-7)
    assert info.bound == np.inf


def test_solver_largest_eigenvalue():
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    x, info = sd.solve_sdp(((np.eye(2, dtype=complex), 1.0),), sx)
    assert info.primal_objective == pytest.approx(1.0, abs=1e-7)
    assert la.is_hermitian(x, 1e-9)
    assert np.trace(x).real == pytest.approx(1.0, abs=1e-7)


def test_solver_complex_entry_constraints():
    # pin an off-diagonal entry and maximize its contribution elsewhere
    f = np.zeros((2, 2), dtype=complex)
    f[0, 1] = 1.0
    x, info = sd.solve_sdp(((np.eye(2, dtype=complex), 1.0), (f, 0.25 + 0.1j)),
                           np.diag([1.0, -1.0]).astype(complex))
    assert x[0, 1] == pytest.approx(0.25 + 0.1j, abs=1e-6)
    # max x00 - x11 subject to x00 x11 >= |x01|^2, x00 + x11 = 1
    r = abs(0.25 + 0.1j) ** 2
    expected = np.sqrt(1.0 - 4.0 * r)
    assert info.primal_objective == pytest.approx(expected, abs=1e-6)


def test_solver_detects_inconsistent_redundancy():
    f = np.zeros((2, 2), dtype=complex)
    f[0, 0] = 1.0
    g = np.zeros((2, 2), dtype=complex)
    g[1, 1] = 1.0
    with pytest.raises(SolverFailure) as err:
        sd.solve_sdp((
            (np.eye(2, dtype=complex), 1.0),
            (f, 0.7),
            (g, 0.7),  # 0.7 + 0.7 != 1: contradicts the trace constraint
        ), np.eye(2, dtype=complex))
    assert err.value.status == "infeasible"


def test_solver_reports_unbounded_as_failure():
    # only X[0,0] is pinned; the objective grows along X[1,1]
    f = np.zeros((2, 2), dtype=complex)
    f[0, 0] = 1.0
    functionals, objective = ((f, 1.0),), np.diag([0.0, 1.0]).astype(complex)
    with pytest.raises(SolverFailure) as err:
        sd.solve_sdp(functionals, objective)
    assert err.value.status == "unbounded"
    # the recession direction ends the run before its iteration budget, and
    # before the iterates diverge
    family = sd.constraint_family(functionals)
    _, _, _, info = ipm.solve_real_sdp(family, objective)
    assert info.status == "unbounded"
    assert info.iterations < 60 and np.isfinite(info.primal_objective)


def test_solver_reports_infeasible_as_failure():
    # X[0,0] = -1 admits no PSD X: the dual climbs along the Farkas ray y < 0
    f = np.zeros((2, 2), dtype=complex)
    f[0, 0] = 1.0
    functionals = ((f, -1.0),)
    with pytest.raises(SolverFailure) as err:
        sd.solve_sdp(functionals, np.eye(2, dtype=complex))
    assert err.value.status == "infeasible"
    # with a zero objective the iterates overflow first; the last finite
    # dual direction still certifies it
    family = sd.constraint_family(functionals)
    _, _, _, info = ipm.solve_real_sdp(family, np.zeros((2, 2)))
    assert info.status == "infeasible" and not np.isfinite(info.gap)


def test_solver_accepts_redundant_consistent_rows():
    f = np.zeros((2, 2), dtype=complex)
    f[0, 0] = 1.0
    g = np.zeros((2, 2), dtype=complex)
    g[1, 1] = 1.0
    _, info = sd.solve_sdp((
        (np.eye(2, dtype=complex), 1.0),
        (np.eye(2, dtype=complex), 1.0),  # a repeat before an independent row
        (f, 0.3),
        (g, 0.7),
    ), np.diag([1.0, 0.0]).astype(complex))
    assert info.primal_objective == pytest.approx(0.3, abs=1e-7)


def test_problem_rejects_non_hermitian_objective():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValidationError):
        sd.solve_sdp(((np.eye(2, dtype=complex), 1.0),), bad)


def test_solution_certificates_respect_tolerances():
    x, info = sd.solve_sdp(((np.eye(3, dtype=complex), 1.0),),
                           np.diag([1.0, 2.0, -1.0]).astype(complex))
    assert info.status == "optimal"
    assert info.gap <= 1e-8
    assert info.primal_residual <= 1e-9
    assert info.dual_residual <= 1e-9
    assert np.linalg.eigvalsh(x).min() >= -1e-9


def test_solver_random_diagonal_programs(rng):
    # diagonal SDPs reduce to LPs with known optimum: max over vertices
    for _ in range(10):
        d = int(rng.integers(2, 6))
        c = rng.standard_normal(d)
        _, info = sd.solve_sdp(((np.eye(d, dtype=complex), 1.0),), np.diag(c).astype(complex))
        assert info.primal_objective == pytest.approx(c.max(), abs=1e-6)


def test_solver_matches_largest_eigenvalue(rng):
    # max tr(HX) over PSD unit-trace X equals the top eigenvalue of H,
    # checked against the eigensolver on random complex Hermitian objectives
    for _ in range(20):
        d = int(rng.integers(2, 7))
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = 0.5 * (g + g.conj().T)
        _, info = sd.solve_sdp(((np.eye(d, dtype=complex), 1.0),), h)
        assert info.primal_objective == pytest.approx(
            np.linalg.eigvalsh(h).max(), abs=1e-6
        )


# ---------------------------------------------------------------------------
# Sign vectors
# ---------------------------------------------------------------------------

def test_enumerate_sign_vectors():
    # the default mode gives one representative per pair {s, -s}; its caller
    # is the exact oracle search.sign_eigen_maximum, which decomposes each
    # representative once for both signs
    assert sd.enumerate_sign_vectors(1) == [(1,)]
    assert sd.enumerate_sign_vectors(2) == [(1, 1), (1, -1)]
    reps = sd.enumerate_sign_vectors(3)
    assert len(reps) == 4
    full = sd.enumerate_sign_vectors(3, full=True)
    assert len(full) == 8
    assert sorted(reps + [tuple(-x for x in s) for s in reps]) == sorted(full)
    with pytest.raises(ValidationError):
        sd.enumerate_sign_vectors(21)


# ---------------------------------------------------------------------------
# Program construction
# ---------------------------------------------------------------------------

def feasible_point(pre, populations):
    """X built from an explicit (pre-processing, input populations) pair."""
    da = len(populations)
    db = pre.dim_out
    x = np.zeros((da * db, da * db), dtype=complex)
    for i in range(da):
        for j in range(da):
            block = np.sqrt(populations[i] * populations[j]) * ch.apply(
                pre, np.outer(la.basis_ket(da, i), la.basis_ket(da, j).conj())
            )
            x[i * db:(i + 1) * db, j * db:(j + 1) * db] = block
    return x


def objective_value_at(objective, x):
    return float(np.real(np.trace(objective @ x)))


def test_program_shape_qubit():
    theta = ch.random_channel(2, 2, np.random.default_rng(0))
    _, objective = sd.build_sign_program(theta, cfg_half(), (1, -1))
    assert objective.shape == (4, 4)
    assert len(sd.enumerate_sign_vectors(theta.dim_out, full=True)) == 4
    assert len(sd.enumerate_sign_vectors(theta.dim_out)) == 2


def test_program_objective_matches_game_pipeline(rng):
    # the linear objective evaluated at an explicit feasible X must equal the
    # signed population sum of the corresponding game pipeline
    for _ in range(20):
        da = int(rng.integers(2, 4))
        db = int(rng.integers(2, 4))
        nout = int(rng.integers(2, 4))
        theta = ch.random_channel(db, nout, rng)
        cfg = ms.GameConfig(float(rng.uniform(0, 1)), rng.uniform(0, 2 * np.pi, da))
        signs = tuple(rng.choice([-1, 1], size=nout))
        _, objective = sd.build_sign_program(theta, cfg, signs)

        pre = ch.random_di(da, db, rng)
        populations = rng.dirichlet(np.ones(da))
        x = feasible_point(pre, populations)

        amp = np.sqrt(populations)
        rho = np.outer(amp, amp).astype(complex)
        out = ch.apply(theta, ch.apply(pre, ch.apply(ms.signal_map(cfg), rho)))
        direct = float(np.real(np.sum(np.asarray(signs) * np.diagonal(out))))
        assert objective_value_at(objective, x) == pytest.approx(direct, abs=1e-10)


def test_feasible_points_satisfy_constraints(rng):
    theta = ch.random_channel(2, 2, rng)
    functionals, _ = sd.build_sign_program(theta, cfg_half(), (1, -1))
    x = feasible_point(ch.random_di(2, 2, rng), rng.dirichlet(np.ones(2)))
    for f, target in functionals:
        got = complex(np.sum(np.conj(f) * x))
        assert got == pytest.approx(complex(target), abs=1e-10)


def test_all_ones_program_is_pinned_to_prior(rng):
    theta = ch.random_channel(2, 2, rng)
    for lam in (0.2, 0.5, 0.8):
        cfg = ms.GameConfig(lam, np.array([2.0 * np.pi / 3.0, 0.0]))
        _, objective = sd.build_sign_program(theta, cfg, (1, 1))
        for _ in range(5):
            x = feasible_point(ch.random_di(2, 2, rng), rng.dirichlet(np.ones(2)))
            assert objective_value_at(objective, x) == pytest.approx(lam - (1 - lam), abs=1e-10)


def test_di_channel_programs_never_beat_prior(rng):
    cfg = ms.GameConfig(0.7, np.array([2.0 * np.pi / 3.0, 0.0]))
    theta = ch.random_di(2, 2, rng)
    for signs in sd.enumerate_sign_vectors(2, full=True):
        _, info = sd.solve_sdp(*sd.build_sign_program(theta, cfg, signs))
        assert info.primal_objective <= cfg.prior_gap + 1e-7


# ---------------------------------------------------------------------------
# Full evaluation
# ---------------------------------------------------------------------------


def test_constant_patterns_are_pinned_to_the_prior(rng):
    # the two constant sign programs are never solved: trace preservation pins
    # them to +-(lam - mu), which solving them must reproduce
    for _ in range(8):
        da, din, dout = (int(d) for d in rng.integers(2, 4, size=3))
        theta = ch.random_channel(din, dout, rng)
        cfg = ms.GameConfig(float(rng.uniform(0, 1)), rng.uniform(0, 2 * np.pi, da))
        objectives = sd._sign_objectives(theta, cfg, [(1,) * dout, (-1,) * dout])
        _, infos = sd.solve_family(sd.sign_family(da, din), objectives)
        assert [info.primal_objective for info in infos] == pytest.approx([cfg.lam - cfg.mu, cfg.mu - cfg.lam], abs=1e-8)


def test_auto_equals_full(rng):
    for _ in range(8):
        din = int(rng.integers(2, 4))
        dout = int(rng.integers(2, 4))
        theta = ch.random_channel(din, dout, rng)
        cfg = ms.GameConfig(float(rng.uniform(0, 1)), rng.uniform(0, 2 * np.pi, 2))
        auto = sd.preprocessed_improvement(theta, cfg)
        _, full = full_sign_enumeration(theta, cfg)
        assert auto.value == pytest.approx(max(full) - cfg.prior_gap, abs=1e-8)


def test_auto_per_sign_values_match_full(rng):
    theta = ch.random_channel(2, 2, rng)
    cfg = ms.GameConfig(0.7, rng.uniform(0, 2 * np.pi, 2))
    auto = sd.preprocessed_improvement(theta, cfg)
    signs, full = full_sign_enumeration(theta, cfg)
    assert auto.sign_vectors == signs
    for a, f, status in zip(auto.per_sign_values, full, auto.per_sign_status):
        if status == "pruned":  # a ceiling, below the winner
            assert f <= a < auto.trace_norm
        else:
            assert a == pytest.approx(f, abs=1e-7)


def test_identical_calls_give_identical_per_sign_values(rng):
    theta = ch.random_channel(2, 3, rng)
    cfg = ms.GameConfig(0.5, rng.uniform(0, 2 * np.pi, 2))
    first = sd.preprocessed_improvement(theta, cfg)
    second = sd.preprocessed_improvement(theta, cfg)
    assert first.value == second.value
    assert first.per_sign_values == second.per_sign_values


# ---------------------------------------------------------------------------
# Stacked solve of the sign family
# ---------------------------------------------------------------------------

def _capture_stacked(monkeypatch, corrupt=None):
    """Record the IpmInfo list of every stacked solve, optionally after
    overwriting objective ``corrupt`` of the stack with NaN."""
    runs = []
    original = sd.solve_stacked

    def recording(family, c, **kwargs):
        if corrupt is not None:
            c = np.array(c)
            c[corrupt] = np.nan
        out = original(family, c, **kwargs)
        runs.append(out[3])
        return out

    monkeypatch.setattr(sd, "solve_stacked", recording)
    return runs


def test_stacked_solve_matches_solo_solves(rng, monkeypatch):
    theta = ch.random_channel(2, 4, rng)
    cfg = ms.GameConfig(0.6, rng.uniform(0, 2 * np.pi, 3))
    runs = _capture_stacked(monkeypatch)
    rep = sd.preprocessed_improvement(theta, cfg)
    solved = [k for k, s in enumerate(rep.sign_vectors) if len(set(s)) > 1]
    assert len(runs) == 1 and len(runs[0]) == len(solved) == 14
    for k, info in zip(solved, runs[0]):
        _, solo = sd.solve_sdp(*sd.build_sign_program(theta, cfg, rep.sign_vectors[k]))
        assert info.status == rep.per_sign_status[k]
        if info.status == "pruned":  # a ceiling, below the winner
            assert solo.primal_objective <= rep.per_sign_values[k] < rep.trace_norm
            assert info.iterations < solo.iterations
        else:
            assert info.status == "optimal"
            assert rep.per_sign_values[k] == pytest.approx(solo.primal_objective, abs=1e-7)
            assert info.iterations == solo.iterations


def test_solve_family_splits_long_stacks_like_solo_solves(rng, monkeypatch):
    family = sd.sign_family(2, 2)
    signs = sd.enumerate_sign_vectors(2, full=True)
    objectives = np.concatenate([
        sd._sign_objectives(ch.random_channel(2, 2, rng),
                            ms.GameConfig(float(rng.uniform(0, 1)), rng.uniform(0, 2 * np.pi, 2)),
                            signs)
        for _ in range(18)
    ])
    assert len(objectives) > sd.MAX_STACK
    xs, infos = sd.solve_family(family, objectives[:0])
    assert infos == [] and xs.shape == (0, 4, 4)
    runs = _capture_stacked(monkeypatch)
    xs, got = sd.solve_family(family, objectives)
    assert [len(infos) for infos in runs] == [sd.MAX_STACK, len(objectives) - sd.MAX_STACK]
    assert xs.shape == objectives.shape
    for k, info in enumerate(info for infos in runs for info in infos):
        _, _, _, solo = ipm.solve_real_sdp(family, objectives[k])
        assert solo.status == info.status == "optimal"
        assert got[k].primal_objective == pytest.approx(solo.primal_objective, abs=1e-7)
        assert info.iterations == solo.iterations


def test_single_objective_is_a_stack_of_one(rng):
    # ipm.solve_real_sdp is the K = 1 stack, so a stack of one from
    # solve_family agrees with it bit for bit
    family = sd.sign_family(2, 2)
    objectives = sd._sign_objectives(ch.random_channel(2, 2, rng), cfg_half(), [(1, -1)])
    xs, infos = sd.solve_family(family, objectives)
    x_solo, _, _, info = ipm.solve_real_sdp(family, objectives[0])
    assert len(infos) == 1 and xs.shape == (1, *x_solo.shape)
    assert infos[0].primal_objective == info.primal_objective
    assert np.array_equal(xs[0], x_solo)


def test_group_floors_lie_between_the_values_and_the_ceilings(rng):
    # a floor is the greatest objective attained in its group, so it is at
    # least every optimal value there and at most the group's largest ceiling
    pairs = [(ch.random_channel(2, 2, rng),
              ms.GameConfig(float(rng.uniform(0, 1)), rng.uniform(0, 2 * np.pi, 2)))
             for _ in range(4)]
    objectives = np.concatenate([sd._sign_objectives(theta, cfg, [(1, -1), (-1, 1)])
                                 for theta, cfg in pairs])
    groups = np.repeat(np.arange(len(pairs)), 2)
    floors = np.full(len(pairs), -np.inf)
    _, _, _, infos = ipm.solve_stacked(sd.sign_family(2, 2), objectives, groups, floors)
    assert any(info.status == "pruned" for info in infos)
    for g, floor in enumerate(floors):
        group = [info for info, label in zip(infos, groups) if label == g]
        assert all(info.status in ("optimal", "pruned") for info in group)
        assert all(floor >= info.primal_objective for info in group if info.status == "optimal")
        assert floor <= max(info.bound for info in group)


def test_pruning_leaves_the_winner_bit_identical(rng, monkeypatch):
    # pruned programs leave the stack; the others take the steps they take in
    # an ungrouped solve, so every optimal value and the winning X agree to
    # the bit
    theta = ch.random_channel(2, 4, rng)
    cfg = ms.GameConfig(0.5, rng.uniform(0, 2 * np.pi, 3))  # a non-constant sign wins
    runs = _capture_stacked(monkeypatch)
    signs, (ev,) = sd.evaluate_pairs([(theta, cfg)])
    solved = [k for k, s in enumerate(signs) if len(set(s)) > 1]
    xs, infos = sd.solve_family(sd.sign_family(3, 2),
                                sd._sign_objectives(theta, cfg, [signs[k] for k in solved]))
    values = [info.primal_objective for info in infos]
    grouped, ungrouped = runs
    assert ev.per_sign_status.count("pruned") > 0
    assert ev.per_sign_status[ev.winner] == "optimal"
    assert ev.per_sign[ev.winner] == values[solved.index(ev.winner)]
    assert np.array_equal(ev.x_opt, xs[solved.index(ev.winner)])
    for j, k in enumerate(solved):
        if ev.per_sign_status[k] == "optimal":
            assert ev.per_sign[k] == values[j]
            assert grouped[j].iterations == ungrouped[j].iterations
        else:
            assert grouped[j].iterations < ungrouped[j].iterations


def test_ceilings_bound_the_exact_values(rng, monkeypatch):
    # every program's ceiling, optimal or pruned, lies above the value an
    # ungrouped solve reaches, and the report's upper bound above them all
    pairs = {}
    for _ in range(12):
        da = int(rng.integers(2, 4))
        din, dout = (int(d) for d in rng.integers(2, 5, size=2))
        cfg = ms.GameConfig(float(rng.uniform(0, 1)), rng.uniform(0, 2 * np.pi, da))
        pairs.setdefault((da, din, dout), []).append((ch.random_channel(din, dout, rng), cfg))
    pruned = 0
    runs = _capture_stacked(monkeypatch)
    for group in pairs.values():
        first = len(runs)
        signs, evaluations = sd.evaluate_pairs(group)
        infos = [info for infos in runs[first:] for info in infos]
        solved = [k for k, s in enumerate(signs) if len(set(s)) > 1]
        for p, ((theta, cfg), ev) in enumerate(zip(group, evaluations)):
            _, exact = full_sign_enumeration(theta, cfg)
            for j, k in enumerate(solved):
                assert infos[p * len(solved) + j].bound >= exact[k]
            assert ev.upper_bound >= max(exact)
            assert ev.upper_bound - ev.per_sign[ev.winner] <= sd.BRACKET_TOL
            pruned += ev.per_sign_status.count("pruned")
    assert pruned > 0


def test_ties_prune_nothing():
    # on qft:3 every non-constant sign program has the same value, so no
    # ceiling falls below the best floor
    rep = sd.preprocessed_improvement(ch.qft(3), ms.GameConfig(0.7, np.array([2.0, 0.0, 1.0])))
    assert rep.pruned == 0
    assert set(rep.per_sign_status) == {"exact", "optimal"}
    assert rep.lower_bound <= rep.upper_bound <= rep.lower_bound + sd.BRACKET_TOL


def test_schur_jitter_stays_with_its_program(rng):
    family = sd.sign_family(2, 2)

    class SingularSecond(type(family.constraints)):
        """Zeroes the last row and column of the second Schur matrix of a stack."""

        def schur(self, w):
            out = super().schur(w)
            if out.ndim == 3 and len(out) > 1:
                out[1, -1, :] = out[1, :, -1] = 0.0
            return out

    constraints = SingularSecond(list(family.constraints.dense))
    c = -sd._sign_objectives(ch.random_channel(2, 2, rng), cfg_half(),
                             [(1, -1), (-1, 1), (1, -1)])
    x = np.array(np.broadcast_to(family.start, c.shape))
    s = np.array(np.broadcast_to(np.eye(c.shape[-1], dtype=complex), c.shape))
    rp = family.targets - constraints.dot(x)
    rd = c - s
    gap = ipm._inner(x, s)
    centre = np.zeros(3, dtype=bool)
    stacked = ipm._step(constraints, x, s, rp, rd, gap, centre)
    for k in (0, 2):
        one = ipm._step(constraints, x[k:k + 1], s[k:k + 1], rp[k:k + 1], rd[k:k + 1],
                        gap[k:k + 1], centre[k:k + 1])
        for part, solo in zip(stacked, one):
            assert np.array_equal(part[k], solo[0])
    assert all(np.isfinite(part[1]).all() for part in stacked)


def _random_pd(rng, k, n):
    g = rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n))
    return g @ g.conj().swapaxes(-1, -2) / n + 0.1 * np.eye(n)


def _assert_close(got, expected, rtol=1e-10):
    assert np.abs(got - expected).max() <= rtol * np.abs(expected).max()


@pytest.mark.parametrize("n", [2, 5, 16])
def test_scaled_frame_maps_x_and_s_to_the_identity(rng, n):
    x, s = _random_pd(rng, 4, n), _random_pd(rng, 4, n)
    w, frames, s_inv = ipm._scaled_frame(x, s)
    p_x, p_s = frames[:4], frames[4:]
    eye = np.broadcast_to(np.eye(n), x.shape)
    _assert_close(p_x @ x @ la.dagger(p_x), eye)
    _assert_close(p_s @ s @ la.dagger(p_s), eye)
    _assert_close(w @ s @ w, x)
    _assert_close(s_inv @ s, eye)


@pytest.mark.parametrize("dims", [(2, 2), (4, 4)])
def test_two_column_schur_solve_gives_the_corrector_of_a_direct_solve(rng, dims):
    family = sd.sign_family(*dims)
    constraints, n, k = family.constraints, family.constraints.n, 3
    x, s = _random_pd(rng, k, n), _random_pd(rng, k, n)
    rp = rng.standard_normal((k, constraints.m))
    rd = la.hermitian_part(rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n)))
    w, frames, s_inv = ipm._scaled_frame(x, s)
    u, v = ipm._schur_solve(constraints, w, s_inv, x, rp, rd)
    schur = constraints.schur(w)

    def direct(sigma_mu):
        rc = sigma_mu[:, None, None] * s_inv - x
        rhs = rp + constraints.dot(w @ rd @ w) - constraints.dot(rc)
        return rc, np.linalg.solve(schur, rhs[..., None])[..., 0]

    for sigma_mu in (np.zeros(k), np.array([1e-6, 0.3, 2.0])):
        _assert_close(u - sigma_mu[:, None] * v, direct(sigma_mu)[1])
    # the corrector of a step is the direction of a direct solve at its sigma mu
    gap = ipm._inner(x, s)
    dx, dy, ds, *_ = ipm._step(constraints, x, s, rp, rd, gap, np.zeros(k, dtype=bool))
    sigma_mu = np.einsum("ki,ki->k", u - dy, v) / np.einsum("ki,ki->k", v, v)
    rc, dy_direct = direct(sigma_mu)
    ds_direct = rd - constraints.combine(dy_direct)
    dx_direct = la.hermitian_part(rc - w @ ds_direct @ w)
    dx_direct += constraints.least_norm(rp - constraints.dot(dx_direct))
    for got, expected in ((dy, dy_direct), (ds, ds_direct), (dx, dx_direct)):
        _assert_close(got, expected)


@pytest.mark.parametrize("dims", [(2, 2), (3, 2), (2, 3), (4, 4)])
def test_sign_family_is_the_presolved_constraint_span(dims):
    da, db = dims
    n = da * db
    family = sd.sign_family(da, db)
    # independence is over the reals: rank of the vectorizations [Re, Im]
    rows = real_vectors(family.constraints.dense)
    assert family.constraints.m == 1 + da * (da - 1) * db
    assert np.linalg.matrix_rank(rows) == family.constraints.m
    assert family.constraints.dot(family.start) == pytest.approx(family.targets, abs=1e-12)
    assert np.linalg.eigvalsh(family.start).min() > 0.0
    # the original program also pinned the off-diagonals of tr_B X
    partial = []
    for i in range(da):
        for j in range(i + 1, da):
            f = np.zeros((n, n), dtype=complex)
            for b in range(db):
                f[i * db + b, j * db + b] = 1.0
            partial.append((f, 0.0 + 0.0j))
    functionals = sd._sign_functionals(da, db)
    presolved = sd.constraint_family(functionals[:1] + partial + functionals[1:])
    presolved_rows = real_vectors(presolved.constraints.dense)
    assert presolved.constraints.m == family.constraints.m
    assert np.linalg.matrix_rank(np.vstack([rows, presolved_rows])) == family.constraints.m
    assert np.linalg.lstsq(rows.T, presolved_rows.T, rcond=None)[0].T @ family.targets \
        == pytest.approx(presolved.targets, abs=1e-12)


def test_failure_in_a_stack_stays_with_its_program(rng, monkeypatch):
    theta = ch.random_channel(2, 3, rng)
    cfg = ms.GameConfig(0.6, rng.uniform(0, 2 * np.pi, 2))
    runs = _capture_stacked(monkeypatch, corrupt=2)
    with pytest.raises(SolverFailure) as err:
        sd.preprocessed_improvement(theta, cfg)
    assert err.value.status == "numerical_failure"
    (infos,) = runs
    assert [info.status for info in infos] == ["optimal"] * 2 + ["numerical_failure"] \
        + ["optimal"] * 3


def test_each_stop_in_a_stack_matches_its_solo_solve():
    # over X00 = 1 on 2 x 2 the programs stop in turn: unbounded after the
    # step of iteration 1, on NaN at the first test, and optimal; each keeps
    # the status, iteration count, X and y it reaches alone, to the bit
    f = np.zeros((2, 2), dtype=complex)
    f[0, 0] = 1.0
    family = sd.constraint_family([(f, 1.0)])
    c = -np.array([np.diag([0.0, -1.0]), [[0, 1], [1, 2]], np.full((2, 2), np.nan),
                   [[1, 0.5j], [-0.5j, 3]]], dtype=complex)
    x, y, _, infos = ipm.solve_stacked(family, c)
    assert [info.status for info in infos] == ["unbounded", "optimal", "numerical_failure",
                                               "optimal"]
    assert infos[0].iterations == infos[2].iterations == 1
    for k, info in enumerate(infos):
        x_solo, y_solo, _, solo = ipm.solve_real_sdp(family, c[k])
        assert (info.status, info.iterations) == (solo.status, solo.iterations)
        assert x[k].tobytes() == x_solo.tobytes() and y[k].tobytes() == y_solo.tobytes()


def test_the_iteration_cap_fails_every_running_program(rng, monkeypatch):
    monkeypatch.setattr(ipm, "MAX_ITER", 3)
    c = np.concatenate([sd._sign_objectives(ch.random_channel(2, 2, rng), cfg_half(),
                                            [(1, -1), (-1, 1)]) for _ in range(3)])
    _, _, _, infos = ipm.solve_stacked(sd.sign_family(2, 2), c)
    assert len(infos) == 6
    for info in infos:
        assert (info.status, info.iterations) == ("numerical_failure", 3)
        assert np.isfinite([info.gap, info.primal_residual, info.dual_residual,
                            info.primal_objective, info.dual_objective]).all()


def test_prior_endpoints_have_zero_improvement(rng):
    # lam = 1: the phases are never applied; lam = 0: they always are.  Either
    # way there is nothing to distinguish and the improvement vanishes.
    theta = ch.random_channel(2, 2, rng)
    for lam in (0.0, 1.0):
        cfg = ms.GameConfig(lam, np.array([2.0 * np.pi / 3.0, 0.0]))
        rep = sd.preprocessed_improvement(theta, cfg)
        assert rep.value == pytest.approx(0.0, abs=1e-7)
        assert rep.trace_norm == pytest.approx(1.0, abs=1e-7)


def test_prior_reflection_identity(rng):
    # the value is invariant under (lam, phi) -> (1 - lam, -phi)
    for _ in range(6):
        theta = ch.random_channel(2, 2, rng)
        lam = float(rng.uniform(0, 1))
        phi = rng.uniform(0, 2 * np.pi, 2)
        a = sd.preprocessed_improvement(theta, ms.GameConfig(lam, phi))
        b = sd.preprocessed_improvement(theta, ms.GameConfig(1 - lam, -phi))
        assert a.value == pytest.approx(b.value, abs=1e-7)


def test_rejects_non_cptp_input():
    with pytest.raises(ValidationError):
        sd.preprocessed_improvement(ch.complementary_dephasing(2), cfg_half())


def test_trace_channel_single_output(rng):
    # dim-1 output: both sign patterns are constant, nothing is solved, and
    # the (free) channel scores zero improvement with a valid extraction
    trace_channel = ch.from_kraus([np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])])
    for lam in (0.3, 0.5, 0.9):
        cfg = ms.GameConfig(lam, np.array([2.0 * np.pi / 3.0, 0.0]))
        rep = sd.preprocessed_improvement(trace_channel, cfg)
        assert abs(rep.value) <= 1e-9
        assert rep.verification_residual <= 1e-8
        assert len(rep.per_sign_values) == 2
        p = ms.success_probability(rep.value, cfg)
        assert 0.5 - 1e-12 <= p <= 1.0


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------

def test_extraction_uniform_full_support():
    # maximally mixed X: uniform populations, pre-processing is a classical
    # contraction; the pair reproduces the prior-only value
    x = np.eye(4, dtype=complex) / 4.0
    res = sd.extract_optimal(x, (2, 2))
    assert np.allclose(res.sigma_diag, [0.5, 0.5], atol=1e-12)
    amp = np.full((2, 2), 0.5)
    assert np.allclose(res.rho_opt, amp, atol=1e-12)
    assert ch.is_detection_incoherent(res.phi_opt, 1e-9)


def test_extraction_rank_deficient_support(rng):
    # X concentrated on the first A index: the unsupported index is rerouted
    tau = la.random_density_matrix(2, rng)
    x = np.zeros((4, 4), dtype=complex)
    x[:2, :2] = tau
    res = sd.extract_optimal(x, (2, 2))
    assert np.allclose(res.sigma_diag, [1.0, 0.0], atol=1e-9)
    assert np.allclose(res.rho_opt, la.basis_proj(2, 0), atol=1e-9)
    assert res.phi_opt.dim_in == 2
    # both basis states route to the same output
    out0 = ch.apply(res.phi_opt, la.basis_proj(2, 0))
    out1 = ch.apply(res.phi_opt, la.basis_proj(2, 1))
    assert np.allclose(out0, tau, atol=1e-8)
    assert np.allclose(out1, tau, atol=1e-8)


def test_extraction_rejects_infeasible_x():
    bad = np.eye(4, dtype=complex)  # trace 4, not 1
    with pytest.raises(ValidationError):
        sd.extract_optimal(bad, (2, 2))


def test_extraction_failure_is_a_solver_failure(monkeypatch):
    # the X comes from the solver, so an X that yields no pair is solver
    # trouble, not bad input
    def fail(x_opt, dims):
        raise ValidationError("X is not PSD within tolerance")

    monkeypatch.setattr(sd, "extract_optimal", fail)
    with pytest.raises(SolverFailure) as err:
        sd.preprocessed_improvement(ch.hadamard(), cfg_half())
    assert err.value.status == "numerical_failure"
    assert "not PSD" in str(err.value)


def test_extraction_roundtrip_random_channels(rng):
    worst = 0.0
    for _ in range(20):
        theta = ch.random_channel(2, 2, rng)
        lam = float(rng.choice([0.35, 0.5, 0.8]))
        cfg = ms.GameConfig(lam, rng.uniform(0, 2 * np.pi, 2))
        rep = sd.preprocessed_improvement(theta, cfg)
        worst = max(worst, rep.verification_residual)
        assert ch.is_detection_incoherent(rep.phi_opt, 1e-7)
    assert worst <= 1e-5


def test_verify_extraction_on_free_channel(rng):
    cfg = ms.GameConfig(0.8, np.array([2.0 * np.pi / 3.0, 0.0]))
    theta = ch.random_di(2, 2, rng)
    rep = sd.preprocessed_improvement(theta, cfg)
    res = sd.ExtractionResult(rep.sigma_diag, rep.rho_opt, rep.phi_opt)
    assert abs(sd.verify_extraction(theta, cfg, res) - rep.trace_norm) <= 1e-8


# ---------------------------------------------------------------------------
# Measure properties (monotonicity, nullity and invariance are `verify` checks)
# ---------------------------------------------------------------------------

def test_convexity(rng):
    cfg = cfg_half()
    for _ in range(5):
        th1 = ch.random_channel(2, 2, rng)
        th2 = ch.random_channel(2, 2, rng)
        m1 = sd.preprocessed_improvement(th1, cfg).value
        m2 = sd.preprocessed_improvement(th2, cfg).value
        for t in (0.25, 0.5, 0.75):
            mix = ch.mixture([th1, th2], [t, 1.0 - t])
            m_mix = sd.preprocessed_improvement(mix, cfg).value
            assert m_mix <= t * m1 + (1.0 - t) * m2 + 1e-5


def test_faithfulness_dichotomy_probe():
    phi = np.array([2.0 * np.pi / 3.0, 0.0])
    weak = ch.hadamard_mixture(0.05)
    at_half = sd.preprocessed_improvement(weak, ms.GameConfig(0.5, phi)).value
    at_biased = sd.preprocessed_improvement(weak, ms.GameConfig(0.9, phi)).value
    assert at_half > 1e-6
    assert at_biased <= 1e-7

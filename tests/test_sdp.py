from types import SimpleNamespace

import numpy as np
import pytest

from dyncoh import channels as ch
from dyncoh import ipm
from dyncoh import linalg as la
from dyncoh import measures as ms
from dyncoh import sdp as sd
from dyncoh import search
from dyncoh.errors import SolverFailure, ValidationError
from dyncoh.kernels import real_vectors

from conftest import constraint_rows, full_sign_enumeration, perfbench_module


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


def _entry(p, q):
    f = np.zeros((2, 2), dtype=complex)
    f[p, q] = 1.0
    return f


@pytest.mark.parametrize("functionals", [
    # a consistent repeat of the trace row
    [(np.eye(2, dtype=complex), 1.0), (np.eye(2, dtype=complex), 1.0), (_entry(0, 0), 0.3)],
    # 0.7 + 0.7 != 1 contradicts the trace row
    [(np.eye(2, dtype=complex), 1.0), (_entry(0, 0), 0.7), (_entry(1, 1), 0.7)],
    # X00 = -1: the projected identity diag(-1, 1) is not positive definite
    [(_entry(0, 0), -1.0)],
], ids=["consistent_dependent", "inconsistent_dependent", "no_positive_definite_start"])
def test_constraint_family_takes_only_independent_rows_with_a_positive_start(functionals):
    with pytest.raises(ValidationError):
        sd.constraint_family(functionals)
    with pytest.raises(ValidationError):
        sd.solve_sdp(functionals, np.diag([1.0, 0.0]).astype(complex))


@pytest.mark.parametrize("family, dims", [
    *[("sign", dims) for dims in [(2, 1), (2, 2), (3, 2), (2, 3), (3, 3), (5, 2), (4, 4)]],
    *[("mio", dims) for dims in [(1, 2), (2, 2), (2, 3), (3, 2), (3, 5), (4, 3)]],
])
def test_package_families_keep_every_row_and_start_at_the_maximally_mixed_point(family, dims):
    # sign programs start at I / n, MIO steps at the Choi matrix I / d_C
    if family == "sign":
        functionals, built = sd._sign_functionals(*dims), sd.sign_family(*dims)
        weight = dims[0] * dims[1]
    else:
        functionals, built = search._mio_functionals(*dims), search._mio_family(*dims)
        weight = dims[1]
    assert built.constraints.m == len(constraint_rows(functionals))
    assert np.abs(built.start - np.eye(dims[0] * dims[1]) / weight).max() <= 1e-15
    assert np.linalg.eigvalsh(built.start)[0] > 0.0


def _unit(n, p, q):
    f = np.zeros((n, n), dtype=complex)
    f[p, q] = 1.0
    return f


@pytest.mark.parametrize("dims", [(1, 3), (3, 1), (1, 1), (2, 3), (3, 2), (4, 4)])
def test_family_rows_come_in_loop_order(dims):
    # the row order moves the solver's last bits, so both builders keep the
    # order of these loops, entry for entry
    da, db = dims
    n = da * db
    sign = [(np.eye(n, dtype=complex), 1.0)] + [
        (_unit(n, i * db + b, j * db + b), 0.0)
        for i in range(da) for j in range(i + 1, da) for b in range(db)]
    dim_b, dim_c = dims
    mio = [(sum(_unit(n, c * dim_b + i, c * dim_b + j) for c in range(dim_c)), float(i == j))
           for i in range(dim_b) for j in range(i, dim_b)] + [
        (_unit(n, k * dim_b + b, l * dim_b + b), 0.0)
        for b in range(dim_b) for k in range(dim_c) for l in range(k + 1, dim_c)]
    for built, expected in ((sd._sign_functionals(*dims), sign),
                            (search._mio_functionals(*dims), mio)):
        assert len(built) == len(expected)
        for (f, t), (g, s) in zip(built, expected):
            assert f.shape == g.shape and (f == g).all() and t == s


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
                pre, np.outer(np.eye(da)[i], np.eye(da)[j])
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
        # lam id - mu Lambda_phi by linearity, with the phases as a channel
        out = (cfg.lam * ch.apply(theta, ch.apply(pre, rho))
               - cfg.mu * ch.apply(theta, ch.apply(pre, ch.apply(ch.phase_channel(cfg.phi), rho))))
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
        factors = sd._sign_factors(theta, cfg, [(1,) * dout, (-1,) * dout])
        _, infos = sd.solve_family(sd.sign_family(da, din), *factors)
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
    left, right = (np.concatenate(parts) for parts in zip(*[
        sd._sign_factors(ch.random_channel(2, 2, rng),
                         ms.GameConfig(float(rng.uniform(0, 1)), rng.uniform(0, 2 * np.pi, 2)),
                         signs)
        for _ in range(18)
    ]))
    objectives = sd._kron_objectives(left, right)
    # a budget of 30 programs splits the 72 into three runs of 24
    monkeypatch.setattr(sd, "STACK_BYTES", 30 * sd.stack_footprint(4, 5) + 1)
    xs, infos = sd.solve_family(family, left[:0], right[:0])
    assert infos == [] and xs.shape == (0, 4, 4)
    runs = _capture_stacked(monkeypatch)
    xs, got = sd.solve_family(family, left, right)
    assert [len(infos) for infos in runs] == [24, 24, 24]
    assert xs.shape == objectives.shape
    for k, info in enumerate(info for infos in runs for info in infos):
        _, _, _, solo = ipm.solve_real_sdp(family, objectives[k])
        assert solo.status == info.status == "optimal"
        assert got[k].primal_objective == pytest.approx(solo.primal_objective, abs=1e-7)
        assert info.iterations == solo.iterations


def test_stack_runs_fit_the_budget_at_eight_levels(monkeypatch):
    # computed without solving: at d = 8 (n = 64, m = 449) one program's
    # working set exceeds the budget, so each of the 254 programs runs
    # alone; under any budget the split is the fewest runs of near-equal
    # length with K x footprint <= budget, or K = 1
    n, m = 64, 1 + 8 * 7 * 8
    footprint = sd.stack_footprint(n, m)
    assert footprint > sd.STACK_BYTES
    assert [run.stop - run.start for run in sd.stack_runs(254, n, m)] == [1] * 254
    for budget in (1, footprint, 3 * footprint - 1, 40 * footprint, 10**12):
        monkeypatch.setattr(sd, "STACK_BYTES", budget)
        runs = sd.stack_runs(254, n, m)
        lengths = [run.stop - run.start for run in runs]
        assert runs[0].start == 0 and runs[-1].stop == 254
        assert all(a.stop == b.start for a, b in zip(runs, runs[1:]))
        assert min(lengths) >= 1 and max(lengths) - min(lengths) <= 1
        assert all(k * footprint <= budget or k == 1 for k in lengths)
        assert len(runs) == -(-254 // max(1, budget // footprint))
        assert sd.stack_runs(0, n, m) == []


@pytest.mark.parametrize("d, sizes", [(2, (8, 24)), (4, (2, 8))])
def test_stack_footprint_is_the_measured_working_set_per_program(d, sizes, rng):
    # the tracemalloc peak of a stacked run grows linearly in its length,
    # and `stack_footprint` states the slope within 20%
    tracemalloc = pytest.importorskip("tracemalloc")
    family = sd.sign_family(d, d)
    signs = sd.enumerate_sign_vectors(d, full=True)[1:-1]
    objectives = np.concatenate([
        sd._sign_objectives(ch.random_channel(d, d, rng), ms.GameConfig(0.5, rng.uniform(0, 6, d)),
                            signs) for _ in range(-(-max(sizes) // len(signs)))])
    peaks = []
    for k in sizes:
        tracemalloc.start()
        base = tracemalloc.get_traced_memory()[0]
        ipm.solve_stacked(family, objectives[:k], np.arange(k), np.full(k, -np.inf))
        peaks.append(tracemalloc.get_traced_memory()[1] - base)
        tracemalloc.stop()
    slope = (peaks[1] - peaks[0]) / (sizes[1] - sizes[0])
    n, m = family.constraints.n, family.constraints.m
    assert 0.8 <= sd.stack_footprint(n, m) / slope <= 1.2


def test_the_benchmark_pools_keep_the_stacks_of_a_64_program_cap(monkeypatch):
    # the byte budget moves no stack of the detection and creation pools:
    # every family call takes the consecutive runs of at most 64 programs
    # that the earlier program-count cap gave it, and every output checks
    workloads = perfbench_module("workloads")
    reference = workloads.load_reference()
    calls, stacks = [], []
    family_call, stacked_call = sd.solve_family, sd.solve_stacked

    def family(fam, left, *args, **kwargs):
        calls.append((len(left), len(stacks)))
        return family_call(fam, left, *args, **kwargs)

    def stacked(fam, c, **kwargs):
        stacks.append(len(c))
        return stacked_call(fam, c, **kwargs)

    monkeypatch.setattr(sd, "solve_family", family)
    monkeypatch.setattr(sd, "solve_stacked", stacked)
    called = {}  # per pool, whether each case made a family call
    for name in ("detect_n16", "create_qubit"):
        pool = reference[name]
        for case in pool["cases"]:
            before = len(calls)
            for call in workloads.WORKLOADS[name].calls(case, pool["values"][case["id"]]):
                workloads.attempt(call)  # raises on a wrong output
            called.setdefault(name, []).append(len(calls) > before)
    # every detection case solves sign programs; a creation case solves none
    # when its chains stop before any MIO step, but not every one does
    assert all(called["detect_n16"]) and any(called["create_qubit"])
    ends = [first for _, first in calls[1:]] + [len(stacks)]
    for (count, first), end in zip(calls, ends):
        assert stacks[first:end] == [min(64, count - lo) for lo in range(0, count, 64)]


def test_programs_of_several_runs_go_likely_winner_first(rng, monkeypatch):
    # with one program per run, a pair's programs go in descending order of
    # their pinned ceilings, each of which bounds its program's value; the
    # evaluation equals the one-run evaluation to the bit
    theta = ch.random_channel(4, 4, rng)
    cfg = ms.GameConfig(0.5, rng.uniform(0, 2 * np.pi, 4))
    _, (one_run,) = sd.evaluate_pairs([(theta, cfg)])
    signs = sd.enumerate_sign_vectors(4, full=True)[1:-1]
    objectives = sd._sign_objectives(theta, cfg, signs)
    ceilings = sd._pinned_ceilings(sd.sign_family(4, 4), *sd._sign_factors(theta, cfg, signs))
    _, exact = full_sign_enumeration(theta, cfg)
    assert (ceilings >= np.array(exact[1:-1])).all()
    runs = []
    original = sd.solve_stacked

    def recording(family, c, **kwargs):
        runs.append(c)
        return original(family, c, **kwargs)

    monkeypatch.setattr(sd, "solve_stacked", recording)
    monkeypatch.setattr(sd, "STACK_BYTES", 1)
    _, (ev,) = sd.evaluate_pairs([(theta, cfg)])
    assert [len(c) for c in runs] == [1] * 14
    order = [next(k for k, o in enumerate(objectives) if np.array_equal(o, la.hermitian_part(c[0])))
             for c in runs]
    assert order == sorted(range(14), key=lambda k: -ceilings[k])
    assert (ev.winner, ev.improvement) == (one_run.winner, one_run.improvement)
    assert ev.x_opt.tobytes() == one_run.x_opt.tobytes()


def test_stacked_objectives_equal_the_per_pair_ones_bit_for_bit(rng):
    # one contraction over every pair gives each pair the signed populations
    # it has alone, to the bit, and the objectives formed from them are its
    # signed populations weighted by W
    pairs = [(ch.random_channel(3, 4, rng),
              ms.GameConfig(float(rng.uniform(0, 1)), rng.uniform(0, 2 * np.pi, 2)))
             for _ in range(5)]
    signs = np.array(sd.enumerate_sign_vectors(4, full=True), dtype=float)
    stacked = sd._signed_populations([theta for theta, _ in pairs], signs)
    assert stacked.shape == (5, 16, 3, 3)
    for (theta, cfg), t_signed in zip(pairs, stacked):
        objectives = la.hermitian_part(sd._kron_objectives(np.conj(cfg.signal_weights),
                                                           np.conj(t_signed)))
        assert objectives.shape == (16, 6, 6)
        assert objectives.tobytes() == sd._sign_objectives(theta, cfg, signs).tobytes()
        t = sd._signed_populations([theta], np.eye(4))[0]  # T_n, one per output n
        for s, o in zip(signs, objectives):
            expected = np.conj(np.kron(cfg.signal_weights, np.tensordot(s, t, 1)))
            assert la.max_abs(o - expected) <= 1e-15


def test_single_objective_is_a_stack_of_one(rng):
    # ipm.solve_real_sdp is the K = 1 stack, so a stack of one from
    # solve_family agrees with it bit for bit
    family = sd.sign_family(2, 2)
    factors = sd._sign_factors(ch.random_channel(2, 2, rng), cfg_half(), [(1, -1)])
    xs, infos = sd.solve_family(family, *factors)
    x_solo, _, _, info = ipm.solve_real_sdp(family, sd._kron_objectives(*factors)[0])
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
                                *sd._sign_factors(theta, cfg, [signs[k] for k in solved]))
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


def test_the_corrector_brings_a_slow_winner_home_in_few_iterations(monkeypatch):
    # a 4-level random channel whose winner took 20 iterations with a
    # first-order corrector; the second-order term brings it home in 10
    theta = ch.random_channel(4, 4, np.random.default_rng(26))
    cfg = ms.GameConfig(0.5, 2.0 * np.pi * np.arange(4) / 4)
    runs = _capture_stacked(monkeypatch)
    rep = sd.preprocessed_improvement(theta, cfg)
    solved = [k for k, s in enumerate(rep.sign_vectors) if len(set(s)) > 1]
    winner = runs[0][solved.index(int(np.argmax(rep.per_sign_values)))]
    assert winner.status == "optimal"
    assert winner.iterations <= 15


@pytest.mark.parametrize("lam", [0.3, 0.5, 0.8])
@pytest.mark.parametrize("key", range(4))
@pytest.mark.parametrize("d", [2, 3, 4])
def test_random_channels_evaluate_within_the_bracket(d, key, lam):
    # robustness census: every evaluation of a random d-level channel
    # returns a certified bracket
    theta = ch.random_channel(d, d, np.random.default_rng(key))
    rep = sd.preprocessed_improvement(theta, ms.GameConfig(lam, 2.0 * np.pi * np.arange(d) / d))
    assert 0.0 <= rep.upper_bound - rep.lower_bound <= sd.BRACKET_TOL


# Opt-in (`pytest -m slow`): the census carried to d = 5...7, where
# `sd.stack_runs` gives runs of at most four programs, and from d = 6 on one.
LARGER_CENSUS = [(d, key) for d in (5, 6) for key in range(4)] + [(7, 0), (7, 1)]


@pytest.mark.slow
@pytest.mark.parametrize("lam", [0.3, 0.5, 0.8])
@pytest.mark.parametrize("d, key", LARGER_CENSUS)
def test_larger_random_channels_evaluate_within_the_bracket(d, key, lam):
    theta = ch.random_channel(d, d, np.random.default_rng(key))
    rep = sd.preprocessed_improvement(theta, ms.GameConfig(lam, 2.0 * np.pi * np.arange(d) / d))
    assert 0.0 <= rep.upper_bound - rep.lower_bound <= sd.BRACKET_TOL


@pytest.mark.slow
@pytest.mark.parametrize("lam", [0.3, 0.5, 0.8])
def test_the_reach_channel_random_7_1_evaluates_within_the_bracket(lam):
    # random:7:1 of the benchmark's channel specs
    theta = perfbench_module("workloads").make_channel("random:7:1")
    rep = sd.preprocessed_improvement(theta, ms.GameConfig(lam, 2.0 * np.pi * np.arange(7) / 7))
    assert 0.0 <= rep.upper_bound - rep.lower_bound <= sd.BRACKET_TOL


def test_ties_prune_nothing():
    # on qft:3 every non-constant sign program has the same value, so no
    # ceiling falls below the best floor; the cyclic shift leaves two
    # programs to solve, and the other four are transferred from them
    rep = sd.preprocessed_improvement(ch.qft(3), ms.GameConfig(0.7, np.array([2.0, 0.0, 1.0])))
    assert rep.pruned == 0
    assert set(rep.per_sign_status) == {"exact", "optimal"}
    transferred = [k for k, r in enumerate(rep.per_sign_orbit) if r != k]
    assert len(transferred) == 4
    for k in transferred:
        assert rep.per_sign_values[k] == rep.per_sign_values[rep.per_sign_orbit[k]]
    assert rep.lower_bound <= rep.upper_bound <= rep.lower_bound + sd.BRACKET_TOL


# ---------------------------------------------------------------------------
# Output symmetries: one program per orbit
# ---------------------------------------------------------------------------

def h_x_id():
    return ch.tensor(ch.hadamard(), ch.identity_channel(2))


def completely_depolarizing(d):
    return ch.channel_from_choi(np.eye(d * d) / d, d, d)


def _game(lam, d):
    return ms.GameConfig(lam, 2.0 * np.pi * np.arange(d) / d)


def _classes(theta, cfg):
    """The non-constant sign objectives of one pair, each one's class
    representative among them, and the phases that carry the
    representative's objective onto it."""
    signs = sd.enumerate_sign_vectors(theta.dim_out, full=True)[1:-1]
    objectives = sd._sign_objectives(theta, cfg, signs)
    rep, phases = sd._conjugate_classes(objectives[None])
    return objectives, rep[0], phases[0]


def _class_count(theta, cfg):
    return len(set(_classes(theta, cfg)[1].tolist()))


def _orbit_representatives(n_out, perms):
    """Per non-constant sign pattern, the lowest index among the non-constant
    patterns of its orbit under the output permutations ``perms``."""
    signs = sd.enumerate_sign_vectors(n_out, full=True)
    reps = []
    for s in signs[1:-1]:
        orbit, frontier = {s}, [s]
        for t in frontier:
            for perm in perms:
                image = tuple(t[m] for m in perm)
                if image not in orbit:
                    orbit.add(image)
                    frontier.append(image)
        reps.append(min(signs.index(t) for t in orbit) - 1)
    return reps


def _count_phase_solves(monkeypatch):
    """The number of candidates of every `_tree_phases` call."""
    calls = []
    original = sd._tree_phases

    def counting(rep, candidates, floor):
        calls.append(len(candidates))
        return original(rep, candidates, floor)

    monkeypatch.setattr(sd, "_tree_phases", counting)
    return calls


@pytest.mark.parametrize("theta, programs", [
    (ch.qft(3), 2), (ch.qft(4), 4), (h_x_id(), 7), (ch.qft(5), 6),
], ids=["qft3", "qft4", "h_x_id", "qft5"])
def test_one_program_is_solved_per_orbit(theta, programs, monkeypatch):
    # necklaces of length d for qft:d; for H (x) id the group is Z2 x Z2,
    # the flip of the first output bit and the swap of outputs 1 and 3 alone
    runs = _capture_stacked(monkeypatch)
    d = theta.dim_in
    rep = sd.preprocessed_improvement(theta, ms.GameConfig(0.5, 2.0 * np.pi * np.arange(d) / d))
    solved = [k for k, s in enumerate(rep.sign_vectors)
              if len(set(s)) > 1 and rep.per_sign_orbit[k] == k]
    # qft:5's programs take two runs (`sd.stack_runs`)
    assert sum(len(run) for run in runs) == len(solved) == programs
    assert all(rep.per_sign_orbit[r] == r for r in rep.per_sign_orbit)
    assert all(rep.per_sign_orbit[k] <= k for k in range(len(rep.sign_vectors)))
    # the winner, which gives X and the extracted pair, was solved
    winner = int(np.argmax(np.where(np.array(rep.per_sign_status) == "pruned", -np.inf,
                                    rep.per_sign_values)))
    assert rep.per_sign_orbit[winner] == winner


@pytest.mark.parametrize("lam", [0.3, 0.8])
def test_h_x_id_classes_are_the_orbits_of_the_bit_flip_and_the_lone_swap(lam, rng):
    _, rep, _ = _classes(h_x_id(), ms.GameConfig(lam, rng.uniform(0, 2 * np.pi, 4)))
    assert rep.tolist() == _orbit_representatives(4, [[2, 1, 0, 3], [0, 3, 2, 1]])


@pytest.mark.parametrize("lam", [0.3, 0.5, 0.8])
@pytest.mark.parametrize("theta", [ch.qft(3), ch.qft(4), ch.qft(5), h_x_id()],
                         ids=["qft3", "qft4", "qft5", "h_x_id"])
def test_orbit_path_matches_the_full_enumeration(theta, lam, rng):
    # every non-constant program solved on its own, against the orbit path
    d = theta.dim_in
    cfg = ms.GameConfig(lam, rng.uniform(0, 2 * np.pi, d))
    rep = sd.preprocessed_improvement(theta, cfg)
    signs = rep.sign_vectors
    non_constant = [k for k, s in enumerate(signs) if len(set(s)) > 1]
    _, infos = sd.solve_family(sd.sign_family(d, d),
                               *sd._sign_factors(theta, cfg, [signs[k] for k in non_constant]))
    full = [info.primal_objective for info in infos]
    assert any(rep.per_sign_orbit[k] != k for k in non_constant)
    assert rep.trace_norm == pytest.approx(max(full), abs=1e-9)
    for j, k in enumerate(non_constant):
        if rep.per_sign_status[k] == "pruned":  # a ceiling, below the winner
            assert full[j] <= rep.per_sign_values[k] < rep.trace_norm
        else:
            assert rep.per_sign_values[k] == pytest.approx(full[j], abs=1e-9)
    assert rep.upper_bound >= max(full)
    assert 0.0 <= rep.upper_bound - rep.lower_bound <= sd.BRACKET_TOL


def _lifted(phases, cfg):
    """Phases on the 2 d_B rows of the class factors, lifted to A (x) B:
    row (i, b) takes the phase of (0, b) for i in S0, index 0 and every i
    with W_0i = 0 to ``SYMMETRY_TOL``, and of (1, b) for the rest."""
    w = np.abs(cfg.signal_weights)
    rest = (w[0] > sd.SYMMETRY_TOL * w.max()).astype(int)
    rest[0] = 0
    d = phases.reshape(phases.shape[:-1] + (2, -1))
    return d[..., rest, :].reshape(phases.shape[:-1] + (-1,))


def _transfer_defects(theta, cfg):
    """||O_k - D_k O_rep D_k^dag||_F of every transferred pattern k, with
    D_k = diag(d[k]) from the class phases d."""
    objectives, rep, d = _classes(theta, cfg)
    return [np.linalg.norm(objectives[k] - d[k][:, None] * objectives[r] * np.conj(d[k]))
            for k, r in enumerate(rep) if r != k]


@pytest.mark.parametrize("theta, transferred", [(ch.qft(4), 10), (h_x_id(), 7)],
                         ids=["qft4", "h_x_id"])
def test_orbit_phases_map_each_representative_onto_its_members(theta, transferred, rng):
    defects = _transfer_defects(theta, ms.GameConfig(0.4, rng.uniform(0, 2 * np.pi, 4)))
    assert len(defects) == transferred
    assert max(defects) <= 1e-14


def test_transferred_ceilings_add_the_transfer_defect(monkeypatch):
    # transferred entries copy their representative; with phases that map the
    # representative's objective onto a member only to within a defect, that
    # defect ||O_k - D O_rep D^dag||_F lifts the member's ceiling, and with it
    # the upper bound
    theta, cfg = ch.qft(4), ms.GameConfig(0.4, np.array([0.3, 2.0, 1.0, 5.0]))
    signs, (exact,) = sd.evaluate_pairs([(theta, cfg)])
    for k, r in enumerate(exact.per_sign_orbit):
        if r != k:
            assert exact.per_sign_status[k] == exact.per_sign_status[r] == "optimal"
            assert exact.per_sign[k] == exact.per_sign[r]
    original, classes = sd._conjugate_classes, []

    def tilted(factors):
        rep, d = original(factors)
        classes.append((rep[0], d[0] * np.exp(1e-4j * np.arange(d.shape[-1]))))
        return rep, classes[-1][1][None]

    monkeypatch.setattr(sd, "_conjugate_classes", tilted)
    _, (ev,) = sd.evaluate_pairs([(theta, cfg)])
    assert ev.per_sign == exact.per_sign
    # the tilt is on the phases of the 2 d_B class factors; the ceiling
    # grows by the defect of the n x n objectives under the lifted phases
    (rep, d), = classes
    objectives, lifted = sd._sign_objectives(theta, cfg, signs[1:-1]), _lifted(d, cfg)
    defect = max(np.linalg.norm(objectives[k] - lifted[k][:, None] * objectives[r]
                                * np.conj(lifted[k])) for k, r in enumerate(rep) if r != k)
    assert defect > 1e-5
    assert ev.upper_bound - exact.upper_bound == pytest.approx(defect, abs=1e-7)


def _factor_and_objective_classes(pairs):
    """Per pair of one dims: the representatives of the class test on the
    2 d_B class factors and on the n x n sign objectives, and per
    transferred pattern the factor defect ||F_k - D F_rep D^dag||_F and the
    objective defect ||O_k - D~ O_rep D~^dag||_F under the lifted phases."""
    signs = np.array(sd.enumerate_sign_vectors(pairs[0][0].dim_out, full=True)[1:-1], dtype=float)
    weights = np.array([cfg.signal_weights for _, cfg in pairs])
    factors = sd._class_factors(weights, np.conj(sd._signed_populations(
        [theta for theta, _ in pairs], signs)))
    reps, phases = sd._conjugate_classes(factors)
    objectives = np.array([sd._sign_objectives(theta, cfg, signs) for theta, cfg in pairs])
    full, _ = sd._conjugate_classes(objectives)
    defects = []
    for (_, cfg), f, o, rep, d in zip(pairs, factors, objectives, reps, phases):
        lifted = _lifted(d, cfg)
        defects += [(np.linalg.norm(f[k] - d[k][:, None] * f[r] * np.conj(d[k])),
                     np.linalg.norm(o[k] - lifted[k][:, None] * o[r] * np.conj(lifted[k])))
                    for k, r in enumerate(rep) if r != k]
    return reps, full, defects


def _class_games(lam):
    """qft:3-6, H (x) id, the completely depolarizing channel on 6 levels
    and random channels, at uniform, random, two- and three-valued phases."""
    rng = np.random.default_rng(31)
    games = []
    for d in (3, 4, 5, 6):
        a, b = rng.uniform(0, 2 * np.pi, 2)
        games += [(ch.qft(d), phi) for phi in (2.0 * np.pi * np.arange(d) / d,
                                               rng.uniform(0, 2 * np.pi, d),
                                               np.where(np.arange(d) % 2, a, b))]
    games += [(h_x_id(), phi) for phi in ((0, np.pi, 0, np.pi), (0, 0, np.pi, np.pi),
                                          (0.4, 1.3, 2.9, 0.4), rng.uniform(0, 2 * np.pi, 4))]
    games.append((completely_depolarizing(6), 2.0 * np.pi * np.arange(6) / 6))
    games += [(ch.random_channel(3, 3, rng), (0.4, 0.4, 0.4 + np.pi)),
              (ch.random_channel(4, 4, rng), (1.0, 2.5, 2.5, 1.0))]
    return [(theta, ms.GameConfig(lam, np.array(phi, dtype=float))) for theta, phi in games]


def _assert_factor_classes_are_the_objective_classes(pairs):
    reps, full, defects = _factor_and_objective_classes(pairs)
    assert reps.tolist() == full.tolist()
    assert all(abs(factor - objective) <= 1e-13 for factor, objective in defects)
    return len(defects)


@pytest.mark.parametrize("lam", [0.3, 0.5, 0.8])
def test_the_class_factors_give_the_classes_of_the_objectives(lam):
    # W^ (x) conj(T_s) has the classes of conj(W (x) T_s), and the transfer
    # defects of the lifted phases, on games with and without symmetry
    transfers = 0
    for theta, cfg in _class_games(lam):
        transfers += _assert_factor_classes_are_the_objective_classes([(theta, cfg)])
    assert transfers > 100


def test_the_class_factors_give_the_classes_of_the_sweep_grid():
    # the 204 pairs of the default sweep, tested stacked as evaluate_pairs does
    pairs = [(ch.hadamard_mixture(float(p1)), ms.GameConfig(lam, np.array([2.0 * np.pi / 3, 0.0])))
             for lam in (0.5, 0.6, 0.75, 0.9) for p1 in np.linspace(0.0, 1.0, 51)]
    assert _assert_factor_classes_are_the_objective_classes(pairs) > 50


def test_an_evaluation_holds_no_n_by_n_objective_stack():
    # qft:7 has 126 non-constant patterns of 49 x 49 objectives, 4.8 MB of
    # them; the evaluation forms one run's objectives at a time, and its
    # traced peak stays within twice one program's working set
    tracemalloc = pytest.importorskip("tracemalloc")
    sd.sign_family(7, 7)
    pair = (ch.qft(7), _game(0.5, 7))
    tracemalloc.start()
    try:
        sd.evaluate_pairs([pair])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * sd.stack_footprint(49, 1 + 7 * 6 * 7)


def test_qft_classes_are_necklaces_and_follow_a_relabelling():
    cfg = _game(0.3, 4)
    _, rep, _ = _classes(ch.qft(4), cfg)
    assert rep.tolist() == _orbit_representatives(4, [[1, 2, 3, 0]])
    # the shift with two outputs swapped is no symmetry
    assert rep.tolist() != _orbit_representatives(4, [[2, 1, 3, 0]])
    # relabelling two outputs of qft:4 conjugates its group: still 4 classes,
    # the necklaces of the relabelled outputs
    sigma = [1, 0, 2, 3]
    relabelled = ch.compose(ch.unitary_channel(np.eye(4)[sigma]), ch.qft(4))
    _, rep, _ = _classes(relabelled, cfg)
    assert len(set(rep.tolist())) == 4
    assert rep.tolist() == _orbit_representatives(4, [[sigma[(sigma[n] + 1) % 4]
                                                       for n in range(4)]])


def test_classes_reject_objectives_conjugate_only_to_1e6(rng, monkeypatch):
    cfg = _game(0.3, 4)
    # a channel 1e-6 away: the magnitudes already differ
    near = ch.mixture([ch.qft(4), ch.random_channel(4, 4, rng)], [1.0 - 1e-6, 1e-6])
    assert _class_count(near, cfg) == 14
    # entry phases moved by 1e-6 keep every magnitude and the real diagonal,
    # so the candidates reach the phase solve, and the acceptance test fails
    objectives, rep, _ = _classes(ch.qft(4), cfg)
    assert len(set(rep.tolist())) == 4
    tilt = rng.uniform(-1e-6, 1e-6, objectives.shape)
    tilted = objectives * np.exp(1j * (tilt - np.swapaxes(tilt, 1, 2)))
    calls = _count_phase_solves(monkeypatch)
    rep, _ = sd._conjugate_classes(tilted[None])
    assert rep[0].tolist() == list(range(14))
    assert sum(calls) >= 10


@pytest.mark.parametrize("key", range(4))
def test_random_channels_solve_phases_only_for_the_negation_at_lam_equal_mu(key, monkeypatch):
    theta = ch.random_channel(4, 4, np.random.default_rng(100 + key))
    calls = _count_phase_solves(monkeypatch)
    for lam in (0.3, 0.7):
        assert _class_count(theta, _game(lam, 4)) == 14
    assert calls == []
    # at lam = mu, O_{-s} = -O_s shares the invariants of O_s: at most one
    # phase solve per pair {s, -s}, rejected at four distinct phases
    assert _class_count(theta, _game(0.5, 4)) == 14
    assert 0 < len(calls) <= 7


def test_completely_depolarizing_classes_count_the_minus_signs(monkeypatch):
    # the symmetric group of 6 outputs: 5 non-constant classes, by the
    # number of minus signs, and one phase solve per class
    calls = _count_phase_solves(monkeypatch)
    assert _class_count(completely_depolarizing(6), _game(0.3, 6)) == 5
    assert len(calls) == 5


def test_the_negation_joins_s_and_minus_s_only_at_lam_equal_mu_with_two_phase_values(rng):
    # at lam = mu, W vanishes on its diagonal, and D = +-1 by phase class on A
    # flips the sign of every block W_ij != 0 when the phases take two values
    theta = ch.random_channel(3, 3, rng)
    two = np.array([0.4, 0.4, 0.4 + np.pi])
    cfg = ms.GameConfig(0.5, two)
    objectives, rep, d = _classes(theta, cfg)
    # pattern k and 2^N - 1 - k are s and -s
    assert rep.tolist() == [0, 1, 2, 2, 1, 0]
    for k in (3, 4, 5):
        assert np.allclose(np.abs(d[k]), 1.0)
        moved = d[k][:, None] * objectives[rep[k]] * np.conj(d[k])
        assert la.max_abs(moved - objectives[k]) <= 1e-15
    _, (ev,) = sd.evaluate_pairs([(theta, cfg)])
    assert ev.per_sign_orbit == [0, 1, 2, 3, 3, 2, 1, 7]
    assert ev.improvement == pytest.approx(_unreduced_improvements([(theta, cfg)])[0], abs=1e-9)
    # rejected at lam != mu, and at three distinct phases
    assert _class_count(theta, ms.GameConfig(0.6, two)) == 6
    assert _class_count(theta, ms.GameConfig(0.5, np.array([0.4, 1.3, 2.9]))) == 6


def _record_stacks(monkeypatch):
    """Every stacked solve's inputs and outputs."""
    runs = []
    original = sd.solve_stacked

    def recording(family, c, **kwargs):
        out = original(family, c, **kwargs)
        runs.append((c, kwargs, out))
        return out

    monkeypatch.setattr(sd, "solve_stacked", recording)
    return runs


@pytest.mark.parametrize("key", range(4))
def test_channels_without_symmetry_take_the_full_path_bit_for_bit(key, monkeypatch):
    # random 4-outcome channels at 4-entry phases, as in detect_n16, get the
    # trivial group: their stack is every non-constant program in one group,
    # and X, y, S, statuses and iteration counts agree to the bit
    theta = ch.random_channel(4, 4, np.random.default_rng(100 + key))
    cfg = ms.GameConfig(0.5, 2.0 * np.pi * np.arange(4) / 4)
    runs = _record_stacks(monkeypatch)
    signs, (ev,) = sd.evaluate_pairs([(theta, cfg)])
    assert ev.per_sign_orbit == list(range(16))
    non_constant = [k for k, s in enumerate(signs) if len(set(s)) > 1]
    c = sd._kron_objectives(*sd._sign_factors(theta, cfg, [signs[k] for k in non_constant]))
    floors = np.array([cfg.prior_gap])
    x, y, s, infos = ipm.solve_stacked(sd.sign_family(4, 4), c, np.zeros(len(c), dtype=int), floors)
    ((c_got, _, (x_got, y_got, s_got, infos_got)),) = runs
    assert np.array_equal(c_got, c)
    assert np.array_equal(x_got, x) and np.array_equal(y_got, y) and np.array_equal(s_got, s)
    assert infos_got == infos
    assert ev.per_sign_status == ["exact"] + [info.status for info in infos] + ["exact"]


def _unreduced_improvements(pairs):
    """Improvements as every pair's non-constant programs give them when all
    are solved, in one grouped stack: the evaluation without orbits."""
    (da, db, dim_out), = {(cfg.dim, theta.dim_in, theta.dim_out) for theta, cfg in pairs}
    signs = sd.enumerate_sign_vectors(dim_out, full=True)
    non_constant = [k for k, s in enumerate(signs) if len(set(s)) > 1]
    left, right = (np.concatenate(parts) for parts in zip(*[
        sd._sign_factors(theta, cfg, [signs[k] for k in non_constant]) for theta, cfg in pairs]))
    _, infos = sd.solve_family(sd.sign_family(da, db), left, right,
                               np.repeat(np.arange(len(pairs)), len(non_constant)),
                               [cfg.prior_gap for _, cfg in pairs])
    out = []
    for p, (_, cfg) in enumerate(pairs):
        run = infos[p * len(non_constant):(p + 1) * len(non_constant)]
        best = max([cfg.lam - cfg.mu, cfg.mu - cfg.lam]
                   + [info.primal_objective for info in run if info.status == "optimal"])
        out.append(float(best - cfg.prior_gap))
    return out


def test_sweep_points_without_symmetry_keep_their_values_bit_for_bit(monkeypatch):
    # at lam = mu = 0.5 each mixture's two programs, s and -s, form one class
    # (D = Z on A), and the pure Hadamard points (p1 = 1, V = Z) have the
    # output flip at every prior; the rows at lam != mu keep the bits of the
    # unreduced evaluation
    lambdas, p1s, phi = (0.5, 0.6, 0.75, 0.9), np.linspace(0.0, 1.0, 51), (2.0 * np.pi / 3, 0.0)
    runs = _record_stacks(monkeypatch)
    rows = search.mixture_sweep(lambdas, p1s, phi)
    monkeypatch.undo()
    groups = np.concatenate([kwargs["groups"] for _, kwargs, _ in runs])
    solved = np.bincount(groups, minlength=len(rows)).reshape(len(lambdas), len(p1s))
    assert (solved[0] == 1).all()
    assert (solved[1:, :-1] == 2).all() and (solved[1:, -1] == 1).all()
    pairs = [(ch.hadamard_mixture(float(p1)), ms.GameConfig(lam, np.array(phi)))
             for lam in lambdas for p1 in p1s]
    reference = _unreduced_improvements(pairs)
    assert all(row[2] == ref for row, ref in zip(rows[len(p1s):], reference[len(p1s):]))
    for row, ref in zip(rows, reference):
        assert row[2] == pytest.approx(ref, abs=1e-9)


def test_a_dual_bound_eigensolver_failure_stays_with_its_program(rng, failing_third_bound):
    # LAPACK fails on the stack of the third ceilings: each program is redone
    # alone, and only one that fails again ends, as numerical_failure at that
    # iteration; the others keep the bits of an unforced run
    family = sd.sign_family(2, 2)
    c = np.concatenate([sd._sign_objectives(ch.random_channel(2, 2, rng), cfg_half(), [(1, -1)])
                        for _ in range(3)])

    def solve():
        return ipm.solve_stacked(family, c, np.arange(3), np.full(3, -np.inf))

    reference = solve()
    assert all(info.status == "optimal" and info.iterations > 3 for info in reference[3])
    for alone in (set(), {1}):
        failing_third_bound(alone)
        got = solve()
        for k in range(3):
            if k in alone:
                assert (got[3][k].status, got[3][k].iterations) == ("numerical_failure", 3)
                continue
            assert got[3][k] == reference[3][k]
            for part, before in zip(got[:3], reference[:3]):
                assert part[k].tobytes() == before[k].tobytes()


@pytest.mark.parametrize("where, lapack", [("_scaled_frame", "cholesky")])
def test_a_step_factorization_failure_stays_with_its_program(rng, monkeypatch, where, lapack):
    # LAPACK fails inside `where` in the third iteration's step of the stack:
    # the step is redone one program at a time (`ipm._each`), and only a
    # program whose own factorization fails again takes a zero step and ends
    # as numerical_failure there; the others keep the bits of their solo solves
    family = sd.sign_family(2, 2)
    c = np.concatenate([sd._sign_objectives(ch.random_channel(2, 2, rng), cfg_half(), [(1, -1)])
                        for _ in range(3)])
    solo = [ipm.solve_real_sdp(family, one) for one in c]
    assert all(info.status == "optimal" and info.iterations > 3 for *_, info in solo)
    step, inner, factor = ipm._step, getattr(ipm, where), getattr(np.linalg, lapack)
    state = {"steps": 0, "inside": False, "failing": (), "raised": 0}

    def counting_step(*args):
        state["steps"] += 1
        return step(*args)

    def marked(*args):
        state["inside"] = True
        try:
            return inner(*args)
        finally:
            state["inside"] = False

    def failing(a, *args, **kwargs):
        # step 3 is the stack's, steps 4 to 6 those of its programs alone
        if state["inside"] and state["steps"] in state["failing"]:
            state["raised"] += 1
            raise np.linalg.LinAlgError(f"{lapack} failed")
        return factor(a, *args, **kwargs)

    monkeypatch.setattr(ipm, "_step", counting_step)
    monkeypatch.setattr(ipm, where, marked)
    monkeypatch.setattr(np.linalg, lapack, failing)
    for alone in (set(), {1}):
        state.update(steps=0, failing={3} | {4 + k for k in alone}, raised=0)
        x, y, s, infos = ipm.solve_stacked(family, c)
        assert state["raised"] == 1 + len(alone) and state["steps"] > 6
        for k, (x1, y1, s1, info) in enumerate(solo):
            if k in alone:
                assert (infos[k].status, infos[k].iterations) == ("numerical_failure", 3)
                continue
            assert infos[k] == info
            for part, one in zip((x, y, s), (x1, y1, s1)):
                assert part[k].tobytes() == one.tobytes()


def test_a_step_length_eigensolver_failure_takes_the_upper_triangle(rng, monkeypatch):
    # LAPACK's eigvalsh on the lower triangle fails inside `_max_step` in the
    # third iteration's step: on every stack of congruences, and again alone
    # on the congruences of the programs in `faulty`.  Those take the upper
    # triangle, and every program finishes: one in `faulty` with the bits of
    # its solo solve under the same fault, the others with those of their
    # unforced solo solves
    family = sd.sign_family(2, 2)
    c = np.concatenate([sd._sign_objectives(ch.random_channel(2, 2, rng), cfg_half(), [(1, -1)])
                        for _ in range(3)])
    solo = [ipm.solve_stacked(family, c[k:k + 1]) for k in range(3)]
    step, max_step, eigvalsh = ipm._step, ipm._max_step, np.linalg.eigvalsh
    state = {"steps": 0, "stack": 0, "solo": 0, "faulty": (), "upper": 0}

    def counting_step(*args):
        state["steps"] += 1
        return step(*args)

    def marked(cong):
        state.update(stack=len(cong), solo=0)
        try:
            return max_step(cong)
        finally:
            state["stack"] = 0

    def failing(a, *args, UPLO="L", **kwargs):
        if state["stack"] and state["steps"] == 3:
            if UPLO == "U":
                state["upper"] += 1
            elif len(a) > 1:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            else:
                # redone alone: the congruences of X of every program, then of S
                program = state["solo"] % (state["stack"] // 2)
                state["solo"] += 1
                if program in state["faulty"]:
                    raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvalsh(a, *args, UPLO=UPLO, **kwargs)

    def solve(objectives, faulty):
        state.update(steps=0, faulty=faulty, upper=0)
        return ipm.solve_stacked(family, objectives)

    monkeypatch.setattr(ipm, "_step", counting_step)
    monkeypatch.setattr(ipm, "_max_step", marked)
    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    # the predictor's and the corrector's congruences of X and of S
    faulted = solve(c[1:2], {0})
    assert state["upper"] == 4 and faulted[3][0].status == "optimal"
    for faulty in (set(), {1}):
        x, y, s, infos = solve(c, faulty)
        assert state["upper"] == 4 * len(faulty) and state["steps"] > 3
        for k in range(3):
            x1, y1, s1, (info,) = faulted if k in faulty else solo[k]
            assert info.status == "optimal" and infos[k] == info
            for part, one in zip((x, y, s), (x1, y1, s1)):
                assert part[k].tobytes() == one[0].tobytes()


def test_schur_jitter_stays_with_its_program(rng):
    family = sd.sign_family(2, 2)

    class SingularSecond(type(family.constraints)):
        """Zeroes the last row and column of the second Schur matrix of a stack."""

        def schur(self, w):
            out = super().schur(w)
            if out.ndim == 3 and len(out) > 1:
                out[1, -1, :] = out[1, :, -1] = 0.0
            return out

    constraints = SingularSecond(constraint_rows(sd._sign_functionals(2, 2)))
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
    w, frames, sv, g = ipm._scaled_frame(x, s)
    p_x, p_s = frames[:4], frames[4:]
    eye = np.broadcast_to(np.eye(n), x.shape)
    _assert_close(p_x @ x @ la.dagger(p_x), eye)
    _assert_close(p_s @ s @ la.dagger(p_s), eye)
    _assert_close(w @ s @ w, x)
    _assert_close(w, g @ la.dagger(g))
    # in the frame of G, X and S are both diag(Sigma)
    _assert_close(la.dagger(g) @ s @ g, sv[:, None] * eye)
    _assert_close(g @ (sv[:, :, None] * la.dagger(g)), x)


def test_scaled_frame_survives_an_svd_that_does_not_converge(rng, monkeypatch):
    # LAPACK's SVD can fail to converge on a benign matrix.  The frame then
    # redoes each matrix alone, and takes the SVD of the adjoint of one that
    # fails again, so each program keeps the bits it gets alone.
    k, n, bad = 3, 6, 1
    x, s = _random_pd(rng, k, n), _random_pd(rng, k, n)
    unpatched = ipm._scaled_frame(x, s)
    product = la.dagger(np.linalg.cholesky(s[bad])) @ np.linalg.cholesky(x[bad])
    svd = np.linalg.svd

    def failing(a, *args, **kwargs):
        if len(a) > 1 or np.allclose(a[0], product):
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", failing)
    w, frames, sv, g = ipm._scaled_frame(x, s)
    p_x, p_s = frames[:k], frames[k:]
    eye = np.broadcast_to(np.eye(n), x.shape)
    _assert_close(p_x @ x @ la.dagger(p_x), eye)
    _assert_close(p_s @ s @ la.dagger(p_s), eye)
    _assert_close(w @ s @ w, x)
    _assert_close(la.dagger(g) @ s @ g, sv[:, None] * eye)
    parts = (w, p_x, p_s, sv, g)
    full = (unpatched[0], unpatched[1][:k], unpatched[1][k:], *unpatched[2:])
    for j in range(k):
        w1, frames1, sv1, g1 = ipm._scaled_frame(x[j:j + 1], s[j:j + 1])
        for part, solo in zip(parts, (w1, frames1[:1], frames1[1:], sv1, g1)):
            assert part[j].tobytes() == solo[0].tobytes()
        for part, before in zip(parts, full):
            assert (part[j].tobytes() == before[j].tobytes()) == (j != bad)


@pytest.mark.parametrize("dims", [(2, 2), (4, 4)])
def test_step_takes_the_mehrotra_corrector_of_direct_solves(rng, dims, monkeypatch):
    # Each direction solves A(dX) = r_p, A*(dy) + dS = r_d, dX + W dS W = r_c
    # by a dense solve of the Schur system: the predictor at r_c = -X, the
    # corrector at r_c = sigma mu S^-1 - X - G E G^H, where E is the
    # second-order term of the predictor's directions in the frame of G
    family = sd.sign_family(*dims)
    constraints, n, k = family.constraints, family.constraints.n, 3
    x, s = _random_pd(rng, k, n), _random_pd(rng, k, n)
    rp = rng.standard_normal((k, constraints.m))
    rd = la.hermitian_part(rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n)))
    w, _, sv, g = ipm._scaled_frame(x, s)
    schur = constraints.schur(w)

    def direct(rc):
        rhs = rp + constraints.dot(w @ rd @ w - rc)
        dy = np.linalg.solve(schur, rhs[..., None])[..., 0]
        ds = rd - constraints.combine(dy)
        dx = la.hermitian_part(rc - w @ ds @ w)
        dx += constraints.least_norm(rp - constraints.dot(dx))
        return dx, dy, ds

    def step_length(m, dm):
        # largest alpha with M + alpha dM PSD, from the least eigenvalue of M^-1 dM
        lam = np.linalg.eigvals(np.linalg.solve(m, dm)).real.min(axis=-1)
        return np.minimum(1.0, ipm._STEP_FRACTION * np.where(lam < 0.0, -1.0 / lam, np.inf))

    solves = []
    solve = ipm._solve

    def recording(schur, rhs):
        solves.append(solve(schur, rhs))
        return solves[-1]

    monkeypatch.setattr(ipm, "_solve", recording)
    gap = ipm._inner(x, s)
    dx, dy, ds, ap, ad = ipm._step(constraints, x, s, rp, rd, gap, np.zeros(k, dtype=bool))
    assert len(solves) == 2

    dx_a, dy_a, ds_a = direct(-x)
    _assert_close(solves[0], dy_a)
    mu = gap / n
    mu_aff = ipm._inner(x + step_length(x, dx_a)[:, None, None] * dx_a,
                        s + step_length(s, ds_a)[:, None, None] * ds_a) / n
    sigma_mu = np.clip((mu_aff / mu) ** 3, 1e-10, 0.99) * mu
    # E solves Sigma E + E Sigma = Q + Q^H, Q = (G^-1 dX G^-H)(G^H dS G)
    q = np.linalg.solve(g, la.dagger(np.linalg.solve(g, dx_a))) @ la.dagger(g) @ ds_a @ g
    second = g @ ((q + la.dagger(q)) / (sv[:, :, None] + sv[:, None, :])) @ la.dagger(g)
    s_inv = np.linalg.solve(s, np.broadcast_to(np.eye(n), s.shape))
    first = sigma_mu[:, None, None] * s_inv - x
    dx_c, dy_c, ds_c = direct(first - second)
    for got, expected in ((dy, dy_c), (ds, ds_c), (dx, dx_c)):
        _assert_close(got, expected)
    np.testing.assert_allclose(ap, step_length(x, dx_c), rtol=1e-10)
    np.testing.assert_allclose(ad, step_length(s, ds_c), rtol=1e-10)
    # the second-order term moves the direction well beyond the tolerance
    assert np.abs(direct(first)[1] - dy_c).max() > 1e-4 * np.abs(dy_c).max()


@pytest.mark.parametrize("dims", [(2, 2), (3, 2), (2, 3), (4, 4)])
def test_sign_family_is_the_presolved_constraint_span(dims):
    da, db = dims
    family = sd.sign_family(da, db)
    # the family holds the rows of its functionals, independent over the
    # reals: rank of the vectorizations [Re, Im]
    rows = constraint_rows(sd._sign_functionals(da, db))
    assert family.constraints.m == 1 + da * (da - 1) * db
    assert np.array_equal(family.constraints.combine(np.eye(len(rows))), rows)
    assert np.linalg.matrix_rank(real_vectors(rows)) == family.constraints.m
    assert family.constraints.dot(family.start) == pytest.approx(family.targets, abs=1e-12)
    assert np.linalg.eigvalsh(family.start).min() > 0.0


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
    # over X00 = 1 on 2 x 2 the programs stop in turn: on NaN at the first
    # test, optimal, and on the overflow of the program whose objective grows
    # along X11 without bound; each keeps the status, iteration count, X and
    # y it reaches alone, to the bit
    f = np.zeros((2, 2), dtype=complex)
    f[0, 0] = 1.0
    family = sd.constraint_family([(f, 1.0)])
    c = -np.array([np.diag([0.0, -1.0]), [[0, 1], [1, 2]], np.full((2, 2), np.nan),
                   [[1, 0.5j], [-0.5j, 3]]], dtype=complex)
    x, y, _, infos = ipm.solve_stacked(family, c)
    assert [info.status for info in infos] == ["numerical_failure", "optimal",
                                               "numerical_failure", "optimal"]
    assert infos[2].iterations == 1 < infos[1].iterations < infos[0].iterations
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
    # id - dephasing, which is not CP, in a record that is not a Channel
    not_cp = SimpleNamespace(dim_in=2, dim_out=2,
                             choi=ch.identity_channel(2).choi - ch.dephasing(2).choi)
    with pytest.raises(ValidationError, match="requires a CPTP channel"):
        sd.preprocessed_improvement(not_cp, cfg_half())


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

import numpy as np
import pytest

from dyncoh import channels as ch
from dyncoh import kernels
from dyncoh import linalg as la
from dyncoh import measures as ms
from dyncoh import search as se
from dyncoh import sdp as sd
from dyncoh.errors import DimensionMismatch, SolverFailure, ValidationError

from conftest import full_sign_enumeration

SQRT3_HALF = np.sqrt(3.0) / 2.0
PHI = np.array([2.0 * np.pi / 3.0, 0.0])


def cfg_half():
    return ms.GameConfig(0.5, np.array([2.0 * np.pi / 3.0, 0.0]))


def small_budget(seed=1):
    return se.SearchBudget(random_samples=600, refinement_iterations=40, rng_seed=seed)


def test_budget_validation():
    with pytest.raises(ValidationError):
        se.SearchBudget(random_samples=0)


# ---------------------------------------------------------------------------
# Sampled lower bound for the pre-processed value
# ---------------------------------------------------------------------------

def test_brute_force_on_free_channel_gives_prior_gap(rng):
    for lam in (0.3, 0.5, 0.85):
        cfg = ms.GameConfig(lam, np.array([2.0 * np.pi / 3.0, 0.0]))
        theta = ch.random_di(2, 2, rng)
        val = se.brute_force_game_value(theta, cfg, small_budget())
        assert val == pytest.approx(cfg.prior_gap, abs=1e-8)


def test_brute_force_hadamard_reaches_optimum():
    val = se.brute_force_game_value(ch.hadamard(), cfg_half(), small_budget())
    assert val >= SQRT3_HALF - 1e-6
    assert val <= SQRT3_HALF + 1e-9


def test_brute_force_never_beats_sdp(rng):
    for trial in range(6):
        theta = ch.random_channel(2, 2, rng)
        lam = float(rng.choice([0.4, 0.5, 0.7]))
        cfg = ms.GameConfig(lam, rng.uniform(0, 2 * np.pi, 2))
        exact = sd.preprocessed_improvement(theta, cfg).trace_norm
        lower = se.brute_force_game_value(theta, cfg, small_budget(trial))
        assert lower <= exact + 1e-6


def test_brute_force_rectangular_dims(rng):
    theta = ch.random_channel(3, 2, rng)
    cfg = ms.GameConfig(0.5, rng.uniform(0, 2 * np.pi, 2))
    exact = sd.preprocessed_improvement(theta, cfg).trace_norm
    lower = se.brute_force_game_value(theta, cfg, small_budget())
    assert lower <= exact + 1e-6
    assert lower >= cfg.prior_gap - 1e-9


def test_brute_force_never_falls_with_more_samples(rng):
    # a fixed seed draws the same candidates first, so more samples only
    # extend the candidate list and the maximum over it cannot fall
    da, db = 2, 3
    short = se._pre_candidates(da, db, np.random.default_rng(4), 2)
    long = se._pre_candidates(da, db, np.random.default_rng(4), 6)
    assert len(long) == len(short) + 4
    for a, b in zip(short, long):
        assert np.array_equal(a.choi, b.choi)
    for theta, cfg in ((ch.random_channel(2, 2, rng), cfg_half()),
                       (ch.random_channel(3, 2, rng), ms.GameConfig(0.6, PHI))):
        values = [se.brute_force_game_value(theta, cfg, se.SearchBudget(random_samples=n,
                                                                        rng_seed=4))
                  for n in (400, 800, 1600, 3200)]
        assert all(lo <= hi for lo, hi in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# Value without pre-processing and the SWAP counterexample
# ---------------------------------------------------------------------------

def test_no_preprocessing_hadamard_is_exact():
    value = se.no_preprocessing_improvement(ch.hadamard(), cfg_half())
    assert value == pytest.approx(SQRT3_HALF, abs=1e-12)


@pytest.mark.parametrize("dim", [2, 3])
def test_no_preprocessing_is_attained_and_not_beaten(dim, rng):
    for _ in range(10):
        theta = ch.random_channel(dim, dim, rng)
        cfg = ms.GameConfig(float(rng.uniform(0.2, 0.8)), rng.uniform(0, 2 * np.pi, dim))
        value = se.no_preprocessing_improvement(theta, cfg) + cfg.prior_gap

        # the leading eigenvector of the winning signed sum attains the value
        # by direct game arithmetic on the output populations
        (r_stack,) = se._response_stacks(theta, [ch.identity_channel(dim)], cfg)
        h_stack = 0.5 * (r_stack + r_stack.conj().swapaxes(-1, -2))
        tops = [np.linalg.eigh(np.einsum("n,nij->ij", np.array(s, float), h_stack))
                for s in sd.enumerate_sign_vectors(theta.dim_out, full=True)]
        w, v = max(tops, key=lambda wv: wv[0][-1])
        assert w[-1] == pytest.approx(value, abs=1e-12)
        rho = np.outer(v[:, -1], v[:, -1].conj())
        out = ch.apply(theta, ch.apply(ms.signal_map(cfg), rho))
        assert np.abs(np.diag(out).real).sum() == pytest.approx(value, abs=1e-12)

        # no coordinate ascent from a Haar start beats it
        for _ in range(20):
            x0 = la.random_state_vector(dim, rng)
            _, ascent = kernels.pure_state_ascent(r_stack, np.concatenate([x0.real, x0.imag]))
            assert ascent <= value + 1e-12



def test_no_preprocessing_zero_on_free_channels(rng):
    cfg = cfg_half()
    theta = ch.random_di(2, 2, rng)
    assert se.no_preprocessing_improvement(theta, cfg) <= 1e-8


def test_no_preprocessing_requires_matching_dims(rng):
    theta = ch.random_channel(3, 2, rng)
    with pytest.raises(DimensionMismatch):
        se.no_preprocessing_improvement(theta, cfg_half())


def test_no_preprocessing_bounded_by_preprocessed(rng):
    for _ in range(5):
        theta = ch.random_channel(2, 2, rng)
        cfg = cfg_half()
        without = se.no_preprocessing_improvement(theta, cfg)
        with_pre = sd.preprocessed_improvement(theta, cfg).value
        assert without <= with_pre + 1e-6


def test_counterexample_idle_side_is_exactly_blind(rng):
    # phases on the idle side leave the dephased output of the detector
    # unchanged for every input, so the no-pre-processing value is identically 0
    detector = ch.tensor(ch.hadamard(), ch.identity_channel(2))
    cfg = ms.GameConfig(0.5, np.array([np.pi, 0.0, np.pi, 0.0]))
    deph = ch.dephasing(4)
    for _ in range(20):
        rho = la.random_density_matrix(4, rng)
        out = ch.apply(deph, ch.apply(detector, ch.apply(ms.signal_map(cfg), rho)))
        assert la.trace_norm_hermitian(out) <= 1e-12


# ---------------------------------------------------------------------------
# Post-processed lower bound
# ---------------------------------------------------------------------------

def test_postprocessed_is_monotone_in_iterations():
    # the round cap is honoured as given: on this 2 -> 3 channel with qutrit
    # phases the chains still improve after one and after two rounds
    rng = np.random.default_rng(2)
    theta = ch.random_channel(2, 3, rng)
    cfg = ms.GameConfig(0.5, rng.uniform(0, 2 * np.pi, 3))
    budgets = [se.SearchBudget(refinement_iterations=k, rng_seed=3) for k in (1, 2, 30)]
    vals = [se.postprocessed_improvement_lower(theta, cfg, b, restarts=1) for b in budgets]
    assert vals[0] + 1e-3 < vals[1]
    assert vals[1] + 1e-3 < vals[2]


def qutrit_embedding():
    """A unitary acting as the Hadamard on a 2-dim subspace of a qutrit."""
    h = np.eye(3, dtype=complex)
    h[:2, :2] = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    return ch.unitary_channel(h), ms.GameConfig(0.5, np.array([2.0 * np.pi / 3.0, 0.0, 0.0]))


def test_postprocessed_qutrit_embedding_dominates_qubit_case(rng):
    # the embedding scores at least the embedded qubit value
    theta, cfg = qutrit_embedding()
    val = se.postprocessed_improvement_lower(theta, cfg, small_budget(), restarts=4)
    assert val >= SQRT3_HALF - 1e-4


@pytest.mark.parametrize("lam", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
def test_postprocessed_hadamard_is_analytic_at_every_prior(lam):
    value = se.postprocessed_improvement_lower(ch.hadamard(), ms.GameConfig(lam, PHI))
    assert value == pytest.approx(np.sqrt(1.0 - lam * (1.0 - lam)) - abs(2.0 * lam - 1.0),
                                  abs=1e-8)


def _alternate_reference(theta, cfg, budget=se.SearchBudget(), restarts=8):
    """The alternating bound chain after chain, one MIO-step SDP per solve.

    Returns the value and, per chain (inputs outer, starts inner), the number
    of MIO steps the chain took.
    """
    rng = np.random.default_rng(budget.rng_seed)
    dim_b, dim_c = theta.dim_out, cfg.dim
    phase, phase_adj = ch.phase_channel(cfg.phi), ch.phase_channel(-cfg.phi)
    family = se._mio_family(dim_b, dim_c)
    inits = [ch.identity_channel(dim_b) if dim_b == dim_c else se._classical_embed(dim_b, dim_c)]
    inits.extend(ch.random_mio(dim_b, dim_c, rng) for _ in range(restarts))
    best, steps = -np.inf, []
    for i in range(theta.dim_in):
        sigma = ch.apply(theta, la.basis_proj(theta.dim_in, i))
        for post in inits:
            value, n = -np.inf, 0
            for _ in range(budget.refinement_iterations):
                tau = ch.apply(post, sigma)
                new_value = ms.helstrom_norm(cfg, tau, ch.apply(phase, tau))
                if new_value <= value + se.CONVERGENCE_TOL:
                    value = max(value, new_value)
                    break
                value = new_value
                w, v = la.eig_hermitian(cfg.lam * tau - cfg.mu * ch.apply(phase, tau), atol=1e-8)
                p_obs = (v * np.where(w >= 0.0, 1.0, -1.0)) @ v.conj().T
                q = cfg.lam * p_obs - cfg.mu * ch.apply(phase_adj, p_obs)
                choi, _ = sd.solve_family(family,
                                          la.hermitian_part(np.kron(q, np.conj(sigma)))[None])
                post = ch.channel_from_choi(choi[0], dim_b, dim_c, atol=1e-6)
                n += 1
            best = max(best, value)
            steps.append(n)
    return best - cfg.prior_gap, steps


def _creation_cases():
    rng = np.random.default_rng(77)
    cases = [(ch.hadamard(), ms.GameConfig(lam, PHI)) for lam in (0.2, 0.5, 0.8)]
    cases += [(ch.random_channel(2, 2, rng),
               ms.GameConfig(float(rng.uniform(0.2, 0.8)), rng.uniform(0, 2 * np.pi, 2)))
              for _ in range(4)]
    return cases + [qutrit_embedding()]


@pytest.mark.parametrize("case", range(8))
def test_postprocessed_lockstep_matches_chain_by_chain_reference(case):
    theta, cfg = _creation_cases()[case]
    reference, _ = _alternate_reference(theta, cfg)
    assert se.postprocessed_improvement_lower(theta, cfg) == pytest.approx(reference, abs=1e-12)


def _record_mio_runs(monkeypatch, corrupt=None):
    """Sizes of the stacked solves, optionally after overwriting objective
    ``corrupt`` of the first stack with NaN."""
    runs = []
    original = sd.solve_stacked

    def recording(family, c, **kwargs):
        if corrupt is not None and not runs:
            c = np.array(c)
            c[corrupt] = np.nan
        runs.append(len(c))
        return original(family, c, **kwargs)

    monkeypatch.setattr(sd, "solve_stacked", recording)
    return runs


def test_postprocessed_stacks_the_improving_chains_of_each_round(monkeypatch):
    theta, cfg = _creation_cases()[0]  # chains take 1 to 14 MIO steps
    _, steps = _alternate_reference(theta, cfg)
    runs = _record_mio_runs(monkeypatch)
    se.postprocessed_improvement_lower(theta, cfg)
    # a round's run holds exactly the chains whose value rose in that round
    assert runs[0] == len(steps) == 18
    assert runs == [sum(n > r for n in steps) for r in range(max(steps))]
    assert len(runs) <= se.SearchBudget().refinement_iterations


def test_postprocessed_failed_mio_step_raises(monkeypatch):
    runs = _record_mio_runs(monkeypatch, corrupt=5)
    with pytest.raises(SolverFailure) as err:
        se.postprocessed_improvement_lower(ch.hadamard(), cfg_half())
    assert err.value.status == "numerical_failure"
    assert runs == [18]


def test_postprocessed_never_falls_with_more_restarts(rng):
    # the starts for more restarts extend those for fewer, chain for chain
    short, long = se._mio_starts(2, 2, 3, 2), se._mio_starts(2, 2, 3, 8)
    assert len(short) == 3 and len(long) == 9
    for a, b in zip(short, long):
        assert np.array_equal(a.choi, b.choi)
    theta = ch.random_channel(2, 2, rng)
    cfg = ms.GameConfig(0.6, PHI)
    values = [se.postprocessed_improvement_lower(theta, cfg, se.SearchBudget(rng_seed=3),
                                                 restarts=r) for r in (1, 2, 4, 8)]
    assert all(lo <= hi for lo, hi in zip(values, values[1:]))


def test_postprocessed_starts_are_cached_and_read_only(rng):
    theta = ch.random_channel(2, 2, rng)
    values = [se.postprocessed_improvement_lower(theta, cfg_half(), se.SearchBudget(rng_seed=k))
              for k in (5, 7, 5)]
    assert values[0] == values[2]
    starts = se._mio_starts(2, 2, 5, 8)
    assert starts is se._mio_starts(2, 2, 5, 8)
    for post in starts:
        assert not post.choi.flags.writeable
        with pytest.raises(ValueError):
            post.choi[0, 0] = 0.0


# ---------------------------------------------------------------------------
# Monte-Carlo game
# ---------------------------------------------------------------------------

def test_game_free_channel_prior_betting(rng):
    cfg = ms.GameConfig(0.8, np.array([2.0 * np.pi / 3.0, 0.0]))
    theta = ch.random_di(2, 2, rng)
    pre = ch.identity_channel(2)
    rho = la.random_density_matrix(2, rng)
    s0 = ch.apply(theta, ch.apply(pre, rho))
    s1 = ch.apply(theta, ch.apply(pre, ch.apply(ch.phase_channel(cfg.phi), rho)))
    povm = ms.optimal_incoherent_povm(cfg, s0, s1)
    tr = se.monte_carlo_game(theta, pre, rho, povm, cfg, 50000, 11)
    assert tr.predicted_rate == pytest.approx(0.8, abs=1e-9)
    assert abs(tr.empirical_rate - 0.8) <= 4.0 * np.sqrt(0.8 * 0.2 / 50000)


def test_game_lambda_one_always_wins(rng):
    cfg = ms.GameConfig(1.0, np.array([1.0, 0.0]))
    theta = ch.random_channel(2, 2, rng)
    rho = la.random_pure_state(2, rng)
    pre = ch.identity_channel(2)
    s0 = ch.apply(theta, ch.apply(pre, rho))
    s1 = ch.apply(theta, ch.apply(pre, ch.apply(ch.phase_channel(cfg.phi), rho)))
    povm = ms.optimal_incoherent_povm(cfg, s0, s1)
    tr = se.monte_carlo_game(theta, pre, rho, povm, cfg, 2000, 5)
    assert tr.successes == tr.trials
    assert tr.empirical_rate == 1.0
    assert abs(tr.z_score) <= 1e-3


def test_game_hadamard_consistency():
    cfg = cfg_half()
    theta = ch.hadamard()
    rep = sd.preprocessed_improvement(theta, cfg)
    _, _, povm = se.optimal_game_instance(theta, rep)
    tr = se.monte_carlo_game(theta, rep.phi_opt, rep.rho_opt, povm, cfg, 100000, 2718)
    target = ms.success_probability(rep.value, cfg)
    assert tr.predicted_rate == pytest.approx(target, abs=1e-9)
    assert abs(tr.z_score) <= 3.0


def test_game_validation(rng):
    cfg = cfg_half()
    theta = ch.hadamard()
    rho = la.random_density_matrix(2, rng)
    povm = ms.optimal_incoherent_povm(cfg, rho, rho)
    with pytest.raises(ValidationError):
        se.monte_carlo_game(theta, ch.identity_channel(2), rho, povm, cfg, 0, 1)


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------

def test_mixture_sweep_endpoints():
    rows = se.mixture_sweep([0.5], [0.0, 1.0], [2.0 * np.pi / 3.0, 0.0])
    assert len(rows) == 2
    lam, p1, value = rows[0]
    assert (lam, p1) == (0.5, 0.0)
    assert abs(value) <= 1e-8  # identity channel is free
    assert rows[1][2] == pytest.approx(SQRT3_HALF, abs=1e-6)


def test_mixture_sweep_rejects_bad_weights():
    with pytest.raises(ValidationError):
        se.mixture_sweep([0.5], [1.5], [1.0, 0.0])


def test_mixture_sweep_checks_the_grid_before_solving(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("an SDP was solved")

    monkeypatch.setattr(sd, "solve_stacked", no_solve)
    with pytest.raises(ValidationError):
        se.mixture_sweep([0.5, 0.9], [0.0, 0.5, np.nan], PHI)
    assert se.mixture_sweep([], [0.0, 1.0], PHI) == []
    assert se.mixture_sweep([0.5], [], PHI) == []


@pytest.mark.parametrize("mode", ["auto", "full"])
def test_mixture_sweep_matches_per_point_evaluation(mode, monkeypatch):
    # "auto" checks against the package's per-point evaluation, "full"
    # against solving every sign pattern, the constant ones included
    lambdas, p1_grid = (0.5, 0.9), np.linspace(0.0, 1.0, 17)
    runs = []
    original = sd.solve_stacked

    def recording(family, c, **kwargs):
        runs.append(len(c))
        return original(family, c, **kwargs)

    monkeypatch.setattr(sd, "solve_stacked", recording)
    rows = se.mixture_sweep(lambdas, p1_grid, PHI)
    assert len(runs) >= 2 and max(runs) <= sd.MAX_STACK
    assert [(lam, p1) for lam, p1, _ in rows] == [(lam, p1) for lam in lambdas
                                                  for p1 in p1_grid]
    for lam, p1, value in rows:
        theta, cfg = ch.hadamard_mixture(p1), ms.GameConfig(lam, PHI)
        if mode == "auto":
            expected = sd.preprocessed_improvement(theta, cfg).value
        else:
            expected = max(full_sign_enumeration(theta, cfg)[1]) - cfg.prior_gap
        assert value == pytest.approx(expected, abs=1e-9)


def test_mixture_sweep_raises_on_a_failed_grid_point(nan_at_fifth_pair):
    with pytest.raises(SolverFailure) as err:
        se.mixture_sweep([0.5, 0.9], np.linspace(0.0, 1.0, 6), PHI)
    assert err.value.status == "numerical_failure"

import itertools
import json

import numpy as np
import pytest

from dyncoh import channels as ch
from dyncoh import cli
from dyncoh import ipm
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


# ---------------------------------------------------------------------------
# Sampled lower bound for the pre-processed value
# ---------------------------------------------------------------------------

def test_search_effort_constants_keep_the_former_defaults():
    # the pre-processing draws are what max(2, 2000 // 400) gave
    assert se.RANDOM_PRE_DRAWS == max(2, 2000 // 400) == 5
    assert se.PERMUTATION_DRAWS == 8
    assert se.MAX_ROUNDS == 60
    assert se.MIO_RESTARTS == 8


def test_brute_force_on_free_channel_gives_prior_gap(rng):
    for lam in (0.3, 0.5, 0.85):
        cfg = ms.GameConfig(lam, np.array([2.0 * np.pi / 3.0, 0.0]))
        theta = ch.random_di(2, 2, rng)
        val = se.brute_force_game_value(theta, cfg, rng_seed=1)
        assert val == pytest.approx(cfg.prior_gap, abs=1e-8)


def test_brute_force_hadamard_reaches_optimum():
    val = se.brute_force_game_value(ch.hadamard(), cfg_half(), rng_seed=1)
    assert val >= SQRT3_HALF - 1e-6
    assert val <= SQRT3_HALF + 1e-9


def test_brute_force_never_beats_sdp(rng):
    for trial in range(6):
        theta = ch.random_channel(2, 2, rng)
        lam = float(rng.choice([0.4, 0.5, 0.7]))
        cfg = ms.GameConfig(lam, rng.uniform(0, 2 * np.pi, 2))
        exact = sd.preprocessed_improvement(theta, cfg).trace_norm
        lower = se.brute_force_game_value(theta, cfg, rng_seed=trial)
        assert lower <= exact + 1e-6


def test_brute_force_rectangular_dims(rng):
    theta = ch.random_channel(3, 2, rng)
    cfg = ms.GameConfig(0.5, rng.uniform(0, 2 * np.pi, 2))
    exact = sd.preprocessed_improvement(theta, cfg).trace_norm
    lower = se.brute_force_game_value(theta, cfg, rng_seed=1)
    assert lower <= exact + 1e-6
    assert lower >= cfg.prior_gap - 1e-9


def test_brute_force_never_falls_with_more_samples(rng, monkeypatch):
    # a fixed seed draws the same candidates first, so more random draws only
    # extend the candidate list and the maximum over it cannot fall
    da, db = 2, 3
    short = se._pre_candidates(da, db, np.random.default_rng(4), 2)
    long = se._pre_candidates(da, db, np.random.default_rng(4), 6)
    assert len(long) == len(short) + 4
    for a, b in zip(short, long):
        assert np.array_equal(a.choi, b.choi)
    for theta, cfg in ((ch.random_channel(2, 2, rng), cfg_half()),
                       (ch.random_channel(3, 2, rng), ms.GameConfig(0.6, PHI))):
        values = []
        for draws in (2, 4, 8):
            monkeypatch.setattr(se, "RANDOM_PRE_DRAWS", draws)
            values.append(se.brute_force_game_value(theta, cfg, rng_seed=4))
        assert all(lo <= hi for lo, hi in zip(values, values[1:]))


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_square_candidates_sample_each_pre_processing_once(dim):
    # the permutations start with the identity, which is not sampled again
    pres = se._pre_candidates(dim, dim, np.random.default_rng(4), 2)
    assert np.array_equal(pres[0].choi, ch.identity_channel(dim).choi)
    for k, a in enumerate(pres):
        assert not any(np.array_equal(a.choi, b.choi) for b in pres[k + 1:])


@pytest.mark.parametrize("dim_in, dim_out", itertools.product(range(1, 6), repeat=2))
def test_classical_embedding_relabels_each_input(dim_in, dim_out):
    # |i><j| -> delta_ij |t_i><t_i| with t_i = min(i, dim_out - 1)
    embed = se._classical_embed(dim_in, dim_out)
    t = np.minimum(np.arange(dim_in), dim_out - 1)
    for i, j in itertools.product(range(dim_in), repeat=2):
        expected = np.zeros((dim_out, dim_out), dtype=complex)
        expected[t[i], t[i]] = float(i == j)
        assert np.array_equal(ch.apply(embed, np.eye(dim_in)[:, [i]] * np.eye(dim_in)[j]),
                              expected)


def _response_reference(theta, pres, cfg):
    """The response stacks by `compose` calls per candidate, with lam id -
    mu Lambda_phi taken by linearity over the phase channel."""
    phase = ch.phase_channel(cfg.phi)
    idx = np.arange(theta.dim_out)

    def populations(m):
        return ch.index_coeffs(m)[:, :, idx, idx].transpose(2, 1, 0)

    return np.stack([
        cfg.lam * populations(ch.compose(theta, pre))
        - cfg.mu * populations(ch.compose(theta, ch.compose(pre, phase))) for pre in pres])


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2), (3, 2, 3), (3, 3, 3), (4, 4, 2)])
def test_response_stacks_match_the_compose_reference(dims, rng):
    dim_a, dim_b, dim_out = dims
    theta = ch.random_channel(dim_b, dim_out, rng)
    cfg = ms.GameConfig(float(rng.uniform(0.2, 0.8)), rng.uniform(0, 2 * np.pi, dim_a))
    pres = se._pre_candidates(dim_a, dim_b, rng, 3)
    got = se._response_stacks(theta, pres, cfg)
    assert got.shape == (len(pres), dim_out, dim_a, dim_a)
    assert la.max_abs(got - _response_reference(theta, pres, cfg)) <= 1e-14


def test_response_stacks_check_every_candidate_dimension(rng):
    theta, cfg = ch.random_channel(2, 2, rng), cfg_half()
    for bad in (ch.random_channel(3, 2, rng), ch.random_channel(2, 3, rng)):
        with pytest.raises(DimensionMismatch, match="cannot compose"):
            se._response_stacks(theta, [ch.identity_channel(2), bad], cfg)


def _brute_force_reference(theta, cfg, rng_seed=7):
    """`brute_force_game_value` with candidates drawn one at a time in the
    generator order and responses from `_response_reference`."""
    rng = np.random.default_rng(rng_seed)
    dim_a, dim_b = cfg.dim, theta.dim_in
    if dim_a == dim_b:
        perms = list(itertools.permutations(range(dim_a)))
        if len(perms) > 8:
            perms = [perms[0]] + [perms[i] for i in rng.choice(len(perms) - 1, 7,
                                                               replace=False) + 1]
        pres = []
        for perm in perms:
            u = np.zeros((dim_a, dim_a), dtype=complex)
            for col, row in enumerate(perm):
                u[row, col] = 1.0
            pres.append(ch.unitary_channel(u))
        pres.append(ch.permutation_phase_channel(dim_a, rng))
    else:
        pres = [se._classical_embed(dim_a, dim_b)]
        if dim_a < dim_b:
            pres.insert(0, ch.from_kraus([np.eye(dim_b, dim_a)]))
    pres += [ch.random_di(dim_a, dim_b, rng)
             for _ in range(se.RANDOM_PRE_DRAWS)]
    return float(se.sign_eigen_maximum(_response_reference(theta, pres, cfg)).max())


# (seed, dim_in, dim_out, game dim) -> the value with candidates built one
# Kraus operator at a time and responses by `compose`
BRUTE_FORCE_PINS = {
    (11, 2, 2, 2): 0.5002596027177093,  # two permutations
    (13, 3, 2, 2): 0.28613349412218253,  # embeddings into a larger input
    (14, 4, 2, 4): 0.6039367415249643,  # 8 of the 24 permutations drawn
}


@pytest.mark.parametrize("case", sorted(BRUTE_FORCE_PINS))
def test_brute_force_matches_the_reference_path_and_its_draws(case):
    seed, dim_in, dim_out, dim = case
    rng = np.random.default_rng(seed)
    theta = ch.random_channel(dim_in, dim_out, rng)
    cfg = ms.GameConfig(float(rng.uniform(0.2, 0.8)), rng.uniform(0, 2 * np.pi, dim))
    value = se.brute_force_game_value(theta, cfg)
    assert value == pytest.approx(_brute_force_reference(theta, cfg), abs=1e-13)
    assert value == pytest.approx(BRUTE_FORCE_PINS[case], abs=1e-13)


def _permutation_reference(dim, rng):
    """The sampled permutations drawn from the list of all dim! of them."""
    perms = list(itertools.permutations(range(dim)))
    if len(perms) <= se.PERMUTATION_DRAWS:
        return perms
    drawn = rng.choice(len(perms) - 1, se.PERMUTATION_DRAWS - 1, replace=False) + 1
    return [perms[0]] + [perms[i] for i in drawn]


def _permutation_of(channel):
    """The permutation a permutation channel's unitary applies to each column."""
    (u,) = ch.to_kraus(channel)
    return tuple(int(np.argmax(np.abs(col))) for col in u.T)


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7])
def test_permutation_draw_matches_the_listing_reference(dim):
    rng, ref_rng = np.random.default_rng(dim), np.random.default_rng(dim)
    got = se._permutation_channels(dim, rng)
    assert [_permutation_of(p) for p in got] == _permutation_reference(dim, ref_rng)
    assert rng.random() == ref_rng.random()  # the same draws, so the same stream after
    if dim <= 5:
        listed = list(itertools.permutations(range(dim)))
        assert [se._nth_permutation(dim, k) for k in range(len(listed))] == listed


def test_permutation_draw_lists_no_permutations(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("itertools.permutations called")

    monkeypatch.setattr(itertools, "permutations", refuse)
    chosen = se._permutation_channels(9, np.random.default_rng(5))
    assert len(chosen) == se.PERMUTATION_DRAWS
    assert len({_permutation_of(p) for p in chosen}) == se.PERMUTATION_DRAWS


def test_permutation_channels_are_cached_by_permutation():
    first = se._permutation_channels(4, np.random.default_rng(3))
    again = se._permutation_channels(4, np.random.default_rng(3))
    assert len(first) == 8
    assert all(a is b for a, b in zip(first, again))
    assert all(not p.choi.flags.writeable for p in first)


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
        phased = ch.apply(ch.phase_channel(cfg.phi), rho)
        out = cfg.lam * ch.apply(theta, rho) - cfg.mu * ch.apply(theta, phased)
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
        phased = ch.apply(ch.phase_channel(cfg.phi), rho)
        out = ch.apply(deph, cfg.lam * ch.apply(detector, rho)
                       - cfg.mu * ch.apply(detector, phased))
        assert la.trace_norm_hermitian(out) <= 1e-12


# ---------------------------------------------------------------------------
# Post-processed lower bound
# ---------------------------------------------------------------------------

def test_postprocessed_is_monotone_in_iterations(monkeypatch):
    # the round cap is honoured as given: on this 2 -> 3 channel with qutrit
    # phases the chains still improve after one and after two rounds
    rng = np.random.default_rng(2)
    theta = ch.random_channel(2, 3, rng)
    cfg = ms.GameConfig(0.5, rng.uniform(0, 2 * np.pi, 3))
    monkeypatch.setattr(se, "MIO_RESTARTS", 1)
    vals = []
    for rounds in (1, 2, 30):
        monkeypatch.setattr(se, "MAX_ROUNDS", rounds)
        vals.append(se.postprocessed_improvement_lower(theta, cfg, rng_seed=3))
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
    val = se.postprocessed_improvement_lower(theta, cfg, rng_seed=1)
    assert val >= SQRT3_HALF - 1e-4


@pytest.mark.parametrize("lam", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
def test_postprocessed_hadamard_is_analytic_at_every_prior(lam):
    value = se.postprocessed_improvement_lower(ch.hadamard(), ms.GameConfig(lam, PHI))
    assert value == pytest.approx(np.sqrt(1.0 - lam * (1.0 - lam)) - abs(2.0 * lam - 1.0),
                                  abs=1e-8)


@pytest.mark.parametrize("lam, seed", [(0.2, 3), (0.25, 7), (0.65, 5)])
def test_postprocessed_hadamard_stops_at_the_ceiling_before_any_mio_step(lam, seed, monkeypatch,
                                                                         capsys):
    # the identity chain meets the game's ceiling sqrt(1 - lam mu) in its
    # first Helstrom step; these inputs raised SolverFailure from a stalled
    # MIO step while the other chains ran on
    calls = []
    original = sd.solve_family

    def recording(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(se.sdpmod, "solve_family", recording)
    value = se.postprocessed_improvement_lower(ch.hadamard(), ms.GameConfig(lam, PHI),
                                               rng_seed=seed)
    assert value == pytest.approx(np.sqrt(1.0 - lam * (1.0 - lam)) - abs(2.0 * lam - 1.0),
                                  abs=1e-12)
    assert calls == []
    argv = ["measure-post", "--channel", "hadamard", "--lambda", str(lam), "--seed", str(seed)]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["result"]["value"] == value


def _alternate_reference(theta, cfg, rng_seed=7, stop_uniform=True):
    """The alternating bound chain after chain, one MIO-step SDP per solve,
    at the round cap and the number of starts that `search` holds now.

    A chain stops on a gain within the noise of the MIO steps' tolerance, at
    the last round, and with ``stop_uniform`` on a sign observable of +-I.
    Returns the value and, per chain (inputs outer, starts inner), the number
    of MIO steps the chain took.
    """
    rng = np.random.default_rng(rng_seed)
    dim_b, dim_c = theta.dim_out, cfg.dim
    phase, phase_adj = ch.phase_channel(cfg.phi), ch.phase_channel(-cfg.phi)
    family = se._mio_family(dim_b, dim_c)
    inits = [ch.identity_channel(dim_b) if dim_b == dim_c else se._classical_embed(dim_b, dim_c)]
    inits.extend(ch.random_mio(dim_b, dim_c, rng) for _ in range(se.MIO_RESTARTS))
    best, steps = -np.inf, []
    for i in range(theta.dim_in):
        sigma = ch.apply(theta, la.basis_proj(theta.dim_in, i))
        for post in inits:
            value, n = -np.inf, 0
            for round_ in range(1, se.MAX_ROUNDS + 1):
                tau = ch.apply(post, sigma)
                # the rounds weight by W and conj(W) as the package does, and
                # the channel algebra checks each weighted step
                w, v = la.eig_hermitian(cfg.signal_weights * tau, atol=1e-8)
                new_value = np.abs(w).sum()
                assert new_value == pytest.approx(
                    ms.helstrom_norm(cfg, tau, ch.apply(phase, tau)), abs=1e-12)
                # a gain within the noise of the MIO steps' tolerance stops
                if new_value - value <= 10 * ipm.GAP_TOL * (1.0 + abs(new_value)):
                    value = max(value, new_value)
                    break
                value = new_value
                signs = np.where(w >= 0.0, 1.0, -1.0)
                if stop_uniform and abs(signs.sum()) == len(signs):
                    assert value == pytest.approx(cfg.prior_gap, abs=1e-12)
                    break
                if round_ == se.MAX_ROUNDS:
                    break
                p_obs = (v * signs) @ v.conj().T
                q = np.conj(cfg.signal_weights) * p_obs
                assert la.max_abs(q - cfg.lam * p_obs
                                  + cfg.mu * ch.apply(phase_adj, p_obs)) <= 1e-14
                # tr(Q Psi(sigma)) = tr(J (Q (x) sigma^T)), contracted in the
                # package's order: a Kronecker product rounds otherwise
                objective = np.einsum("ac,bd->abcd", q, np.conj(sigma)).reshape(len(q) * dim_b, -1)
                assert la.max_abs(objective - np.kron(q, np.conj(sigma))) <= 1e-15
                choi, _ = sd.solve_family(family, la.hermitian_part(objective)[None])
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


@pytest.fixture
def no_ceiling_stop(monkeypatch):
    """No game ceiling, so the chains never stop at it.  The Hadamard cases
    below reach their MIO steps only so: at the game's phases the identity
    chain meets the ceiling in round 1, and no MIO step is solved."""
    monkeypatch.setattr(ms.GameConfig, "ceiling", np.inf)


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


@pytest.mark.usefixtures("no_ceiling_stop")
def test_postprocessed_stacks_the_improving_chains_of_each_round(monkeypatch):
    theta, cfg = _creation_cases()[0]  # chains take 0 to 8 MIO steps
    _, steps = _alternate_reference(theta, cfg)
    runs = _record_mio_runs(monkeypatch)
    se.postprocessed_improvement_lower(theta, cfg)
    # a round's run holds exactly the chains whose value rose in that round
    # with a non-uniform observable: 6 of the 18 in the first
    assert len(steps) == 18 and runs[0] == 6
    assert runs == [sum(n > r for n in steps) for r in range(max(steps))]
    assert len(runs) <= se.MAX_ROUNDS


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_a_uniform_observable_has_one_value_on_every_channel(dims, rng):
    # with P = +-I the MIO objective (conj(W) o P) (x) conj(sigma) is
    # +-(lam - mu) I (x) conj(sigma): every trace-preserving Choi matrix J,
    # MIO or not, has tr_C J = I and so gives it the value +-(lam - mu)
    dim_b, dim_c = dims
    cfg = ms.GameConfig(0.3, rng.uniform(0, 2 * np.pi, dim_c))
    sigma = ch.apply(ch.random_channel(2, dim_b, rng), la.basis_proj(2, 0))
    posts = ch.random_free_channels("mio", dim_b, dim_c, rng, 8)
    posts += [ch.random_channel(dim_b, dim_c, rng) for _ in range(4)]
    for sign in (1.0, -1.0):
        q = np.conj(cfg.signal_weights) * (sign * np.eye(dim_c))
        objective = np.kron(q, np.conj(sigma))
        values = [np.trace(post.choi @ objective) for post in posts]
        assert values == pytest.approx([sign * (cfg.lam - cfg.mu)] * len(posts), abs=1e-14)


@pytest.mark.usefixtures("no_ceiling_stop")
def test_postprocessed_chains_with_a_uniform_observable_reach_no_mio_step(monkeypatch):
    theta, cfg = _creation_cases()[0]
    _, steps = _alternate_reference(theta, cfg)
    _, unstopped = _alternate_reference(theta, cfg, stop_uniform=False)
    assert sum(steps) == sum(unstopped) - 12  # twelve chains hold +-I in round 1
    objectives = []
    original = sd.solve_family

    def recording(family, c, *args, **kwargs):
        objectives.extend(c)
        return original(family, c, *args, **kwargs)

    monkeypatch.setattr(se.sdpmod, "solve_family", recording)
    se.postprocessed_improvement_lower(theta, cfg)
    assert len(objectives) == sum(steps)
    eye = np.eye(2)
    for objective in objectives:
        # tr sigma = 1, so the trace over the input side leaves conj(W) o P
        p_obs = np.einsum("abcb->ac", objective.reshape(2, 2, 2, 2)) / np.conj(cfg.signal_weights)
        assert min(la.max_abs(p_obs - eye), la.max_abs(p_obs + eye)) > 0.1


def _uniform_stop_cases(count):
    """Random channels over the dims (d_in, d_out, d_c) of the creation side,
    each at a random prior and random phases."""
    rng = np.random.default_rng(24)
    dims = [(2, 2, 2), (3, 3, 3), (2, 3, 2), (3, 2, 3), (2, 2, 3)]
    return [(ch.random_channel(d_in, d_out, rng),
             ms.GameConfig(float(rng.choice([0.2, 0.35, 0.5, 0.65, 0.8])),
                           rng.uniform(0, 2 * np.pi, d_c)))
            for d_in, d_out, d_c in (dims[k % len(dims)] for k in range(count))]


# a handful of cases by default, the census of 40 with -m slow
@pytest.mark.parametrize("case", [*range(5), *(pytest.param(k, marks=pytest.mark.slow)
                                               for k in range(5, 40))])
def test_postprocessed_matches_the_reference_without_the_uniform_stop(case):
    theta, cfg = _uniform_stop_cases(40)[case]
    reference, _ = _alternate_reference(theta, cfg, stop_uniform=False)
    assert se.postprocessed_improvement_lower(theta, cfg) == pytest.approx(reference, abs=1e-12)


@pytest.mark.parametrize("rounds", [1, 2])
def test_postprocessed_takes_no_mio_step_in_its_last_round(rounds, rng, monkeypatch):
    # no round evaluates the last round's MIO step, so none is solved, and a
    # failure there cannot raise
    theta = ch.random_channel(2, 2, rng)
    monkeypatch.setattr(se, "MAX_ROUNDS", rounds)
    reference, steps = _alternate_reference(theta, cfg_half())
    assert max(steps) == rounds - 1
    runs = _record_mio_runs(monkeypatch, corrupt=0)  # the first MIO step fails
    if rounds == 1:
        value = se.postprocessed_improvement_lower(theta, cfg_half())
        assert value == pytest.approx(reference, abs=1e-12)
    else:
        with pytest.raises(SolverFailure):
            se.postprocessed_improvement_lower(theta, cfg_half())
    assert runs == [sum(n > 0 for n in steps)] * (rounds - 1)


@pytest.mark.usefixtures("no_ceiling_stop")
def test_postprocessed_chains_stop_at_the_same_round_under_a_last_bit_change(monkeypatch):
    # Hadamard at prior 0.2 has four long chains, whose late gains are of the
    # order of the MIO steps' solver tolerance.  One ulp more on every MIO
    # objective moves their values by up to 4e-8; it moved their last rounds
    # under a stop at a gain of 1e-9 or of GAP_TOL (1 + |v|), and must not.
    theta, cfg = _creation_cases()[0]
    runs = _record_mio_runs(monkeypatch)
    base = se.postprocessed_improvement_lower(theta, cfg)
    sizes = list(runs)
    assert sizes[1] == 4
    original = sd.solve_family

    def nudged(family, objectives, *args, **kwargs):
        return original(family, np.nextafter(objectives.real, np.inf) + 1j * objectives.imag,
                        *args, **kwargs)

    monkeypatch.setattr(se.sdpmod, "solve_family", nudged)
    runs.clear()
    assert se.postprocessed_improvement_lower(theta, cfg) == pytest.approx(base, abs=1e-9)
    assert runs == sizes


@pytest.mark.usefixtures("no_ceiling_stop")
def test_postprocessed_failed_mio_step_raises(monkeypatch):
    runs = _record_mio_runs(monkeypatch, corrupt=5)
    with pytest.raises(SolverFailure) as err:
        se.postprocessed_improvement_lower(ch.hadamard(), cfg_half())
    assert err.value.status == "numerical_failure"
    assert runs == [18]


@pytest.mark.usefixtures("no_ceiling_stop")
def test_postprocessed_non_cptp_mio_step_is_a_solver_failure(monkeypatch, capsys):
    # a solved Choi matrix that fails the CPTP test is solver trouble (exit
    # 3), not bad input (exit 2)
    original = sd.solve_family

    def scaled(family, objectives, *args, **kwargs):
        maximizers, infos = original(family, objectives, *args, **kwargs)
        return 1.01 * maximizers, infos  # trace 1.01 on every input

    monkeypatch.setattr(sd, "solve_family", scaled)
    with pytest.raises(SolverFailure, match="not CPTP") as err:
        se.postprocessed_improvement_lower(ch.hadamard(), cfg_half())
    assert err.value.status == "numerical_failure"
    assert cli.main(["measure-post", "--channel", "hadamard"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert json.loads(line)["exit_code"] == 3


def test_postprocessed_never_falls_with_more_restarts(rng, monkeypatch):
    # the starts for more restarts extend those for fewer, chain for chain
    short, long = se._mio_starts(2, 2, 3, 2), se._mio_starts(2, 2, 3, 8)
    assert len(short) == 3 and len(long) == 9
    for a, b in zip(short, long):
        assert np.array_equal(a.choi, b.choi)
    theta = ch.random_channel(2, 2, rng)
    cfg = ms.GameConfig(0.6, PHI)
    values = []
    for restarts in range(1, 9):
        monkeypatch.setattr(se, "MIO_RESTARTS", restarts)
        values.append(se.postprocessed_improvement_lower(theta, cfg, rng_seed=3))
    assert all(lo <= hi for lo, hi in zip(values, values[1:]))


def test_postprocessed_starts_are_cached_and_read_only(rng):
    theta = ch.random_channel(2, 2, rng)
    values = [se.postprocessed_improvement_lower(theta, cfg_half(), rng_seed=k)
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
    qutrit_phases = ms.GameConfig(0.5, np.array([0.0, 1.0, 2.0]))
    with pytest.raises(DimensionMismatch, match="game expects dim 3"):
        se.monte_carlo_game(theta, ch.identity_channel(2), rho, povm, qutrit_phases, 10, 1)


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
    # a budget of 20 programs splits the 66 solved programs into four runs
    budget = 20 * sd.stack_footprint(4, 5)
    monkeypatch.setattr(sd, "STACK_BYTES", budget)
    rows = se.mixture_sweep(lambdas, p1_grid, PHI)
    assert len(runs) >= 2 and max(runs) * sd.stack_footprint(4, 5) <= budget
    assert [(lam, p1) for lam, p1, _ in rows] == [(lam, p1) for lam in lambdas
                                                  for p1 in p1_grid]
    for lam, p1, value in rows:
        theta, cfg = ch.hadamard_mixture(p1), ms.GameConfig(lam, PHI)
        if mode == "auto":
            expected = sd.preprocessed_improvement(theta, cfg).value
        else:
            expected = max(full_sign_enumeration(theta, cfg)[1]) - cfg.prior_gap
        assert value == pytest.approx(expected, abs=1e-9)


def test_the_documented_sweep_matches_per_pair_evaluation_bit_for_bit(monkeypatch):
    # the README's 204-point grid takes two stacked runs of 177 programs,
    # and every row is the improvement of its pair evaluated alone, to the bit
    lambdas, p1s, phi = (0.5, 0.6, 0.75, 0.9), np.linspace(0.0, 1.0, 51), PHI
    runs = []
    original = sd.solve_stacked

    def recording(family, c, **kwargs):
        runs.append(len(c))
        return original(family, c, **kwargs)

    monkeypatch.setattr(sd, "solve_stacked", recording)
    rows = se.mixture_sweep(lambdas, p1s, phi)
    assert runs == [177, 177]
    monkeypatch.undo()
    assert len(rows) == 204
    for lam, p1, value in rows:
        _, (ev,) = sd.evaluate_pairs([(ch.hadamard_mixture(p1), ms.GameConfig(lam, phi))])
        assert value == ev.improvement


@pytest.mark.parametrize("runs", [1, 3])
def test_mixture_sweep_raises_on_a_failed_grid_point(runs, nan_at_fifth_pair, monkeypatch):
    # in one run, or in three, whose programs are ordered by ceilings that
    # the NaN objectives leave LAPACK unable to compute
    monkeypatch.setattr(sd, "STACK_BYTES", sd.STACK_BYTES if runs == 1
                        else 8 * sd.stack_footprint(4, 5))
    with pytest.raises(SolverFailure) as err:
        se.mixture_sweep([0.5, 0.9], np.linspace(0.0, 1.0, 6), PHI)
    assert err.value.status == "numerical_failure"

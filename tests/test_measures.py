import numpy as np
import pytest

from dyncoh import channels as ch
from dyncoh import linalg as la
from dyncoh import measures as ms
from dyncoh.errors import DimensionMismatch, ValidationError

SQRT3_HALF = np.sqrt(3.0) / 2.0


def cfg_half():
    return ms.GameConfig(0.5, np.array([2.0 * np.pi / 3.0, 0.0]))


def test_game_config_validation():
    with pytest.raises(ValidationError):
        ms.GameConfig(1.5, np.array([0.0, 1.0]))
    cfg = ms.GameConfig(0.25, np.array([1.0, 2.0]))
    assert cfg.mu == pytest.approx(0.75)
    assert cfg.lam + cfg.mu == pytest.approx(1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_game_config_rejects_non_finite_inputs(bad):
    with pytest.raises(ValidationError):
        ms.GameConfig(0.5, np.array([bad, 0.0]))
    with pytest.raises(ValidationError):
        ms.GameConfig(bad, np.array([1.0, 0.0]))


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("lam", [0.0, 0.3, 1.0])
def test_multipliers_match_the_channel_algebra(dim, lam, rng):
    # P multiplies like the phase channel, and W like lam id - mu Lambda_phi
    cfg = ms.GameConfig(lam, rng.uniform(0, 2 * np.pi, dim))
    phase = ch.phase_channel(cfg.phi)
    for _ in range(5):
        rho = la.random_density_matrix(dim, rng)
        assert la.max_abs(cfg.phase_factors * rho - ch.apply(phase, rho)) <= 1e-14
        reference = lam * ch.apply(ch.identity_channel(dim), rho) - cfg.mu * ch.apply(phase, rho)
        assert la.max_abs(cfg.signal_weights * rho - reference) <= 1e-14


def test_multipliers_are_read_only():
    cfg = cfg_half()
    for arr in (cfg.phi, cfg.phase_factors, cfg.signal_weights):
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        cfg.signal_weights[0, 0] = 0.0


def test_configs_compare_and_hash_by_value():
    # lam and the bytes of phi decide; the derived multipliers follow them
    cfg = ms.GameConfig(0.5, np.array([2.0, 0.0, 1.0]))
    same = ms.GameConfig(0.5, [2.0, 0.0, 1.0])
    assert cfg == same and hash(cfg) == hash(same)
    assert {cfg: "cached"}[same] == "cached"
    assert cfg != ms.GameConfig(0.5, np.array([2.0, 0.0, 1.5]))
    assert cfg != ms.GameConfig(0.6, np.array([2.0, 0.0, 1.0]))
    assert cfg != (0.5, [2.0, 0.0, 1.0])


def test_ceiling_of_a_qubit_game_is_closed_form(rng):
    # the hull of two phases lies at distance |cos(dphi / 2)| from 0
    for _ in range(200):
        lam, phi = rng.uniform(0, 1), rng.uniform(-10, 10, 2)
        expected = np.sqrt(1.0 - 4.0 * lam * (1.0 - lam) * np.cos((phi[0] - phi[1]) / 2) ** 2)
        assert ms.GameConfig(lam, phi).ceiling == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("lam", [0.0, 0.1, 0.3, 0.5, 0.75, 1.0])
def test_ceiling_of_one_phase_is_the_prior_gap_and_of_surrounding_phases_one(lam):
    assert ms.GameConfig(lam, [1.3]).ceiling == pytest.approx(abs(2.0 * lam - 1.0), abs=1e-15)
    for d in range(2, 7):
        assert ms.GameConfig(lam, 2.0 * np.pi * np.arange(d) / d).ceiling == 1.0


def test_ceiling_ignores_a_common_shift_the_order_and_a_swap_of_the_priors(rng):
    for d in range(1, 6):
        for _ in range(20):
            lam, phi = rng.uniform(0, 1), rng.uniform(0, 2 * np.pi, d) * rng.uniform(0.1, 1)
            ceiling = ms.GameConfig(lam, phi).ceiling
            assert ms.GameConfig(lam, rng.permutation(phi)).ceiling == ceiling
            assert ms.GameConfig(lam, phi + rng.uniform(-20, 20)).ceiling == pytest.approx(
                ceiling, abs=1e-12)
            assert ms.GameConfig(1.0 - lam, phi).ceiling == pytest.approx(ceiling, abs=1e-15)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_ceiling_bounds_every_pure_state_and_is_attained_past_a_half_circle(d, rng):
    for k in range(40):
        lam = rng.uniform(0, 1)
        # random phases, or phases clustered on an arc, which leave a gap
        # wider than pi and so a ceiling below 1
        spread = 2 * np.pi if k % 2 else rng.uniform(0, 1)
        cfg = ms.GameConfig(lam, rng.uniform(0, 1) * 7 + rng.uniform(0, spread, d))
        values = [la.trace_norm_hermitian(cfg.signal_weights * la.random_pure_state(d, rng))
                  for _ in range(20)]
        assert max(values) <= cfg.ceiling + 1e-12
        # the equal superposition of the two phases that bound the widest gap
        # (one basis state for a single phase) attains the ceiling
        phi = np.mod(cfg.phi, 2 * np.pi)
        order = np.argsort(phi)
        arcs = np.diff(phi[order], append=phi[order[0]] + 2 * np.pi)
        widest = int(np.argmax(arcs))
        if arcs[widest] > np.pi:
            v = np.zeros(d)
            v[[order[widest], order[(widest + 1) % d]]] = 1.0
            witness = la.trace_norm_hermitian(cfg.signal_weights * la.pure_state(v))
            assert witness == pytest.approx(cfg.ceiling, abs=1e-12)


def test_signal_weights_scale_incoherent_states(rng):
    cfg = ms.GameConfig(0.3, np.array([0.1, 2.2, 0.7]))
    sigma = np.diag(rng.dirichlet(np.ones(3))).astype(complex)
    assert np.allclose(cfg.signal_weights * sigma, (cfg.lam - cfg.mu) * sigma, atol=1e-12)


def test_signal_weights_trace_norm_on_plus_state():
    cfg = cfg_half()
    plus = np.full((2, 2), 0.5, dtype=complex)
    out = cfg.signal_weights * plus
    assert la.trace_norm_hermitian(out) == pytest.approx(SQRT3_HALF, abs=1e-12)


def test_game_value_detection_incoherent_is_prior_gap(rng):
    for lam in (0.2, 0.5, 0.8):
        cfg = ms.GameConfig(lam, np.array([2.0 * np.pi / 3.0, 0.0]))
        theta = ch.random_di(2, 2, rng)
        pre = ch.random_di(2, 2, rng)
        rho = la.random_density_matrix(2, rng)
        assert ms.game_value(theta, pre, rho, cfg) == pytest.approx(cfg.prior_gap, abs=1e-9)


def test_game_value_hadamard_with_optimal_phase():
    # input (|0> + e^{i xi}|1>)/sqrt(2) with the phase that maximizes the value
    cfg = cfg_half()
    xi = np.angle(1.0 - np.exp(2j * np.pi / 3.0))
    v = np.array([1.0, np.exp(1j * xi)]) / np.sqrt(2.0)
    rho = np.outer(v, v.conj())
    val = ms.game_value(ch.hadamard(), ch.identity_channel(2), rho, cfg)
    assert val == pytest.approx(SQRT3_HALF, abs=1e-12)


def test_game_value_lambda_one(rng):
    cfg = ms.GameConfig(1.0, np.array([1.0, 0.0]))
    theta = ch.random_channel(2, 2, rng)
    pre = ch.random_di(2, 2, rng)
    rho = la.random_density_matrix(2, rng)
    assert ms.game_value(theta, pre, rho, cfg) == pytest.approx(1.0, abs=1e-10)


def test_game_value_never_below_prior_gap(rng):
    for _ in range(100):
        lam = float(rng.uniform(0.0, 1.0))
        cfg = ms.GameConfig(lam, rng.uniform(0, 2 * np.pi, 2))
        theta = ch.random_channel(2, 2, rng)
        pre = ch.random_channel(2, 2, rng)  # any CPTP pre-processing works here
        rho = la.random_density_matrix(2, rng)
        assert ms.game_value(theta, pre, rho, cfg) >= cfg.prior_gap - 1e-9


def test_game_value_nullity_over_many_draws(rng):
    cfg = ms.GameConfig(0.7, np.array([2.0 * np.pi / 3.0, 0.0]))
    worst = 0.0
    for _ in range(200):
        theta = ch.random_di(2, 2, rng)
        pre = ch.random_di(2, 2, rng)
        rho = la.random_pure_state(2, rng)
        worst = max(worst, abs(ms.game_value(theta, pre, rho, cfg) - cfg.prior_gap))
    assert worst <= 1e-8


def test_helstrom_norm_examples(rng):
    cfg = cfg_half()
    rho = la.random_density_matrix(2, rng)
    assert ms.helstrom_norm(cfg, rho, rho) == pytest.approx(0.0, abs=1e-12)
    e0 = la.basis_proj(2, 0)
    e1 = la.basis_proj(2, 1)
    assert ms.helstrom_norm(cfg, e0, e1) == pytest.approx(1.0, abs=1e-12)
    plus = np.full((2, 2), 0.5, dtype=complex)
    rotated = ch.apply(ch.phase_channel(cfg.phi), plus)
    assert ms.helstrom_norm(cfg, plus, rotated) == pytest.approx(SQRT3_HALF, abs=1e-12)


def test_measurement_bias_equal_diagonals():
    cfg = cfg_half()
    s0 = np.array([[0.5, 0.2], [0.2, 0.5]], dtype=complex)
    s1 = np.array([[0.5, -0.1j], [0.1j, 0.5]], dtype=complex)
    assert ms.measurement_bias(cfg, s0, s1) == pytest.approx(0.0, abs=1e-12)


def test_measurement_bias_qubit_closed_form(rng):
    # for qubits: half the max of |lam - mu| and |tr(sigma_z (lam s0 - mu s1))|
    sz = np.diag([1.0, -1.0]).astype(complex)
    for _ in range(100):
        cfg = ms.GameConfig(float(rng.uniform(0, 1)), rng.uniform(0, 2 * np.pi, 2))
        s0 = la.random_density_matrix(2, rng)
        s1 = la.random_density_matrix(2, rng)
        diff = cfg.lam * s0 - cfg.mu * s1
        closed = 0.5 * max(cfg.prior_gap, abs(np.trace(sz @ diff).real))
        assert ms.measurement_bias(cfg, s0, s1) == pytest.approx(closed, abs=1e-12)


def test_optimal_povm_sign_cases():
    cfg = ms.GameConfig(0.9, np.array([1.0, 0.0]))
    s0 = np.diag([0.6, 0.4]).astype(complex)
    s1 = np.diag([0.5, 0.5]).astype(complex)
    povm = ms.optimal_incoherent_povm(cfg, s0, s1)  # all-positive difference
    assert np.allclose(povm.elements[0], np.eye(2))

    cfg_low = ms.GameConfig(0.1, np.array([1.0, 0.0]))
    povm = ms.optimal_incoherent_povm(cfg_low, s0, s1)  # all-negative difference
    assert np.allclose(povm.elements[0], np.zeros((2, 2)))

    cfg_half_ = ms.GameConfig(0.5, np.array([1.0, 0.0]))
    s0 = np.diag([0.8, 0.2]).astype(complex)
    s1 = np.diag([0.2, 0.8]).astype(complex)
    povm = ms.optimal_incoherent_povm(cfg_half_, s0, s1)  # mixed signs
    assert np.allclose(povm.elements[0], np.diag([1.0, 0.0]))


def test_measurement_functions_reject_states_of_different_shapes():
    cfg = cfg_half()
    qubit = la.basis_proj(2, 0)
    qutrit = la.basis_proj(3, 0)
    for measure in (ms.helstrom_norm, ms.measurement_bias, ms.optimal_incoherent_povm):
        with pytest.raises(DimensionMismatch):
            measure(cfg, qubit, qutrit)


def test_povm_validation():
    with pytest.raises(ValidationError):
        ms.IncoherentPovm((np.array([[0.5, 0.5], [0.5, 0.5]]), np.eye(2) * 0.5))
    with pytest.raises(ValidationError):
        ms.IncoherentPovm((np.diag([0.5, 0.5]), np.diag([0.4, 0.4])))


def test_success_probability():
    cfg = cfg_half()
    assert ms.success_probability(0.0, cfg) == pytest.approx(0.5)
    assert ms.success_probability(0.0, ms.GameConfig(0.9, np.array([1.0, 0.0]))) == pytest.approx(0.9)
    assert ms.success_probability(SQRT3_HALF, cfg) == pytest.approx(0.5 + np.sqrt(3) / 4)
    with pytest.raises(ValidationError):
        ms.success_probability(1.5, ms.GameConfig(0.9, np.array([1.0, 0.0])))
    with pytest.raises(ValidationError):
        ms.success_probability(-0.5, cfg)

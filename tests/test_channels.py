import json

import numpy as np
import pytest

from dyncoh import channels as ch
from dyncoh import linalg as la
from dyncoh.errors import ValidationError

from conftest import random_hermitian

H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


def test_from_kraus_identity_channel():
    ident = ch.from_kraus([np.eye(2)])
    # Choi is the unnormalized maximally entangled projector
    v = np.eye(2).reshape(-1)
    assert np.allclose(ident.choi, np.outer(v, v.conj()))


def test_from_kraus_dephasing():
    deph = ch.from_kraus([la.basis_proj(2, 0), la.basis_proj(2, 1)])
    assert la.max_abs(deph.choi - ch.dephasing(2).choi) <= 1e-12


def test_from_kraus_hadamard_action(rng):
    had = ch.from_kraus([H])
    rho = la.random_density_matrix(2, rng)
    # direct conjugation oracle
    assert np.allclose(ch.apply(had, rho), H @ rho @ H.conj().T, atol=1e-12)
    plus = ch.apply(had, la.basis_proj(2, 0))
    assert np.allclose(plus, np.full((2, 2), 0.5), atol=1e-12)


def test_from_kraus_rejects_incomplete_set():
    with pytest.raises(ValidationError):
        ch.from_kraus([0.5 * np.eye(2)])


def test_apply_dephasing_keeps_diagonal(rng):
    rho = random_hermitian(rng, 3)
    out = ch.apply(ch.dephasing(3), rho)
    assert np.allclose(out, np.diag(np.diagonal(rho)), atol=1e-12)


def test_phase_channel_fixes_diagonal_states():
    lam = ch.phase_channel(np.array([0.7, 1.9, -0.3]))
    sigma = np.diag([0.5, 0.3, 0.2]).astype(complex)
    assert np.allclose(ch.apply(lam, sigma), sigma, atol=1e-12)


def test_phase_channel_imprints_relative_phase():
    lam = ch.phase_channel(np.array([2.0 * np.pi / 3.0, 0.0]))
    plus = np.full((2, 2), 0.5, dtype=complex)
    out = ch.apply(lam, plus)
    assert out[0, 1] == pytest.approx(0.5 * np.exp(2j * np.pi / 3.0), abs=1e-12)
    assert out[1, 0] == pytest.approx(0.5 * np.exp(-2j * np.pi / 3.0), abs=1e-12)
    assert np.allclose(np.diagonal(out), [0.5, 0.5])


def test_phase_channel_global_phase_is_irrelevant(rng):
    phi = rng.uniform(0.0, 2.0 * np.pi, 3)
    a = ch.phase_channel(phi)
    b = ch.phase_channel(phi + 1.234)
    assert la.max_abs(a.choi - b.choi) <= 1e-12


def test_phase_channel_constant_vector_is_identity():
    lam = ch.phase_channel(np.array([0.42, 0.42, 0.42, 0.42]))
    assert la.max_abs(lam.choi - ch.identity_channel(4).choi) <= 1e-12


def test_phase_channel_pi_zero_is_pauli_z(rng):
    lam = ch.phase_channel(np.array([np.pi, 0.0]))
    z = np.diag([-1.0, 1.0]).astype(complex)
    rho = la.random_density_matrix(2, rng)
    assert np.allclose(ch.apply(lam, rho), z @ rho @ z.conj().T, atol=1e-12)


def test_compose_dephasing_idempotent():
    deph = ch.dephasing(3)
    assert la.max_abs(ch.compose(deph, deph).choi - deph.choi) <= 1e-12


def test_compose_dephasing_absorbs_phases(rng):
    deph = ch.dephasing(2)
    lam = ch.phase_channel(rng.uniform(0, 2 * np.pi, 2))
    combo = ch.compose(deph, lam)
    for _ in range(20):
        rho = la.random_density_matrix(2, rng)
        assert np.allclose(ch.apply(combo, rho), ch.apply(deph, rho), atol=1e-12)


def test_compose_hadamard_twice_is_identity():
    had = ch.hadamard()
    assert la.max_abs(ch.compose(had, had).choi - ch.identity_channel(2).choi) <= 1e-12


def test_tensor_identities(rng):
    t = ch.tensor(ch.identity_channel(2), ch.identity_channel(3))
    assert la.max_abs(t.choi - ch.identity_channel(6).choi) <= 1e-12


def test_tensor_dephasing_on_bell_state():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0 / np.sqrt(2.0)
    bell = np.outer(v, v.conj())
    t = ch.tensor(ch.dephasing(2), ch.identity_channel(2))
    out = ch.apply(t, bell)
    expected = 0.5 * np.diag([1.0, 0.0, 0.0, 1.0]).astype(complex)
    assert np.allclose(out, expected, atol=1e-12)


def test_tensor_factorizes_on_products(rng):
    theta = ch.random_channel(2, 2, rng)
    rho = la.random_density_matrix(2, rng)
    sigma = la.random_density_matrix(3, rng)
    t = ch.tensor(theta, ch.identity_channel(3))
    lhs = ch.apply(t, la.kron(rho, sigma))
    rhs = la.kron(ch.apply(theta, rho), sigma)
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_index_coeffs_identity_and_dephasing():
    c_id = ch.index_coeffs(ch.identity_channel(2))
    for i in range(2):
        for j in range(2):
            expected = np.zeros((2, 2))
            expected[i, j] = 1.0
            assert np.allclose(c_id[i, j], expected)
    c_deph = ch.index_coeffs(ch.dephasing(2))
    assert np.allclose(c_deph[0, 1], 0.0)
    assert np.allclose(c_deph[0, 0], np.diag([1.0, 0.0]))


def test_index_coeffs_hadamard_entry():
    # <0| H |0><1| H^dag |0> = H00 * conj(H01) = 1/2
    c = ch.index_coeffs(ch.hadamard())
    assert c[0, 1, 0, 0] == pytest.approx(0.5, abs=1e-12)


def test_dephasing_plus_complement_is_identity():
    deph = ch.dephasing(3)
    comp = ch.complementary_dephasing(3)
    assert la.max_abs(deph.choi + comp.choi - ch.identity_channel(3).choi) <= 1e-12
    assert comp.hermiticity_preserving
    assert not comp.completely_positive
    assert not comp.trace_preserving


def test_complementary_dephasing_zero_diagonal(rng):
    comp = ch.complementary_dephasing(3)
    rho = la.random_density_matrix(3, rng)
    out = ch.apply(comp, rho)
    assert la.max_abs(np.diagonal(out)) <= 1e-12


def test_is_cptp_examples():
    assert ch.is_cptp(ch.dephasing(2))
    assert not ch.is_cptp(ch.complementary_dephasing(2))
    halved = ch.linear_map_from_choi(0.5 * ch.dephasing(2).choi, 2, 2)
    assert not ch.is_cptp(halved)


def test_detection_incoherent_examples(rng):
    assert ch.is_detection_incoherent(ch.identity_channel(3))
    assert not ch.is_detection_incoherent(ch.hadamard())
    for _ in range(10):
        xi = ch.random_channel(3, 2, rng)
        assert ch.is_detection_incoherent(ch.compose(xi, ch.dephasing(3)))


def test_mio_examples(rng):
    assert ch.is_mio(ch.identity_channel(3))
    assert not ch.is_mio(ch.hadamard())
    for _ in range(10):
        xi = ch.random_channel(2, 3, rng)
        assert ch.is_mio(ch.compose(ch.dephasing(3), xi))


def test_membership_requires_cptp():
    with pytest.raises(ValidationError):
        ch.is_detection_incoherent(ch.complementary_dephasing(2))
    with pytest.raises(ValidationError):
        ch.is_mio(ch.complementary_dephasing(2))


def test_small_resourceful_mixture_is_caught():
    weak = ch.mixture([ch.hadamard(), ch.identity_channel(2)], [1e-3, 1.0 - 1e-3])
    assert not ch.is_detection_incoherent(weak)
    assert not ch.is_mio(weak)


def test_standard_channels():
    endpoint = ch.mixture([ch.hadamard(), ch.identity_channel(2)], [0.0, 1.0])
    assert la.max_abs(endpoint.choi - ch.identity_channel(2).choi) <= 1e-12
    assert la.max_abs(ch.qft(2).choi - ch.hadamard().choi) <= 1e-12


def test_swap_channel_exchanges_factors(rng):
    rho = la.random_density_matrix(2, rng)
    sigma = la.random_density_matrix(2, rng)
    swap = ch.swap_channel(2, 2)
    assert np.allclose(ch.apply(swap, la.kron(rho, sigma)), la.kron(sigma, rho), atol=1e-11)
    assert ch.is_detection_incoherent(swap)
    assert ch.is_mio(swap)


def test_unitary_channel_rejects_non_unitary():
    with pytest.raises(ValidationError):
        ch.unitary_channel(np.array([[1.0, 0.0], [0.0, 2.0]], dtype=complex))


def test_mixture_rejects_bad_probabilities():
    with pytest.raises(ValidationError):
        ch.mixture([ch.hadamard(), ch.identity_channel(2)], [0.7, 0.7])
    with pytest.raises(ValidationError, match="NaN or Inf"):
        ch.mixture([ch.hadamard(), ch.identity_channel(2)], [float("nan"), float("nan")])


def test_random_generators_pass_membership(rng):
    for _ in range(20):
        din = int(rng.integers(2, 4))
        dout = int(rng.integers(2, 4))
        assert ch.is_detection_incoherent(ch.random_di(din, dout, rng))
        assert ch.is_mio(ch.random_mio(din, dout, rng))
        assert ch.is_cptp(ch.random_channel(din, dout, rng), 1e-8)


def test_json_roundtrip(tmp_path, rng):
    theta = ch.random_channel(3, 2, rng)
    path = tmp_path / "channel.json"
    ch.save_channel(theta, path)
    with open(path) as f:
        data = json.load(f)
    assert data["dim_in"] == 3 and data["dim_out"] == 2
    back = ch.load_channel(path)
    assert la.max_abs(back.choi - theta.choi) <= 1e-8


def test_uri_resolution():
    assert la.max_abs(ch.from_uri("hadamard").choi - ch.hadamard().choi) <= 1e-12
    assert la.max_abs(ch.from_uri("qft:2").choi - ch.hadamard().choi) <= 1e-12
    assert ch.from_uri("swap:2:3").dim_in == 6
    mixed = ch.from_uri("mix:hadamard:0.25")
    expected = ch.mixture([ch.hadamard(), ch.identity_channel(2)], [0.25, 0.75])
    assert la.max_abs(mixed.choi - expected.choi) <= 1e-12
    with pytest.raises(ValidationError):
        ch.from_uri("teleporter:9000")


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_channel_from_dict_rejects_non_finite_entries(bad):
    data = ch.channel_to_dict(ch.hadamard())
    data["kraus"][0][0][0] = [bad, 0.0]
    with pytest.raises(ValidationError, match="NaN or Inf"):
        ch.channel_from_dict(data)

import json
import warnings

import numpy as np
import pytest

from dyncoh import channels as ch
from dyncoh import linalg as la
from dyncoh import verify
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


def _from_kraus_loop(ops):
    """Completeness sum and Choi matrix, one Kraus operator at a time."""
    dim_out, dim_in = ops[0].shape
    comp = sum(k.conj().T @ k for k in ops)
    choi = np.zeros((dim_out * dim_in,) * 2, dtype=complex)
    for k in ops:
        v = k.reshape(-1)
        choi += np.outer(v, v.conj())
    return comp, choi


@pytest.mark.parametrize("dims", [(1, 1), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_from_kraus_matches_the_loop_reference(dims, rng):
    din, dout = dims
    for _ in range(10):
        ops = ch.to_kraus(ch.random_channel(din, dout, rng))
        ops = [np.asarray(k) for k in ops] + [np.zeros((dout, din))]  # a null operator too
        comp, choi = _from_kraus_loop(ops)
        assert la.max_abs(comp - np.eye(din)) <= 1e-9
        assert la.max_abs(ch.from_kraus(ops).choi - choi) <= 1e-15


@pytest.mark.parametrize("ops", [
    [0.5 * np.eye(2)],
    [np.array([[1e308, 0.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [0.0, 1.0]])],  # sum is inf
    [np.array([[1e308, 1e308j], [1e308, -1e308]]), np.eye(2)],  # and NaN
])
def test_from_kraus_rejects_incomplete_and_overflowing_sets_without_warnings(ops):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="incomplete Kraus set"):
            ch.from_kraus(ops)


def test_constant_channels_are_cached_and_read_only():
    for make, args in ((ch.identity_channel, (3,)), (ch.dephasing, (2,)), (ch.hadamard, ())):
        first = make(*args)
        assert make(*args) is first
        assert not first.choi.flags.writeable
        with pytest.raises(ValueError):
            first.choi[0, 0] = 0.0
    assert ch.identity_channel(2) is not ch.identity_channel(3)


def test_cptp_flags_of_a_stack_match_each_matrix(rng):
    base = ch.random_channel(2, 3, rng).choi
    skew = base.copy()
    skew[0, 1] += 1e-3
    nan = base.copy()
    nan[2, 2] = np.nan
    shifted = base - (np.linalg.eigvalsh(base)[0] + 2e-6) * np.eye(6)  # not CP, not TP
    stack = np.stack([base, 0.5 * base, shifted, skew, nan])
    herm, cp, tp = ch._cptp_flags(stack, 2, 3, 1e-6)
    singles = [ch._cptp_flags(m, 2, 3, 1e-6) for m in stack]
    assert [tuple(map(bool, f)) for f in zip(herm, cp, tp)] == singles
    assert singles == [(True, True, True), (True, True, False), (True, False, False),
                       (False, False, False), (False, False, False)]


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
    lhs = ch.apply(t, np.kron(rho, sigma))
    rhs = np.kron(ch.apply(theta, rho), sigma)
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


def _loosely_cp_dephasing():
    """A qubit Channel that is CP only within 1e-6: the dephasing Choi
    matrix with a coherence between two of its zero diagonal slots, which
    keeps it Hermitian and trace preserving but gives it the eigenvalue
    -1e-7."""
    j = np.array(ch.dephasing(2).choi)
    j[1, 2] = j[2, 1] = 1e-7
    return ch.channel_from_choi(j, 2, 2, atol=1e-6)


def test_is_cptp_examples():
    assert ch.is_cptp(ch.dephasing(2))
    loose = _loosely_cp_dephasing()
    assert isinstance(loose, ch.Channel)
    assert ch.is_cptp(loose, atol=1e-6)
    assert not ch.is_cptp(loose)
    for not_cptp in (0.5 * ch.dephasing(2).choi,  # not trace preserving
                     ch.identity_channel(2).choi - ch.dephasing(2).choi):  # not CP
        with pytest.raises(ValidationError, match="not CPTP"):
            ch.channel_from_choi(not_cptp, 2, 2)


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


def _violating_dephasing(kind, size):
    """The qubit dephasing Choi matrix with a DI (``kind`` "di") or MIO
    violation of exactly ``size``, kept Hermitian and trace preserving; CP
    within ``size ** 2``."""
    j = np.array(ch.dephasing(2).choi)
    if kind == "di":  # coeff[0,1,0,0] = size = -coeff[0,1,1,1], and their adjoints
        j[0, 1] = j[1, 0] = size
        j[2, 3] = j[3, 2] = -size
    else:  # coeff[0,0,0,1] = size, and its adjoint
        j[0, 2] = j[2, 0] = size
    return ch.channel_from_choi(j, 2, 2)


def test_membership_agrees_with_the_composition_identities(rng):
    maps = []
    for din, dout in ((2, 2), (2, 3), (3, 2), (3, 3)):
        maps += [ch.random_channel(din, dout, rng), ch.random_di(din, dout, rng),
                 ch.random_mio(din, dout, rng)]
    maps += [ch.mixture([ch.hadamard(), ch.identity_channel(2)], [w, 1.0 - w])
             for w in (0.0, 1e-9, 1e-3)]
    maps += [ch.swap_channel(2, 2), ch.qft(3)]
    atol = ch.MEMBERSHIP_ATOL
    past = np.nextafter(atol, 1.0)
    for kind, at, beyond in (("di", (True, True), (False, True)),
                             ("mio", (True, True), (True, False))):
        for size, expected in ((atol, at), (past, beyond)):
            m = _violating_dephasing(kind, size)
            assert ch.is_cptp(m)
            assert (ch.is_detection_incoherent(m), ch.is_mio(m)) == expected
            maps.append(m)
    for m in maps:
        assert (ch.is_detection_incoherent(m), ch.is_mio(m)) == verify._direct_membership(m)


def test_membership_requires_cptp():
    # a Channel that is CP only within 1e-6 fails the membership tolerance
    with pytest.raises(ValidationError, match="requires a CPTP input"):
        ch.is_detection_incoherent(_loosely_cp_dephasing())
    with pytest.raises(ValidationError, match="requires a CPTP input"):
        ch.is_mio(_loosely_cp_dephasing())


def test_small_resourceful_mixture_is_caught():
    weak = ch.mixture([ch.hadamard(), ch.identity_channel(2)], [1e-3, 1.0 - 1e-3])
    assert not ch.is_detection_incoherent(weak)
    assert not ch.is_mio(weak)


def test_standard_channels():
    endpoint = ch.mixture([ch.hadamard(), ch.identity_channel(2)], [0.0, 1.0])
    assert la.max_abs(endpoint.choi - ch.identity_channel(2).choi) <= 1e-12
    assert la.max_abs(ch.qft(2).choi - ch.hadamard().choi) <= 1e-12


@pytest.mark.parametrize("dim", [0, -1])
def test_qft_rejects_a_dimension_below_one(dim):
    # refused before the square root of dim is taken: no numpy warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValidationError):
            ch.qft(dim)
    assert [str(w.message) for w in caught] == []


def test_swap_channel_exchanges_factors(rng):
    rho = la.random_density_matrix(2, rng)
    sigma = la.random_density_matrix(2, rng)
    swap = ch.swap_channel(2, 2)
    assert np.allclose(ch.apply(swap, np.kron(rho, sigma)), np.kron(sigma, rho), atol=1e-11)
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


def _random_free_reference(free_class, dim_in, dim_out, rng):
    """One draw of a random free channel, composed from the public maps."""
    xi = ch.random_channel(dim_in, dim_out, rng)
    if free_class == "di":
        base = ch.compose(xi, ch.dephasing(dim_in))
    else:
        base = ch.compose(ch.dephasing(dim_out), xi)
    if dim_in != dim_out:
        return base
    extra = [ch.permutation_phase_channel(dim_in, rng) for _ in range(2)]
    return ch.mixture([base] + extra, rng.dirichlet(np.ones(3)))


@pytest.mark.parametrize("free_class", ["di", "mio"])
@pytest.mark.parametrize("dims", [(1, 1), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_random_free_channels_match_successive_composed_draws(free_class, dims):
    stack = ch.random_free_channels(free_class, *dims, np.random.default_rng(8), 4)
    rng = np.random.default_rng(8)
    for got in stack:
        want = _random_free_reference(free_class, *dims, rng)
        assert (got.dim_in, got.dim_out) == dims
        assert la.max_abs(got.choi - want.choi) <= 1e-15
    # one generator call is a stack of one, in the same draw order
    single = ch.random_di if free_class == "di" else ch.random_mio
    rng = np.random.default_rng(8)
    for got in stack:
        assert np.array_equal(single(*dims, rng).choi, got.choi)
    assert ch.random_free_channels(free_class, *dims, rng, 0) == []
    with pytest.raises(ValidationError, match="free class"):
        ch.random_free_channels(free_class.upper(), *dims, rng, 1)


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

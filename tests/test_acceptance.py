"""Acceptance criteria at their stated tolerances.

Each test covers one numbered criterion and prints one PASS line with the
measured quantities (visible with ``pytest -s`` or on failure).  Sample
counts and tolerances are pinned here, not configurable.
"""

import numpy as np
import pytest

from dyncoh import channels as ch
from dyncoh import linalg as la
from dyncoh import measures as ms
from dyncoh import search as se
from dyncoh import sdp as sd

SQRT3_HALF = np.sqrt(3.0) / 2.0
PHI = np.array([2.0 * np.pi / 3.0, 0.0])


def cfg_half():
    return ms.GameConfig(0.5, PHI)


def test_criterion_01_nullity_on_free_channels():
    rng = np.random.default_rng(101)
    lams = [0.3, 0.5, 0.75, 0.9]
    worst_pre = 0.0
    for k in range(50):
        theta = ch.random_di(2, 2, rng)
        cfg = ms.GameConfig(lams[k % 4], PHI)
        rep = sd.preprocessed_improvement(theta, cfg, extract=False)
        worst_pre = max(worst_pre, abs(rep.value))
    assert worst_pre <= 1e-6

    worst_post = -np.inf
    budget = se.SearchBudget(refinement_iterations=30, rng_seed=11)
    for k in range(50):
        theta = ch.random_mio(2, 2, rng)
        cfg = ms.GameConfig(lams[k % 4], PHI)
        val = se.postprocessed_improvement_lower(theta, cfg, budget, restarts=2)
        worst_post = max(worst_post, val)
        assert val <= 1e-6
    print(f"PASS criterion 1: max |M| over 50 DI channels {worst_pre:.2e}, "
          f"max post-processed bound over 50 MIO channels {worst_post:.2e}")


def test_criterion_02_hadamard_preprocessed_value():
    rep = sd.preprocessed_improvement(ch.hadamard(), cfg_half())
    # analytic oracle: |1 - e^{i 2 pi / 3}| / 2 = sqrt(3)/2
    assert rep.value == pytest.approx(SQRT3_HALF, abs=1e-4)
    # upper side: the SDP optimum cannot exceed the analytic value
    assert rep.trace_norm <= SQRT3_HALF + 1e-6
    # lower side: the extracted pair achieves the reported value
    achieved = ms.game_value(ch.hadamard(), rep.phi_opt, rep.rho_opt, cfg_half())
    assert achieved >= SQRT3_HALF - 1e-4
    assert rep.verification_residual <= 1e-6
    print(f"PASS criterion 2: M = {rep.value:.10f} (target {SQRT3_HALF:.10f}), "
          f"achieved by extracted pair {achieved:.10f}")


def test_criterion_03_hadamard_postprocessed_bound():
    val = se.postprocessed_improvement_lower(
        ch.hadamard(), cfg_half(), se.SearchBudget(rng_seed=5), restarts=8
    )
    assert SQRT3_HALF - 1e-4 <= val <= SQRT3_HALF + 1e-6
    print(f"PASS criterion 3: post-processed lower bound {val:.10f} "
          f"within [sqrt(3)/2 - 1e-4, sqrt(3)/2 + 1e-6]")


def test_criterion_04_monotonicity_suite():
    rng = np.random.default_rng(404)
    worst = -np.inf
    for k in range(100):
        theta = ch.random_channel(2, 2, rng)
        free = ch.random_di(2, 2, rng)
        lam = [0.5, 0.7, 0.35][k % 3]
        cfg = ms.GameConfig(lam, PHI)
        base = sd.preprocessed_improvement(theta, cfg, extract=False).value
        left = sd.preprocessed_improvement(ch.compose(free, theta), cfg,
                                           extract=False).value
        right = sd.preprocessed_improvement(ch.compose(theta, free), cfg,
                                            extract=False).value
        worst = max(worst, left - base, right - base)
        assert left <= base + 1e-5
        assert right <= base + 1e-5
    print(f"PASS criterion 4: max monotonicity violation {worst:.2e} over "
          f"100 pairs (tolerance 1e-5)")


def test_criterion_05_tensor_and_auxiliary_invariance():
    rng = np.random.default_rng(505)
    phi_aux = np.array([2.0 * np.pi / 3.0, 2.0 * np.pi / 3.0, 0.0, 0.0])
    worst = 0.0
    for _ in range(5):
        theta = ch.random_channel(2, 2, rng)
        base = sd.preprocessed_improvement(theta, cfg_half(), extract=False).value
        widened = ch.tensor(theta, ch.identity_channel(2))
        tens = sd.preprocessed_improvement(widened, cfg_half(), extract=False).value
        aux = sd.preprocessed_improvement(
            theta, ms.GameConfig(0.5, phi_aux), extract=False
        ).value
        worst = max(worst, abs(tens - base), abs(aux - base))
        assert abs(tens - base) <= 1e-4
        assert abs(aux - base) <= 1e-4
    print(f"PASS criterion 5: max tensor/auxiliary deviation {worst:.2e} "
          f"(tolerance 1e-4)")


def test_criterion_06_faithfulness_dichotomy_sweep():
    p1_grid = np.round(np.arange(0.02, 1.0001, 0.02), 10)
    rows = se.mixture_sweep((0.5, 0.9), p1_grid, PHI)
    values = {lam: np.array([value for row_lam, _, value in rows if row_lam == lam])
              for lam in (0.5, 0.9)}
    assert np.all(values[0.5] > 1e-6)
    flat = (p1_grid >= 0.05) & (values[0.9] <= 1e-7)
    assert np.any(flat)
    assert values[0.9][-1] > 1e-3
    slopes = np.diff(values[0.9]) / np.diff(p1_grid)
    jump = any(
        abs(slopes[i + 1]) > 10.0 * abs(slopes[i]) and abs(slopes[i + 1]) > 1e-3
        for i in range(len(slopes) - 1)
    )
    assert jump, "no gradient discontinuity found on the biased-prior curve"
    print(f"PASS criterion 6: min M at lam=0.5 is {values[0.5].min():.2e} > 1e-6; "
          f"lam=0.9 flat region has {int(np.sum(flat))} points, "
          f"M(p1=1) = {values[0.9][-1]:.4f}, gradient kink present")


def test_criterion_07_extraction_roundtrip():
    rng = np.random.default_rng(707)
    worst_residual = 0.0
    for _ in range(50):
        theta = ch.random_channel(2, 2, rng)
        cfg = ms.GameConfig(float(rng.choice([0.35, 0.5, 0.8])),
                            rng.uniform(0.0, 2.0 * np.pi, 2))
        rep = sd.preprocessed_improvement(theta, cfg)
        worst_residual = max(worst_residual, rep.verification_residual)
        assert rep.verification_residual <= 1e-5
        assert ch.is_detection_incoherent(rep.phi_opt, 1e-7)
    for _ in range(10):
        theta = ch.random_channel(3, 2, rng)
        cfg = ms.GameConfig(0.5, rng.uniform(0.0, 2.0 * np.pi, 3))
        rep = sd.preprocessed_improvement(theta, cfg)
        worst_residual = max(worst_residual, rep.verification_residual)
        assert rep.verification_residual <= 1e-5
        assert ch.is_detection_incoherent(rep.phi_opt, 1e-7)
    print(f"PASS criterion 7: max round-trip residual {worst_residual:.2e} over "
          f"50 qubit and 10 qutrit-input channels (tolerance 1e-5)")


def test_criterion_08_oracle_pincer():
    rng = np.random.default_rng(808)
    lo, hi = np.inf, -np.inf
    for k in range(20):
        theta = ch.random_channel(2, 2, rng)
        cfg = cfg_half()
        exact = sd.preprocessed_improvement(theta, cfg, extract=False).trace_norm
        lower = se.brute_force_game_value(
            theta, cfg, se.SearchBudget(random_samples=10000, rng_seed=k)
        )
        gap = exact - lower
        lo, hi = min(lo, gap), max(hi, gap)
        assert lower >= exact - 5e-3
        assert lower <= exact + 1e-6
    print(f"PASS criterion 8: sdp-minus-sampled gap within [{lo:.2e}, {hi:.2e}] "
          f"on 20 random qubit channels")


def _optimal_instance(theta, cfg):
    rep = sd.preprocessed_improvement(theta, cfg)
    s0 = ch.apply(theta, ch.apply(rep.phi_opt, rep.rho_opt))
    s1 = ch.apply(theta, ch.apply(rep.phi_opt,
                                  ch.apply(ch.phase_channel(cfg.phi), rep.rho_opt)))
    povm = ms.optimal_incoherent_povm(cfg, s0, s1)
    return rep, povm


def test_criterion_09_guessing_game_consistency():
    cfg = cfg_half()
    zs = []
    for theta, seed in ((ch.hadamard(), 909), (ch.random_channel(2, 2, np.random.default_rng(99)), 910)):
        rep, povm = _optimal_instance(theta, cfg)
        tr = se.monte_carlo_game(theta, rep.phi_opt, rep.rho_opt, povm, cfg, 100000, seed)
        target = 0.5 + 0.5 * (rep.value + cfg.prior_gap)
        assert tr.predicted_rate == pytest.approx(target, abs=1e-6)
        assert abs(tr.z_score) <= 3.0
        zs.append(tr.z_score)
    print(f"PASS criterion 9: z-scores {zs[0]:.2f} (Hadamard) and {zs[1]:.2f} "
          f"(random channel) at 1e5 trials")


def test_criterion_10_swap_counterexample():
    before, after = se.swap_monotonicity_counterexample()
    assert before <= 1e-6
    assert after >= 0.99

    detector = ch.tensor(ch.hadamard(), ch.identity_channel(2))
    cfg = ms.GameConfig(0.5, np.array([np.pi, 0.0, np.pi, 0.0]))
    base = sd.preprocessed_improvement(detector, cfg, extract=False).value
    swapped = ch.compose(detector, ch.swap_channel(2, 2))
    after_swap = sd.preprocessed_improvement(swapped, cfg, extract=False).value
    assert abs(after_swap - base) <= 1e-5
    print(f"PASS criterion 10: no-pre-processing value {before:.2e} -> {after:.4f} "
          f"under free SWAP, while the pre-processed value moves {abs(after_swap - base):.2e}")


def test_criterion_11_coefficient_identities_and_membership():
    rng = np.random.default_rng(1111)
    worst = 0.0
    for _ in range(1000):
        din = int(rng.integers(2, 4))
        dout = int(rng.integers(2, 4))
        theta = ch.random_channel(din, dout, rng)
        worst = max(worst, max(ch.coefficient_identity_residuals(ch.index_coeffs(theta))))
        assert ch.is_cptp(theta, 1e-8)
    assert worst <= 1e-9

    def direct_di(theta, atol=1e-8):
        deph_out = ch.dephasing(theta.dim_out)
        lhs = ch.compose(deph_out, theta)
        rhs = ch.compose(lhs, ch.dephasing(theta.dim_in))
        return la.max_abs(lhs.choi - rhs.choi) <= atol

    def direct_mio(theta, atol=1e-8):
        deph_out = ch.dephasing(theta.dim_out)
        deph_in = ch.dephasing(theta.dim_in)
        lhs = ch.compose(theta, deph_in)
        rhs = ch.compose(ch.compose(deph_out, theta), deph_in)
        return la.max_abs(lhs.choi - rhs.choi) <= atol

    agree = 0
    for k in range(300):
        din = int(rng.integers(2, 4))
        dout = int(rng.integers(2, 4))
        maker = (ch.random_di, ch.random_mio, ch.random_channel)[k % 3]
        theta = maker(din, dout, rng)
        assert ch.is_detection_incoherent(theta) == direct_di(theta)
        assert ch.is_mio(theta) == direct_mio(theta)
        agree += 1
    print(f"PASS criterion 11: max coefficient-identity residual {worst:.2e} over "
          f"1000 channels; membership agreement on {agree}/300 channels")

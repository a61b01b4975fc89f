"""Acceptance criteria at their stated tolerances.

Criteria 6, 7 and 9 are tested here.  Every other criterion is a property
that `dyncoh.verify` implements once, as a check: ``CRITERIA`` maps each to
its check(s) and pinned seed (the checks of one criterion draw from one
generator), and `test_verify_check` runs the remaining checks at seed 0, so
each entry of ``verify.CHECKS`` runs once per test run.  Each test prints
one PASS line per check or criterion (visible with ``pytest -s`` or on
failure).  Sample counts and tolerances are pinned, not configurable.
"""

import numpy as np
import pytest

from dyncoh import channels as ch
from dyncoh import measures as ms
from dyncoh import search as se
from dyncoh import sdp as sd
from dyncoh import verify

PHI = np.array([2.0 * np.pi / 3.0, 0.0])
CHECKS = dict(verify.CHECKS)

# test name: (seed, checks); the seed is 0 where the checks draw nothing
CRITERIA = {
    "test_criterion_01_nullity_on_free_channels":
        (101, ("nullity_detection_incoherent", "nullity_creation_incoherent")),
    "test_criterion_02_hadamard_preprocessed_value": (0, ("hadamard_preprocessed_value",)),
    "test_criterion_03_hadamard_postprocessed_bound": (0, ("hadamard_postprocessed_bound",)),
    "test_criterion_04_monotonicity_suite": (404, ("monotonicity_under_free_composition",)),
    "test_criterion_05_tensor_and_auxiliary_invariance":
        (505, ("tensor_and_auxiliary_invariance",)),
    "test_criterion_08_oracle_pincer": (808, ("sampled_oracle_pincer",)),
    "test_criterion_10_swap_counterexample": (0, ("swap_counterexample",)),
    "test_criterion_11_coefficient_identities_and_membership":
        (1111, ("channel_coefficient_identities", "membership_matches_direct_composition")),
}
CRITERION_CHECKS = [name for _, names in CRITERIA.values() for name in names]


def run_checks(seed, names):
    rng = np.random.default_rng(seed)
    for name in names:
        passed, detail = CHECKS[name](rng)
        print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
        assert passed, f"{name}: {detail}"


def _criterion_test(seed, names):
    def test():
        run_checks(seed, names)
    return test


for _name, (_seed, _names) in CRITERIA.items():
    globals()[_name] = _criterion_test(_seed, _names)


@pytest.mark.parametrize("name", [n for n in CHECKS if n not in CRITERION_CHECKS])
def test_verify_check(name):
    run_checks(0, (name,))


def test_every_check_runs_once():
    assert len(CHECKS) == len(verify.CHECKS)
    assert len(set(CRITERION_CHECKS)) == len(CRITERION_CHECKS)
    assert set(CRITERION_CHECKS) <= set(CHECKS)


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


def test_criterion_09_guessing_game_consistency():
    cfg = ms.GameConfig(0.5, PHI)
    zs = []
    for theta, seed in ((ch.hadamard(), 909), (ch.random_channel(2, 2, np.random.default_rng(99)), 910)):
        rep = sd.preprocessed_improvement(theta, cfg)
        _, _, povm = se.optimal_game_instance(theta, rep)
        tr = se.monte_carlo_game(theta, rep.phi_opt, rep.rho_opt, povm, cfg, 100000, seed)
        target = 0.5 + 0.5 * (rep.value + cfg.prior_gap)
        assert tr.predicted_rate == pytest.approx(target, abs=1e-6)
        assert abs(tr.z_score) <= 3.0
        zs.append(tr.z_score)
    print(f"PASS criterion 9: z-scores {zs[0]:.2f} (Hadamard) and {zs[1]:.2f} "
          f"(random channel) at 1e5 trials")

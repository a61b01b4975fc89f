"""The invariant suite behind ``dyncoh verify`` and the acceptance tests.

Each check re-derives a documented property from scratch (direct Choi
comparisons, sampled inequalities, round trips) at one fixed size, and is
the only implementation of that property.  A check takes a numpy
``Generator`` and returns ``(passed, detail)``.  Checks that evaluate many
channels solve all their sign programs in one `sdp.evaluate_pairs` call
per dims, which keeps the whole suite interactive.
"""

import numpy as np

from . import channels as ch
from . import ipm
from . import linalg as la
from . import measures as ms
from . import search as se
from . import sdp as sdpmod

SQRT3_HALF = np.sqrt(3.0) / 2.0
PHI = np.array([2.0 * np.pi / 3.0, 0.0])
HALF = ms.GameConfig(0.5, PHI)
NULLITY_PRIORS = [0.3, 0.5, 0.75, 0.9]


def _evaluate(pairs):
    """The `sdp.SignEvaluation` of each (theta, cfg) pair, in order; the
    pairs of one dims are solved together in one `sdp.evaluate_pairs` call."""
    groups = {}
    for k, (theta, cfg) in enumerate(pairs):
        groups.setdefault((cfg.dim, theta.dim_in, theta.dim_out), []).append(k)
    out = {}
    for ks in groups.values():
        out.update(zip(ks, sdpmod.evaluate_pairs([pairs[k] for k in ks])[1]))
    return [out[k] for k in range(len(pairs))]


def _direct_membership(theta):
    """(DI, MIO) membership via the defining composition identities
    D o T = D o T o D and T o D = D o T o D on Choi matrices."""
    deph_out, deph_in = ch.dephasing(theta.dim_out), ch.dephasing(theta.dim_in)
    both = ch.compose(ch.compose(deph_out, theta), deph_in).choi
    return (la.max_abs(ch.compose(deph_out, theta).choi - both) <= ch.MEMBERSHIP_ATOL,
            la.max_abs(ch.compose(theta, deph_in).choi - both) <= ch.MEMBERSHIP_ATOL)


def _check_partial_trace(rng):
    worst = 0.0
    for _ in range(1000):
        da, db = rng.integers(2, 5, size=2)
        m = rng.standard_normal((da * db, da * db)) + 1j * rng.standard_normal((da * db, da * db))
        for keep in (0, 1):
            out = la.partial_trace(m, (da, db), keep)
            worst = max(worst, abs(np.trace(out) - np.trace(m)))
    return worst <= 1e-12, f"max trace deviation {worst:.2e} over 1000 operators"


def _check_trace_norm_triangle(rng):
    worst = -np.inf
    for _ in range(200):
        d = int(rng.integers(2, 6))
        a = la.hermitian_part(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        b = la.hermitian_part(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        lhs = la.trace_norm_hermitian(a + b)
        worst = max(worst, lhs - la.trace_norm_hermitian(a) - la.trace_norm_hermitian(b))
    return worst <= 1e-9, f"max excess {worst:.2e} over 200 random Hermitian pairs"


def _check_coefficient_identities(rng):
    worst = 0.0
    cptp = True
    for _ in range(1000):
        din = int(rng.integers(2, 4))
        dout = int(rng.integers(2, 4))
        theta = ch.random_channel(din, dout, rng)
        worst = max(worst, *ch.coefficient_identity_residuals(ch.index_coeffs(theta)))
        cptp &= ch.is_cptp(theta, 1e-8)
    return (worst <= 1e-9 and cptp,
            f"max identity residual {worst:.2e} over 1000 channels, all CPTP: {cptp}")


def _check_membership_equivalence(rng):
    disagree = 0
    for k in range(300):
        din = int(rng.integers(2, 4))
        dout = int(rng.integers(2, 4))
        theta = (ch.random_di, ch.random_mio, ch.random_channel)[k % 3](din, dout, rng)
        direct = _direct_membership(theta)
        disagree += (ch.is_detection_incoherent(theta), ch.is_mio(theta)) != direct
    return disagree == 0, f"coefficient and composition tests disagree on {disagree} of 300 channels"


def _check_free_unitaries(rng):
    for dim in (2, 3, 4):
        u = ch.permutation_phase_channel(dim, rng)
        if not (ch.is_detection_incoherent(u) and ch.is_mio(u)):
            return False, f"permutation-phase channel on dim {dim} not free"
        phase = ch.phase_channel(rng.uniform(0, 2 * np.pi, dim))
        if not (ch.is_detection_incoherent(phase) and ch.is_mio(phase)):
            return False, f"phase channel on dim {dim} not free"
    return True, "phase and permutation-phase channels are free in both classes"


def _check_kraus_roundtrip(rng):
    worst = 0.0
    for _ in range(30):
        din, dout = rng.integers(2, 4, size=2)
        theta = ch.random_channel(int(din), int(dout), rng)
        back = ch.from_kraus(ch.to_kraus(theta))
        worst = max(worst, la.max_abs(back.choi - theta.choi))
    return worst <= 1e-8, f"max Choi round-trip deviation {worst:.2e}"


def _check_bias_order(rng):
    worst = -np.inf
    for _ in range(200):
        d = int(rng.integers(2, 5))
        cfg = ms.GameConfig(float(rng.uniform(0, 1)), rng.uniform(0, 2 * np.pi, d))
        s0 = la.random_density_matrix(d, rng)
        s1 = la.random_density_matrix(d, rng)
        bm = ms.measurement_bias(cfg, s0, s1)
        worst = max(worst, ms.trivial_bias(cfg) - bm, bm - ms.helstrom_norm(cfg, s0, s1) / 2)
    return (worst <= 1e-12,
            f"trivial <= measurement <= Helstrom/2 up to {worst:.2e} on 200 random pairs")


def _check_povm_achieves_bias(rng):
    worst = 0.0
    for k in range(200):
        d = 2 + k % 2
        cfg = ms.GameConfig(float(rng.uniform(0, 1)), rng.uniform(0, 2 * np.pi, d))
        s0 = la.random_density_matrix(d, rng)
        s1 = la.random_density_matrix(d, rng)
        p0, p1 = ms.optimal_incoherent_povm(cfg, s0, s1).elements
        achieved = 0.5 * abs(np.trace((p0 - p1) @ (cfg.lam * s0 - cfg.mu * s1))).real
        worst = max(worst, abs(achieved - ms.measurement_bias(cfg, s0, s1)))
    return worst <= 1e-10, f"max deviation from the measurement bias {worst:.2e}"


def _check_hadamard_value(rng):
    # analytic oracle: |1 - e^{i 2 pi / 3}| / 2 = sqrt(3)/2, certified from
    # above by the SDP optimum and from below by the extracted pair
    rep = sdpmod.preprocessed_improvement(ch.hadamard(), HALF)
    ok = (abs(rep.value - SQRT3_HALF) <= 1e-4 and rep.trace_norm <= SQRT3_HALF + 1e-6
          and rep.lower_bound >= SQRT3_HALF - 1e-4 and rep.verification_residual <= 1e-6)
    return ok, (f"value {rep.value:.10f}, achieved by the extracted pair {rep.lower_bound:.10f}, "
                f"round-trip residual {rep.verification_residual:.2e}")


def _check_di_nullity(rng):
    pairs = [(ch.random_di(2, 2, rng), ms.GameConfig(NULLITY_PRIORS[k % 4], PHI))
             for k in range(50)]
    worst = max(abs(ev.improvement) for ev in _evaluate(pairs))
    return worst <= 1e-6, f"max |improvement| {worst:.2e} over 50 free channels"


def _check_mio_nullity(rng):
    worst = 0.0
    for k in range(50):
        theta = ch.random_mio(2, 2, rng)
        cfg = ms.GameConfig(NULLITY_PRIORS[k % 4], PHI)
        val = se.postprocessed_improvement_lower(theta, cfg, rng_seed=11)
        worst = max(worst, abs(val))
    return worst <= 1e-6, f"max |lower bound| {worst:.2e} over 50 free channels"


def _check_monotonicity(rng):
    pairs = []
    for k in range(100):
        theta = ch.random_channel(2, 2, rng)
        free = ch.random_di(2, 2, rng)
        cfg = ms.GameConfig([0.5, 0.7, 0.35][k % 3], PHI)
        pairs += [(theta, cfg), (ch.compose(free, theta), cfg), (ch.compose(theta, free), cfg)]
    values = np.array([ev.improvement for ev in _evaluate(pairs)]).reshape(100, 3)
    worst = (values[:, 1:] - values[:, :1]).max()
    return worst <= 1e-5, f"max monotonicity violation {worst:.2e} over 100 pairs"


def _check_tensor_and_auxiliary(rng):
    # an idle identity factor beside the channel, or an auxiliary system
    # carrying copies of the phases, leaves the value unchanged
    phi_aux = np.array([2.0 * np.pi / 3.0, 2.0 * np.pi / 3.0, 0.0, 0.0])
    pairs = []
    for _ in range(5):
        theta = ch.random_channel(2, 2, rng)
        pairs += [(theta, HALF), (ch.tensor(theta, ch.identity_channel(2)), HALF),
                  (theta, ms.GameConfig(0.5, phi_aux))]
    values = np.array([ev.improvement for ev in _evaluate(pairs)]).reshape(5, 3)
    worst = np.abs(values[:, 1:] - values[:, :1]).max()
    return worst <= 1e-4, f"max tensor/auxiliary deviation {worst:.2e} over 5 channels"


def _check_pincer(rng):
    # the sampled floor stays under the certified ceiling up to the rounding
    # of its own arithmetic, and the sampling comes within 5e-3 of it
    thetas = [ch.random_channel(2, 2, rng) for _ in range(20)]
    evaluations = _evaluate([(theta, HALF) for theta in thetas])
    gaps = [ev.upper_bound - se.brute_force_game_value(theta, HALF, rng_seed=k)
            for k, (theta, ev) in enumerate(zip(thetas, evaluations))]
    lo, hi = min(gaps), max(gaps)
    top = max(ev.upper_bound for ev in evaluations)
    allowance = ipm.rounding_allowance(HALF.dim * thetas[0].dim_in, 1.0 + top)
    return (-allowance <= lo and hi <= 5e-3,
            f"ceiling-minus-sampled gap in [{lo:.2e}, {hi:.2e}], allowance {allowance:.1e}")


def _check_counterexample(rng):
    before, after = se.swap_monotonicity_counterexample()
    # the swap is free, so the pre-processed value cannot move
    detector = ch.tensor(ch.hadamard(), ch.identity_channel(2))
    cfg = ms.GameConfig(0.5, np.array([np.pi, 0.0, np.pi, 0.0]))
    base, swapped = _evaluate([(detector, cfg),
                               (ch.compose(detector, ch.swap_channel(2, 2)), cfg)])
    moved = abs(swapped.improvement - base.improvement)
    return (before <= 1e-6 and abs(after - 1.0) <= 1e-3 and moved <= 1e-5,
            f"before {before:.2e}, after {after:.6f}, pre-processed value moves {moved:.2e}")


def _check_post_hadamard(rng):
    val = se.postprocessed_improvement_lower(ch.hadamard(), HALF, rng_seed=5)
    return SQRT3_HALF - 1e-4 <= val <= SQRT3_HALF + 1e-6, f"lower bound {val:.10f}"


def _check_game_ceiling(rng):
    # every strategy's trace norm, pre- or post-processed, stays under the
    # game's closed-form ceiling, which the Hadamard meets at the README
    # phases; a ceiling set too low would cut the creation chains short
    # without a trace
    thetas = [ch.hadamard()] + [ch.random_channel(2, 2, rng) for _ in range(9)]
    excess = []
    for k, theta in enumerate(thetas):
        for phi in (PHI, rng.uniform(0, 2 * np.pi, 2)):
            for lam in (0.3, 0.5, 0.7):
                cfg = ms.GameConfig(lam, phi)
                values = (sdpmod.preprocessed_improvement(theta, cfg).lower_bound,
                          se.brute_force_game_value(theta, cfg, rng_seed=k),
                          se.postprocessed_improvement_lower(theta, cfg, rng_seed=k)
                          + cfg.prior_gap)
                excess.append(max(values) - cfg.ceiling
                              - ipm.rounding_allowance(cfg.dim * theta.dim_in, 2.0))
    return max(excess) <= 0.0, (f"max excess over ceiling plus allowance {max(excess):.2e} "
                                f"over {len(excess)} games")


def _check_game(rng):
    theta = ch.hadamard()
    rep = sdpmod.preprocessed_improvement(theta, HALF)
    _, _, povm = se.optimal_game_instance(theta, rep)
    tr = se.monte_carlo_game(theta, rep.phi_opt, rep.rho_opt, povm, HALF, 100000,
                             int(rng.integers(1 << 31)))
    return abs(tr.z_score) <= 4.0, f"z-score {tr.z_score:.2f} at {tr.trials} trials"


CHECKS = [
    ("partial_trace_preserves_trace", _check_partial_trace),
    ("trace_norm_triangle_inequality", _check_trace_norm_triangle),
    ("channel_coefficient_identities", _check_coefficient_identities),
    ("membership_matches_direct_composition", _check_membership_equivalence),
    ("phase_and_permutation_channels_free", _check_free_unitaries),
    ("kraus_choi_roundtrip", _check_kraus_roundtrip),
    ("bias_ordering", _check_bias_order),
    ("optimal_povm_achieves_bias", _check_povm_achieves_bias),
    ("hadamard_preprocessed_value", _check_hadamard_value),
    ("nullity_detection_incoherent", _check_di_nullity),
    ("nullity_creation_incoherent", _check_mio_nullity),
    ("monotonicity_under_free_composition", _check_monotonicity),
    ("tensor_and_auxiliary_invariance", _check_tensor_and_auxiliary),
    ("sampled_oracle_pincer", _check_pincer),
    ("swap_counterexample", _check_counterexample),
    ("hadamard_postprocessed_bound", _check_post_hadamard),
    ("game_ceiling_bounds_both_sides", _check_game_ceiling),
    ("guessing_game_consistency", _check_game),
]


def run_all(seed=0):
    """Run every invariant check; returns a list of result dicts."""
    results = []
    for name, fn in CHECKS:
        rng = np.random.default_rng(seed)
        try:
            passed, detail = fn(rng)
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"exception: {type(exc).__name__}: {exc}"
        results.append({"name": name, "passed": bool(passed), "detail": detail})
    return results

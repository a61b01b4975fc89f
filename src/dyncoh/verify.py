"""Self-contained invariant suite behind the ``verify`` CLI command.

Each check re-derives a documented property from scratch (direct Choi
comparisons, sampled inequalities, round trips) at reduced sample counts so
the whole suite stays interactive.  The pytest acceptance module runs the
same properties at full size.
"""

import numpy as np

from . import channels as ch
from . import linalg as la
from . import measures as ms
from . import search as se
from . import sdp as sdpmod


def _direct_di(channel, atol):
    """Membership via the defining composition identity on Choi matrices."""
    deph = ch.dephasing(channel.dim_out)
    deph_in = ch.dephasing(channel.dim_in)
    lhs = ch.compose(deph, channel)
    rhs = ch.compose(ch.compose(deph, channel), deph_in)
    return la.max_abs(lhs.choi - rhs.choi) <= atol


def _direct_mio(channel, atol):
    deph = ch.dephasing(channel.dim_out)
    deph_in = ch.dephasing(channel.dim_in)
    lhs = ch.compose(channel, deph_in)
    rhs = ch.compose(ch.compose(deph, channel), deph_in)
    return la.max_abs(lhs.choi - rhs.choi) <= atol


def _check_partial_trace(rng):
    worst = 0.0
    for _ in range(200):
        da, db = rng.integers(2, 5, size=2)
        m = rng.standard_normal((da * db, da * db)) + 1j * rng.standard_normal((da * db, da * db))
        for keep in (0, 1):
            out = la.partial_trace(m, (da, db), keep)
            worst = max(worst, abs(np.trace(out) - np.trace(m)))
    return worst <= 1e-12, f"max trace deviation {worst:.2e}"


def _check_trace_norm_triangle(rng):
    for _ in range(100):
        d = int(rng.integers(2, 6))
        a = la.hermitian_part(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        b = la.hermitian_part(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        lhs = la.trace_norm_hermitian(a + b)
        rhs = la.trace_norm_hermitian(a) + la.trace_norm_hermitian(b)
        if lhs > rhs + 1e-9:
            return False, f"triangle inequality violated by {lhs - rhs:.2e}"
    return True, "100 random Hermitian pairs"


def _check_coefficient_identities(rng, count=200):
    worst = 0.0
    for _ in range(count):
        din, dout = rng.integers(2, 4, size=2)
        theta = ch.random_channel(int(din), int(dout), rng)
        worst = max(worst, max(r for r in ch.coefficient_identity_residuals(ch.index_coeffs(theta))))
    return worst <= 1e-9, f"max identity residual {worst:.2e} over {count} channels"


def _check_membership_equivalence(rng, count=60):
    agree = True
    for k in range(count):
        din = int(rng.integers(2, 4))
        dout = int(rng.integers(2, 4))
        if k % 3 == 0:
            theta = ch.random_di(din, dout, rng)
        elif k % 3 == 1:
            theta = ch.random_mio(din, dout, rng)
        else:
            theta = ch.random_channel(din, dout, rng)
        agree &= ch.is_detection_incoherent(theta) == _direct_di(theta, 1e-8)
        agree &= ch.is_mio(theta) == _direct_mio(theta, 1e-8)
    return agree, f"coefficient tests match composition tests on {count} channels"


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
    for _ in range(100):
        d = int(rng.integers(2, 5))
        cfg = ms.GameConfig(float(rng.uniform(0, 1)), rng.uniform(0, 2 * np.pi, d))
        s0 = la.random_density_matrix(d, rng)
        s1 = la.random_density_matrix(d, rng)
        bt = ms.trivial_bias(cfg)
        bm = ms.measurement_bias(cfg, s0, s1)
        hel = ms.helstrom_norm(cfg, s0, s1)
        if bm < bt - 1e-12 or bm > hel / 2 + 1e-12:
            return False, "bias ordering violated"
    return True, "trivial <= measurement <= Helstrom/2 on 100 random pairs"


def _check_povm_achieves_bias(rng):
    worst = 0.0
    for _ in range(100):
        d = int(rng.choice([2, 3]))
        cfg = ms.GameConfig(float(rng.uniform(0, 1)), rng.uniform(0, 2 * np.pi, d))
        s0 = la.random_density_matrix(d, rng)
        s1 = la.random_density_matrix(d, rng)
        povm = ms.optimal_incoherent_povm(cfg, s0, s1)
        diff = cfg.lam * s0 - cfg.mu * s1
        achieved = 0.5 * abs(
            np.trace(povm.elements[0] @ diff) - np.trace(povm.elements[1] @ diff)
        ).real
        worst = max(worst, abs(achieved - ms.measurement_bias(cfg, s0, s1)))
    return worst <= 1e-10, f"max deviation from the measurement bias {worst:.2e}"


def _check_hadamard_value(rng):
    cfg = ms.GameConfig(0.5, np.array([2 * np.pi / 3, 0.0]))
    rep = sdpmod.preprocessed_improvement(ch.hadamard(), cfg)
    target = np.sqrt(3) / 2
    ok = abs(rep.value - target) <= 1e-4 and rep.verification_residual <= 1e-6
    return ok, f"value {rep.value:.10f}, round-trip residual {rep.verification_residual:.2e}"


def _check_di_nullity(rng, count=10):
    worst = 0.0
    for _ in range(count):
        theta = ch.random_di(2, 2, rng)
        lam = float(rng.choice([0.3, 0.5, 0.8]))
        cfg = ms.GameConfig(lam, np.array([2 * np.pi / 3, 0.0]))
        rep = sdpmod.preprocessed_improvement(theta, cfg, extract=False)
        worst = max(worst, abs(rep.value))
    return worst <= 1e-6, f"max |improvement| {worst:.2e} over {count} free channels"


def _check_mio_nullity(rng, count=5):
    cfg = ms.GameConfig(0.5, np.array([2 * np.pi / 3, 0.0]))
    worst = 0.0
    for _ in range(count):
        theta = ch.random_mio(2, 2, rng)
        val = se.postprocessed_improvement_lower(
            theta, cfg, se.SearchBudget(rng_seed=int(rng.integers(1 << 31))), restarts=2
        )
        worst = max(worst, abs(val))
    return worst <= 1e-6, f"max |lower bound| {worst:.2e} over {count} free channels"


def _check_monotonicity(rng, count=10):
    cfg = ms.GameConfig(0.5, np.array([2 * np.pi / 3, 0.0]))
    worst = -np.inf
    for _ in range(count):
        theta = ch.random_channel(2, 2, rng)
        free = ch.random_di(2, 2, rng)
        base = sdpmod.preprocessed_improvement(theta, cfg, extract=False).value
        left = sdpmod.preprocessed_improvement(ch.compose(free, theta), cfg, extract=False).value
        right = sdpmod.preprocessed_improvement(ch.compose(theta, free), cfg, extract=False).value
        worst = max(worst, left - base, right - base)
    return worst <= 1e-5, f"max monotonicity violation {worst:.2e}"


def _check_pincer(rng, count=5):
    cfg = ms.GameConfig(0.5, np.array([2 * np.pi / 3, 0.0]))
    lo, hi = np.inf, -np.inf
    for k in range(count):
        theta = ch.random_channel(2, 2, rng)
        exact = sdpmod.preprocessed_improvement(theta, cfg, extract=False).trace_norm
        lower = se.brute_force_game_value(
            theta, cfg, se.SearchBudget(random_samples=3000, rng_seed=k)
        )
        gap = exact - lower
        lo, hi = min(lo, gap), max(hi, gap)
    return -1e-6 <= lo and hi <= 5e-3, f"sdp-minus-sampled gap in [{lo:.2e}, {hi:.2e}]"


def _check_counterexample(rng):
    before, after = se.swap_monotonicity_counterexample()
    return before <= 1e-6 and after >= 0.99, f"before {before:.2e}, after {after:.6f}"


def _check_post_hadamard(rng):
    cfg = ms.GameConfig(0.5, np.array([2 * np.pi / 3, 0.0]))
    val = se.postprocessed_improvement_lower(
        ch.hadamard(), cfg, se.SearchBudget(rng_seed=5), restarts=4
    )
    target = np.sqrt(3) / 2
    return target - 1e-4 <= val <= target + 1e-6, f"lower bound {val:.10f}"


def _check_game(rng):
    cfg = ms.GameConfig(0.5, np.array([2 * np.pi / 3, 0.0]))
    theta = ch.hadamard()
    rep = sdpmod.preprocessed_improvement(theta, cfg)
    s0 = ch.apply(theta, ch.apply(rep.phi_opt, rep.rho_opt))
    s1 = ch.apply(theta, ch.apply(rep.phi_opt, ch.apply(ch.phase_channel(cfg.phi), rep.rho_opt)))
    povm = ms.optimal_incoherent_povm(cfg, s0, s1)
    tr = se.monte_carlo_game(theta, rep.phi_opt, rep.rho_opt, povm, cfg, 100000,
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
    ("sampled_oracle_pincer", _check_pincer),
    ("swap_counterexample", _check_counterexample),
    ("hadamard_postprocessed_bound", _check_post_hadamard),
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

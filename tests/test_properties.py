"""Property tests: the certified bracket of the pre-processed value, the
nullity, monotonicity and tensor checks of `verify` at its tolerances, and
byte-identical CLI output, on drawn inputs."""

import contextlib
import io

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from dyncoh import channels as ch  # noqa: E402
from dyncoh import cli  # noqa: E402
from dyncoh import ipm  # noqa: E402
from dyncoh import measures as ms  # noqa: E402
from dyncoh import sdp as sd  # noqa: E402
from dyncoh import search as se  # noqa: E402

# derandomized and without an example database, so a run is reproducible
# and leaves nothing behind
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)
PHASE = st.floats(0.0, 2.0 * np.pi)


SEED = st.integers(0, 2**32 - 1)


@st.composite
def channel_games(draw, make=ch.random_channel):
    """A channel from ``make`` on 2-3 levels in and out, and a game on 2-3 phases."""
    rng = np.random.default_rng(draw(SEED))
    theta = make(draw(st.integers(2, 3)), draw(st.integers(2, 3)), rng)
    phi = np.array(draw(st.lists(PHASE, min_size=2, max_size=3)))
    return theta, ms.GameConfig(draw(st.floats(0.0, 1.0)), phi)


@PROPERTY
@given(channel_games())
def test_the_bracket_is_ordered_and_narrow(pair):
    rep = sd.preprocessed_improvement(*pair)
    assert rep.lower_bound <= rep.upper_bound <= rep.lower_bound + sd.BRACKET_TOL


@PROPERTY
@given(channel_games())
def test_the_sampled_floor_stays_under_the_ceiling(pair):
    theta, cfg = pair
    rep = sd.preprocessed_improvement(theta, cfg)
    floor = se.brute_force_game_value(theta, cfg)
    n = cfg.dim * theta.dim_in
    assert floor <= rep.upper_bound + ipm.rounding_allowance(n, 1.0 + rep.upper_bound)


def _improvements(pairs):
    return [ev.improvement for ev in sd.evaluate_pairs(pairs)[1]]


@PROPERTY
@given(channel_games(ch.random_di))
def test_detection_incoherent_channels_improve_nothing(pair):
    (value,) = _improvements([pair])
    assert abs(value) <= 1e-6


@PROPERTY
@given(channel_games(), SEED)
def test_free_pre_and_post_processing_never_raise_the_value(pair, seed):
    theta, cfg = pair
    rng = np.random.default_rng(seed)
    pre = ch.random_di(theta.dim_in, theta.dim_in, rng)
    post = ch.random_di(theta.dim_out, theta.dim_out, rng)
    value, *processed = _improvements([pair, (ch.compose(theta, pre), cfg),
                                       (ch.compose(post, theta), cfg)])
    assert max(processed) <= value + 1e-5


@PROPERTY
@given(channel_games())
def test_an_idle_identity_factor_leaves_the_value(pair):
    theta, cfg = pair
    (value,) = _improvements([pair])
    (widened,) = _improvements([(ch.tensor(theta, ch.identity_channel(2)), cfg)])
    assert abs(widened - value) <= 1e-4


def _measure_pre(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@PROPERTY
@given(st.sampled_from(["hadamard", "qft:3", "mix:hadamard:0.3", "swap:2:2"]),
       st.floats(0.0, 1.0), st.lists(PHASE, min_size=2, max_size=3))
def test_measure_pre_output_is_byte_identical(uri, lam, phi):
    argv = ["measure-pre", "--channel", uri, "--lambda", repr(lam),
            "--phi", ",".join(repr(p) for p in phi)]
    first, second = _measure_pre(argv), _measure_pre(argv)
    assert first[0] == 0
    assert first == second

"""Outside-in layer spans: wrap the package's public entry points.

Nothing in the package is instrumented.  For a traced run, every entry
point in ``ENTRY_POINTS`` is replaced by a wrapper that opens a span around
the original, and every binding of the original in the package's modules is
replaced too, because callers look names up where they imported them
(``dyncoh.sdp`` binds ``solve_real_sdp`` by ``from .ipm import``, so a
wrapper on ``dyncoh.ipm`` alone would count nothing).  ``installed``
restores every binding when the traced run ends.

Spans nest on one stack (the workloads are single-threaded).  A span's
self time is its duration minus the durations of its direct children.
"""

import contextlib
import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "dyncoh"

# span name -> (module, attribute path).  The span name is the layer (the
# package module) and the entry point, as the per-layer metrics name them.
ENTRY_POINTS = {
    "sdp.preprocessed_improvement": ("dyncoh.sdp", "preprocessed_improvement"),
    "sdp.build_sign_program": ("dyncoh.sdp", "build_sign_program"),
    "sdp.solve_sdp": ("dyncoh.sdp", "solve_sdp"),
    "sdp.extract_optimal": ("dyncoh.sdp", "extract_optimal"),
    "sdp.verify_extraction": ("dyncoh.sdp", "verify_extraction"),
    "ipm.solve_real_sdp": ("dyncoh.ipm", "solve_real_sdp"),
    "kernels.schur": ("dyncoh.kernels", "SparseConstraints.schur"),
    "kernels.pure_state_ascent": ("dyncoh.kernels", "pure_state_ascent"),
    "search.brute_force_game_value": ("dyncoh.search", "brute_force_game_value"),
    "search.no_preprocessing_improvement": ("dyncoh.search", "no_preprocessing_improvement"),
    "search.postprocessed_improvement_lower": ("dyncoh.search", "postprocessed_improvement_lower"),
    "search.mixture_sweep": ("dyncoh.search", "mixture_sweep"),
    "channels.apply": ("dyncoh.channels", "apply"),
    "channels.compose": ("dyncoh.channels", "compose"),
    "channels.channel_from_choi": ("dyncoh.channels", "channel_from_choi"),
    "measures.helstrom_norm": ("dyncoh.measures", "helstrom_norm"),
    "measures.game_value": ("dyncoh.measures", "game_value"),
    "linalg.eig_hermitian": ("dyncoh.linalg", "eig_hermitian"),
}


class MissingEntryPoints(LookupError):
    """Entry points named in the span table no longer exist in the package."""

    def __init__(self, names):
        super().__init__("missing entry points: " + ", ".join(names))
        self.names = names


def _ipm_counts(tracer, result):
    """Exact iteration and status counts from the returned ``IpmInfo``."""
    info = result[3]
    tracer.counts["ipm.iterations"] += info.iterations
    tracer.counts["ipm.nonoptimal"] += info.status != "optimal"


OBSERVERS = {"ipm.solve_real_sdp": _ipm_counts}


class Tracer:
    """Aggregates span calls and self time per span name."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self._stack = []  # [name, start, time covered by direct children]

    @contextlib.contextmanager
    def span(self, name):
        frame = [name, self.clock(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            duration = self.clock() - frame[1]
            self._stack.pop()
            self.calls[name] += 1
            self.self_s[name] += duration - frame[2]
            if self._stack:
                self._stack[-1][2] += duration

    def wrap(self, name, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(self, result)
            return result

        return traced


def _resolve(entry_points):
    """Original objects by span name; raises `MissingEntryPoints` by name."""
    found, missing = {}, []
    for name, (module_name, path) in entry_points.items():
        try:
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            found[name] = (owner, attr, getattr(owner, attr))
        except (ImportError, AttributeError):
            missing.append(name)
    if missing:
        raise MissingEntryPoints(missing)
    return found


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, evals):
    """Per-layer figures of a traced window of ``evals`` attempted evaluations.

    Every entry point gives ``<span>.calls`` (calls per evaluation) and
    ``<span>.self_s`` (self seconds per evaluation).  Ratios whose base is
    absent from a workload, such as programs per pre-processed call on a
    workload that makes none, read 0.
    """
    out = {}
    for name in ENTRY_POINTS:
        out[name + ".calls"] = tracer.calls[name] / evals
        out[name + ".self_s"] = tracer.self_s[name] / evals
    sdps = tracer.calls["sdp.solve_sdp"]
    solves = tracer.calls["ipm.solve_real_sdp"]
    out["sdp.programs_per_eval"] = _ratio(sdps, tracer.calls["sdp.preprocessed_improvement"])
    out["search.sdps_per_post"] = _ratio(sdps, tracer.calls["search.postprocessed_improvement_lower"])
    out["ipm.iterations"] = tracer.counts["ipm.iterations"] / evals
    out["ipm.iters_per_solve"] = _ratio(tracer.counts["ipm.iterations"], solves)
    out["ipm.nonoptimal"] = tracer.counts["ipm.nonoptimal"] / evals
    return out


@contextlib.contextmanager
def installed(tracer, entry_points=ENTRY_POINTS):
    """Wrap every entry point for the duration of the block, then restore.

    Module-level functions are rebound wherever a module of the package
    holds them; methods are rebound on their class.
    """
    originals = _resolve(entry_points)
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
    patched = []  # (owner, attribute, original)
    try:
        for name, (owner, attr, original) in originals.items():
            wrapper = tracer.wrap(name, original, OBSERVERS.get(name))
            if isinstance(owner, type):
                patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        patched.append((module, key, original))
                        setattr(module, key, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)

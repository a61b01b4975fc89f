"""Command-line front end.

Subcommands: measure-pre, measure-post, classify, sweep, game,
counterexample, verify.  Reports are JSON (CSV for sweeps) with the fully
resolved run configuration embedded, and identical configurations produce
byte-identical output.

Exit codes: 0 success, 1 parse error, 2 dimension/validation error, a
file that cannot be read or written or an input too large for memory, 3
solver failure (a LAPACK routine that does not converge included).  Errors
print one JSON line on stderr.
"""

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from . import channels as ch
from . import measures as ms
from . import search as se
from . import sdp as sdpmod
from . import verify as verifymod
from .errors import SolverFailure, ValidationError


class _ParseError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _ParseError(message)


@dataclass
class RunConfig:
    """The resolved run configuration, embedded in every JSON report; its
    defaults are the command-line defaults.  An empty ``format`` is the
    command's own: CSV for ``sweep``, JSON otherwise."""

    command: str
    channel_uri: str = ""
    lam: float = 0.5
    phi: list = field(default_factory=lambda: [2.0 * np.pi / 3.0, 0.0])
    tol: float = 1e-8
    seed: int = 0
    output_path: str = ""
    format: str = ""
    lambdas: list = field(default_factory=list)
    p1_steps: int = 51
    trials: int = 100000

    def __post_init__(self):
        self.format = self.format or ("csv" if self.command == "sweep" else "json")
        if not 0.0 <= self.lam <= 1.0:
            raise ValidationError("lambda must lie in [0, 1]")
        if not (np.isfinite(self.tol) and self.tol > 0.0):
            raise ValidationError("tol must be a positive finite number")
        if self.seed < 0:
            raise ValidationError("seed must be a non-negative integer")
        if self.p1_steps < 1:
            raise ValidationError("p1_steps must be at least 1")
        if self.trials < 1:
            raise ValidationError("trials must be at least 1")
        if self.format not in (("json", "csv") if self.command == "sweep" else ("json",)):
            raise ValidationError(f"format {self.format!r} is not available for {self.command}")


def _parse_reals(text):
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise _ParseError(f"expected comma-separated reals, got {text!r}") from exc


def _resolve_channel(uri):
    if os.path.exists(uri):
        return ch.load_channel(uri)
    return ch.from_uri(uri)


def _complex_matrix_json(m):
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m)]


def _emit(cfg, payload):
    if cfg.format == "csv":
        text = payload
    else:
        text = json.dumps({"config": asdict(cfg), "result": payload}, sort_keys=True,
                          indent=2) + "\n"
    if cfg.output_path:
        with open(cfg.output_path, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _cmd_measure_pre(cfg):
    theta = _resolve_channel(cfg.channel_uri)
    game = ms.GameConfig(cfg.lam, np.asarray(cfg.phi))
    rep = sdpmod.preprocessed_improvement(theta, game)
    return {
        "value": rep.value,
        "trace_norm": rep.trace_norm,
        "lower_bound": rep.lower_bound,
        "upper_bound": rep.upper_bound,
        "success_probability": ms.success_probability(rep.value, game),
        "per_sign_values": rep.per_sign_values,
        "per_sign_status": rep.per_sign_status,
        "per_sign_orbit": rep.per_sign_orbit,
        "pruned": rep.pruned,
        "sign_vectors": [list(s) for s in rep.sign_vectors],
        "verification_residual": rep.verification_residual,
        "sigma_diag": [float(x) for x in rep.sigma_diag],
        "rho_opt": _complex_matrix_json(rep.rho_opt),
        "phi_opt": ch.channel_to_dict(rep.phi_opt),
        "x_opt": _complex_matrix_json(rep.x_opt),
    }


def _cmd_measure_post(cfg):
    theta = _resolve_channel(cfg.channel_uri)
    game = ms.GameConfig(cfg.lam, np.asarray(cfg.phi))
    value = se.postprocessed_improvement_lower(theta, game, cfg.seed)
    return {
        "value": value,
        "lower_bound": True,
        "success_probability_at_least": ms.success_probability(max(value, 0.0), game),
    }


def _cmd_classify(cfg):
    theta = _resolve_channel(cfg.channel_uri)
    return {
        "cptp": ch.is_cptp(theta, cfg.tol),
        "detection_incoherent": ch.is_detection_incoherent(theta, cfg.tol),
        "mio": ch.is_mio(theta, cfg.tol),
    }


def _cmd_sweep(cfg):
    lambdas = cfg.lambdas if cfg.lambdas else [cfg.lam]
    p1_values = np.linspace(0.0, 1.0, cfg.p1_steps)
    rows = se.mixture_sweep(lambdas, p1_values, cfg.phi)
    if cfg.format == "csv":
        lines = ["lambda,p1,M"]
        for lam, p1, value in rows:
            lines.append(f"{lam:.12g},{p1:.12g},{value:.12g}")
        return "\n".join(lines) + "\n"
    return {"rows": [[lam, p1, value] for lam, p1, value in rows]}


def _cmd_game(cfg):
    theta = _resolve_channel(cfg.channel_uri)
    game = ms.GameConfig(cfg.lam, np.asarray(cfg.phi))
    rep = sdpmod.preprocessed_improvement(theta, game)
    _, _, povm = se.optimal_game_instance(theta, rep)
    tr = se.monte_carlo_game(theta, rep.phi_opt, rep.rho_opt, povm, game,
                             cfg.trials, cfg.seed)
    return {
        "trials": tr.trials,
        "successes": tr.successes,
        "empirical_rate": tr.empirical_rate,
        "predicted_rate": tr.predicted_rate,
        "z_score": tr.z_score,
        "measure_value": rep.value,
    }


def _cmd_counterexample(cfg):
    before, after = se.swap_monotonicity_counterexample()
    return {"l_before": before, "l_after": after}


def _cmd_verify(cfg):
    results = verifymod.run_all(seed=cfg.seed)
    for r in results:
        sys.stderr.write(f"{'PASS' if r['passed'] else 'FAIL'}  {r['name']}: {r['detail']}\n")
    all_passed = all(r["passed"] for r in results)
    if not all_passed:
        raise ValidationError("invariant suite reported failures")
    return {"checks": results, "all_passed": all_passed}


_COMMANDS = {
    "measure-pre": _cmd_measure_pre,
    "measure-post": _cmd_measure_post,
    "classify": _cmd_classify,
    "sweep": _cmd_sweep,
    "game": _cmd_game,
    "counterexample": _cmd_counterexample,
    "verify": _cmd_verify,
}


def run(cfg):
    """Execute a resolved RunConfig; returns the process exit code."""
    try:
        payload = _COMMANDS[cfg.command](cfg)
        _emit(cfg, payload)
        return 0
    except (SolverFailure, np.linalg.LinAlgError) as exc:  # LAPACK trouble is solver trouble
        status = getattr(exc, "status", "numerical_failure")
        sys.stderr.write(json.dumps({"exit_code": 3, "error": str(exc), "status": status}) + "\n")
        return 3
    except (ValidationError, OSError, MemoryError) as exc:  # an input too large to hold
        sys.stderr.write(json.dumps({"exit_code": 2, "error": str(exc)}) + "\n")
        return 2


def _build_parser():
    """The flags of each command, named as the `RunConfig` fields they set.
    A flag that is not given is absent from the parsed namespace, so its
    default is the field's."""
    parser = _Parser(prog="dyncoh", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        p.add_argument("--channel", dest="channel_uri", metavar="CHANNEL",
                       help="file path or built-in URI")
        p.add_argument("--lambda", dest="lam", type=float)
        p.add_argument("--phi", type=_parse_reals, help="comma-separated phases in radians")
        p.add_argument("--seed", type=int)
        p.add_argument("--out", dest="output_path")
        p.add_argument("--format", choices=("json", "csv"))
        if name == "classify":
            p.add_argument("--tol", type=float, help="membership tolerance of the class tests")
        if name == "sweep":
            p.add_argument("--lambdas", type=_parse_reals, help="comma-separated priors")
            p.add_argument("--p1-steps", dest="p1_steps", type=int)
        if name == "game":
            p.add_argument("--trials", type=int)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser()
    try:
        cfg = RunConfig(**vars(parser.parse_args(argv)))
    except _ParseError as exc:
        sys.stderr.write(json.dumps({"exit_code": 1, "error": str(exc)}) + "\n")
        return 1
    except ValidationError as exc:
        sys.stderr.write(json.dumps({"exit_code": 2, "error": str(exc)}) + "\n")
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())

import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from dyncoh import channels as ch
from dyncoh import cli
from dyncoh import sdp as sd
from dyncoh import verify as verifymod


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_measure_pre_hadamard(capsys):
    code, out, _ = run_cli(
        ["measure-pre", "--channel", "hadamard", "--lambda", "0.5",
         "--phi", "2.0943951023931953,0"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["result"]["value"] == pytest.approx(np.sqrt(3) / 2, abs=1e-4)
    assert data["result"]["verification_residual"] <= 1e-6
    assert data["config"]["command"] == "measure-pre"
    assert len(data["result"]["per_sign_values"]) == 4
    assert all(np.isfinite(v) for v in data["result"]["per_sign_values"])
    result = data["result"]
    assert len(result["per_sign_status"]) == 4
    assert result["pruned"] == result["per_sign_status"].count("pruned")
    # the output swap with V = Z maps (+, -) onto (-, +): one program is solved
    assert result["per_sign_orbit"] == [0, 1, 1, 3]
    assert result["trace_norm"] <= result["upper_bound"]
    assert 0.0 <= result["upper_bound"] - result["lower_bound"] <= 1e-7


def test_classify_hadamard(capsys):
    code, out, _ = run_cli(["classify", "--channel", "hadamard"], capsys)
    assert code == 0
    result = json.loads(out)["result"]
    assert result == {"cptp": True, "detection_incoherent": False, "mio": False}


def test_classify_builtin_uris(capsys):
    for uri, di in (("swap:2:2", True), ("mix:hadamard:0.3", False), ("qft:3", False)):
        code, out, _ = run_cli(["classify", "--channel", uri], capsys)
        assert code == 0
        assert json.loads(out)["result"]["detection_incoherent"] == di


def test_measure_pre_on_channel_file(tmp_path, capsys):
    import dyncoh.measures as ms
    import dyncoh.sdp as sd

    rng = np.random.default_rng(17)
    theta = ch.random_channel(2, 2, rng)
    path = tmp_path / "theta.json"
    ch.save_channel(theta, path)
    code, out, _ = run_cli(["measure-pre", "--channel", str(path),
                            "--lambda", "0.5", "--phi", "2.0,0"], capsys)
    assert code == 0
    got = json.loads(out)["result"]["value"]
    expected = sd.preprocessed_improvement(theta, ms.GameConfig(0.5, np.array([2.0, 0.0]))).value
    # serialization truncates the Kraus set at the numerical-rank threshold
    assert got == pytest.approx(expected, abs=1e-6)


def test_channel_file_roundtrip(tmp_path, capsys):
    path = tmp_path / "dephasing.json"
    ch.save_channel(ch.dephasing(2), path)
    code, out, _ = run_cli(["classify", "--channel", str(path)], capsys)
    assert code == 0
    result = json.loads(out)["result"]
    assert result == {"cptp": True, "detection_incoherent": True, "mio": True}


def test_sweep_csv_shape(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        ["sweep", "--lambdas", "0.5,0.6,0.75,0.9", "--p1-steps", "51",
         "--phi", "2.0943951023931953,0", "--out", str(out_path)], capsys)
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "lambda,p1,M"
    assert len(lines) == 1 + 204
    for line in lines[1:]:
        lam, p1, value = (float(x) for x in line.split(","))
        assert np.isfinite(value)


def test_sweep_is_byte_deterministic(tmp_path, capsys):
    args = ["sweep", "--lambdas", "0.5", "--p1-steps", "5", "--phi", "1.0,0"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2


@pytest.mark.parametrize("flags", [["--lambdas", "0.5,nan"], ["--lambdas", "inf"],
                                   ["--p1-steps", "-1"], ["--p1-steps", "0"]])
def test_sweep_rejects_bad_numbers(flags, capsys):
    code, out, err = run_cli(["sweep", "--lambdas", "0.5", *flags], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["exit_code"] == 2


@pytest.mark.parametrize("command", [["classify", "--channel", "hadamard"],
                                     ["measure-pre", "--channel", "hadamard"],
                                     ["counterexample"]])
def test_csv_is_refused_outside_sweep(command, tmp_path, capsys):
    # only a sweep has rows; the other reports are JSON, so CSV is refused
    # before any work and nothing is written
    out_path = tmp_path / "report.csv"
    code, out, err = run_cli([*command, "--format", "csv", "--out", str(out_path)], capsys)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["exit_code"] == 2
    assert not out_path.exists()


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_classify_rejects_bad_tol(tol, capsys):
    code, out, err = run_cli(["classify", "--channel", "hadamard", "--tol", tol], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["exit_code"] == 2


@pytest.mark.parametrize("flags", [["--tol", "0.5"], ["--full-sign-enumeration"]])
def test_measure_pre_takes_no_solver_flags(flags, capsys):
    # the gap tolerance is fixed and the constant sign patterns are always
    # evaluated analytically; --tol is classify's membership tolerance
    code, out, err = run_cli(["measure-pre", "--channel", "qft:3", *flags], capsys)
    assert code == 1
    assert out == ""
    assert json.loads(err)["exit_code"] == 1


def test_sweep_solver_failure_exit_code(nan_at_fifth_pair, capsys):
    code, out, err = run_cli(["sweep", "--lambdas", "0.5,0.9", "--p1-steps", "6"], capsys)
    assert code == 3
    assert out == ""
    assert json.loads(err)["status"] == "numerical_failure"


@pytest.mark.parametrize("fault", ["numerical_failure", "wide_bracket"])
def test_measure_pre_solver_fault_exit_code(fault, monkeypatch, capsys):
    # one program of the stack forced to fail, or every ceiling lifted by
    # 1e-6 so that the bracket is too wide: either way exit 3, one JSON line.
    # The Hadamard channel's output swap leaves one program to solve.
    original = sd.solve_stacked

    def faulty(*args, **kwargs):
        x, y, s, infos = original(*args, **kwargs)
        if fault == "numerical_failure":
            infos[-1] = dataclasses.replace(infos[-1], status="numerical_failure")
        else:
            infos = [dataclasses.replace(info, bound=info.bound + 1e-6) for info in infos]
        return x, y, s, infos

    monkeypatch.setattr(sd, "solve_stacked", faulty)
    code, out, err = run_cli(["measure-pre", "--channel", "hadamard"], capsys)
    assert code == 3
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["exit_code"] == 3 and error["status"] == "numerical_failure"
    assert ("wider" in error["error"]) == (fault == "wide_bracket")


def test_measure_pre_eigensolver_failure_exit_code(failing_third_bound, capsys):
    # LAPACK fails on the third ceilings of a qft:3 evaluation, on the stack
    # and on every program alone: solver trouble, so exit 3 and one JSON line
    failing_third_bound(None)
    code, out, err = run_cli(["measure-pre", "--channel", "qft:3"], capsys)
    assert code == 3
    assert out == ""
    (line,) = err.splitlines()
    error = json.loads(line)
    assert error["exit_code"] == 3 and error["status"] == "numerical_failure"


def test_measure_post_lapack_failure_exit_code(monkeypatch, capsys):
    # the Helstrom step's eigh does not converge: a LAPACK error outside the
    # solver is solver trouble as well, so exit 3 and one JSON line
    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing)
    code, out, err = run_cli(["measure-post", "--channel", "hadamard"], capsys)
    assert code == 3
    assert out == ""
    (line,) = err.splitlines()
    error = json.loads(line)
    assert error["exit_code"] == 3 and error["status"] == "numerical_failure"
    assert "did not converge" in error["error"]


@pytest.mark.parametrize("args", [
    ["measure-pre", "--channel", "qft:3", "--lambda", "0.7", "--phi", "2.0,0,1.0",
     "--seed", "3"],
    ["measure-post", "--channel", "hadamard", "--lambda", "0.6", "--seed", "3"],
    ["classify", "--channel", "qft:3"],
    ["game", "--channel", "hadamard", "--trials", "2000", "--seed", "3"],
], ids=lambda args: args[0])
def test_is_byte_deterministic(args, capsys):
    code1, out1, _ = run_cli(args, capsys)
    code2, out2, _ = run_cli(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_game_command(capsys):
    code, out, _ = run_cli(
        ["game", "--channel", "hadamard", "--lambda", "0.5",
         "--phi", "2.0943951023931953,0", "--trials", "20000", "--seed", "12"], capsys)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["trials"] == 20000
    assert abs(result["z_score"]) <= 4.0
    assert result["predicted_rate"] == pytest.approx(0.5 + np.sqrt(3) / 4, abs=1e-6)


def test_measure_post_command(capsys):
    code, out, _ = run_cli(
        ["measure-post", "--channel", "hadamard", "--lambda", "0.5",
         "--phi", "2.0943951023931953,0"], capsys)
    assert code == 0
    assert "samples" not in json.loads(out)["config"]
    result = json.loads(out)["result"]
    assert result["lower_bound"] is True
    assert result["value"] == pytest.approx(np.sqrt(3) / 2, abs=1e-4)


def test_counterexample_command(capsys):
    code, out, _ = run_cli(["counterexample"], capsys)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["l_before"] <= 1e-6
    assert result["l_after"] >= 0.99
    assert "-0.0" not in out


@pytest.mark.parametrize("command", ["counterexample", "measure-post"])
def test_no_samples_flag(command, capsys):
    # neither command samples anything, so neither takes a sample count
    code, out, err = run_cli([command, "--samples", "5"], capsys)
    assert code == 1
    assert out == ""
    assert json.loads(err)["exit_code"] == 1


@pytest.mark.parametrize("command", [
    ["game", "--channel", "hadamard"],
    ["measure-post", "--channel", "hadamard"],
])
def test_negative_seed_exit_code(command, capsys):
    code, out, err = run_cli([*command, "--seed", "-1"], capsys)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"exit_code": 2,
                                    "error": "seed must be a non-negative integer"}


@pytest.mark.parametrize("command", ["measure-pre", "measure-post", "classify", "game"])
def test_nan_mixture_weight_exit_code(command, capsys):
    code, out, err = run_cli([command, "--channel", "mix:hadamard:nan"], capsys)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["exit_code"] == 2
    assert "NaN or Inf" in error["error"]


def test_parse_error_exit_code(capsys):
    code, _, err = run_cli(["measure-pre", "--lambda", "abc"], capsys)
    assert code == 1
    assert json.loads(err)["exit_code"] == 1


def test_unknown_flag_exit_code(capsys):
    code, _, err = run_cli(["measure-pre", "--frobnicate"], capsys)
    assert code == 1


def test_validation_error_exit_code(capsys):
    code, _, err = run_cli(["measure-pre", "--channel", "hadamard",
                            "--lambda", "1.5"], capsys)
    assert code == 2
    assert json.loads(err)["exit_code"] == 2


def test_non_finite_phase_exit_code(capsys):
    code, out, err = run_cli(["measure-pre", "--channel", "hadamard",
                              "--phi", "nan,0"], capsys)
    assert code == 2
    assert out == ""
    assert "NaN or Inf" in json.loads(err)["error"]


def test_non_finite_channel_file_exit_code(tmp_path, capsys):
    bad = ch.channel_to_dict(ch.hadamard())
    bad["kraus"][0][1][1] = [float("nan"), 0.0]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(bad))
    code, _, err = run_cli(["measure-pre", "--channel", str(path)], capsys)
    assert code == 2
    assert json.loads(err)["exit_code"] == 2


def test_unknown_channel_exit_code(capsys):
    # a bad dimension is refused before any arithmetic: no numpy warning
    # precedes the one JSON error line
    for uri in ["warpdrive", "qft:-1"]:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run_cli(["classify", "--channel", uri], capsys)
        assert code == 2, uri
        assert [str(w.message) for w in caught] == [], uri
        (line,) = err.splitlines()
        assert json.loads(line)["exit_code"] == 2, uri


def test_rectangular_preprocessing_dims_are_legal(capsys):
    # 3-dim phases feeding the qubit Hadamard through a 3 -> 2 pre-processing
    code, out, _ = run_cli(["measure-pre", "--channel", "hadamard",
                            "--phi", "1.0,2.0,3.0"], capsys)
    assert code == 0
    assert json.loads(out)["result"]["value"] >= -1e-7


def test_dimension_error_exit_code(tmp_path, capsys):
    bad = {"dim_in": 2, "dim_out": 2, "kraus": [[[[1.0, 0.0]]]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, _, err = run_cli(["classify", "--channel", str(path)], capsys)
    assert code == 2
    assert json.loads(err)["exit_code"] == 2


@pytest.mark.parametrize("case", ["kraus_not_a_list", "dim_not_a_number", "dim_is_infinite",
                                  "dim_is_fractional", "dim_is_a_bool",
                                  "scalar_entry", "one_element_pair", "bool_pair",
                                  "three_element_entry", "not_utf8",
                                  "channel_is_a_directory", "out_is_a_directory"])
def test_bad_files_exit_code(case, tmp_path, capsys):
    good = ch.channel_to_dict(ch.hadamard())
    records = {
        "kraus_not_a_list": dict(good, kraus=5),
        "dim_not_a_number": dict(good, dim_in="x"),
        "dim_is_infinite": dict(good, dim_in=float("inf")),
        "dim_is_fractional": dict(good, dim_in=2.9),
        # a trace channel has one output, so True would read as its dim
        "dim_is_a_bool": dict(ch.channel_to_dict(ch.from_kraus([np.eye(1, 2), np.eye(1, 2, 1)])),
                              dim_out=True),
        "scalar_entry": dict(good, kraus=[[[1.0, 0.0], [0.0, 1.0]]]),
        "one_element_pair": dict(good, kraus=[[[[1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]),
        # the identity channel, were [true, false] read as 1 and the 5 dropped
        "bool_pair": dict(good, kraus=[[[[True, False], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]),
        "three_element_entry": dict(good, kraus=[[[[1.0, 0.0, 5.0], [0.0, 0.0]],
                                                  [[0.0, 0.0], [1.0, 0.0]]]]),
    }
    path = tmp_path / "theta.json"
    args = ["classify", "--channel", str(path)]
    if case in records:
        path.write_text(json.dumps(records[case]))
    elif case == "not_utf8":
        path.write_bytes(b'{"dim_in": 2, "kraus": "\xff"}')
    elif case == "channel_is_a_directory":
        path.mkdir()
    else:
        args = ["classify", "--channel", "hadamard", "--out", str(tmp_path)]
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["exit_code"] == 2


@pytest.mark.parametrize("entries", [
    [[1e308, 0.0], [0.0, 0.0]],  # the completeness sum overflows to inf
    [[1e308, 1e308], [1e308, -1e308]],  # and here to NaN
])
def test_overflowing_kraus_entry_prints_one_json_line(entries, tmp_path):
    # numpy warnings would add lines to stderr; only the process's own
    # stderr shows them, so the command runs in a subprocess
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"dim_in": 2, "dim_out": 2,
                                "kraus": [[entries, [[0.0, 0.0], [1.0, 0.0]]]]}))
    env = dict(os.environ, PYTHONPATH=str(Path(ch.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "dyncoh.cli", "classify", "--channel",
                           str(path)], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 2
    assert done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["exit_code"] == 2


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_game_refuses_trials_below_one_before_solving(trials, monkeypatch, capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("the evaluation ran")

    monkeypatch.setattr(sd, "preprocessed_improvement", no_solve)
    code, out, err = run_cli(["game", "--channel", "hadamard", "--trials", trials], capsys)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["exit_code"] == 2


def test_verify_wiring(monkeypatch, capsys):
    monkeypatch.setattr(verifymod, "CHECKS",
                        [("alpha", lambda rng: (True, "fine"))])
    code, out, err = run_cli(["verify", "--seed", "1"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["result"]["all_passed"] is True
    assert "PASS" in err

    monkeypatch.setattr(verifymod, "CHECKS",
                        [("alpha", lambda rng: (True, "fine")),
                         ("beta", lambda rng: (False, "broken"))])
    code, _, err = run_cli(["verify"], capsys)
    assert code == 2
    assert "FAIL" in err

import ast
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import dyncoh
from dyncoh import ipm, sdp

from conftest import perfbench_module

SOURCES = sorted(Path(dyncoh.__file__).parent.glob("*.py"))


def _inverse_uses(tree):
    """Line numbers of every ``linalg.inv`` reference and ``inv`` import from a linalg module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "inv":
            owner = node.value
            if (isinstance(owner, ast.Attribute) and owner.attr == "linalg") or \
                    (isinstance(owner, ast.Name) and owner.id == "linalg"):
                yield node.lineno
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
            if any(alias.name == "inv" for alias in node.names):
                yield node.lineno


def test_no_module_inverts_a_matrix():
    # the interior point takes every step from factorizations and solves
    # (`ipm._scaled_frame`, `ipm._solve`); an explicit inverse costs more
    # and loses accuracy on the ill-conditioned matrices near the optimum
    assert SOURCES
    found = [f"{path.name}:{line}" for path in SOURCES
             for line in _inverse_uses(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


def test_the_inverse_check_sees_every_spelling():
    spellings = ["np.linalg.inv(a)", "numpy.linalg.inv(a)", "linalg.inv(a)",
                 "from numpy.linalg import inv", "from scipy.linalg import det, inv"]
    for text in spellings:
        assert list(_inverse_uses(ast.parse(text))) == [1], text
    assert list(_inverse_uses(ast.parse("np.linalg.pinv(a); inv = 1; x.inv"))) == []


def test_the_solvers_take_no_settings():
    # the solver has no knobs: the tolerances and the iteration cap are the
    # `ipm` constants, and every program starts at its family's start
    for solver in (ipm.solve_stacked, ipm.solve_real_sdp, sdp.solve_sdp):
        settings = {"gap_tol", "feas_tol", "max_iter", "x0"} & set(
            inspect.signature(solver).parameters)
        assert settings == set(), solver.__name__
    # one calling convention: the objectives to maximize, and per group the
    # greatest objective attained
    assert list(inspect.signature(sdp.solve_sdp).parameters) == ["functionals", "objective"]
    assert list(inspect.signature(ipm.solve_stacked).parameters) == ["family", "c", "groups",
                                                                    "floors"]


def test_every_benchmark_entry_point_resolves():
    # the benchmark wraps these names in spans, and a traced run exits 1
    # when one is missing; the span table is read, not changed
    spans = perfbench_module("spans")
    found = spans._resolve(spans.ENTRY_POINTS)  # raises MissingEntryPoints by name
    assert sorted(found) == sorted(spans.ENTRY_POINTS)
    assert all(callable(original) for _, _, original in found.values())


def test_one_map_type_and_one_game_multiplier():
    # `Channel` is the only map type, and the game's hypothesis difference is
    # the weight matrix of `GameConfig`: the phase channel is built only where
    # it is defined and by the freeness check of `verify`
    removed = re.compile(r"\b(LinearMap|linear_map_from_choi|signal_map)\b")
    phase_channel = re.compile(r"\bphase_channel\b")
    readme = Path(__file__).resolve().parents[1] / "README.md"
    found = []
    for path in SOURCES + [readme]:
        text = path.read_text(encoding="utf-8")
        found += [f"{path.name}: {name}" for name in removed.findall(text)]
        if path in SOURCES and path.stem not in ("channels", "verify"):
            found += [f"{path.name}: {name}" for name in phase_channel.findall(text)]
    assert found == []


def test_an_evaluation_imports_neither_scipy_nor_numpy_ma():
    # the benchmark's set-up time counts every import: after `import dyncoh`
    # and one qft:4 evaluation, neither scipy nor numpy.ma is loaded
    code = "\n".join([
        "import sys",
        "import numpy as np",
        "import dyncoh",
        "from dyncoh import channels, measures, sdp",
        "sdp.preprocessed_improvement(channels.qft(4),",
        "                             measures.GameConfig(0.5, np.pi * np.arange(4) / 2))",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'",
        "             or m == 'numpy.ma' or m.startswith('numpy.ma.')))",
    ])
    src = str(Path(dyncoh.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    assert done.stdout.strip() == "[]"

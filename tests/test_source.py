import ast
import inspect
from pathlib import Path

import dyncoh
from dyncoh import ipm, sdp

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
    # (`ipm._scaled_frame`, `ipm._schur_solve`); an explicit inverse costs more
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

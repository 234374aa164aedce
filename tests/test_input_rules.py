"""The integer, bool, numeric-array and Generator rules are written in one
module, `sqcomm._checks`: every other module of the package calls it instead
of testing types itself.  `sqcomm.cli` is a front end over `harness` and
`verify` alone."""

import ast
from pathlib import Path

import numpy as np
import pytest

import sqcomm
from sqcomm import _checks
from sqcomm import (
    build_sq_matrix,
    build_sq_vector,
    coord_a_setup,
    coord_b_setup,
    harness,
    lincomb_a_access,
    lincomb_b_access,
    open_session_blocks,
)

PACKAGE = Path(sqcomm.__file__).resolve().parent
RULES = "_checks.py"


def _isinstance_kinds(tree: ast.AST):
    """(line, kinds) of every two-argument `isinstance` call, kinds being the
    nodes its second argument names (a tuple's elements, or itself)."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            kinds = node.args[1]
            yield node.lineno, kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]


def _type_tests(tree: ast.AST) -> list:
    """Line numbers of `isinstance(..., bool)` calls (a tuple naming bool
    included) and of any `np.integer` / `numpy.integer` reference."""
    hits = [line for line, kinds in _isinstance_kinds(tree)
            if any(isinstance(n, ast.Name) and n.id == "bool" for n in kinds)]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "integer"
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            hits.append(node.lineno)
    return hits


def _generator_tests(tree: ast.AST) -> list:
    """Line numbers of `isinstance(..., <...>.Generator)` calls."""
    return [line for line, kinds in _isinstance_kinds(tree)
            if any(isinstance(n, ast.Attribute) and n.attr == "Generator" for n in kinds)]


def _assert_only_the_rules_module(scan) -> None:
    modules = sorted(PACKAGE.glob("*.py"))
    assert RULES in {p.name for p in modules}
    found = {p.name: scan(ast.parse(p.read_text(), str(p)))
             for p in modules if p.name != RULES}
    assert {name: lines for name, lines in found.items() if lines} == {}
    # the rules module itself is seen by the scan, so the test can fail
    assert scan(ast.parse((PACKAGE / RULES).read_text()))


def test_only_the_rules_module_tests_for_integers_and_bools():
    _assert_only_the_rules_module(_type_tests)


def test_only_the_rules_module_tests_for_a_generator():
    _assert_only_the_rules_module(_generator_tests)


def test_cli_is_only_a_front_end():
    # the fit-bits layouts and mix live in harness.SWEEP_LAYOUTS and
    # harness.access_mix; cli.py parses arguments and prints
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("sqcomm")):
            module = (node.module or "").removeprefix("sqcomm").lstrip(".")
            used |= {module} if module else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            used |= {a.name for a in node.names if a.name.startswith("sqcomm")}
    assert used == {"harness", "verify"}
    strings = {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)}
    assert not strings & set(harness.SWEEP_LAYOUTS)


@pytest.mark.parametrize("bad", [["3", "4"], [True, True], np.array([1.0, 2.0], dtype=object)])
def test_numeric_arrays_refuse_bool_string_and_object(bad):
    # each was parsed: ["3", "4"] built a vector of norm 5, and string or bool
    # blocks and coefficients were served
    for build in (lambda: build_sq_vector(bad), lambda: build_sq_matrix([bad]),
                  lambda: open_session_blocks(2, [], [(0, bad), (1, [1.0, 2.0])]),
                  lambda: open_session_blocks(2, [(0, [bad])], [])):
        with pytest.raises(ValueError, match="not dtype"):
            build()
    s = open_session_blocks(2, [(0, np.eye(2)), (1, np.ones((2, 2)))],
                            [(0, [1.0, 2.0]), (1, [0.5, 1.0])])
    coord_b_setup(s)
    coord_a_setup(s)
    bits = s.meter.total_bits
    with pytest.raises(ValueError, match="^coefficients must be .* not dtype"):
        lincomb_b_access(s, bad, ("query", 0))
    with pytest.raises(ValueError, match="^coefficients must be .* not dtype"):
        lincomb_a_access(s, bad, ("query", 0, 0))
    assert s.meter.total_bits == bits


def test_kind_rules_hand_on_the_array_they_were_given():
    # the oracle and sign-stack routes check their stacks without copying them
    for arr in (np.ones((2, 3)), np.ones(3, dtype=np.int8), np.ones(2, dtype=complex)):
        assert _checks.numeric_kind(arr, "entries") is arr
    floats = np.ones((4, 2))
    assert _checks.reals(floats, "entries") is floats
    assert _checks.reals([1, -1], "entries").dtype == np.float64
    with pytest.raises(ValueError, match="^entries must be integer or real numbers, not dtype"):
        _checks.reals(np.ones(2, dtype=complex), "entries")

"""The integer and bool rule is written in one module, `sqcomm._checks`:
every other module of the package calls it instead of testing types itself."""

import ast
from pathlib import Path

import sqcomm

PACKAGE = Path(sqcomm.__file__).resolve().parent
RULES = "_checks.py"


def _type_tests(tree: ast.AST) -> list:
    """Line numbers of `isinstance(..., bool)` calls (a tuple naming bool
    included) and of any `np.integer` / `numpy.integer` reference."""
    hits = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            kinds = node.args[1]
            names = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
            if any(isinstance(n, ast.Name) and n.id == "bool" for n in names):
                hits.append(node.lineno)
        if (isinstance(node, ast.Attribute) and node.attr == "integer"
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            hits.append(node.lineno)
    return hits


def test_only_the_rules_module_tests_for_integers_and_bools():
    modules = sorted(PACKAGE.glob("*.py"))
    assert RULES in {p.name for p in modules}
    found = {p.name: _type_tests(ast.parse(p.read_text(), str(p)))
             for p in modules if p.name != RULES}
    assert {name: lines for name, lines in found.items() if lines} == {}
    # the rules module itself is seen by the scan, so the test can fail
    assert _type_tests(ast.parse((PACKAGE / RULES).read_text()))

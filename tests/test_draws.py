"""Random draws stay out of the verdicts, and numpy.random out of import.

Outside the suites' seeded operand generators, no code in
``src/formcalc`` names ``default_rng``: every other verdict rests on a
residual or a certificate, never on a sample.  No statement that runs when a module of
``src/formcalc`` is imported imports or touches ``numpy.random`` or
``numpy.polynomial``, so each loads only on a path that uses it.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "formcalc"


def draws():
    """(module, top-level definition or None) of each name, attribute or
    import of ``default_rng`` in the package's code."""
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if ((isinstance(node, ast.Name) and node.id == "default_rng")
                        or (isinstance(node, ast.Attribute) and node.attr == "default_rng")
                        or (isinstance(node, ast.alias) and node.name == "default_rng")):
                    yield path.stem, getattr(top, "name", None)


def test_default_rng_only_in_operand_generators():
    found = set(draws())
    assert any(module == "suites" for module, _ in found)
    stray = {d for d in found if d[0] != "suites"}
    assert not stray, f"default_rng outside the generators: {sorted(stray)}"


LAZY = ("numpy.random", "numpy.polynomial")


def import_time(node):
    """``node`` and its descendants that run when the module is imported:
    function and lambda bodies are left out, their decorators and defaults
    are not."""
    yield node
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        children = [*getattr(node, "decorator_list", ()), *node.args.defaults,
                    *(d for d in node.args.kw_defaults if d is not None)]
    else:
        children = ast.iter_child_nodes(node)
    for child in children:
        yield from import_time(child)


def lazy_touch(node) -> bool:
    """Whether ``node`` imports numpy.random or numpy.polynomial or reads
    an attribute of that name."""
    if isinstance(node, ast.Import):
        return any(a.name.startswith(LAZY) for a in node.names)
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return (module.startswith(LAZY) or module == "numpy" and
                any(f"numpy.{a.name}" in LAZY for a in node.names))
    return isinstance(node, ast.Attribute) and f"numpy.{node.attr}" in LAZY


def import_time_touches(source: str) -> list[int]:
    return [node.lineno for top in ast.parse(source).body
            for node in import_time(top) if lazy_touch(node)]


def test_no_module_loads_random_or_polynomial_at_import():
    found = {path.stem: lines for path in sorted(PACKAGE.glob("*.py"))
             if (lines := import_time_touches(path.read_text()))}
    assert not found, f"numpy.random or numpy.polynomial at import: {found}"


@pytest.mark.parametrize("source, lines", [
    ("import numpy.random", [1]),
    ("import numpy as np\n_G = np.polynomial.legendre.leggauss(4)", [2]),
    ("from numpy import random", [1]),
    ("from numpy.polynomial import legendre", [1]),
    ("class C:\n    rng = np.random.default_rng(0)", [2]),
    ("@cache(np.random)\ndef f():\n    pass", [1]),
    ("def f(rng=np.random.default_rng()):\n    pass", [1]),
    ("def f():\n    import numpy.random\n    return np.random.default_rng()", []),
    ("g = lambda: np.polynomial", []),
])
def test_import_time_guard(source, lines):
    assert import_time_touches(source) == lines

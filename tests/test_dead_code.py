"""Every public function and method of formcalc has a caller.

A public module-level function or method of ``src/formcalc`` must be
named somewhere in ``src/``, ``tests/``, ``demos/`` or ``perfbench/``
outside its own definition: as an identifier in code, or inside a
string.  Comments do not count; names re-exported by ``__init__`` do.
"""

import ast
import io
import re
import tokenize
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "formcalc"
SEARCHED = ("src", "tests", "demos", "perfbench")
IDENT = re.compile(r"[A-Za-z_]\w*")


def public_definitions():
    """(name, file, first line, last line) of each public module-level
    function and each public method of a module-level class."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            nodes = [node]
            if isinstance(node, ast.ClassDef):
                nodes = node.body
            for fn in nodes:
                if (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not fn.name.startswith("_")):
                    start = min([fn.lineno] + [d.lineno for d in fn.decorator_list])
                    yield fn.name, path, start, fn.end_lineno


def name_occurrences():
    """name -> [(file, line)] for identifiers in code and in strings;
    the name after ``def`` is a definition, not an occurrence."""
    found = defaultdict(list)
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tokens = list(tokenize.generate_tokens(
                io.StringIO(path.read_text()).readline))
            for prev, tok in zip([None] + tokens, tokens):
                if tok.type == tokenize.NAME:
                    if not (prev is not None and prev.string == "def"):
                        found[tok.string].append((path, tok.start[0]))
                elif tok.type == tokenize.STRING:
                    for ident in IDENT.findall(tok.string):
                        found[ident].append((path, tok.start[0]))
    return found


def test_every_public_definition_is_named_elsewhere():
    occurrences = name_occurrences()
    unused = []
    for name, path, first, last in public_definitions():
        outside = [(f, line) for f, line in occurrences.get(name, [])
                   if not (f == path and first <= line <= last)]
        if not outside:
            unused.append(f"{path.relative_to(ROOT)}:{first} {name}")
    assert not unused, "public definitions nothing names:\n" + "\n".join(unused)

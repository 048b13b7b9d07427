"""Every function and method of formcalc has a caller.

A public module-level function or method of ``src/formcalc`` must be
named somewhere in ``src/``, ``tests/``, ``demos/`` or ``perfbench/``
outside its own definition: as an identifier in code, or inside a
string.  Comments do not count; names re-exported by ``__init__`` do.
A private one (a leading underscore, dunder methods aside) must be named
so in ``src/`` itself: one that only tests call is dead code.  A method
counts as named only as an attribute, right after a ``.``, so that a
JSON key, a local variable or a test name that happens to share its
name does not keep it alive.  A public one that nothing in ``src/``
outside ``__init__`` names is listed in :data:`NO_SRC_CALLER` with the
reason it stays.  Every name a module imports must be read in that
module; ``__init__`` imports to re-export.  Every field of a dataclass
must be read as an attribute, and every module-level constant somewhere.
Every parameter of a function, method or lambda must be read in its body,
unless :data:`UNREAD_PARAMETERS` lists it with the reason it stays.
The backend constants ``DENSE`` and ``SEQUENCE`` are imported only where
a backend is named, and no construction compares ``.backend`` with one.
Outside the methods of the four backend classes, nothing asks whether an
operand is an instance of one of them, unless :data:`BACKEND_BRANCHES`
lists the function with the reason.
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
IDENT = re.compile(r"(\.?)([A-Za-z_]\w*)")


def definitions(private=False):
    """(name, file, first line, last line, is method) of each public (or
    each private) module-level function and method of a module-level
    class."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            nodes = [node]
            if isinstance(node, ast.ClassDef):
                nodes = node.body
            for fn in nodes:
                if (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and fn.name.startswith("_") == private
                        and not (fn.name.startswith("__") and fn.name.endswith("__"))):
                    start = min([fn.lineno] + [d.lineno for d in fn.decorator_list])
                    yield fn.name, path, start, fn.end_lineno, fn is not node


def name_occurrences(searched=SEARCHED):
    """(all, dotted): name -> [(file, line)] for identifiers in code and
    in strings under the ``searched`` directories, and for those among
    them that follow a ``.``; the name after ``def`` is a definition, not
    an occurrence."""
    found, dotted = defaultdict(list), defaultdict(list)
    for top in searched:
        for path in sorted((ROOT / top).rglob("*.py")):
            tokens = list(tokenize.generate_tokens(
                io.StringIO(path.read_text()).readline))
            for prev, tok in zip([None] + tokens, tokens):
                where = (path, tok.start[0])
                if tok.type == tokenize.NAME:
                    if not (prev is not None and prev.string == "def"):
                        found[tok.string].append(where)
                        if prev is not None and prev.string == ".":
                            dotted[tok.string].append(where)
                elif tok.type == tokenize.STRING:
                    for dot, ident in IDENT.findall(tok.string):
                        found[ident].append(where)
                        if dot:
                            dotted[ident].append(where)
    return found, dotted


def unnamed(defs, occurrences):
    """``file:line name`` of each definition named nowhere outside itself."""
    found, dotted = occurrences
    unused = []
    for name, path, first, last, method in defs:
        outside = [(f, line) for f, line in (dotted if method else found).get(name, [])
                   if not (f == path and first <= line <= last)]
        if not outside:
            unused.append(f"{path.relative_to(ROOT)}:{first} {name}")
    return unused


def test_every_public_definition_is_named_elsewhere():
    unused = unnamed(definitions(), name_occurrences())
    assert not unused, "public definitions nothing names:\n" + "\n".join(unused)


def test_every_private_definition_has_a_caller_in_src():
    defs = list(definitions(private=True))
    assert defs
    unused = unnamed(defs, name_occurrences(("src",)))
    assert not unused, "private definitions src/ never names:\n" + "\n".join(unused)


#: public definitions that nothing in src/ outside __init__ names, each
#: with the reason it stays in the public API
NO_SRC_CALLER = {
    "basis_vector": "the coordinate vector e_i of a space, for callers building probes",
    "basis_functional": "the coordinate functional e_i of a space, the dual of basis_vector",
    "identity_operator": "the identity X -> X* on either backend, the simplest positive operator",
    "restricted_operator": "an operator on a proper domain subspace, the input Thm2 extends",
    "centered": "the centring that covariance_form leaves to its caller",
    "in_dom_Jstar": "membership in the energy space dom J* of A = JJ*, the domain of Lem3",
    "h_inner": "FactorizationResult.h_inner, the inner product of the auxiliary space H",
    "at": "Rule.at, one value of a rule, for oracles that step through n",
}


def test_public_definitions_without_a_caller_in_src_are_listed():
    init = PACKAGE / "__init__.py"
    occurrences = tuple({name: [w for w in where if w[0] != init]
                         for name, where in table.items()}
                        for table in name_occurrences(("src",)))
    uncalled = {entry.split()[-1] for entry in unnamed(definitions(), occurrences)}
    assert not uncalled - set(NO_SRC_CALLER), \
        "public definitions that lost their last caller in src/, to list with a reason " \
        f"or delete: {sorted(uncalled - set(NO_SRC_CALLER))}"
    assert not set(NO_SRC_CALLER) - uncalled, \
        f"listed definitions that src/ now names: {sorted(set(NO_SRC_CALLER) - uncalled)}"


def dataclass_fields():
    """(name, file, class, lines of the class's own statements) of each
    field of a dataclass defined in ``src/formcalc``; the lines are those
    of the class body outside its methods."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not (isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d) for d in node.decorator_list)):
                continue
            own = {line for st in node.body
                   if not isinstance(st, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for line in range(st.lineno, st.end_lineno + 1)}
            for st in node.body:
                if (isinstance(st, ast.AnnAssign) and isinstance(st.target, ast.Name)
                        and "ClassVar" not in ast.unparse(st.annotation)):
                    yield st.target.id, path, node.name, own


def test_every_dataclass_field_is_read():
    """Every field of a formcalc dataclass is read as ``.field`` in
    ``src/``, ``tests/``, ``demos/`` or ``perfbench/``, outside the
    statements of its class body; a method of the class, such as the
    ``as_dict`` of a certificate, counts.  The rule goes by name, so a
    field that shares its name with a field read elsewhere passes
    unread: ``FriedrichsResult.details`` and ``FormSumResult.details``,
    hidden behind the ``details`` of reports, were deleted by reading
    the code."""
    fields = list(dataclass_fields())
    assert fields
    _, dotted = name_occurrences()
    unread = [f"{path.relative_to(ROOT)} {cls}.{name}" for name, path, cls, own in fields
              if not any(not (f == path and line in own) for f, line in dotted.get(name, []))]
    assert not unread, "dataclass fields nothing reads:\n" + "\n".join(unread)


def unread_imports(path):
    """``file:line name`` of each name an import of ``path`` binds and the
    module never reads.  ``from __future__`` binds nothing, and a dotted
    ``import a.b`` without ``as`` is there to load the submodule, not to
    bind ``a``."""
    tree = ast.parse(path.read_text())
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unread = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.asname is None and "." in alias.name:
                    continue
                name = alias.asname or alias.name
                if name not in read:
                    unread.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    return unread


def test_every_import_is_read_in_its_module():
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    assert modules
    unread = [entry for path in modules for entry in unread_imports(path)]
    assert not unread, "imported names their module never reads:\n" + "\n".join(unread)


#: parameters their function never reads, each with the reason it stays
UNREAD_PARAMETERS = {
    "elliptic_suite(seed)": "every battery is called as _SUITES[name](seed), and the "
                            "elliptic battery draws nothing",
    # a backend primitive has one signature on both backends, which the
    # constructions call without knowing the backend
    "_order(p)": "DenseOperator._order: the dense order does not depend on the exponent; "
                 "the sequence one decides its domain inclusions on l^p",
    "_is_closed(runs)": "SesquilinearForm._is_closed: a dense form with gamma > 0 is closed "
                        "without runs; a diagonal form checks the runs it is given",
    "_is_closed(dp)": "DiagonalForm._is_closed: runs and Fatou's lemma need no space; a "
                      "dense form certifies its lower bound on it",
    "_plus(dp)": "DiagonalForm._plus: weights add with no precondition; the dense sum "
                 "certifies gamma_A > 0 on the space",
}


def unread_parameters(path):
    """(``name(parameter)``, ``file:line``) of each parameter of a
    function, method or lambda of ``path`` that its body never reads; a
    read in a nested function counts."""
    for fn in ast.walk(ast.parse(path.read_text())):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = fn.args
        params = [a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs,
                                  args.vararg, args.kwarg] if a is not None]
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        read = {node.id for st in body for node in ast.walk(st)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for name in params:
            if name not in read:
                yield (f"{getattr(fn, 'name', 'lambda')}({name})",
                       f"{path.relative_to(ROOT)}:{fn.lineno}")


def test_every_parameter_is_read():
    """A parameter nothing reads makes every caller build an argument for
    nothing."""
    unread = dict(entry for path in sorted(PACKAGE.glob("*.py"))
                  for entry in unread_parameters(path))
    assert not unread.keys() - UNREAD_PARAMETERS.keys(), "parameters nothing reads:\n" + \
        "\n".join(f"{where} {name}" for name, where in unread.items()
                  if name not in UNREAD_PARAMETERS)
    assert not UNREAD_PARAMETERS.keys() - unread.keys(), \
        f"listed parameters that are now read: {sorted(UNREAD_PARAMETERS.keys() - unread.keys())}"


CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def module_constants():
    """(name, file, first line, last line) of each module-level constant
    of ``src/formcalc``: an upper-case name bound by an assignment."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            targets = (node.targets if isinstance(node, ast.Assign) else
                       [node.target] if isinstance(node, ast.AnnAssign) else [])
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and CONSTANT.fullmatch(name.id):
                        yield name.id, path, node.lineno, node.end_lineno


def test_every_module_constant_is_read():
    """A module-level constant of ``src/formcalc`` is named somewhere in
    ``src/``, ``tests/``, ``demos/`` or ``perfbench/`` outside its own
    assignment, in code or inside a string."""
    constants = list(module_constants())
    assert constants
    found, _ = name_occurrences()
    unread = [f"{path.relative_to(ROOT)}:{first} {name}" for name, path, first, last in constants
              if not any(not (f == path and first <= line <= last)
                         for f, line in found.get(name, []))]
    assert not unread, "module constants nothing reads:\n" + "\n".join(unread)


#: the modules that may name a backend by its constant: the form classes,
#: the wire readers and the scenario handlers; ``duality`` defines them
BACKEND_CONSTANT_IMPORTERS = {"forms", "reporting", "scenarios"}
#: the constructions, which pick a backend's half by the operand's class
CONSTRUCTIONS = ("forms", "friedrichs", "formsum", "ordering", "covariance")


def test_backend_constants_are_imported_only_where_a_backend_is_named():
    importers = {path.stem for path in PACKAGE.glob("*.py")
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.ImportFrom)
                 and {"DENSE", "SEQUENCE"} & {alias.name for alias in node.names}}
    assert importers <= BACKEND_CONSTANT_IMPORTERS, \
        f"modules importing DENSE or SEQUENCE: {sorted(importers - BACKEND_CONSTANT_IMPORTERS)}"


def is_constant(node):
    """A literal, an upper-case name, or a tuple, list or set of them."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return all(map(is_constant, node.elts))
    return (isinstance(node, ast.Constant)
            or isinstance(node, ast.Name) and CONSTANT.fullmatch(node.id) is not None)


def test_no_construction_compares_a_backend_with_a_constant():
    """A construction with both backends calls the primitives of its
    operand's class, not a half picked by comparing ``.backend`` with
    ``DENSE``, ``SEQUENCE`` or a string."""
    found = []
    for name in CONSTRUCTIONS:
        path = PACKAGE / f"{name}.py"
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Compare):
                sides = [node.left, *node.comparators]
                if (any(isinstance(s, ast.Attribute) and s.attr == "backend" for s in sides)
                        and any(map(is_constant, sides))):
                    found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert not found, "backend compared with a constant:\n" + "\n".join(found)


#: the operator and form classes of the two backends, whose methods are
#: the backend implementations of the primitives
BACKEND_CLASSES = {"DenseOperator", "DiagonalOperator", "SesquilinearForm", "DiagonalForm"}
#: functions outside those methods that branch on one of the classes,
#: each with the reason
BACKEND_BRANCHES = {
    "form_of_operator": "the form classes are defined in forms, which builds on the "
                        "operator classes of duality, so an operator cannot name its "
                        "form's class: the one place a form's class follows its operator's",
}


def backend_branches():
    """(function, ``file:line``) of each ``isinstance`` call in
    ``src/formcalc`` whose class argument names a backend class, outside
    the methods of those classes."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        inside = {line for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name in BACKEND_CLASSES
                  for line in range(node.lineno, node.end_lineno + 1)}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for call in ast.walk(fn):
                if (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                        and call.func.id == "isinstance" and len(call.args) == 2
                        and {n.id for n in ast.walk(call.args[1])
                             if isinstance(n, ast.Name)} & BACKEND_CLASSES
                        and call.lineno not in inside):
                    yield fn.name, f"{path.relative_to(ROOT)}:{call.lineno}"


def test_constructions_do_not_branch_on_the_backend_class():
    """Each construction with both backends is written once on the
    primitives the operand's class implements, so nothing outside those
    classes asks which class an operand has."""
    found = dict(backend_branches())
    assert not found.keys() - BACKEND_BRANCHES.keys(), "backend branches:\n" + "\n".join(
        f"{where} {name}" for name, where in found.items() if name not in BACKEND_BRANCHES)
    assert not BACKEND_BRANCHES.keys() - found.keys(), \
        f"listed functions that no longer branch: {sorted(BACKEND_BRANCHES.keys() - found.keys())}"

"""In-memory spans around formcalc's public functions, from outside formcalc.

``install`` wraps every public function of every formcalc module, every
public method of the classes they define (construction of a class that
validates in ``__post_init__`` counts as ``<module>.<Class>``), and the
numpy/scipy linear-algebra entry points formcalc calls (``lapack.<kind>``).
Each call appends one span: name, start, end, parent span and the id of
the scenario or suite check it belongs to.  Spans stay in flat arrays
until ``save`` writes them; ``summary`` derives self time (a span minus
its child spans) and call counts per name.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time
from array import array
from collections import defaultdict

# calls that start a new scenario or suite check; their first argument
# names it.  A suite check's own work runs inside _guard, which gets no
# span of its own, so that work counts as self time of its battery.
GROUP_BOUNDARIES = {"formcalc.scenarios.run_scenario": lambda a: str(a[0].get("id")),
                    "formcalc.suites._guard": lambda a: str(a[0])}
SPANLESS = {"formcalc.suites._guard"}

# per-element readers called once per matrix entry: a span each would
# cost more than the call and land as self time of the enclosing reader
UNWRAPPED = {"formcalc.reporting.complex_from_json"}

# name groups: several functions reported under one layer name
ALIASES = {"reporting.write_report": "reporting.write",
           "reporting.write_csv": "reporting.write"}

LAPACK = {
    "eigh": [("numpy.linalg", "eigvalsh"), ("numpy.linalg", "eigh"),
             ("scipy.linalg", "eigh"), ("scipy.linalg", "eigvalsh")],
    "eig": [("numpy.linalg", "eigvals"), ("numpy.linalg", "eig")],
    # the numpy global also serves norm(M, 2) and matrix_rank; the scipy
    # one serves orth
    "svd": [("numpy.linalg", "svd"), ("numpy.linalg._linalg", "svd"),
            ("scipy.linalg._decomp_svd", "svd")],
    "solve": [("numpy.linalg", "solve"), ("numpy.linalg", "inv"),
              ("numpy.linalg", "lstsq"), ("scipy.linalg", "cho_solve"),
              ("scipy.linalg", "solve_triangular"), ("scipy.linalg", "solveh_banded")],
    "cholesky": [("scipy.linalg", "cholesky"), ("scipy.linalg", "cho_factor")],
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.groups: list[str] = [""]
        self.name = array("i")
        self.parent = array("i")
        self.group = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.current_group = 0
        self.term_evals = 0
        self.max_rule_terms = 0

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name, group_of=None, span=True):
        nid = self._name_id(name) if span else -1
        clock = time.perf_counter
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            saved = tr.current_group
            if group_of is not None:
                tr.groups.append(group_of(args))
                tr.current_group = len(tr.groups) - 1
            if not span:
                try:
                    return fn(*args, **kwargs)
                finally:
                    tr.current_group = saved
            i = len(tr.start)
            tr.name.append(nid)
            tr.parent.append(tr.stack[-1] if tr.stack else -1)
            tr.group.append(tr.current_group)
            tr.end.append(0.0)
            tr.stack.append(i)
            tr.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                tr.end[i] = clock()
                tr.stack.pop()
                tr.current_group = saved

        traced.__wrapped_by_tracer__ = True
        return traced

    # -- installation ------------------------------------------------------

    def install(self):
        import formcalc

        modules = [importlib.import_module(f"formcalc.{m.name}")
                   for m in pkgutil.iter_modules(formcalc.__path__)]
        replaced = {}
        for mod in modules:
            short = mod.__name__.split(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    full = f"{mod.__name__}.{attr}"
                    if (attr.startswith("_") and full not in GROUP_BOUNDARIES
                            or full in UNWRAPPED):
                        continue
                    name = ALIASES.get(f"{short}.{attr}", f"{short}.{attr}")
                    if short == "reporting" and attr.endswith("_from_json"):
                        name = "reporting.parse"
                    replaced[obj] = self.wrap(obj, name, GROUP_BOUNDARIES.get(full),
                                              span=full not in SPANLESS)
                elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                      and not attr.startswith("_")):
                    self._wrap_class(obj, short)
        for mod in [formcalc] + modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, attr, replaced[obj])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and val in replaced:
                            obj[key] = replaced[val]
        self._install_lapack()
        self._install_rule_counter()

    def _wrap_class(self, cls, short):
        methods = {k: v for k, v in vars(cls).items() if inspect.isfunction(v)}
        for attr, fn in methods.items():
            if attr == "__post_init__":
                name = f"{short}.{cls.__name__}"
            elif attr == "__call__":
                name = f"{short}.{cls.__name__}.__call__"
            elif not attr.startswith("_"):
                name = f"{short}.{attr}"
            else:
                continue
            setattr(cls, attr, self.wrap(fn, name))

    def _install_lapack(self):
        for kind, places in LAPACK.items():
            for modname, attr in places:
                mod = importlib.import_module(modname)
                fn = getattr(mod, attr)
                if getattr(fn, "__wrapped_by_tracer__", False):
                    continue
                setattr(mod, attr, self.wrap(fn, f"lapack.{kind}"))
        # numpy.linalg.svd and numpy.linalg._linalg.svd start as one object
        import numpy.linalg
        import numpy.linalg._linalg
        numpy.linalg.svd = numpy.linalg._linalg.svd

    def _install_rule_counter(self):
        from formcalc import series

        traced_call = series.Rule.__call__
        tr = self

        def counting_call(rule, n):
            size = getattr(n, "size", None)
            if size is None:
                size = len(n) if hasattr(n, "__len__") else 1
            terms = len(rule.terms)
            tr.term_evals += terms * int(size)
            if terms > tr.max_rule_terms:
                tr.max_rule_terms = terms
            return traced_call(rule, n)

        series.Rule.__call__ = counting_call

    # -- results -------------------------------------------------------------

    def summary(self) -> dict:
        """Per name: calls and self time; plus the eigensolves inside
        ``ordering.compare`` spans."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for i in range(n):
            name = self.names[self.name[i]]
            calls[name] += 1
            self_s[name] += (self.end[i] - self.start[i]) - child[i]
        compare = self._name_ids.get("ordering.compare", -2)
        eigh = self._name_ids.get("lapack.eigh", -2)
        in_compare = 0
        for i in range(n):
            if self.name[i] != eigh:
                continue
            p = self.parent[i]
            while p >= 0 and self.name[p] != compare:
                p = self.parent[p]
            in_compare += p >= 0
        return {"calls": dict(calls), "self_s": dict(self_s), "spans": n,
                "eigh_in_compare": in_compare, "term_evals": self.term_evals,
                "max_rule_terms": self.max_rule_terms}

    def save(self, path):
        """Write the spans as JSON lines: one header, then one span per line
        as [name, start, end, parent, group]."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names, "groups": self.groups}) + "\n")
            for i in range(len(self.start)):
                fh.write(f"[{self.name[i]},{self.start[i]!r},{self.end[i]!r},"
                         f"{self.parent[i]},{self.group[i]}]\n")

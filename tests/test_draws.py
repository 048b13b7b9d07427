"""Random draws stay out of the verdicts.

Outside the suites' seeded operand generators and the elliptic probe set
(:func:`formcalc.elliptic.smooth_probe_set`), no code in ``src/formcalc``
names ``default_rng``: every other verdict rests on a residual or a
certificate, never on a sample.
"""

import ast
from pathlib import Path

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


def test_default_rng_only_in_operand_generators_and_probe_set():
    found = set(draws())
    assert ("elliptic", "smooth_probe_set") in found
    assert any(module == "suites" for module, _ in found)
    stray = {d for d in found
             if d[0] != "suites" and d != ("elliptic", "smooth_probe_set")}
    assert not stray, f"default_rng outside the generators: {sorted(stray)}"

"""A fixed small grammar for coefficient rules over x.

Problem definitions carry coefficients as expression strings.  The
grammar is deliberately tiny: +, -, *, /, ^ (also **), exp, sin, cos,
numeric literals, pi and the variable x.  Parsing goes through the ast
module with a whitelist; anything else is rejected.  Every numeric
literal is read as a float, so no rule computes with Python integers,
whose powers grow without bound: ``9^9^9`` overflows at once instead of
building a number of a billion bits.
"""

from __future__ import annotations

import ast
import math
from typing import Callable

import numpy as np

_ALLOWED_CALLS = {"exp": np.exp, "sin": np.sin, "cos": np.cos}
_ALLOWED_NAMES = {"pi": math.pi, "x": None}


class ExpressionError(ValueError):
    pass


def _check(node: ast.AST):
    if isinstance(node, ast.Expression):
        _check(node.body)
    elif isinstance(node, ast.BinOp):
        if not isinstance(node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)):
            raise ExpressionError("operator outside the grammar")
        _check(node.left)
        _check(node.right)
    elif isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, (ast.UAdd, ast.USub)):
            raise ExpressionError("unary operator outside the grammar")
        _check(node.operand)
    elif isinstance(node, ast.Call):
        if (not isinstance(node.func, ast.Name)
                or node.func.id not in _ALLOWED_CALLS
                or len(node.args) != 1 or node.keywords):
            raise ExpressionError("call outside the grammar")
        _check(node.args[0])
    elif isinstance(node, ast.Name):
        if node.id not in _ALLOWED_NAMES:
            raise ExpressionError(f"unknown name {node.id!r}")
    elif isinstance(node, ast.Constant):
        if type(node.value) not in (int, float):     # bool is refused too
            raise ExpressionError("only numeric literals allowed")
        node.value = float(node.value)
        if not math.isfinite(node.value):     # "1e400" parses as inf
            raise OverflowError
    else:
        raise ExpressionError(f"syntax outside the grammar: {type(node).__name__}")


def compile_rule(text: str) -> Callable[[np.ndarray], np.ndarray]:
    """Compile an expression string to a vectorized function of x.  Text
    outside the grammar, a numeric literal beyond the float range and
    nesting deeper than the parser, the checker or the compiler recurse
    raise :class:`ExpressionError`."""
    shown = repr(text if len(text) <= 60 else text[:57] + "...")
    try:
        tree = ast.parse(text.replace("^", "**"), mode="eval")
        _check(tree)
        code = compile(tree, "<coefficient-rule>", "eval")
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse {shown}") from exc
    except (MemoryError, RecursionError) as exc:
        raise ExpressionError(f"{shown} is nested too deeply") from exc
    except OverflowError as exc:
        raise ExpressionError(f"a numeric literal of {shown} is out of "
                              "range") from exc
    env = {**_ALLOWED_CALLS, **_ALLOWED_NAMES, "__builtins__": {}}

    def fn(x):
        x = np.asarray(x, dtype=float)
        out = eval(code, env, {"x": x})
        return np.broadcast_to(np.asarray(out, dtype=float), x.shape).copy()

    return fn

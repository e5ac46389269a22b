"""Catalogue of symmetric edge-weight functions f(x,y) and the P* checker.

P* bundles three conditions on a symmetric bivariate function, checked here
on the integer degree grid {1..d_max}^2:

  (i)   increasing in x,
  (ii)  convex in x (discrete second difference >= 0),
  (iii) f(x1,y1) >= f(x2,y2) whenever |x1-y1| > |x2-y2| and x1+y1 = x2+y2.

"Increasing" and "convex" are read non-strictly so the constant function
qualifies; a report flags passes that rely on equality somewhere.  An exp_
kind e**g is checked on the table of its exponent g, within float range.
"""

from __future__ import annotations

import ast
import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Union

Num = Union[int, float, Fraction]


class WeightSpecError(ValueError):
    """Malformed or invalid weight-function specification."""


@dataclass(frozen=True)
class WeightFunction:
    """Tagged description of a symmetric weight function f(x,y)."""

    kind: str
    alpha: Optional[float] = None
    beta: Optional[float] = None
    expression: Optional[str] = None

    def __post_init__(self):
        if self.kind not in _CATALOGUE:
            raise WeightSpecError(f"unknown weight kind {self.kind!r}")
        for param in ("alpha", "beta"):  # each one its kind takes, and no other, finite
            takes, value = param in _CATALOGUE[self.kind][0], getattr(self, param)
            if takes == (value is None):
                verb = "requires" if takes else "takes no"
                raise WeightSpecError(f"{self.kind} {verb} parameter {param}")
            if value is not None and not -math.inf < value < math.inf:  # NaN fails it too
                raise WeightSpecError(f"{self.kind} parameter {param} must be finite, got {value}")
        if self.kind == "custom":
            if not self.expression:
                raise WeightSpecError("custom weight requires an expression")
            _validate_custom(self.expression)

    def label(self) -> str:
        if self.kind == "custom":
            return f"custom:{self.expression}"
        parts = [f"{key}={_fmt_param(val)}" for key, val in (("a", self.alpha), ("b", self.beta))
                 if val is not None]
        return self.kind + (":" + ",".join(parts) if parts else "")


def _fmt_param(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else str(x)


def _is_int(x) -> bool:
    return isinstance(x, int) or (isinstance(x, float) and x.is_integer())


def _pow(base: Num, expo: float) -> Num:
    """base**expo, exact when the exponent is a (nonneg-on-zero) integer and the power
    stays within twice float range; beyond, a float that overflows or underflows to 0."""
    if _is_int(expo):
        e = int(expo)
        if isinstance(base, (int, Fraction)) and (base != 0 or e >= 0):
            bits = abs(e) * (max(abs(base.numerator), base.denominator).bit_length() - 1)
            if bits <= 2 * sys.float_info.max_exp:  # about log2 of base**e's numerator or denominator
                return base ** e
        return float(base) ** e
    return math.pow(float(base), float(expo))  # a negative base raises ValueError, not a complex


@lru_cache(maxsize=None, typed=True)  # typed: int and Fraction degrees give different floats
def evaluate(f: WeightFunction, x: Num, y: Num) -> float:
    """f(x,y) as a float; defined for x,y >= 1, memoised per (f, x, y).  A value
    beyond float range raises WeightSpecError naming the weight and the degree pair."""
    try:
        val = float(_evaluate_generic(f, x, y))
    except OverflowError:
        val = math.inf
    if math.isinf(val):
        raise WeightSpecError(f"{f.label()} overflows a float at degrees ({x},{y})")
    return val


def evaluate_exact(f: WeightFunction, x: int, y: int) -> Optional[Union[int, Fraction]]:
    """f(x,y) as an exact rational, or None when the value is irrational;
    an int when the value is integral (so exact callers run on native ints).
    A float from the int degrees (`int ** -1` is one) is tried again at
    Fraction degrees, which keep negative integer powers exact."""
    try:
        val = _evaluate_generic(f, x, y)
        if isinstance(val, float):
            val = _evaluate_generic(f, Fraction(x), Fraction(y))
    except OverflowError:  # a float beyond range is no rational value either
        return None
    if not isinstance(val, (int, Fraction)):
        return None
    return val.numerator if val.denominator == 1 else val


def _extended(x: Num, y: Num, alpha, beta) -> Num:
    if isinstance(x, (int, Fraction)) and isinstance(y, (int, Fraction)):
        return Fraction(x, 2 * y) + Fraction(y, 2 * x)
    return 0.5 * (x / y + y / x)


# kind -> (parameters it requires, f(x, y, alpha, beta)), in BUILTIN_KINDS order;
# an exp_ kind is e**(its inner kind), and a custom kind evaluates its expression
_CATALOGUE = {
    "constant_one": ((), lambda x, y, a, b: 1),
    "zagreb1": ((), lambda x, y, a, b: x + y),
    "hyper_zagreb": ((), lambda x, y, a, b: (x + y) ** 2),
    "forgotten": ((), lambda x, y, a, b: x * x + y * y),
    "sum_connectivity": (("alpha",), lambda x, y, a, b: _pow(x + y, a)),
    "platt": (("alpha",), lambda x, y, a, b: _pow(x + y - 2, a)),
    "sombor": (("alpha", "beta"), lambda x, y, a, b: _pow(_pow(x, a) + _pow(y, a), b)),
    "exp_zagreb1": ((), None),
    "exp_sum_connectivity": (("alpha",), None),
    "exp_sombor": (("alpha", "beta"), None),
    "extended": ((), _extended),
    "custom": ((), None),
}
BUILTIN_KINDS = tuple(_CATALOGUE)


def _evaluate_generic(f: WeightFunction, x: Num, y: Num) -> Num:
    if x < 1 or y < 1:
        raise WeightSpecError(f"weight functions are defined for x,y >= 1, got ({x},{y})")
    kind = f.kind.removeprefix("exp_")
    try:
        val = (_eval_custom(f.expression, x, y) if kind == "custom"
               else _CATALOGUE[kind][1](x, y, f.alpha, f.beta))
    except WeightSpecError:
        raise
    except (ZeroDivisionError, ValueError) as exc:  # 0 to a negative power, log(0), ...
        raise WeightSpecError(f"{f.label()} is undefined at degrees ({x},{y})") from exc
    return val if kind == f.kind else math.exp(val)


# ---------------------------------------------------------------------------
# Custom expressions: small arithmetic AST evaluator ('^' means power)
# ---------------------------------------------------------------------------

_BINOPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: None,  # handled exactly below
    ast.Pow: None,
}

_FUNCS = {"exp": math.exp, "sqrt": math.sqrt, "log": math.log, "min": min, "max": max}


@lru_cache
def _parse_expr(expr: str) -> ast.expr:
    try:
        tree = ast.parse(expr.replace("^", "**"), mode="eval")
    except SyntaxError as exc:
        raise WeightSpecError(f"cannot parse custom expression {expr!r}: {exc}") from exc
    return tree.body


def _eval_node(node: ast.expr, env: dict) -> Num:
    if isinstance(node, ast.Constant):
        if isinstance(node.value, bool) or not isinstance(node.value, (int, float)):
            raise WeightSpecError(f"unsupported constant {node.value!r}")
        return Fraction(node.value) if isinstance(node.value, int) else node.value
    if isinstance(node, ast.Name):
        if node.id in env:
            return env[node.id]
        raise WeightSpecError(f"unknown name {node.id!r} in custom expression")
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        val = _eval_node(node.operand, env)
        return -val if isinstance(node.op, ast.USub) else val
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        a = _eval_node(node.left, env)
        b = _eval_node(node.right, env)
        if isinstance(node.op, ast.Div):
            if isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction)):
                return Fraction(a) / Fraction(b)
            return a / b
        if isinstance(node.op, ast.Pow):
            return _pow(a, float(b))
        return _BINOPS[type(node.op)](a, b)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in _FUNCS:
        args = [_eval_node(arg, env) for arg in node.args]
        return _FUNCS[node.func.id](*[float(a) for a in args])
    raise WeightSpecError(f"unsupported syntax in custom expression: {ast.dump(node)}")


def _eval_custom(expr: str, x: Num, y: Num) -> Num:
    return _eval_node(_parse_expr(expr), {"x": x, "y": y, "e": math.e, "pi": math.pi})


CUSTOM_CHECK_GRID = 12  # custom expressions are validated on degrees {1..CUSTOM_CHECK_GRID}^2


def _validate_custom(expr: str) -> None:
    """Reject custom expressions that are asymmetric, non-finite or <= 0 on the grid."""
    node = _parse_expr(expr)
    env = {"e": math.e, "pi": math.pi}
    for x in range(1, CUSTOM_CHECK_GRID + 1):
        for y in range(x, CUSTOM_CHECK_GRID + 1):
            try:
                vxy = _eval_node(node, {**env, "x": Fraction(x), "y": Fraction(y)})
                vyx = _eval_node(node, {**env, "x": Fraction(y), "y": Fraction(x)})
                fxy, fyx = float(vxy), float(vyx)
            except OverflowError:
                fxy = fyx = math.inf
            except WeightSpecError:
                raise
            except (ZeroDivisionError, ValueError) as exc:
                raise WeightSpecError(f"custom expression {expr!r} is undefined at ({x},{y})") from exc
            if not (math.isfinite(fxy) and math.isfinite(fyx)):
                raise WeightSpecError(f"custom expression is non-finite at ({x},{y})")
            if fxy <= 0:
                raise WeightSpecError(f"custom expression is not positive at ({x},{y}): {fxy}")
            if vxy != vyx and abs(fxy - fyx) > 1e-9 * max(1.0, abs(fxy)):
                raise WeightSpecError(f"custom expression is not symmetric at ({x},{y})")


# ---------------------------------------------------------------------------
# Text syntax: "zagreb1", "sombor:a=2,b=1", "custom:(x+y)^3"
# ---------------------------------------------------------------------------

_ALIASES = {"1": "constant_one", "one": "constant_one", "const": "constant_one"}
_PARAMETERS = {"a": "alpha", "alpha": "alpha", "b": "beta", "beta": "beta"}  # spelling -> field


def parse_weight(text: str) -> WeightFunction:
    text = text.strip()
    head, _, rest = text.partition(":")
    head = _ALIASES.get(head, head)
    if head == "custom":
        return WeightFunction("custom", expression=rest)
    if head not in BUILTIN_KINDS:
        raise WeightSpecError(f"unknown weight kind {head!r}")
    params = {}
    if rest:
        for item in rest.split(","):
            key, _, val = item.partition("=")
            key = key.strip().lower()
            try:
                num = float(val)
            except ValueError as exc:
                raise WeightSpecError(f"bad parameter value {val!r}") from exc
            if key not in _PARAMETERS:
                raise WeightSpecError(f"unknown parameter {key!r}")
            if _PARAMETERS[key] in params:
                raise WeightSpecError(f"parameter {_PARAMETERS[key]} given twice")
            params[_PARAMETERS[key]] = num
    return WeightFunction(head, **params)


# ---------------------------------------------------------------------------
# P* checker
# ---------------------------------------------------------------------------


def rational_pstar_functions() -> tuple[WeightFunction, ...]:
    """Rational-valued members of the P* catalogue, used wherever exact
    arithmetic is required (quotient identities, sign certificates)."""
    return (
        WeightFunction("zagreb1"),
        WeightFunction("hyper_zagreb"),
        WeightFunction("forgotten"),
        WeightFunction("sum_connectivity", alpha=3),
        WeightFunction("platt", alpha=2),
        WeightFunction("sombor", alpha=2, beta=2),
    )


@dataclass(frozen=True)
class PStarReport:
    passes: bool
    failed_condition: Optional[str]  # "i_monotone" | "ii_convex" | "iii_spread"
    witness: Optional[tuple]
    only_nonstrict: bool = False

    def __post_init__(self):
        assert (self.witness is not None) == (not self.passes)


def _grid_values(f: WeightFunction, d_max: int):
    """Dense table of f on {1..d_max}^2, exact ints or Fractions when available."""
    exact = evaluate_exact(f, 2, 3) is not None
    val = {}
    for x in range(1, d_max + 1):
        for y in range(x, d_max + 1):
            v = evaluate_exact(f, x, y) if exact else None
            if v is None:
                exact = False
                v = evaluate(f, x, y)
            val[(x, y)] = val[(y, x)] = v
    return val, exact


@lru_cache(maxsize=256)
def check_pstar(f: WeightFunction, d_max: int = 20) -> PStarReport:
    """Check P* conditions (i)-(iii) on the integer grid {1..d_max}^2.

    Comparisons are exact for rational-valued weights; otherwise a relative
    slack of 1e-12 absorbs floating-point noise.  An exp_ kind f = e**g is
    checked on g's table, so no value leaves float range: exp is increasing,
    so (i) and (iii) compare g (exactly when g is rational), and (ii) takes
    the sign of the second difference over f(x+1,y),
    e**(g(x+2,y)-g(x+1,y)) - 2 + e**(g(x,y)-g(x+1,y)), an overflow read as
    +inf; the witnesses carry these g values and quotients.  Returns the
    first violating witness, scanning condition (i), then (ii), then (iii).
    Memoised per (f, d_max): f is frozen and the report immutable.
    """
    if d_max < 2:
        raise WeightSpecError("check_pstar requires d_max >= 2")
    expo = f.kind.startswith("exp_")
    val, exact = _grid_values(WeightFunction(f.kind[4:], f.alpha, f.beta) if expo else f, d_max)

    def lt(a, b, exact=exact):  # a < b beyond tolerance
        if exact:
            return a < b
        return a < b - 1e-12 * max(1.0, abs(a), abs(b))

    tie = False
    # (i) increasing in x
    for y in range(1, d_max + 1):
        for x in range(1, d_max):
            lo, hi = val[(x, y)], val[(x + 1, y)]
            if lt(hi, lo):
                return PStarReport(False, "i_monotone", ((x, y), (x + 1, y), lo, hi))
            tie = tie or lo == hi
    # (ii) convex in x
    for y in range(1, d_max + 1):
        for x in range(1, d_max - 1):
            lo, mid, hi = val[(x, y)], val[(x + 1, y)], val[(x + 2, y)]
            # over f(x+1,y) for exp_; e**709 - 2 > 0, so the caps keep an overflow's sign
            second = (math.exp(min(hi - mid, 709)) - 2 + math.exp(min(lo - mid, 709)) if expo
                      else hi - 2 * mid + lo)
            if lt(second, 0, exact and not expo):
                return PStarReport(False, "ii_convex", ((x, y), (x + 1, y), (x + 2, y), second))
            tie = tie or second == 0
    # (iii) spread condition at equal degree sums
    for s in range(2, 2 * d_max + 1):
        pairs = [(x, s - x) for x in range((s + 1) // 2, d_max + 1) if 1 <= s - x <= x]
        pairs.sort(key=lambda p: p[0] - p[1])  # increasing spread
        for (x2, y2), (x1, y1) in zip(pairs, pairs[1:]):
            lo, hi = val[(x2, y2)], val[(x1, y1)]
            if lt(hi, lo):
                return PStarReport(False, "iii_spread", ((x1, y1), (x2, y2), hi, lo))
            tie = tie or lo == hi
    return PStarReport(True, None, None, only_nonstrict=tie)

"""Catalogue of symmetric edge-weight functions f(x,y) and the P* checker.

P* bundles three conditions on a symmetric bivariate function, checked here
on the integer degree grid {1..d_max}^2:

  (i)   increasing in x,
  (ii)  convex in x (discrete second difference >= 0),
  (iii) f(x1,y1) >= f(x2,y2) whenever |x1-y1| > |x2-y2| and x1+y1 = x2+y2.

"Increasing" and "convex" are read non-strictly so the constant function
qualifies; a report flags passes that rely on equality somewhere.
"""

from __future__ import annotations

import ast
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Union

Num = Union[int, float, Fraction]


class WeightSpecError(ValueError):
    """Malformed or invalid weight-function specification."""


BUILTIN_KINDS = (
    "constant_one",
    "zagreb1",
    "hyper_zagreb",
    "forgotten",
    "sum_connectivity",
    "platt",
    "sombor",
    "exp_zagreb1",
    "exp_sum_connectivity",
    "exp_sombor",
    "extended",
    "custom",
)

_NEEDS_ALPHA = {"sum_connectivity", "platt", "sombor", "exp_sum_connectivity", "exp_sombor"}
_NEEDS_BETA = {"sombor", "exp_sombor"}


@dataclass(frozen=True)
class WeightFunction:
    """Tagged description of a symmetric weight function f(x,y)."""

    kind: str
    alpha: Optional[float] = None
    beta: Optional[float] = None
    expression: Optional[str] = None

    def __post_init__(self):
        if self.kind not in BUILTIN_KINDS:
            raise WeightSpecError(f"unknown weight kind {self.kind!r}")
        if self.kind in _NEEDS_ALPHA and self.alpha is None:
            raise WeightSpecError(f"{self.kind} requires parameter alpha")
        if self.kind in _NEEDS_BETA and self.beta is None:
            raise WeightSpecError(f"{self.kind} requires parameter beta")
        if self.kind == "custom":
            if not self.expression:
                raise WeightSpecError("custom weight requires an expression")
            _validate_custom(self.expression)

    def label(self) -> str:
        if self.kind == "custom":
            return f"custom:{self.expression}"
        parts = []
        if self.alpha is not None:
            parts.append(f"a={_fmt_param(self.alpha)}")
        if self.beta is not None:
            parts.append(f"b={_fmt_param(self.beta)}")
        return self.kind + (":" + ",".join(parts) if parts else "")


def _fmt_param(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else str(x)


def _is_int(x) -> bool:
    return isinstance(x, int) or (isinstance(x, float) and x.is_integer())


def _pow(base: Num, expo: float) -> Num:
    """base**expo, exact when the exponent is a (nonneg-on-zero) integer."""
    if _is_int(expo):
        e = int(expo)
        if isinstance(base, (int, Fraction)) and (base != 0 or e >= 0):
            return base ** e
        return float(base) ** e
    return float(base) ** float(expo)


def evaluate(f: WeightFunction, x: Num, y: Num) -> float:
    """f(x,y) as a float; defined for x,y >= 1."""
    return float(_evaluate_generic(f, x, y))


def evaluate_exact(f: WeightFunction, x: int, y: int) -> Optional[Fraction]:
    """f(x,y) as an exact rational, or None when the value is irrational."""
    val = _evaluate_generic(f, Fraction(x), Fraction(y))
    return val if isinstance(val, (int, Fraction)) else None


def _evaluate_generic(f: WeightFunction, x: Num, y: Num) -> Num:
    if x < 1 or y < 1:
        raise WeightSpecError(f"weight functions are defined for x,y >= 1, got ({x},{y})")
    k = f.kind
    if k == "constant_one":
        return Fraction(1)
    if k == "zagreb1":
        return x + y
    if k == "hyper_zagreb":
        return (x + y) ** 2
    if k == "forgotten":
        return x * x + y * y
    if k == "sum_connectivity":
        return _pow(x + y, f.alpha)
    if k == "platt":
        return _pow(x + y - 2, f.alpha)
    if k == "sombor":
        return _pow(_pow(x, f.alpha) + _pow(y, f.alpha), f.beta)
    if k == "exp_zagreb1":
        return math.exp(x + y)
    if k == "exp_sum_connectivity":
        return math.exp(_pow(x + y, f.alpha))
    if k == "exp_sombor":
        return math.exp(_pow(_pow(x, f.alpha) + _pow(y, f.alpha), f.beta))
    if k == "extended":
        if isinstance(x, (int, Fraction)) and isinstance(y, (int, Fraction)):
            return Fraction(x, 2 * y) + Fraction(y, 2 * x)
        return 0.5 * (x / y + y / x)
    if k == "custom":
        return _eval_custom(f.expression, x, y)
    raise WeightSpecError(f"unknown weight kind {k!r}")


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


def _validate_custom(expr: str, grid: int = 12) -> None:
    """Reject custom expressions that are asymmetric, non-finite or <= 0 on the grid."""
    node = _parse_expr(expr)
    env = {"e": math.e, "pi": math.pi}
    for x in range(1, grid + 1):
        for y in range(x, grid + 1):
            vxy = _eval_node(node, {**env, "x": Fraction(x), "y": Fraction(y)})
            vyx = _eval_node(node, {**env, "x": Fraction(y), "y": Fraction(x)})
            fxy, fyx = float(vxy), float(vyx)
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


def parse_weight(text: str) -> WeightFunction:
    text = text.strip()
    head, _, rest = text.partition(":")
    head = _ALIASES.get(head, head)
    if head == "custom":
        return WeightFunction("custom", expression=rest)
    if head not in BUILTIN_KINDS:
        raise WeightSpecError(f"unknown weight kind {head!r}")
    alpha = beta = None
    if rest:
        for item in rest.split(","):
            key, _, val = item.partition("=")
            key = key.strip().lower()
            try:
                num = float(val)
            except ValueError as exc:
                raise WeightSpecError(f"bad parameter value {val!r}") from exc
            if key in ("a", "alpha"):
                alpha = num
            elif key in ("b", "beta"):
                beta = num
            else:
                raise WeightSpecError(f"unknown parameter {key!r}")
    return WeightFunction(head, alpha=alpha, beta=beta)


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


def _mp_value(f: WeightFunction, x: int, y: int):
    """Arbitrary-precision value for exponential kinds whose float value
    overflows (the exponent itself stays small)."""
    import mpmath

    inner = {"exp_zagreb1": "zagreb1", "exp_sum_connectivity": "sum_connectivity",
             "exp_sombor": "sombor"}
    g = WeightFunction(inner[f.kind], alpha=f.alpha, beta=f.beta)
    return mpmath.exp(mpmath.mpf(evaluate(g, x, y)))


def _grid_values(f: WeightFunction, d_max: int):
    """Dense table of f on {1..d_max}^2, exact rationals when available."""
    probe = evaluate_exact(f, 2, 3)
    exact = probe is not None
    val = {}
    overflow = False
    for x in range(1, d_max + 1):
        for y in range(x, d_max + 1):
            try:
                v = evaluate_exact(f, x, y) if exact else evaluate(f, x, y)
                if v is None:
                    exact = False
                    v = evaluate(f, x, y)
                if not exact and math.isinf(v):
                    overflow = True
            except OverflowError:
                overflow = True
                v = math.inf
            val[(x, y)] = val[(y, x)] = v
    if overflow:
        if not f.kind.startswith("exp_"):
            raise WeightSpecError(f"{f.label()} overflows on the grid up to {d_max}")
        for x in range(1, d_max + 1):
            for y in range(x, d_max + 1):
                val[(x, y)] = val[(y, x)] = _mp_value(f, x, y)
        exact = False
    return val, exact


@lru_cache(maxsize=256)
def check_pstar(f: WeightFunction, d_max: int = 20) -> PStarReport:
    """Check P* conditions (i)-(iii) on the integer grid {1..d_max}^2.

    Comparisons are exact for rational-valued weights; otherwise a relative
    slack of 1e-12 absorbs floating-point noise.  Returns the first violating
    witness, scanning condition (i), then (ii), then (iii).  Memoised per
    (f, d_max): f is frozen and the report immutable.
    """
    if d_max < 2:
        raise WeightSpecError("check_pstar requires d_max >= 2")
    val, exact = _grid_values(f, d_max)

    def lt(a, b):  # a < b beyond tolerance
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
            second = val[(x + 2, y)] - 2 * val[(x + 1, y)] + val[(x, y)]
            if lt(second, 0):
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

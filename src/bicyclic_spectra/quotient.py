"""Equitable partitions, quotient matrices, and the named polynomial family.

The quotient of an equitable partition shares its spectral radius with the
full weighted matrix, which turns eigenvalue claims about the named graph
families into statements about fixed-degree polynomials.  Those polynomials
(phi1/phi2/phi3 for the second-rank analysis, h_n/h_n1/h_n2/h_n3 for the
extended index) are written out here with exact coefficients, and every sign
condition used by the verification campaigns is certified with exact
quadratic-surd arithmetic: each test point has the shape r*sqrt(s) with
rational r, s.

The layer is exact only.  Refinement signatures are row sums of A_f(G) taken
straight from the edge list, native ints where the weight is integral and
Fractions otherwise; quotient entries are their Fraction block averages.  A
weight that is irrational on a degree pair the layer needs raises PartitionError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .graphs import FAMILIES, Graph, refine_partition
from .polynomials import Polynomial, sign_at_sqrt
from .weights import WeightFunction, evaluate_exact

Partition = list[list[int]]


class PartitionError(ValueError):
    pass


def validate_partition(p: Partition, n: int) -> None:
    seen: set[int] = set()
    for block in p:
        if not block:
            raise PartitionError("empty block")
        for v in block:
            if not 0 <= v < n:
                raise PartitionError(f"vertex {v} out of range")
            if v in seen:
                raise PartitionError(f"vertex {v} appears in two blocks")
            seen.add(v)
    if len(seen) != n:
        raise PartitionError("partition does not cover all vertices")


def degree_partition(g: Graph) -> Partition:
    """Seed partition grouping vertices by degree, largest degree first."""
    deg = g.degrees()
    blocks: dict[int, list[int]] = {}
    for v in range(g.n):
        blocks.setdefault(deg[v], []).append(v)
    return [blocks[d] for d in sorted(blocks, reverse=True)]


def _fval(f: WeightFunction, x: int, y: int) -> Union[int, Fraction]:
    v = evaluate_exact(f, x, y)
    if v is None:
        raise PartitionError(f"weight {f.label()} is irrational at degrees ({x}, {y}); "
                             "the quotient layer needs a rational weight")
    return v


def _row_sums(g: Graph, f: WeightFunction, parts: Partition) -> list[tuple]:
    """Each vertex's exact A_f(G) row sums into each part, from one pass over the edges."""
    deg = g.degrees()
    part = [0] * g.n
    for i, block in enumerate(parts):
        for v in block:
            part[v] = i
    sums = [[0] * len(parts) for _ in range(g.n)]
    weight = {}  # one evaluation per degree pair
    for u, v in g.edges:
        key = (deg[u], deg[v])
        if key not in weight:
            weight[key] = _fval(f, *key)
        sums[u][part[v]] += weight[key]
        sums[v][part[u]] += weight[key]
    return [tuple(row) for row in sums]


def equitable_refine(g: Graph, f: WeightFunction, seed: Optional[Partition] = None) -> Partition:
    """Coarsest refinement of the seed that is equitable for A_f(G).

    Blocks split by their exact weighted row sums into the current blocks
    (`graphs.refine_partition`); block order is label-invariant.
    """
    blocks = [list(b) for b in (seed if seed is not None else degree_partition(g))]
    validate_partition(blocks, g.n)
    return refine_partition(blocks, lambda parts: _row_sums(g, f, parts).__getitem__)


@dataclass
class QuotientMatrix:
    """Block-average row sums of A_f(G) under a partition, as Fractions."""

    b: list[list[Fraction]]  # k x k
    blocks: Partition
    equitable: bool


def quotient_matrix(g: Graph, f: WeightFunction, p: Partition) -> QuotientMatrix:
    validate_partition(p, g.n)
    sums = _row_sums(g, f, p)
    b = [[Fraction(sum(sums[v][j] for v in block), len(block)) for j in range(len(p))]
         for block in p]
    equitable = all(sums[v] == sums[block[0]] for block in p for v in block)
    return QuotientMatrix(b, [list(x) for x in p], equitable)


def family_quotient(tag: str, n: int, f: WeightFunction) -> QuotientMatrix:
    family = FAMILIES[tag]
    return quotient_matrix(family.build(n), f, family.partition(n))


# ---------------------------------------------------------------------------
# Named polynomials
# ---------------------------------------------------------------------------

_MIN_N = {"phi1": 6, "phi2": 6, "phi2_prime": 6, "phi3": 5,
          "h_n": 12, "h_n1": 12, "h_n2": 12, "h_n3": 12}
NAMED_POLYNOMIALS = tuple(_MIN_N)


def named_polynomial(name: str, n: int, f: Optional[WeightFunction] = None) -> Polynomial:
    """The named quotient / factor polynomials at a concrete order n.

    phi1, phi2 (and its x-multiple phi2_prime), phi3 describe the quotient
    matrices of G2, G4, G3 for a weight f; the h-family describes the
    extended-index analysis and takes no f.  Coefficients are exact; an f
    that is irrational on the degrees used raises PartitionError.
    """
    if name not in NAMED_POLYNOMIALS:
        raise ValueError(f"unknown polynomial name {name!r}")
    if n < _MIN_N[name]:
        raise ValueError(f"{name} requires n >= {_MIN_N[name]}, got {n}")
    if name.startswith("phi"):
        if f is None:
            raise ValueError(f"{name} requires a weight function")
        return _phi(name, n, f)
    return _h(name, n)


def _phi(name: str, n: int, f: WeightFunction) -> Polynomial:
    if name == "phi1":
        return _phi1(n, f, _fval(f, n - 1, 1))
    if name in ("phi2", "phi2_prime"):
        x1 = _fval(f, n - 2, 2)
        x2 = _fval(f, n - 2, 4)
        x3 = _fval(f, n - 2, 1)
        x4 = _fval(f, 4, 2)
        x5 = _fval(f, 4, 1)
        quartic = Polynomial([
            2 * x1 * x1 * x5 * x5 + (2 * n - 10) * x3 * x3 * x4 * x4
            + (n - 5) * x3 * x3 * x5 * x5,
            -4 * x1 * x2 * x4,
            -(2 * x1 * x1 + x2 * x2 + (n - 5) * x3 * x3 + 2 * x4 * x4 + x5 * x5),
            0,
            1,
        ])
        return quartic if name == "phi2" else quartic.shift_up(1)
    # phi3
    y1 = _fval(f, n - 2, 3)
    y2 = _fval(f, n - 2, 1)
    y3 = _fval(f, 3, 3)
    y4 = _fval(f, 3, 2)
    return Polynomial([
        (2 * n - 8) * y2 * y2 * y4 * y4,
        (n - 4) * y2 * y2 * y3,
        -((n - 4) * y2 * y2 + 2 * y1 * y1 + 2 * y4 * y4),
        -y3,
        1,
    ])


def _phi1(n: int, f: WeightFunction, c: Union[int, Fraction]) -> Polynomial:
    """phi1 at order n, given c = f(n-1, 1)."""
    c22, a = _fval(f, 2, 2), _fval(f, n - 1, 2)
    return Polynomial([(n - 5) * c * c * c22, -(4 * a * a + (n - 5) * c * c), -c22, 1])


def _h(name: str, n: int) -> Polynomial:
    if name == "h_n":
        return Polynomial([4 * (n - 5), -4, -(n + 1), 0, 1])
    if name == "h_n1":
        s = (n - 1) ** 2
        return Polynomial([
            169 * (n - 4) * (1 + s) ** 2,
            -52 * (4 + s) * (9 + s),
            -(36 * (4 + s) ** 2 + 8 * (9 + s) ** 2 + 72 * (n - 4) * (1 + s) ** 2 + 676 * s),
            0,
            288 * s,
        ])
    if name == "h_n2":
        s = (n - 1) ** 2
        return Polynomial([
            (n - 5) * (1 + s) ** 2,
            -((4 + s) ** 2 + (n - 5) * (1 + s) ** 2),
            -4 * s,
            4 * s,
        ])
    # h_n3
    s = (n - 2) ** 2
    return Polynomial([
        2028 * (n - 5) * (1 + s) ** 2,
        0,
        -(432 * (4 + s) ** 2 + 576 * (n - 5) * (1 + s) ** 2 + 8112 * s),
        0,
        2304 * s,
    ])


# ---------------------------------------------------------------------------
# Sign-condition ledger
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SignCondition:
    """p(r*sqrt(s)) has `expected` sign for every integer n >= n_min, (r, s) = point(n)."""

    condition_id: str
    poly_name: str
    weight: Optional[WeightFunction]
    n_min: int
    expected: int  # +1 or -1
    point: Callable[[int], tuple[Fraction, Fraction]]

    def holds_at(self, n: int) -> bool:
        p = named_polynomial(self.poly_name, n, self.weight)
        r, s = self.point(n)
        return sign_at_sqrt(p, r, s) == self.expected


_Z1 = WeightFunction("zagreb1")

def _half_bound(n: int) -> Fraction:
    # the recurring factor (n - 0.9)/2
    return (Fraction(n) - Fraction(9, 10)) / 2


SIGN_LEDGER: list[SignCondition] = [
    SignCondition("phi2_pos_at_n_sqrt", "phi2", _Z1, 10, +1,
                  lambda n: (Fraction(n), Fraction(n - 1))),
    SignCondition("phi2_neg_at_n5_sqrt", "phi2", _Z1, 7, -1,
                  lambda n: (Fraction(n - 5), Fraction(n - 1))),
    SignCondition("phi3_pos_at_n_sqrt", "phi3", _Z1, 9, +1,
                  lambda n: (Fraction(n), Fraction(n - 1))),
    SignCondition("phi3_neg_at_n5_sqrt", "phi3", _Z1, 8, -1,
                  lambda n: (Fraction(n - 5), Fraction(n - 1))),
    SignCondition("h_n_neg_at_sqrt_n_minus_3", "h_n", None, 12, -1,
                  lambda n: (Fraction(1), Fraction(n - 3))),
    SignCondition("h_n_pos_at_sqrt_n", "h_n", None, 12, +1,
                  lambda n: (Fraction(1), Fraction(n))),
    SignCondition("h_n_pos_at_sqrt_n_minus_1p2", "h_n", None, 20, +1,
                  lambda n: (Fraction(1), n - Fraction(6, 5))),
    SignCondition("h_n1_neg_at_upper", "h_n1", None, 12, -1,
                  lambda n: (_half_bound(n), n - Fraction(19, 5))),
    SignCondition("h_n2_pos_at_upper", "h_n2", None, 12, +1,
                  lambda n: (_half_bound(n), n - Fraction(19, 5))),
    SignCondition("h_n2_neg_at_lower", "h_n2", None, 12, -1,
                  lambda n: (_half_bound(n), Fraction(n - 5))),
    SignCondition("h_n3_pos_at_lower", "h_n3", None, 12, +1,
                  lambda n: (_half_bound(n), Fraction(n - 5))),
    SignCondition("h_n3_neg_at_deeper", "h_n3", None, 12, -1,
                  lambda n: (_half_bound(n), Fraction(n - 7))),
]


def phi1_sign_holds(f: WeightFunction, n: int) -> bool:
    """Exact check that phi1(sqrt(n-1) * f(n-1,1)) < 0; f(n-1,1) is evaluated once."""
    if n < _MIN_N["phi1"]:
        raise ValueError(f"phi1 requires n >= {_MIN_N['phi1']}, got {n}")
    c = _fval(f, n - 1, 1)  # a coefficient of phi1 and the factor of its test point
    return sign_at_sqrt(_phi1(n, f, c), c, Fraction(n - 1)) == -1


def evaluate_sign_ledger(fs: Sequence[WeightFunction], n_max: int = 60) -> list[dict]:
    """Evaluate every ledger condition at each integer n in its range.

    phi1's condition is checked for each supplied rational weight; the
    remaining conditions are weight-specific as recorded.  Returns one record
    per (condition, weight, n) with an exact boolean verdict.
    """
    records = []
    for f in fs:
        for n in range(6, n_max + 1):
            records.append({
                "condition": "phi1_neg_at_perron_bound",
                "weight": f.label(),
                "n": n,
                "holds": phi1_sign_holds(f, n),
            })
    for cond in SIGN_LEDGER:
        for n in range(cond.n_min, n_max + 1):
            records.append({
                "condition": cond.condition_id,
                "weight": cond.weight.label() if cond.weight else None,
                "n": n,
                "holds": cond.holds_at(n),
            })
    return records

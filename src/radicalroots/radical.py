"""Backward pass: exact radical expressions from the rounded integer tensor.

Expression trees are built over integers, roots of unity (kept symbolic),
sums, products, 1/p scalings, and branch-tagged p-th roots.  A node
``Root(p, radicand, s)`` denotes zeta_p^s times the principal p-th root of the
radicand.  Branches are selected against the resolvent arrays stored during
the forward pass.

Nodes are hash-consed: every node the module builds comes from one table
keyed by (class, scalar fields, child ids), so two such nodes are the same
object exactly when they are structurally equal, and id-keyed caches work
once per distinct node.  Nodes built directly by their class are not in the
table; they evaluate and render the same, only without the sharing.
"""

from __future__ import annotations

import json
import math
import weakref
from dataclasses import dataclass
from typing import Union, get_args

import mpmath
from mpmath import mp, mpc, mpf

from .errors import PhaseAmbiguous, VerificationFailed
from .groups import CompositionSeries, Permutation
from .polynomial import IntPolynomial, MonicReduction
from .precision import principal_root, root_of_unity
from .resolvent import (IntegerThetaTensor, PrecisionPlan, axis_lines,
                        position_root_indices)
from .rootfinder import RootSet

__all__ = [
    "IntegerLiteral", "RationalScale", "RootOfUnitySymbol", "Sum", "Product",
    "Root", "RadicalExpr", "BranchChoice", "ZeroRadicandNote",
    "ReconstructionResult", "SolveReport",
    "ValueCache", "reconstruct", "evaluate", "emit", "json_ast",
    "parse_expr_json", "verify",
]


@dataclass(frozen=True)
class IntegerLiteral:
    value: int


@dataclass(frozen=True)
class RationalScale:
    """A 1/denominator factor applied to a child expression."""

    denominator: int
    child: "RadicalExpr"


@dataclass(frozen=True)
class RootOfUnitySymbol:
    order: int
    power: int


@dataclass(frozen=True)
class Sum:
    terms: tuple["RadicalExpr", ...]


@dataclass(frozen=True)
class Product:
    factors: tuple["RadicalExpr", ...]


@dataclass(frozen=True)
class Root:
    """zeta_degree^branch times the principal degree-th root of the radicand."""

    degree: int
    radicand: "RadicalExpr"
    branch: int


RadicalExpr = Union[IntegerLiteral, RationalScale, RootOfUnitySymbol,
                    Sum, Product, Root]
_NODE_TYPES = get_args(RadicalExpr)

# (class, fields with each child replaced by its id) -> node.  A live node
# holds its children, so no id in a live entry's key can be reused; an entry
# goes when its node does.
_interned: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _node(cls, *fields) -> RadicalExpr:
    """The one node of class ``cls`` with these fields, built on first use."""
    key = (cls, *[tuple(map(id, f)) if isinstance(f, tuple)
                  else id(f) if isinstance(f, _NODE_TYPES) else f
                  for f in fields])
    node = _interned.get(key)
    if node is None:
        node = cls(*fields)
        _interned[key] = node
    return node


_ZERO = _node(IntegerLiteral, 0)
_ONE = _node(IntegerLiteral, 1)


def _zeta(p: int, k: int) -> RadicalExpr:
    k %= p
    if k == 0:
        return _ONE
    if p == 2:
        return _node(IntegerLiteral, -1)
    return _node(RootOfUnitySymbol, p, k)


def make_product(factors) -> RadicalExpr:
    """Light folding: integer factors multiply out, zeta powers combine."""
    int_part = 1
    zetas: dict[int, int] = {}
    rest: list[RadicalExpr] = []
    for f in factors:
        if isinstance(f, IntegerLiteral):
            int_part *= f.value
        elif isinstance(f, RootOfUnitySymbol):
            zetas[f.order] = (zetas.get(f.order, 0) + f.power) % f.order
        else:
            rest.append(f)
    if int_part == 0:
        return _ZERO
    if int_part == -1:
        for i, f in enumerate(rest):
            if isinstance(f, Root) and f.degree == 2:
                rest[i] = _node(Root, 2, f.radicand, (f.branch + 1) % 2)
                int_part = 1
                break
    out: list[RadicalExpr] = []
    if int_part != 1:
        out.append(_node(IntegerLiteral, int_part))
    for p in sorted(zetas):
        if not zetas[p]:
            continue
        # a zeta weight merges into the branch tag of a matching root
        for i, f in enumerate(rest):
            if isinstance(f, Root) and f.degree == p:
                rest[i] = _node(Root, p, f.radicand,
                                (f.branch + zetas[p]) % p)
                break
        else:
            out.append(_zeta(p, zetas[p]))
    out.extend(rest)
    if not out:
        return _ONE
    if len(out) == 1:
        return out[0]
    return _node(Product, tuple(out))


def make_sum(terms) -> RadicalExpr:
    """Light folding: drop zero summands, merge integer literals."""
    int_part = 0
    rest: list[RadicalExpr] = []
    for t in terms:
        if isinstance(t, IntegerLiteral):
            int_part += t.value
        else:
            rest.append(t)
    out: list[RadicalExpr] = []
    if int_part != 0:
        out.append(_node(IntegerLiteral, int_part))
    out.extend(rest)
    if not out:
        return _ZERO
    if len(out) == 1:
        return out[0]
    return _node(Sum, tuple(out))


def make_root(degree: int, radicand: RadicalExpr, branch: int) -> RadicalExpr:
    # by value, not identity: a zero literal built by its class folds too
    if radicand == _ZERO:
        return _ZERO
    return _node(Root, degree, radicand, branch % degree)


def make_scale(denominator: int, child: RadicalExpr) -> RadicalExpr:
    if isinstance(child, IntegerLiteral):
        if child.value == 0:
            return _ZERO
        if child.value % denominator == 0:
            return _node(IntegerLiteral, child.value // denominator)
    return _node(RationalScale, denominator, child)


def _walk(visit, expr: RadicalExpr, memo: dict):
    """``visit(node, results of its children)`` at ``expr``, bottom-up, once
    per node object: ``memo`` maps id(node) -> (node, result), the node kept
    so that its id cannot be reused."""
    hit = memo.get(id(expr))
    if hit is not None:
        return hit[1]
    if isinstance(expr, Root):
        kids = [_walk(visit, expr.radicand, memo)]
    elif isinstance(expr, Sum):
        kids = [_walk(visit, c, memo) for c in expr.terms]
    elif isinstance(expr, Product):
        kids = [_walk(visit, c, memo) for c in expr.factors]
    elif isinstance(expr, RationalScale):
        kids = [_walk(visit, expr.child, memo)]
    elif isinstance(expr, (IntegerLiteral, RootOfUnitySymbol)):
        kids = []
    else:
        raise TypeError(f"not a radical expression node: {expr!r}")
    out = visit(expr, kids)
    memo[id(expr)] = (expr, out)
    return out


class ValueCache:
    """Values of expression nodes at one digit budget, each computed once.

    ``nodes`` is the memo of the walk whose visit function is ``value``.
    For interned nodes identity is structure, so each structurally distinct
    node is computed once.  Roots of unity come from the zeta tables when
    given; all branches of a radicand share the value of its branch-0 root.
    """

    def __init__(self, digits: int, zetas=None):
        self.digits = digits
        self.zetas = zetas or {}
        self.nodes: dict = {}       # id(node) -> (node, value)

    def unity(self, p: int, k: int) -> mpc:
        table = self.zetas.get(p)
        return table[k] if table else root_of_unity(p, k, self.digits)

    def value(self, node: RadicalExpr, kids: list) -> mpc:
        """The value of ``node`` from the values of its children."""
        if isinstance(node, Root):
            if not node.branch:
                return principal_root(kids[0], node.degree)
            principal = make_root(node.degree, node.radicand, 0)
            return (_walk(self.value, principal, self.nodes)
                    * self.unity(node.degree, node.branch))
        if isinstance(node, Sum):
            return sum(kids, mpc(0))
        if isinstance(node, Product):
            return math.prod(kids, start=mpc(1))
        if isinstance(node, RationalScale):
            return kids[0] / node.denominator
        if isinstance(node, IntegerLiteral):
            return mpc(node.value)
        return self.unity(node.order, node.power)


def evaluate(expr: RadicalExpr, digits: int,
             cache: ValueCache | None = None) -> mpc:
    """Deterministic bottom-up numeric evaluation at the given digit budget;
    ``cache``, a ValueCache at that budget, shares values across calls."""
    cache = cache or ValueCache(digits)
    with mp.workdps(digits):
        return _walk(cache.value, expr, cache.nodes)


@dataclass(frozen=True)
class BranchChoice:
    """Record of one accepted p-th-root branch selection."""

    level: int
    flat_index: int
    degree: int
    branch: int
    best_distance: mpf
    second_distance: mpf
    delta: mpf


@dataclass(frozen=True)
class ZeroRadicandNote:
    """A resolvent entry vanished; its root was simplified to 0."""

    level: int
    flat_index: int


@dataclass(frozen=True)
class ReconstructionResult:
    root_exprs: tuple[RadicalExpr, ...]       # indexed by root label 1..n
    theta0_exprs: tuple[RadicalExpr, ...]     # full position tensor
    branch_log: tuple[BranchChoice, ...]
    zero_notes: tuple[ZeroRadicandNote, ...]
    values: ValueCache                        # every value computed on the way


def _line_radicands(p: int, line_exprs, values: ValueCache, noise_scale: mpf,
                    floor: mpf):
    """What one tensor line gives from its nodes alone: the p radicands
    E_k = sum_j line[j] * zeta_p^{jk}, the values of their principal p-th
    roots, and whether each of those lies below the line's noise floor.

    Radicand values below the evaluation noise floor, ``noise_scale`` times
    the line's sum of magnitudes, are zero; the p-th root inflates noise to
    noise^(1/p), so the test is at that scale and never below ``floor``.
    """
    line_scale = mpf(0)
    for expr in line_exprs:
        line_scale += abs(_walk(values.value, expr, values.nodes))
    w_floor = max((line_scale * noise_scale) ** (mpf(1) / p), floor)
    radicands = [make_sum(make_product([_zeta(p, j * k), line_exprs[j]])
                          for j in range(p)) for k in range(p)]
    roots = [_walk(values.value, make_root(p, e_k, 0), values.nodes)
             for e_k in radicands]
    return radicands, roots, [abs(w) <= w_floor for w in roots]


def reconstruct(series: CompositionSeries, int_theta: IntegerThetaTensor,
                stored_L, zetas, *, digits: int) -> ReconstructionResult:
    """Work the tensor transforms backward, picking root branches numerically.

    For each level i = m..1 and resolvent index k, the exact combination
    E_k = sum_j Theta_i[...,j,...] * zeta_i^{jk} equals the p_i-th power of the
    stored resolvent entry; the branch s of its p_i-th root is the one whose
    numeric value lands on the stored entry.  Acceptance requires the best
    branch within delta = 10^(-digits/4) and every other branch beyond
    2*delta, else PhaseAmbiguous.  Radicands indistinguishable from zero are
    collapsed to 0.

    Nodes are interned, so lines of a level with the same nodes are the same
    tuple of objects: they share the radicands, the values of their roots
    and the noise floor, each computed once, and lines that choose the same
    roots share the inverse combination.  Only the branch test reads each
    line's own stored targets.
    """
    with mp.workdps(digits):
        delta = mpf(10) ** (-mpf(digits) / 4)
        noise_scale = mpf(10) ** (4 - digits)
        floor = mpf(10) ** (-digits)
        values = ValueCache(digits, zetas)
        radices = int_theta.radices
        exact: list[RadicalExpr] = [_node(IntegerLiteral, v)
                                    for v in int_theta.values]
        branch_log: list[BranchChoice] = []
        zero_notes: list[ZeroRadicandNote] = []

        for level in range(series.length, 0, -1):
            p = radices[level - 1]
            stored = stored_L[level - 1]
            new_exact: list[RadicalExpr] = [None] * len(exact)  # type: ignore
            # ids of a line's nodes -> (nodes, radicands, root values,
            # vanishing flags); ids of the chosen roots -> (roots, inverse
            # combinations).  The nodes are kept so that their ids cannot be
            # reused.
            lines: dict = {}
            combos: dict = {}
            for line in axis_lines(radices, level - 1):
                line_exprs = tuple(exact[i] for i in line)
                key = tuple(map(id, line_exprs))
                if key not in lines:
                    lines[key] = (line_exprs, *_line_radicands(
                        p, line_exprs, values, noise_scale, floor))
                _, radicands, roots, vanishes = lines[key]
                l_exact: list[RadicalExpr] = []
                for k in range(p):
                    target = stored.data[line[k]]
                    target_vanishes = abs(target) < delta
                    if vanishes[k] and target_vanishes:
                        l_exact.append(_ZERO)
                        zero_notes.append(ZeroRadicandNote(level, line[k]))
                        continue
                    if vanishes[k] != target_vanishes:
                        raise PhaseAmbiguous(
                            f"resolvent magnitude inconsistent at level {level}, "
                            f"index {line[k]}: radicand magnitude "
                            f"{mpmath.nstr(abs(roots[k]), 4)} vs stored "
                            f"{mpmath.nstr(abs(target), 4)}")
                    branches = [roots[k] * zetas[p][s] for s in range(p)]
                    distances = sorted((abs(b - target), s)
                                       for s, b in enumerate(branches))
                    best_d, best_s = distances[0]
                    second_d = distances[1][0]
                    if best_d >= delta or second_d <= 2 * delta:
                        raise PhaseAmbiguous(
                            f"cannot fix the branch of a {p}-th root at level "
                            f"{level}, index {line[k]}: nearest branch at distance "
                            f"{mpmath.nstr(best_d, 4)}, next at "
                            f"{mpmath.nstr(second_d, 4)}, delta "
                            f"{mpmath.nstr(delta, 4)}")
                    branch_log.append(BranchChoice(level, line[k], p, best_s,
                                                   best_d, second_d, delta))
                    l_exact.append(make_root(p, radicands[k], best_s))
                chosen = tuple(l_exact)
                key = tuple(map(id, chosen))
                if key not in combos:
                    combos[key] = (chosen, [make_scale(p, make_sum(
                        make_product([_zeta(p, -j * k), chosen[k]])
                        for k in range(p))) for j in range(p)])
                for flat, expr in zip(line, combos[key][1]):
                    new_exact[flat] = expr
            exact = new_exact

    by_root: dict[int, RadicalExpr] = {}
    for flat, label in enumerate(position_root_indices(series)):
        by_root.setdefault(label, exact[flat])
    return ReconstructionResult(
        tuple(by_root[r] for r in range(1, series.degree + 1)),
        tuple(exact), tuple(branch_log), tuple(zero_notes), values)


# --- rendering -------------------------------------------------------------

def _join_terms(parts: list[str]) -> str:
    """Rendered summands joined with explicit signs: ``a + b - c``."""
    signed = [f"- {s[1:]}" if s.startswith("-") else f"+ {s}"
              for s in parts[1:]]
    return " ".join([parts[0], *signed])


def _join_factors(factors, parts: list[str], group: str, sep: str) -> str:
    """Rendered factors joined by ``sep``; a sum, a scale or a negative
    factor is put in ``group``, a format template with one ``{}``."""
    return sep.join([group.format(s) if isinstance(f, (Sum, RationalScale))
                     or s.startswith("-") else s
                     for f, s in zip(factors, parts)])


def _text(node: RadicalExpr, kids: list) -> str:
    if isinstance(node, Root):
        return f"root({node.degree},{node.branch}; {kids[0]})"
    if isinstance(node, Sum):
        return _join_terms(kids)
    if isinstance(node, Product):
        return _join_factors(node.factors, kids, "({})", "*")
    if isinstance(node, RationalScale):
        return f"(1/{node.denominator})*({kids[0]})"
    if isinstance(node, IntegerLiteral):
        return str(node.value)
    return f"zeta_{node.order}^{node.power}"


def _latex(node: RadicalExpr, kids: list) -> str:
    if isinstance(node, Root):
        radical = rf"\sqrt{{{kids[0]}}}" if node.degree == 2 \
            else rf"\sqrt[{node.degree}]{{{kids[0]}}}"
        if node.degree == 2 and node.branch == 1:
            return f"-{radical}"
        if node.branch:
            return rf"\zeta_{{{node.degree}}}^{{{node.branch}}}{radical}"
        return radical
    if isinstance(node, Sum):
        return _join_terms(kids)
    if isinstance(node, Product):
        return _join_factors(node.factors, kids, r"\left({}\right)", r" \cdot ")
    if isinstance(node, RationalScale):
        return rf"\frac{{1}}{{{node.denominator}}}\left({kids[0]}\right)"
    if isinstance(node, IntegerLiteral):
        return str(node.value)
    return rf"\zeta_{{{node.order}}}^{{{node.power}}}"


def _json(node: RadicalExpr, kids: list):
    if isinstance(node, Root):
        return {"root": {"p": node.degree, "branch": node.branch,
                         "radicand": kids[0]}}
    if isinstance(node, Sum):
        return {"sum": kids}
    if isinstance(node, Product):
        return {"product": kids}
    if isinstance(node, RationalScale):
        terms = kids[0]["sum"] if isinstance(node.child, Sum) else kids
        return {"scale": f"1/{node.denominator}", "sum": terms}
    if isinstance(node, IntegerLiteral):
        return {"int": str(node.value)}
    return {"zeta": {"p": node.order, "k": node.power}}


def json_ast(expr: RadicalExpr):
    """The JSON AST of an expression as plain dicts and lists; a subtree that
    occurs more than once is one shared dict, so treat the result as
    read-only."""
    return _walk(_json, expr, {})


def emit(expr: RadicalExpr, format: str = "text") -> str:
    """Render an expression as text, LaTeX, or the JSON AST."""
    if format == "text":
        return _walk(_text, expr, {})
    if format == "latex":
        return _walk(_latex, expr, {})
    if format == "json":
        return json.dumps(json_ast(expr), separators=(",", ":"))
    raise ValueError(f"unknown format {format!r}")


def _from_json_obj(obj) -> RadicalExpr:
    if not isinstance(obj, dict) or not obj:
        raise ValueError(f"bad expression node: {obj!r}")
    if "scale" in obj:
        num, _, den = obj["scale"].partition("/")
        if num != "1":
            raise ValueError(f"scale must be 1/p, got {obj['scale']!r}")
        return _node(RationalScale, int(den),
                     _from_json_obj({"sum": obj["sum"]}))
    if "int" in obj:
        return _node(IntegerLiteral, int(obj["int"]))
    if "sum" in obj:
        terms = [_from_json_obj(t) for t in obj["sum"]]
        return terms[0] if len(terms) == 1 else _node(Sum, tuple(terms))
    if "product" in obj:
        return _node(Product,
                     tuple(_from_json_obj(f) for f in obj["product"]))
    if "zeta" in obj:
        return _node(RootOfUnitySymbol, obj["zeta"]["p"], obj["zeta"]["k"])
    if "root" in obj:
        r = obj["root"]
        return _node(Root, r["p"], _from_json_obj(r["radicand"]), r["branch"])
    raise ValueError(f"unknown expression node keys: {sorted(obj)}")


def parse_expr_json(text: str) -> RadicalExpr:
    return _from_json_obj(json.loads(text))


def verify(exprs, roots: RootSet, cache: ValueCache | None = None):
    """Compare each expression's value, from ``cache`` when given, to its
    claimed root, at the roots' digit budget.

    Returns the per-root deviations; raises VerificationFailed when any
    deviation reaches 10^(-digits/2).
    """
    if len(exprs) != roots.n:
        raise ValueError("one expression per root is required")
    digits = roots.digits
    cache = cache or ValueCache(digits)
    with mp.workdps(digits):
        threshold = mpf(10) ** (-mpf(digits) / 2)
        deviations = [abs(_walk(cache.value, expr, cache.nodes) - root)
                      for expr, root in zip(exprs, roots.roots)]
    worst = max(deviations) if deviations else mpf(0)
    if worst >= threshold:
        raise VerificationFailed(
            f"worst re-evaluation deviation {mpmath.nstr(worst, 4)} exceeds "
            f"10^(-digits/2) = {mpmath.nstr(threshold, 4)}")
    return deviations


@dataclass(frozen=True)
class SolveReport:
    """Everything the pipeline produced for one solved polynomial."""

    polynomial: IntPolynomial
    reduction: MonicReduction
    series: CompositionSeries
    plan: PrecisionPlan
    digits: int
    roots: RootSet                      # labeled order
    labeling: Permutation
    theta: IntegerThetaTensor
    root_exprs: tuple[RadicalExpr, ...]
    evaluations: tuple[mpc, ...]
    verification: tuple[mpf, ...] | None
    multiplications: int
    budget: int
    branch_log: tuple[BranchChoice, ...]
    zero_notes: tuple[ZeroRadicandNote, ...]
    notes: tuple[str, ...]

    @property
    def max_rounding_residual(self) -> mpf:
        return max(self.theta.residuals) if self.theta.residuals else mpf(0)

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


class ValueCache:
    """Values of expression nodes at one digit budget, each computed once.

    Entries are keyed by node identity and keep their node so that its id
    cannot be reused.  For interned nodes identity is structure, so each
    structurally distinct node is computed once.  Roots of unity come from the
    zeta tables when given; all branches of a radicand share the value of its
    branch-0 root.
    """

    def __init__(self, digits: int, zetas=None):
        self.digits = digits
        self.zetas = zetas or {}
        self.nodes: dict = {}       # id(node) -> (node, value)

    def unity(self, p: int, k: int) -> mpc:
        table = self.zetas.get(p)
        return table[k] if table else root_of_unity(p, k, self.digits)


def evaluate(expr: RadicalExpr, digits: int,
             cache: ValueCache | None = None) -> mpc:
    """Deterministic bottom-up numeric evaluation at the given digit budget;
    ``cache``, a ValueCache at that budget, shares values across calls."""
    with mp.workdps(digits):
        return _evaluate(expr, cache or ValueCache(digits))


def _evaluate(expr: RadicalExpr, cache: ValueCache) -> mpc:
    hit = cache.nodes.get(id(expr))
    if hit is not None:
        return hit[1]
    if isinstance(expr, IntegerLiteral):
        val = mpc(expr.value)
    elif isinstance(expr, RationalScale):
        val = _evaluate(expr.child, cache) / expr.denominator
    elif isinstance(expr, RootOfUnitySymbol):
        val = cache.unity(expr.order, expr.power)
    elif isinstance(expr, Sum):
        val = mpc(0)
        for t in expr.terms:
            val = val + _evaluate(t, cache)
    elif isinstance(expr, Product):
        val = mpc(1)
        for f in expr.factors:
            val = val * _evaluate(f, cache)
    elif isinstance(expr, Root) and expr.branch:
        val = (_evaluate(make_root(expr.degree, expr.radicand, 0), cache)
               * cache.unity(expr.degree, expr.branch))
    elif isinstance(expr, Root):
        val = principal_root(_evaluate(expr.radicand, cache), expr.degree)
    else:
        raise TypeError(f"not a radical expression node: {expr!r}")
    cache.nodes[id(expr)] = (expr, val)
    return val


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
    """
    with mp.workdps(digits):
        delta = mpf(10) ** (-mpf(digits) / 4)
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
            for line in axis_lines(radices, level - 1):
                line_exprs = [exact[i] for i in line]
                line_scale = mpf(0)
                for expr in line_exprs:
                    line_scale += abs(_evaluate(expr, values))
                # radicand values below the evaluation noise floor are zero; the
                # p-th root inflates noise to noise^(1/p), so test at that scale
                noise = line_scale * mpf(10) ** (4 - digits)
                w_floor = max(noise ** (mpf(1) / p), mpf(10) ** (-digits))
                l_exact: list[RadicalExpr] = []
                for k in range(p):
                    e_k = make_sum(make_product([_zeta(p, j * k), line_exprs[j]])
                                   for j in range(p))
                    w = _evaluate(make_root(p, e_k, 0), values)
                    target = stored.data[line[k]]
                    z_vanishes = abs(w) <= w_floor
                    target_vanishes = abs(target) < delta
                    if z_vanishes and target_vanishes:
                        l_exact.append(_ZERO)
                        zero_notes.append(ZeroRadicandNote(level, line[k]))
                        continue
                    if z_vanishes != target_vanishes:
                        raise PhaseAmbiguous(
                            f"resolvent magnitude inconsistent at level {level}, "
                            f"index {line[k]}: radicand magnitude "
                            f"{mpmath.nstr(abs(w), 4)} vs stored "
                            f"{mpmath.nstr(abs(target), 4)}")
                    branches = [w * zetas[p][s] for s in range(p)]
                    distances = sorted((abs(b - target), s)
                                       for s, b in enumerate(branches))
                    best_d, best_s = distances[0]
                    second_d = distances[1][0] if p > 1 else mpf("inf")
                    if best_d >= delta or second_d <= 2 * delta:
                        raise PhaseAmbiguous(
                            f"cannot fix the branch of a {p}-th root at level "
                            f"{level}, index {line[k]}: nearest branch at distance "
                            f"{mpmath.nstr(best_d, 4)}, next at "
                            f"{mpmath.nstr(second_d, 4)}, delta "
                            f"{mpmath.nstr(delta, 4)}")
                    branch_log.append(BranchChoice(level, line[k], p, best_s,
                                                   best_d, second_d, delta))
                    root = make_root(p, e_k, best_s)
                    values.nodes[id(root)] = (root, branches[best_s])
                    l_exact.append(root)
                for j in range(p):
                    combo = make_sum(make_product([_zeta(p, -j * k), l_exact[k]])
                                     for k in range(p))
                    new_exact[line[j]] = make_scale(p, combo)
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


def _memo(render, expr: RadicalExpr, memo: dict):
    """``render(expr, memo)``, computed once per node object within one
    rendering, so a shared subtree is rendered once."""
    out = memo.get(id(expr))
    if out is None:
        out = memo[id(expr)] = render(expr, memo)
    return out


def _text(expr: RadicalExpr, memo: dict) -> str:
    if isinstance(expr, IntegerLiteral):
        return str(expr.value)
    if isinstance(expr, RationalScale):
        return f"(1/{expr.denominator})*({_memo(_text, expr.child, memo)})"
    if isinstance(expr, RootOfUnitySymbol):
        return f"zeta_{expr.order}^{expr.power}"
    if isinstance(expr, Sum):
        return _join_terms([_memo(_text, t, memo) for t in expr.terms])
    if isinstance(expr, Product):
        parts = []
        for f in expr.factors:
            s = _memo(_text, f, memo)
            if isinstance(f, (Sum, RationalScale)) or s.startswith("-"):
                s = f"({s})"
            parts.append(s)
        return "*".join(parts)
    if isinstance(expr, Root):
        return (f"root({expr.degree},{expr.branch}; "
                f"{_memo(_text, expr.radicand, memo)})")
    raise TypeError(f"not a radical expression node: {expr!r}")


def _latex(expr: RadicalExpr, memo: dict) -> str:
    if isinstance(expr, IntegerLiteral):
        return str(expr.value)
    if isinstance(expr, RationalScale):
        child = _memo(_latex, expr.child, memo)
        return rf"\frac{{1}}{{{expr.denominator}}}\left({child}\right)"
    if isinstance(expr, RootOfUnitySymbol):
        return rf"\zeta_{{{expr.order}}}^{{{expr.power}}}"
    if isinstance(expr, Sum):
        return _join_terms([_memo(_latex, t, memo) for t in expr.terms])
    if isinstance(expr, Product):
        parts = []
        for f in expr.factors:
            s = _memo(_latex, f, memo)
            if isinstance(f, (Sum, RationalScale)) or s.startswith("-"):
                s = rf"\left({s}\right)"
            parts.append(s)
        return r" \cdot ".join(parts)
    if isinstance(expr, Root):
        body = _memo(_latex, expr.radicand, memo)
        radical = rf"\sqrt{{{body}}}" if expr.degree == 2 \
            else rf"\sqrt[{expr.degree}]{{{body}}}"
        if expr.degree == 2 and expr.branch == 1:
            return f"-{radical}"
        if expr.branch:
            return rf"\zeta_{{{expr.degree}}}^{{{expr.branch}}}{radical}"
        return radical
    raise TypeError(f"not a radical expression node: {expr!r}")


def _json(expr: RadicalExpr, memo: dict):
    if isinstance(expr, IntegerLiteral):
        return {"int": str(expr.value)}
    if isinstance(expr, RationalScale):
        child_terms = expr.child.terms if isinstance(expr.child, Sum) \
            else (expr.child,)
        return {"scale": f"1/{expr.denominator}",
                "sum": [_memo(_json, t, memo) for t in child_terms]}
    if isinstance(expr, RootOfUnitySymbol):
        return {"zeta": {"p": expr.order, "k": expr.power}}
    if isinstance(expr, Sum):
        return {"sum": [_memo(_json, t, memo) for t in expr.terms]}
    if isinstance(expr, Product):
        return {"product": [_memo(_json, f, memo) for f in expr.factors]}
    if isinstance(expr, Root):
        return {"root": {"p": expr.degree, "branch": expr.branch,
                         "radicand": _memo(_json, expr.radicand, memo)}}
    raise TypeError(f"not a radical expression node: {expr!r}")


def json_ast(expr: RadicalExpr):
    """The JSON AST of an expression as plain dicts and lists; a subtree that
    occurs more than once is one shared dict, so treat the result as
    read-only."""
    return _memo(_json, expr, {})


def emit(expr: RadicalExpr, format: str = "text") -> str:
    """Render an expression as text, LaTeX, or the JSON AST."""
    if format == "text":
        return _memo(_text, expr, {})
    if format == "latex":
        return _memo(_latex, expr, {})
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
        deviations = [abs(_evaluate(expr, cache) - root)
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

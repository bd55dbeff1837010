"""Backward pass: exact radical expressions from the rounded integer tensor.

Expression trees are built over integers, roots of unity (kept symbolic),
sums, products, 1/p scalings, and branch-tagged p-th roots.  A node
``Root(p, radicand, s)`` denotes zeta_p^s times the principal p-th root of the
radicand.  Branches are selected against the resolvent arrays stored during
the forward pass.

Nodes are hash-consed: calling a node class returns the one node with those
fields, so two nodes are the same object exactly when they are structurally
equal.  Equality and hash are identity, and every memo is keyed by the node
itself, so each structurally distinct node is computed once.
"""

from __future__ import annotations

import json
import math
import weakref
from dataclasses import dataclass
from typing import Union

import mpmath
from mpmath import mp, mpc, mpf

from .errors import PhaseAmbiguous, VerificationFailed
from .groups import CompositionSeries, Permutation
from .polynomial import IntPolynomial, MonicReduction
from .precision import (cmul, csub, ints_mpc, mpc_ints, principal_root,
                        root_of_unity)
from .resolvent import (IntegerThetaTensor, PrecisionPlan, axis_lines,
                        multiplication_budget, position_root_indices)
from .rootfinder import RootSet

__all__ = [
    "IntegerLiteral", "RationalScale", "RootOfUnitySymbol", "Sum", "Product",
    "Root", "RadicalExpr", "BranchChoice", "ZeroRadicandNote",
    "ReconstructionResult", "SolveReport",
    "ValueCache", "reconstruct", "evaluate", "emit", "json_ast",
    "parse_expr_json", "verify",
]


# (class, *fields) -> node; an entry goes when its node does
_interned: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class _Node:
    """Calling a node class returns the one node with those fields, built on
    first use; the classes have ``init=False``, so the fields are set here."""

    def __new__(cls, *args, **kwargs):
        names = cls.__match_args__          # the field names, in order
        if kwargs:      # a keyword call keys as the positional one
            args += tuple(kwargs.pop(n) for n in names[len(args):]
                          if n in kwargs)
        if kwargs or len(args) != len(names):
            raise TypeError(f"{cls.__name__} takes {', '.join(names)}")
        key = (cls, *args)
        node = _interned.get(key)
        if node is None:
            node = _interned[key] = super().__new__(cls)
            for name, value in zip(names, args):
                object.__setattr__(node, name, value)
        return node

    def __reduce__(self):       # a copy or an unpickled node is interned
        return type(self), tuple(getattr(self, n) for n in self.__match_args__)


@dataclass(frozen=True, eq=False, init=False)
class IntegerLiteral(_Node):
    value: int


@dataclass(frozen=True, eq=False, init=False)
class RationalScale(_Node):
    """A 1/denominator factor applied to a child expression."""

    denominator: int
    child: "RadicalExpr"


@dataclass(frozen=True, eq=False, init=False)
class RootOfUnitySymbol(_Node):
    order: int
    power: int


@dataclass(frozen=True, eq=False, init=False)
class Sum(_Node):
    terms: tuple["RadicalExpr", ...]


@dataclass(frozen=True, eq=False, init=False)
class Product(_Node):
    factors: tuple["RadicalExpr", ...]


@dataclass(frozen=True, eq=False, init=False)
class Root(_Node):
    """zeta_degree^branch times the principal degree-th root of the radicand."""

    degree: int
    radicand: "RadicalExpr"
    branch: int


RadicalExpr = Union[IntegerLiteral, RationalScale, RootOfUnitySymbol,
                    Sum, Product, Root]

_ZERO = IntegerLiteral(0)
_ONE = IntegerLiteral(1)


def _zeta(p: int, k: int) -> RadicalExpr:
    k %= p
    if k == 0:
        return _ONE
    if p == 2:
        return IntegerLiteral(-1)
    return RootOfUnitySymbol(p, k)


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
                rest[i] = Root(2, f.radicand, (f.branch + 1) % 2)
                int_part = 1
                break
    out: list[RadicalExpr] = []
    if int_part != 1:
        out.append(IntegerLiteral(int_part))
    for p in sorted(zetas):
        if not zetas[p]:
            continue
        # a zeta weight merges into the branch tag of a matching root
        for i, f in enumerate(rest):
            if isinstance(f, Root) and f.degree == p:
                rest[i] = Root(p, f.radicand, (f.branch + zetas[p]) % p)
                break
        else:
            out.append(_zeta(p, zetas[p]))
    out.extend(rest)
    if not out:
        return _ONE
    if len(out) == 1:
        return out[0]
    return Product(tuple(out))


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
        out.append(IntegerLiteral(int_part))
    out.extend(rest)
    if not out:
        return _ZERO
    if len(out) == 1:
        return out[0]
    return Sum(tuple(out))


def make_root(degree: int, radicand: RadicalExpr, branch: int) -> RadicalExpr:
    if radicand is _ZERO:
        return _ZERO
    return Root(degree, radicand, branch % degree)


def make_scale(denominator: int, child: RadicalExpr) -> RadicalExpr:
    if isinstance(child, IntegerLiteral):
        if child.value == 0:
            return _ZERO
        if child.value % denominator == 0:
            return IntegerLiteral(child.value // denominator)
    return RationalScale(denominator, child)


def _children(expr: RadicalExpr) -> tuple:
    if isinstance(expr, Root):
        return (expr.radicand,)
    if isinstance(expr, Sum):
        return expr.terms
    if isinstance(expr, Product):
        return expr.factors
    if isinstance(expr, RationalScale):
        return (expr.child,)
    if isinstance(expr, (IntegerLiteral, RootOfUnitySymbol)):
        return ()
    raise TypeError(f"not a radical expression node: {expr!r}")


def _walk(visit, expr: RadicalExpr, memo: dict):
    """``visit(node, results of its children)`` at ``expr``, bottom-up, once
    per node: ``memo`` maps node -> result.  The nodes are visited in
    post-order, children left to right, from an explicit stack, so the depth
    of an expression is not bounded by the recursion limit."""
    if expr in memo:
        return memo[expr]
    stack = [(expr, _children(expr))]
    while stack:
        node, kids = stack[-1]
        for c in kids:
            if c not in memo:
                stack.append((c, _children(c)))
                break
        else:
            stack.pop()
            memo[node] = visit(node, [memo[c] for c in kids])
    return memo[expr]


class ValueCache:
    """Values of expression nodes at one ``mp.dps``, each computed once.

    ``nodes`` is the memo of the walk whose visit function is ``value``,
    keyed by node; a node is its structure, so each structurally distinct
    node is computed once.  Roots of unity come from the zeta tables when
    given; all branches of a radicand share the value of its branch-0 root.
    """

    def __init__(self, zetas=None):
        self.zetas = zetas or {}
        self.nodes: dict = {}       # node -> value

    def unity(self, p: int, k: int) -> mpc:
        table = self.zetas.get(p)
        return table[k] if table else root_of_unity(p, k)

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


def evaluate(expr: RadicalExpr, cache: ValueCache | None = None) -> mpc:
    """Deterministic bottom-up numeric evaluation at the working precision;
    ``cache``, filled at the same ``mp.dps``, shares values across calls."""
    cache = cache or ValueCache()
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
    E_k = sum_j line[j] * zeta_p^{jk}, their magnitudes, the line's zero
    floor, and the values of the principal p-th roots of the radicands above
    that floor (None for the others, which vanish).

    The floor is at radicand scale: the evaluation noise floor,
    ``noise_scale`` times the line's sum of magnitudes, and never below
    ``floor``^p.  It is the p-th power of a floor on |E_k^(1/p)|, so the
    roots of vanishing radicands, which collapse to 0, are never taken.
    """
    line_scale = sum((abs(_walk(values.value, expr, values.nodes))
                      for expr in line_exprs), mpf(0))
    e_floor = max(line_scale * noise_scale, floor ** p)
    radicands = [make_sum(make_product([_zeta(p, j * k), line_exprs[j]])
                          for j in range(p)) for k in range(p)]
    mags = [abs(_walk(values.value, e_k, values.nodes)) for e_k in radicands]
    roots = [_walk(values.value, make_root(p, e_k, 0), values.nodes)
             if mag > e_floor else None for e_k, mag in zip(radicands, mags)]
    return radicands, roots, mags, e_floor


def _nearest_two(diffs) -> list[int]:
    """The indices of the two smallest of the integer-form complex ``diffs``
    by exact squared magnitude, each part's square shifted to a common
    exponent; ties go to the lower index."""
    parts = [(d[:2], d[2:]) for d in diffs]
    low = min((2 * e for pair in parts for m, e in pair if m), default=0)
    norms = [sum(m * m << (2 * e - low) for m, e in pair if m)
             for pair in parts]
    return sorted(range(len(diffs)), key=norms.__getitem__)[:2]


def reconstruct(series: CompositionSeries, int_theta: IntegerThetaTensor,
                stored_L, zetas) -> ReconstructionResult:
    """Work the tensor transforms backward, picking root branches numerically.

    For each level i = m..1 and resolvent index k, the exact combination
    E_k = sum_j Theta_i[...,j,...] * zeta_i^{jk} equals the p_i-th power of the
    stored resolvent entry; the branch s of its p_i-th root is the one whose
    numeric value lands on the stored entry, at the working precision
    digits = mp.dps.  Acceptance requires the best branch within
    delta = 10^(-digits/4) and every other branch beyond 2*delta, else
    PhaseAmbiguous.  Radicands indistinguishable from zero collapse to 0.
    The p candidates are ranked by the exact squared distance of their
    rounded differences from the stored entry; only the two nearest
    distances are rounded, as ``abs`` rounds them, and a tie in those is
    always refused.

    Nodes are interned, so lines of a level with the same nodes are the same
    tuple of objects: they share the radicands, the values of their roots
    and the zero floor, each computed once, and lines that choose the same
    roots share the inverse combination.  Lines with the same nodes and the
    same stored targets, bit for bit, also share the zero and branch
    decisions, made once; each line still logs one BranchChoice or
    ZeroRadicandNote per entry, under the entry's own flat index.
    """
    prec = mp.prec
    delta = mpf(10) ** (-mpf(mp.dps) / 4)
    noise_scale = mpf(10) ** (4 - mp.dps)
    floor = mpf(10) ** (-mp.dps)
    values = ValueCache(zetas)
    radices = int_theta.radices
    exact: list[RadicalExpr] = [IntegerLiteral(v) for v in int_theta.values]
    branch_log: list[BranchChoice] = []
    zero_notes: list[ZeroRadicandNote] = []

    for level in range(series.length, 0, -1):
        p = radices[level - 1]
        stored = stored_L[level - 1]
        zeta_x = [mpc_ints(z) for z in zetas[p]]
        new_exact: list[RadicalExpr] = [None] * len(exact)  # type: ignore
        # a line's nodes -> _line_radicands; the chosen roots -> inverse
        # combinations; (nodes, targets) -> per-entry decisions, combination
        lines: dict = {}
        combos: dict = {}
        decided: dict = {}
        for line in axis_lines(radices, level - 1):
            line_exprs = tuple(exact[i] for i in line)
            key = (line_exprs, tuple(stored.data[i]._mpc_ for i in line))
            if key not in decided:
                if line_exprs not in lines:
                    lines[line_exprs] = _line_radicands(
                        p, line_exprs, values, noise_scale, floor)
                radicands, roots, mags, e_floor = lines[line_exprs]
                # per entry: None for a zero, else (branch, best, second)
                picks: list = []
                for k in range(p):
                    target = stored.data[line[k]]
                    target_vanishes = abs(target) < delta
                    if roots[k] is None and target_vanishes:
                        picks.append(None)
                        continue
                    if (roots[k] is None) != target_vanishes:
                        raise PhaseAmbiguous(
                            f"resolvent magnitude inconsistent at level "
                            f"{level}, index {line[k]}: radicand magnitude "
                            f"{mpmath.nstr(mags[k], 4)} vs zero floor "
                            f"{mpmath.nstr(e_floor, 4)}, stored "
                            f"{mpmath.nstr(abs(target), 4)} vs delta "
                            f"{mpmath.nstr(delta, 4)}")
                    w, t = mpc_ints(roots[k]), mpc_ints(target)
                    diffs = [csub(cmul(w, z, prec), t, prec) for z in zeta_x]
                    (best_d, best_s), (second_d, _) = sorted(
                        (abs(ints_mpc(diffs[s])), s)
                        for s in _nearest_two(diffs))
                    if best_d >= delta or second_d <= 2 * delta:
                        raise PhaseAmbiguous(
                            f"cannot fix the branch of a {p}-th root at level "
                            f"{level}, index {line[k]}: nearest branch at "
                            f"distance {mpmath.nstr(best_d, 4)}, next at "
                            f"{mpmath.nstr(second_d, 4)}, delta "
                            f"{mpmath.nstr(delta, 4)}")
                    picks.append((best_s, best_d, second_d))
                chosen = tuple(_ZERO if pick is None
                               else make_root(p, radicands[k], pick[0])
                               for k, pick in enumerate(picks))
                if chosen not in combos:
                    combos[chosen] = [make_scale(p, make_sum(
                        make_product([_zeta(p, -j * k), chosen[k]])
                        for k in range(p))) for j in range(p)]
                decided[key] = picks, combos[chosen]
            picks, combo = decided[key]
            for flat, pick, expr in zip(line, picks, combo):
                if pick is None:
                    zero_notes.append(ZeroRadicandNote(level, flat))
                else:
                    branch_log.append(BranchChoice(level, flat, p, *pick,
                                                   delta))
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
    """The node of a parsed JSON AST.  It recurses once per level: the
    standard library's json module does as well, so an AST deep enough to
    reach the recursion limit cannot be read or written as JSON anyway."""
    if not isinstance(obj, dict) or not obj:
        raise ValueError(f"bad expression node: {obj!r}")
    if "scale" in obj:
        num, _, den = obj["scale"].partition("/")
        if num != "1":
            raise ValueError(f"scale must be 1/p, got {obj['scale']!r}")
        return RationalScale(int(den), _from_json_obj({"sum": obj["sum"]}))
    if "int" in obj:
        return IntegerLiteral(int(obj["int"]))
    if "sum" in obj:
        terms = [_from_json_obj(t) for t in obj["sum"]]
        return terms[0] if len(terms) == 1 else Sum(tuple(terms))
    if "product" in obj:
        return Product(tuple(_from_json_obj(f) for f in obj["product"]))
    if "zeta" in obj:
        return RootOfUnitySymbol(obj["zeta"]["p"], obj["zeta"]["k"])
    if "root" in obj:
        r = obj["root"]
        return Root(r["p"], _from_json_obj(r["radicand"]), r["branch"])
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
    cache = cache or ValueCache()
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
    roots: RootSet                      # labeled order
    labeling: Permutation
    theta: IntegerThetaTensor
    root_exprs: tuple[RadicalExpr, ...]
    evaluations: tuple[mpc, ...]
    verification: tuple[mpf, ...] | None
    multiplications: int
    branch_log: tuple[BranchChoice, ...]
    zero_notes: tuple[ZeroRadicandNote, ...]
    notes: tuple[str, ...]

    @property
    def digits(self) -> int:
        """The digit budget of the attempt that succeeded."""
        return self.roots.digits

    @property
    def budget(self) -> int:
        """The forward pass's multiplication cap."""
        return multiplication_budget(self.series)

    @property
    def max_rounding_residual(self) -> mpf:
        return max(self.theta.residuals) if self.theta.residuals else mpf(0)

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
from .groups import (DEFAULT_ORDER_CAP, CompositionSeries, Permutation,
                     smallest_prime_factor)
from .polynomial import IntPolynomial, MonicReduction
from .precision import (bit_exponent, mpc_ints, part_bits, principal_root,
                        root_of_unity)
from .resolvent import (ForwardResult, IntegerThetaTensor, PrecisionPlan,
                        axis_lines, multiplication_budget,
                        position_root_indices)
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
    """Light folding: integer factors multiply out, and each zeta_p power,
    an integer part of -1 as zeta_2, merges into the first p-th root."""
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
        int_part, zetas[2] = 1, (zetas.get(2, 0) + 1) % 2
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
    """child/denominator: the denominator of a scaled child multiplies in, a
    negative one negates the child, and 1 leaves it alone."""
    if isinstance(child, RationalScale):
        denominator, child = denominator * child.denominator, child.child
    if denominator < 0:
        factors = child.factors if isinstance(child, Product) else (child,)
        denominator = -denominator
        child = make_product([IntegerLiteral(-1), *factors])
    if isinstance(child, IntegerLiteral) and child.value % denominator == 0:
        return IntegerLiteral(child.value // denominator)
    return child if denominator == 1 else RationalScale(denominator, child)


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


def _walk(visit, expr: RadicalExpr, memo: dict, carry: dict | None = None):
    """``visit(node, results of its children)`` at ``expr``, bottom-up, once
    per node: ``memo`` maps node -> result.  The nodes are visited in
    post-order, children left to right, from an explicit stack, so the depth
    of an expression is not bounded by the recursion limit.  A node below
    ``expr`` found in ``carry``, the memo of an earlier walk with the same
    ``visit``, moves its result into ``memo`` and is not walked below, so
    ``memo`` ends with only the entries that this walk read or made."""
    carry = carry or {}
    if expr in memo:
        return memo[expr]
    stack = [(expr, _children(expr))]
    while stack:
        node, kids = stack[-1]
        for c in kids:
            if c in memo:
                continue
            if c in carry:
                memo[c] = carry[c]
                continue
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
    A sum or a product folds over its children alone: each child is already
    rounded at mp.prec, so starting from 0 or 1 would only cost one more
    operation for the same bits.
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
            return sum(kids[1:], kids[0])
        if isinstance(node, Product):
            return math.prod(kids[1:], start=kids[0])
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
    """Record of one accepted p-th-root branch selection, in sector units.

    The stored resolvent entry L_k lies at x = p * arg(L_k) / 2pi.
    ``branch`` is the tag of the Root that ``_root`` emits for it,
    ``best_distance`` |x - c| for the sector centre c that ``_decide`` picks
    and ``second_distance`` 1 - |x - c|.  Off the branch cut the best
    distance is at most 1/2 - delta; on it both are 1/2 to within delta^2.
    Where the float screen of ``_decide`` picks c, x is its hardware value,
    so the distances are within 2^-40 of the exact path's, or within
    p * 2^(2 - mp.prec), that path's own rounding, where that is coarser;
    elsewhere x is the exact arg's at mp.prec.
    """

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
    branch_log: tuple[BranchChoice, ...]
    zero_notes: tuple[ZeroRadicandNote, ...]


# the sector screen's error bound on x in sector units, beside the exact
# path's own rounding: x_f is within p * 2^-50 of x modulo p, below 2^-30
# for any p below 2^20
_SCREEN_ERROR = 2.0 ** -30


def _exact_sector(p: int, target: mpc, delta: mpf):
    """The fallback of the sector screen, at mp.prec: x = p * arg(L_k) / 2pi,
    the centre nint(x), or nint(x - 1/2) within delta^2 of a sector
    boundary, and the edge 1/2 - |x - nint(x)|."""
    half = mpf(1) / 2
    x = p * mpmath.arg(target) / (2 * mp.pi)
    centre = mpmath.nint(x)
    edge = half - abs(x - centre)
    if edge < delta * delta:
        centre = mpmath.nint(x - half)
    return x, centre, edge


def _decide(level: int, p: int, line, stored, theta, delta: mpf) -> list:
    """The zero and branch decisions of one tensor line from the stored
    resolvent entries alone: per entry None for a zero, else (branch, best
    distance, second distance, on the cut) in sector units.

    An entry is zero when |L_k| < delta.  A nonzero entry whose |L_k|^p lies
    on the noise floor, 10^(4-digits) times the line's sum of magnitudes in
    ``theta`` (Theta_level at full precision), raises PhaseAmbiguous.  The
    branch is nint(x) mod p for x = p * arg(L_k) / 2pi.  Within delta^2 of a
    sector boundary x is on the cut, and the branch is nint(x - 1/2) mod p,
    arg +pi/p as for an exactly negative real (``_root`` takes a compound
    radicand off the cut); between delta^2 and delta it raises PhaseAmbiguous.

    Every test runs exactly only where a screen cannot decide it.  With
    both parts of L_k below 2^h and one at 2^(h-1) or more, the entry is
    zero without ``abs`` when 2^(h+1) <= 2^(e_delta - 1) <= delta, e_delta
    the exponent of delta, and nonzero when 2^(h-1) >= 2^e_delta > delta.
    With the parts of the Theta line below 2^top, the computed floor is
    below 2^(top + e + bitlen(p) + 2), e the exponent of the computed
    10^(4-digits), and the computed |L_k|^p above 2^(p(h - 1) - 1).  The
    sector comes from x_f = p * atan2 / 2pi in hardware floats on both
    parts scaled by 2^-h, so the larger is in [1/2, 1) and one 2^1100
    below it is 0 rather than an overflow.  x_f is within p * 2^-50 of x
    modulo p, and the exact path's x at mp.prec within p * 2^(2 - prec) of
    it: where x_f is more than float(delta) + 2^-30 + p * 2^(3 - prec) from
    a boundary, the computed x is more than delta from it too, so the
    branch is round(x_f) mod p as the exact path would pick, and the
    distances are those of x_f.  Elsewhere, the cut included, the exact
    path decides (``_exact_sector``).
    """
    ten = mpf(10) ** (4 - mp.dps)
    # -inf for an all-zero line, whose floor is zero
    top = max(part_bits(theta.data[i]) for i in line)
    clear = top + bit_exponent(ten) + p.bit_length() + 3
    nonzero = bit_exponent(delta)
    screen = float(delta) + _SCREEN_ERROR + p * 2.0 ** (3 - mp.prec)
    picks: list = []
    for flat in line:
        target = stored.data[flat]
        h = part_bits(target)
        if h <= nonzero - 2 or h <= nonzero and abs(target) < delta:
            picks.append(None)
            continue
        if p * (h - 1) < clear and (magnitude := abs(target)) ** p <= (
                floor := ten * sum(abs(theta.data[i]) for i in line)):
            raise PhaseAmbiguous(
                f"resolvent entry at level {level}, index {flat} is on the "
                f"noise floor: |L|^{p} = {mpmath.nstr(magnitude ** p, 4)} vs "
                f"{mpmath.nstr(floor, 4)}, |L| = {mpmath.nstr(magnitude, 4)} "
                f"vs delta {mpmath.nstr(delta, 4)}")
        re, im = (float(mpmath.ldexp(v, -h))
                  for v in (target.real, target.imag))
        x_f = p * math.atan2(im, re) / math.tau
        c = round(x_f)
        if 0.5 - abs(x_f - c) > screen:
            best = mpf(abs(x_f - c))
            picks.append((c % p, best, 1 - best, False))
            continue
        x, centre, edge = _exact_sector(p, target, delta)
        if delta * delta <= edge < delta:
            raise PhaseAmbiguous(
                f"cannot fix the branch of a {p}-th root at level {level}, "
                f"index {flat}: {mpmath.nstr(edge, 4)} sectors from a "
                f"boundary, delta {mpmath.nstr(delta, 4)}")
        best = abs(x - centre)
        picks.append((int(centre) % p, best, 1 - best, edge < delta * delta))
    return picks


def _root(p: int, radicand: RadicalExpr, branch: int, best, second, on_cut):
    """The node of zeta_p^branch times the principal p-th root of E, and its
    pick (tag of the emitted Root, best and second distance).  A compound E
    on the cut gives way to -E, off it: -root(p, branch + (p+1)/2; -E) at
    odd p, root(2,0; -1)*root(2,branch; -E) at p = 2."""
    if not on_cut or isinstance(radicand, IntegerLiteral):
        node = make_root(p, radicand, branch)
    elif p == 2:
        node = make_product([Root(2, IntegerLiteral(-1), 0), Root(
            2, make_product([IntegerLiteral(-1), radicand]), branch)])
    else:
        branch = (branch + (p + 1) // 2) % p
        node = make_product([IntegerLiteral(-1), Root(
            p, make_product([IntegerLiteral(-1), radicand]), branch)])
    return node, (branch, best, second)


def _representatives(series: CompositionSeries) -> list[int]:
    """The Theta_0 position of each root label 1..n: the first level-1
    line's when it holds every label (sigma_1 an n-cycle, as at prime
    degree), else the first position of each label."""
    labels = position_root_indices(series)
    scan = next(axis_lines(series.primes, 0)) if series.length else []
    if len({labels[flat] for flat in scan}) < series.degree:
        scan = range(len(labels))
    position: dict[int, int] = {}
    for flat in scan:
        position.setdefault(labels[flat], flat)
    return [position[label] for label in range(1, series.degree + 1)]


def _demand(radices: tuple[int, ...], positions) -> list[list]:
    """Per level 1..m, the lines of its axis that hold an entry read below:
    at level 1 one of ``positions``, above it one of a line of the level
    below."""
    demand, needed = [], set(positions)
    for axis in range(len(radices)):
        demand.append([line for line in axis_lines(radices, axis)
                       if not needed.isdisjoint(line)])
        needed = {flat for line in demand[-1] for flat in line}
    return demand


def reconstruct(series: CompositionSeries, int_theta: IntegerThetaTensor,
                forward: ForwardResult) -> ReconstructionResult:
    """Work the tensor transforms backward, building nodes only, and only on
    the lines that the root expressions read.

    Each root is built at one Theta_0 position (``_representatives``): at
    prime degree one level-1 line holds them all, so the n roots share its
    p radicals, as in Lagrange's formula x_j = (1/p) sum_k zeta^(-jk) R_k.
    A level builds only the lines that a built line below reads
    (``_demand``).

    For each built line of level i = m..1 and resolvent index k, the exact
    combination E_k = sum_j Theta_i[...,j,...] * zeta_i^{jk} equals the
    p_i-th power of the stored resolvent entry L_k of ``forward``.  Whether
    E_k vanishes and which branch of its p_i-th root is L_k are decided from
    L_k alone, at the working precision digits = mp.dps, with
    delta = 10^(-digits/4); see ``_decide``.  No value of a node is computed
    here: the solve evaluates the root expressions once afterwards.

    Nodes are interned, so lines of a level with the same nodes are the same
    tuple of objects, and lines that choose the same roots share the inverse
    combination.  Lines with the same nodes and the same stored targets, bit
    for bit, share the decisions, made once; each built line still logs one
    BranchChoice or ZeroRadicandNote per entry, under the entry's own flat
    index.
    """
    delta = mpf(10) ** (-mpf(mp.dps) / 4)
    radices = int_theta.radices
    positions = _representatives(series)
    demand = _demand(radices, positions)
    exact: list[RadicalExpr] = [IntegerLiteral(v) for v in int_theta.values]
    branch_log: list[BranchChoice] = []
    zero_notes: list[ZeroRadicandNote] = []

    for level in range(series.length, 0, -1):
        p = radices[level - 1]
        stored = forward.resolvents[level - 1]
        new_exact: list[RadicalExpr] = [None] * len(exact)  # type: ignore
        # the chosen roots -> inverse combination; (nodes, targets) ->
        # per-entry decisions, combination
        combos: dict = {}
        decided: dict = {}
        for line in demand[level - 1]:
            line_exprs = tuple(exact[i] for i in line)
            key = line_exprs, tuple(mpc_ints(stored.data[i]) for i in line)
            if key not in decided:
                decisions = _decide(level, p, line, stored,
                                    forward.thetas[level], delta)
                chosen, picks = zip(*(
                    (_ZERO, None) if pick is None else _root(p, make_sum(
                        make_product([_zeta(p, j * k), line_exprs[j]])
                        for j in range(p)), *pick)
                    for k, pick in enumerate(decisions)))
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

    return ReconstructionResult(tuple(exact[flat] for flat in positions),
                                tuple(branch_log), tuple(zero_notes))


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


# format -> its visit function and the memo of the last emit in it
_renders = {"text": (_text, {}), "latex": (_latex, {})}


def emit(expr: RadicalExpr, format: str = "text") -> str:
    """Render an expression as text, LaTeX, or the JSON AST.

    Text and LaTeX start from the memo of the previous call in the same
    format, so a subtree that the roots of one solve share, such as the
    radicand of each p-th root, is rendered once for all of them.  Unless
    that memo holds ``expr`` itself, it is then replaced by this call's,
    which holds only the nodes of ``expr`` that the call read or made: the
    slot keeps no more than one expression's nodes alive, and an unrelated
    call renders as a fresh one.  A stored memo is never written again, so
    calls from several threads render correctly.  JSON takes a fresh memo
    per call, as ``json_ast`` returns shared dicts."""
    if format == "json":
        return json.dumps(json_ast(expr), separators=(",", ":"))
    if format not in _renders:
        raise ValueError(f"unknown format {format!r}")
    visit, previous = _renders[format]
    if expr in previous:        # rendered by the last call: the slot stays
        return previous[expr]
    memo: dict = {}
    rendered = _walk(visit, expr, memo, previous)
    _renders[format] = visit, memo
    return rendered


def _from_json_obj(obj) -> RadicalExpr:
    """The node of a parsed JSON AST, as ``reconstruct`` builds them: a scale
    1/d, d >= 2, or a root or zeta of prime p <= DEFAULT_ORDER_CAP (p divides
    the group's order) and tag in [0, p).  It recurses once per level, as
    the json module does, so an AST too deep to recurse is not JSON anyway."""
    if not isinstance(obj, dict) or not obj or [] in (obj.get("sum"),
                                                      obj.get("product")):
        raise ValueError(f"bad expression node: {obj!r}")
    if "scale" in obj:
        num, _, den = obj["scale"].partition("/")
        if num != "1" or not den.isdecimal() or int(den) < 2:
            raise ValueError(f"scale must be 1/p, got {obj['scale']!r}")
        return RationalScale(int(den), _from_json_obj({"sum": obj["sum"]}))
    if "int" in obj:
        return IntegerLiteral(int(obj["int"]))
    if "sum" in obj:
        terms = [_from_json_obj(t) for t in obj["sum"]]
        return terms[0] if len(terms) == 1 else Sum(tuple(terms))
    if "product" in obj:
        return Product(tuple(_from_json_obj(f) for f in obj["product"]))
    if "zeta" in obj or "root" in obj:
        fields = obj["zeta"] if "zeta" in obj else obj["root"]
        p, k = fields["p"], fields["k" if "zeta" in obj else "branch"]
        if not (type(p) is type(k) is int and 2 <= p <= DEFAULT_ORDER_CAP
                and 0 <= k < p and smallest_prime_factor(p) == p):
            raise ValueError(f"bad expression node: {obj!r}")
        return RootOfUnitySymbol(p, k) if "zeta" in obj else Root(
            p, _from_json_obj(fields["radicand"]), k)
    raise ValueError(f"unknown expression node keys: {sorted(obj)}")


def parse_expr_json(text: str) -> RadicalExpr:
    return _from_json_obj(json.loads(text))


def verify(exprs, roots: RootSet, cache: ValueCache | None = None):
    """Compare each expression's value, from ``cache`` when given, to its
    claimed root, at the roots' digit budget: the check that ``solve``
    makes of every answer.

    Returns the per-root deviations; raises VerificationFailed, naming the
    worst root, when a deviation reaches 10^(-digits/2).
    """
    if len(exprs) != roots.n:
        raise ValueError("one expression per root is required")
    digits = roots.digits
    cache = cache or ValueCache()
    with mp.workdps(digits):
        threshold = mpf(10) ** (-mpf(digits) / 2)
        deviations = [abs(_walk(cache.value, expr, cache.nodes) - root)
                      for expr, root in zip(exprs, roots.roots)]
    worst = max(deviations, default=mpf(0))
    if worst >= threshold:
        raise VerificationFailed(
            f"x_{deviations.index(worst) + 1} evaluates "
            f"{mpmath.nstr(worst, 4)} from its labeled root, over "
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

"""Permutation arithmetic, group closure, composition series, coset machinery.

Composition convention throughout: ``(sigma * tau)(j) = sigma(tau(j))`` and a
permutation acts on root labels by ``sigma . x_j = x_{sigma(j)}``.
"""

from __future__ import annotations

import itertools
import re as _re
from dataclasses import dataclass, field

from .errors import InputSyntaxError, NotSolvable, UnsupportedInput

__all__ = [
    "Permutation",
    "PermutationGroup",
    "CompositionSeries",
    "parse_cycles",
    "closure",
    "composition_series",
    "smallest_prime_factor",
    "coset_representatives",
    "orbit_sum_invariant",
]

DEFAULT_ORDER_CAP = 10**6
DEFAULT_DEGREE_CAP = 8


@dataclass(frozen=True, order=True)
class Permutation:
    """Bijection of {1..n}; images[j-1] is the image of j."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise InputSyntaxError(f"not a permutation of 1..{n}: {self.images}")

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(tuple(range(1, degree + 1)))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, j: int) -> int:
        return self.images[j - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        return Permutation(tuple(self.images[other.images[j] - 1]
                                 for j in range(self.degree)))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for j, img in enumerate(self.images, start=1):
            inv[img - 1] = j
        return Permutation(tuple(inv))

    def power(self, k: int) -> "Permutation":
        if k < 0:
            return self.inverse().power(-k)
        acc = Permutation.identity(self.degree)
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    def is_identity(self) -> bool:
        return all(img == j for j, img in enumerate(self.images, start=1))

    def cycles(self) -> list[tuple[int, ...]]:
        seen, out = set(), []
        for start in range(1, self.degree + 1):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            j = self(start)
            while j != start:
                cyc.append(j)
                seen.add(j)
                j = self(j)
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def __str__(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + ",".join(map(str, c)) + ")" for c in cycs)


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse disjoint-cycle notation like ``(1,4)(2,3)``; empty = identity."""
    s = "".join(text.split())
    if s in ("", "()"):
        return Permutation.identity(degree)
    if not _re.fullmatch(r"(\(\d+(,\d+)*\))+", s):
        raise InputSyntaxError(f"bad cycle notation: {text!r}")
    images = list(range(1, degree + 1))
    seen: set[int] = set()
    for cyc_text in _re.findall(r"\(([^)]*)\)", s):
        points = [int(t) for t in cyc_text.split(",")]
        for pt in points:
            if not 1 <= pt <= degree:
                raise InputSyntaxError(
                    f"point {pt} out of range 1..{degree} in {text!r}")
            if pt in seen:
                raise InputSyntaxError(f"repeated point {pt} in {text!r}")
            seen.add(pt)
        for a, b in zip(points, points[1:] + points[:1]):
            images[a - 1] = b
    return Permutation(tuple(images))


@dataclass(frozen=True)
class PermutationGroup:
    """A permutation group with its full element enumeration."""

    degree: int
    generators: tuple[Permutation, ...]
    elements: tuple[Permutation, ...]
    _element_set: frozenset[tuple[int, ...]] = field(repr=False)

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, perm: Permutation) -> bool:
        return perm.images in self._element_set

    def is_normalized_by(self, s: Permutation) -> bool:
        """True when s G s^-1 = G, checked on the generators."""
        s_inv = s.inverse()
        return all((s * g * s_inv) in self for g in self.generators)


def _close_elements(generators: list[Permutation],
                    degree: int) -> list[Permutation]:
    """Breadth-first closure; returns elements in discovery order."""
    identity = Permutation.identity(degree)
    elements = [identity]
    seen = {identity.images}
    frontier = [identity]
    while frontier:
        nxt = []
        for u in frontier:
            for g in generators:
                v = u * g
                if v.images not in seen:
                    seen.add(v.images)
                    elements.append(v)
                    nxt.append(v)
                    if len(elements) > DEFAULT_ORDER_CAP:
                        raise UnsupportedInput(
                            f"group order exceeds cap {DEFAULT_ORDER_CAP}")
        frontier = nxt
    return elements


def closure(generators) -> PermutationGroup:
    """Enumerate the group generated by the given permutations."""
    gens = list(generators)
    if not gens:
        raise InputSyntaxError("at least one generator is required")
    degree = gens[0].degree
    for g in gens:
        if g.degree != degree:
            raise InputSyntaxError("generators have mismatched degrees")
    elements = _close_elements(gens, degree)
    return PermutationGroup(degree, tuple(gens), tuple(elements),
                            frozenset(e.images for e in elements))


@dataclass(frozen=True)
class CompositionSeries:
    """Chain {e} = G_0 < G_1 < ... < G_m = G with G_i = <sigma_1..sigma_i>.

    Each step (sigma_i, p_i) has sigma_i^{p_i} in G_{i-1} and
    [G_i : G_{i-1}] = p_i prime.
    """

    steps: tuple[tuple[Permutation, int], ...]
    group: PermutationGroup

    @property
    def length(self) -> int:
        return len(self.steps)

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for _, p in self.steps)

    @property
    def degree(self) -> int:
        return self.group.degree

    @property
    def order(self) -> int:
        return self.group.order


def _derived_subgroup(gens: list[Permutation],
                      degree: int) -> tuple[list[Permutation], list[Permutation]]:
    """Derived subgroup as the normal closure of generator commutators."""
    comm_gens: list[Permutation] = []
    seen: set[tuple[int, ...]] = set()
    for a in gens:
        for b in gens:
            c = a.inverse() * b.inverse() * a * b
            if not c.is_identity() and c.images not in seen:
                seen.add(c.images)
                comm_gens.append(c)
    if not comm_gens:
        ident = Permutation.identity(degree)
        return [ident], [ident]
    sub = _close_elements(comm_gens, degree)
    sub_set = {e.images for e in sub}
    # normal closure: conjugate each subgroup generator (new ones included)
    # by the parent's generators, re-closing when a conjugate falls outside
    for h in comm_gens:
        for g in gens:
            c = g * h * g.inverse()
            if c.images not in sub_set:
                comm_gens.append(c)
                sub = _close_elements(comm_gens, degree)
                sub_set = {e.images for e in sub}
    return sub, comm_gens


def smallest_prime_factor(n: int) -> int:
    """The least prime dividing n >= 2, by trial division; n when prime."""
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def composition_series(G: PermutationGroup) -> CompositionSeries:
    """Composition series with prime cyclic quotients, via the derived series.

    Each abelian layer is refined by adjoining prime powers of elements not
    yet captured.  Candidates are scanned deterministically: the user-supplied
    generators first (in input order), then all layer elements in lexicographic
    image order, so re-running on the same group yields the same series.

    Raises NotSolvable if the derived series stalls above the trivial group.
    """
    if G.order == 1:
        return CompositionSeries((), G)

    # derived chain G = D_0 > D_1 > ... > D_r = {e}
    chain: list[tuple[list[Permutation], list[Permutation]]] = [
        (list(G.elements), list(G.generators))]
    while len(chain[-1][0]) > 1:
        els, gens = chain[-1]
        sub, sub_gens = _derived_subgroup(gens, G.degree)
        if len(sub) == len(els):
            raise NotSolvable(
                f"derived series stalls at a perfect subgroup of order {len(sub)}")
        chain.append((sub, sub_gens))

    steps: list[tuple[Permutation, int]] = []
    h_gens: list[Permutation] = []
    h_set: set[tuple[int, ...]] = {Permutation.identity(G.degree).images}
    # refine layers bottom-up: D_r -> D_{r-1} -> ... -> D_0
    for upper_els, _ in reversed(chain[:-1]):
        upper_set = {e.images for e in upper_els}
        candidates = [g for g in G.generators if g.images in upper_set]
        candidates += sorted(upper_els, key=lambda e: e.images)
        while len(h_set) < len(upper_set):
            x = next(c for c in candidates if c.images not in h_set)
            # order of the coset xH in the abelian quotient U/H
            d, cur = 1, x
            while cur.images not in h_set:
                cur = cur * x
                d += 1
            p = smallest_prime_factor(d)
            sigma = x.power(d // p)
            h_gens.append(sigma)
            h_elements = _close_elements(h_gens, G.degree)
            if len(h_elements) != p * len(h_set):
                raise AssertionError("composition refinement index mismatch")
            h_set = {e.images for e in h_elements}
            steps.append((sigma, p))
    return CompositionSeries(tuple(steps), G)


def coset_representatives(G: PermutationGroup,
                          cap: int = DEFAULT_DEGREE_CAP) -> list[Permutation]:
    """One representative per coset sigma*G of the symmetric group on
    G's degree, lex order.

    The representative of each coset is its lexicographically least member;
    the identity comes first.
    """
    degree = G.degree
    if degree > cap:
        raise UnsupportedInput(f"degree {degree} exceeds cap {cap}")
    # the images of rep * g, composed on tuples: (rep * g)(j) = rep(g(j))
    positions = [tuple(k - 1 for k in g.images) for g in G.elements]
    reps: list[Permutation] = []
    covered: set[tuple[int, ...]] = set()
    for images in itertools.permutations(range(1, degree + 1)):
        if images in covered:
            continue
        reps.append(Permutation(images))
        covered.update(tuple(images[k] for k in g) for g in positions)
    return reps


def orbit_sum_invariant(G: PermutationGroup,
                        exponents) -> list[tuple[int, ...]]:
    """Orbit of the monomial x_1^{k_1}...x_n^{k_n} under G, as a sorted set.

    The orbit sum is a G-invariant polynomial with unit coefficients; the
    orbit length is |G| / |stabilizer|.
    """
    vec = tuple(exponents)
    if len(vec) != G.degree:
        raise InputSyntaxError("exponent vector length must equal the degree")
    orbit = set()
    for g in G.elements:
        moved = [0] * G.degree
        for j in range(1, G.degree + 1):
            moved[g(j) - 1] = vec[j - 1]
        orbit.add(tuple(moved))
    return sorted(orbit)

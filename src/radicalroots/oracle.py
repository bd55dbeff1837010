"""Brute-force integrality certificates and the root-labeling search.

Invariant polynomials of the group take integer values on the labeled roots of
a monic integer polynomial; these checks certify a labeling (or find one) and
cross-check the main pipeline without touching the tensor transforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
from mpmath import mp, mpc, mpf

from .errors import LabelingFailed, ResidualTooLarge
from .groups import (PermutationGroup, Permutation, coset_representatives,
                     orbit_sum_invariant)
from .polynomial import eval_poly
from .precision import nearest_integer
from .resolvent import DEFAULT_ROUNDING_TOLERANCE, round_to_integer
from .rootfinder import RootSet

__all__ = [
    "invariant_value",
    "coset_product_certificate",
    "label_roots",
    "CertificateResult",
    "LabelingResult",
    "default_labeling_invariants",
]

DEFAULT_LABELING_TOLERANCE = 1e-6
# the labeling screen's safety factor on its rounding bound, and the bound
# above which it keeps a candidate undecided: see _screen
_SCREEN_ERROR_FACTOR = 8
_SCREEN_BOUND_CAP = 0.25
# the certificate walks S_n and has degree n!/|G|; `check` skips larger n
CERTIFICATE_DEGREE_CAP = 6
# low-degree monomials keep the invariant's coefficient sum small
_DEFAULT_MONOMIALS = ((1, 2), (1, 1, 2), (2, 1))


def _monomial_value(exponents, roots) -> mpc:
    acc = mpc(1)
    for j, k in enumerate(exponents):
        if k:
            acc = acc * roots[j] ** k
    return acc


def _orbit_value(orbit, roots) -> mpc:
    acc = mpc(0)
    for vec in orbit:
        acc = acc + _monomial_value(vec, roots)
    return acc


def invariant_value(orbit, roots: RootSet) -> tuple[int, mpf]:
    """Evaluate an orbit-sum invariant on labeled roots and round it.

    Raises ResidualTooLarge when the value is not close to an integer
    (labeling inconsistent with the group, or precision too short).
    """
    with mp.workdps(roots.digits):
        return round_to_integer(
            _orbit_value(orbit, roots.roots), "orbit sum",
            "; labeling inconsistent with the group, or precision too short")


@dataclass(frozen=True)
class CertificateResult:
    """Monic integer polynomial certifying that an invariant is an integer."""

    coefficients: tuple[int, ...]          # ascending, monic
    residuals: tuple[mpf, ...]

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1


def coset_product_certificate(G: PermutationGroup, orbit,
                              roots: RootSet) -> CertificateResult:
    """Expand F(x) = prod over coset representatives of (x - sigma.theta).

    F is invariant under the full symmetric group, so its coefficients round
    to integers; the labeled theta value must be a root of the rounded F.
    """
    n = G.degree
    values = roots.roots
    reps = coset_representatives(G, cap=CERTIFICATE_DEGREE_CAP)
    with mp.workdps(roots.digits):
        coeffs = [mpc(1)]
        for rep in reps:
            moved = tuple(values[rep(j) - 1] for j in range(1, n + 1))
            v = _orbit_value(orbit, moved)
            nxt = [mpc(0)] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                nxt[i + 1] = nxt[i + 1] + c
                nxt[i] = nxt[i] - v * c
            coeffs = nxt
        rounded = [round_to_integer(c, f"certificate coefficient {i}",
                                    position=i)
                   for i, c in enumerate(coeffs)]
        ints = [k for k, _ in rounded]
        theta_val = _orbit_value(orbit, values)
        membership = abs(eval_poly(ints, theta_val))
        cap = DEFAULT_ROUNDING_TOLERANCE * (1 + abs(theta_val)) ** len(reps)
        if membership >= cap:
            raise ResidualTooLarge(
                "labeled invariant is not a root of its own certificate "
                f"polynomial (|F(theta)| = {mpmath.nstr(membership, 4)})",
                residual=membership)
    return CertificateResult(tuple(ints), tuple(res for _, res in rounded))


def default_labeling_invariants(G: PermutationGroup):
    """Orbit sums of a few low-degree monomials, sized to the group degree,
    as (monomial name, orbit) pairs.

    Monomials whose orbits coincide (one may be another's image) are deduped.
    """
    named, seen = [], set()
    for template in _DEFAULT_MONOMIALS:
        if len(template) > G.degree:
            continue
        vec = template + (0,) * (G.degree - len(template))
        orbit = orbit_sum_invariant(G, vec)
        key = tuple(orbit)
        if key in seen:
            continue
        seen.add(key)
        name = "*".join(f"x_{j + 1}^{k}" if k > 1 else f"x_{j + 1}"
                        for j, k in enumerate(vec) if k)
        named.append((name, orbit))
    return named


def _screen(reps, invariants, roots: RootSet) -> list[Permutation]:
    """The representatives, in order, that a hardware ``complex`` evaluation
    of the invariants cannot reject.

    Orbit sums are computed from a table of root powers built once.  The
    float sum and the ``mpc`` sum at ``roots.digits`` each round at most
    (orbit length + monomial degree) times per term, so they differ by at
    most bound = factor * (length + degree) * (2^-52 + 10^(1-digits)) *
    sum |term|.  A representative is dropped only when its float residual
    exceeds the tolerance by more than the bound, so every one the exact test
    passes is kept; so is every one whose bound is not small or not finite.
    """
    exponents = {k for orbit in invariants for vec in orbit for k in vec if k}
    try:
        powers = {k: [complex(z) ** k for z in roots.roots] for k in exponents}
    except OverflowError:
        return list(reps)
    unit = 2.0 ** -52 + 10.0 ** (1 - roots.digits)
    orbits = [([[(j, k) for j, k in enumerate(vec) if k] for vec in orbit],
               _SCREEN_ERROR_FACTOR * unit
               * (len(orbit) + max(sum(vec) for vec in orbit)))
              for orbit in invariants]
    survivors = []
    for rep in reps:
        # label j takes input root rep(j)
        moved = {k: [row[i - 1] for i in rep.images] for k, row in powers.items()}
        for monomials, scale in orbits:
            total, size = 0j, 0.0
            for monomial in monomials:
                term = 1
                for j, k in monomial:
                    term *= moved[k][j]
                total += term
                size += abs(term)
            bound = scale * size
            if (bound < _SCREEN_BOUND_CAP
                    and max(abs(total.real - round(total.real)), abs(total.imag))
                    > DEFAULT_LABELING_TOLERANCE + bound):
                break
        else:
            survivors.append(rep)
    return survivors


@dataclass(frozen=True)
class LabelingResult:
    permutation: Permutation          # label j takes input root permutation(j)
    candidates_passed: int            # candidates the float screen kept


def label_roots(G: PermutationGroup, roots: RootSet) -> LabelingResult:
    """Find a labeling of the roots consistent with the group action.

    Starting from the input order as a provisional labeling, each coset
    representative of the symmetric group modulo G is tested: a valid
    relabeling makes every invariant in the test set integral.  The test
    screens every representative in hardware ``complex`` first, and keeps
    each one the screen cannot reject (including those whose values
    overflow); the survivors are confirmed in ``mpc`` at the roots' digit
    budget, in order, and the first confirmed one is returned, with the
    number of survivors as ``candidates_passed``; when none passes,
    LabelingFailed is raised.  A labeling that is not the Galois action can
    still make the invariants integral, so ``solve`` still rounds the final
    tensor and verifies every root: it returns a radical only when it
    evaluates within 10^(-digits/2) of its labeled root.
    """
    n = G.degree
    if roots.n != n:
        raise ValueError("root count does not match the group degree")
    invariants = [orbit for _, orbit in default_labeling_invariants(G)]
    reps = _screen(coset_representatives(G), invariants, roots)
    with mp.workdps(roots.digits):
        for rep in reps:
            moved = tuple(roots.roots[rep(j) - 1] for j in range(1, n + 1))
            if all(nearest_integer(_orbit_value(orbit, moved))[1]
                   < DEFAULT_LABELING_TOLERANCE for orbit in invariants):
                return LabelingResult(rep, len(reps))
    raise LabelingFailed(
        "no coset representative makes the test invariants integral; "
        "check the group, or supply --root-order explicitly")

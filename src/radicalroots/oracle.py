"""Brute-force integrality certificates and the root-labeling search.

Invariant polynomials of the group take integer values on the labeled roots of
a monic integer polynomial; these checks certify a labeling (or find one) and
cross-check the main pipeline without touching the tensor transforms.  The
labeling search reads the cosets of G in S_n lazily, in lex order, and stops
at the first one whose invariants are integral in ``mpc``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import mpmath
from mpmath import mp, mpc, mpf

from .errors import LabelingFailed, ResidualTooLarge
from .groups import (PermutationGroup, Permutation, coset_representatives,
                     orbit_sum_invariant)
from .polynomial import eval_poly
from .precision import nearest_integer
from .resolvent import DEFAULT_ROUNDING_TOLERANCE, round_to_integer
from .rootfinder import RootSet, relabel

__all__ = [
    "invariant_value",
    "coset_product_certificate",
    "label_roots",
    "CertificateResult",
    "LabelingResult",
    "default_labeling_invariants",
]

DEFAULT_LABELING_TOLERANCE = 1e-6
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
    reps = list(coset_representatives(G, cap=CERTIFICATE_DEGREE_CAP))
    with mp.workdps(roots.digits):
        coeffs = [mpc(1)]
        for rep in reps:
            v = _orbit_value(orbit, relabel(roots, rep).roots)
            nxt = [mpc(0)] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                nxt[i + 1] = nxt[i + 1] + c
                nxt[i] = nxt[i] - v * c
            coeffs = nxt
        rounded = [round_to_integer(c, f"certificate coefficient {i}",
                                    position=i)
                   for i, c in enumerate(coeffs)]
        ints = [k for k, _ in rounded]
        theta_val = _orbit_value(orbit, roots.roots)
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


def _symmetric_orbit_length(exponents) -> int:
    """n!/prod m_i!, the length of the monomial's orbit under S_n, m_i the
    multiplicities of its exponents."""
    length = math.factorial(len(exponents))
    for m in Counter(exponents).values():
        length //= math.factorial(m)
    return length


@dataclass(frozen=True)
class LabelingResult:
    """The first coset representative that passes, and its 1-based position
    in the lazy walk: the number of cosets ``label_roots`` tested."""

    permutation: Permutation          # label j takes input root permutation(j)
    candidates_passed: int            # cosets tested in mpc, this one included


def label_roots(G: PermutationGroup, roots: RootSet) -> LabelingResult:
    """Find a labeling of the roots consistent with the group action.

    Starting from the input order as a provisional labeling, the coset
    representatives of the symmetric group modulo G are tested in lex order,
    as ``coset_representatives`` yields them: a valid relabeling makes every
    invariant in the test set integral in ``mpc`` at the roots' digit
    budget.  The test set is ``default_labeling_invariants`` less every
    orbit as long as its monomial's S_n orbit: such an orbit sum is
    symmetric, an integer under every coset, so it separates none (under
    S_n none is left, and its one coset passes).  The first representative
    that passes is returned, with the
    number of representatives tested, itself included, as
    ``candidates_passed``; the walk reads no further.  When none passes,
    LabelingFailed is raised.  A labeling that is not the Galois action can
    still make the invariants integral, so ``solve`` still rounds the final
    tensor and verifies every root: it returns a radical only when it
    evaluates within 10^(-digits/2) of its labeled root.
    """
    if roots.n != G.degree:
        raise ValueError("root count does not match the group degree")
    invariants = [orbit for _, orbit in default_labeling_invariants(G)
                  if len(orbit) < _symmetric_orbit_length(orbit[0])]
    with mp.workdps(roots.digits):
        for tested, rep in enumerate(coset_representatives(G), start=1):
            moved = relabel(roots, rep).roots
            if all(nearest_integer(_orbit_value(orbit, moved))[1]
                   < DEFAULT_LABELING_TOLERANCE for orbit in invariants):
                return LabelingResult(rep, tested)
    raise LabelingFailed(
        "no coset representative makes the test invariants integral; "
        "check the group, or supply --root-order explicitly")

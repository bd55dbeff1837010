"""End-to-end orchestration: parse, reduce, root-find, plan, transform,
round, reconstruct, verify."""

from __future__ import annotations

import operator

import mpmath
from mpmath import mp, mpf

from .errors import InputSyntaxError, PhaseAmbiguous
from .groups import Permutation, closure, composition_series, parse_cycles
from .oracle import label_roots
from .polynomial import IntPolynomial, parse_polynomial, to_monic
from .radical import (SolveReport, ValueCache, evaluate, reconstruct,
                      verify)
from .resolvent import (build_theta0, forward_pass, plan_precision,
                        round_theta_m, zeta_tables)
from .rootfinder import (aberth_stage, polish_roots, relabel,
                         root_magnitude_bound)

__all__ = ["solve", "as_polynomial", "as_generators", "as_labeling"]

_PHASE_RETRIES = 3


def as_polynomial(poly) -> IntPolynomial:
    if isinstance(poly, IntPolynomial):
        return poly
    if isinstance(poly, str):
        return parse_polynomial(poly)
    if not isinstance(poly, (list, tuple)):
        raise InputSyntaxError(f"a polynomial is text or a list of "
                               f"coefficients, got {poly!r}")
    return IntPolynomial(tuple(_integer(c, f"polynomial coefficient {i}")
                               for i, c in enumerate(poly)))


def _integer(value, what: str) -> int:
    """``value`` if it is an integer (not a float, not text), else
    InputSyntaxError naming ``what``."""
    try:
        return operator.index(value)
    except TypeError:
        raise InputSyntaxError(
            f"{what} must be an integer, got {value!r}") from None


def as_generators(generators, degree: int) -> list[Permutation]:
    if isinstance(generators, str):
        generators = generators.split(";")
    if not isinstance(generators, (list, tuple)):
        raise InputSyntaxError(f"generators are text or a list, got "
                               f"{generators!r}")
    gens = []
    for item in generators:
        if isinstance(item, str):
            item = parse_cycles(item, degree)
        elif not isinstance(item, Permutation):
            raise InputSyntaxError(f"a generator is cycle text or a "
                                   f"Permutation, got {item!r}")
        if item.degree != degree:
            raise InputSyntaxError(f"generator {item} moves {item.degree} "
                                   f"points, the polynomial has {degree} roots")
        gens.append(item)
    return gens


def as_labeling(labeling, degree: int) -> Permutation:
    if isinstance(labeling, Permutation):
        sigma = labeling
    else:
        if isinstance(labeling, str):
            try:
                labeling = [int(t) for t in labeling.replace(";", ",").split(",")]
            except ValueError:
                raise InputSyntaxError(f"root order must list integers, got "
                                       f"{labeling!r}") from None
        elif not isinstance(labeling, (list, tuple)):
            raise InputSyntaxError(f"a labeling is \"auto\", text, a list or "
                                   f"a Permutation, got {labeling!r}")
        sigma = Permutation(tuple(_integer(i, "a root order entry")
                                  for i in labeling))
    if sigma.degree != degree:
        raise InputSyntaxError(
            f"labeling must list {degree} root positions, got {sigma.degree}")
    return sigma


def _guard_roots(evaluations, roots) -> None:
    """Raise PhaseAmbiguous when an evaluation lies delta * max(1, |x|) or
    more from its labeled root x, delta = 10^(-mp.dps/4): a flipped branch
    then fails the attempt, whether or not the solve verifies."""
    delta = mpf(10) ** (-mpf(mp.dps) / 4)
    for label, (value, root) in enumerate(zip(evaluations, roots.roots), 1):
        deviation = abs(value - root)
        if deviation >= delta * max(1, abs(root)):
            raise PhaseAmbiguous(
                f"x_{label} evaluates {mpmath.nstr(deviation, 4)} from its "
                f"labeled root, delta {mpmath.nstr(delta, 4)}")


def solve(poly, generators, *, digits: int | None = None, labeling="auto",
          run_verification: bool = True) -> SolveReport:
    """Solve a monic-reducible integer polynomial by radicals.

    ``poly`` is polynomial text, an ascending coefficient list, or an
    IntPolynomial; ``generators`` is cycle-notation text separated by ``;`` or
    a list of permutations; ``labeling`` is "auto" or an explicit assignment
    (label j takes the j-th listed position of the canonically ordered roots).

    The digit budget is ``digits``, an integer >= 1, when given, and the
    precision plan's (its requirement plus DEFAULT_MARGIN) otherwise.  Each
    attempt evaluates the root expressions once, after ``reconstruct``, and
    an evaluation off its labeled root is PhaseAmbiguous as well, so no
    flipped branch is returned, verified or not.  On PhaseAmbiguous the
    budget is doubled, up to 3 times.  A budget above
    DIGITS_HARD_CAP, whether given, planned or doubled, raises
    PrecisionInfeasible.  One Aberth run bounds the roots for the plan and
    is polished once to every budget tried, and the roots are labeled once,
    at the first budget.  Each attempt sets ``mp.dps`` to its budget once.
    """
    if digits is not None and _integer(digits, "digits") < 1:
        raise InputSyntaxError(f"digits must be at least 1, got {digits}")
    polynomial = as_polynomial(poly)
    reduction = to_monic(polynomial)
    monic = reduction.monic
    degree = monic.degree
    group = closure(as_generators(generators, degree))
    series = composition_series(group)

    start = aberth_stage(monic)
    plan = plan_precision(series, root_magnitude_bound(start))
    budget_digits = digits if digits is not None else plan.digits

    notes: list[str] = []
    if reduction.scale != 1:
        notes.append(f"solved the monic reduction ({reduction.note}); "
                     f"divide the roots by {reduction.scale}")

    sigma = None if labeling == "auto" else as_labeling(labeling, degree)
    for attempt in range(_PHASE_RETRIES + 1):
        roots = polish_roots(monic, start, budget_digits)
        if sigma is None:
            sigma = label_roots(group, roots).permutation
        labeled = relabel(roots, sigma)
        with mp.workdps(budget_digits):
            zetas = zeta_tables(series)
            theta0 = build_theta0(labeled, series)
            forward = forward_pass(theta0, series, zetas)
            int_theta = round_theta_m(forward.thetas[-1])
            try:
                recon = reconstruct(series, int_theta, forward)
                values = ValueCache(zetas)
                evaluations = tuple(evaluate(e, values)
                                    for e in recon.root_exprs)
                _guard_roots(evaluations, labeled)
            except PhaseAmbiguous:
                if attempt == _PHASE_RETRIES:
                    raise
                budget_digits *= 2
                notes.append(f"branch selection ambiguous; digits doubled to "
                             f"{budget_digits}")
                continue
        break
    deviations = tuple(verify(recon.root_exprs, labeled, values)) \
        if run_verification else None
    return SolveReport(
        polynomial=polynomial, reduction=reduction, series=series,
        plan=plan, roots=labeled, labeling=sigma, theta=int_theta,
        root_exprs=recon.root_exprs, evaluations=evaluations,
        verification=deviations, multiplications=forward.counter.count,
        branch_log=recon.branch_log, zero_notes=recon.zero_notes,
        notes=tuple(notes))

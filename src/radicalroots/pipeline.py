"""End-to-end orchestration: parse, reduce, root-find, plan, transform,
round, reconstruct, verify."""

from __future__ import annotations

from .errors import InputSyntaxError, PhaseAmbiguous
from .groups import Permutation, closure, composition_series, parse_cycles
from .oracle import label_roots
from .polynomial import IntPolynomial, parse_polynomial, to_monic
from .radical import SolveReport, evaluate, reconstruct, verify
from .resolvent import (DEFAULT_MARGIN, DEFAULT_ROUNDING_TOLERANCE,
                        build_theta0, forward_pass, multiplication_budget,
                        plan_precision, round_theta_m, zeta_tables)
from .rootfinder import (aberth_stage, polish_roots, relabel,
                         root_magnitude_bound)

__all__ = ["solve", "as_polynomial", "as_generators", "as_labeling"]

_PHASE_RETRIES = 3


def as_polynomial(poly) -> IntPolynomial:
    if isinstance(poly, IntPolynomial):
        return poly
    if isinstance(poly, str):
        return parse_polynomial(poly)
    return IntPolynomial(tuple(int(c) for c in poly))


def as_generators(generators, degree: int) -> list[Permutation]:
    gens = []
    items = generators.split(";") if isinstance(generators, str) else generators
    for item in items:
        if isinstance(item, Permutation):
            gens.append(item)
        else:
            gens.append(parse_cycles(item, degree))
    return gens


def as_labeling(labeling, degree: int) -> Permutation:
    if isinstance(labeling, Permutation):
        sigma = labeling
    else:
        if isinstance(labeling, str):
            labeling = [int(t) for t in labeling.replace(";", ",").split(",")]
        sigma = Permutation(tuple(int(i) for i in labeling))
    if sigma.degree != degree:
        raise InputSyntaxError(
            f"labeling must list {degree} root positions, got {sigma.degree}")
    return sigma


def solve(poly, generators, *, digits: int | None = None,
          margin: int = DEFAULT_MARGIN,
          tolerance: float = DEFAULT_ROUNDING_TOLERANCE, labeling="auto",
          run_verification: bool = True) -> SolveReport:
    """Solve a monic-reducible integer polynomial by radicals.

    ``poly`` is polynomial text, an ascending coefficient list, or an
    IntPolynomial; ``generators`` is cycle-notation text separated by ``;`` or
    a list of permutations; ``labeling`` is "auto" or an explicit assignment
    (label j takes the j-th listed position of the canonically ordered roots).

    The digit budget comes from the precision plan unless overridden; on
    PhaseAmbiguous the budget is doubled, up to 3 times.  One Aberth run
    bounds the roots for the plan and is polished once to every budget
    tried, and the roots are labeled once, at the first budget.
    """
    polynomial = as_polynomial(poly)
    reduction = to_monic(polynomial)
    monic = reduction.monic
    degree = monic.degree
    group = closure(as_generators(generators, degree))
    series = composition_series(group)

    start = aberth_stage(monic)
    plan = plan_precision(series, root_magnitude_bound(start), margin)
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
        zetas = zeta_tables(series, budget_digits)
        theta0 = build_theta0(labeled, series)
        forward = forward_pass(theta0, series, zetas)
        int_theta = round_theta_m(forward.thetas[-1], tolerance)
        try:
            recon = reconstruct(series, int_theta, forward.resolvents, zetas,
                                digits=budget_digits)
            break
        except PhaseAmbiguous:
            if attempt == _PHASE_RETRIES:
                raise
            budget_digits *= 2
            notes.append(f"branch selection ambiguous; digits doubled to "
                         f"{budget_digits}")
    evaluations = tuple(evaluate(e, budget_digits, recon.values)
                        for e in recon.root_exprs)
    deviations = tuple(verify(recon.root_exprs, labeled, recon.values)) \
        if run_verification else None
    return SolveReport(
        polynomial=polynomial, reduction=reduction, series=series,
        plan=plan, digits=budget_digits, roots=labeled, labeling=sigma,
        theta=int_theta, root_exprs=recon.root_exprs, evaluations=evaluations,
        verification=deviations, multiplications=forward.counter.count,
        budget=multiplication_budget(series), branch_log=recon.branch_log,
        zero_notes=recon.zero_notes, notes=tuple(notes))

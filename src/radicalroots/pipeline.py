"""End-to-end orchestration: parse, reduce, root-find, plan, transform,
round, reconstruct, verify."""

from __future__ import annotations

import operator

from mpmath import mp

from .errors import (InputSyntaxError, PhaseAmbiguous, ResidualTooLarge,
                     VerificationFailed)
from .groups import Permutation, closure, composition_series, parse_cycles
from .oracle import label_roots
from .polynomial import IntPolynomial, parse_polynomial, to_monic
from .radical import (SolveReport, ValueCache, evaluate, make_scale,
                      reconstruct, verify)
from .resolvent import (build_theta0, forward_pass, plan_precision,
                        round_theta_m, zeta_tables)
from .rootfinder import (RootSet, aberth_stage, polish_roots, relabel,
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
    """``value`` if it is an integer (not a bool, a float or text), else
    InputSyntaxError naming ``what``."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise InputSyntaxError(f"{what} must be an integer, got {value!r}")


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


def solve(poly, generators, *, digits: int | None = None, labeling="auto",
          run_verification: bool = True) -> SolveReport:
    """Solve an integer polynomial by radicals.

    ``poly`` is polynomial text, an ascending coefficient list, or an
    IntPolynomial; ``generators`` is cycle-notation text separated by ``;`` or
    a list of permutations; ``labeling`` is "auto" or an explicit assignment
    (label j takes the j-th listed position of the canonically ordered roots).

    The monic reduction, in y = a_n * x, is solved, and each of its root
    expressions is scaled by 1/a_n, so the expressions, the labeled roots,
    the evaluations and the deviations are those of ``poly``.  The digit
    budget is ``digits``, an integer >= 1, when given, and the precision
    plan's (its requirement plus DEFAULT_MARGIN) otherwise.  Each attempt
    evaluates the root expressions once, and ``verify`` compares each value
    with its labeled root, so no radical off its root is returned;
    ``run_verification`` decides only whether the report carries the
    deviations.  On PhaseAmbiguous or VerificationFailed, and on a
    final-tensor entry too large to round at a planned budget (the
    ResidualTooLarge of ``round_theta_m`` with ``residual`` None), the
    budget is doubled, up to 3 times; a given budget raises the latter.  A
    budget above DIGITS_HARD_CAP, whether given, planned or doubled, raises
    PrecisionInfeasible.  One Aberth run bounds the roots for the plan and
    is polished once to every budget tried, and the roots are labeled once,
    at the first budget.  Each attempt sets ``mp.dps`` to its budget once.
    """
    if digits is not None and _integer(digits, "digits") < 1:
        raise InputSyntaxError(f"digits must be at least 1, got {digits}")
    polynomial = as_polynomial(poly)
    reduction = to_monic(polynomial)
    monic, scale = reduction.monic, reduction.scale
    degree = monic.degree
    group = closure(as_generators(generators, degree))
    series = composition_series(group)

    start = aberth_stage(monic)
    plan = plan_precision(series, root_magnitude_bound(start.roots))
    budget_digits = digits if digits is not None else plan.digits

    notes: list[str] = []
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
            try:
                int_theta = round_theta_m(forward.thetas[-1])
                recon = reconstruct(series, int_theta, forward)
                exprs = tuple(make_scale(scale, e) for e in recon.root_exprs)
                if scale != 1:
                    labeled = RootSet(tuple(x / scale for x in labeled.roots),
                                      budget_digits)
                values = ValueCache(zetas)
                evaluations = tuple(evaluate(e, values) for e in exprs)
                deviations = verify(exprs, labeled, values)
                break
            except ResidualTooLarge as exc:
                if (exc.residual is not None or digits is not None
                        or attempt == _PHASE_RETRIES):
                    raise
                reason = (f"entry {exc.position} of the final tensor too "
                          f"large to round")
            except (PhaseAmbiguous, VerificationFailed) as exc:
                if attempt == _PHASE_RETRIES:
                    raise
                reason = ("branch selection ambiguous"
                          if isinstance(exc, PhaseAmbiguous)
                          else "radicals off their labeled roots")
        budget_digits *= 2
        notes.append(f"{reason}; digits doubled to {budget_digits}")
    return SolveReport(
        polynomial=polynomial, reduction=reduction, series=series,
        plan=plan, roots=labeled, labeling=sigma, theta=int_theta,
        root_exprs=exprs, evaluations=evaluations,
        verification=tuple(deviations) if run_verification else None,
        multiplications=forward.counter.count,
        branch_log=recon.branch_log, zero_notes=recon.zero_notes,
        notes=tuple(notes))

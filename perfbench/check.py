"""Independent check of emitted radicals.

Each expression is evaluated with plain mpmath: principal branches, no
snapping of branch-cut noise, at the solve's digit budget plus a fixed guard.
Nothing here calls ``radicalroots.evaluate``, ``principal_root`` or
``verify``.  The n values must lie within 10^(-digits/2) * max(1, |x|) of n
distinct roots of the input polynomial, which are found here as well.
"""

from __future__ import annotations

import mpmath
from mpmath import mp, mpf

from radicalroots.radical import (IntegerLiteral, Product, RationalScale,
                                  Root, RootOfUnitySymbol, Sum)

GUARD_DIGITS = 10


def _value(expr, memo):
    """Bottom-up value of a node; ``memo`` is keyed by node identity."""
    hit = memo.get(id(expr))
    if hit is not None:
        return hit
    if isinstance(expr, IntegerLiteral):
        val = mp.mpc(expr.value)
    elif isinstance(expr, RationalScale):
        val = _value(expr.child, memo) / expr.denominator
    elif isinstance(expr, RootOfUnitySymbol):
        val = mpmath.expjpi(mpf(2 * expr.power) / expr.order)
    elif isinstance(expr, Sum):
        val = mp.mpc(0)
        for t in expr.terms:
            val += _value(t, memo)
    elif isinstance(expr, Product):
        val = mp.mpc(1)
        for f in expr.factors:
            val *= _value(f, memo)
    elif isinstance(expr, Root):
        val = mpmath.root(_value(expr.radicand, memo), expr.degree)
        if expr.branch:
            val *= mpmath.expjpi(mpf(2 * expr.branch) / expr.degree)
    else:
        raise TypeError(f"not a radical expression node: {expr!r}")
    memo[id(expr)] = val
    return val


def input_roots(coeffs, dps):
    """All roots of the integer polynomial ``coeffs`` (ascending) at ``dps``."""
    desc = list(reversed(coeffs))
    deriv = [c * (len(desc) - 1 - i) for i, c in enumerate(desc[:-1])]
    with mp.workdps(30):
        approx = mpmath.polyroots(desc, maxsteps=200, extraprec=60)
    roots = []
    with mp.workdps(dps):
        for z in approx:
            z = mp.mpc(z)
            for _ in range(200):
                step = mpmath.polyval(desc, z) / mpmath.polyval(deriv, z)
                z -= step
                if abs(step) <= abs(z) * mpf(10) ** (-dps):
                    break
            roots.append(z)
    return roots


def _matches(values, roots, digits):
    """True when the values sit on pairwise distinct roots."""
    used = set()
    for v in values:
        i = min(range(len(roots)), key=lambda k: abs(v - roots[k]))
        if i in used:
            return False
        if abs(v - roots[i]) >= mpf(10) ** (-mpf(digits) / 2) * max(1, abs(v)):
            return False
        used.add(i)
    return True


def check_report(report):
    """None if every radical equals a distinct input root, else the reason.

    The reason is ``scale`` when the values are the roots times the leading
    coefficient (the monic reduction's roots), else ``branch_mismatch``.
    """
    coeffs = report.polynomial.coeffs
    digits = report.digits
    dps = digits + GUARD_DIGITS
    roots = input_roots(coeffs, dps)
    with mp.workdps(dps):
        memo = {}
        values = [_value(e, memo) for e in report.root_exprs]
        if len(values) == len(roots) and _matches(values, roots, digits):
            return None
        lead = coeffs[-1]
        if lead != 1 and _matches([v / lead for v in values], roots, digits):
            return "scale"
    return "branch_mismatch"

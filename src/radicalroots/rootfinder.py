"""Simultaneous root finding for monic integer polynomials.

Strategy: one Aberth-Ehrlich run from deterministic initial guesses, swept in
hardware ``complex``, then one 32-digit Newton step from each hardware root
that Smale's alpha-test certifies (Smale 1986; Blum, Cucker, Shub and Smale
1998, ch. 8).  The test evaluates f and f' at each hardware root exactly, in
Gaussian integers, and rounds once.  Only when the hardware sweeps fail or a
root is not certified do the sweeps run in ``mpc`` to ~32 digits.  Per-root
Newton polish on a precision-doubling ladder then reaches each requested
budget, and a hardware screen leaves the ``mpc`` separation test to the
pairs of roots it cannot decide.  Both steps are pure functions; the
residuals |f(x~)| are computed only on request, by ``root_residuals``.
"""

from __future__ import annotations

import cmath
import math
import sys
from contextlib import suppress
from dataclasses import dataclass
from itertools import combinations

import mpmath
from mpmath import mp, mpc, mpf
from mpmath.libmp import dps_to_prec

from .errors import NonConvergence, UnsupportedInput
from .polynomial import IntPolynomial, eval_poly
from .precision import (cdiv, check_digit_budget, csub, horner, ints_mpc,
                        mpc_ints)

__all__ = ["RootSet", "aberth_stage", "polish_roots", "find_roots",
           "root_residuals", "root_magnitude_bound", "relabel"]

_BASE_DPS = 32
_HARDWARE_DIGITS = 16  # Python float: 53-bit mantissa
_MAX_ABERTH_ITERS = 400
# below Smale's alpha_0 = (13 - 3*sqrt(17))/4 = 0.15767...
_ALPHA_MAX = 0.157


@dataclass(frozen=True)
class RootSet:
    """All n roots at a shared digit budget; ``root_residuals`` gives their
    |f(x~)|."""

    roots: tuple[mpc, ...]
    digits: int

    @property
    def n(self) -> int:
        return len(self.roots)


def _sweeps(coeffs, deriv, z, radius, digits: int) -> bool:
    """Aberth sweeps on ``z`` in place, in the number type of ``z`` and
    ``radius`` (``digits`` significant digits): True once every step is below
    10^(6-digits) * max(1, |z_i|), False at the iteration cap."""
    ten = type(radius)(10)
    tol = ten ** (6 - digits)
    for _ in range(_MAX_ABERTH_ITERS):
        converged = True
        for i in range(len(z)):
            pv = eval_poly(coeffs, z[i])
            dv = eval_poly(deriv, z[i])
            if dv == 0:
                z[i] = z[i] + (1 + 1j) * radius / 1000
                converged = False
                continue
            w = pv / dv
            s = 0
            for j in range(len(z)):
                if j != i:
                    diff = z[i] - z[j]
                    if diff == 0:
                        diff = radius * ten ** (-digits)
                    s += 1 / diff
            corr = w / (1 - w * s)
            z[i] = z[i] - corr
            if abs(corr) >= tol * max(1, abs(z[i])):
                converged = False
        if converged:
            return True
    return False


def _taylor(coeffs, z):
    """Taylor coefficients f^(k)(z)/k!, k = 0..n, of ascending ``coeffs`` at
    ``z`` by repeated synthetic division, in the number type of ``z``."""
    b = list(reversed(coeffs))
    n = len(b) - 1
    out = []
    for k in range(n + 1):
        for j in range(1, n + 1 - k):
            b[j] = b[j] + z * b[j - 1]
        out.append(b[n - k])
    return out


def _exact_value(coeffs, z: complex) -> mpc:
    """The ascending integer ``coeffs`` at the hardware point ``z``, computed
    exactly and each part rounded once at the current precision.

    z = (X + iY) / 2^s with integers X, Y and s >= 0, so Horner's rule on the
    Gaussian integer X + iY, with a_k scaled by 2^(s(n-k)), gives
    f(z) * 2^(sn) with no rounding.
    """
    (xn, xd), (yn, yd) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    s = max(xd, yd).bit_length() - 1            # xd and yd are powers of 2
    x, y = xn * ((1 << s) // xd), yn * ((1 << s) // yd)
    n = len(coeffs) - 1
    re, im = coeffs[n], 0
    for k in range(n - 1, -1, -1):
        re, im = re * x - im * y + (coeffs[k] << (s * (n - k))), re * y + im * x
    return mpc((re, -s * n), (im, -s * n))      # (man, exp) rounds once


def _alpha_data(coeffs, deriv, z: complex):
    """(z - f(z)/f'(z) in ``mpc``, beta, gamma) at the hardware point ``z``.

    f and f' are evaluated exactly by ``_exact_value`` and rounded once at
    the current precision; beta bounds |f/f'| and gamma bounds
    max_k |f^(k)(z)/(k! f'(z))|^(1/(k-1)) from above.  The Taylor
    coefficients for gamma come from hardware floats, each widened by a
    Horner rounding bound: the same recurrence on |a_i| and |z|, times
    8(n+2) float epsilons.  f and f' carry the same Horner bound at
    ``mp.eps``; as they are exact and rounded once, their real error is at
    most ``mp.eps`` times their magnitude, so the bound only overstates it.
    """
    n = len(coeffs) - 1
    zm = mpc(z)
    fv, dv = _exact_value(coeffs, z), _exact_value(deriv, z)
    size = _taylor([abs(float(c)) for c in coeffs], abs(z))
    tiny = 2 * sys.float_info.min           # absolute error of an underflow
    f_err, d_err = (8 * (n + 2) * float(mp.eps) * s + tiny for s in size[:2])
    d_low = float(abs(dv)) - d_err
    if not d_low > 0:
        return None, math.inf, math.inf
    beta = (float(abs(fv)) + f_err) / d_low
    slack = 8 * (n + 2) * sys.float_info.epsilon
    taylor = _taylor([float(c) for c in coeffs], z)
    gamma = max((((abs(t) + slack * s + tiny) / d_low) ** (1 / (k - 1))
                 for k, (t, s) in enumerate(zip(taylor, size)) if k >= 2),
                default=0.0)
    up = 1 + slack
    return zm - fv / dv, beta * up, gamma * up


def _certified_step(coeffs, deriv, z):
    """One 32-digit Newton step from each hardware root in ``z``, as ``mpc``,
    or None unless every step is certified.

    Certified means alpha = beta*gamma < _ALPHA_MAX, so z converges to a zero
    within 2*beta; the bound 2*alpha(1-alpha)/psi(alpha)*beta on the
    stepped point's error, psi = 1 - 4*alpha + 2*alpha^2, is below the mpc
    sweeps' stop tolerance; and the discs D(z_i, 2*beta_i) are pairwise
    disjoint, so the n zeros are distinct.
    """
    tol = 10.0 ** (6 - _BASE_DPS)
    steps, discs = [], []
    for zk in z:
        step, beta, gamma = _alpha_data(coeffs, deriv, zk)
        alpha = beta * gamma
        if not alpha < _ALPHA_MAX:
            return None
        psi = 1 - 4 * alpha + 2 * alpha * alpha
        if not 2 * alpha * (1 - alpha) / psi * beta < tol * max(1, abs(zk)):
            return None
        steps.append(step)
        discs.append(2 * beta)
    shrink = 1 - 4 * sys.float_info.epsilon      # rounding of |z_i - z_j|
    if all(abs(z[i] - z[j]) * shrink > discs[i] + discs[j]
           for i, j in combinations(range(len(z)), 2)):
        return tuple(steps)
    return None


def aberth_stage(p: IntPolynomial) -> tuple:
    """All roots of monic ``p`` at ~32 digits.

    Aberth sweeps in hardware ``complex``, then one 32-digit Newton step from
    each root when the alpha-test certifies all of them; otherwise the sweeps
    continue in ``mpc`` to 32 digits, from the hardware roots when the
    hardware sweeps converged and from the start points when they did not.
    """
    if not p.is_monic():
        raise ValueError("root finding expects a monic polynomial")
    n = p.degree
    deriv = p.derivative_coeffs()
    with mp.workdps(_BASE_DPS):
        # Fujiwara's bound on the root moduli, so the start lies near them
        radius = max(mpf(1), 2 * max(mpf(abs(c)) ** (mpf(1) / (n - k))
                                     for k, c in enumerate(p.coeffs[:-1])))
        # deterministic index-dependent perturbation breaks symmetry traps
        z = [radius * mpmath.exp(1j * (2 * mpmath.pi * (k + mpf(1) / 4) / n
                                       + mpf(k) / 1000))
             for k in range(n)]
        with suppress(OverflowError, ZeroDivisionError):
            fast = [complex(zk) for zk in z]
            if (_sweeps(p.coeffs, deriv, fast, float(radius), _HARDWARE_DIGITS)
                    and all(cmath.isfinite(zk) for zk in fast)):
                z = [mpc(zk) for zk in fast]
                certified = _certified_step(p.coeffs, deriv, fast)
                if certified is not None:
                    return certified
        if _sweeps(p.coeffs, deriv, z, radius, _BASE_DPS):
            return tuple(z)
        residuals = [abs(eval_poly(p.coeffs, zi)) for zi in z]
    raise NonConvergence("simultaneous iteration did not converge",
                         residuals=residuals)


def _newton_polish(p: IntPolynomial, roots, target_dps: int):
    """Three Newton steps from each root on every rung of a ladder that
    doubles the digits from _BASE_DPS to ``target_dps``, each rung at its
    digits + 10.  The steps run on the integer kernel of ``precision``, with
    the bits of the same ``mpc`` expressions."""
    deriv = p.derivative_coeffs()
    xs = [mpc_ints(z) for z in roots]
    dps = _BASE_DPS
    while dps < target_dps:
        dps = min(dps * 2, target_dps)
        prec = dps_to_prec(dps + 10)
        for i, x in enumerate(xs):
            for _ in range(3):
                dv = horner(deriv, x, prec)
                if not (dv[0] or dv[2]):
                    break
                x = csub(x, cdiv(horner(p.coeffs, x, prec), dv, prec), prec)
            xs[i] = x
    return [ints_mpc(x) for x in xs]


def _close_pair(raw, separation) -> bool:
    """Whether some |raw[i] - raw[j]| <= ``separation``, computed in ``mpc``
    at the current precision.

    A hardware screen passes a pair when its float distance, less a bound on
    the float conversion of both points and on the float and ``mpc``
    roundings, still exceeds ``separation``.  Every other pair, non-finite
    and underflowing floats included, gets the ``mpc`` test, so the screen
    changes no outcome.
    """
    slack = 8 * (sys.float_info.epsilon + float(mp.eps))
    tiny = 2 * sys.float_info.min           # absolute error of an underflow
    fast = [complex(z) for z in raw]
    size = [math.hypot(z.real, z.imag) for z in fast]   # inf, not OverflowError
    cap = float(separation) * (1 + slack) + tiny
    for i, j in combinations(range(len(raw)), 2):
        d = fast[i] - fast[j]
        low = (math.hypot(d.real, d.imag) * (1 - 2 * slack)
               - slack * (size[i] + size[j]) - tiny)
        if not low > cap and abs(raw[i] - raw[j]) <= separation:
            return True
    return False


def polish_roots(p: IntPolynomial, start, digits: int) -> RootSet:
    """All n roots of a monic square-free polynomial at the given budget,
    polished from ``start = aberth_stage(p)``.

    Residual contract, checked on the polished iterates at digits + 10:
    every |f(x~)| < 10^(2-digits) * max(1, |x~|)^n.  Roots closer than
    10^(-digits/2) raise NonConvergence.  Budgets above DIGITS_HARD_CAP
    raise PrecisionInfeasible.
    Output order is canonical: ascending argument in (-pi, pi], then modulus.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    check_digit_budget(digits)
    n = p.degree
    if n == 1:
        with mp.workdps(digits):
            root = mpc(-p.coeffs[0])
        return RootSet((root,), digits)

    raw = _newton_polish(p, list(start), digits + 8)

    with mp.workdps(digits + 10):
        bound_pow = max(mpf(1), max(abs(z) for z in raw)) ** n
        residual_cap = mpf(10) ** (2 - digits) * bound_pow
        for attempt in range(3):
            residuals = [abs(eval_poly(p.coeffs, z)) for z in raw]
            if max(residuals) < residual_cap:
                break
            raw = _newton_polish(p, raw, digits + 10 * (attempt + 2))
        else:
            raise NonConvergence(
                "root residuals exceed the digit-budget contract",
                residuals=residuals)

        if _close_pair(raw, mpf(10) ** (-mpf(digits) / 2)):
            raise NonConvergence(
                "roots are not separated; input may not be square-free",
                residuals=residuals)

        # components below the budget's own noise floor are exactly zero
        # (real/imaginary structure then survives re-rendering); at 1 or 2
        # digits the floor reaches |z| and would zero every root
        floor = mpf(10) ** (2 - digits)
        if floor < 1:
            for i, z in enumerate(raw):
                mag = abs(z)
                re = mpf(0) if z.real != 0 and abs(z.real) <= mag * floor else z.real
                im = mpf(0) if z.imag != 0 and abs(z.imag) <= mag * floor else z.imag
                raw[i] = mpc(re, im)

        order = sorted(range(n),
                       key=lambda i: (mpmath.atan2(raw[i].imag, raw[i].real),
                                      abs(raw[i])))

    with mp.workdps(digits):
        roots = tuple(+raw[i] for i in order)
    return RootSet(roots, digits)


def find_roots(p: IntPolynomial, digits: int) -> RootSet:
    """``polish_roots`` of a fresh ``aberth_stage`` run."""
    return polish_roots(p, aberth_stage(p), digits)


def root_residuals(p: IntPolynomial, rs: RootSet) -> tuple[mpf, ...]:
    """|p(x~)| at each root of ``rs``, in ``mpc`` at rs.digits + 10 digits."""
    with mp.workdps(rs.digits + 10):
        return tuple(abs(eval_poly(p.coeffs, z)) for z in rs.roots)


def root_magnitude_bound(roots) -> float:
    """max over roots of max(1, |x~|), rounded up to 2 significant figures.

    Raises UnsupportedInput when the bound is beyond the float range.
    """
    b = max(1.0, max(float(abs(z)) for z in roots))
    if b == 1.0:
        return 1.0
    try:
        exponent = math.floor(math.log10(b))
        mantissa = math.ceil(b / 10.0 ** (exponent - 1) - 1e-12)
        if exponent >= 1:
            return float(mantissa * 10 ** (exponent - 1))
    except OverflowError:
        raise UnsupportedInput(
            "a root modulus reaches the end of the float range (about "
            f"{sys.float_info.max:.1e}), so the precision plan cannot bound "
            "it") from None
    return mantissa / 10 ** (1 - exponent)


def relabel(rs: RootSet, sigma) -> RootSet:
    """Reorder so label j carries the sigma(j)-th root of the input order."""
    roots = tuple(rs.roots[sigma(j) - 1] for j in range(1, rs.n + 1))
    return RootSet(roots, rs.digits)

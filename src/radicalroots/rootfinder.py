"""Simultaneous root finding for monic integer polynomials.

Strategy: one Aberth-Ehrlich run from deterministic initial guesses, swept in
hardware ``complex`` and finished in ``mpc`` at ~32 digits (``mpc`` alone if
the hardware sweeps fail), then per-root Newton polish on a precision-doubling
ladder up to each requested budget.  Both steps are pure functions.
"""

from __future__ import annotations

import cmath
import math
import sys
from contextlib import suppress
from dataclasses import dataclass

import mpmath
from mpmath import mp, mpc, mpf

from .errors import NonConvergence, UnsupportedInput
from .polynomial import IntPolynomial, eval_poly

__all__ = ["RootSet", "aberth_stage", "polish_roots", "find_roots",
           "root_magnitude_bound", "relabel"]

_BASE_DPS = 32
_HARDWARE_DIGITS = 16  # Python float: 53-bit mantissa
_MAX_ABERTH_ITERS = 400


@dataclass(frozen=True)
class RootSet:
    """All n roots at a shared digit budget, with per-root |f(x~)| residuals."""

    roots: tuple[mpc, ...]
    digits: int
    residuals: tuple[mpf, ...]

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


def aberth_stage(p: IntPolynomial) -> tuple:
    """Simultaneous iteration for all roots of monic ``p`` at ~32 digits."""
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
        if _sweeps(p.coeffs, deriv, z, radius, _BASE_DPS):
            return tuple(z)
    raise NonConvergence(
        "simultaneous iteration did not converge",
        residuals=[abs(eval_poly(p.coeffs, zi)) for zi in z])


def _newton_polish(p: IntPolynomial, roots, target_dps: int):
    deriv = p.derivative_coeffs()
    dps = _BASE_DPS
    while dps < target_dps:
        dps = min(dps * 2, target_dps)
        with mp.workdps(dps + 10):
            for i, z in enumerate(roots):
                for _ in range(3):
                    dv = eval_poly(deriv, z)
                    if dv == 0:
                        break
                    z = z - eval_poly(p.coeffs, z) / dv
                roots[i] = z
    return roots


def polish_roots(p: IntPolynomial, start, digits: int) -> RootSet:
    """All n roots of a monic square-free polynomial at the given budget,
    polished from ``start = aberth_stage(p)``.

    Residual contract: every |f(x~)| < 10^(2-digits) * max(1, |x~|)^n.
    Output order is canonical: ascending argument in (-pi, pi], then modulus.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    n = p.degree
    if n == 1:
        with mp.workdps(digits):
            root = mpc(-p.coeffs[0])
        return RootSet((root,), digits, (mpf(0),))

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

        separation = mpf(10) ** (-mpf(digits) / 2)
        for i in range(n):
            for j in range(i + 1, n):
                if abs(raw[i] - raw[j]) <= separation:
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
    with mp.workdps(digits + 10):
        residuals_out = tuple(abs(eval_poly(p.coeffs, z)) for z in roots)
    return RootSet(roots, digits, residuals_out)


def find_roots(p: IntPolynomial, digits: int) -> RootSet:
    """``polish_roots`` of a fresh ``aberth_stage`` run."""
    return polish_roots(p, aberth_stage(p), digits)


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
    residuals = tuple(rs.residuals[sigma(j) - 1] for j in range(1, rs.n + 1))
    return RootSet(roots, rs.digits, residuals)

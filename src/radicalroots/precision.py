"""Kernels on complex values, which are mpmath ``mpc`` numbers, and the cap
on digit budgets.

Values carry no precision of their own: their arithmetic rounds at the
current ``mp.dps``, which a solve sets once per attempt from its roots' digit
budget.  The multi-step kernels here (root_of_unity, principal_root,
nearest_integer) work with guard digits on top of it.
"""

from __future__ import annotations

import mpmath
from mpmath import mp, mpc, mpf

from .errors import PrecisionInfeasible
from .groups import smallest_prime_factor

__all__ = [
    "check_digit_budget",
    "root_of_unity",
    "principal_root",
    "nearest_integer",
    "format_complex",
]

# extra digits used inside multi-step kernels (arg, roots, rounding)
_GUARD = 8
# the largest digit budget that a plan, a solve, its retries, roots or check
# may use
DIGITS_HARD_CAP = 10**5


def check_digit_budget(digits: int) -> None:
    """Raise PrecisionInfeasible when ``digits`` exceeds DIGITS_HARD_CAP."""
    if digits > DIGITS_HARD_CAP:
        raise PrecisionInfeasible(
            f"digit budget {digits} exceeds cap {DIGITS_HARD_CAP}")


def root_of_unity(p: int, k: int) -> mpc:
    """cos(2*pi*k/p) + i*sin(2*pi*k/p) at the working precision."""
    if not (p >= 2 and smallest_prime_factor(p) == p):
        raise ValueError(f"order {p} is not prime")
    if not 0 <= k < p:
        raise ValueError(f"power {k} not in [0, {p})")
    with mp.workdps(mp.dps + _GUARD):
        t = mpf(2 * k) / p
        re = mpmath.cospi(t)
        im = mpmath.sinpi(t)
    return mpc(re, im)


def principal_root(z: mpc, p: int) -> mpc:
    """The p-th root w of z with arg(w) in (-pi/p, pi/p]; zero maps to zero.

    Imaginary parts below the rounding floor are snapped to zero first so that
    values that are exactly real (up to working precision) stay on one side of
    the branch cut regardless of noise sign.
    """
    if p < 1:
        raise ValueError("root degree must be >= 1")
    if z == 0:
        return mpc(0)
    digits = mp.dps
    with mp.workdps(digits + _GUARD):
        re, im = z.real, z.imag
        mag = mpmath.hypot(re, im)
        if im != 0 and abs(im) <= mag * mpf(10) ** (2 - digits):
            im = mpf(0)
        theta = mpmath.atan2(im, re) / p
        r = mpmath.root(mag, p)
        cos, sin = mpmath.cos_sin(theta)
        w_re, w_im = r * cos, r * sin
        floor = r * mpf(10) ** (2 - digits)
        if w_re != 0 and abs(w_re) <= floor:
            w_re = mpf(0)
        if w_im != 0 and abs(w_im) <= floor:
            w_im = mpf(0)
    return mpc(w_re, w_im)


def nearest_integer(z: mpc) -> tuple[int, mpf]:
    """Nearest integer to re(z) and the residual max(|re - n|, |im|)."""
    with mp.workdps(mp.dps + _GUARD):
        n = int(mpmath.nint(z.real))
        residual = max(abs(z.real - n), abs(z.imag))
    return n, residual


def format_complex(z: mpc, digits: int) -> str:
    """``re + im i`` with each part to the given significant digits."""
    re = mpmath.nstr(z.real, digits)
    if z.imag == 0:
        return re
    sign = "-" if z.imag < 0 else "+"
    return f"{re} {sign} {mpmath.nstr(z.imag, digits).lstrip('-')}i"

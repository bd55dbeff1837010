"""Kernels on complex values, which are mpmath ``mpc`` numbers, and the cap
on digit budgets.

Values carry no precision of their own: their arithmetic rounds at the
current ``mp.dps``, which a solve sets once per attempt from its roots' digit
budget.  The multi-step kernels here (root_of_unity, principal_root,
nearest_integer) work with guard digits on top of it.

The inner loops of the forward pass and of the branch test run on an
integer form of the same values, which skips mpmath's per-call overhead and
gives its exact bits; so does the division f/f' of the root finder's
fixed-point evaluation.  A real is a pair (m, e) of a signed odd mantissa,
or 0, and an exponent, worth m * 2^e; a complex is the four ints (re m,
re e, im m, im e), from ``mpc_ints`` and back through ``ints_mpc``.  Each operation takes the precision in bits and rounds
as ``mpmath.libmp`` does (``mpf_add``, ``mpf_div``, ``mpc_mul``,
``mpc_div``, ``mpc_div_mpf``), with round-half-even, so the bits equal those
of the ``mpc`` expression that each one names.
"""

from __future__ import annotations

import mpmath
from mpmath import mp, mpc, mpf
from mpmath.libmp import (dps_to_prec, fzero, mpc_nthroot, normalize,
                          round_nearest)

from .errors import PrecisionInfeasible
from .groups import smallest_prime_factor

__all__ = [
    "check_digit_budget",
    "root_of_unity",
    "principal_root",
    "nearest_integer",
    "format_complex",
    "mpc_ints",
    "ints_mpc",
    "cadd",
    "cmul",
    "cdiv",
    "cdiv_int",
]

# extra digits used inside multi-step kernels (roots of unity, principal
# roots, rounding)
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

    ``mpc_nthroot`` at the guarded precision, rounded to nearest: the root
    that ``mpmath.root`` takes, with nothing snapped, so a z on the negative
    real axis takes arg w = +pi/p only when its imaginary part is exactly 0.
    """
    if p < 1:
        raise ValueError("root degree must be >= 1")
    wp, rnd = dps_to_prec(mp.dps + _GUARD), round_nearest
    parts = mpc_nthroot(z._mpc_, p, wp, rnd)
    return mp.make_mpc(tuple(normalize(*w, mp.prec, rnd) for w in parts))


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


# --- the integer kernel ------------------------------------------------------


def mpc_ints(z: mpc) -> tuple[int, int, int, int]:
    """The integer form (re m, re e, im m, im e) of ``z``."""
    (rs, rm, re, _), (js, jm, je, _) = z._mpc_
    return (-rm if rs else rm, re, -jm if js else jm, je)


def _raw(m: int, e: int):
    """The mpmath tuple (sign, mantissa, exponent, bit count) of m * 2^e."""
    if not m:
        return fzero
    if m < 0:
        return (1, -m, e, (-m).bit_length())
    return (0, m, e, m.bit_length())


def ints_mpc(x) -> mpc:
    """The ``mpc`` with the integer form ``x``."""
    return mp.make_mpc((_raw(x[0], x[1]), _raw(x[2], x[3])))


def _round(m: int, e: int, prec: int, down: bool = False) -> tuple[int, int]:
    """m * 2^e rounded to ``prec`` bits, half to even (or toward zero when
    ``down``), with the mantissa's trailing zero bits moved to e."""
    if not m:
        return 0, 0
    neg = m < 0
    if neg:
        m = -m
    n = m.bit_length() - prec
    if n > 0:
        if down:
            m >>= n
        else:
            t = m >> (n - 1)
            if t & 1 and (t & 2 or m != t << (n - 1)):
                m = (t >> 1) + 1
            else:
                m = t >> 1
        e += n
    if not m & 1:
        z = (m & -m).bit_length() - 1
        m >>= z
        e += z
    return (-m if neg else m), e


def _add(m1: int, e1: int, m2: int, e2: int, prec: int,
         down: bool = False) -> tuple[int, int]:
    """m1 * 2^e1 + m2 * 2^e2 rounded as ``mpf_add``: when one term's lowest
    bit lies over 100 places above the other's and its top bit over prec + 4
    places above, the smaller term is replaced by a sticky bit prec + 4
    places below the larger term's lowest bit."""
    if not m1 or not m2:
        return _round(m1 or m2, e1 if m1 else e2, prec, down)
    if e1 < e2:
        m1, e1, m2, e2 = m2, e2, m1, e1
    off = e1 - e2
    if off > 100 and m1.bit_length() + off - m2.bit_length() > prec + 4:
        return _round((m1 << (prec + 4)) + (1 if m2 > 0 else -1),
                      e1 - prec - 4, prec, down)
    return _round((m1 << off) + m2, e2, prec, down)


def _div(m1: int, e1: int, m2: int, e2: int, prec: int) -> tuple[int, int]:
    """m1 * 2^e1 / (m2 * 2^e2) rounded as ``mpf_div``: a quotient with
    prec + 5 or more bits, and a sticky bit below it when inexact."""
    if not m2:
        raise ZeroDivisionError
    if not m1:
        return 0, 0
    neg = (m1 < 0) != (m2 < 0)
    a, b = abs(m1), abs(m2)
    if b == 1:
        q, e = a, e1 - e2
    else:
        extra = max(prec - a.bit_length() + b.bit_length() + 5, 5)
        q, r = divmod(a << extra, b)
        if r:
            q = (q << 1) | 1
            extra += 1
        e = e1 - e2 - extra
    return _round(-q if neg else q, e, prec)


def cadd(x, y, prec: int):
    """x + y, as ``mpc.__add__``."""
    return (_add(x[0], x[1], y[0], y[1], prec)
            + _add(x[2], x[3], y[2], y[3], prec))


def cmul(x, y, prec: int):
    """x * y, as ``mpc_mul``: the four products exact, then one rounding
    for each part."""
    a, ae, b, be = x
    c, ce, d, de = y
    return (_add(a * c, ae + ce, -(b * d), be + de, prec)
            + _add(a * d, ae + de, b * c, be + ce, prec))


def cdiv(x, y, prec: int):
    """x / y, as ``mpc_div``: |y|^2 and the two numerators rounded toward
    zero at prec + 10 bits, then each quotient rounded at ``prec``."""
    a, ae, b, be = x
    c, ce, d, de = y
    wp = prec + 10
    mag = _add(c * c, 2 * ce, d * d, 2 * de, wp, True)
    t = _add(a * c, ae + ce, b * d, be + de, wp, True)
    u = _add(b * c, be + ce, -(a * d), ae + de, wp, True)
    return _div(*t, *mag, prec) + _div(*u, *mag, prec)


def _int_pair(n: int) -> tuple[int, int]:
    """The integer form (m, e) of the integer ``n``, as ``from_int``."""
    return _round(n, 0, max(n.bit_length(), 1))


def cdiv_int(x, n: int, prec: int):
    """x / n for a nonzero integer n, as ``mpc / int``."""
    m, e = _int_pair(n)
    return _div(x[0], x[1], m, e, prec) + _div(x[2], x[3], m, e, prec)


"""Kernels on complex values, which are mpmath ``mpc`` numbers, and the cap
on digit budgets.

Values carry no precision of their own: their arithmetic rounds at the
current ``mp.dps``, which a solve sets once per attempt from its roots' digit
budget.  The multi-step kernels here (root_of_unity, principal_root,
nearest_integer) work with guard digits on top of it, on mpmath's ``libmp``
tuples: root_of_unity takes cos and sin from one ``mpf_cos_sin_pi`` call,
and nearest_integer rounds a mantissa that fits the guarded precision by a
shift, so its residual is exact.

The inner loops of the forward pass and of the branch test run on an
integer form of the same values, which skips mpmath's per-call overhead and
gives its exact bits.  A real is a pair (m, e) of a signed odd mantissa, or
0, and an exponent, worth m * 2^e; a complex is the four ints (re m, re e,
im m, im e), from ``mpc_ints`` and back through ``ints_mpc``.  Each
operation takes the precision in bits and rounds as ``mpmath.libmp`` does
(``mpf_add``, ``mpc_mul``, and ``mpf_div`` in ``mpc_div_mpf``), with
round-half-even, so the bits equal those of the ``mpc`` expression that each
one names.  The root finder's Newton correction is one ``cdiv_int`` too: an
exact Gaussian numerator over an integer, each part rounded once.
"""

from __future__ import annotations

import math

import mpmath
from mpmath import mp, mpc, mpf
from mpmath.libmp import (dps_to_prec, from_int, fzero, mpc_nthroot,
                          mpf_abs, mpf_cos_sin_pi, mpf_div, normalize,
                          round_nearest)

from .errors import PrecisionInfeasible
from .groups import smallest_prime_factor

__all__ = [
    "check_digit_budget",
    "root_of_unity",
    "principal_root",
    "nearest_integer",
    "part_bits",
    "bit_exponent",
    "format_complex",
    "mpc_ints",
    "ints_mpc",
    "cadd",
    "cmul",
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
    """cos(2*pi*k/p) + i*sin(2*pi*k/p) at the working precision.

    One ``mpf_cos_sin_pi`` call at t = 2k/p, both at the guarded precision
    and rounded to nearest, then each part rounded to ``mp.prec``: the bits
    of ``mpc(cospi(t), sinpi(t))`` computed at the guarded precision.
    """
    if not (p >= 2 and smallest_prime_factor(p) == p):
        raise ValueError(f"order {p} is not prime")
    if not 0 <= k < p:
        raise ValueError(f"power {k} not in [0, {p})")
    wp, rnd = dps_to_prec(mp.dps + _GUARD), round_nearest
    t = mpf_div(from_int(2 * k), from_int(p), wp, rnd)
    parts = mpf_cos_sin_pi(t, wp, rnd)
    return mp.make_mpc(tuple(normalize(*w, mp.prec, rnd) for w in parts))


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
    """Nearest integer n to re(z), ties to even, and the residual
    max(|re - n|, |im|) at the guarded precision.

    When re's mantissa fits the guarded precision, n is that mantissa
    shifted right with round-half-even, and |re - n| is exact: the bits
    shifted out, or their complement.  A longer mantissa, made at a higher
    precision, and a special value take mpmath's ``nint`` and subtraction at
    the guarded precision, which round re first.
    """
    wp, rnd = dps_to_prec(mp.dps + _GUARD), round_nearest
    (sign, man, exp, bc), im = z._mpc_
    if not 0 <= bc <= wp:
        with mp.workdps(mp.dps + _GUARD):
            n = int(mpmath.nint(z.real))
            residual = max(abs(z.real - n), abs(z.imag))
        return n, residual
    if exp >= 0:
        n, rest = man << exp, 0
    else:
        n = man >> -exp
        rest = man - (n << -exp)
        half = 1 << (-exp - 1)
        if rest > half or (rest == half and n & 1):
            n += 1
            rest = (1 << -exp) - rest
    residual = max(mp.make_mpf(normalize(0, rest, exp, rest.bit_length(),
                                         wp, rnd)),
                   mp.make_mpf(mpf_abs(im, wp, rnd)))
    return (-n if sign else n), residual


def part_bits(z: mpc) -> int | float:
    """The h with both parts of ``z`` below 2^h in magnitude and one at
    2^(h-1) or more, so 2^(h-1) <= |z| < 2^(h+1/2); -inf for zero."""
    return max((exp + bc for _, man, exp, bc in z._mpc_ if man),
               default=-math.inf)


def bit_exponent(x: mpf) -> int:
    """The e with 2^(e-1) <= |x| < 2^e, for a nonzero ``x``."""
    return x._mpf_[2] + x._mpf_[3]


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


def _round(m: int, e: int, prec: int) -> tuple[int, int]:
    """m * 2^e rounded to ``prec`` bits, half to even, with the mantissa's
    trailing zero bits moved to e."""
    if not m:
        return 0, 0
    neg = m < 0
    if neg:
        m = -m
    n = m.bit_length() - prec
    if n > 0:
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


def _add(m1: int, e1: int, m2: int, e2: int, prec: int) -> tuple[int, int]:
    """m1 * 2^e1 + m2 * 2^e2 rounded as ``mpf_add``: when one term's lowest
    bit lies over 100 places above the other's and its top bit over prec + 4
    places above, the smaller term is replaced by a sticky bit prec + 4
    places below the larger term's lowest bit."""
    if not m1 or not m2:
        return _round(m1 or m2, e1 if m1 else e2, prec)
    if e1 < e2:
        m1, e1, m2, e2 = m2, e2, m1, e1
    off = e1 - e2
    if off > 100 and m1.bit_length() + off - m2.bit_length() > prec + 4:
        return _round((m1 << (prec + 4)) + (1 if m2 > 0 else -1),
                      e1 - prec - 4, prec)
    return _round((m1 << off) + m2, e2, prec)


def _div(m1: int, e1: int, m2: int, e2: int, prec: int) -> tuple[int, int]:
    """m1 * 2^e1 / (m2 * 2^e2) rounded as ``mpf_div``: a quotient with
    prec + 5 or more bits, and a sticky bit below it when inexact."""
    if not m2:
        raise ZeroDivisionError
    if not m1:
        return 0, 0
    neg = (m1 < 0) != (m2 < 0)
    a, b = abs(m1), abs(m2)
    extra = max(prec - a.bit_length() + b.bit_length() + 5, 5)
    q, r = divmod(a << extra, b)
    if r:
        q = (q << 1) | 1
        extra += 1
    return _round(-q if neg else q, e1 - e2 - extra, prec)


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


def cdiv_int(x, n: int, prec: int):
    """x / n for a nonzero integer n, as ``mpc / int``."""
    return _div(x[0], x[1], n, 0, prec) + _div(x[2], x[3], n, 0, prec)


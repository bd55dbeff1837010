"""Kernels on complex values, which are mpmath ``mpc`` numbers, and the cap
on digit budgets.

Values carry no precision of their own: their arithmetic rounds at the
current ``mp.dps``, which a solve sets once per attempt from its roots' digit
budget.  The multi-step kernels here (root_of_unity, principal_root,
nearest_integer) work with guard digits on top of it, on mpmath's ``libmp``
tuples: root_of_unity takes cos and sin from one ``mpf_cos_sin_pi`` call,
and nearest_integer rounds a mantissa that fits the guarded precision by a
shift, so its residual is exact.

The inner loops of the forward pass and of the root finder's Newton step run
on integer forms of the same values, which skip mpmath's per-call overhead:
the four ints (re m, re e, im m, im e) of ``mpc_ints`` and ``ints_mpc``, and
Gaussian integers (re, im) at one binary exponent.  Every rounding is one
``_shift``, to nearest with ties to even, so an operation adds at most half
a unit of its result's last place per part: ``fixed_line`` at the exponent
it picks, ``gmul`` after its exact product, ``cdiv_int`` and
``nearest_integer`` at prec bits.  Sums at one exponent are exact.
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
    "fixed_line",
    "gmul",
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
    rounded by ``_shift``, and |re - n| is exact: the bits shifted out, or
    their complement.  A longer mantissa, made at a higher precision, and a
    special value take mpmath's ``nint`` and subtraction at the guarded
    precision, which round re first.
    """
    wp, rnd = dps_to_prec(mp.dps + _GUARD), round_nearest
    (sign, man, exp, bc), im = z._mpc_
    if not 0 <= bc <= wp:
        with mp.workdps(mp.dps + _GUARD):
            n = int(mpmath.nint(z.real))
            residual = max(abs(z.real - n), abs(z.imag))
        return n, residual
    n = _shift(man, -exp)
    rest = abs((n << -exp) - man) if exp < 0 else 0
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


def _shift(m: int, s: int) -> int:
    """m * 2^-s rounded to the nearest integer, half to even: exact for
    s <= 0, within 1/2 for s > 0.  With q = floor(m / 2^s), adding
    2^(s-1) - 1 plus q's lowest bit before the floor shift carries into q
    past a half, and at a half exactly when q is odd."""
    if s <= 0:
        return m << -s
    return (m + (1 << (s - 1)) - 1 + ((m >> s) & 1)) >> s


def mpc_ints(z: mpc) -> tuple[int, int, int, int]:
    """The integer form (re m, re e, im m, im e) of ``z``."""
    (rs, rm, re, _), (js, jm, je, _) = z._mpc_
    return (-rm if rs else rm, re, -jm if js else jm, je)


def _raw(m: int, e: int):
    """The mpmath tuple of m * 2^e: sign, odd mantissa, exponent, bits."""
    if not m:
        return fzero
    sign, m = (1, -m) if m < 0 else (0, m)
    if not m & 1:
        z = (m & -m).bit_length() - 1
        m >>= z
        e += z
    return (sign, m, e, m.bit_length())


def ints_mpc(x) -> mpc:
    """The ``mpc`` worth the integer form ``x``, exactly."""
    return mp.make_mpc((_raw(x[0], x[1]), _raw(x[2], x[3])))


def _div(m1: int, e1: int, m2: int, e2: int, prec: int) -> tuple[int, int]:
    """m1 * 2^e1 / (m2 * 2^e2) rounded as ``mpf_div``: m1 itself over a power
    of two, else a quotient of prec + 5 or more bits and a sticky bit, 1
    when inexact, rounded to ``prec`` bits by ``_shift``, and its trailing
    zero bits moved to the exponent."""
    if not m2:
        raise ZeroDivisionError
    if not m1:
        return 0, 0
    neg = (m1 < 0) != (m2 < 0)
    a, b = abs(m1), abs(m2)
    if b & (b - 1):
        extra = max(prec - a.bit_length() + b.bit_length() + 5, 5)
        q, r = divmod(a << extra, b)
        q, extra = (q << 1) + (r > 0), extra + 1
    else:
        q, extra = a, b.bit_length() - 1
    n = q.bit_length() - prec
    q = _shift(-q if neg else q, n)
    z = (q & -q).bit_length() - 1
    return q >> z, e1 - e2 - extra + n + z


def cdiv_int(x, n: int, prec: int):
    """x / n for a nonzero integer n, as ``mpc / int``."""
    return _div(x[0], x[1], n, 0, prec) + _div(x[2], x[3], n, 0, prec)


def fixed_line(values, prec: int):
    """``values``, integer forms, as the nearest Gaussian integers times 2^E,
    and E = top - prec, with the largest part in [2^(top-1), 2^top); E = 0
    for an all-zero line."""
    top = None
    for m1, k1, m2, k2 in values:
        if m1 and (top is None or m1.bit_length() + k1 > top):
            top = m1.bit_length() + k1
        if m2 and (top is None or m2.bit_length() + k2 > top):
            top = m2.bit_length() + k2
    e = 0 if top is None else top - prec
    return [(_shift(m1, e - k1), _shift(m2, e - k2))
            for m1, k1, m2, k2 in values], e


def gmul(x, y, s: int) -> tuple[int, int]:
    """x * y for Gaussian integers x and y, each part of the exact product
    shifted right by s bits by ``_shift``."""
    a, b = x
    c, d = y
    return _shift(a * c - b * d, s), _shift(a * d + b * c, s)

"""Complex values as (re, im) pairs of mpmath reals, with no precision of
their own: arithmetic rounds at the current ``mp.dps``, which each public
pipeline stage sets once from the digit budget of its data.  The multi-step
kernels (magnitude, distance, nearest_integer, principal_root) work with
guard digits on top of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
from mpmath import mp, mpf

__all__ = [
    "ArbitraryComplex",
    "make_complex",
    "root_of_unity",
    "principal_root",
    "nearest_integer",
    "is_prime",
]

# extra digits used inside multi-step kernels (magnitude, arg, powers)
_GUARD = 8


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class ArbitraryComplex:
    """A complex number; its arithmetic rounds at the current mpmath precision."""

    re: mpf
    im: mpf

    @classmethod
    def from_int(cls, value: int) -> "ArbitraryComplex":
        return cls(+mpf(value), mpf(0))

    @classmethod
    def zero(cls) -> "ArbitraryComplex":
        return cls(mpf(0), mpf(0))

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __add__(self, other: "ArbitraryComplex") -> "ArbitraryComplex":
        return ArbitraryComplex(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "ArbitraryComplex") -> "ArbitraryComplex":
        return ArbitraryComplex(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "ArbitraryComplex":
        return ArbitraryComplex(-self.re, -self.im)

    def __mul__(self, other: "ArbitraryComplex") -> "ArbitraryComplex":
        re = self.re * other.re - self.im * other.im
        im = self.re * other.im + self.im * other.re
        return ArbitraryComplex(re, im)

    def divided_by_int(self, k: int) -> "ArbitraryComplex":
        return ArbitraryComplex(self.re / k, self.im / k)

    def power_int(self, e: int) -> "ArbitraryComplex":
        """e-th power (e >= 0) by repeated multiplication."""
        if e < 0:
            raise ValueError("negative exponent")
        acc = ArbitraryComplex.from_int(1)
        for _ in range(e):
            acc = acc * self
        return acc

    def magnitude(self) -> mpf:
        with mp.workdps(mp.dps + _GUARD):
            return mpmath.hypot(self.re, self.im)

    def distance(self, other: "ArbitraryComplex") -> mpf:
        with mp.workdps(mp.dps + _GUARD):
            return mpmath.hypot(self.re - other.re, self.im - other.im)

    def re_string(self, digits: int) -> str:
        return mpmath.nstr(self.re, digits)

    def im_string(self, digits: int) -> str:
        return mpmath.nstr(self.im, digits)

    def to_string(self, digits: int) -> str:
        """``re + im i`` with each part to the given significant digits."""
        if self.im == 0:
            return self.re_string(digits)
        sign = "-" if self.im < 0 else "+"
        return f"{self.re_string(digits)} {sign} {mpmath.nstr(abs(self.im), digits)}i"


def make_complex(re: str, im: str, digits: int) -> ArbitraryComplex:
    """Build a value from signed decimal strings at the given digit budget."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    try:
        with mp.workdps(digits):
            return ArbitraryComplex(mpf(re), mpf(im))
    except ValueError as exc:
        raise ValueError(f"malformed decimal string: {exc}") from None


def root_of_unity(p: int, k: int, digits: int) -> ArbitraryComplex:
    """cos(2*pi*k/p) + i*sin(2*pi*k/p) at the requested precision."""
    if not is_prime(p):
        raise ValueError(f"order {p} is not prime")
    if not 0 <= k < p:
        raise ValueError(f"power {k} not in [0, {p})")
    with mp.workdps(digits + _GUARD):
        t = mpf(2 * k) / p
        re = mpmath.cospi(t)
        im = mpmath.sinpi(t)
    with mp.workdps(digits):
        return ArbitraryComplex(+re, +im)


def principal_root(z: ArbitraryComplex, p: int) -> ArbitraryComplex:
    """The p-th root w of z with arg(w) in (-pi/p, pi/p]; zero maps to zero.

    Imaginary parts below the rounding floor are snapped to zero first so that
    values that are exactly real (up to working precision) stay on one side of
    the branch cut regardless of noise sign.
    """
    if p < 1:
        raise ValueError("root degree must be >= 1")
    if z.is_zero():
        return ArbitraryComplex.zero()
    digits = mp.dps
    with mp.workdps(digits + _GUARD):
        re, im = z.re, z.im
        mag = mpmath.hypot(re, im)
        if im != 0 and abs(im) <= mag * mpf(10) ** (2 - digits):
            im = mpf(0)
        theta = mpmath.atan2(im, re) / p
        r = mpmath.root(mag, p)
        w_re = r * mpmath.cos(theta)
        w_im = r * mpmath.sin(theta)
        floor = r * mpf(10) ** (2 - digits)
        if w_re != 0 and abs(w_re) <= floor:
            w_re = mpf(0)
        if w_im != 0 and abs(w_im) <= floor:
            w_im = mpf(0)
    return ArbitraryComplex(+w_re, +w_im)


def nearest_integer(z: ArbitraryComplex) -> tuple[int, mpf]:
    """Nearest integer to re(z) and the residual max(|re - n|, |im|)."""
    with mp.workdps(mp.dps + _GUARD):
        n = int(mpmath.nint(z.re))
        residual = max(abs(z.re - n), abs(z.im))
    return n, residual

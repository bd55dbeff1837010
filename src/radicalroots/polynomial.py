"""Integer polynomials: parsing, monic reduction, evaluation, sanity checks."""

from __future__ import annotations

import re as _re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .errors import InputSyntaxError

__all__ = [
    "IntPolynomial",
    "MonicReduction",
    "SanityReport",
    "parse_polynomial",
    "render_polynomial",
    "to_monic",
    "eval_poly",
    "sanity_check",
]


@dataclass(frozen=True)
class IntPolynomial:
    """Univariate integer polynomial, coefficients ascending (a_0 .. a_n)."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) < 2:
            raise InputSyntaxError("polynomial degree must be >= 1")
        if self.coeffs[-1] == 0:
            raise InputSyntaxError("leading coefficient must be nonzero")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return self.leading == 1

    def derivative_coeffs(self) -> tuple[int, ...]:
        return tuple(k * c for k, c in enumerate(self.coeffs) if k >= 1)

    def __str__(self) -> str:
        return render_polynomial(self)


@dataclass(frozen=True)
class MonicReduction:
    """Monic integer form of a polynomial, via y = scale * x."""

    monic: IntPolynomial
    scale: int
    note: str


_TERM = _re.compile(
    r"^([+-]?)(?:(\d+)(?:/(\d+))?)?(\*?x(?:\^(\d+))?)?$"
)


def parse_polynomial(text: str) -> IntPolynomial:
    """Parse a univariate polynomial in x with integer or rational coefficients.

    Grammar: signed integer/rational coefficients, ``^`` powers, implicit
    multiplication (``20x``), whitespace-insensitive.  Rational coefficients
    are cleared to integers by the LCM of the denominators.
    """
    s = "".join(text.split())
    if not s:
        raise InputSyntaxError("empty polynomial")
    terms = _re.findall(r"[+-]?[^+-]+", s)
    if "".join(terms) != s:
        raise InputSyntaxError(f"cannot tokenize polynomial: {text!r}")
    powers: dict[int, Fraction] = {}
    for term in terms:
        m = _TERM.match(term)
        if not m or (m.group(2) is None and m.group(4) is None):
            raise InputSyntaxError(f"bad term {term!r} in polynomial {text!r}")
        sign, num, den, xpart, exp = m.groups()
        if den is not None and int(den) == 0:
            raise InputSyntaxError(f"zero denominator in term {term!r}")
        coeff = Fraction(int(num), int(den or 1)) if num else Fraction(1)
        if sign == "-":
            coeff = -coeff
        power = 0
        if xpart:
            power = int(exp) if exp is not None else 1
        powers[power] = powers.get(power, Fraction(0)) + coeff
    powers = {p: c for p, c in powers.items() if c != 0}
    if not powers:
        raise InputSyntaxError("zero polynomial")
    degree = max(powers)
    if degree < 1:
        raise InputSyntaxError("polynomial degree must be >= 1")
    lcm = 1
    for c in powers.values():
        lcm = lcm * c.denominator // gcd(lcm, c.denominator)
    coeffs = [int(powers.get(p, Fraction(0)) * lcm) for p in range(degree + 1)]
    return IntPolynomial(tuple(coeffs))


def render_polynomial(p: IntPolynomial) -> str:
    parts = []
    for power in range(p.degree, -1, -1):
        c = p.coeffs[power]
        if c == 0:
            continue
        mag = abs(c)
        if power == 0:
            body = str(mag)
        else:
            x = "x" if power == 1 else f"x^{power}"
            body = x if mag == 1 else f"{mag}{x}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def to_monic(p: IntPolynomial) -> MonicReduction:
    """Monic integer reduction: substitute y = a_n * x and rescale.

    Roots of the monic polynomial are a_n times the roots of p.
    """
    a_n = p.leading
    if a_n == 1:
        return MonicReduction(p, 1, "already monic")
    n = p.degree
    coeffs = tuple(p.coeffs[k] * a_n ** (n - 1 - k) for k in range(n)) + (1,)
    return MonicReduction(IntPolynomial(coeffs), a_n, f"y = {a_n}*x")


def eval_poly(coeffs, z):
    """Horner evaluation of ascending integer ``coeffs`` at ``z``, in the
    number type of ``z``: exact for an integer, at the current mpmath
    precision for an mpmath number.  A zero coefficient adds nothing: adding
    an exact 0 to a value already rounded at the current precision returns
    it unchanged, so x^n - a costs one addition, not n."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * z + c if c else acc * z
    return acc


@dataclass(frozen=True)
class SanityReport:
    """Cheap plausibility checks; does NOT prove irreducibility."""

    square_free: bool
    integer_roots: tuple[int, ...]
    notes: tuple[str, ...]


def _rational_gcd_degree(a: list[Fraction], b: list[Fraction]) -> int:
    """Degree of gcd(a, b) over Q (coefficients ascending)."""

    def strip(v):
        while v and v[-1] == 0:
            v.pop()
        return v

    a, b = strip(list(a)), strip(list(b))
    while b:
        # a mod b
        while len(a) >= len(b) and a:
            q = a[-1] / b[-1]
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[i + shift] -= q * c
            strip(a)
        a, b = b, a
    return len(a) - 1


_DIVISOR_SEARCH_CAP = 10**12


def _divisors(n: int) -> tuple[list[int], bool]:
    n = abs(n)
    if n > _DIVISOR_SEARCH_CAP:
        # too big to factor cheaply; test small divisors only
        ds = [d for d in range(1, 10**4 + 1) if n % d == 0]
        return ds, False
    ds = []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            ds.append(d)
            if d != n // d:
                ds.append(n // d)
    return sorted(ds), True


def sanity_check(p: IntPolynomial) -> SanityReport:
    """Report square-freeness and integer roots among divisors of a_0; an
    integer root is noted as reducibility only above degree 1."""
    if not p.is_monic():
        raise ValueError("sanity_check expects a monic polynomial")
    fa = [Fraction(c) for c in p.coeffs]
    fb = [Fraction(c) for c in p.derivative_coeffs()]
    square_free = _rational_gcd_degree(fa, fb) == 0
    notes = []
    roots = []
    if p.coeffs[0] == 0:
        roots.append(0)
        notes.append("x = 0 is a root (constant term vanishes)")
    else:
        divisors, complete = _divisors(p.coeffs[0])
        if not complete:
            notes.append("constant term too large; divisor search truncated")
        for d in divisors:
            for cand in (d, -d):
                if eval_poly(p.coeffs, cand) == 0:
                    roots.append(cand)
    if not square_free:
        notes.append("gcd(f, f') is nonconstant: repeated roots")
    if roots and p.degree > 1:
        notes.append("integer roots found: polynomial is reducible")
    return SanityReport(square_free, tuple(sorted(roots)), tuple(notes))

"""Simultaneous root finding for monic integer polynomials.

Strategy: one Aberth-Ehrlich run from deterministic initial guesses, swept in
hardware ``complex``, then one Newton step per root on each rung of a
precision-doubling ladder, from 32 digits to each requested budget.  Every
step is x - f/f' from one fixed-point evaluation of f and f' that also bounds
Smale's alpha and beta (Smale 1986; Blum, Cucker, Shub and Smale 1998,
ch. 8), and gives the radius of a disc about its result that holds a zero.
One rule accepts a set of steps: every radius within a tolerance and the
discs disjoint.  The first rung, the 32-digit step from the hardware roots,
is accepted at 10^(6-32); where it is refused the sweeps continue in ``mpc``
to ~32 digits and one Newton step follows.  The roots are returned once the
last step's discs, widened by the rounding to the budget, are accepted at
10^(1-digits); until then the ``mpc`` sweeps rerun at doubled precision,
each followed by one Newton step.
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

from .errors import NonConvergence, UnsupportedInput
from .polynomial import IntPolynomial, eval_poly
from .precision import cdiv_int, check_digit_budget, ints_mpc, mpc_ints

__all__ = ["RootSet", "aberth_stage", "polish_roots", "find_roots",
           "root_residuals", "root_magnitude_bound", "relabel"]

_BASE_DPS = 32
_HARDWARE_DIGITS = 16  # Python float: 53-bit mantissa
_MAX_ABERTH_ITERS = 400
# below Smale's alpha_0 = (13 - 3*sqrt(17))/4 = 0.15767...
_ALPHA_MAX = 0.157


@dataclass(frozen=True)
class RootSet:
    """All n roots at a shared digit budget, each within 10^(1-digits) *
    max(1, |x~|) of its own zero, by the radius that the Newton step which
    produced it certifies (``polish_roots``)."""

    roots: tuple[mpc, ...]
    digits: int

    @property
    def n(self) -> int:
        return len(self.roots)


@dataclass(frozen=True)
class Iterates:
    """Newton iterates, each with the radius of a disc about it that holds a
    zero of the polynomial; the radius is inf where no step certifies one."""

    roots: tuple[mpc, ...]
    radii: tuple[mpf, ...]


def _sweeps(coeffs, deriv, z, radius, digits: int) -> bool:
    """Aberth sweeps on ``z`` in place, in the number type of ``z`` and
    ``radius``: True once every step is below 10^(6-digits) * max(1, |z_i|),
    False at the iteration cap."""
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


def _fixed(m: int, k: int) -> int:
    """m * 2^k rounded down to an integer."""
    return m << k if k >= 0 else m >> -k


def _scaled_horner(coeffs, x: mpc):
    """g(y) = f(2^e y) / 2^s and g'(y) by Horner's rule in integers, where
    1/4 <= |y| < 1 (or y = 0) and every coefficient b_i is below 1, in units
    of 2^-P for P = mp.prec + 2n + 20, rounding down: each of g and g' is
    within (n+2)^3 units.  Returns e, P, the b_i and y in those units, and
    (re g, im g, re g', im g').

    The loop holds y in units of 2^t, the coarser of 2^(e-P) and x's own
    lowest bit, and shifts each product right by e - t: the integers are
    those of y in units of 2^-P with each product shifted right by P, and a
    short mantissa of x stays short.
    """
    n = len(coeffs) - 1
    xr, er, xi, ei = mpc_ints(x)
    e = 1 + max((m.bit_length() + k for m, k in ((xr, er), (xi, ei)) if m),
                default=-1)
    s = max(c.bit_length() + e * i for i, c in enumerate(coeffs) if c)
    prec = mp.prec + 2 * n + 20
    t = max(min((k for m, k in ((xr, er), (xi, ei)) if m), default=e - prec),
            e - prec)
    yr, yi, shift = _fixed(xr, er - t), _fixed(xi, ei - t), e - t
    b = [_fixed(c, e * i - s + prec) for i, c in enumerate(coeffs)]
    gr, gi, dr, di = b[n], 0, 0, 0
    for c in reversed(b[:-1]):
        dr, di = (((dr * yr - di * yi) >> shift) + gr,
                  ((dr * yi + di * yr) >> shift) + gi)
        gr, gi = (((gr * yr - gi * yi) >> shift) + c,
                  (gr * yi + gi * yr) >> shift)
    pad = prec - shift
    return e, prec, b, (yr << pad, yi << pad), (gr, gi, dr, di)


def _alpha_data(coeffs, x: mpc):
    """Upper bounds (beta, alpha) at ``x``, the Newton correction f/f'
    there, and the slip of the step x - f/f' taken at mp.prec: beta, an
    ``mpf``, on |f/f'|, alpha, a float, on beta times gamma =
    max_k |f^(k)/(k! f')|^(1/(k-1)), the correction an ``mpc``, and the
    slip, an ``mpf``, on the distance from the computed x - correction to
    the exact Newton step; (inf, inf, None, inf) where f' may vanish or beta
    may reach 2^e.

    They come from ``_scaled_horner``'s g and g': f's beta is 2^e times
    g's, and its alpha is g's.  The correction is 2^e g(y)/g'(y) from the
    same integers, as 2^e g conj(g')/|g'|^2: the exact Gaussian integer over
    the integer |g'|^2 >= 1, a quotient of integers that the kernel's
    ``cdiv_int`` rounds once per part at mp.prec.  As g and g' are each
    within err = (n+2)^3 units of 2^-P, |g| <= g_up < d_low and |g'| >=
    d_low, the quotient of the integers is within 2 err / d_low of g/g'.
    The division and the subtraction round each part within 2^-prec of
    itself, twice, and |correction| <= beta, |x - correction| <= 2^e + beta,
    so the slip is at most 2^(e+1) err / d_low + 2^(2-prec) (2^e + beta).
    |g^(k)/k!| is at most the k-th Taylor coefficient of sum |b_i| t^i at
    t = |y|, both rounded up, in floats widened by 8(n+3) float epsilons.
    """
    n = len(coeffs) - 1
    e, prec, b, (yr, yi), (gr, gi, dr, di) = _scaled_horner(coeffs, x)
    err = (n + 2) ** 3
    g_up = math.isqrt(gr * gr + gi * gi) + 1 + err
    d_low = math.isqrt(dr * dr + di * di) - err
    unit = 1 << prec
    low = d_low / unit                                  # |g'(y)| from below
    if not (g_up < d_low and low > 0):
        return mpmath.inf, math.inf, None, mpmath.inf
    size = _taylor([(abs(c) + 1) / unit for c in b],
                   math.hypot((abs(yr) + 1) / unit, (abs(yi) + 1) / unit))
    up = 1 + 8 * (n + 3) * sys.float_info.epsilon
    tiny = 2 * sys.float_info.min           # absolute error of an underflow
    gamma = max(((c * up + tiny) / low) ** (1 / (k - 1))
                for k, c in enumerate(size) if k >= 2) if n > 1 else 0.0
    g_up += g_up >> 40      # covers rounding beta to 32 digits or more, twice
    step = ints_mpc(cdiv_int((gr * dr + gi * di, e, gi * dr - gr * di, e),
                             dr * dr + di * di, mp.prec))
    beta = mpf((g_up, e)) / d_low
    slip = (mpf((2 * err, e)) / d_low
            + mpmath.ldexp(beta + mpf((1, e)), 2 - mp.prec))
    return beta, g_up / d_low * gamma * up * up + tiny, step, slip


def _apart(points, radii) -> bool:
    """Whether every |points[i] - points[j]| > radii[i] + radii[j] in ``mpc``
    at the current precision.  A hardware screen passes a pair when its float
    distance, less a bound on the float conversion of both points and on the
    float and ``mpc`` roundings, exceeds the radii rounded up; every other
    pair, non-finite and underflowing floats included, gets the ``mpc`` test,
    so the screen changes no outcome."""
    slack = 8 * (sys.float_info.epsilon + float(mp.eps))
    tiny = 2 * sys.float_info.min           # absolute error of an underflow
    fast = [complex(z) for z in points]
    size = [math.hypot(z.real, z.imag) for z in fast]   # inf, not OverflowError
    reach = [float(r) * (1 + slack) + tiny for r in radii]
    for i, j in combinations(range(len(points)), 2):
        d = fast[i] - fast[j]
        low = (math.hypot(d.real, d.imag) * (1 - 2 * slack)
               - slack * (size[i] + size[j]) - tiny)
        if (not low > reach[i] + reach[j]
                and abs(points[i] - points[j]) <= radii[i] + radii[j]):
            return False
    return True


def _accepted(points, radii, tol) -> bool:
    """Whether every radius is at most tol * max(1, |x|) at its point x and
    the discs are pairwise disjoint (``_apart``): each disc then holds the
    zero that Smale's bound ties to its step, and disjoint discs hold
    distinct zeros.  The one acceptance rule for every Newton step."""
    return (all(r <= tol * max(1, abs(x)) for x, r in zip(points, radii))
            and _apart(points, radii))


def _step_error(beta, alpha):
    """Smale's bound 2*alpha(1-alpha)/psi(alpha)*beta, psi = 1 - 4*alpha +
    2*alpha^2, on the distance from the Newton step's result to the zero
    near the point, given alpha < _ALPHA_MAX; inf for a larger alpha."""
    if not alpha < _ALPHA_MAX:
        return math.inf
    return 2 * alpha * (1 - alpha) / (1 - 4 * alpha + 2 * alpha * alpha) * beta


def _newton_step(x, data):
    """x - f/f' at the current precision, by the correction in ``data =
    _alpha_data(f, x)``, and the radius of a disc about the result that holds
    a zero of f: ``_step_error`` on the exact step plus the step's slip.
    (x, inf) where ``data`` has no correction."""
    beta, alpha, step, slip = data
    if step is None:
        return x, mpmath.inf
    return x - step, _step_error(beta, alpha) + slip


def aberth_stage(p: IntPolynomial) -> Iterates:
    """All roots of monic ``p`` at ~32 digits, with the radii of their last
    Newton steps.

    Aberth sweeps in hardware ``complex`` from start points on Fujiwara's
    bound, then the ladder's first rung: one 32-digit Newton step from each
    root, returned when ``_accepted`` passes its radii at 10^(6-32).
    Otherwise the sweeps continue in ``mpc`` to 32 digits, from the hardware
    roots when the hardware sweeps converged and from ``mpc`` start points
    when they did not, and one Newton step from each (at 42 digits) follows.
    """
    if not p.is_monic():
        raise ValueError("root finding expects a monic polynomial")
    n = p.degree
    deriv = p.derivative_coeffs()
    z = None
    with suppress(OverflowError, ZeroDivisionError):
        # Fujiwara's bound on the root moduli, so the start lies near them
        radius = max(1.0, 2 * max(abs(c) ** (1 / (n - k))
                                  for k, c in enumerate(p.coeffs[:-1])))
        # deterministic index-dependent perturbation breaks symmetry traps
        fast = [radius * cmath.exp(1j * (2 * math.pi * (k + 0.25) / n
                                         + k / 1000))
                for k in range(n)]
        if (_sweeps(p.coeffs, deriv, fast, radius, _HARDWARE_DIGITS)
                and all(cmath.isfinite(zk) for zk in fast)):
            z = [mpc(zk) for zk in fast]
            with mp.workdps(_BASE_DPS):
                rung = _newton_polish(p, z, _BASE_DPS)
                if _accepted(rung.roots, rung.radii,
                             mpf(10) ** (6 - _BASE_DPS)):
                    return rung
    with mp.workdps(_BASE_DPS):
        radius = max(mpf(1), 2 * max(mpf(abs(c)) ** (mpf(1) / (n - k))
                                     for k, c in enumerate(p.coeffs[:-1])))
        if z is None:           # the same start points, in mpc
            z = [radius * mpmath.exp(1j * (2 * mpmath.pi * (k + mpf(1) / 4) / n
                                           + mpf(k) / 1000))
                 for k in range(n)]
        if _sweeps(p.coeffs, deriv, z, radius, _BASE_DPS):
            return _newton_polish(p, z, _BASE_DPS + 10)
        residuals = [abs(eval_poly(p.coeffs, zi)) for zi in z]
    raise NonConvergence("simultaneous iteration did not converge",
                         residuals=residuals)


def _newton_polish(p: IntPolynomial, roots, dps: int) -> Iterates:
    """One Newton step from each of ``roots`` at ``dps`` digits, by the
    correction f/f' of ``_alpha_data``, with the radius it certifies
    (``_newton_step``)."""
    with mp.workdps(dps):
        return Iterates(*zip(*(_newton_step(x, _alpha_data(p.coeffs, x))
                               for x in roots)))


def _canonical_order(points) -> list[int]:
    """Indices of ``points`` in ascending (argument in (-pi, pi], modulus),
    by ``mpmath.atan2`` and ``abs`` at the current precision.

    Float keys from ``math.atan2`` and ``math.hypot`` decide when each
    nonzero part converts to a normal float and each two neighbours in
    their order differ by more than 2^-46 of the sum of their keys: in the
    argument, or in the modulus for two points with a zero part and one
    float argument, whose ``mpmath`` arguments are then equal.  A float key
    lies within a few units of 2^-53 of the ``mpmath`` one, relative, so
    the screen changes no order; otherwise the ``mpmath`` keys decide.
    """
    slack, normal = 2.0 ** -46, sys.float_info.min
    keys = []
    for z in points:
        parts = (z.real, z.imag)
        fast = [float(m) for m in parts]
        if not all(m == 0 or (math.isfinite(f) and abs(f) >= normal)
                   for m, f in zip(parts, fast)):
            break
        keys.append((math.atan2(fast[1], fast[0]), math.hypot(*fast),
                     0.0 in fast))
    else:
        order = sorted(range(len(points)), key=lambda i: keys[i][:2])

        def ahead(i, j):
            (ta, ma, axis_a), (tb, mb, axis_b) = keys[i], keys[j]
            if tb - ta > slack * (abs(ta) + abs(tb)) + 2 * normal:
                return True
            return (axis_a and axis_b and ta == tb
                    and mb - ma > slack * (ma + mb))
        if all(ahead(i, j) for i, j in zip(order, order[1:])):
            return order
    return sorted(range(len(points)),
                  key=lambda i: (mpmath.atan2(points[i].imag, points[i].real),
                                 abs(points[i])))


def _certify(it: Iterates, raw, digits: int):
    """The snapped iterates ``raw`` of ``it`` in canonical order, rounded to
    ``digits``, with a radius about each that holds its zero, when
    ``_accepted`` passes them at 10^(1-digits), by the rule that accepts
    the first rung; None otherwise.  Each zero lies within the last step's
    radius of that step's result x', so within that radius plus |x~ - x'|
    of the returned x~; the sum is widened by 2^-40 of itself for its own
    roundings."""
    order = _canonical_order(raw)
    with mp.workdps(digits):
        roots = tuple(+raw[i] for i in order)
    radii = [(it.radii[i] + abs(x - it.roots[i])) * (1 + 2.0 ** -40)
             for x, i in zip(roots, order)]
    if _accepted(roots, radii, mpf(10) ** (1 - digits)):
        return roots, radii
    return None


def polish_roots(p: IntPolynomial, start: Iterates, digits: int) -> RootSet:
    """All n roots of a monic square-free polynomial at the given budget,
    polished from ``start = aberth_stage(p)``, whose 32-digit step is the
    ladder's first rung, by one Newton step per root on each further rung,
    at 10 digits above the rung, as the digits double to digits + 8, then
    rounded, with a real or imaginary part zeroed when at most
    min(10^(2-digits) * |x~|, 10^(1-digits) * max(1, |x~|) / 4).  They are
    returned once ``_certify`` accepts the radii of the last steps, widened
    by |x~ - x'|, at 10^(1-digits), by the rule that accepted the first
    rung; until then the ``mpc`` sweeps run at twice the last digits, to
    steps below 10^(-digits-2), from these roots the first time and from
    their own last roots after that, and one Newton step from their roots
    follows each run.  Certified roots closer than
    10^(-digits/2) raise NonConvergence, as do roots left uncertified by
    sweeps at up to 4 * (digits + 32) digits; budgets above DIGITS_HARD_CAP
    raise PrecisionInfeasible.  Output order is canonical: ascending
    argument in (-pi, pi], then modulus.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    check_digit_budget(digits)
    it, dps, swept = start, _BASE_DPS, None
    while dps < digits + 8:
        dps = min(dps * 2, digits + 8)
        it = _newton_polish(p, it.roots, dps + 10)
    while True:
        with mp.workdps(max(digits + 10, dps)):
            # components below the budget's own noise floor are exactly zero
            # (real/imaginary structure then survives re-rendering), capped at
            # a quarter of the certificate's tolerance; at 1 or 2 digits the
            # floor reaches |z| and would zero every root
            floor, tol = mpf(10) ** (2 - digits), mpf(10) ** (1 - digits)
            raw = list(it.roots)
            if floor < 1:
                for i, z in enumerate(raw):
                    mag = abs(z)
                    cap = min(mag * floor, max(1, mag) * tol / 4)
                    re = mpf(0) if z.real != 0 and abs(z.real) <= cap else z.real
                    im = mpf(0) if z.imag != 0 and abs(z.imag) <= cap else z.imag
                    raw[i] = mpc(re, im)
            certified = _certify(it, raw, digits)
            if certified is not None:
                roots, _ = certified
                if not _apart(roots, [mpf(10) ** (-digits / 2) / 2] * p.degree):
                    raise NonConvergence(
                        "roots are not separated; input may not be square-free")
                return RootSet(roots, digits)
        if dps > 2 * (digits + _BASE_DPS):
            raise NonConvergence(f"roots not certified at {digits} digits after "
                                 f"sweeps at {dps}; input may not be square-free")
        dps *= 2
        # Newton puts two copies of one root exactly on it, where Aberth's
        # correction f/f' vanishes, so the sweeps go on from their own roots
        swept = raw if swept is None else swept
        with mp.workdps(dps):
            radius = max(mpf(1), *(abs(z) for z in swept))
            _sweeps(p.coeffs, p.derivative_coeffs(), swept, radius, digits + 8)
        it = _newton_polish(p, swept, dps + 10)


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

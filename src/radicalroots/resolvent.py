"""Forward pass: the resolvent tensor transforms and precision planning.

The mixed-radix tensor over indices (j_1, ..., j_m) with radices (p_1, ..., p_m)
is stored flat in row-major order (j_1 slowest).  Level i transforms act along
axis i: a weighted Fourier sum produces the resolvent array L_{i-1}, whose
entrywise p_i-th powers are Fourier-inverted into the next invariant array
Theta_i.  After level m every entry is (numerically) a rational integer.
The group's action makes many lines of a level copies of one another up to
an affine reindexing j -> u*j + t (mod p), an equal line being the map
(1, 0); each level transforms one line of each such family, whether or not
its entries repeat, and fills the others from it.  The transforms and the
rounding compute at the caller's ``mp.dps``.

A line is transformed in block fixed point, at wp = mp.prec + 2 bitlen(p)
+ 2 bits: one exponent per line, exact sums, each product rounded once, and
each Theta entry once to mp.prec bits.  The guard bits give entries equal in
exact arithmetic equal bits in most cases, which line sharing keys on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import mpmath
from mpmath import mp, mpc, mpf

from .errors import LabelingFailed, ResidualTooLarge
from .groups import CompositionSeries
from .precision import (bit_exponent, cdiv_int, check_digit_budget,
                        fixed_line, gmul, ints_mpc, mpc_ints, nearest_integer,
                        part_bits, root_of_unity)
from .rootfinder import RootSet

__all__ = [
    "ResolventTensor",
    "PrecisionPlan",
    "MultiplicationCounter",
    "IntegerThetaTensor",
    "ForwardResult",
    "axis_lines",
    "plan_precision",
    "build_theta0",
    "forward_level",
    "forward_pass",
    "multiplication_budget",
    "round_theta_m",
    "round_to_integer",
    "position_root_indices",
    "zeta_tables",
]

DEFAULT_ROUNDING_TOLERANCE = 0.25
# digits every planned budget adds to plan_precision's requirement
DEFAULT_MARGIN = 6


def axis_lines(radices: tuple[int, ...], axis: int):
    """Flat index lists of all lines along one axis of a row-major tensor."""
    stride = math.prod(radices[axis + 1:])
    p = radices[axis]
    block = stride * p
    for start in range(0, math.prod(radices), block):
        for off in range(stride):
            base = start + off
            yield [base + j * stride for j in range(p)]


@dataclass(frozen=True)
class ResolventTensor:
    """Mixed-radix array of complex values."""

    radices: tuple[int, ...]
    data: tuple[mpc, ...]

    def __post_init__(self):
        if len(self.data) != math.prod(self.radices):
            raise ValueError("tensor data length does not match radices")


@dataclass(frozen=True)
class PrecisionPlan:
    """Digit budget derived from the coefficient-sum bound of the final level."""

    n_bound: int
    x0_bound: float
    required_digits: int

    @property
    def digits(self) -> int:
        """The planned budget: the requirement plus DEFAULT_MARGIN."""
        return self.required_digits + DEFAULT_MARGIN


@dataclass
class MultiplicationCounter:
    """Tally of complex multiplications in the forward pass."""

    count: int = 0

    def add(self, n: int) -> None:
        self.count += n


@dataclass(frozen=True)
class IntegerThetaTensor:
    """Final-level tensor rounded to exact integers, with rounding residuals."""

    radices: tuple[int, ...]
    values: tuple[int, ...]
    residuals: tuple[mpf, ...]


@dataclass(frozen=True)
class ForwardResult:
    thetas: tuple[ResolventTensor, ...]       # levels 0..m
    resolvents: tuple[ResolventTensor, ...]   # L_0..L_{m-1}
    counter: MultiplicationCounter


def multiplication_budget(series: CompositionSeries) -> int:
    """|G| * sum_i (3 p_i - 1), the forward-pass multiplication cap."""
    return series.order * sum(3 * p - 1 for p in series.primes)


def plan_precision(series: CompositionSeries, x0_bound) -> PrecisionPlan:
    """Digit budget: ceil(log10(2 * N * |G| * x0^(|G|-1))) + DEFAULT_MARGIN.

    N bounds the coefficient sum of any final-level invariant:
    N = prod_i p_i^(p_i * p_{i+1} * ... * p_m).
    """
    primes = series.primes
    n_bound = 1
    for i, p in enumerate(primes):
        n_bound *= p ** math.prod(primes[i:])
    order = series.order
    with mp.workdps(50):
        v = mpmath.log10(mpf(2) * n_bound * order)
        v += (order - 1) * mpmath.log10(mpf(x0_bound))
        required = int(mpmath.ceil(v - mpf(10) ** (-30)))
    plan = PrecisionPlan(n_bound, float(x0_bound), max(required, 1))
    check_digit_budget(plan.digits)
    return plan


def position_root_indices(series: CompositionSeries) -> list[int]:
    """Root label at each flat tensor position: (sigma_m^{j_m}...sigma_1^{j_1})(1).

    Label 1 is followed through the powers of sigma_1, then of sigma_2, and
    so on; each step appends the new (fastest) axis.  Raises LabelingFailed
    when the positions miss a label: the group is then not transitive.
    """
    points = [1]
    for sigma, p in series.steps:
        powers = [sigma.power(j) for j in range(p)]
        points = [s(x) for x in points for s in powers]
    if set(points) != set(range(1, series.degree + 1)):
        raise LabelingFailed(
            "tensor positions do not cover all roots; the group is not "
            "transitive on the labels (wrong group or labeling?)")
    return points


def build_theta0(roots: RootSet, series: CompositionSeries) -> ResolventTensor:
    """Theta_0[j_1..j_m] = the labeled root moved by sigma_m^{j_m}...sigma_1^{j_1}.

    Requires the labeling to be consistent with the group's permutation
    action; transitivity means every root label must appear.
    """
    if roots.n != series.degree:
        raise ValueError("root count does not match the group degree")
    data = tuple(roots.roots[i - 1] for i in position_root_indices(series))
    return ResolventTensor(series.primes, data)


def zeta_tables(series: CompositionSeries):
    """All powers of each primitive p-th root of unity used by the series,
    at ``mp.dps``: ``root_of_unity`` gives zeta^k for k <= p/2, and
    zeta^(p-k) is the conjugate of zeta^k."""
    tables = {}
    for p in set(series.primes):
        half = [root_of_unity(p, k) for k in range(p // 2 + 1)]
        tables[p] = half + [z.conjugate()
                            for z in reversed(half[1:(p + 1) // 2])]
    return tables


def _turn(table, e: int, x, wp: int, counter: MultiplicationCounter):
    """zeta^e * x for a Gaussian integer x, ``table`` holding zeta's powers
    at exponent -wp: x at e = 0, -x where zeta^e = -1 (p = 2), else one
    ``gmul``, which the counter adds; the shortcuts give its bits."""
    if e == 0:
        return x
    if len(table) == 2:
        return -x[0], -x[1]
    counter.add(1)
    return gmul(table[e], x, wp)


def _dft(table, x, sign: int, wp: int, counter: MultiplicationCounter):
    """sum_j zeta^(sign*j*k) x_j for each k: x_0 plus exact sums of
    ``_turn``s, written out as x_0 + x_1 and x_0 - x_1 at p = 2."""
    p = len(x)
    if p == 2:
        (a, b), (c, d) = x
        return [(a + c, b + d), (a - c, b - d)]
    out = []
    for k in range(p):
        re, im = x[0]
        for j in range(1, p):
            a, b = _turn(table, sign * j * k % p, x[j], wp, counter)
            re, im = re + a, im + b
        out.append((re, im))
    return out


def _transform(entries, table, wp: int, counter: MultiplicationCounter):
    """A line's L as Gaussian integers, their exponent e, and Theta, from
    its Theta entries' integer forms: L is the ``_dft`` of the entries put
    to ``fixed_line``, each power step makes w_k * L_k by one ``gmul``, and
    ``cdiv_int`` divides the inverse ``_dft`` of the p-th powers by p."""
    p, prec = len(entries), mp.prec
    x, e = fixed_line(entries, wp)
    l_line = _dft(table, x, 1, wp, counter)
    # max |L_k|^2 = 2^(2e) * [2^(n-1), 2^n): the k-th powers keep wp bits at t
    n = max([a * a + b * b for a, b in l_line]).bit_length()
    w, s = l_line, e
    for k in range(2, p + 1):
        t = k * e + k * (n - 1) // 2 - wp
        counter.add(p)
        w, s = [gmul(y, z, t - s - e) for y, z in zip(w, l_line)], t
    return l_line, e, [ints_mpc(cdiv_int((a, s, b, s), p, prec))
                       for a, b in _dft(table, w, -1, wp, counter)]


def _fill(ref, u: int, t: int, table, wp: int,
          counter: MultiplicationCounter):
    """L at ``ref``'s exponent, and Theta, of the line (u, t) maps onto
    ``ref``: L_j = zeta^(-t*k) * L_k(ref) with k = j/u mod p, one ``_turn``
    each, and Theta_j = Theta_(u*j)(ref) by index copy."""
    l_ref, e, _, t_ref = ref
    p = len(l_ref)
    inverse = pow(u, -1, p)
    ks = [j * inverse % p for j in range(p)]
    l_line = [_turn(table, -t * k % p, l_ref[k], wp, counter) for k in ks]
    return l_line, e, [t_ref[u * j % p] for j in range(p)]


def _record(l_line, e: int, t_line):
    """A line as ``known`` holds it: L at exponent e, e, L as mpc, Theta."""
    return l_line, e, [ints_mpc((a, e, b, e)) for a, b in l_line], t_line


def forward_level(theta_prev: ResolventTensor, level: int, zetas,
                  counter: MultiplicationCounter):
    """One transform level: resolvent sums, p-th powers, coefficient extraction.

    Returns (L_{level-1}, Theta_level).  One table, ``known``, maps the bits
    of a line's entries to (ref, u, t): ``ref`` holds the entries
    (``_record``) of a line met before whose entry (u*j + t) mod p is the
    line's j-th, u a unit.  A line in the table is filled from it by
    ``_fill``; an equal line is the map (1, 0), which shares ``ref``'s
    objects with no product, so a line equal to a filled one copies it.
    Every other line is transformed (``_transform``), and its images under
    every map join the table whether or not its entries repeat; an image
    already there keeps its earlier map.  The counter is incremented by
    exactly the complex multiplications performed, which stay at or below
    ``multiplication_budget``.
    """
    p = theta_prev.radices[level - 1]
    wp = mp.prec + 2 * p.bit_length() + 2
    # zeta^0 = 1 is the table's largest part, so it sits at exponent -wp
    table, _ = fixed_line([mpc_ints(z) for z in zetas[p]], wp + 1)
    data = [mpc_ints(z) for z in theta_prev.data]
    ldata, tdata = [None] * len(data), [None] * len(data)
    codes: dict = {}     # an entry's bits -> a small int
    known: dict = {}     # a line's entry codes -> (ref, u, t) for _fill
    for line in axis_lines(theta_prev.radices, level - 1):
        key = tuple(codes.setdefault(data[i], len(codes)) for i in line)
        if key in known:
            ref, u, t = known[key]
            out = ref if (u, t) == (1, 0) else _record(
                *_fill(ref, u, t, table, wp, counter))
        else:
            out = _record(*_transform([data[i] for i in line], table, wp,
                                      counter))
            for u in range(1, p):
                # rotation r of key[u*j] is the image under (u, u*r)
                doubled = [key[u * j % p] for j in range(p)] * 2
                for r in range(p):
                    known.setdefault(tuple(doubled[r:r + p]),
                                     (out, u, u * r % p))
        known[key] = (out, 1, 0)
        for flat, l_entry, t_entry in zip(line, *out[2:]):
            ldata[flat], tdata[flat] = l_entry, t_entry
    return (replace(theta_prev, data=tuple(ldata)),
            replace(theta_prev, data=tuple(tdata)))


def forward_pass(theta0: ResolventTensor, series: CompositionSeries,
                 zetas) -> ForwardResult:
    """Run all m levels by ``forward_level``, retaining every Theta and L
    tensor."""
    counter = MultiplicationCounter()
    thetas, resolvents = [theta0], []
    for level in range(1, series.length + 1):
        L, theta = forward_level(thetas[-1], level, zetas, counter)
        resolvents.append(L)
        thetas.append(theta)
    return ForwardResult(tuple(thetas), tuple(resolvents), counter)


def round_to_integer(z: mpc, subject: str, hint: str = "",
                     position: int | None = None) -> tuple[int, mpf]:
    """The integer nearest ``z`` and the residual.

    Raises ResidualTooLarge, saying that ``subject`` is too far from an
    integer and then ``hint``, when the residual is DEFAULT_ROUNDING_TOLERANCE
    or more.
    """
    n, residual = nearest_integer(z)
    if residual >= DEFAULT_ROUNDING_TOLERANCE:
        raise ResidualTooLarge(
            f"{subject} is {mpmath.nstr(residual, 4)} away from an integer "
            f"(tolerance {DEFAULT_ROUNDING_TOLERANCE}){hint}",
            position=position, residual=residual)
    return n, residual


def round_theta_m(theta_m: ResolventTensor) -> IntegerThetaTensor:
    """Round every final-level entry to the nearest integer.

    Raises ResidualTooLarge when any entry is DEFAULT_ROUNDING_TOLERANCE or
    farther from an integer: insufficient precision, a wrong group, a wrong
    labeling, or a non-irreducible input polynomial.  An entry of magnitude
    DEFAULT_ROUNDING_TOLERANCE * 10^mp.dps or more raises it first, with
    ``residual`` None: ``mp.dps`` digits cannot resolve its units, so its
    nearest integer says nothing.  The exact ``abs`` runs only for an entry
    with a part of 2^(e-2) or more, 2^(e-1) <= limit < 2^e: a smaller entry
    is below 2^(e-3/2), under the limit.
    """
    limit = DEFAULT_ROUNDING_TOLERANCE * mpf(10) ** mp.dps
    screen = bit_exponent(limit) - 1
    for flat, entry in enumerate(theta_m.data):
        if part_bits(entry) >= screen and abs(entry) >= limit:
            raise ResidualTooLarge(
                f"entry {flat} of the final tensor has magnitude "
                f"{mpmath.nstr(abs(entry), 4)}, too large to round at "
                f"{mp.dps} digits; raise the digit budget",
                position=flat)
    hint = ("; raise the digit budget, or check the group, the labeling, "
            "and irreducibility")
    rounded = [round_to_integer(entry, f"entry {flat} of the final tensor",
                                hint, flat)
               for flat, entry in enumerate(theta_m.data)]
    return IntegerThetaTensor(theta_m.radices,
                              tuple(n for n, _ in rounded),
                              tuple(res for _, res in rounded))

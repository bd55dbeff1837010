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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import mpmath
from mpmath import mp, mpc, mpf

from .errors import LabelingFailed, ResidualTooLarge
from .groups import CompositionSeries
from .precision import (bit_exponent, cadd, cdiv_int, check_digit_budget,
                        cmul, ints_mpc, mpc_ints, nearest_integer, part_bits,
                        root_of_unity)
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


def _turn(table, e: int, x, prec: int, counter: MultiplicationCounter):
    """zeta^e * x in the integer form, ``table`` holding zeta's powers: x
    itself at e = 0, its negation where zeta^e = -1 (p = 2), else one kernel
    product, which the counter adds.  Both shortcuts give the bits of the
    product, since x is rounded at ``prec`` already."""
    if e == 0:
        return x
    if len(table) == 2:
        return (-x[0], x[1], -x[2], x[3])
    counter.add(1)
    return cmul(table[e], x, prec)


def _transform(entries, table, prec: int, counter: MultiplicationCounter):
    """One line's L and Theta entries from its Theta entries in the integer
    form: the L sums and the Theta sums by ``_turn``, and p - 1 products
    for each p-th power; the counter adds each product where it is made."""
    p = len(entries)
    l_line, powered, t_line = [], [], []
    for k in range(p):
        acc = None
        for j in range(p):
            term = _turn(table, (j * k) % p, entries[j], prec, counter)
            acc = term if acc is None else cadd(acc, term, prec)
        l_line.append(ints_mpc(acc))
        w = acc
        for _ in range(p - 1):
            w = cmul(w, acc, prec)
            counter.add(1)
        powered.append(w)
    for j in range(p):
        acc = None
        for k in range(p):
            term = _turn(table, (-k * j) % p, powered[k], prec, counter)
            acc = term if acc is None else cadd(acc, term, prec)
        t_line.append(ints_mpc(cdiv_int(acc, p, prec)))
    return l_line, t_line


def _fill(ref, u: int, t: int, table, prec: int,
          counter: MultiplicationCounter):
    """The L and Theta entries of the line (u, t) maps onto ``ref``:
    L_j = zeta^(-t*k) * L_k(ref) with k = j/u mod p, by one ``_turn`` each,
    and Theta_j = Theta_(u*j)(ref) by index copy."""
    l_ref, t_ref = ref
    p = len(l_ref)
    inverse = pow(u, -1, p)
    l_line = []
    for j in range(p):
        k = j * inverse % p
        e = -t * k % p
        l_line.append(l_ref[k] if e == 0 else ints_mpc(
            _turn(table, e, mpc_ints(l_ref[k]), prec, counter)))
    return l_line, [t_ref[u * j % p] for j in range(p)]


def forward_level(theta_prev: ResolventTensor, level: int, zetas,
                  counter: MultiplicationCounter):
    """One transform level: resolvent sums, p-th powers, coefficient extraction.

    Returns (L_{level-1}, Theta_level).  One table, ``known``, maps the bits
    of a line's entries to (ref, u, t): ``ref`` holds the L and Theta
    entries of a line met before whose entry (u*j + t) mod p is the line's
    j-th, u a unit.  A line in the table is filled from it by ``_fill``; an
    equal line is the map (1, 0), which shares ``ref``'s objects with no
    product, so a line equal to a filled one copies it.  Every other line
    is transformed (``_transform``), and its images under every map join
    the table whether or not its entries repeat; an image already there
    keeps its earlier map.  The counter is incremented by exactly the complex
    multiplications performed, which stay at or below
    ``multiplication_budget``.  The sums and products run on the integer
    kernel of ``precision`` at ``mp.prec``, with the bits of the same
    ``mpc`` expressions.
    """
    p = theta_prev.radices[level - 1]
    prec = mp.prec
    table = [mpc_ints(z) for z in zetas[p]]
    data = [mpc_ints(z) for z in theta_prev.data]
    ldata: list = [None] * len(data)
    tdata: list = [None] * len(data)
    codes: dict = {}     # an entry's bits -> a small int
    known: dict = {}     # a line's entry codes -> (ref, u, t) for _fill
    for line in axis_lines(theta_prev.radices, level - 1):
        key = tuple(codes.setdefault(data[i], len(codes)) for i in line)
        if key in known:
            out = _fill(*known[key], table, prec, counter)
        else:
            out = _transform([data[i] for i in line], table, prec, counter)
            for u in range(1, p):
                # rotation r of key[u*j] is the image under (u, u*r)
                doubled = [key[u * j % p] for j in range(p)] * 2
                for r in range(p):
                    known.setdefault(tuple(doubled[r:r + p]),
                                     (out, u, u * r % p))
        known[key] = (out, 1, 0)
        for flat, l_entry, t_entry in zip(line, *out):
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

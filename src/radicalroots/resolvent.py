"""Forward pass: the resolvent tensor transforms and precision planning.

The mixed-radix tensor over indices (j_1, ..., j_m) with radices (p_1, ..., p_m)
is stored flat in row-major order (j_1 slowest).  Level i transforms act along
axis i: a weighted Fourier sum produces the resolvent array L_{i-1}, whose
entrywise p_i-th powers are Fourier-inverted into the next invariant array
Theta_i.  After level m every entry is (numerically) a rational integer.
The transforms and the rounding compute at the caller's ``mp.dps``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import mpmath
from mpmath import mp, mpc, mpf

from .errors import LabelingFailed, ResidualTooLarge
from .groups import CompositionSeries
from .precision import (cadd, cdiv_int, check_digit_budget, cmul, ints_mpc,
                        mpc_ints, nearest_integer, root_of_unity)
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
    at ``mp.dps``."""
    return {p: [root_of_unity(p, k) for k in range(p)]
            for p in set(series.primes)}


def forward_level(theta_prev: ResolventTensor, level: int, zetas,
                  counter: MultiplicationCounter):
    """One transform level: resolvent sums, p-th powers, coefficient extraction.

    Returns (L_{level-1}, Theta_level).  The counter is incremented by exactly
    the complex multiplications performed: p per L entry, p-1 per power,
    p per Theta entry.  The sums and products run on the integer kernel of
    ``precision`` at ``mp.prec``, with the bits of the same ``mpc``
    expressions.
    """
    p = theta_prev.radices[level - 1]
    axis = level - 1
    prec = mp.prec
    table = [mpc_ints(z) for z in zetas[p]]
    data = [mpc_ints(z) for z in theta_prev.data]
    ldata: list = [None] * len(data)
    tdata: list = [None] * len(data)
    for line in axis_lines(theta_prev.radices, axis):
        entries = [data[i] for i in line]
        powered = []
        for k in range(p):
            acc = None
            for j in range(p):
                term = cmul(table[(j * k) % p], entries[j], prec)
                acc = term if acc is None else cadd(acc, term, prec)
            counter.add(p)
            ldata[line[k]] = ints_mpc(acc)
            w = acc
            for _ in range(p - 1):
                w = cmul(w, acc, prec)
            counter.add(p - 1)
            powered.append(w)
        for j in range(p):
            acc = None
            for k in range(p):
                term = cmul(table[(-k * j) % p], powered[k], prec)
                acc = term if acc is None else cadd(acc, term, prec)
            counter.add(p)
            tdata[line[j]] = ints_mpc(cdiv_int(acc, p, prec))
    return (replace(theta_prev, data=tuple(ldata)),
            replace(theta_prev, data=tuple(tdata)))


def forward_pass(theta0: ResolventTensor, series: CompositionSeries,
                 zetas) -> ForwardResult:
    """Run all m levels, retaining every Theta and L tensor."""
    counter = MultiplicationCounter()
    thetas = [theta0]
    resolvents = []
    current = theta0
    for level in range(1, series.length + 1):
        L, current = forward_level(current, level, zetas, counter)
        resolvents.append(L)
        thetas.append(current)
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
    labeling, or a non-irreducible input polynomial.
    """
    hint = ("; raise the digit budget, or check the group, the labeling, "
            "and irreducibility")
    rounded = [round_to_integer(entry, f"entry {flat} of the final tensor",
                                hint, flat)
               for flat, entry in enumerate(theta_m.data)]
    return IntegerThetaTensor(theta_m.radices,
                              tuple(n for n, _ in rounded),
                              tuple(res for _, res in rounded))

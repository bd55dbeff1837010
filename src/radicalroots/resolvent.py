"""Forward pass: the resolvent tensor transforms and precision planning.

The mixed-radix tensor over indices (j_1, ..., j_m) with radices (p_1, ..., p_m)
is stored flat in row-major order (j_1 slowest).  Level i transforms act along
axis i: a weighted Fourier sum produces the resolvent array L_{i-1}, whose
entrywise p_i-th powers are Fourier-inverted into the next invariant array
Theta_i.  After level m every entry is (numerically) a rational integer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import mpmath
from mpmath import mp, mpc, mpf

from .errors import LabelingFailed, PrecisionInfeasible, ResidualTooLarge
from .groups import CompositionSeries
from .precision import nearest_integer, root_of_unity
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
    "position_root_indices",
    "zeta_tables",
]

DEFAULT_ROUNDING_TOLERANCE = 0.25
# digits a solve adds to plan_precision's requirement unless given a margin
DEFAULT_MARGIN = 6
DIGITS_HARD_CAP = 10**5


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
    """Mixed-radix array of complex values computed at one digit budget."""

    radices: tuple[int, ...]
    data: tuple[mpc, ...]
    digits: int

    def __post_init__(self):
        if len(self.data) != math.prod(self.radices):
            raise ValueError("tensor data length does not match radices")


@dataclass(frozen=True)
class PrecisionPlan:
    """Digit budget derived from the coefficient-sum bound of the final level."""

    n_bound: int
    x0_bound: float
    required_digits: int
    margin: int
    digits: int


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


def plan_precision(series: CompositionSeries, x0_bound,
                   margin: int) -> PrecisionPlan:
    """Digit budget: ceil(log10(2 * N * |G| * x0^(|G|-1))) + margin.

    N bounds the coefficient sum of any final-level invariant:
    N = prod_i p_i^(p_i * p_{i+1} * ... * p_m).
    """
    if margin < 0:
        raise ValueError("margin must be >= 0")
    primes = series.primes
    n_bound = 1
    for i, p in enumerate(primes):
        n_bound *= p ** math.prod(primes[i:])
    order = series.order
    with mp.workdps(50):
        v = mpmath.log10(mpf(2) * n_bound * order)
        v += (order - 1) * mpmath.log10(mpf(x0_bound))
        required = int(mpmath.ceil(v - mpf(10) ** (-30)))
    required = max(required, 1)
    digits = required + margin
    if digits > DIGITS_HARD_CAP:
        raise PrecisionInfeasible(
            f"required digit budget {digits} exceeds cap {DIGITS_HARD_CAP}")
    return PrecisionPlan(n_bound, float(x0_bound), required, margin, digits)


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
    return ResolventTensor(series.primes, data, roots.digits)


def zeta_tables(series: CompositionSeries, digits: int):
    """All powers of each primitive p-th root of unity used by the series."""
    return {p: [root_of_unity(p, k, digits) for k in range(p)]
            for p in set(series.primes)}


def forward_level(theta_prev: ResolventTensor, level: int, zetas,
                  counter: MultiplicationCounter):
    """One transform level: resolvent sums, p-th powers, coefficient extraction.

    Returns (L_{level-1}, Theta_level).  The counter is incremented by exactly
    the complex multiplications performed: p per L entry, p-1 per power,
    p per Theta entry.
    """
    p = theta_prev.radices[level - 1]
    axis = level - 1
    table = zetas[p]
    ldata: list = [None] * len(theta_prev.data)
    tdata: list = [None] * len(theta_prev.data)
    with mp.workdps(theta_prev.digits):
        for line in axis_lines(theta_prev.radices, axis):
            entries = [theta_prev.data[i] for i in line]
            powered = []
            for k in range(p):
                acc = None
                for j in range(p):
                    term = table[(j * k) % p] * entries[j]
                    acc = term if acc is None else acc + term
                counter.add(p)
                ldata[line[k]] = acc
                w = acc
                for _ in range(p - 1):
                    w = w * acc
                counter.add(p - 1)
                powered.append(w)
            for j in range(p):
                acc = None
                for k in range(p):
                    term = table[(-k * j) % p] * powered[k]
                    acc = term if acc is None else acc + term
                counter.add(p)
                tdata[line[j]] = acc / p
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


def round_theta_m(theta_m: ResolventTensor,
                  tolerance: float = DEFAULT_ROUNDING_TOLERANCE) -> IntegerThetaTensor:
    """Round every final-level entry to the nearest integer.

    Raises ResidualTooLarge when any entry is farther than the tolerance from
    an integer: insufficient precision, a wrong group, a wrong labeling, or a
    non-irreducible input polynomial.
    """
    with mp.workdps(theta_m.digits):
        rounded = [nearest_integer(entry) for entry in theta_m.data]
    values, residuals = [], []
    for flat, (n, res) in enumerate(rounded):
        if res >= tolerance:
            raise ResidualTooLarge(
                f"entry {flat} of the final tensor is {mpmath.nstr(res, 4)} away "
                f"from an integer (tolerance {tolerance}); raise the digit "
                "budget, or check the group, the labeling, and irreducibility",
                position=flat, residual=res)
        values.append(n)
        residuals.append(res)
    return IntegerThetaTensor(theta_m.radices, tuple(values), tuple(residuals))

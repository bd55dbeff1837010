"""Seeded benchmark instances, built without calling into radicalroots.

Each workload is a list of ``Instance`` objects made from the workload seed.
Explicit labelings come from the roots' closed forms, sorted the way
``find_roots`` orders its output (argument in (-pi, pi], then modulus), so
the program receives only polynomial text, generators and a root order.

``DEFAULT_SEED`` reproduces the instances of ``tests/test_properties.py`` and
of the ROADMAP baseline table: ``x^7-2``, Phi17, Phi19, ``x^11-2``, ``x^13-2``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import mpmath
from mpmath import mp

DEFAULT_SEED = 414213


@dataclass(frozen=True)
class Instance:
    name: str
    poly: str
    generators: str
    labeling: object = "auto"   # "auto" or a tuple of canonical root positions
    closed_form: tuple = ()     # roots in label order, for explicit labelings


def _cycle(labels) -> str:
    return "(" + ",".join(str(j) for j in labels) + ")"


def _canonical_order(values) -> tuple[int, ...]:
    """1-based canonical position of each value, as ``find_roots`` sorts."""
    key = []
    for z in values:
        mag = abs(z)
        re = 0 if abs(z.real) <= mag * mpmath.mpf(10) ** -20 else z.real
        im = 0 if abs(z.imag) <= mag * mpmath.mpf(10) ** -20 else z.imag
        key.append((mpmath.atan2(im, re), mag))
    order = sorted(range(len(values)), key=lambda i: key[i])
    position = {i: pos + 1 for pos, i in enumerate(order)}
    return tuple(position[i] for i in range(len(values)))


def _explicit(name, poly, generators, roots) -> Instance:
    return Instance(name, poly, generators, _canonical_order(roots),
                    tuple(roots))


def _affine_generators(n: int, unit: int) -> str:
    """k -> k+1 and k -> unit*k (mod n) on labels k+1, in cycle notation."""
    shift = _cycle(range(1, n + 1))
    seen, cycles = set(), []
    for k in range(n):
        if k in seen or (unit * k) % n == k:
            continue
        cyc, j = [], k
        while j not in seen:
            seen.add(j)
            cyc.append(j + 1)
            j = (unit * j) % n
        cycles.append(_cycle(cyc))
    return shift + ";" + "".join(cycles)


def _primitive_roots(q: int) -> list[int]:
    return [g for g in range(2, q)
            if len({pow(g, j, q) for j in range(q - 1)}) == q - 1]


def _binomial_text(n: int, a: int) -> str:
    return f"x^{n}-{a}" if a > 0 else f"x^{n}+{-a}"


def pure_power(group: str, n: int, a: int, unit: int,
               labeling: str = "explicit") -> Instance:
    """x^n - a with labels k+1 -> a^(1/n) * zeta_n^k (real a^(1/n))."""
    text = _binomial_text(n, a)
    name = f"{group} {text}"
    generators = _affine_generators(n, unit)
    with mp.workdps(30):
        base = mpmath.root(abs(a), n) * (1 if a > 0 else -1)
        roots = [base * mpmath.expjpi(mpmath.mpf(2 * k) / n) for k in range(n)]
    if labeling == "auto":
        return Instance(name, text, generators)
    return _explicit(name, text, generators, roots)


def cyclotomic(q: int, g: int) -> Instance:
    """Phi_q for prime q with labels j+1 -> zeta_q^(g^j)."""
    text = "+".join(f"x^{k}" for k in range(q - 1, 1, -1)) + "+x+1"
    roots = []
    with mp.workdps(30):
        for j in range(q - 1):
            roots.append(mpmath.expjpi(mpmath.mpf(2 * pow(g, j, q)) / q))
    return _explicit(f"C{q - 1} Phi{q} g={g}", text, _cycle(range(1, q)), roots)


def period(name: str, text: str, q: int, g: int, n: int) -> Instance:
    """Degree-n cyclic field in Q(zeta_q): labels j+1 -> 2cos(2pi g^j/q)."""
    with mp.workdps(30):
        roots = [mpmath.mpc(2 * mpmath.cospi(mpmath.mpf(2 * pow(g, j, q)) / q))
                 for j in range(n)]
    return _explicit(name, text, _cycle(range(1, n + 1)), roots)


def property_suite(seed: int) -> list[Instance]:
    """The 25 instances of the property suite, sampled with ``seed``."""
    rng = random.Random(seed)
    out = []
    squares = {k * k for k in range(1, 9)}
    ds = [d for d in range(2, 60) if d not in squares]
    for d in rng.sample(ds, 11):
        out.append(Instance(f"C2 x^2-{d}", f"x^2-{d}", "(1,2)"))
    cubes = {k ** 3 for k in range(1, 4)}
    as_ = [a for a in range(2, 40) if a not in cubes]
    for a in rng.sample(as_, 8):
        out.append(Instance(f"S3 x^3-{a}", f"x^3-{a}", "(1,2,3);(1,2)"))
    for text in ("x^3-3x-1", "x^3+x^2-2x-1", "x^3-21x-35"):
        out.append(Instance(f"C3 {text}", text, "(1,2,3)"))
    out.append(period("C5 deg-5 cyclic", "x^5+x^4-4x^3-3x^2+3x+1", 11, 2, 5))
    out.append(period("C6 deg-6 cyclic", "x^6+x^5-5x^4-4x^3+6x^2+3x-1",
                      13, 2, 6))
    out.append(Instance("D5 quintic", "x^5+20x+32", "(1,2,3,4,5);(1,4)(2,3)"))
    return out


def _pick(rng: random.Random, seed: int, choices):
    """The first choice for the default seed, else a seeded draw."""
    return choices[0] if seed == DEFAULT_SEED else rng.choice(choices)


def small_mixed(seed: int) -> list[Instance]:
    return property_suite(seed) + [
        Instance("S4 x^4+x+1", "x^4+x+1", "(1,2,3,4);(1,2)"),
        pure_power("F20", 5, 2, 2, labeling="auto"),
        Instance("S3 2x^3-3", "2x^3-3", "(1,2,3);(1,2)"),
    ]


def label_search(seed: int) -> list[Instance]:
    # each choice of a keeps the digit budget within one digit of a = 2
    rng = random.Random(seed)
    return [
        pure_power("F42", 7, _pick(rng, seed, (2, 3, -2, -3)), 3, labeling="auto"),
        pure_power("D6", 6, _pick(rng, seed, (2, 3, 5, 7)), -1, labeling="auto"),
        pure_power("D4", 4, _pick(rng, seed, (2, 3, 5, 6)), -1, labeling="auto"),
    ]


def cyclo_roots(seed: int) -> list[Instance]:
    rng = random.Random(seed)
    return [cyclotomic(q, _pick(rng, seed, _primitive_roots(q)))
            for q in (17, 19)]


def deep_radicals(seed: int) -> list[Instance]:
    rng = random.Random(seed)
    return [pure_power("F110", 11, _pick(rng, seed, (2, -2)), 2),
            pure_power("F156", 13, _pick(rng, seed, (2, 3, -2, -3)), 2)]


WORKLOADS = {
    "small-mixed": small_mixed,
    "label-search": label_search,
    "cyclo-roots": cyclo_roots,
    "deep-radicals": deep_radicals,
}

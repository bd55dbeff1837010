"""The integer kernel of ``precision``, on seeded values chosen to reach
every rounding branch: ``cdiv_int`` gives the bits of ``mpc / int``, and the
block fixed-point operations of the forward pass (``_shift``,
``fixed_line``, ``gmul``) each round once to nearest, half to even, against
exact rationals."""

import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp, mpc, mpf
from mpmath.libmp import from_man_exp, mpf_add, mpf_pos

from radicalroots import precision
from radicalroots.polynomial import eval_poly
from radicalroots.precision import (cdiv_int, fixed_line, gmul, ints_mpc,
                                    mpc_ints)

DIGITS = (5, 15, 50, 134, 196, 400, 700)
DIVISORS = (2, 3, 4, 6, 12, 13)


def _real(m: int, e: int) -> mpf:
    """m * 2^e exactly, whatever the working precision."""
    return mp.make_mpf(from_man_exp(m, e))


def _complex(re: mpf, im: mpf) -> mpc:
    """re + i im exactly; the ``mpc`` constructor rounds each part."""
    return mp.make_mpc((re._mpf_, im._mpf_))


def _odd(rng: random.Random, bits: int) -> int:
    """A random odd mantissa of exactly ``bits`` bits."""
    return rng.getrandbits(bits - 1) | (1 << (bits - 1)) | 1


def _part(rng: random.Random) -> mpf:
    """A zero, an all-ones mantissa (it carries when rounded up), or a random
    mantissa of up to prec bits, at a spread of exponents."""
    kind = rng.random()
    bits = rng.randint(1, mp.prec)
    e = rng.randint(-mp.prec - 200, 200)
    sign = rng.choice((1, -1))
    if kind < 0.1:
        return mpf(0)
    if kind < 0.25:
        return _real(sign * ((1 << bits) - 1), e)
    return _real(sign * _odd(rng, bits), e)


def _value(rng: random.Random) -> mpc:
    return mpc(_part(rng), _part(rng))


def _same(got, want: mpc) -> None:
    assert ints_mpc(got)._mpc_ == want._mpc_


def _check_all(x: mpc, y: mpc) -> None:
    prec = mp.prec
    a, b = mpc_ints(x), mpc_ints(y)
    assert ints_mpc(a)._mpc_ == x._mpc_
    assert ints_mpc(b)._mpc_ == y._mpc_
    for n in DIVISORS:
        _same(cdiv_int(a, n, prec), x / n)


@pytest.mark.parametrize("dps", DIGITS)
def test_every_operation_matches_mpc_on_random_values(dps):
    rng = random.Random(dps)
    with mp.workdps(dps):
        for _ in range(60):
            _check_all(_value(rng), _value(rng))


@pytest.mark.parametrize("dps", DIGITS)
def test_zero_parts_and_zero_values(dps):
    rng = random.Random(1000 + dps)
    with mp.workdps(dps):
        zero = mpc(0)
        for _ in range(10):
            v = _value(rng)
            for x in (zero, mpc(v.real, 0), mpc(0, v.imag), v):
                _check_all(x, v)
                _check_all(v, x)
        with pytest.raises(ZeroDivisionError):
            v / 0
        with pytest.raises(ZeroDivisionError):
            cdiv_int(mpc_ints(v), 0, mp.prec)


@pytest.mark.parametrize("dps", DIGITS)
def test_exact_halfway_ties_round_to_even(dps):
    rng = random.Random(2000 + dps)
    with mp.workdps(dps):
        prec = mp.prec
        for _ in range(20):
            # an odd (prec + 1)-bit mantissa over 2 is exactly halfway
            # between two prec-bit values
            m = _odd(rng, prec + 1)
            x = _complex(_real(m, 0), _real(-m, 3))
            _same(cdiv_int(mpc_ints(x), 2, prec), x / 2)
            # (2q + 1) * 2^(s-1) is halfway between q and q + 1 times 2^s
            q, shift = rng.randint(-2 ** prec, 2 ** prec), rng.randint(1, prec)
            even = q + (q & 1)
            assert precision._shift((2 * q + 1) << (shift - 1), shift) == even
            assert fixed_line([(2 * q + 1, -1, -(2 * q + 1), -1)],
                              (2 * q + 1).bit_length() - 1) == \
                ([(even, -even)], 0)


@pytest.mark.parametrize("dps", DIGITS)
def test_exponent_gaps_around_the_sticky_bit_threshold(dps):
    """mpf_add replaces a term whose top bit lies more than prec + 4 places
    below the other's, and whose lowest bit lies over 100 places below, by a
    sticky bit, so ``mpc``'s sum differs from the correctly rounded one when
    the larger term has 2 prec bits, as an exact product has, and the
    smaller one carries through its ones.  The forward pass sums exactly and
    rounds once: ``fixed_line`` of the exact integer sum is the correctly
    rounded sum on every case, and ``mpc``'s differs on some.  The same
    cases give ``cdiv_int`` numerators of up to 2 prec and about 400 bits,
    the long shape that the forward pass divides by p."""
    rng = random.Random(3000 + dps)
    mpc_differs = 0
    with mp.workdps(dps):
        prec = mp.prec
        for case in range(40):
            sign = rng.choice((1, -1))
            if case % 2:
                # prec bits, then a 0 and prec - 1 ones below the round bit
                big_bits = 2 * prec
                big = (_odd(rng, prec) << prec) | ((1 << (prec - 1)) - 1)
                small_sign = sign
            else:
                big_bits = rng.randint(prec - 2, prec + 2)
                big = _odd(rng, big_bits)
                small_sign = rng.choice((1, -1))
            offset = rng.randint(101, 400)
            gap = prec + 4 + rng.choice((-1, 0, 1, 2))
            small = _odd(rng, big_bits + offset - gap)
            e = rng.randint(-300, 300)
            s, t = _real(sign * big, e), _real(small_sign * small, e - offset)
            zero = mpf(0)
            _check_all(_complex(s, t), _complex(t, s))
            _check_all(_complex(t, zero), _complex(s, zero))
            exact = ((sign * big) << offset) + small_sign * small
            rounded = mpf_pos(mpf_add(s._mpf_, t._mpf_), prec, "n")
            [(re, im)], scale = fixed_line([(exact, e - offset, 0, 0)], prec)
            assert im == 0 and re.bit_length() <= prec + 1
            assert ints_mpc((re, scale, 0, 0)).real._mpf_ == rounded
            mpc_differs += rounded != (s + t)._mpf_
    assert mpc_differs > 0


@pytest.mark.parametrize("dps", DIGITS)
def test_rounding_shift_is_round_half_even_for_either_sign(dps):
    """``_shift(m, s)`` is m / 2^s to the nearest integer, ties to even, as
    ``round`` of the exact fraction gives it: exact for s <= 0, for zero,
    and odd in m, on random values, on every tie and on its neighbours."""
    rng = random.Random(6000 + dps)
    prec = mpmath.libmp.dps_to_prec(dps)
    shift = precision._shift
    for s in (-prec, -1, 0, 1, 2, prec - 1, prec, prec + 1, 3 * prec):
        assert shift(0, s) == 0
        for _ in range(20):
            m = rng.choice((1, -1)) * rng.getrandbits(rng.randint(1, 3 * prec))
            assert shift(m, s) == round(Fraction(m) / Fraction(2) ** s)
            assert shift(-m, s) == -shift(m, s)
            if s > 0:
                q = m >> s
                for tie in (((2 * q + 1) << (s - 1)) + d for d in (-1, 0, 1)):
                    assert shift(tie, s) == round(Fraction(tie, 2 ** s))
                    assert shift(-tie, s) == -shift(tie, s)
            else:
                assert shift(m, s) == m * 2 ** -s


def _gaussian(rng: random.Random, bits: int) -> tuple[int, int]:
    """A Gaussian integer with parts of up to ``bits`` bits, a part 0 at
    times."""
    return tuple(0 if rng.random() < 0.1 else
                 rng.choice((1, -1)) * rng.getrandbits(rng.randint(1, bits))
                 for _ in range(2))


@pytest.mark.parametrize("dps", DIGITS)
def test_fixed_point_operations_round_each_part_once(dps):
    """``fixed_line`` rounds each part of a line to the nearest multiple of
    2^E, at the E that leaves the largest part prec bits; ``gmul`` rounds
    each part of the exact product once; ``ints_mpc`` is exact on any
    integer form, its mantissas even or not."""
    rng = random.Random(7000 + dps)
    with mp.workdps(dps):
        prec = mp.prec
        for _ in range(30):
            line = [mpc_ints(_value(rng)) for _ in range(rng.randint(1, 5))]
            fixed, e = fixed_line(line, prec)
            parts = [(m, k) for x in line for m, k in (x[:2], x[2:]) if m]
            top = max((m.bit_length() + k for m, k in parts), default=prec)
            assert e == top - prec
            for x, got in zip(line, fixed):
                assert got == tuple(
                    round(Fraction(m) * Fraction(2) ** (k - e))
                    for m, k in (x[:2], x[2:]))
            assert max(max(abs(a), abs(b)) for a, b in fixed) <= 2 ** prec
            x, y = _gaussian(rng, 2 * prec), _gaussian(rng, prec)
            s = rng.randint(-5, 2 * prec)
            exact = (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])
            assert gmul(x, y, s) == tuple(
                round(Fraction(v) / Fraction(2) ** s) for v in exact)
            k = rng.randint(0, 60)
            v = mpc_ints(_value(rng))
            assert ints_mpc((v[0] << k, v[1] - k, v[2] << k, v[3] - k)
                            )._mpc_ == ints_mpc(v)._mpc_


@pytest.mark.parametrize("dps", DIGITS)
def test_division_by_long_integers(dps):
    """The Newton correction divides by |g'|^2, about 2 prec bits or more:
    divisors of 1 to 3 prec bits, odd and with trailing zeros, and 1."""
    rng = random.Random(5000 + dps)
    with mp.workdps(dps):
        prec = mp.prec
        for _ in range(30):
            x = _value(rng)
            a = mpc_ints(x)
            odd = _odd(rng, rng.randint(1, 3 * prec))
            for n in (1, odd, odd << rng.randint(1, 2 * prec),
                      rng.getrandbits(rng.randint(1, 3 * prec)) or 1):
                _same(cdiv_int(a, n, prec), x / n)


@pytest.mark.parametrize("dps", DIGITS)
def test_eval_poly_matches_the_mpc_loop(dps):
    rng = random.Random(4000 + dps)
    with mp.workdps(dps):
        for _ in range(15):
            coeffs = [rng.choice((0, 0, 1, -1, 2, 12, 10**20,
                                  rng.randint(-10**6, 10**6)))
                      for _ in range(rng.randint(1, 14))]
            z = _value(rng)
            want = 0
            for c in reversed(coeffs):
                want = want * z + c
            assert eval_poly(coeffs, z)._mpc_ == want._mpc_

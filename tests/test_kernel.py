"""The integer kernel of ``precision`` gives the bits of ``mpc``, operation by
operation, on seeded values chosen to reach every rounding branch."""

import random

import pytest
from mpmath import mp, mpc, mpf
from mpmath.libmp import from_man_exp, mpf_add, mpf_pos

from radicalroots.polynomial import eval_poly
from radicalroots.precision import cadd, cdiv_int, cmul, ints_mpc, mpc_ints

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
    _same(cadd(a, b, prec), x + y)
    _same(cmul(a, b, prec), x * y)
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
            # an odd prec-bit mantissa plus or minus one half is exactly
            # halfway between two prec-bit values
            m = _odd(rng, prec)
            x = mpc(_real(m, 0), _real(-m, 3))
            half = mpc(_real(rng.choice((1, -1)), -1),
                       _real(rng.choice((1, -1)), 2))
            _check_all(x, half)
            _check_all(half, x)


@pytest.mark.parametrize("dps", DIGITS)
def test_exponent_gaps_around_the_sticky_bit_threshold(dps):
    """mpf_add replaces a term whose top bit lies more than prec + 4 places
    below the other's, and whose lowest bit lies over 100 places below, by a
    sticky bit.  Exact addition then rounding gives other bits when the
    larger term has 2 prec bits, as an exact product has, and the smaller one
    carries through its ones: the test holds some such cases."""
    rng = random.Random(3000 + dps)
    naive_differs = 0
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
            naive = mpf_pos(mpf_add(s._mpf_, t._mpf_), prec, "n")
            naive_differs += naive != (s + t)._mpf_
    assert naive_differs > 0


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

from types import SimpleNamespace

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import libmp, mp, mpf

from radicalroots import (format_complex, nearest_integer, precision,
                          principal_root, root_of_unity)
from radicalroots.groups import smallest_prime_factor
from radicalroots.resolvent import zeta_tables


def test_format_complex_round_trip_quintic_root():
    with mp.workdps(14):
        z = mp.mpc("-1.3639621650899", "0")
    assert format_complex(z, 14) == "-1.3639621650899"
    assert z.imag == 0


def test_format_complex_zero():
    assert format_complex(mp.mpc(0), 10) == "0.0"


def test_values_carry_no_budget():
    # the precision belongs to the mpmath context, not to the value
    with mp.workdps(50):
        a = mp.mpc(1)
        b = mp.mpc(3)
    with mp.workdps(10):
        got = a / 3 + b
        assert got.real == mpf(1) / 3 + 3
    with mp.workdps(50):
        assert got.real != mpf(1) / 3 + 3


def test_format_complex_sqrt2_20_digits():
    # independent oracle: mpmath square root at elevated precision
    with mp.workdps(20):
        z = mp.mpc("1.41421356237309504880", "0")
    with mp.workdps(40):
        assert abs(z.real - mpmath.sqrt(2)) < mpf(10) ** -20
    assert format_complex(z, 20) == "1.4142135623730950488"


def test_root_of_unity_examples():
    with mp.workdps(14):
        m1 = root_of_unity(2, 1)
        z51 = root_of_unity(5, 1)
        z32 = root_of_unity(3, 2)
    assert m1.real == -1 and m1.imag == 0
    assert format_complex(z51, 14) == "0.30901699437495 + 0.95105651629515i"
    assert format_complex(z32, 14) == "-0.5 - 0.86602540378444i"


def test_root_of_unity_power_zero_exact():
    with mp.workdps(30):
        z = root_of_unity(7, 0)
    assert z.real == 1 and z.imag == 0


def test_root_of_unity_requires_prime():
    with pytest.raises(ValueError):
        root_of_unity(6, 1)
    with pytest.raises(ValueError):
        root_of_unity(5, 5)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_root_of_unity_pth_power_is_one(p):
    digits = 20
    with mp.workdps(digits):
        for k in range(p):
            z = root_of_unity(p, k)
            w = z ** p
            assert abs(w - 1) < mpf(10) ** (2 - digits)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_root_of_unity_conjugate_pairs(p):
    digits = 18
    with mp.workdps(digits):
        for k in range(1, p):
            prod = root_of_unity(p, k) * root_of_unity(p, p - k)
            assert abs(prod - 1) < mpf(10) ** (2 - digits)


def test_principal_root_integer_cube():
    with mp.workdps(16):
        w = principal_root(mp.mpc(8), 3)
        assert abs(w - 2) < mpf(10) ** -14


def test_principal_root_zero():
    w = principal_root(mp.mpc(0), 5)
    assert w == 0


def test_principal_root_negative_real():
    # (18*i*sqrt(3))^2 = -972; the principal square root sits on arg = pi/2
    with mp.workdps(14):
        w = principal_root(mp.mpc(-972), 2)
    assert mpmath.nstr(w.real, 14) in ("0.0", "0")
    assert mpmath.nstr(w.imag, 14) == "31.17691453624"
    with mp.workdps(20):
        assert abs(w.imag - 18 * mpmath.sqrt(3)) < mpf(10) ** -12


def test_principal_root_branch_cut():
    digits = 16
    for re_s, im_s in [("1", "1"), ("-1", "1"), ("-1", "-1"), ("0", "-3"),
                       ("-4", "0"), ("2.5", "-0.1")]:
        for p in (2, 3, 5):
            with mp.workdps(digits):
                z = mp.mpc(re_s, im_s)
                w = principal_root(z, p)
                arg = mpmath.atan2(w.imag, w.real)
                assert -mpmath.pi / p < arg <= mpmath.pi / p + mpf(10) ** -12


@given(re=st.integers(-10**6, 10**6), im=st.integers(-10**6, 10**6),
       scale=st.integers(0, 6), p=st.sampled_from([2, 3, 5, 7]))
@settings(max_examples=60, deadline=None)
def test_principal_root_power_recovers_radicand(re, im, scale, p):
    if re == 0 and im == 0:
        return
    digits = 20
    with mp.workdps(digits):
        z = mp.mpc(f"{re}e-{scale}", f"{im}e-{scale}")
        w = principal_root(z, p)
        back = w ** p
        assert abs(back - z) < mpf(10) ** (3 - digits) * abs(z)


def test_nearest_integer_reference_values():
    with mp.workdps(20):
        n, res = nearest_integer(mp.mpc("-9999999.9999970"))
    assert n == -10000000
    assert abs(res - mpf("3.0e-6")) < mpf("1e-12")

    with mp.workdps(14):
        n, res = nearest_integer(mp.mpc("1.4863999240547e-19"))
    assert n == 0
    assert abs(res - mpf("1.4863999240547e-19")) < mpf("1e-25")

    with mp.workdps(10):
        n, res = nearest_integer(mp.mpc(0))
    assert n == 0 and res == 0


@given(n=st.integers(-10**9, 10**9), eps_num=st.integers(-49999, 49999))
@settings(max_examples=80, deadline=None)
def test_nearest_integer_recovers_offset(n, eps_num):
    digits = 25
    eps = f"{eps_num}e-5"  # in (-0.5, 0.5)
    with mp.workdps(digits):
        z = mp.mpc(str(n)) + mp.mpc(eps)
        got_n, got_res = nearest_integer(z)
        assert got_n == n
        # slack: one ulp of n at 25 digits (|n| <= 1e9)
        assert abs(got_res - abs(mpf(eps))) < mpf(10) ** -15


def reference_nearest_integer(z):
    """mpmath's nint of re(z) and max(|re - n|, |im|), at mp.dps + 8."""
    with mp.workdps(mp.dps + 8):
        n = int(mpmath.nint(z.real))
        return n, max(abs(z.real - n), abs(z.imag))


def nearest_integer_cases():
    """(digits, z): ties k +- 1/2 for even and odd k of both signs, exact
    integers with exponent >= 0, |re| < 1/2, zero and nonzero imaginary
    parts, entries of size 10^600, and mantissas longer than the guarded
    precision (values made at 100-620 digits, rounded at 15-30)."""
    half = mpf(1) / 2
    cases = []
    for digits in (15, 30, 134):
        with mp.workdps(digits):
            reals = [k + s * half for k in range(-4, 5) for s in (-1, 1)]
            reals += [mpf(2) ** 70, -mpf(2) ** 70 * 3, mpf(10) ** 20,
                      mpf(0), mpf("0.3"), mpf("-0.49"), mpf("1e-30"),
                      mpf("-9999999.9999970"), mpf(10) ** 600,
                      -mpf(10) ** 600 - 1, mpf(10) ** 600 / 3]
            imags = [mpf(0), mpf("1e-20"), mpf("-0.3"), mpf(5)]
            cases += [(digits, mp.mpc(re, im)) for re in reals
                      for im in imags]
    for made in (100, 300, 620):
        with mp.workdps(made):
            longs = [mp.mpc(mp.pi * 10 ** 40), mp.mpc(-mp.e),
                     mp.mpc(mpf(10) ** 600 + half),
                     mp.mpc(mpf(10) ** 80 + mpf(1) / 3),
                     mp.mpc(7, mp.pi / 10 ** 20),
                     mp.mpc(mp.pi * 10 ** 40, -mp.e)]
        cases += [(digits, z) for digits in (15, 30) for z in longs]
    return cases


def test_nearest_integer_is_the_bits_of_mpmath_nint():
    for digits, z in nearest_integer_cases():
        with mp.workdps(digits):
            n, residual = nearest_integer(z)
            want_n, want = reference_nearest_integer(z)
        assert (n, residual._mpf_) == (want_n, want._mpf_), (digits, z)


@given(man=st.integers(-2 ** 400, 2 ** 400), exp=st.integers(-500, 100),
       im=st.integers(-2 ** 60, 2 ** 60), im_exp=st.integers(-120, 10),
       digits=st.sampled_from([15, 30, 50, 134]))
@settings(max_examples=300, deadline=None)
def test_nearest_integer_matches_mpmath_on_any_mantissa(man, exp, im, im_exp,
                                                       digits):
    # exact values, so a mantissa may be longer than the guarded precision
    z = mp.make_mpc((libmp.from_man_exp(man, exp),
                     libmp.from_man_exp(im, im_exp)))
    with mp.workdps(digits):
        n, residual = nearest_integer(z)
        want_n, want = reference_nearest_integer(z)
    assert (n, residual._mpf_) == (want_n, want._mpf_)


TWIDDLE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)


def reference_root_of_unity(p, k):
    """mpc(cospi(2k/p), sinpi(2k/p)), each computed at mp.dps + 8."""
    with mp.workdps(mp.dps + 8):
        t = mpf(2 * k) / p
        re, im = mpmath.cospi(t), mpmath.sinpi(t)
    return mp.mpc(re, im)


@pytest.mark.parametrize("digits", [15, 50, 134, 196, 472, 738])
def test_twiddles_are_the_bits_of_cospi_and_sinpi(digits):
    with mp.workdps(digits):
        tables = zeta_tables(SimpleNamespace(primes=TWIDDLE_PRIMES))
        for p in TWIDDLE_PRIMES:
            want = [reference_root_of_unity(p, k)._mpc_ for k in range(p)]
            assert [z._mpc_ for z in tables[p]] == want
            assert [root_of_unity(p, k)._mpc_ for k in range(p)] == want


def test_zeta_tables_make_one_cos_sin_call_per_conjugate_pair(monkeypatch):
    calls = []
    cos_sin = precision.mpf_cos_sin_pi

    def counted(t, prec, rnd):
        calls.append(t)
        return cos_sin(t, prec, rnd)

    monkeypatch.setattr(precision, "mpf_cos_sin_pi", counted)
    for p in TWIDDLE_PRIMES:
        calls.clear()
        with mp.workdps(30):
            zeta_tables(SimpleNamespace(primes=(p, p)))
        assert len(calls) == p // 2 + 1


def test_is_prime_small():
    assert [k for k in range(2, 20) if smallest_prime_factor(k) == k] == \
        [2, 3, 5, 7, 11, 13, 17, 19]

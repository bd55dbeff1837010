import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from radicalroots import (format_complex, nearest_integer, principal_root,
                          root_of_unity)
from radicalroots.groups import smallest_prime_factor


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
    m1 = root_of_unity(2, 1, 14)
    assert m1.real == -1 and m1.imag == 0

    z51 = root_of_unity(5, 1, 14)
    assert format_complex(z51, 14) == "0.30901699437495 + 0.95105651629515i"

    z32 = root_of_unity(3, 2, 14)
    assert format_complex(z32, 14) == "-0.5 - 0.86602540378444i"


def test_root_of_unity_power_zero_exact():
    z = root_of_unity(7, 0, 30)
    assert z.real == 1 and z.imag == 0


def test_root_of_unity_requires_prime():
    with pytest.raises(ValueError):
        root_of_unity(6, 1, 10)
    with pytest.raises(ValueError):
        root_of_unity(5, 5, 10)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_root_of_unity_pth_power_is_one(p):
    digits = 20
    with mp.workdps(digits):
        for k in range(p):
            z = root_of_unity(p, k, digits)
            w = z ** p
            assert abs(w - 1) < mpf(10) ** (2 - digits)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_root_of_unity_conjugate_pairs(p):
    digits = 18
    with mp.workdps(digits):
        for k in range(1, p):
            prod = root_of_unity(p, k, digits) * root_of_unity(p, p - k, digits)
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


def test_is_prime_small():
    assert [k for k in range(2, 20) if smallest_prime_factor(k) == k] == \
        [2, 3, 5, 7, 11, 13, 17, 19]

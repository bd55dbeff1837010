from dataclasses import fields

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from radicalroots import make_complex, nearest_integer, principal_root, root_of_unity
from radicalroots.precision import ArbitraryComplex, is_prime


def test_make_complex_round_trip_quintic_root():
    z = make_complex("-1.3639621650899", "0", 14)
    assert z.re_string(14) == "-1.3639621650899"
    assert z.im == 0


def test_make_complex_zero():
    z = make_complex("0", "0", 10)
    assert z.is_zero()


def test_values_carry_no_budget():
    # the precision belongs to the mpmath context, not to the value
    assert [f.name for f in fields(ArbitraryComplex)] == ["re", "im"]
    a = make_complex("1", "0", 50)
    b = make_complex("3", "0", 50)
    with mp.workdps(10):
        got = a.divided_by_int(3) + b
        assert got.re == mpf(1) / 3 + 3
    with mp.workdps(50):
        assert got.re != mpf(1) / 3 + 3


def test_make_complex_sqrt2_20_digits():
    # independent oracle: mpmath square root at elevated precision
    z = make_complex("1.41421356237309504880", "0", 20)
    with mp.workdps(40):
        assert abs(z.re - mpmath.sqrt(2)) < mpf(10) ** -20


def test_make_complex_rejects_garbage():
    with pytest.raises(ValueError):
        make_complex("not-a-number", "0", 10)
    with pytest.raises(ValueError):
        make_complex("1.0", "0", 0)


def test_root_of_unity_examples():
    m1 = root_of_unity(2, 1, 14)
    assert m1.re == -1 and m1.im == 0

    z51 = root_of_unity(5, 1, 14)
    assert z51.re_string(14) == "0.30901699437495"
    assert z51.im_string(14) == "0.95105651629515"

    z32 = root_of_unity(3, 2, 14)
    assert z32.re_string(14) == "-0.5"
    assert z32.im_string(14) == "-0.86602540378444"


def test_root_of_unity_power_zero_exact():
    z = root_of_unity(7, 0, 30)
    assert z.re == 1 and z.im == 0


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
            w = z.power_int(p)
            one = ArbitraryComplex.from_int(1)
            assert w.distance(one) < mpf(10) ** (2 - digits)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_root_of_unity_conjugate_pairs(p):
    digits = 18
    with mp.workdps(digits):
        one = ArbitraryComplex.from_int(1)
        for k in range(1, p):
            prod = root_of_unity(p, k, digits) * root_of_unity(p, p - k, digits)
            assert prod.distance(one) < mpf(10) ** (2 - digits)


def test_principal_root_integer_cube():
    with mp.workdps(16):
        w = principal_root(make_complex("8", "0", 16), 3)
        assert w.distance(make_complex("2", "0", 16)) < mpf(10) ** -14


def test_principal_root_zero():
    w = principal_root(make_complex("0", "0", 12), 5)
    assert w.is_zero()


def test_principal_root_negative_real():
    # (18*i*sqrt(3))^2 = -972; the principal square root sits on arg = pi/2
    with mp.workdps(14):
        w = principal_root(make_complex("-972", "0", 14), 2)
    assert w.re_string(14) in ("0.0", "0")
    assert w.im_string(14) == "31.17691453624"
    with mp.workdps(20):
        assert abs(w.im - 18 * mpmath.sqrt(3)) < mpf(10) ** -12


def test_principal_root_branch_cut():
    digits = 16
    for re_s, im_s in [("1", "1"), ("-1", "1"), ("-1", "-1"), ("0", "-3"),
                       ("-4", "0"), ("2.5", "-0.1")]:
        for p in (2, 3, 5):
            z = make_complex(re_s, im_s, digits)
            with mp.workdps(digits):
                w = principal_root(z, p)
                arg = mpmath.atan2(w.im, w.re)
                assert -mpmath.pi / p < arg <= mpmath.pi / p + mpf(10) ** -12


@given(re=st.integers(-10**6, 10**6), im=st.integers(-10**6, 10**6),
       scale=st.integers(0, 6), p=st.sampled_from([2, 3, 5, 7]))
@settings(max_examples=60, deadline=None)
def test_principal_root_power_recovers_radicand(re, im, scale, p):
    if re == 0 and im == 0:
        return
    digits = 20
    z = make_complex(f"{re}e-{scale}", f"{im}e-{scale}", digits)
    with mp.workdps(digits):
        w = principal_root(z, p)
        back = w.power_int(p)
        assert back.distance(z) < mpf(10) ** (3 - digits) * z.magnitude()


def test_nearest_integer_reference_values():
    with mp.workdps(20):
        n, res = nearest_integer(make_complex("-9999999.9999970", "0", 20))
    assert n == -10000000
    assert abs(res - mpf("3.0e-6")) < mpf("1e-12")

    with mp.workdps(14):
        n, res = nearest_integer(make_complex("1.4863999240547e-19", "0", 14))
    assert n == 0
    assert abs(res - mpf("1.4863999240547e-19")) < mpf("1e-25")

    with mp.workdps(10):
        n, res = nearest_integer(make_complex("0", "0", 10))
    assert n == 0 and res == 0


@given(n=st.integers(-10**9, 10**9), eps_num=st.integers(-49999, 49999))
@settings(max_examples=80, deadline=None)
def test_nearest_integer_recovers_offset(n, eps_num):
    digits = 25
    eps = f"{eps_num}e-5"  # in (-0.5, 0.5)
    with mp.workdps(digits):
        z = make_complex(str(n), "0", digits) + make_complex(eps, "0", digits)
        got_n, got_res = nearest_integer(z)
        assert got_n == n
        # slack: one ulp of n at 25 digits (|n| <= 1e9)
        assert abs(got_res - abs(mpf(eps))) < mpf(10) ** -15


def test_is_prime_small():
    assert [k for k in range(2, 20) if is_prime(k)] == [2, 3, 5, 7, 11, 13, 17, 19]

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from radicalroots import (InputSyntaxError, IntPolynomial, eval_poly,
                          parse_polynomial, render_polynomial, sanity_check,
                          to_monic)


def test_parse_quintic():
    assert parse_polynomial("x^5+20x+32").coeffs == (32, 20, 0, 0, 0, 1)


def test_parse_bare_x():
    assert parse_polynomial("x").coeffs == (0, 1)


def test_parse_rational_clearing():
    assert parse_polynomial("x^2 - 1/2").coeffs == (-1, 0, 2)


def test_parse_assorted_forms():
    assert parse_polynomial("-x^2 + 3").coeffs == (3, 0, -1)
    assert parse_polynomial("2*x^3 - x").coeffs == (0, -1, 0, 2)
    assert parse_polynomial("1/2x^2+1/3x").coeffs == (0, 2, 3)
    assert parse_polynomial("x + x").coeffs == (0, 2)


@pytest.mark.parametrize("bad", ["", "5", "x - x", "x^^2", "y^2", "x^2 + 1/0x",
                                 "3x^2 * 4"])
def test_parse_errors(bad):
    with pytest.raises(InputSyntaxError):
        parse_polynomial(bad)


@given(coeffs=st.lists(st.integers(-999, 999), min_size=2, max_size=8))
@settings(max_examples=100, deadline=None)
def test_parse_render_idempotent(coeffs):
    if coeffs[-1] == 0:
        coeffs[-1] = 1
    p = IntPolynomial(tuple(coeffs))
    once = parse_polynomial(render_polynomial(p))
    twice = parse_polynomial(render_polynomial(once))
    assert once == twice == p


def test_to_monic_examples():
    p = parse_polynomial("x^5+20x+32")
    red = to_monic(p)
    assert red.monic == p and red.scale == 1

    red = to_monic(parse_polynomial("2x^2-1"))
    assert red.monic.coeffs == (-2, 0, 1)  # y^2 - 2
    assert red.scale == 2

    red = to_monic(parse_polynomial("3x^3+1"))
    assert red.monic.coeffs == (9, 0, 0, 1)  # y^3 + 9
    assert red.scale == 3


def test_monic_roots_correspondence():
    # z is a root of p exactly when scale*z is a root of the monic reduction
    p = parse_polynomial("2x^2-1")
    red = to_monic(p)
    with mp.workdps(30):
        z_str = mpmath.nstr(mpmath.sqrt(mpf(1) / 2), 25)
    with mp.workdps(25):
        z = mp.mpc(z_str)
        assert abs(eval_poly(p.coeffs, z)) < mpf(10) ** -22
        scaled = z * red.scale
        tau = mpf(10) ** -22
        assert abs(eval_poly(red.monic.coeffs, scaled)) < \
            tau * red.scale ** p.degree


def test_eval_poly_trivial():
    p = parse_polynomial("x^2-2")
    with mp.workdps(12):
        v = eval_poly(p.coeffs, mp.mpc(0))
    assert v.real == -2 and v.imag == 0


def test_eval_poly_paper_root_residual():
    # the 13-decimal approximation satisfies the quintic to ~1.5e-12
    p = parse_polynomial("x^5+20x+32")
    with mp.workdps(30):
        z = mp.mpc("-1.3639621650899")
        mag = abs(eval_poly(p.coeffs, z))
    assert mag < mpf("2e-12")


def test_eval_poly_cube_root():
    digits = 24
    with mp.workdps(digits + 10):
        c = mpmath.nstr(mpmath.cbrt(2), digits + 2)
    p = parse_polynomial("x^3-2")
    with mp.workdps(digits):
        z = mp.mpc(c)
        assert abs(eval_poly(p.coeffs, z)) < mpf(10) ** (3 - digits)


def _dense_horner(coeffs, z):
    """Horner's rule with every addition, zero coefficients included."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


# sparse coefficient lists: mostly zeros, as in x^n - a
_SPARSE = st.lists(st.one_of(st.just(0), st.integers(-10**6, 10**6)),
                   min_size=1, max_size=14)
_PART = st.fractions(min_value=-4, max_value=4, max_denominator=10**9)


@given(coeffs=_SPARSE, re=_PART, im=_PART,
       dps=st.sampled_from([15, 20, 32, 60, 134, 200]))
@settings(max_examples=200, deadline=None)
def test_eval_poly_matches_dense_horner_at_mpc_points_bit_for_bit(
        coeffs, re, im, dps):
    with mp.workdps(dps):
        z = mp.mpc(mpf(re.numerator) / re.denominator,
                   mpf(im.numerator) / im.denominator)
        assert eval_poly(coeffs, z)._mpc_ == _dense_horner(coeffs, z)._mpc_


@given(coeffs=_SPARSE, z=st.integers(-50, 50))
@settings(max_examples=200, deadline=None)
def test_eval_poly_matches_dense_horner_exactly_at_integer_points(coeffs, z):
    assert eval_poly(coeffs, z) == _dense_horner(coeffs, z)


@given(coeffs=_SPARSE, re=st.floats(-4, 4), im=st.floats(-4, 4))
@settings(max_examples=200, deadline=None)
def test_eval_poly_matches_dense_horner_at_hardware_points(coeffs, re, im):
    # == and not the bits: adding an integer 0 turns a -0.0 part into +0.0,
    # so the sign of a zero part is all that may differ
    z = complex(re, im)
    assert eval_poly(coeffs, z) == _dense_horner(coeffs, z)


def test_sanity_check_clean():
    rep = sanity_check(parse_polynomial("x^2-2"))
    assert rep.square_free and rep.integer_roots == () and rep.clean


def test_sanity_check_integer_roots():
    rep = sanity_check(parse_polynomial("x^2-1"))
    assert rep.integer_roots == (-1, 1)
    assert not rep.clean


def test_sanity_check_not_square_free():
    rep = sanity_check(parse_polynomial("x^4-4x^2+4"))  # (x^2-2)^2
    assert not rep.square_free


def test_sanity_check_requires_monic():
    with pytest.raises(ValueError):
        sanity_check(parse_polynomial("2x^2-1"))

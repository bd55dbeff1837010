import mpmath
import pytest
from mpmath import mp, mpf

from radicalroots import (NonConvergence, closure, composition_series,
                          find_roots, parse_cycles, parse_polynomial,
                          plan_precision, root_magnitude_bound)
from radicalroots import rootfinder
from radicalroots.rootfinder import aberth_stage, polish_roots
from tests.conftest import QUINTIC_ROOT_STRINGS
from tests.test_properties import INSTANCES


def test_quintic_matches_13_decimals(quintic, quintic_roots_14):
    rs = quintic_roots_14
    assert rs.n == 5
    # canonical order is by angle; match each root to its 13-decimal value
    for re_s, im_s in QUINTIC_ROOT_STRINGS:
        with mp.workdps(20):
            target = mp.mpc(re_s, im_s)
        best = min(rs.roots, key=lambda z: float(abs(z - target)))
        assert abs(best - target) < mpf("0.5e-13") * 2  # one ulp per part


def test_sqrt2_roots():
    rs = find_roots(parse_polynomial("x^2-2"), 14)
    values = sorted(mpmath.nstr(z.real, rs.digits) for z in rs.roots)
    assert values == ["-1.4142135623731", "1.4142135623731"]


def test_degree_one():
    rs = find_roots(parse_polynomial("x"), 10)
    assert rs.n == 1 and rs.roots[0] == 0
    assert rs.residuals[0] == 0


def test_residual_contract(quintic):
    for digits in (14, 30, 60):
        rs = find_roots(quintic, digits)
        bound = max(mpf(1), max(abs(z) for z in rs.roots)) ** quintic.degree
        cap = mpf(10) ** (2 - digits) * bound
        assert max(rs.residuals) < cap


def test_separation_invariant(quintic_roots_14):
    rs = quintic_roots_14
    sep = mpf(10) ** (-mpf(rs.digits) / 2)
    for i in range(rs.n):
        for j in range(i + 1, rs.n):
            assert abs(rs.roots[i] - rs.roots[j]) > sep


def test_doubling_digits_stability(quintic):
    a = find_roots(quintic, 20)
    b = find_roots(quintic, 40)
    for za in a.roots:
        zb = min(b.roots, key=lambda z: float(abs(z - za)))
        assert abs(za - zb) < mpf(10) ** (-20 + 2)


def test_symmetric_function_consistency(quintic):
    rs = find_roots(quintic, 25)
    digits = rs.digits
    n = quintic.degree
    total = rs.roots[0]
    prod = rs.roots[0]
    with mp.workdps(digits):
        for z in rs.roots[1:]:
            total = total + z
            prod = prod * z
        bound = max(mpf(1), max(abs(z) for z in rs.roots))
        tol = mpf(10) ** (3 - digits) * n * bound ** n
        # sum = -a_{n-1}, product = (-1)^n * a_0
        assert abs(total) < tol
        expected = (-1) ** n * quintic.coeffs[0]
        assert abs(prod - expected) < tol


def test_determinism(quintic):
    a = find_roots(quintic, 17)
    b = find_roots(quintic, 17)
    assert all(x.real == y.real and x.imag == y.imag
               for x, y in zip(a.roots, b.roots))


def test_one_aberth_run_polishes_to_every_budget(quintic):
    start = aberth_stage(quintic)
    for digits in (14, 40):
        assert polish_roots(quintic, start, digits) == find_roots(quintic, digits)


def test_requires_monic():
    with pytest.raises(ValueError):
        find_roots(parse_polynomial("2x^2-1"), 10)


def test_non_convergence_on_double_root(monkeypatch):
    monkeypatch.setattr(rootfinder, "_MAX_ABERTH_ITERS", 60)
    with pytest.raises(NonConvergence):
        find_roots(parse_polynomial("x^2+2x+1"), 20)


def test_root_magnitude_bound_quintic(quintic_roots_14):
    assert root_magnitude_bound(quintic_roots_14.roots) == 2.4


def test_root_magnitude_bound_sqrt2():
    rs = find_roots(parse_polynomial("x^2-2"), 14)
    assert root_magnitude_bound(rs.roots) == 1.5


def test_root_magnitude_bound_floor_at_one():
    rs = find_roots(parse_polynomial("x"), 10)
    assert root_magnitude_bound(rs.roots) == 1.0


def test_large_roots_converge():
    # a root near 1.26e8 cannot take an Aberth step below 10^-26 at 32
    # digits; the stop test is relative to max(1, |z|)
    rs = find_roots(parse_polynomial("x^3-2000000000000000000000000"), 20)
    with mp.workdps(30):
        real_root = mpmath.cbrt(2 * mpf(10) ** 24)
    assert min(abs(z - real_root) for z in rs.roots) < real_root * mpf(10) ** -18


def test_large_constant_term_converges():
    # Aberth starts on Fujiwara's bound 2*10^80, next to the roots; a start
    # radius of 1 + max|c_k| = 10^240 ran out of sweeps
    rs = find_roots(parse_polynomial(f"x^3-{10 ** 240}"), 20)
    with mp.workdps(30):
        real_root = mpf(10) ** 80
    assert min(abs(z - real_root) for z in rs.roots) < real_root * mpf(10) ** -18


def _mpmath_only(monkeypatch):
    """Make the hardware sweeps raise OverflowError, so that aberth_stage
    runs its mpc sweeps from the original guesses."""
    sweeps = rootfinder._sweeps
    refused = []

    def no_hardware(coeffs, deriv, z, radius, digits):
        if isinstance(radius, float):
            refused.append(digits)
            raise OverflowError("hardware sweeps refused")
        return sweeps(coeffs, deriv, z, radius, digits)
    monkeypatch.setattr(rootfinder, "_sweeps", no_hardware)
    return refused


def _cycle(labels):
    return "(" + ",".join(map(str, labels)) + ")"


HARDWARE_CASES = [(name, poly, gens) for name, poly, gens, _ in INSTANCES] + [
    ("C16 Phi17", "+".join(f"x^{k}" for k in range(16, 0, -1)) + "+1",
     _cycle(range(1, 17))),
    ("F156 x^13-2", "x^13-2", _cycle(range(1, 14)) + ";"
     + _cycle(pow(2, j, 13) + 1 for j in range(12))),
]


@pytest.mark.parametrize("poly_text,gens_text",
                         [c[1:] for c in HARDWARE_CASES],
                         ids=[c[0] for c in HARDWARE_CASES])
def test_hardware_sweeps_change_no_root(monkeypatch, poly_text, gens_text):
    p = parse_polynomial(poly_text)
    gens = [parse_cycles(t, p.degree) for t in gens_text.split(";")]
    series = composition_series(closure(gens))
    start = aberth_stage(p)
    budget = plan_precision(series, root_magnitude_bound(start), 6).digits
    both = [polish_roots(p, start, d) for d in (budget, 32)]
    refused = _mpmath_only(monkeypatch)
    start = aberth_stage(p)
    assert refused
    assert [polish_roots(p, start, d) for d in (budget, 32)] == both


def _outcome(p, digits):
    try:
        return find_roots(p, digits)
    except NonConvergence as exc:
        return str(exc)


@pytest.mark.parametrize("poly_text,max_iters,converges", [
    ("x^5+20x+32", 3, False),
    ("x^2+2x+1", 60, False),
    (f"x^3-{2 * 10 ** 308}", None, True),
    (f"x^2+{10 ** 309}x+1", None, True),
], ids=["stall", "double-root", "beyond-float-cubic", "beyond-float-quadratic"])
def test_hardware_sweeps_change_no_outcome(monkeypatch, poly_text, max_iters,
                                           converges):
    if max_iters is not None:
        monkeypatch.setattr(rootfinder, "_MAX_ABERTH_ITERS", max_iters)
    p = parse_polynomial(poly_text)
    outcome = _outcome(p, 20)
    assert isinstance(outcome, rootfinder.RootSet) == converges
    _mpmath_only(monkeypatch)
    assert _outcome(p, 20) == outcome

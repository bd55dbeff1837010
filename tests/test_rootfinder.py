import math
import random

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf

from radicalroots import (IntPolynomial, NonConvergence, closure,
                          composition_series, eval_poly, find_roots,
                          parse_cycles, parse_polynomial, plan_precision,
                          root_magnitude_bound, root_residuals, sanity_check,
                          solve, to_monic)
from radicalroots import rootfinder
from radicalroots.rootfinder import aberth_stage, polish_roots
from tests.conftest import QUINTIC_ROOT_STRINGS, load_perfbench
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
    p = parse_polynomial("x")
    rs = find_roots(p, 10)
    assert rs.n == 1 and rs.roots[0] == 0
    assert root_residuals(p, rs)[0] == 0


def test_residual_contract(quintic):
    for digits in (14, 30, 60):
        rs = find_roots(quintic, digits)
        bound = max(mpf(1), max(abs(z) for z in rs.roots)) ** quintic.degree
        cap = mpf(10) ** (2 - digits) * bound
        assert max(root_residuals(quintic, rs)) < cap


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


def test_non_convergence_residuals_at_32_digits(monkeypatch):
    # three sweeps stall at both precisions, so aberth_stage itself raises
    monkeypatch.setattr(rootfinder, "_MAX_ABERTH_ITERS", 3)
    sweeps = rootfinder._sweeps
    iterates = []

    def record(coeffs, deriv, z, radius, digits):
        iterates[:] = [z]
        return sweeps(coeffs, deriv, z, radius, digits)
    monkeypatch.setattr(rootfinder, "_sweeps", record)
    p = parse_polynomial("x^2+2x+1")
    with pytest.raises(NonConvergence) as info:
        aberth_stage(p)
    with mp.workdps(32):
        expected = [abs(eval_poly(p.coeffs, zi)) for zi in iterates[0]]
    assert list(info.value.residuals) == expected


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
    budget = plan_precision(series, root_magnitude_bound(start.roots)).digits
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


# Mignotte-type polynomials x^n - 2(a x - 1)^2: a pair of roots near 1/a,
# about 1.4e-9, 4.5e-17 and 4.5e-4 apart, that the alpha-test refuses
MIGNOTTE = ["x^7-20000x^2+400x-2", "x^9-2000000x^2+4000x-2", "x^5-200x^2+40x-2"]


def _certificates(monkeypatch):
    """Record (hardware roots, result) of every alpha-test aberth_stage runs."""
    certify = rootfinder._certified_step
    calls = []

    def record(coeffs, z):
        result = certify(coeffs, z)
        calls.append((list(z), result))
        return result
    monkeypatch.setattr(rootfinder, "_certified_step", record)
    return calls


@pytest.mark.parametrize("poly_text", MIGNOTTE)
def test_close_roots_fall_back_to_mpc_sweeps(monkeypatch, poly_text):
    p = parse_polynomial(poly_text)
    calls = _certificates(monkeypatch)
    outcomes = [_outcome(p, d) for d in (20, 30, 60)]
    assert len(calls) == 3 and all(result is None for _, result in calls)
    _mpmath_only(monkeypatch)
    assert [_outcome(p, d) for d in (20, 30, 60)] == outcomes


@pytest.mark.parametrize("poly_text", [c[1] for c in HARDWARE_CASES],
                         ids=[c[0] for c in HARDWARE_CASES])
def test_certified_roots_skip_mpc_sweeps(monkeypatch, poly_text):
    sweeps = rootfinder._sweeps
    mpc_runs = []

    def count(coeffs, deriv, z, radius, digits):
        if not isinstance(radius, float):
            mpc_runs.append(digits)
        return sweeps(coeffs, deriv, z, radius, digits)
    monkeypatch.setattr(rootfinder, "_sweeps", count)
    aberth_stage(parse_polynomial(poly_text))
    assert mpc_runs == []


def _gamma(coeffs, z):
    """Smale's gamma of the polynomial at z, from the binomial form of its
    Taylor coefficients, at the current precision."""
    z = mpc(z)
    taylor = [sum(math.comb(i, k) * a * z ** (i - k)
                  for i, a in enumerate(coeffs) if i >= k)
              for k in range(len(coeffs))]
    return max((abs(taylor[k] / taylor[1]) ** (mpf(1) / (k - 1))
                for k in range(2, len(taylor))), default=mpf(0))


@pytest.mark.parametrize("poly_text", [c[1] for c in HARDWARE_CASES] + MIGNOTTE,
                         ids=[c[0] for c in HARDWARE_CASES] + MIGNOTTE)
def test_gamma_bound_is_an_upper_bound(monkeypatch, poly_text):
    p = parse_polynomial(poly_text)
    calls = _certificates(monkeypatch)
    aberth_stage(p)
    (hardware, _), = calls
    for z in hardware:
        with mp.workdps(rootfinder._BASE_DPS):
            beta, alpha, _, _ = rootfinder._alpha_data(p.coeffs, z)
        with mp.workdps(64):
            assert alpha >= beta * _gamma(p.coeffs, z)


@pytest.mark.parametrize("poly_text", [c[1] for c in HARDWARE_CASES],
                         ids=[c[0] for c in HARDWARE_CASES])
def test_certified_step_is_the_newton_step(monkeypatch, poly_text):
    # the correction from the alpha-test's fixed-point f and f' moves each
    # hardware root to within 10^-32 * max(1, |z|) of the exact Newton step
    p = parse_polynomial(poly_text)
    calls = _certificates(monkeypatch)
    aberth_stage(p)
    (hardware, steps), = calls
    deriv = p.derivative_coeffs()
    with mp.workdps(3 * rootfinder._BASE_DPS):
        for x, step in zip(hardware, steps.roots):
            exact = x - eval_poly(p.coeffs, x) / eval_poly(deriv, x)
            assert abs(step - exact) <= mpf(10) ** -32 * max(1, abs(x))


def _padded_horner(coeffs, x):
    """The reference for ``_scaled_horner``: y zero-padded to units of 2^-P
    and every product shifted right by P."""
    def fixed(m, k):
        return m << k if k >= 0 else m >> -k
    n = len(coeffs) - 1
    (rs, rm, re, _), (js, jm, je, _) = x._mpc_
    xr, xi = -rm if rs else rm, -jm if js else jm
    e = 1 + max((m.bit_length() + k for m, k in ((xr, re), (xi, je)) if m),
                default=-1)
    s = max(c.bit_length() + e * i for i, c in enumerate(coeffs) if c)
    prec = mp.prec + 2 * n + 20
    yr, yi = fixed(xr, re - e + prec), fixed(xi, je - e + prec)
    b = [fixed(c, e * i - s + prec) for i, c in enumerate(coeffs)]
    gr, gi, dr, di = b[n], 0, 0, 0
    for c in reversed(b[:-1]):
        dr, di = (((dr * yr - di * yi) >> prec) + gr,
                  ((dr * yi + di * yr) >> prec) + gi)
        gr, gi = ((gr * yr - gi * yi) >> prec) + c, (gr * yi + gi * yr) >> prec
    return e, prec, b, (yr, yi), (gr, gi, dr, di)


def _random_point(rng, dps):
    """x = 0, a zero part, an imaginary part 10^-dps to 10^-3dps below the
    real one, or two parts of short or full mantissas at up to 2^+-300."""
    def part(bits):
        m = rng.getrandbits(bits) * rng.choice((1, -1))
        return mpf((m, rng.randint(-300, 300)))
    bits = rng.choice((1, 8, 53, mp.prec))
    kind = rng.randrange(5)
    if kind == 0:
        return mpc(0)
    re = part(bits)
    if kind == 1:
        return mpc(re, 0) if rng.random() < 0.5 else mpc(0, re)
    if kind == 2:
        scale = mpf(10) ** -rng.randint(dps, 3 * dps)
        return mpc(re, re * scale * rng.choice((1, -1)))
    return mpc(re, part(rng.choice((1, 8, 53, mp.prec))))


@pytest.mark.parametrize("dps", [10, 32, 60, 200])
def test_short_mantissa_loop_is_the_padded_loop(dps):
    rng = random.Random(dps)
    with mp.workdps(dps):
        for _ in range(250):
            coeffs = [rng.choice((0, 0, 1, -1, 3, 10**20,
                                  rng.randint(-10**6, 10**6)))
                      for _ in range(rng.randint(1, 12))] + [1]
            x = _random_point(rng, dps)
            assert rootfinder._scaled_horner(coeffs, x) == _padded_horner(
                coeffs, x)


@pytest.mark.parametrize("dps", [64, 200])
@pytest.mark.parametrize("poly_text", ["x^2-32", "x^3-2", "x^3-21x-35",
                                       "x^6+x^5-5x^4-4x^3+6x^2+3x-1",
                                       "x^5+20x+32"])
def test_ladder_steps_are_newton_steps(poly_text, dps):
    # a rung takes one step by the alpha-test's f/f' from each root: the
    # exact Newton step from the 32-digit start, to the rung's digits
    p = parse_polynomial(poly_text)
    start = aberth_stage(p).roots
    rung = rootfinder._newton_polish(p, start, dps).roots
    deriv = p.derivative_coeffs()
    with mp.workdps(2 * dps + 20):
        for x, z in zip(start, rung):
            exact = x - eval_poly(p.coeffs, x) / eval_poly(deriv, x)
            assert abs(z - exact) <= mpf(10) ** -(dps + 5) * max(1, abs(exact))


def _three_step_rung(p, roots, dps):
    """A rung of the ladder that always takes three steps per root, each by
    the alpha-test's f/f', stopping only where there is none, with the
    radius of the last step."""
    out = []
    with mp.workdps(dps + 10):
        for x in roots:
            for _ in range(3):
                x, radius = rootfinder._newton_step(x, _ALPHA_DATA(p.coeffs, x))
            out.append((x, radius))
    return rootfinder.Iterates(*zip(*out))


_ALPHA_DATA = rootfinder._alpha_data


@pytest.mark.parametrize("poly_text", ["x^2-32", "x^3-2", "x^3-21x-35",
                                       "x^6+x^5-5x^4-4x^3+6x^2+3x-1",
                                       "x^5+20x+32", "x^11-2"])
def test_ladder_stops_a_root_once_its_step_is_converged(monkeypatch,
                                                        poly_text):
    # to 200 digits the ladder climbs 64, 128 and 208 digits; quadratic
    # convergence doubles a root's digits with each step, so a root takes
    # one step per rung, 3 evaluations instead of 9; the returned roots have
    # the bytes of three steps per rung
    p = parse_polynomial(poly_text)
    start = aberth_stage(p)
    roots = polish_roots(p, start, 200).roots
    calls = []

    def counting(coeffs, x):
        calls.append(x)
        return _ALPHA_DATA(coeffs, x)

    with monkeypatch.context() as patch:
        patch.setattr(rootfinder, "_alpha_data", counting)
        for x in start.roots:
            calls.clear()
            raw = [x]
            for dps in (64, 128, 208):
                raw = rootfinder._newton_polish(p, raw, dps).roots
            assert len(calls) == 3
    monkeypatch.setattr(rootfinder, "_newton_polish", _three_step_rung)
    reference = polish_roots(p, start, 200).roots
    assert [z._mpc_ for z in roots] == [z._mpc_ for z in reference]


@pytest.mark.parametrize("poly_text,digits", [
    ("x^13-2", 200), ("x^5+20x+32", 400), ("x^7-20000x^2+400x-2", 60),
    (f"x^3-{2 * 10 ** 308}", 20), (f"x^2+{10 ** 309}x+1", 20),
    (f"x^3-{10 ** 1200}", 30)],
    ids=["F156", "quintic", "mignotte", "beyond-float-cubic",
         "beyond-float-quadratic", "roots-beyond-float"])
def test_alpha_bounds_hold_at_the_returned_roots(poly_text, digits):
    # the certificate scales the polynomial by powers of two and evaluates it
    # in fixed point; its beta and alpha must still bound the exact values
    # at the rounded roots, also where coefficients or roots pass 1.8e308
    p = parse_polynomial(poly_text)
    deriv = p.derivative_coeffs()
    for x in find_roots(p, digits).roots:
        with mp.workdps(digits + 10):
            beta, alpha, _, _ = rootfinder._alpha_data(p.coeffs, x)
        assert alpha < rootfinder._ALPHA_MAX
        with mp.workdps(3 * digits + 40):
            assert beta >= abs(eval_poly(p.coeffs, x) / eval_poly(deriv, x))
            assert alpha >= beta * _gamma(p.coeffs, x)


def _certificates_of_polish(monkeypatch):
    """Record (iterates, rounded roots, radii) of every certificate that
    ``polish_roots`` grants."""
    certify = rootfinder._certify
    granted = []

    def record(it, raw, digits):
        result = certify(it, raw, digits)
        if result is not None:
            granted.append((it, *result))
        return result
    monkeypatch.setattr(rootfinder, "_certify", record)
    return granted


def _nearest(points, zeros):
    """Index of the zero nearest each point, one zero per point."""
    nearest = [min(range(len(zeros)), key=lambda j: abs(z - zeros[j]))
               for z in points]
    assert sorted(nearest) == list(range(len(zeros)))
    return nearest


def _workload_polynomials():
    """The monic reductions of the benchmark's polynomials."""
    workloads = load_perfbench("workloads")
    texts = {inst.poly for make in workloads.WORKLOADS.values()
             for inst in make(workloads.DEFAULT_SEED)}
    return [to_monic(parse_polynomial(t)).monic
            for t in sorted(texts, key=lambda t: (len(t), t))]


def _random_polynomials(count=12):
    """Seeded square-free monic polynomials of degree 2 to 9."""
    rng = random.Random(2718)
    out = []
    while len(out) < count:
        p = IntPolynomial(tuple(rng.randint(-30, 30)
                                for _ in range(rng.randint(2, 9))) + (1,))
        if sanity_check(p).square_free:
            out.append(p)
    return out


@pytest.mark.parametrize("digits", [10, 20, 40, 150])
def test_every_root_lies_within_its_certificate_radius(monkeypatch, digits):
    # the radius of the last Newton step, widened by the rounding to the
    # budget, holds a zero computed at twice the digits plus 20; so does the
    # step's own radius about the unrounded iterate
    granted = _certificates_of_polish(monkeypatch)
    for p in _workload_polynomials() + _random_polynomials():
        granted.clear()
        roots = find_roots(p, digits).roots
        (it, rounded, radii), = granted
        assert rounded == roots
        zeros = find_roots(p, 2 * digits + 20).roots
        with mp.workdps(2 * digits + 20):
            for x, r, j in zip(roots, radii, _nearest(roots, zeros)):
                assert abs(x - zeros[j]) <= r
                assert r <= mpf(10) ** (1 - digits) * max(1, abs(x))
            for x, r, j in zip(it.roots, it.radii, _nearest(it.roots, zeros)):
                assert abs(x - zeros[j]) <= r


def test_budgets_to_24_digits_evaluate_each_root_once(monkeypatch):
    # no ladder rung runs, so the hardware roots' certified 32-digit step is
    # the only evaluation, and its radii certify the rounded roots
    workloads = load_perfbench("workloads")
    phi17 = workloads.cyclo_roots(workloads.DEFAULT_SEED)[0]
    calls = []

    def counting(coeffs, x):
        calls.append(x)
        return _ALPHA_DATA(coeffs, x)
    monkeypatch.setattr(rootfinder, "_alpha_data", counting)
    for poly, gens, labeling, digits, n in [
            ("x^3-2", "(1,2,3);(1,2)", "auto", 12, 3),
            (phi17.poly, phi17.generators, phi17.labeling, 17, 16)]:
        calls.clear()
        assert solve(poly, gens, digits=digits, labeling=labeling).digits \
            == digits
        assert len(calls) == n


def test_alpha_test_refuses_a_point_where_the_derivative_vanishes():
    p = parse_polynomial("x^2-2")
    with mp.workdps(rootfinder._BASE_DPS):
        assert rootfinder._alpha_data(p.coeffs, mpc(0)) == (
            mpmath.inf, math.inf, None, mpmath.inf)


def test_sweeps_nudge_a_point_where_the_derivative_vanishes():
    # f' = 2x is 0 at the start 0: the point moves off it, and the sweeps
    # still converge to both roots of x^2 - 2
    z = [0j, 1 + 0j]
    assert rootfinder._sweeps((-2, 0, 1), (0, 2), z, 2.0, 16)
    assert sorted(w.real for w in z) == pytest.approx(
        [-math.sqrt(2), math.sqrt(2)])
    assert max(abs(w.imag) for w in z) < 1e-12


def test_newton_step_without_a_correction_stays_put():
    x = mpc(1)
    assert rootfinder._newton_step(x, (mpf(1), 0.5, None, mpf(0))) == (
        x, mpmath.inf)


@pytest.mark.parametrize("points,certified", [
    ([math.sqrt(2), -math.sqrt(2)], True),
    ([math.sqrt(2), math.sqrt(2)], False),      # the discs overlap
    ([0.0, math.sqrt(2)], False),               # f'(0) = 0
], ids=["separated", "same-root-twice", "critical-point"])
def test_certified_step_refuses_unless_every_root_is_certified(points,
                                                               certified):
    p = parse_polynomial("x^2-2")
    with mp.workdps(rootfinder._BASE_DPS):
        steps = rootfinder._certified_step(p.coeffs, [mpc(x) for x in points])
        if certified:
            assert [abs(s ** 2 - 2) < mpf(10) ** -30 for s in steps.roots] \
                == [True, True]
        else:
            assert steps is None


def _polish_skipping(monkeypatch, skips):
    """Make ``_newton_polish`` return its roots unchanged, each with an
    infinite radius, on its first ``skips`` calls; return the list of rungs
    it was called with."""
    polish = rootfinder._newton_polish
    rungs = []

    def skipping(p, roots, dps):
        rungs.append(dps)
        if len(rungs) > skips:
            return polish(p, roots, dps)
        return rootfinder.Iterates(tuple(roots), (mpmath.inf,) * len(roots))
    monkeypatch.setattr(rootfinder, "_newton_polish", skipping)
    return rungs


def _mpc_sweeps(monkeypatch, run=True):
    """Record the working digits of every ``mpc`` sweep run, and skip the
    runs unless ``run``."""
    sweeps = rootfinder._sweeps
    digits = []

    def record(coeffs, deriv, z, radius, target):
        if isinstance(radius, float):
            return sweeps(coeffs, deriv, z, radius, target)
        digits.append(mp.dps)
        return sweeps(coeffs, deriv, z, radius, target) if run else True
    monkeypatch.setattr(rootfinder, "_sweeps", record)
    return digits


def test_skipped_polish_escalates_to_mpc_sweeps(monkeypatch):
    # the first ladder leaves the 32-digit start with no certified radius,
    # so the certificate refuses it; sweeps at twice the last rung's digits
    # follow, and one Newton step at those digits certifies their roots
    p = parse_polynomial("x^3-2")
    expected = find_roots(p, 60)
    start = aberth_stage(p)
    rungs = _polish_skipping(monkeypatch, 2)
    swept = _mpc_sweeps(monkeypatch)
    rs = polish_roots(p, start, 60)
    assert (rungs, swept) == ([64, 68, 136], [136])
    assert [z._mpc_ for z in rs.roots] == [z._mpc_ for z in expected.roots]


def test_uncertified_roots_raise_at_the_sweep_cap(monkeypatch):
    # no step certifies a radius, neither on the ladder nor after a sweep
    p = parse_polynomial("x^3-2")
    start = aberth_stage(p)
    rungs = _polish_skipping(monkeypatch, 4)
    swept = _mpc_sweeps(monkeypatch, run=False)
    with pytest.raises(NonConvergence, match="roots not certified at 60 "
                                             "digits after sweeps at 272"):
        polish_roots(p, start, 60)
    assert (rungs, swept) == ([64, 68, 136, 272], [136, 272])


def test_a_duplicated_start_escalates(monkeypatch):
    # Newton keeps both copies on one root, so the certificate refuses the
    # first polish; the sweeps move one copy to the missing root
    p = parse_polynomial("x^3-2")
    expected = find_roots(p, 30)
    start = aberth_stage(p)
    swept = _mpc_sweeps(monkeypatch)
    twice = rootfinder.Iterates(*((r[0], r[0], r[2])
                                  for r in (start.roots, start.radii)))
    rs = polish_roots(p, twice, 30)
    assert swept and swept[0] == 76
    assert [z._mpc_ for z in rs.roots] == [z._mpc_ for z in expected.roots]


def _assert_near_reference(p, digits):
    """Every root at ``digits`` lies within 10^(1-digits) * max(1, |zeta|)
    of its own root zeta at 2*digits + 20, one root each."""
    roots = find_roots(p, digits).roots
    reference = find_roots(p, 2 * digits + 20).roots
    with mp.workdps(2 * digits + 20):
        nearest = [min(range(p.degree), key=lambda j: abs(z - reference[j]))
                   for z in roots]
        assert sorted(nearest) == list(range(p.degree))
        for z, j in zip(roots, nearest):
            zeta = reference[j]
            assert abs(z - zeta) <= mpf(10) ** (1 - digits) * max(1, abs(zeta))


@pytest.mark.parametrize("digits", [20, 60])
@pytest.mark.parametrize("poly_text", MIGNOTTE)
def test_close_roots_match_a_reference(poly_text, digits):
    p = parse_polynomial(poly_text)
    if (poly_text, digits) == ("x^9-2000000x^2+4000x-2", 20):
        # its close pair, 4.5e-17 apart, is inside the 10^-10 separation floor
        with pytest.raises(NonConvergence, match="not separated"):
            find_roots(p, digits)
    else:
        _assert_near_reference(p, digits)


@pytest.mark.parametrize("poly_text,digits,sweeps", [
    # a pair near 1/1000, about 6.3e-20 apart: the polish from the 32-digit
    # start meets no certificate at 50 digits
    ("x^11-1000000x^2+2000x-1", 50, [32, 116]),
    # a pair near 10^-6, 1.41e-36 apart: Newton from the 32-digit start
    # cannot split it, and sweeps at 256 digits do
    ("x^10-2000000000000x^2+4000000x-2", 120, [32, 256])],
    ids=["x^11", "x^10"])
def test_close_pair_escalates_on_a_real_input(monkeypatch, poly_text, digits,
                                              sweeps):
    p = parse_polynomial(poly_text)
    swept = _mpc_sweeps(monkeypatch)
    find_roots(p, digits)
    assert swept == sweeps
    _assert_near_reference(p, digits)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-30, 30), min_size=2, max_size=9),
       st.sampled_from([10, 20, 40]))
def test_roots_match_a_reference(low_coeffs, digits):
    p = IntPolynomial(tuple(low_coeffs) + (1,))
    assume(sanity_check(p).square_free)
    _assert_near_reference(p, digits)


@pytest.mark.parametrize("poly_text,digits,expected", [
    ("x^2-600000000x+90000000000000001", 10,
     ["(300000000.0 - 1.0j)", "(300000000.0 + 1.0j)"]),
    ("x^2-600000000x+90000000000000001", 9,
     ["(300000000.0 - 1.0j)", "(300000000.0 + 1.0j)"]),
    ("x^2-60000x+900000001", 5, ["(30000.0 - 1.0j)", "(30000.0 + 1.0j)"])],
    ids=["3e8+-i-10", "3e8+-i-9", "3e4+-i-5"])
def test_snap_stays_inside_the_certificate(poly_text, digits, expected):
    # the imaginary parts, 1, lie within 10^(2-digits) * |z| of the axis
    # but outside a quarter of the certificate's 10^(1-digits) * |z|, so
    # they are kept, and the roots certify
    rs = find_roots(parse_polynomial(poly_text), digits)
    assert [str(z) for z in rs.roots] == expected


def _mpc_apart(points, radii):
    return all(abs(points[i] - points[j]) > radii[i] + radii[j]
               for i in range(len(points)) for j in range(i + 1, len(points)))


class _CountedMpc(mpc):
    """An mpc that counts the subtractions it takes part in."""
    subtractions = 0

    def __sub__(self, other):
        _CountedMpc.subtractions += 1
        return mpc.__sub__(self, other)


@pytest.mark.parametrize("digits", [1, 10, 20, 30, 50, 700])
@pytest.mark.parametrize("base", ["0", "1.3333333333333333333333333333333",
                                  "-70000.5", "1e-400", "1e400", "-3e308"])
def test_separation_screen_decides_like_mpc(digits, base):
    with mp.workdps(digits + 10):
        separation = mpf(10) ** (-mpf(digits) / 2)
        a = mpc(base, base)
        for direction in (mpc(1), mpc(0, 1), mpc(3, -4) / 5):
            for factor in ("0.999", "0.999999999999999", "1", "1.000000000000001",
                           "1.001", "2"):
                raw = [a, a + direction * separation * mpf(factor),
                       a + 10 * direction]
                for radii in ([separation / 2] * 3,
                              [separation / 4, 3 * separation / 4, 0]):
                    assert (rootfinder._apart(raw, radii)
                            == _mpc_apart(raw, radii))


def test_separation_screen_skips_mpc_for_separated_roots():
    p = parse_polynomial("x^8-3")
    raw = [_CountedMpc(z) for z in find_roots(p, 40).roots]
    _CountedMpc.subtractions = 0
    with mp.workdps(50):
        assert rootfinder._apart(raw, [mpf(10) ** -20 / 2] * len(raw))
    assert _CountedMpc.subtractions == 0


def test_separation_screen_sends_beyond_float_roots_to_mpc():
    # the float conversion gives inf (or 0.0), so every pair is tested in mpc
    with mp.workdps(30):
        far = [_CountedMpc("1e400"), _CountedMpc("-1e400"),
               _CountedMpc("2e400")]
        near = [_CountedMpc("1e-400"), _CountedMpc("3e-400")]
        _CountedMpc.subtractions = 0
        assert rootfinder._apart(far, [mpf(10) ** -10] * 3)
        assert rootfinder._apart(near, [mpf(10) ** -405] * 2)
        assert not rootfinder._apart(near, [mpf(10) ** -399] * 2)
    assert _CountedMpc.subtractions == 3 + 1 + 1


def _mpc_order(points):
    return sorted(range(len(points)),
                  key=lambda i: (mpmath.atan2(points[i].imag, points[i].real),
                                 abs(points[i])))


@pytest.mark.parametrize("digits", [10, 30, 200])
def test_order_screen_orders_like_mpc(digits):
    with mp.workdps(digits + 10):
        tiny = mpf(10) ** -(digits + 5)
        turn = mpmath.expjpi(mpf(2) / 7)
        near = mpmath.expjpi(mpf(2) / 7 + tiny)
        cases = [
            [mpc(2), mpc(1), mpc(3), mpc(0), mpc(-1), mpc(-3), mpc(-2)],
            [mpc(0, 2), mpc(0, 1), mpc(0, -1), mpc(0, -2), mpc(1)],
            [mpc(1, tiny), mpc(1), mpc(1, -tiny), mpc(2, tiny)],
            [mpc(-1, tiny), mpc(-1, -tiny), mpc(-1), mpc(-2, -tiny)],
            [mpc(1, 1), mpc(2, 2), mpc(1, 1)],
            [turn, 2 * turn, near, turn * (1 + tiny)],
            [near, 2 * turn],       # one float argument, off the axes
            [mpc("1e-400", 1), mpc("1e400", 1), mpc(1, "1e-320"), mpc(1)],
            [mpc("1e300", "1e-300"), mpc(1, "1e-20"), mpc("-1e300", "1e-300")],
            list(find_roots(parse_polynomial("x^9-3"), digits).roots)[::-1],
        ]
        for points in cases:
            assert rootfinder._canonical_order(points) == _mpc_order(points)


def test_order_screen_skips_atan2_for_separated_roots(monkeypatch):
    atan2, calls = mpmath.atan2, []

    def counting(y, x):
        calls.append((y, x))
        return atan2(y, x)
    monkeypatch.setattr(mpmath, "atan2", counting)
    with mp.workdps(40):
        roots = find_roots(parse_polynomial("x^9-3"), 30).roots
        calls.clear()
        assert rootfinder._canonical_order(roots[::-1]) == list(range(9))[::-1]
        assert calls == []
        rootfinder._canonical_order([mpc(1, 1), mpc(2, 2)])
        assert len(calls) == 2


def test_degree_one_residual_is_that_of_the_rounded_root():
    # 10^30 + 1 does not fit 10 digits, so the rounded root misses it
    p = parse_polynomial("x-1000000000000000000000000000001")
    rs = find_roots(p, 10)
    with mp.workdps(40):
        assert root_residuals(p, rs) == (abs(10 ** 30 + 1 - rs.roots[0]),)
        assert root_residuals(p, rs)[0] > 0

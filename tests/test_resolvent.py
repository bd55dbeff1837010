import pytest
from mpmath import mp, mpf

import math

from radicalroots import (LabelingFailed, Permutation, PrecisionInfeasible,
                          resolvent, solve,
                          ResidualTooLarge, closure, composition_series, find_roots, label_roots,
                          parse_cycles, parse_polynomial, plan_precision,
                          build_theta0, forward_pass, forward_level,
                          round_theta_m)
from radicalroots.resolvent import (DEFAULT_MARGIN, MultiplicationCounter,
                                    ResolventTensor, axis_lines, multiplication_budget,
                                    position_root_indices, zeta_tables)
from radicalroots.precision import cadd, cdiv_int, cmul, ints_mpc, mpc_ints
from radicalroots.rootfinder import relabel
from tests.conftest import QUINTIC_THETA, load_perfbench, reindex_axis
from tests.test_properties import INSTANCES
from tests.test_radical import affine_generators, pure_power_labels


def c2_series():
    G = closure([parse_cycles("(1,2)", 2)])
    return composition_series(G)


# the digit budget of quintic_forward
QUINTIC_DIGITS = 19


def quintic_forward(reference_label_order):
    p = parse_polynomial("x^5+20x+32")
    G = closure([parse_cycles("(1,2,3,4,5)", 5), parse_cycles("(1,4)(2,3)", 5)])
    series = composition_series(G)
    roots = find_roots(p, QUINTIC_DIGITS)
    labeled = relabel(roots, Permutation(tuple(reference_label_order)))
    with mp.workdps(QUINTIC_DIGITS):
        zetas = zeta_tables(series)
        theta0 = build_theta0(labeled, series)
        fwd = forward_pass(theta0, series, zetas)
    return series, zetas, theta0, fwd


def sqrt2_forward(digits=14):
    series = c2_series()
    roots = find_roots(parse_polynomial("x^2-2"), digits)
    labeled = relabel(roots, label_roots(series.group, roots).permutation)
    with mp.workdps(digits):
        zetas = zeta_tables(series)
        theta0 = build_theta0(labeled, series)
        fwd = forward_pass(theta0, series, zetas)
    return series, zetas, theta0, fwd


def test_plan_precision_quintic(d5):
    series = composition_series(d5)
    plan = plan_precision(series, 2.4)
    assert plan.n_bound == 5**10 * 2**2
    assert plan.required_digits == 13
    assert plan.digits == 13 + DEFAULT_MARGIN


def test_plan_precision_c2_examples():
    series = c2_series()
    plan = plan_precision(series, 1.5)
    assert plan.n_bound == 4
    assert plan.required_digits == 2
    assert plan.digits == 2 + DEFAULT_MARGIN
    plan = plan_precision(series, 1)
    assert plan.required_digits == 2
    assert plan.digits == 2 + DEFAULT_MARGIN


def test_plan_precision_cap():
    series = c2_series()
    with pytest.raises(PrecisionInfeasible):
        plan_precision(series, "1e200000")


def test_build_theta0_quintic_position_map(d5):
    # column j2=0 walks the 5-cycle; column j2=1 applies the reflection
    series = composition_series(d5)
    indices = position_root_indices(series)
    assert indices == [1, 4, 2, 3, 3, 2, 4, 1, 5, 5]


def product_position_indices(series):
    """(sigma_m^{j_m}...sigma_1^{j_1})(1) at each flat position, built as a
    product of permutations."""
    radices = series.primes
    out = []
    for flat in range(math.prod(radices)):
        rem, multi = flat, []
        for p in reversed(radices):
            multi.append(rem % p)
            rem //= p
        perm = Permutation.identity(series.degree)
        for (sigma, _), j in zip(series.steps, reversed(multi)):
            perm = sigma.power(j) * perm
        out.append(perm(1))
    return out


def affine_group(n, unit):
    """k -> k+1 and k -> unit*k (mod n) on labels k+1."""
    shift = Permutation(tuple((k + 1) % n + 1 for k in range(n)))
    scale = Permutation(tuple((unit * k) % n + 1 for k in range(n)))
    return closure([shift, scale])


POSITION_GROUPS = [
    *((name, closure([parse_cycles(t, parse_polynomial(text).degree)
                      for t in gens.split(";")]))
      for name, text, gens, _ in INSTANCES),
    ("F42", affine_group(7, 3)),
    ("F110", affine_group(11, 2)),
    ("F156", affine_group(13, 2)),
]


@pytest.mark.parametrize("group", [g for _, g in POSITION_GROUPS],
                         ids=[name for name, _ in POSITION_GROUPS])
def test_position_root_indices_match_permutation_products(group):
    series = composition_series(group)
    assert position_root_indices(series) == product_position_indices(series)


def test_build_theta0_sqrt2():
    _, _, theta0, _ = sqrt2_forward()
    a, b = theta0.data
    assert abs(a - mpf("1.4142135623731")) < mpf("1e-12")
    assert abs(b - mpf("-1.4142135623731")) < mpf("1e-12")


def test_build_theta0_trivial_group():
    from radicalroots import Permutation
    G = closure([Permutation.identity(1)])
    series = composition_series(G)
    roots = find_roots(parse_polynomial("x+3"), 12)
    theta0 = build_theta0(roots, series)
    assert len(theta0.data) == 1
    assert theta0.data[0].real == -3


def test_build_theta0_rejects_intransitive():
    # C2 acting on only 2 of 3 labels cannot cover a cubic's roots
    G = closure([parse_cycles("(1,2)", 3)])
    series = composition_series(G)
    roots = find_roots(parse_polynomial("x^3-2"), 12)
    with pytest.raises(LabelingFailed, match="not transitive"):
        build_theta0(roots, series)


def test_forward_level_sqrt2():
    series, zetas, theta0, fwd = sqrt2_forward()
    L0, theta1 = fwd.resolvents[0], fwd.thetas[1]
    # L0 = [x1 + x2, x1 - x2] = [0, 2*sqrt(2)]
    assert abs(L0.data[0]) < mpf("1e-12")
    assert abs(L0.data[1] - mpf("2.8284271247462")) < mpf("1e-11")
    with mp.workdps(14):
        ints = round_theta_m(theta1)
    assert ints.values == (4, -4)


def test_forward_constant_axis_kills_nonzero_modes():
    # constant data along the axis: geometric sums of zeta vanish off k=0
    series = c2_series()
    digits = 16
    with mp.workdps(digits):
        zetas = zeta_tables(series)
        val = mp.mpc("1.25", "0.5")
        tensor = ResolventTensor((2,), (val, val))
        L, _ = forward_level(tensor, 1, zetas, MultiplicationCounter())
        assert abs(L.data[0] - (val + val)) < mpf(10) ** (3 - digits)
        assert abs(L.data[1]) < mpf(10) ** (3 - digits)


def test_quintic_theta2_values(reference_label_order):
    series, zetas, theta0, fwd = quintic_forward(reference_label_order)
    theta2 = fwd.thetas[2]
    # displayed value: Theta_2[1,1] = 34999999.999995  (14 significant digits)
    entry = theta2.data[1 * 2 + 1]
    assert abs(entry.real - 35000000) < mpf("1e-4")
    assert abs(entry.imag) < mpf("1e-4")
    with mp.workdps(QUINTIC_DIGITS):
        ints = round_theta_m(theta2)
    assert ints.values == QUINTIC_THETA
    assert max(ints.residuals) < mpf("1e-4")


def test_multiplication_counter_budget_exact(reference_label_order):
    series, _, _, fwd = quintic_forward(reference_label_order)
    assert multiplication_budget(series) == 190  # 10 * (14 + 5)
    # level 1: line 0's 4 * 13 products, and 4 zeta-powers to fill line 1;
    # level 2: 2 products for each of lines 0, 1 and 2; lines 3 and 4 hold
    # the entries of lines 2 and 1 swapped, and are filled by negations
    assert fwd.counter.count == 62
    assert fwd.counter.count <= multiplication_budget(series)


def test_round_theta_m_rejects_offset():
    with mp.workdps(12):
        bad = ResolventTensor((2,), (mp.mpc("0.4"), mp.mpc(1)))
        with pytest.raises(ResidualTooLarge):
            round_theta_m(bad)


def test_fourier_inversion_identity(reference_label_order):
    series, zetas, theta0, fwd = quintic_forward(reference_label_order)
    digits = QUINTIC_DIGITS
    for level in range(1, series.length + 1):
        p = series.primes[level - 1]
        prev = fwd.thetas[level - 1]
        L = fwd.resolvents[level - 1]
        table = zetas[p]
        scale = max(abs(e) for e in prev.data)
        tol = mpf(10) ** (3 - digits) * max(mpf(1), scale)
        with mp.workdps(digits):
            for line in axis_lines(prev.radices, level - 1):
                for j in range(p):
                    acc = mp.mpc(0)
                    for k in range(p):
                        acc = acc + table[(-j * k) % p] * L.data[line[k]]
                    acc = acc / p
                    assert abs(acc - prev.data[line[j]]) < tol


def test_cyclic_shift_invariance(reference_label_order):
    # shifting axis i of Theta_{i-1} rephases L but leaves L^p and Theta_i alone
    series, zetas, theta0, fwd = quintic_forward(reference_label_order)
    digits = QUINTIC_DIGITS
    for level in range(1, series.length + 1):
        p = series.primes[level - 1]
        prev = fwd.thetas[level - 1]
        shifted = reindex_axis(prev, level, 1, 1)
        with mp.workdps(digits):
            _, theta_shifted = forward_level(shifted, level, zetas,
                                             MultiplicationCounter())
        ref = fwd.thetas[level]
        scale = max(mpf(1), max(abs(e) for e in ref.data))
        tol = mpf(10) ** (3 - digits) * scale
        for a, b in zip(theta_shifted.data, ref.data):
            assert abs(a - b) < tol


def test_primitive_root_exchange_law(reference_label_order):
    # resolvents formed with zeta^k: Theta entries reindex by the inverse of k
    series, zetas, theta0, fwd = quintic_forward(reference_label_order)
    digits = QUINTIC_DIGITS
    level, p = 1, 5
    prev = fwd.thetas[0]
    ref = fwd.thetas[1]
    for k in range(2, p):
        t = pow(k, -1, p)
        # sum_j zeta^(kjm) theta_j = sum_i zeta^(im) theta_(t*i), t = 1/k mod p
        with mp.workdps(digits):
            _, exchanged = forward_level(reindex_axis(prev, level, t, 0),
                                         level, zetas, MultiplicationCounter())
        scale = max(mpf(1), max(abs(e) for e in ref.data))
        tol = mpf(10) ** (3 - digits) * scale
        for line in axis_lines(prev.radices, level - 1):
            for j in range(p):
                got = exchanged.data[line[j]]
                expected = ref.data[line[(t * j) % p]]
                assert abs(got - expected) < tol


def _unmemoised_level(theta, level, zetas):
    """L_(level-1) and Theta_level from ``theta`` = Theta_(level-1), every
    line transformed on its own with every twiddle a kernel product and no
    memo: the loop of ``forward_level`` before it shared lines and skipped
    the factors 1 and -1."""
    prec, p = mp.prec, theta.radices[level - 1]
    table = [mpc_ints(z) for z in zetas[p]]
    data = [mpc_ints(z) for z in theta.data]
    ldata, tdata = [None] * len(data), [None] * len(data)
    for line in axis_lines(theta.radices, level - 1):
        entries, powered = [data[i] for i in line], []
        for k in range(p):
            acc = None
            for j in range(p):
                term = cmul(table[(j * k) % p], entries[j], prec)
                acc = term if acc is None else cadd(acc, term, prec)
            ldata[line[k]] = ints_mpc(acc)
            w = acc
            for _ in range(p - 1):
                w = cmul(w, acc, prec)
            powered.append(w)
        for j in range(p):
            acc = None
            for k in range(p):
                term = cmul(table[(-k * j) % p], powered[k], prec)
                acc = term if acc is None else cadd(acc, term, prec)
            tdata[line[j]] = ints_mpc(cdiv_int(acc, p, prec))
    return (ResolventTensor(theta.radices, tuple(ldata)),
            ResolventTensor(theta.radices, tuple(tdata)))


def _unmemoised_forward(theta0, series, zetas):
    """L_0, Theta_1, ..., L_(m-1), Theta_m from Theta_0 by
    ``_unmemoised_level``."""
    current, tensors = theta0, []
    for level in range(1, series.length + 1):
        L, current = _unmemoised_level(current, level, zetas)
        tensors += [L, current]
    return tensors


def _line_sources(theta, level):
    """The lines along axis ``level`` - 1 of ``theta``, and for each, in
    order: None for a line the sharing rule transforms; ("equal", earlier)
    for a line with the bits of an earlier line; ("fill", ref, u, t) for a
    line whose j-th entry has the bits of entry (u j + t) mod p of ``ref``,
    a transformed line with p distinct entries.  Every map is tried."""
    p = theta.radices[level - 1]
    bits = [z._mpc_ for z in theta.data]
    lines = list(axis_lines(theta.radices, level - 1))
    sources, refs = [], []
    for c, line in enumerate(lines):
        entries = [bits[i] for i in line]
        source = next((("equal", lines[d]) for d in range(c)
                       if [bits[i] for i in lines[d]] == entries), None)
        source = source or next(
            (("fill", ref, u, t) for ref in refs
             for u in range(1, p) for t in range(p)
             if all(entries[j] == bits[ref[(u * j + t) % p]]
                    for j in range(p))), None)
        if source is None and len(set(entries)) == p:
            refs.append(line)
        sources.append(source)
    return lines, sources


def _counted_forward(monkeypatch, report):
    """The report's zeta tables, Theta_0 and forward pass, with the kernel
    products that the pass performs."""
    kernel = [0]

    def counting_cmul(x, y, prec, _original=resolvent.cmul):
        kernel[0] += 1
        return _original(x, y, prec)
    series = report.series
    with mp.workdps(report.digits):
        zetas = zeta_tables(series)
        theta0 = build_theta0(report.roots, series)
        monkeypatch.setattr(resolvent, "cmul", counting_cmul)
        fwd = forward_pass(theta0, series, zetas)
        monkeypatch.undo()
    return zetas, theta0, fwd, kernel[0]


# instances whose tensors repeat lines: name, polynomial, generators, labeling
REPEATING = [("S4 x^4+x+1", "x^4+x+1", "(1,2,3,4);(1,2)", "auto"),
             ("F42 x^7-2", "x^7-2", affine_generators(7, 3),
              pure_power_labels(7, 2)),
             ("F110 x^11-2", "x^11-2", affine_generators(11, 2),
              pure_power_labels(11, 2))]


@pytest.mark.parametrize("name,poly,gens,labeling", REPEATING,
                         ids=[i[0] for i in REPEATING])
def test_memoised_forward_pass_is_the_unmemoised_loop(monkeypatch, name, poly,
                                                      gens, labeling):
    """At every level, against the loop fed the pass's Theta of the level
    below: a line the pass transforms keeps the loop's L and Theta bits; a
    line equal to an earlier one holds that line's entries; a line filled
    from a transformed line by j -> u j + t holds the reference's Theta
    entries at u j, the same objects, and L and Theta entries within
    10^(10-d) of the loop's, relative to their size.  The rounded final
    tensors are equal, and the counter counts the kernel products actually
    performed, below the budget.

    At prime degree (F42, F110) level 1 transforms line 0 alone, and the
    labels of each filled line are line 0's in the order of its map."""
    report = solve(poly, gens, labeling=labeling)
    series, digits = report.series, report.digits
    zetas, theta0, fwd, kernel = _counted_forward(monkeypatch, report)
    assert kernel == fwd.counter.count == report.multiplications
    assert fwd.counter.count < multiplication_budget(series)
    labels = position_root_indices(series)
    tolerance = mpf(10) ** (10 - digits)
    fills = 0
    with mp.workdps(digits):
        reference = _unmemoised_forward(theta0, series, zetas)
        assert round_theta_m(reference[-1]).values == report.theta.values
        for level in range(1, series.length + 1):
            L, theta = fwd.resolvents[level - 1].data, fwd.thetas[level].data
            loop_L, loop_theta = (t.data for t in _unmemoised_level(
                fwd.thetas[level - 1], level, zetas))
            p = series.primes[level - 1]
            lines, sources = _line_sources(fwd.thetas[level - 1], level)
            if level == 1 and series.degree == p:
                assert sources[0] is None
                assert all(s[0] == "fill" for s in sources[1:])
            for line, source in zip(lines, sources):
                if source is None:
                    assert [(L[f]._mpc_, theta[f]._mpc_) for f in line] == \
                        [(loop_L[f]._mpc_, loop_theta[f]._mpc_) for f in line]
                elif source[0] == "equal":
                    for f, g in zip(line, source[1]):
                        assert L[f] is L[g] and theta[f] is theta[g]
                else:
                    fills += 1
                    _, ref, u, t = source
                    for j, f in enumerate(line):
                        assert theta[f] is theta[ref[u * j % p]]
                        if level == 1:
                            assert labels[f] == labels[ref[(u * j + t) % p]]
                        for ours, loop in ((L, loop_L), (theta, loop_theta)):
                            assert abs(ours[f] - loop[f]) < \
                                tolerance * max(1, abs(loop[f]))
    assert fills


@pytest.mark.parametrize("name", ["S4 x^4+x+1", "C6 deg-6 cyclic", "C16 Phi17"])
def test_exact_twiddles_keep_every_bit(monkeypatch, name):
    """Skipping the factor zeta^0 = 1 and negating for the factor -1 (p = 2)
    gives every L and Theta entry of a line the pass transforms the bits of
    the loop that multiplies by them, fed the same Theta."""
    workloads = load_perfbench("workloads")
    seed = workloads.DEFAULT_SEED
    pool = workloads.small_mixed(seed) + workloads.cyclo_roots(seed)
    instance = next(i for i in pool if i.name.startswith(name))
    report = solve(instance.poly, instance.generators,
                   labeling=instance.labeling)
    zetas, theta0, fwd, kernel = _counted_forward(monkeypatch, report)
    transformed = 0
    with mp.workdps(report.digits):
        for level in range(1, report.series.length + 1):
            prev = fwd.thetas[level - 1]
            loop = _unmemoised_level(prev, level, zetas)
            ours = fwd.resolvents[level - 1], fwd.thetas[level]
            lines, sources = _line_sources(prev, level)
            for line, source in zip(lines, sources):
                if source is None:
                    transformed += 1
                    assert [[t.data[f]._mpc_ for f in line] for t in ours] == \
                        [[t.data[f]._mpc_ for f in line] for t in loop]
    assert transformed >= report.series.length
    assert kernel == fwd.counter.count
    assert fwd.counter.count < multiplication_budget(report.series)


P2_FILLS = ["S3 x^3-2", "C16 Phi17 g=11", "F272 x^17-2"]


@pytest.mark.parametrize("name", P2_FILLS)
def test_swapped_lines_at_p2_keep_the_bits_of_their_own_transform(name):
    """A p = 2 line that holds a transformed line's entries swapped is
    filled by one negation of L_1 and copies of L_0 and Theta; those have
    the bits that transforming the line itself gives."""
    workloads = load_perfbench("workloads")
    pool = (workloads.small_mixed(workloads.DEFAULT_SEED)
            + workloads.cyclo_roots(7)
            + [workloads.pure_power("F272", 17, 2, 3)])
    instance = next(i for i in pool if i.name == name)
    report = solve(instance.poly, instance.generators,
                   labeling=instance.labeling)
    series = report.series
    swapped = 0
    with mp.workdps(report.digits):
        zetas = zeta_tables(series)
        fwd = forward_pass(build_theta0(report.roots, series), series, zetas)
        for level, p in enumerate(series.primes, start=1):
            if p != 2:
                continue
            prev = fwd.thetas[level - 1]
            lines, sources = _line_sources(prev, level)
            for line, source in zip(lines, sources):
                if source is None or source[0] != "fill":
                    continue
                assert source[2:] == (1, 1)
                swapped += 1
                own = _unmemoised_level(ResolventTensor(
                    (2,), tuple(prev.data[f] for f in line)), 1, zetas)
                ours = fwd.resolvents[level - 1], fwd.thetas[level]
                assert [[t.data[f]._mpc_ for f in line] for t in ours] == \
                    [[z._mpc_ for z in t.data] for t in own]
    assert swapped

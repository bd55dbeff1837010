import mpmath
import pytest
from mpmath import mp, mpf

from radicalroots import (LabelingFailed, Permutation, ResidualTooLarge,
                          closure, composition_series,
                          coset_product_certificate, coset_representatives,
                          find_roots, invariant_value, label_roots,
                          orbit_sum_invariant, oracle, parse_cycles,
                          parse_polynomial, plan_precision,
                          root_magnitude_bound, solve)
from radicalroots.oracle import (DEFAULT_LABELING_TOLERANCE,
                                 default_labeling_invariants)
from radicalroots.polynomial import eval_poly, to_monic
from radicalroots.precision import nearest_integer
from radicalroots.rootfinder import aberth_stage, polish_roots, relabel
from tests.conftest import QUINTIC_ROOT_STRINGS, QUINTIC_THETA, match_root_order
from tests.test_properties import INSTANCES

# frozen from an independent 30-digit run (mpmath.polyroots + direct orbit
# sums over the 12 coset representatives)
QUINTIC_EDGE_CERTIFICATE = (1600000000, 0, -3616000000, 0, 28000000, 0,
                            -1120000, 0, 22000, 0, -200, 0, 1)


def reference_labeled_roots(digits=20):
    p = parse_polynomial("x^5+20x+32")
    rs = find_roots(p, digits)
    order = match_root_order(rs, QUINTIC_ROOT_STRINGS)
    return relabel(rs, Permutation(tuple(order)))


def assert_certificate_holds_the_invariant(cert, orbit, roots, bound):
    """|F(theta)| < bound * (1 + |theta|)^deg F for the orbit sum theta on
    the labeled roots: theta is a root of its certificate F."""
    with mp.workdps(roots.digits):
        theta = sum(mpmath.fprod(z ** k for z, k in zip(roots.roots, vec))
                    for vec in orbit)
        membership = abs(eval_poly(cert.coefficients, theta))
        assert membership < bound * (1 + abs(theta)) ** cert.degree


def test_invariant_value_sum_of_roots(d5):
    labeled = reference_labeled_roots()
    orbit = orbit_sum_invariant(d5, (1, 0, 0, 0, 0))
    value, residual = invariant_value(orbit, labeled)
    assert value == 0  # coefficient of x^4 vanishes
    assert residual < mpf("1e-10")


def test_invariant_value_power_sum_s2():
    G = closure([parse_cycles("(1,2)", 2)])
    rs = find_roots(parse_polynomial("x^2-2"), 16)
    orbit = orbit_sum_invariant(G, (2, 0))
    value, residual = invariant_value(orbit, rs)
    assert value == 4 and residual < mpf("1e-12")


def test_invariant_value_pentagon_edges(d5):
    labeled = reference_labeled_roots()
    orbit = orbit_sum_invariant(d5, (1, 1, 0, 0, 0))
    value, residual = invariant_value(orbit, labeled)
    assert value == 10 and residual < mpf("1e-6")


def test_invariant_value_rejects_an_inconsistent_labeling(d5, quintic):
    # the input order is not a D5 labeling: the edge orbit sum is 0.334 from
    # an integer
    orbit = orbit_sum_invariant(d5, (1, 1, 0, 0, 0))
    with pytest.raises(ResidualTooLarge, match="orbit sum is 0.33") as exc:
        invariant_value(orbit, find_roots(quintic, 19))
    assert 0.33 < exc.value.residual < 0.34


def test_default_invariants_reference_values(d5):
    labeled = reference_labeled_roots()
    values = {}
    for name, orbit in default_labeling_invariants(d5):
        values[name], _ = invariant_value(orbit, labeled)
    # x1*x2^2 and x1^2*x2 share one orbit under D5
    assert values == {"x_1*x_2^2": 20, "x_1*x_2*x_3^2": -80}


def test_certificate_single_coset():
    G = closure([parse_cycles("(1,2)", 2)])
    rs = find_roots(parse_polynomial("x^2-2"), 20)
    cert = coset_product_certificate(G, orbit_sum_invariant(G, (2, 0)), rs)
    assert cert.coefficients == (-4, 1)  # F = x - 4
    assert cert.degree == 1


def test_certificate_quintic_degree_12(d5):
    labeled = reference_labeled_roots(20)
    orbit = orbit_sum_invariant(d5, (1, 1, 0, 0, 0))
    cert = coset_product_certificate(d5, orbit, labeled)
    assert cert.degree == 12
    assert cert.coefficients == QUINTIC_EDGE_CERTIFICATE
    assert max(cert.residuals) < mpf("1e-4")
    assert_certificate_holds_the_invariant(cert, orbit, labeled, mpf("1e-4"))


def test_certificate_rejects_coefficients_far_from_integers(d5):
    # 4 digits cannot hold coefficients of ten digits
    orbit = orbit_sum_invariant(d5, (1, 1, 0, 0, 0))
    with pytest.raises(ResidualTooLarge,
                       match="^certificate coefficient 0 is ") as exc:
        coset_product_certificate(d5, orbit, reference_labeled_roots(4))
    assert exc.value.position == 0
    assert exc.value.residual > 0.25


def test_certificate_rejects_an_invariant_that_is_not_its_root(monkeypatch):
    # F = x - 4 from the coset products, but the labeled invariant reads 6:
    # |F(theta)| = 2 is at least 0.25 * (1 + 6)
    G = closure([parse_cycles("(1,2)", 2)])
    rs = find_roots(parse_polynomial("x^2-2"), 20)
    orbit_value = oracle._orbit_value

    def shifted(orbit, values):
        value = orbit_value(orbit, values)
        return value + 2 if values is rs.roots else value

    monkeypatch.setattr(oracle, "_orbit_value", shifted)
    with pytest.raises(ResidualTooLarge, match=(
            r"^labeled invariant is not a root of its own certificate "
            r"polynomial \(\|F\(theta\)\| = 2\.0\)$")) as exc:
        coset_product_certificate(G, orbit_sum_invariant(G, (2, 0)), rs)
    assert abs(exc.value.residual - 2) < mpf("1e-15")
    assert exc.value.position is None


def test_label_roots_identity_for_full_group():
    G = closure([parse_cycles("(1,2)", 3), parse_cycles("(1,2,3)", 3)])
    rs = find_roots(parse_polynomial("x^3-2"), 16)
    result = label_roots(G, rs)
    assert result.permutation.is_identity()
    assert result.candidates_passed == 1


def test_label_roots_quintic_recovers_valid_labeling(d5):
    rs = find_roots(parse_polynomial("x^5+20x+32"), 19)
    result = label_roots(d5, rs)
    # two of the 12 cosets pass in mpc; the first of them is the 5th
    passing = reference_passing(d5, rs)
    assert len(passing) == 2
    assert result.permutation == passing[0]
    assert result.candidates_passed == 5
    # the recovered labeling makes the whole pipeline succeed with the same
    # integer multiset as the reference ordering
    report = solve("x^5+20x+32", "(1,2,3,4,5);(1,4)(2,3)", labeling="auto")
    assert sorted(report.theta.values) == sorted(QUINTIC_THETA)
    assert report.verification is not None


def test_label_roots_takes_the_first_coset_with_symmetric_invariants(
        d5, monkeypatch):
    # fully symmetric test invariants cannot separate any cosets: every one
    # passes, and the first is returned after one test
    rs = find_roots(parse_polynomial("x^5+20x+32"), 19)
    symmetric_orbit = orbit_sum_invariant(d5, (1, 0, 0, 0, 0))
    monkeypatch.setattr(oracle, "default_labeling_invariants",
                        lambda G: [("x_1", symmetric_orbit)])
    reps = list(coset_representatives(d5))
    assert len(reps) == 12
    for rep in reps:
        assert invariant_value(symmetric_orbit, relabel(rs, rep))[0] == 0
    result = label_roots(d5, rs)
    assert result.permutation == reps[0]
    assert result.candidates_passed == 1


F42 = "(1,2,3,4,5,6,7);(2,4,3,7,5,6)"
D6 = "(1,2,3,4,5,6);(2,6)(3,5)"
D4 = "(1,2,3,4);(2,4)"
AUTO_LABELED = [(text, gens) for _, text, gens, labeling in INSTANCES
                if labeling == "auto"] + [
    ("x^4+x+1", "(1,2,3,4);(1,2)"),
    ("x^5-2", "(1,2,3,4,5);(2,3,5,4)"),
    ("2x^3-3", "(1,2,3);(1,2)"),
    ("x^4-2", D4),
    ("x^6-2", D6),
    ("x^7-2", F42),
]
WRONG_GROUP = [("x^5+20x+32", "(1,2,3,4,5)"), ("x^4+x+1", "(1,2,3,4);(1,3)")]


def budget_roots(text, generators):
    """The group and the monic reduction's roots at the budget solve plans."""
    monic = to_monic(parse_polynomial(text)).monic
    n = monic.degree
    group = closure([parse_cycles(t, n) for t in generators.split(";")])
    start = aberth_stage(monic)
    plan = plan_precision(composition_series(group),
                          root_magnitude_bound(start.roots))
    return group, polish_roots(monic, start, plan.digits)


def reference_passing(G, roots):
    """Every coset representative that passes in mpc, with no early stop,
    on every default invariant."""
    invariants = [orbit for _, orbit in default_labeling_invariants(G)]
    passing = []
    with mp.workdps(roots.digits):
        for rep in coset_representatives(G):
            moved = tuple(roots.roots[rep(j) - 1]
                          for j in range(1, G.degree + 1))
            if all(nearest_integer(oracle._orbit_value(orbit, moved))[1]
                   < DEFAULT_LABELING_TOLERANCE for orbit in invariants):
                passing.append(rep)
    return passing


def assert_labels_like_reference(G, roots):
    """label_roots returns the reference's first passing coset, after
    testing every coset up to it, or raises when none passes."""
    passing = reference_passing(G, roots)
    if not passing:
        with pytest.raises(LabelingFailed):
            label_roots(G, roots)
        return passing
    result = label_roots(G, roots)
    assert result.permutation == passing[0]
    assert result.candidates_passed == \
        list(coset_representatives(G)).index(passing[0]) + 1
    return passing


@pytest.mark.parametrize("text,generators", AUTO_LABELED + WRONG_GROUP)
def test_label_roots_matches_unscreened_reference(text, generators):
    assert_labels_like_reference(*budget_roots(text, generators))


@pytest.mark.parametrize("text,generators", WRONG_GROUP)
def test_wrong_group_passes_no_candidate(text, generators):
    assert reference_passing(*budget_roots(text, generators)) == []


# the only cases where skipping the invariants that separate no cosets
# changes the outcome of label_roots: LabelingFailed becomes a labeling
SYMMETRIC_SUMS_NOT_INTEGRAL = [("x^2-3x-7", "(1,2)", 3),
                               ("x^3-3x-1", "(1,2,3);(1,2)", 3)]


@pytest.mark.parametrize("digits", [3, 4, 6])
@pytest.mark.parametrize("text,generators", [
    ("x^2-3x-7", "(1,2)"), ("x^3-3x-1", "(1,2,3);(1,2)"), ("x^4+1", D4),
    ("x^4-2", D4), ("x^4-10x^2+1", "(1,2)(3,4);(1,3)(2,4)"),
    ("x^5+x^4-4x^3-3x^2+3x+1", "(1,2,3,4,5)"), ("x^6+3", D6)])
def test_label_roots_matches_reference_at_low_budgets(text, generators,
                                                      digits):
    # at a few digits the roots' own error decides which candidates pass
    p = parse_polynomial(text)
    G = closure([parse_cycles(t, p.degree) for t in generators.split(";")])
    roots = find_roots(p, digits)
    if (text, generators, digits) in SYMMETRIC_SUMS_NOT_INTEGRAL:
        # label_roots skips every default invariant of S_2 and S_3, all of
        # them symmetric sums, so it returns the one coset where the full
        # set refuses: those sums are not integral at 3 digits
        assert reference_passing(G, roots) == []
        result = label_roots(G, roots)
        assert result.permutation == next(coset_representatives(G))
        assert result.candidates_passed == 1
    else:
        assert_labels_like_reference(G, roots)


@pytest.mark.parametrize("text,generators,count",
                         [("x^4-2", D4, 3), ("x^6-2", D6, 4)])
def test_dihedral_pure_powers_pass_pinned_candidate_counts(text, generators,
                                                           count):
    passing = assert_labels_like_reference(*budget_roots(text, generators))
    assert len(passing) == count


@pytest.mark.parametrize("text,generators", [
    ("x^2-1" + "0" * 240, "(1,2)"),
    ("x^2-1" + "0" * 400, "(1,2)"),
    ("x^3-3" + "0" * 400 + "x-1" + "0" * 600, "(1,2,3)"),
])
def test_candidates_whose_powers_overflow_are_kept(text, generators):
    # roots near 1e120 or 1e200: their products or squares overflow a
    # float, and the mpc test labels them
    passing = assert_labels_like_reference(*budget_roots(text, generators))
    assert passing[0].is_identity()
    report = solve(text, generators)
    assert report.labeling.is_identity()
    assert report.verification is not None


def test_label_roots_reads_one_coset_when_the_first_passes(monkeypatch):
    # x^7 - 2 under F42: the first of the 120 cosets is confirmed, so the
    # walk yields one representative and one test evaluates the orbit sums
    G, roots = budget_roots("x^7-2", F42)
    read, calls = [], []
    walk, orbit_value = oracle.coset_representatives, oracle._orbit_value

    def counted_walk(*args):
        for rep in walk(*args):
            read.append(rep)
            yield rep

    def counted_orbit_value(orbit, values):
        calls.append(orbit)
        return orbit_value(orbit, values)

    monkeypatch.setattr(oracle, "coset_representatives", counted_walk)
    monkeypatch.setattr(oracle, "_orbit_value", counted_orbit_value)
    assert label_roots(G, roots).candidates_passed == 1
    assert len(read) == 1
    assert len(calls) <= len(default_labeling_invariants(G))


def test_label_roots_stops_at_the_first_confirmed_candidate(monkeypatch):
    G, roots = budget_roots("x^6-2", D6)
    calls = []
    orbit_value = oracle._orbit_value

    def counted_orbit_value(orbit, values):
        calls.append(orbit)
        return orbit_value(orbit, values)

    monkeypatch.setattr(oracle, "_orbit_value", counted_orbit_value)
    result = label_roots(G, roots)
    # four of the 60 cosets pass; the first is confirmed, and the walk
    # reads no further
    assert result.candidates_passed == 1
    assert len(calls) <= len(default_labeling_invariants(G))

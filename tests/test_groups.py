import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radicalroots import (InputSyntaxError, NotSolvable, Permutation,
                          UnsupportedInput, closure, composition_series,
                          coset_representatives, groups, orbit_sum_invariant,
                          parse_cycles, parse_polynomial)
from radicalroots.pipeline import as_generators
from tests.conftest import load_perfbench


def dihedral(k):
    rot = parse_cycles("(" + ",".join(map(str, range(1, k + 1))) + ")", k)
    refl = Permutation(tuple(k + 1 - j for j in range(1, k + 1)))
    return closure([rot, refl])


def symmetric(n):
    if n == 1:
        return closure([Permutation.identity(1)])
    gens = [parse_cycles("(1,2)", n)]
    if n > 2:
        gens.append(parse_cycles("(" + ",".join(map(str, range(1, n + 1))) + ")", n))
    return closure(gens)


def test_parse_cycles_examples():
    assert parse_cycles("(1,2,3,4,5)", 5).images == (2, 3, 4, 5, 1)
    assert parse_cycles("(1,4)(2,3)", 5).images == (4, 3, 2, 1, 5)
    assert parse_cycles("", 5).is_identity()
    assert parse_cycles("()", 3).is_identity()
    assert parse_cycles(" (1, 2) ", 2).images == (2, 1)


@pytest.mark.parametrize("bad", ["(1,1)", "(1,2)(2,3)", "(0,1)", "(1,9)",
                                 "1,2", "(1,2"])
def test_parse_cycles_errors(bad):
    with pytest.raises(InputSyntaxError):
        parse_cycles(bad, 5)


def test_composition_convention_left_action():
    s1 = parse_cycles("(1,2,3,4,5)", 5)
    s2 = parse_cycles("(1,4)(2,3)", 5)
    # (s2*s1)(1) = s2(s1(1)) = s2(2) = 3
    assert (s2 * s1)(1) == 3


def test_permutation_inverse_and_power():
    g = parse_cycles("(1,2,3)(4,5)", 5)
    assert (g * g.inverse()).is_identity()
    assert g.power(6).is_identity()
    assert g.power(2) == g * g
    assert g.power(-1) == g.inverse()
    assert str(Permutation.identity(3)) == "()"


def test_closure_d5(d5):
    assert d5.order == 10


def test_closure_identity_only():
    G = closure([Permutation.identity(4)])
    assert G.order == 1


def test_closure_s3():
    G = closure([parse_cycles("(1,2)", 3), parse_cycles("(1,2,3)", 3)])
    assert G.order == 6


def test_closure_cap(monkeypatch):
    monkeypatch.setattr(groups, "DEFAULT_ORDER_CAP", 50)
    with pytest.raises(UnsupportedInput):
        closure([parse_cycles("(1,2)", 5), parse_cycles("(1,2,3,4,5)", 5)])


def test_composition_series_d5(d5):
    series = composition_series(d5)
    assert [(str(s), p) for s, p in series.steps] == \
        [("(1,2,3,4,5)", 5), ("(1,4)(2,3)", 2)]


def test_composition_series_c2():
    G = closure([parse_cycles("(1,2)", 2)])
    series = composition_series(G)
    assert [(str(s), p) for s, p in series.steps] == [("(1,2)", 2)]


def test_composition_series_s3():
    G = closure([parse_cycles("(1,2)", 3), parse_cycles("(1,2,3)", 3)])
    series = composition_series(G)
    assert [(str(s), p) for s, p in series.steps] == \
        [("(1,2,3)", 3), ("(1,2)", 2)]


def test_composition_series_deterministic(d5):
    a = composition_series(d5)
    b = composition_series(d5)
    assert a.steps == b.steps


def validate_series(G, series):
    assert series.order == G.order
    gens = [sigma for sigma, _ in series.steps]
    chain = [frozenset({Permutation.identity(G.degree).images})]
    chain += [frozenset(e.images for e in closure(gens[:i]).elements)
              for i in range(1, series.length + 1)]
    assert chain[-1] == frozenset(e.images for e in G.elements)
    for i, (sigma, p) in enumerate(series.steps):
        lower, upper = chain[i], chain[i + 1]
        # prime index and coset generator
        assert len(upper) == p * len(lower)
        assert sigma.images in upper and sigma.images not in lower
        assert sigma.power(p).images in lower
        # normality of G_{i-1} in G_i: conjugation by sigma_i stays inside
        sigma_inv = sigma.inverse()
        for images in lower:
            h = Permutation(images)
            assert (sigma * h * sigma_inv).images in lower
        prod = 1
        for q in series.primes[:i + 1]:
            prod *= q
        assert prod == len(upper)


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_series_invariants_dihedral(k):
    G = dihedral(k)
    validate_series(G, composition_series(G))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_series_invariants_symmetric(n):
    G = symmetric(n)
    validate_series(G, composition_series(G))


def test_series_invariants_a4():
    G = closure([parse_cycles("(1,2,3)", 4), parse_cycles("(2,3,4)", 4)])
    assert G.order == 12
    validate_series(G, composition_series(G))


# the series of the first instance of each group in the four benchmark
# workloads (default seed), and of F272, F342 and F506, as the refinement
# built them when it closed <H, sigma> from generators: (sigma, p) per step
PINNED_SERIES = {
    "C2 x^2-32": [("(1,2)", 2)],
    "S3 x^3-2": [("(1,2,3)", 3), ("(1,2)", 2)],
    "C3 x^3-3x-1": [("(1,2,3)", 3)],
    "C5 deg-5 cyclic": [("(1,2,3,4,5)", 5)],
    "C6 deg-6 cyclic": [("(1,4)(2,5)(3,6)", 2), ("(1,2,3,4,5,6)", 3)],
    "D5 quintic": [("(1,2,3,4,5)", 5), ("(1,4)(2,3)", 2)],
    "S4 x^4+x+1": [("(1,2)(3,4)", 2), ("(1,3)(2,4)", 2), ("(2,3,4)", 3),
                   ("(1,2,3,4)", 2)],
    "F20 x^5-2": [("(1,2,3,4,5)", 5), ("(2,5)(3,4)", 2), ("(2,3,5,4)", 2)],
    "F42 x^7-2": [("(1,2,3,4,5,6,7)", 7), ("(2,7)(3,6)(4,5)", 2),
                  ("(2,4,3,7,5,6)", 3)],
    "D6 x^6-2": [("(1,3,5)(2,4,6)", 3), ("(1,2,3,4,5,6)", 2),
                 ("(2,6)(3,5)", 2)],
    "D4 x^4-2": [("(1,3)(2,4)", 2), ("(1,2,3,4)", 2), ("(2,4)", 2)],
    "C16 Phi17 g=3": [
        ("(1,9)(2,10)(3,11)(4,12)(5,13)(6,14)(7,15)(8,16)", 2),
        ("(1,5,9,13)(2,6,10,14)(3,7,11,15)(4,8,12,16)", 2),
        ("(1,3,5,7,9,11,13,15)(2,4,6,8,10,12,14,16)", 2),
        ("(1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16)", 2)],
    "C18 Phi19 g=2": [
        ("(1,10)(2,11)(3,12)(4,13)(5,14)(6,15)(7,16)(8,17)(9,18)", 2),
        ("(1,4,7,10,13,16)(2,5,8,11,14,17)(3,6,9,12,15,18)", 3),
        ("(1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18)", 3)],
    "F110 x^11-2": [("(1,2,3,4,5,6,7,8,9,10,11)", 11),
                    ("(2,11)(3,10)(4,9)(5,8)(6,7)", 2),
                    ("(2,3,5,9,6,11,10,8,4,7)", 5)],
    "F156 x^13-2": [("(1,2,3,4,5,6,7,8,9,10,11,12,13)", 13),
                    ("(2,13)(3,12)(4,11)(5,10)(6,9)(7,8)", 2),
                    ("(2,9,13,6)(3,4,12,11)(5,7,10,8)", 2),
                    ("(2,3,5,9,4,7,13,12,10,6,11,8)", 3)],
    "F272 x^17-2": [
        ("(1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17)", 17),
        ("(2,17)(3,16)(4,15)(5,14)(6,13)(7,12)(8,11)(9,10)", 2),
        ("(2,14,17,5)(3,10,16,9)(4,6,15,13)(7,11,12,8)", 2),
        ("(2,10,14,16,17,9,5,3)(4,11,6,12,15,8,13,7)", 2),
        ("(2,4,10,11,14,6,16,12,17,15,9,8,5,13,3,7)", 2)],
    "F342 x^19-2": [
        ("(1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19)", 19),
        ("(2,19)(3,18)(4,17)(5,16)(6,15)(7,14)(8,13)(9,12)(10,11)", 2),
        ("(2,9,8,19,12,13)(3,17,15,18,4,6)(5,14,10,16,7,11)", 3),
        ("(2,3,5,9,17,14,8,15,10,19,18,16,12,4,7,13,6,11)", 3)],
    "F506 x^23-2": [
        ("(1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23)",
         23),
        ("(2,23)(3,22)(4,21)(5,20)(6,19)(7,18)(8,17)(9,16)(10,15)(11,14)"
         "(12,13)", 2),
        ("(2,6,3,11,5,21,9,18,17,12,10,23,19,22,14,20,4,16,7,8,13,15)", 11)],
}


def benchmark_group(name):
    """The group of the benchmark instance ``name``."""
    workloads = load_perfbench("workloads")
    instances = [inst for make in workloads.WORKLOADS.values()
                 for inst in make(workloads.DEFAULT_SEED)]
    instances += [workloads.pure_power(group, n, 2, unit) for group, n, unit
                  in (("F272", 17, 3), ("F342", 19, 2), ("F506", 23, 5))]
    inst = next(inst for inst in instances if inst.name == name)
    degree = parse_polynomial(inst.poly).degree
    return closure(as_generators(inst.generators, degree))


@pytest.mark.parametrize("name", PINNED_SERIES)
def test_series_of_the_benchmark_groups(name):
    G = benchmark_group(name)
    series = composition_series(G)
    validate_series(G, series)
    assert [(sigma.images, p) for sigma, p in series.steps] == [
        (parse_cycles(text, G.degree).images, p)
        for text, p in PINNED_SERIES[name]]


def test_not_solvable_s5_a5_s6():
    s5 = symmetric(5)
    with pytest.raises(NotSolvable):
        composition_series(s5)
    a5 = closure([parse_cycles("(1,2,3,4,5)", 5), parse_cycles("(1,2,3)", 5)])
    assert a5.order == 60
    with pytest.raises(NotSolvable):
        composition_series(a5)
    with pytest.raises(NotSolvable):
        composition_series(symmetric(6))


def test_trivial_group_series():
    G = closure([Permutation.identity(3)])
    series = composition_series(G)
    assert series.steps == () and series.order == 1


def test_coset_representatives_d5(d5):
    reps = list(coset_representatives(d5))
    assert len(reps) == 12
    assert reps[0].is_identity()
    # pairwise distinct cosets: r1^-1 * r2 never lands in G
    elements = {e.images for e in d5.elements}
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            assert (reps[i].inverse() * reps[j]).images not in elements


def test_coset_representatives_full_group():
    for n in (2, 3, 4):
        G = symmetric(n)
        reps = list(coset_representatives(G))
        assert len(reps) == 1 and reps[0].is_identity()


def test_coset_representatives_trivial_group():
    G = closure([Permutation.identity(3)])
    assert len(list(coset_representatives(G))) == 6


@pytest.mark.parametrize("degree,generators", [
    (5, "(1,2,3,4,5);(1,4)(2,3)"), (4, "(1,2,3,4);(2,4)"),
    (6, "(1,2,3,4,5,6);(2,6)(3,5)"), (7, "(1,2,3,4,5,6,7);(2,4,3,7,5,6)"),
    (4, "(1,2)(3,4)")])
def test_coset_representatives_match_permutation_products(degree, generators):
    G = closure([parse_cycles(t, degree) for t in generators.split(";")])
    reps, covered = [], set()
    for images in itertools.permutations(range(1, degree + 1)):
        if images not in covered:
            reps.append(Permutation(images))
            covered.update((reps[-1] * g).images for g in G.elements)
    assert list(coset_representatives(G)) == reps


def test_coset_representatives_degree_cap():
    # the cap raises at the call, before anything is read
    G = closure([Permutation.identity(9)])
    with pytest.raises(UnsupportedInput):
        coset_representatives(G)


def test_coset_representatives_walk_only_as_far_as_read(monkeypatch):
    # the identity is the first representative, so reading it takes the
    # first permutation of the walk; a list of all 8!/16 cosets takes 8!
    read = []
    permutations = itertools.permutations

    def counted(*args):
        for images in permutations(*args):
            read.append(images)
            yield images

    monkeypatch.setattr(groups.itertools, "permutations", counted)
    reps = coset_representatives(dihedral(8))
    assert next(reps).is_identity()
    assert len(read) == 1


def test_orbit_sum_examples(d5):
    s3 = symmetric(3)
    assert orbit_sum_invariant(s3, (1, 0, 0)) == \
        [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    orbit = orbit_sum_invariant(d5, (1, 2, 0, 0, 0))
    assert d5.order % len(orbit) == 0 and len(orbit) == 10
    assert orbit_sum_invariant(d5, (1, 1, 1, 1, 1)) == [(1, 1, 1, 1, 1)]


@given(vec=st.lists(st.integers(0, 3), min_size=5, max_size=5))
@settings(max_examples=40, deadline=None)
def test_orbit_length_divides_group_order(vec, d5):
    orbit = orbit_sum_invariant(d5, tuple(vec))
    assert d5.order % len(orbit) == 0

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radicalroots import (InputSyntaxError, NotSolvable, Permutation,
                          UnsupportedInput, closure, composition_series,
                          coset_representatives, groups, orbit_sum_invariant,
                          parse_cycles)


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
    reps = coset_representatives(d5)
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
        reps = coset_representatives(G)
        assert len(reps) == 1 and reps[0].is_identity()


def test_coset_representatives_trivial_group():
    G = closure([Permutation.identity(3)])
    reps = coset_representatives(G)
    assert len(reps) == 6


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
    assert coset_representatives(G) == reps


def test_coset_representatives_degree_cap():
    G = closure([Permutation.identity(9)])
    with pytest.raises(UnsupportedInput):
        coset_representatives(G)


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

import random
from fractions import Fraction as Q

import pytest

from weylblocks import (
    build_root_system,
    dominant_character,
    dot_action,
    generate_group,
    irrep_weight_multiset,
    linked,
    translate_verma,
    weyl_dimension,
    zero_weight_multiplicity,
)
from weylblocks.cat_o import linear_dominant_rep, linear_orbit

from conftest import w


def test_small_multisets(a1, a2):
    assert irrep_weight_multiset(a1, w(2)) == \
        {w(2): 1, w(0): 1, w(-2): 1}
    assert irrep_weight_multiset(a1, w(1)) == {w(1): 1, w(-1): 1}
    adjoint = irrep_weight_multiset(a2, w(1, 1))
    assert adjoint[w(0, 0)] == 2
    assert sum(adjoint.values()) == 8


def test_dominant_characters(a1, a2, a3):
    assert dominant_character(a1, w(5)) == {(5,): 1, (3,): 1, (1,): 1}
    # the 27-dimensional irreducible of sl3: its zero weight has mult. 3
    assert dominant_character(a2, w(2, 2)) == \
        {(2, 2): 1, (3, 0): 1, (0, 3): 1, (1, 1): 2, (0, 0): 3}
    adjoint = dominant_character(a3, w(1, 0, 1))
    assert adjoint == {(1, 0, 1): 1, (0, 0, 0): 3}
    # integer keys, found by Fraction weights too, in depth order
    assert all(type(x) is int for v in adjoint for x in v)
    assert adjoint[w(0, 0, 0)] == 3
    assert list(dominant_character(a2, w(2, 2))) == \
        [(2, 2), (3, 0), (0, 3), (1, 1), (0, 0)]


def test_input_validation(a1):
    with pytest.raises(ValueError):
        irrep_weight_multiset(a1, w(Q(1, 2)))
    with pytest.raises(ValueError):
        irrep_weight_multiset(a1, w(-1))


def test_zero_weight_multiplicity(a1, a2):
    assert zero_weight_multiplicity(a1, w(2)) == 1
    assert zero_weight_multiplicity(a1, w(1)) == 0
    assert zero_weight_multiplicity(a2, w(1, 1)) == 2


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "A3", "G2"])
def test_adjoint_zero_weight_is_rank(label):
    datum = build_root_system(label)
    theta = datum.positive_roots[-1].as_weight
    assert zero_weight_multiplicity(datum, theta) == datum.rank


def test_multiset_is_group_invariant(b2):
    multiset = irrep_weight_multiset(b2, w(1, 2))
    for v, m in multiset.items():
        for s in b2.simple_reflections:
            assert multiset[s.act(v)] == m


def test_mass_equals_dimension_formula(a3):
    rng = random.Random(41)
    for _ in range(6):
        highest = tuple(Q(rng.randint(0, 2)) for _ in range(3))
        multiset = irrep_weight_multiset(a3, highest)  # self-checks mass
        assert sum(multiset.values()) == weyl_dimension(a3, highest)


def test_linked(a1):
    assert linked(a1, w(0), w(-2))
    assert not linked(a1, w(0), w(1))
    assert linked(a1, w(Q(1, 3)), w(Q(1, 3)))


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_linked_matches_orbit_membership(label):
    datum = build_root_system(label)
    group = generate_group(datum)
    seen = set()
    for x in (w(0, 0), w(-1, 0), w(-1, -1), w(2, -3), w(Q(1, 2), 0),
              w(Q(1, 3), Q(-2, 3)), w(Q(-1, 2), Q(-1, 2))):
        orbit = {dot_action(datum, u, x) for u in group}
        # the orbit itself, and its points moved by a few lattice steps
        for y in sorted(orbit):
            for step in (w(0, 0), w(1, 0), w(0, -1), w(-2, 1)):
                z = tuple(a + b for a, b in zip(y, step))
                assert linked(datum, x, z) == (z in orbit), (x, z)
                seen.add(z in orbit)
    assert seen == {True, False}
    with pytest.raises(ValueError):
        linked(datum, w(0, 0), w(0))


def test_translate_verma_rank_one(a1):
    e = a1.identity
    s = a1.simple_reflections[0]
    combo = translate_verma(a1, w(0), w(-1), e)
    assert combo.terms == {w(-1): 1}
    combo = translate_verma(a1, w(0), w(-1), s)
    assert combo.terms == {w(-1): 1}  # s fixes the wall point
    combo = translate_verma(a1, w(0), w(0), s)
    assert combo.terms == {w(-2): 1}


def test_translate_verma_errors(a1):
    s = a1.simple_reflections[0]
    with pytest.raises(ValueError):
        translate_verma(a1, w(0), w(Q(-1, 2)), s)  # orbit not compatible
    with pytest.raises(ValueError):
        translate_verma(a1, w(-2), w(-1), s)  # lam not dominant
    half = build_root_system("A1")
    with pytest.raises(ValueError):
        translate_verma(half, w(Q(1, 2)), w(Q(-1, 2)), s)  # s not integral


def test_translate_verma_nonintegral_pair(a1):
    # a block where only the identity is integral
    combo = translate_verma(a1, w(Q(1, 2)), w(Q(-1, 2)), a1.identity)
    assert combo.terms == {w(Q(-1, 2)): 1}


@pytest.mark.parametrize("label,lam,mu", [
    ("A2", (0, 0), (-1, 0)),
    ("A2", (-1, 0), (-1, -1)),
    ("A3", (0, 0, 0), (0, -1, 0)),
    ("B2", (0, 0), (-1, 0)),
    ("G2", (0, 0), (-1, 0)),
    ("A3", (0, Q(1, 2), 0), (0, Q(-1, 2), 0)),
])
def test_translate_verma_whole_block(label, lam, mu):
    datum = build_root_system(label)
    lam = tuple(Q(c) for c in lam)
    mu = tuple(Q(c) for c in mu)
    from weylblocks import integral_datum

    idat = integral_datum(datum, lam)
    for u in idat.w_int.sorted_elements:
        combo = translate_verma(datum, lam, mu, u)
        assert combo.terms == {dot_action(datum, u, mu): 1}


def test_verma_keys_do_not_alias(a2):
    # two group elements with the same dot image produce one symbol
    lam = w(-1, 0)
    s1 = a2.simple_reflections[0]
    combo_e = translate_verma(a2, lam, lam, a2.identity)
    combo_s = translate_verma(a2, lam, lam, s1)
    assert combo_e == combo_s  # s1 stabilizes lam


def test_linear_dominant_rep_and_orbit(b2):
    v = w(-1, 3)
    dom = linear_dominant_rep(b2, v)
    assert all(c >= 0 for c in dom)
    assert dom in linear_orbit(b2, v)
    orbit = linear_orbit(b2, w(1, 1))
    assert len(orbit) == 8  # regular linear orbit has full group size

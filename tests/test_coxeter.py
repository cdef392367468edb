import random
import time
from fractions import Fraction as Q

import pytest

from weylblocks import (
    bruhat_leq,
    build_root_system,
    dot_stabilizer,
    double_cosets,
    from_word,
    generate_group,
    integral_datum,
    reduced_word,
    subgroup,
)
from weylblocks.coxeter import (
    CoxeterSystem,
    closure,
    coxeter_system,
    length,
    parabolic_transversals,
    sort_key,
    weyl_element_at,
)
from weylblocks.rootsys import WEYL_ORDER, GroupBoundExceeded, \
    parabolic_order, weyl_order

from conftest import check_enumeration, trivial_subgroup, w
from oracles import (
    brute_force_dot_stabilizer,
    bruhat_interval_by_subwords,
    closure_sorted_group,
    fresh_system,
)


def test_group_bound(a3):
    fresh = build_root_system.__wrapped__("B3")
    with pytest.raises(GroupBoundExceeded):
        generate_group(fresh, bound=10)


def test_reduced_words_are_reduced_and_lex_minimal(b2):
    for u in generate_group(b2):
        word = reduced_word(b2, u)
        assert len(word) == length(b2, u)
        assert from_word(b2, word) == u


def test_dot_stabilizer_examples(a1, a2):
    st = dot_stabilizer(a1, w(-1))
    assert st.order == 2
    assert dot_stabilizer(a1, w(0)).order == 1
    st = dot_stabilizer(a2, w(-1, 0))
    assert {reduced_word(a2, u) for u in st.elements} == {(), (1,)}


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "B2", "B3",
                                   "C3", "D4", "G2"])
def test_dot_stabilizer_against_brute_force(label):
    datum = build_root_system(label)
    rng = random.Random(17)
    for _ in range(50):
        lam = tuple(Q(rng.randint(-5, 5), rng.choice([1, 2, 3]))
                    for _ in range(datum.rank))
        assert dot_stabilizer(datum, lam).elements == \
            brute_force_dot_stabilizer(datum, lam)


def test_double_coset_examples(a2):
    group = frozenset(generate_group(a2))
    full = subgroup(a2, a2.simple_reflections)
    assert double_cosets(a2, group, full, full).count == 1
    triv = trivial_subgroup(a2)
    assert double_cosets(a2, group, triv, triv).count == 6
    s1 = subgroup(a2, [a2.simple_reflections[0]])
    s2 = subgroup(a2, [a2.simple_reflections[1]])
    dec = double_cosets(a2, group, s1, s2)
    assert dec.count == 2
    # partition, minimal representatives, mass balance
    seen = set()
    for rep, members in dec.cosets:
        assert rep == min(members, key=lambda u: sort_key(a2, u))
        assert not (members & seen)
        seen |= members
    assert seen == group


def test_double_coset_symmetry_random(a3):
    rng = random.Random(23)
    group = frozenset(generate_group(a3))
    simples = a3.simple_reflections
    for _ in range(8):
        h = subgroup(a3, rng.sample(simples, rng.randint(0, 3)))
        k = subgroup(a3, rng.sample(simples, rng.randint(0, 3)))
        ab = double_cosets(a3, group, h, k)
        ba = double_cosets(a3, group, k, h)
        assert ab.count == ba.count
        assert sum(len(m) for _, m in ab.cosets) == len(group)


def test_double_coset_validation(a2, a1):
    group = frozenset(generate_group(a2))
    not_subgroup = subgroup(a2, [a2.simple_reflections[0]])
    small = frozenset({a2.identity})
    with pytest.raises(ValueError):
        double_cosets(a2, small, not_subgroup, trivial_subgroup(a2))


def test_bruhat_examples(a2):
    s1, s2 = a2.simple_reflections
    e = a2.identity
    assert bruhat_leq(a2, e, s1 * s2)
    assert bruhat_leq(a2, s1, s1 * s2)
    assert not bruhat_leq(a2, s1 * s2, s2 * s1)


@pytest.mark.parametrize("label", ["A2", "B2", "A3", "G2"])
def test_bruhat_against_subword_oracle(label):
    datum = build_root_system(label)
    group = generate_group(datum)
    for u in group:
        interval = bruhat_interval_by_subwords(datum, u)
        for x in group:
            assert bruhat_leq(datum, x, u) == (x in interval)


def test_bruhat_endpoints(b2):
    group = generate_group(b2)
    w0 = max(group, key=lambda u: length(b2, u))
    for u in group:
        assert bruhat_leq(b2, u, w0)
        assert bruhat_leq(b2, b2.identity, u)
    # restricted to {e, simples}: only e below everything
    s1, s2 = b2.simple_reflections
    assert not bruhat_leq(b2, s1, s2)
    assert not bruhat_leq(b2, s2, s1)


def test_subgroup_closure_closed(a3):
    rng = random.Random(4)
    group = generate_group(a3)
    gens = [rng.choice(group) for _ in range(2)]
    handle = subgroup(a3, gens)
    els = handle.elements
    for x in els:
        assert x.inverse() in els
        for y in els:
            assert x * y in els


def test_group_bound_fails_before_enumerating():
    started = time.perf_counter()
    with pytest.raises(GroupBoundExceeded):
        generate_group(build_root_system("E7"))  # 2903040 elements
    assert time.perf_counter() - started < 2.0


@pytest.mark.parametrize("label", ["B5", "A6"])
def test_cold_enumeration_budget(label):
    fresh = build_root_system.__wrapped__(label)  # a datum with empty caches
    started = time.perf_counter()
    group = generate_group(fresh)
    assert time.perf_counter() - started < 10.0
    assert len(group) == WEYL_ORDER[label[0]](int(label[1:]))


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "A5", "B2", "B3",
                                   "B4", "B5", "C2", "C3", "C4", "C5", "D3",
                                   "D4", "D5", "G2", "F4", "A1xA1", "A2xB2"])
def test_generate_group_matches_sorted_closure(label):
    fresh = build_root_system.__wrapped__(label)
    assert generate_group(fresh) == closure_sorted_group(fresh)


@pytest.mark.parametrize("label", ["A3", "B3", "G2", "D4", "A1xA1"])
def test_enumeration_tables_match_fresh_system(label):
    datum = build_root_system.__wrapped__(label)
    args = (range(datum.rank), range(datum.num_positive))
    check_enumeration(coxeter_system(datum), fresh_system(datum, *args))


def test_enumeration_bound():
    datum = build_root_system.__wrapped__("B3")
    system = CoxeterSystem(datum, range(3), range(datum.num_positive))
    with pytest.raises(GroupBoundExceeded):
        system.elements(bound=47)
    assert len(system.elements(bound=48)) == 48


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "D4", "G2", "F4"])
def test_parabolic_order_matches_closure(label):
    # the order read off the Cartan matrix against the closure of the
    # chosen simple reflections
    datum = build_root_system(label)
    rng = random.Random(label)
    subsets = [(), tuple(range(datum.rank))] + [
        tuple(rng.sample(range(datum.rank), rng.randint(1, datum.rank)))
        for _ in range(4)]
    for subset in subsets:
        gens = [datum.simple_reflections[i] for i in subset]
        assert parabolic_order(datum.cartan_matrix, subset) == \
            len(closure(datum, gens))


@pytest.mark.parametrize("label", ["A1xA1", "A3", "B3", "C3", "G2", "D4",
                                   "F4", "D5"])
def test_weyl_element_at_numbers_the_whole_group(label):
    """x_n ... x_1 over the parabolic transversals meets every element of
    W exactly once, and each x in X_k is the shortest of its coset
    x W_{k-1}: no s_1..s_{k-1} is a right descent."""
    datum = build_root_system(label)
    group = generate_group(datum)
    drawn = [weyl_element_at(datum, i) for i in range(len(group))]
    assert len(set(drawn)) == len(group) and set(drawn) == set(group)
    system = coxeter_system(datum)
    for k, layer in enumerate(parabolic_transversals(datum), 1):
        assert layer[0].is_identity
        for x in layer:
            assert all(system.length(x * datum.simple_reflections[i])
                       > system.length(x) for i in range(k - 1))


def test_parabolic_chain_of_e8_lists_no_group():
    """The E8 chain from a datum with empty caches: its orbit sizes, and
    draws at both ends of the numbering, with W never enumerated."""
    datum = build_root_system.__wrapped__("E8")
    assert tuple(map(len, parabolic_transversals(datum))) == \
        (2, 2, 3, 10, 16, 27, 56, 240)
    assert weyl_element_at(datum, 0).is_identity
    longest = weyl_element_at(datum, weyl_order(datum) - 1)
    assert length(datum, longest) == datum.num_positive
    for index in (-1, weyl_order(datum)):
        with pytest.raises(ValueError, match="out of range"):
            weyl_element_at(datum, index)
    assert coxeter_system(datum)._enumeration is None


# reduced words of weyl_element_at at fixed indices, as numbered by the
# breadth-first orbit search over s_1..s_k that builds each transversal
PINNED_ELEMENTS = {
    "F4": {0: (), 1: (1,), 2: (2,), 7: (1, 3), 100: (1, 3, 2, 4),
           576: (4, 3, 2, 1, 3, 2, 3, 4),
           577: (2, 4, 3, 2, 1, 3, 2, 3, 4),
           1150: (2, 1, 3, 2, 1, 3, 2, 3, 4, 3, 2, 1, 3, 2, 3, 4, 3, 2, 1,
                  3, 2, 3, 4)},
    "E6": {7: (2, 3, 1), 100: (1, 2, 4, 2, 3, 4),
           577: (3, 1, 4, 5, 4, 2, 3, 1, 4),
           25920: (1, 4, 2, 3, 4, 5, 4, 2, 3, 4, 5, 6, 5),
           51838: (1, 2, 3, 1, 4, 2, 3, 1, 4, 3, 5, 4, 2, 3, 1, 4, 3, 5, 4,
                   2, 6, 5, 4, 2, 3, 1, 4, 3, 5, 4, 2, 6, 5, 4, 3)},
}

# the chamber generators, taken from the Schreier generators in the search
# order of the class orbit
PINNED_CHAMBERS = [
    ("D4", w(Q(1, 2), 0, 0, 0), 2, [(1, 2, 3, 4, 2, 1)]),
    ("D4", w(Q(1, 2), 0, Q(1, 2), Q(1, 2)), 4, [(1, 3), (1, 4)]),
    ("A3", w(Q(1, 4), Q(1, 4), Q(1, 4)), 4, [(3, 2, 1)]),
]


def test_orbit_search_order_is_pinned():
    """Two results read the order of the orbit search: the numbering of W
    and the chamber generators.  A reordered search changes them."""
    for label, pinned in PINNED_ELEMENTS.items():
        datum = build_root_system(label)
        for index, word in pinned.items():
            assert reduced_word(datum, weyl_element_at(datum, index)) == word
    for label, lam, order, words in PINNED_CHAMBERS:
        datum = build_root_system(label)
        chamber = integral_datum(datum, lam).chamber
        assert chamber.order == order
        assert [reduced_word(datum, g) for g in chamber.generators] == words

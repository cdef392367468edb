import json
import random
import time
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
    verma_translator,
    weyl_dimension,
    zero_weight_multiplicity,
)
from weylblocks import cat_o, cli, coxeter
from weylblocks.cat_o import linear_dominant_rep, linear_orbit
from weylblocks.coxeter import dot_stabilizer
from weylblocks.integral import _wsub, integral_datum
from weylblocks.rootsys import GroupBoundExceeded, _in_root_lattice, \
    _numerators, _reflect, dominant_dot_weight, parabolic_order

from conftest import dominant_weights_up_to_dim, w
from oracles import (
    brute_force_dot_orbit,
    closure_order,
    flat_box_dominant_character,
    fraction_act,
    fraction_classify_weight,
    fraction_dot_action,
    fraction_inverse,
    fraction_linear_dominant_rep,
    mat_vec,
    walk_only_translation,
)


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


def test_dominant_character_keeps_no_state_per_weight(a2):
    # 64 distinct highest weights leave the datum's memo as the first call
    # left it: the same keys, and no memoized table grown but the orbit
    # sizes, one per nonempty set of zero coordinates; a repeated call
    # recomputes an equal character
    tops = [w(a, b) for a in range(8) for b in range(8)]
    first = dominant_character(a2, tops[0])
    size = len(a2._memo)
    keys = set(a2._memo)
    sizes = {k: len(v) for k, v in a2._memo.items()
             if isinstance(v, dict) and k != "orbit_size"}
    chars = [dominant_character(a2, top) for top in tops[1:]]
    assert len(a2._memo) == size
    assert set(a2._memo) == keys
    assert {k: len(a2._memo[k]) for k in sizes} == sizes
    assert set(a2._memo["orbit_size"]) <= {(0,), (1,), (0, 1)}
    assert dominant_character(a2, tops[0]) == first
    assert dominant_character(a2, tops[-1]) == chars[-1]
    assert chars[-1] is not dominant_character(a2, tops[-1])


@pytest.mark.parametrize("label,cap", [
    ("A1", 400), ("A2", 1000), ("A3", 1000), ("B2", 1000), ("B3", 1000),
    ("C3", 1000), ("G2", 1000), ("A4", 2000), ("D4", 2000),
    ("B4", 1000), ("C4", 1000), ("F4", 1300), ("A5", 500), ("D5", 1000),
    ("E6", 700), ("B2xG2", 500),
])
def test_dominant_character_matches_flat_box_oracle(label, cap):
    # the dominant-only recursion gives the flat-box recursion's items, in
    # values and in order, on every dominant weight up to the cap
    datum = build_root_system(label)
    tops = dominant_weights_up_to_dim(datum, cap)
    assert len(tops) > 5
    for top in tops:
        assert list(dominant_character(datum, top).items()) == \
            list(flat_box_dominant_character(datum, top).items()), top


@pytest.mark.parametrize("label,top,box", [
    ("A1", (50_000_000,), 50_000_002),
    ("E8", (0, 0, 0, 0, 0, 0, 0, 1), 251_742_400),  # the adjoint
])
def test_dominant_character_refuses_a_box_over_the_cap(label, top, box):
    datum = build_root_system(label)
    started = time.perf_counter()
    with pytest.raises(GroupBoundExceeded) as exc:
        dominant_character(datum, w(*top))
    assert time.perf_counter() - started < 0.1
    assert str(exc.value) == \
        f"weight system box of size {box} is out of supported range"


def test_e7_adjoint_zero_weight_needs_no_group_enumeration():
    datum = build_root_system.__wrapped__("E7")  # cold: nothing memoized
    theta = datum.positive_roots[-1].as_weight
    started = time.perf_counter()
    assert zero_weight_multiplicity(datum, theta) == 7
    assert time.perf_counter() - started < 1.0
    system = datum._memo.get("coxeter")
    assert system is None or system._enumeration is None


# a nonintegral block per type, with integral systems B2xA1 in B3,
# A1xC2xA1 in C4, B4 in F4, A3 in D4, D5 in E6 and B3xA1 in B4
NONINTEGRAL_BLOCKS = {
    "G2": (0, Q(1, 3)), "B3": (Q(1, 2), 0, 0), "C4": (0, Q(1, 2), 0, 0),
    "F4": (Q(1, 2), 0, 0, 0), "D4": (Q(1, 2), 0, 0, 0),
    "E6": (Q(1, 2), 0, 0, 0, 0, 0), "B4": (Q(1, 2), -1, 0, 0),
}


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "C4", "D4", "F4", "G2",
                                   "A5", "B4", "D5", "E6"])
def test_stabilizer_order_matches_parabolic_order(label):
    # the height formula against enumeration: on every standard parabolic,
    # and on every subset of the integral simples of a nonintegral block,
    # read off the integral system's own Cartan matrix
    datum = build_root_system(label)
    systems = [(datum.cartan_matrix, datum.simple_reflections)]
    if label in NONINTEGRAL_BLOCKS:
        idat = integral_datum(datum, w(*NONINTEGRAL_BLOCKS[label]))
        systems.append((idat.cartan_matrix, idat.simple_reflections))
    for cartan, simples in systems:
        for zeros in range(1 << len(simples)):
            subset = [i for i in range(len(simples)) if zeros >> i & 1]
            assert parabolic_order(cartan, subset) == closure_order(
                datum, (simples[i] for i in subset)), (cartan, subset)


def test_stabilizer_order_of_e8(monkeypatch):
    # no element is enumerated, so W(E7) and W(E8) answer at once
    def no_enumeration(*args, **kwargs):
        raise AssertionError("a group was enumerated")

    monkeypatch.setattr(coxeter, "_layered_search", no_enumeration)
    cartan = build_root_system("E8").cartan_matrix
    assert parabolic_order(cartan, ()) == 1
    assert parabolic_order(cartan, range(7)) == 2_903_040
    assert parabolic_order(cartan, range(8)) == 696_729_600


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


@pytest.mark.parametrize("label", ["A1", "A1xA1", "A3", "B3", "C3", "G2",
                                   "D4", "F4"])
def test_linear_kernel_matches_fraction_oracles(label):
    datum = build_root_system(label)
    group = generate_group(datum)
    rng = random.Random(f"linear:{label}")
    for _ in range(40):
        v = tuple(Q(rng.randint(-12, 12), rng.randint(1, 6))
                  for _ in range(datum.rank))
        dom = linear_dominant_rep(datum, v)
        assert all(type(c) is Q for c in dom)
        assert dom == fraction_linear_dominant_rep(datum, v)
    for _ in range(4):
        v = tuple(Q(rng.randint(-3, 3), rng.randint(1, 6))
                  for _ in range(datum.rank))
        assert linear_orbit(datum, v) == {fraction_act(u, v) for u in group}


def _corpus_pairs(translatable_only=False):
    """(type, lam, mu) of each corpus entry with a mu; optionally only the
    pairs translate_verma accepts: both dominant, mu - lam a lattice
    weight."""
    with open(cli.default_corpus_path(), encoding="utf-8") as fh:
        entries = cli.load_corpus(json.load(fh))
    out = []
    for e in entries:
        if e.mu is None:
            continue
        datum = build_root_system(e.type_label)
        if translatable_only and not (
                fraction_classify_weight(datum, e.lam).dominant
                and fraction_classify_weight(datum, e.mu).dominant
                and all((a - b).denominator == 1
                        for a, b in zip(e.mu, e.lam))):
            continue
        out.append(pytest.param(e.type_label, e.lam, e.mu,
                                id=f"{e.index}-{e.type_label}"))
    return out


# dominant pairs whose stabilizers do not nest: the walls of lam and mu are
# different simple roots
UNNESTED_PAIRS = [
    pytest.param("A2", w(-1, 0), w(0, -1), id="A2-unnested"),
    pytest.param("B2", w(-1, 0), w(1, -1), id="B2-unnested"),
]


@pytest.mark.parametrize("label,lam,mu", _corpus_pairs() + UNNESTED_PAIRS)
def test_walls_decide_stabilizer_inclusion(label, lam, mu):
    datum = build_root_system(label)
    walls = [{r.index for r in fraction_classify_weight(datum, x)
              .singular_roots} for x in (lam, mu)]
    stabs = [dot_stabilizer(datum, x).elements for x in (lam, mu)]
    assert (walls[0] <= walls[1]) == (stabs[0] <= stabs[1])


@pytest.mark.parametrize("label,lam,mu", _corpus_pairs(True) + UNNESTED_PAIRS)
def test_translate_verma_asserts_exactly_when_stabilizers_nest(
        label, lam, mu, monkeypatch):
    # with every multiplicity of the character raised by one, the identity
    # fails; translate_verma must notice it iff Stab(lam) <= Stab(mu)
    datum = build_root_system(label)
    real = cat_o.irrep_weight_multiset
    monkeypatch.setattr(cat_o, "irrep_weight_multiset", lambda d, h: {
        nu: m + 1 for nu, m in real(d, h).items()})
    nested = dot_stabilizer(datum, lam).elements <= \
        dot_stabilizer(datum, mu).elements
    if nested:
        with pytest.raises(AssertionError):
            translate_verma(datum, lam, mu, datum.identity)
    else:
        translate_verma(datum, lam, mu, datum.identity)


@pytest.mark.parametrize("label,lam,mu", _corpus_pairs(True))
def test_translate_verma_selects_the_orbit_of_mu(label, lam, mu):
    # every shift w . lam + nu is kept iff it lies in the brute-force dot
    # orbit of mu, for every w in the integral Weyl group of lam
    datum = build_root_system(label)
    orbit = brute_force_dot_orbit(datum, mu)
    diff = tuple(a - b for a, b in zip(mu, lam))
    charset = irrep_weight_multiset(datum, fraction_linear_dominant_rep(
        datum, diff))
    outcomes = set()
    for u in integral_datum(datum, lam).w_int.sorted_elements:
        u_lam = fraction_dot_action(datum, u, lam)
        expected = {}
        for nu, m in charset.items():
            cand = tuple(a + b for a, b in zip(u_lam, nu))
            outcomes.add(cand in orbit)
            if cand in orbit:
                expected[cand] = m
        assert translate_verma(datum, lam, mu, u).terms == expected
    assert True in outcomes


def test_translate_verma_does_not_enumerate_the_group():
    datum = build_root_system.__wrapped__("E6")  # cold: nothing memoized
    lam = w(0, 0, 0, 0, 0, 0)
    mu = w(-1, 0, 0, 0, 0, 0)
    assert translate_verma(datum, lam, mu, datum.identity).terms == {mu: 1}
    system = datum._memo.get("coxeter")
    assert system is None or system._enumeration is None


@pytest.mark.parametrize("label,lam,mu", [
    p for p in _corpus_pairs(True) if p.values[0] in ("A3", "B3", "G2", "A4")
] + UNNESTED_PAIRS + [
    pytest.param("G2", w(-1, 0), w(0, -1), id="G2-unnested"),
])
def test_verma_translator_matches_translate_verma(label, lam, mu):
    """One translator per pair gives translate_verma's image, and the
    walk-only selection's terms, at every w in W_int; on the unnested
    pairs no identity is asserted."""
    datum = build_root_system(label)
    translate = verma_translator(datum, lam, mu)
    for u in integral_datum(datum, lam).int_elements():
        combo = translate(u)
        assert combo == translate_verma(datum, lam, mu, u)
        assert combo.terms == walk_only_translation(datum, lam, mu, u)


def test_verma_translator_raises_where_the_error_is(a1):
    """The pair's errors when the translator is built, with no w at hand;
    a w outside W_int only when it is translated."""
    for lam, mu, message in [(w(-2), w(-1), "lam = .* is not dominant"),
                             (w(0), w(-2), "mu = .* is not dominant"),
                             (w(0), w(Q(-1, 2)), "not a lattice weight")]:
        with pytest.raises(ValueError, match=message):
            verma_translator(a1, lam, mu)
    e, s = a1.identity, a1.simple_reflections[0]
    translate = verma_translator(a1, w(Q(1, 2)), w(Q(-1, 2)))  # W_int = {e}
    with pytest.raises(ValueError, match="integral Weyl group"):
        translate(s)
    assert translate(e).terms == {w(Q(-1, 2)): 1}


@pytest.mark.parametrize("label,lam,mu", _corpus_pairs(True) + UNNESTED_PAIRS)
def test_norm_test_keeps_the_walk_only_selection(label, lam, mu):
    # the invariant-norm rejection in front of the walk changes no term,
    # nested stabilizers or not
    datum = build_root_system(label)
    for u in integral_datum(datum, lam).w_int.sorted_elements:
        assert translate_verma(datum, lam, mu, u).terms == \
            walk_only_translation(datum, lam, mu, u)


@pytest.mark.parametrize("label", ["A1xA1", "A3", "B3", "C3", "G2", "F4"])
def test_invariant_form_is_weyl_invariant(label):
    datum = build_root_system(label)
    form = cat_o._invariant_form(datum)
    rng = random.Random(f"form:{label}")
    for _ in range(20):
        x = [rng.randint(-9, 9) for _ in range(datum.rank)]
        norm = cat_o._quadratic(form, x)
        assert norm > 0 or not any(x)
        for i in range(datum.rank):
            assert cat_o._quadratic(
                form, _reflect(datum.cartan_matrix, x, i)) == norm


@pytest.mark.parametrize("label", ["A1", "A1xA1", "A3", "B3", "C3", "G2",
                                   "D4", "F4"])
def test_integral_membership_matches_fraction_oracle(label):
    # translate_verma accepts w exactly when w . lam - lam has integer
    # simple-root coordinates, computed here in Fractions
    datum = build_root_system(label)
    group = generate_group(datum)
    inverse = fraction_inverse(datum.cartan_matrix)
    rng = random.Random(f"membership:{label}")
    outcomes = set()
    for _ in range(12):
        lam = dominant_dot_weight(datum, tuple(
            Q(rng.randint(-12, 12), rng.randint(1, 6))
            for _ in range(datum.rank)))
        for u in rng.sample(group, min(len(group), 24)):
            moved = _wsub(fraction_dot_action(datum, u, lam), lam)
            inside = all(c.denominator == 1
                         for c in mat_vec(inverse, moved))
            assert _in_root_lattice(datum, *_numerators(moved)) == inside
            try:
                translate_verma(datum, lam, lam, u)
                accepted = True
            except ValueError as exc:
                assert "integral Weyl group" in str(exc)
                accepted = False
            assert accepted == inside, (lam, u)
            outcomes.add(inside)
    assert outcomes == {True, False}

import dataclasses
import json
import random
from fractions import Fraction as Q

import pytest

from weylblocks import (
    are_compatible,
    build_root_system,
    chamber_decompose,
    classify_weight,
    dominant_dot_rep,
    dot_action,
    dot_stabilizer,
    enumerate_Xi,
    find_regular_dominant,
    find_subgeneric,
    integral_datum,
    lambda_sharp,
    tau,
)
from weylblocks.coxeter import (
    bruhat_leq,
    coxeter_system,
    double_cosets,
    generate_group,
    length,
    reduced_word,
)
import weylblocks
from weylblocks import coxeter, hecke, integral, soergel
from weylblocks.cli import default_corpus_path, load_corpus
from weylblocks.coxeter import CoxeterSystem
from weylblocks.integral import IntegralDatum, _is_lattice, _validate, _wsub, \
    lattice_mover
from weylblocks.rootsys import GroupBoundExceeded, dominant_dot_weight, \
    torsion_group, weyl_order

from conftest import check_enumeration, w
from oracles import closure_sorted_w_int, fraction_act, \
    fraction_dominant_dot_rep, fraction_enumerate_Xi, fraction_inverse, \
    fresh_system, mat_vec, per_chamber_index, scan_chamber, \
    scan_chamber_decompose, scan_find_regular_dominant, scan_find_subgeneric, \
    scan_lattice_movers, sorted_double_cosets


def test_integral_datum_full_block(a2):
    idat = integral_datum(a2, w(0, 0))
    assert len(idat.integral_positive) == 3
    assert idat.w_int.order == 6
    assert len(idat.w_ext) == 6
    assert idat.chamber.order == 1


def test_integral_datum_empty_block(a1):
    idat = integral_datum(a1, w(Q(1, 2)))
    s = a1.simple_reflections[0]
    assert idat.integral_positive == ()
    assert idat.w_int.order == 1
    assert len(idat.w_ext) == 2
    assert idat.chamber.elements == {a1.identity, s}
    assert str(tau(idat, s)) == "1 mod 2"


def test_integral_datum_a3_half_block(a3, a3_block):
    idat = a3_block
    assert len(idat.w_ext) == 8
    assert idat.w_int.order == 4
    # W_int is elementary abelian, generated by the two outer reflections
    s1, s2, s3 = a3.simple_reflections
    assert idat.w_int.elements == {a3.identity, s1, s3, s1 * s3}
    assert idat.chamber.order == 2
    c = next(x for x in idat.chamber.elements if not x.is_identity)
    assert c * s1 * c.inverse() == s3
    assert str(tau(idat, c)) == "2 mod 4"
    # as a permutation c swaps the two outer root slots and reverses the
    # middle one onto the lowest root (the coordinate transposition pattern)
    theta = a3.positive_roots[-1]
    assert c.root_perm[a3.simple_root(1).index] == a3.simple_root(3).index
    assert c.root_perm[a3.simple_root(3).index] == a3.simple_root(1).index
    assert c.root_perm[a3.simple_root(2).index] == \
        theta.index + a3.num_positive


def test_tau_errors_outside_extended_group(a1):
    idat = integral_datum(a1, w(Q(1, 3)))
    s = a1.simple_reflections[0]
    assert len(idat.w_ext) == 1
    with pytest.raises(ValueError):
        tau(idat, s)


def test_tau_is_homomorphism_small_blocks(a3, a3_block):
    for idat in (a3_block, integral_datum(a3, w(0, 0, 0))):
        for a in idat.w_ext:
            for b in idat.w_ext:
                assert tau(idat, a * b) == tau(idat, a) + tau(idat, b)
        for u in idat.w_ext:
            assert tau(idat, u).is_zero == (u in idat.w_int.elements)


def test_chamber_decompose(a1, a3, a3_block):
    idat = integral_datum(a1, w(Q(1, 2)))
    s = a1.simple_reflections[0]
    c, u = chamber_decompose(idat, s)
    assert c == s and u.is_identity
    for x in a3_block.w_ext:
        c, u = chamber_decompose(a3_block, x)
        assert c in a3_block.chamber.elements
        assert u in a3_block.w_int.elements
        assert c * u == x
    with pytest.raises(ValueError):
        chamber_decompose(a3_block, a3.simple_reflections[1])


def test_lambda_sharp_examples(a1, a2):
    idat = integral_datum(a2, w(1, 0))
    assert lambda_sharp(idat) == w(1, 0)
    idat = integral_datum(a1, w(Q(1, 2)))
    assert lambda_sharp(idat) == w(0)
    # only the highest root is integral; the solution lives on its line
    idat = integral_datum(a2, w(Q(1, 2), Q(1, 2)))
    assert [r.simple_coords for r in idat.integral_simples] == [(1, 1)]
    assert lambda_sharp(idat) == w(Q(1, 2), Q(1, 2))


def test_lambda_sharp_matches_on_integral_coroots(b2):
    rng = random.Random(9)
    cases = [(b2, tuple(Q(rng.randint(-4, 4), rng.choice([1, 2, 3]))
                        for _ in range(2))) for _ in range(20)]
    cases += [(build_root_system(p.values[0]), p.values[1])
              for p in _corpus_and_block_weights()]
    for datum, lam in cases:
        idat = integral_datum(datum, lam)
        sharp = lambda_sharp(idat)
        for r in idat.integral_positive:
            assert r.pair(sharp) == r.pair(lam)
        # and it lies on the integral span: the Fraction solution there
        x = mat_vec(fraction_inverse(idat.cartan_matrix),
                    [r.pair(lam) for r in idat.integral_simples])
        assert sharp == tuple(
            sum(c * r.as_weight[k] for c, r in zip(x, idat.integral_simples))
            for k in range(datum.rank))


def test_dominant_dot_rep(a1, a3, a3_block):
    idat = integral_datum(a1, w(0))
    u, dom = dominant_dot_rep(idat, w(-2))
    assert dom == w(0) and u == a1.simple_reflections[0]
    u, dom = dominant_dot_rep(idat, w(3))
    assert dom == w(3) and u.is_identity
    lam = a3_block.lam
    s1 = a3.simple_reflections[0]
    nu = dot_action(a3, s1, lam)
    u, dom = dominant_dot_rep(a3_block, nu)
    assert dom == lam and u == s1
    with pytest.raises(ValueError):
        dominant_dot_rep(a3_block, w(Q(1, 3), 0, 0))


def test_find_regular_dominant_examples(a1, a2):
    assert find_regular_dominant(integral_datum(a1, w(Q(1, 2)))) == w(Q(1, 2))
    assert find_regular_dominant(integral_datum(a1, w(-1))) == w(0)
    assert find_regular_dominant(integral_datum(a2, w(0, 0))) == w(0, 0)


def test_find_subgeneric_examples(a1, a2):
    assert find_subgeneric(integral_datum(a1, w(0)), 1) == w(-1)
    assert find_subgeneric(integral_datum(a2, w(0, 0)), 1) == w(-1, 0)
    with pytest.raises(ValueError):
        find_subgeneric(integral_datum(a2, w(0, 0)), 3)


@pytest.mark.parametrize("label,lam", [
    ("A1", (0,)), ("A2", (0, 0)), ("A3", (0, Q(1, 2), 0)),
    ("B2", (Q(1, 2), 0)), ("B3", (0, 0, Q(1, 2))), ("G2", (0, Q(1, 3))),
    ("C3", (Q(1, 2), 0, 0)), ("A4", (Q(1, 2), 0, 0, Q(1, 2))),
])
def test_subgeneric_postconditions(label, lam):
    datum = build_root_system(label)
    idat = integral_datum(datum, tuple(Q(c) for c in lam))
    nu = find_regular_dominant(idat)
    cls = classify_weight(datum, nu)
    assert cls.dominant and cls.regular and _is_lattice(_wsub(nu, idat.lam))
    for j in range(1, idat.rank + 1):
        mu_j = find_subgeneric(idat, j)
        assert _is_lattice(_wsub(mu_j, idat.lam))
        assert classify_weight(datum, mu_j).dominant
        wall = idat.simple_reflections[j - 1]
        assert dot_stabilizer(datum, mu_j).elements == {datum.identity, wall}


def test_are_compatible(a1):
    assert are_compatible(a1, w(Q(1, 3)), w(Q(1, 3)))
    assert not are_compatible(a1, w(0), w(Q(1, 2)))
    assert are_compatible(a1, w(Q(1, 2)), w(Q(1, 2)) )
    assert are_compatible(a1, w(Q(1, 2)), w(Q(-3, 2)))
    with pytest.raises(ValueError):
        are_compatible(a1, w(0, 0), w(0))


H, T = Q(1, 2), Q(1, 3)


@pytest.mark.parametrize("label, mu, lam", [
    ("A3", (0, H, 0), (0, H, 0)),
    ("A3", (H, 0, H), (0, H, 0)),
    ("A3", (0, H, 0), (T, 0, 0)),           # incompatible: nothing moves
    ("B3", (0, 0, H), (0, 0, H)),
    ("B3", (H, -H, H), (0, 0, H)),
    ("C4", (0, 0, 0, H), (0, 0, 0, H)),
    ("C4", (H, 0, 0, 0), (0, 0, 0, H)),     # incompatible
    ("D4", (H, 0, 0, 0), (H, 0, 0, 0)),
    ("D4", (0, -H, H, H), (H, 0, 0, 0)),
    ("A5", (T, 0, 0, 0, 0), (T, 0, 0, 0, 0)),
    ("A5", (0, 0, -T, T, 0), (T, 0, 0, 0, 0)),
])
def test_lattice_movers_match_brute_force(label, mu, lam):
    datum = build_root_system(label)
    mu = tuple(Q(c) for c in mu)
    lam = tuple(Q(c) for c in lam)
    brute = [u for u in generate_group(datum)
             if _is_lattice(_wsub(dot_action(datum, u, mu), lam))]
    assert lattice_mover(datum, mu, lam) == (brute[0] if brute else None)
    assert are_compatible(datum, mu, lam) == bool(brute)
    if mu == lam:  # w_ext is in block order; the scan in generate_group's
        assert tuple(sorted(integral_datum(datum, lam).w_ext,
                            key=coxeter_system(datum).sort_key)) == \
            tuple(brute)


@pytest.mark.parametrize("label, lam", [
    ("A3", (0, H, 0)), ("B3", (0, 0, H)), ("D4", (H, 0, 0, 0)),
    ("A5", (T, 0, 0, 0, 0)),
])
def test_into_chamber_is_the_shortest_in_its_coset(label, lam):
    """For every g in W, the walk ends at the unique shortest element of
    g W_int, found by scanning the coset."""
    datum = build_root_system(label)
    idat = integral_datum(datum, tuple(Q(c) for c in lam))
    simples = list(zip(idat.system.simple_indices, idat.simple_reflections))
    for g in generate_group(datum):
        coset = sorted((g * u for u in idat.int_elements()),
                       key=lambda x: length(datum, x))
        assert integral._into_chamber(g, simples) == coset[0]
        assert length(datum, coset[0]) < length(datum, coset[1])


def test_enumerate_Xi_rank_one(a1):
    assert len(enumerate_Xi(a1, w(Q(-1, 2)), w(Q(-1, 2)))) == 2
    assert len(enumerate_Xi(a1, w(-1), w(0))) == 1
    assert len(enumerate_Xi(a1, w(0), w(0))) == 2
    assert enumerate_Xi(a1, w(0), w(Q(1, 2))) == ()


def test_enumerate_Xi_shape(a2):
    pairs = enumerate_Xi(a2, w(-1, 0), w(0, 0))
    for p in pairs:
        assert classify_weight(a2, p.lam).dominant
        assert _is_lattice(_wsub(p.mu, p.lam))
    # representative is minimal in its stabilizer orbit under the fixed order
    assert len({p.mu for p in pairs}) == len(pairs)


@pytest.mark.parametrize("label,mu,lam", [
    ("A1", (Q(-1, 2),), (Q(-1, 2),)),
    ("A1", (-1,), (0,)),
    ("A2", (-1, 0), (0, 0)),
    ("A3", (0, Q(1, 2), 0), (0, Q(1, 2), 0)),
    ("B2", (0, Q(-3, 2)), (0, Q(1, 2))),
    ("G2", (-1, 0), (0, 0)),
])
def test_Xi_count_equals_double_cosets(label, mu, lam):
    datum = build_root_system(label)
    mu = tuple(Q(c) for c in mu)
    lam = tuple(Q(c) for c in lam)
    pairs = enumerate_Xi(datum, mu, lam)
    idat = integral_datum(datum, lam)
    dc = double_cosets(datum, frozenset(idat.w_ext),
                       dot_stabilizer(datum, mu), dot_stabilizer(datum, lam))
    assert len(pairs) == dc.count


def test_same_coset_same_integral_system(a3, a3_block):
    lam2 = tuple(a + b for a, b in zip(a3_block.lam, w(2, -1, 3)))
    other = integral_datum(a3, lam2)
    assert {r.index for r in other.integral_positive} == \
        {r.index for r in a3_block.integral_positive}
    assert other.w_int.elements == a3_block.w_int.elements
    assert set(other.w_ext) == set(a3_block.w_ext)


def test_integral_system_transports(a3, a3_block):
    n = a3.num_positive
    rng = random.Random(31)
    group = generate_group(a3)
    base = {r.index for r in a3_block.integral_positive}
    for _ in range(10):
        u = rng.choice(group)
        moved = dot_action(a3, u, a3_block.lam)
        direct = {r.index for r in a3.positive_roots
                  if r.pair(moved).denominator == 1}
        transported = {u.root_perm[i] % n for i in base}
        assert direct == transported


def test_dominance_tests_agree(a3_block, a3):
    rng = random.Random(13)
    for _ in range(40):
        shift = tuple(Q(rng.randint(-3, 3)) for _ in range(3))
        x = tuple(a + b for a, b in zip(a3_block.lam, shift))
        shifted = tuple(a + b for a, b in zip(x, a3.rho))
        full = classify_weight(a3, x).dominant
        integral = all(r.pair(shifted) >= 0
                       for r in a3_block.integral_positive)
        assert full == integral


def test_chamber_preserves_dominance(a3_block, a3):
    rng = random.Random(19)
    for _ in range(25):
        shift = tuple(Q(rng.randint(-3, 3)) for _ in range(3))
        x = tuple(a + b for a, b in zip(a3_block.lam, shift))
        if not classify_weight(a3, x).dominant:
            continue
        for c in a3_block.chamber.elements:
            assert classify_weight(a3, dot_action(a3, c, x)).dominant


def test_integral_system_matches_full_when_w_int_is_w():
    d4 = build_root_system("D4")
    idat = integral_datum(d4, w(0, 0, 0, 0))
    group = generate_group(d4)
    assert idat.w_int.order == len(group) == 192
    assert idat.system is not coxeter_system(d4)
    for u in group:
        assert idat.system.length(u) == length(d4, u)
        assert idat.system.reduced_word(u) == reduced_word(d4, u)
        for x in group:
            assert idat.system.bruhat_leq(x, u) == bruhat_leq(d4, x, u)


@pytest.mark.parametrize("label, lam", [
    ("A3", (Q(0), Q(1, 2), Q(0))),
    ("B3", (Q(1, 2), Q(0), Q(0))),
    ("C4", (Q(0), Q(1, 2), Q(0), Q(0))),
])
def test_integral_words_are_reduced(label, lam):
    datum = build_root_system(label)
    idat = integral_datum(datum, lam)
    assert 1 < idat.w_int.order < len(generate_group(datum))
    n = datum.num_positive
    for u in idat.w_int.elements:
        inversions = sum(1 for r in idat.integral_positive
                         if u.root_perm[r.index] >= n)
        word = idat.system.reduced_word(u)
        assert len(word) == inversions == idat.system.length(u)
        prod = datum.identity
        for j in word:
            prod = prod * idat.simple_reflections[j - 1]
        assert prod == u


@pytest.mark.parametrize("label", ["A1", "A1xA1", "A3", "B3", "C3", "G2",
                                   "D4", "F4"])
def test_tau_table_matches_fraction_oracle(label):
    datum = build_root_system(label)
    torsion = torsion_group(datum)
    rng = random.Random(f"tau:{label}")
    # mixed denominators 1-6, then one common denominator d = 1..6, which
    # more often gives a nontrivial chamber
    weights = [tuple(Q(rng.randint(-12, 12), rng.randint(1, 6))
                     for _ in range(datum.rank)) for _ in range(4)]
    weights += [tuple(Q(rng.choice((0, 0, 1, -1, 3)), d)
                      for _ in range(datum.rank)) for d in range(1, 7)]
    nonzero = 0
    for lam in weights:
        idat = integral_datum(datum, lam)
        for u in idat.w_ext:
            assert tau(idat, u) == \
                torsion.class_of(_wsub(fraction_act(u, lam), lam)), (lam, u)
            nonzero += not tau(idat, u).is_zero
    assert nonzero or torsion.order == 1


# the seven nonintegral blocks of the `blocks` benchmark workload, as
# (type, lambda, mu), then B5
BLOCK_WEIGHTS = [("D4", "0,0,0,0", "0,-1,0,0"),
                 ("D4", "1/2,0,0,0", "1/2,0,-1,0"),
                 ("B4", "1/2,-1,0,0", "1/2,0,0,-1"),
                 ("C4", "0,0,0,1/2", "0,-1,0,1/2"),
                 ("A5", "1/3,0,0,0,0", "1/3,0,-1,0,0"),
                 ("F4", "0,0,0,1/2", "0,-1,0,1/2"),
                 ("D5", "1/2,0,0,0,0", "1/2,-1,0,0,0")]
B5_BLOCK = ("B5", "1/2,0,0,0,0", "1/2,-1,0,0,0")
E6_PAIR = ("E6", "1/2,0,0,0,0,0", "1/2,-1,0,0,0,0")  # 960 labels


def _weight(text):
    return tuple(Q(x) for x in text.split(","))


def _corpus_and_block_weights():
    with open(default_corpus_path(), encoding="utf-8") as fh:
        entries = load_corpus(json.load(fh))
    out = [pytest.param(e.type_label, e.lam, e.mu,
                        id=f"{e.index}-{e.type_label}") for e in entries]
    out += [pytest.param(label, _weight(lam), _weight(mu),
                         id=f"block-{label}-{lam}")
            for label, lam, mu in BLOCK_WEIGHTS + [B5_BLOCK]]
    return out


@pytest.mark.parametrize("label, lam, mu", _corpus_and_block_weights())
def test_int_elements_match_sorted_closure(label, lam, mu):
    idat = integral_datum(build_root_system(label), lam)
    assert idat.int_elements() == closure_sorted_w_int(idat)
    assert idat.w_int.elements == frozenset(idat.int_elements())


@pytest.mark.parametrize("label, lam, mu", _corpus_and_block_weights())
def test_w_ext_is_in_block_order(label, lam, mu):
    """Entry k |W_int| + x of w_ext is c_k u_x, so indexing w_ext inverts
    tables.label."""
    idat = integral_datum(build_root_system(label), lam)
    t, chamber = idat.tables, idat.chamber.sorted_elements
    n = len(t.elements)
    assert len(idat.w_ext) == len(chamber) * n
    for i, w in enumerate(idat.w_ext):
        assert w == chamber[i // n] * t.elements[i % n]
        assert t.label(w) == divmod(i, n)


@pytest.mark.parametrize("label, lam, mu", _corpus_and_block_weights())
def test_blocks_match_whole_group_scans(label, lam, mu):
    """W_ext, C, tau, the movers, Xi and the double cosets against scans
    of the whole Weyl group in Fraction arithmetic."""
    datum = build_root_system(label)
    idat = integral_datum(datum, lam)
    scan = scan_lattice_movers(datum, lam, lam)
    assert tuple(sorted(idat.w_ext, key=coxeter_system(datum).sort_key)) \
        == scan
    assert idat.chamber.sorted_elements == \
        scan_chamber(datum, scan, idat.integral_positive)
    torsion = torsion_group(datum)
    for u in idat.w_ext:
        assert tau(idat, u) == \
            torsion.class_of(_wsub(fraction_act(u, lam), lam))
    if mu is None:
        return
    lam_dom = dominant_dot_weight(datum, lam)
    # mu and lam need not differ by a lattice weight, nor lam and lam_dom
    for a, b in ((mu, lam), (mu, lam_dom), (lam, lam_dom), (mu, mu)):
        scan = scan_lattice_movers(datum, a, b)
        assert lattice_mover(datum, a, b) == (scan[0] if scan else None)
    assert [(p.mu, p.lam) for p in enumerate_Xi(datum, mu, lam)] == \
        list(fraction_enumerate_Xi(datum, mu, lam))
    h, k = dot_stabilizer(datum, mu), dot_stabilizer(datum, lam)
    assert double_cosets(datum, frozenset(idat.w_ext), h, k).cosets == \
        sorted_double_cosets(datum, idat.w_ext, h, k)


@pytest.mark.parametrize("label, lam, mu", [
    p for p in _corpus_and_block_weights() if p.values[2] is not None]
    + [pytest.param(E6_PAIR[0], _weight(E6_PAIR[1]), _weight(E6_PAIR[2]),
                    id="pair-E6")])
def test_index_matches_per_chamber_cosets(label, lam, mu):
    """indecomposable_index from descent masks against the closed
    stabilizer of c.mu and a generic double-coset count over W_int per
    chamber element, on the dominant pair that the xi_triple_count check
    builds: the same labels in the same order."""
    datum = build_root_system(label)
    lam_dom = dominant_dot_weight(datum, lam)
    mover = lattice_mover(datum, mu, lam_dom)
    if mover is None:
        return
    idat = integral_datum(datum, lam_dom)
    _, mu_dom = dominant_dot_rep(idat, dot_action(datum, mover, mu))
    labels = soergel.indecomposable_index(datum, mu_dom, lam_dom)
    assert labels == per_chamber_index(datum, mu_dom, lam_dom)
    assert len(labels) == len(enumerate_Xi(datum, mu, lam))


def test_index_and_xi_close_no_stabilizer_per_chamber(monkeypatch):
    """On the D4 block at (1/2, 0, 1/2, 1/2), with |C| = 4 and the datum
    built: Xi closes no stabilizer, and the index closes only the two of
    its independent total, none per chamber element."""
    idat = _d4_four_block()
    datum, lam = idat.datum, idat.lam
    closed = []
    closure = coxeter.closure

    def counted(*args, **kwargs):
        closed.append(args)
        return closure(*args, **kwargs)

    monkeypatch.setattr(coxeter, "closure", counted)
    pairs = enumerate_Xi(datum, lam, lam)
    assert not closed
    assert len(soergel.indecomposable_index(datum, lam, lam)) == len(pairs)
    assert len(closed) == 2


@pytest.mark.parametrize("label, lam, mu", _corpus_and_block_weights())
def test_integral_walks_match_fraction_oracles(label, lam, mu):
    """The integral Cartan matrix, dominant_dot_rep on seeded weights in
    lam + (weight lattice) and chamber_decompose on all of W_ext, against
    Fraction pairings, the Fraction walk and the scan of W_int."""
    datum = build_root_system(label)
    idat = integral_datum(datum, lam)
    simples = idat.integral_simples
    assert idat.cartan_matrix == tuple(
        tuple(a.pair(b.as_weight) for b in simples) for a in simples)
    rng = random.Random(f"walk:{label}:{lam}")
    for _ in range(10):
        nu = tuple(x + rng.randint(-6, 6) for x in lam)
        assert dominant_dot_rep(idat, nu) == \
            fraction_dominant_dot_rep(idat, nu)
    if idat.chamber.order > 1:
        for x in idat.w_ext:
            assert chamber_decompose(idat, x) == \
                scan_chamber_decompose(idat, x)


SEEDED_CERTIFICATE_TYPES = ("A3", "B3", "C3", "G2", "D4", "A4", "B2")


def _certificate_weights():
    """The corpus and `blocks` weights, then 15 seeded weights on each of
    seven types."""
    out = [pytest.param(p.values[0], [p.values[1]], id=p.id)
           for p in _corpus_and_block_weights()]
    for label in SEEDED_CERTIFICATE_TYPES:
        rng = random.Random(f"certificates:{label}")
        weights = [tuple(Q(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 4)))
                         for _ in range(int(label[1:])))
                   for _ in range(15)]
        out.append(pytest.param(label, weights, id=f"seeded-{label}"))
    return out


@pytest.mark.parametrize("label, weights", _certificate_weights())
def test_certificates_match_scans(label, weights):
    """find_regular_dominant and find_subgeneric, at every integral simple,
    against the scans from the least coefficient."""
    datum = build_root_system(label)
    for lam in weights:
        idat = integral_datum(datum, lam)
        assert find_regular_dominant(idat) == scan_find_regular_dominant(idat)
        for j in range(1, idat.rank + 1):
            assert find_subgeneric(idat, j) == \
                scan_find_subgeneric(idat, j), (lam, j)


@pytest.mark.parametrize("label, lam, mu", BLOCK_WEIGHTS)
def test_block_pipelines_never_enumerate_w(monkeypatch, label, lam, mu):
    """A `blocks` item, from a datum with empty caches, with every way to
    enumerate the whole Weyl group made to raise."""
    def no_w(*args, **kwargs):
        raise AssertionError("the whole Weyl group was enumerated")

    enumeration = CoxeterSystem.enumeration

    def w_int_only(system, *args, **kwargs):
        if system is system.datum._memo.get("coxeter"):
            no_w()
        return enumeration(system, *args, **kwargs)

    for module in (coxeter, weylblocks):
        monkeypatch.setattr(module, "generate_group", no_w)
    monkeypatch.setattr(CoxeterSystem, "enumeration", w_int_only)
    datum = build_root_system.__wrapped__(label)
    lam, mu = _weight(lam), _weight(mu)
    idat = integral_datum(datum, lam)
    dc = double_cosets(datum, frozenset(idat.w_ext),
                       dot_stabilizer(datum, mu), dot_stabilizer(datum, lam))
    labels = soergel.indecomposable_index(datum, mu, lam)
    assert len(enumerate_Xi(datum, mu, lam)) == dc.count == len(labels)
    cache = hecke.kl_cache(idat)
    word = soergel.normalize(soergel.make_word(
        idat, [soergel.RwLetter(idat.chamber.sorted_elements[-1])]
        + [soergel.BsLetter(j) for j in range(1, idat.rank + 1)]))
    hecke.decompose(idat, hecke.bs_character(idat, word), cache)


@pytest.mark.parametrize("label, lam, mu", BLOCK_WEIGHTS)
def test_block_pipelines_never_read_w_ext(monkeypatch, label, lam, mu):
    """The mover, compatibility, Xi and the Hecke pipeline of a `blocks`
    item, from a datum with empty caches, with W_ext made to raise."""
    def no_w_ext(idat):
        raise AssertionError("the sorted W_ext was built")

    monkeypatch.setattr(IntegralDatum, "w_ext", property(no_w_ext))
    datum = build_root_system.__wrapped__(label)
    lam, mu = _weight(lam), _weight(mu)
    idat = integral_datum(datum, lam)
    for a, b in ((mu, lam), (lam, lam)):
        assert are_compatible(datum, a, b) == \
            (lattice_mover(datum, a, b) is not None)
    assert enumerate_Xi(datum, mu, lam)
    cache = hecke.kl_cache(idat)
    word = soergel.normalize(soergel.make_word(
        idat, [soergel.RwLetter(idat.chamber.sorted_elements[-1])]
        + [soergel.BsLetter(j) for j in range(1, idat.rank + 1)]))
    hecke.decompose(idat, hecke.bs_character(idat, word), cache)


@pytest.mark.parametrize("label, lam", [
    ("A3", (Q(0), Q(1, 2), Q(0))),
    ("B3", (Q(1, 2), Q(0), Q(0))),
    ("G2", (Q(0), Q(0))),
    ("C4", (Q(0), Q(1, 2), Q(0), Q(0))),
])
def test_integral_enumeration_tables_match_fresh_system(label, lam):
    idat = integral_datum(build_root_system(label), lam)
    fresh = fresh_system(idat.datum, (r.index for r in idat.integral_simples),
                         (r.index for r in idat.integral_positive))
    check_enumeration(idat.system, fresh)
    enum, t = idat.system.enumeration(), idat.tables
    assert (t.elements, t.length, t.descent, t.left) == \
        (enum.elements, enum.length, enum.descent, enum.left)
    # one perm -> number index, and the lengths and words just read were
    # read off the numbering, none memoized
    assert t.index is enum.index
    assert list(idat.system._words) == [idat.datum.identity.root_perm]
    assert not idat.system._lengths


def test_over_bound_w_ext_fails_before_any_enumeration(monkeypatch):
    # E8 at (1/2, 0, ..., 0): 135 classes mod the weight lattice, so
    # |W_ext| = 696729600 / 135 = 5160960 > 10^6; W_int = D8 is never built
    def no_enumeration(*args, **kwargs):
        raise AssertionError("a group was enumerated")

    monkeypatch.setattr(coxeter, "_layered_search", no_enumeration)
    e8 = build_root_system.__wrapped__("E8")
    with pytest.raises(GroupBoundExceeded, match="5160960"):
        integral_datum(e8, (Q(1, 2),) + (Q(0),) * 7)


def test_bound_applies_to_w_ext_not_w():
    b4 = build_root_system.__wrapped__("B4")
    idat = integral_datum(b4, w(Q(1, 2), -1, 0, 0), bound=200)
    assert len(idat.w_ext) == 96 and weyl_order(b4) == 384
    # the class orbit is bounded too: (0, 1/2, 0) has 3 classes in A3
    a3 = build_root_system.__wrapped__("A3")
    with pytest.raises(GroupBoundExceeded, match="orbit enumeration"):
        integral_datum(a3, w(0, Q(1, 2), 0), bound=2)


def test_a_cached_block_keeps_the_bound():
    """A block read from the memo is checked against the bound as a cold
    one is: A3 at (1/2, 0, 0) has |W_ext| = 6 and 4 classes mod P."""
    a3 = build_root_system.__wrapped__("A3")
    lam = (Q(1, 2), Q(0), Q(0))
    refusals = [(5, r"W_ext enumeration exceeds bound 5: \|W_ext\| = 6"),
                (3, "orbit enumeration exceeds bound 3")]
    for bound, message in refusals:
        with pytest.raises(GroupBoundExceeded, match=message):
            integral_datum(a3, lam, bound=bound)
    idat = integral_datum(a3, lam)
    for bound, message in refusals:
        with pytest.raises(GroupBoundExceeded, match=message):
            integral_datum(a3, lam, bound=bound)
    assert integral_datum(a3, lam, bound=6) is idat


def test_orbit_stabilizer_check_catches_a_lost_chamber(monkeypatch):
    # every Schreier generator reduced to the identity: C stays trivial and
    # |W_ext| * |orbit| = 4 * 3 falls short of |W| = 24
    monkeypatch.setattr(integral, "_into_chamber",
                        lambda g, simples: g.datum.identity)
    fresh = build_root_system.__wrapped__("A3")
    with pytest.raises(AssertionError, match="orbit"):
        integral_datum(fresh, (Q(0), Q(1, 2), Q(0)))


def test_integral_datum_bound_applies_to_w_int():
    # |W_int| = 4 for this A3 block, |W| = 24
    fresh = build_root_system.__wrapped__("A3")
    with pytest.raises(GroupBoundExceeded, match="enumeration exceeds"):
        integral_datum(fresh, (Q(0), Q(1, 2), Q(0)), bound=3)
    assert integral_datum(fresh, (Q(0), Q(1, 2), Q(0)), bound=24) \
        .w_int.order == 4


def test_validate_rejects_a_tampered_simple_system():
    datum = build_root_system("B3")
    idat = integral_datum(datum, w(0, 0, 0))
    _validate(idat)
    simples = idat.integral_simples
    highest = idat.integral_positive[-1]
    for tampered in [(highest,) + simples[1:],  # not simple: negative coords
                     simples[:1] + simples[:1] + simples[2:],  # dependent
                     simples[:2]]:  # too few: a root does not decompose
        with pytest.raises(AssertionError, match="simples"):
            _validate(dataclasses.replace(idat, integral_simples=tampered,
                                          _memo={}))


def test_validate_rejects_a_tampered_chamber_tau(a3_block):
    zero, two = a3_block.chamber_tau  # tau(e) = 0, tau(c) = 2 mod 4
    odd = torsion_group(a3_block.datum).class_of([1, 0, 0])
    assert zero.is_zero and str(two) == "2 mod 4" and str(odd) == "3 mod 4"
    for tampered, message in [((two, two), "kernel of tau"),  # nonzero at e
                              ((two, zero), "kernel of tau"),  # swapped
                              ((zero, odd), "differs from tau")]:
        with pytest.raises(AssertionError, match=message):
            _validate(dataclasses.replace(a3_block, chamber_tau=tampered,
                                          _memo={}))


def test_validate_checks_every_nontrivial_modulus():
    # D4 at (1/2, 0, 0, 0): P/Q = Z/2 x Z/2 and |C| = 2; each other nonzero
    # class in tau(c)'s place is caught, (1, 1) for (1, 0) on the second
    # modulus alone
    d4 = build_root_system("D4")
    idat = integral_datum(d4, (Q(1, 2), 0, 0, 0))
    group = torsion_group(d4)
    assert [m for m in group.moduli if m > 1] == [2, 2]
    zero, t = idat.chamber_tau
    assert zero.is_zero and not t.is_zero
    others = {group.class_of(v) for v in ([1, 0, 0, 0], [0, 0, 1, 0],
                                          [0, 0, 0, 1])} - {t}
    assert len(others) == 2 and not any(o.is_zero for o in others)
    _validate(idat)
    for other in others:
        with pytest.raises(AssertionError, match="differs from tau"):
            _validate(dataclasses.replace(idat, chamber_tau=(zero, other),
                                          _memo={}))


@pytest.mark.parametrize("label, lam", [
    ("F4", (0, 0, 0, Q(1, 2))),
    ("E8", tuple(Q(x, 5) for x in (1, 2, 3, 4, 1, 2, 3, 4))),
    ("D4", (Q(1, 2), 0, 0, 0)),
])
def test_cold_integral_datum_builds_no_w_ext(label, lam):
    """A cold block forms no product c u and memoizes words of the full
    system only while sorting its chamber, which is trivial on F4 and E8
    here."""
    datum = build_root_system.__wrapped__(label)
    idat = integral_datum(datum, lam)
    assert "w_ext" not in idat.__dict__ and "w_int" not in idat.__dict__
    words = coxeter_system(datum)._words
    if idat.chamber.order == 1:
        assert list(words) == [datum.identity.root_perm]
    else:
        assert label == "D4" and len(words) < idat.w_int.order == 24


def test_cold_mover_and_xi_build_no_w_ext():
    """On E8 at the 1/5 weight, with mu in another class mod the weight
    lattice, the mover is the least of |C| coset minima and Xi is read
    through the block's numbering: W_ext is never built, and few words of
    the full system are memoized (the sorted W_ext would hold 181,580)."""
    datum = build_root_system.__wrapped__("E8")
    lam = tuple(Q(x, 5) for x in (1, 2, 3, 4, 1, 2, 3, 4))
    mu = _weight("16/5,3/5,-17/5,8/5,2/5,14/5,-4/5,-1")
    idat = integral_datum(datum, lam)
    assert lattice_mover(datum, mu, lam) is not None
    assert enumerate_Xi(datum, mu, lam)
    assert dominant_dot_weight(datum, lam) == lam
    assert "w_ext" not in idat.__dict__
    assert len(coxeter_system(datum)._words) < 100


def _d4_four_block():
    """The D4 block at (1/2, 0, 1/2, 1/2): C is a Klein four-group."""
    idat = integral_datum(build_root_system("D4"),
                          (Q(1, 2), Q(0), Q(1, 2), Q(1, 2)))
    assert idat.chamber.order == 4
    return idat


def _with_entry(rows, a, b, value):
    return tuple(row[:b] + (value,) + row[b + 1:] if k == a else row
                 for k, row in enumerate(rows))


def test_validate_rejects_tampered_chamber_tables():
    idat = _d4_four_block()
    _validate(idat)
    mul = idat.chamber_mul
    assert mul[1][2] == mul[2][1] != 0
    outside = _with_entry(_with_entry(mul, 1, 2, -1), 2, 1, -1)
    repeated = _with_entry(idat.chamber_conj, 1, 1, idat.chamber_conj[1][2])
    for change, message in [
            ({"chamber_mul": _with_entry(mul, 1, 2, 0)}, "not abelian"),
            ({"chamber_mul": outside}, "outside C"),
            ({"chamber_conj": repeated}, "permute the integral simples")]:
        with pytest.raises(AssertionError, match=message):
            _validate(dataclasses.replace(idat, **change, _memo={}))


@pytest.mark.parametrize("label, lam, order, rank", [
    ("D4", (Q(1, 2), 0, Q(1, 2), Q(1, 2)), 4, 4),
    ("A3", (0, Q(1, 2), 0), 2, 2),
    ("A2", (Q(1, 3), Q(1, 3)), 3, 0),
])
def test_chamber_tables_match_products(label, lam, order, rank):
    datum = build_root_system(label)
    idat = integral_datum(datum, lam)
    chamber = idat.chamber.sorted_elements
    assert (idat.chamber.order, idat.rank) == (order, rank)
    assert idat.chamber_number == {c.root_perm: k
                                   for k, c in enumerate(chamber)}
    simples = idat.simple_reflections
    for a, g in enumerate(chamber):
        assert idat.chamber_index(g) == a
        for b, h in enumerate(chamber):
            assert chamber[idat.chamber_mul[a][b]] == g * h
        assert len(idat.chamber_conj[a]) == rank + 1
        for j, s in enumerate(simples, 1):
            image = idat.chamber_conj[a][j]
            assert g * s * g.inverse() == simples[image - 1]
            assert idat.conjugate_simple(g, j) == image
    stranger = next(s for s in datum.simple_reflections
                    if s not in idat.chamber.elements)
    with pytest.raises(ValueError, match="not a chamber element"):
        idat.conjugate_simple(stranger, 1)
    # chamber_index refuses the stranger, a non-element and each c u, u != e
    n = len(idat.int_elements())
    for g in (stranger, None, *(x for i, x in enumerate(idat.w_ext) if i % n)):
        with pytest.raises(ValueError, match="twist is not a chamber element"):
            idat.chamber_index(g)


@pytest.mark.parametrize("label, lam", [
    ("D4", (Q(1, 2), 0, Q(1, 2), Q(1, 2))),
    ("A3", (0, Q(1, 2), 0)),
    ("A2", (Q(1, 3), Q(1, 3))),
])
def test_conjugate_simple_rejects_an_index_out_of_range(label, lam):
    """j = 0 would read the table's padding and j > rank its end: both
    are refused, for every chamber element, on blocks of rank 4, 2 and 0."""
    idat = integral_datum(build_root_system(label), lam)
    for c in idat.chamber.sorted_elements:
        for j in (0, -1, idat.rank + 1):
            with pytest.raises(ValueError, match="out of range"):
                idat.conjugate_simple(c, j)

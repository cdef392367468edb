import json
import random
import time
from fractions import Fraction as Q

import pytest

from weylblocks import (
    BsLetter,
    LaurentPoly,
    RwLetter,
    bs_character,
    bs_left,
    build_root_system,
    decompose,
    decompose_graded,
    from_word,
    integral_datum,
    kl_cache,
    kl_generator,
    kl_polynomial,
    make_word,
    normalize,
)
from weylblocks import hecke
from weylblocks.cli import DEFAULT_SEED, _check_hecke_block, \
    default_corpus_path, load_corpus, run_entry
from weylblocks.hecke import (
    ONE,
    V,
    V_INV,
    ZERO,
    HeckeElement,
    KLCache,
    group_like,
    identity_element,
    standard_basis,
)
from weylblocks.integral import BlockTables
from weylblocks.rootsys import GroupBoundExceeded

from conftest import w
from oracles import (
    kl_polynomials_by_inversion,
    reference_bs_character,
    reference_decompose_graded,
    reference_kl_columns,
    reference_product,
)

with open(default_corpus_path(), encoding="utf-8") as _fh:
    CORPUS_ENTRIES = load_corpus(json.load(_fh))
CORPUS_BLOCKS = sorted({(e.type_label, e.lam) for e in CORPUS_ENTRIES})
# every corpus twist is an involution; this block's chamber is Z/3 acting on
# W_int = (Z/2)^3, so conjugating by c and by c^{-1} differ
REFERENCE_BLOCKS = CORPUS_BLOCKS + [("A5", w(0, Q(2, 3), 0, Q(2, 3), 0))]
# the seven blocks of the benchmark's `blocks` workload, and B5
LARGE_BLOCKS = [
    ("D4", w(0, 0, 0, 0)), ("D4", w(Q(1, 2), 0, 0, 0)),
    ("B4", w(Q(1, 2), -1, 0, 0)), ("C4", w(0, 0, 0, Q(1, 2))),
    ("A5", w(Q(1, 3), 0, 0, 0, 0)), ("F4", w(0, 0, 0, Q(1, 2))),
    ("D5", w(Q(1, 2), 0, 0, 0, 0)), ("B5", w(Q(1, 2), 0, 0, 0, 0)),
]


def _ids(blocks):
    return [f"{t}:{','.join(map(str, l))}" for t, l in blocks]


def test_laurent_poly_basics():
    p = LaurentPoly({2: 1, 0: -3, 5: 0})
    q = LaurentPoly({-1: 2})
    assert p.coeff(5) == 0 and p.coeff(2) == 1
    assert (p + q).items() == [(-1, 2), (0, -3), (2, 1)]
    assert (p * q).items() == [(-1, -6), (1, 2)]
    assert p.bar().items() == [(-2, 1), (0, -3)]
    assert p.shift(1).items() == [(1, -3), (3, 1)]
    assert p.at_one() == -2
    assert (p - p).is_zero
    assert LaurentPoly({0: 1}) == ONE
    assert (V * V_INV) == ONE
    assert p.format() == "-3 + v^2"


def test_standard_basis_quadratic_relation(a1):
    idat = integral_datum(a1, w(0))
    s = a1.simple_reflections[0]
    e = a1.identity
    hs = standard_basis(idat, e, s)
    # H_s^2 = (v^{-1} - v) H_s + 1
    sq = hs * hs
    expect = HeckeElement(idat, {(e, s): V_INV - V, (e, e): ONE})
    assert sq == expect


def test_kl_generator_relation_all_blocks():
    for label, lam in [("A1", (0,)), ("A2", (0, 0)),
                       ("A3", (0, Q(1, 2), 0)), ("B2", (0, Q(1, 2)))]:
        datum = build_root_system(label)
        idat = integral_datum(datum, tuple(Q(c) for c in lam))
        for j in range(1, idat.rank + 1):
            b = kl_generator(idat, j)
            assert b * b == b.scale(V + V_INV)


def test_bs_character_examples(a1):
    idat = integral_datum(a1, w(0))
    assert bs_character(idat, make_word(idat, [])) == identity_element(idat)
    b = kl_generator(idat, 1)
    assert bs_character(idat, make_word(idat, [BsLetter(1)])) == b
    two = bs_character(idat, make_word(idat, [BsLetter(1), BsLetter(1)]))
    assert two == b.scale(V + V_INV)
    # codes are read on their own block's numbering only
    other = integral_datum(a1, w(Q(1, 2)))
    with pytest.raises(ValueError):
        bs_character(other, make_word(idat, [BsLetter(1)]))


def test_character_invariant_under_rewriting(a3_block):
    idat = a3_block
    rng = random.Random("charinv")
    twists = idat.chamber.sorted_elements
    for _ in range(40):
        letters = []
        for _ in range(rng.randrange(7)):
            if rng.random() < 0.6:
                letters.append(BsLetter(rng.randrange(1, idat.rank + 1)))
            else:
                letters.append(RwLetter(rng.choice(twists)))
        word = make_word(idat, letters)
        assert bs_character(idat, word) == bs_character(idat, normalize(word))


def test_group_like_relation(a3, a3_block):
    idat = a3_block
    c = next(x for x in idat.chamber.elements if not x.is_identity)
    e = a3.identity
    s1, s3 = idat.simple_reflections
    lhs = group_like(idat, c) * standard_basis(idat, e, s1) * \
        group_like(idat, c.inverse())
    assert lhs == standard_basis(idat, e, s3)
    # group-likes multiply like the chamber group
    assert group_like(idat, c) * group_like(idat, c) == identity_element(idat)


def test_kl_polynomial_trivial_cases(a3):
    idat = integral_datum(a3, w(0, 0, 0))
    cache = kl_cache(idat)
    s1, s2 = a3.simple_reflections[:2]
    assert kl_polynomial(cache, s1, s1) == ONE
    assert kl_polynomial(cache, s1 * s2, s2 * s1) == ZERO
    assert kl_polynomial(cache, a3.identity, s1) == ONE
    with pytest.raises(ValueError):
        outside = integral_datum(a3, w(0, Q(1, 2), 0))
        kl_polynomial(kl_cache(outside), a3.simple_reflections[1],
                      a3.simple_reflections[1])


def test_kl_singular_element_of_s4(a3):
    idat = integral_datum(a3, w(0, 0, 0))
    cache = kl_cache(idat)
    w3412 = from_word(a3, (2, 1, 3, 2))
    assert kl_polynomial(cache, a3.identity, w3412) == \
        LaurentPoly({0: 1, 1: 1})


@pytest.mark.parametrize("label,lam", [
    ("A2", (0, 0)), ("B2", (0, 0)), ("A3", (0, 0, 0)),
    ("G2", (0, 0)), ("A3", (Q(1, 2), 0, 0)), ("B3", (0, 0, 0)),
    ("C4", (Q(1, 2), 0, 0, 0)),
])
def test_kl_table_matches_r_inversion_oracle(label, lam):
    datum = build_root_system(label)
    idat = integral_datum(datum, tuple(Q(c) for c in lam))
    cache = kl_cache(idat)
    for u in idat.int_elements():
        oracle = kl_polynomials_by_inversion(idat, u)
        for x in idat.int_elements():
            assert kl_polynomial(cache, x, u) == \
                oracle.get(x.root_perm, ZERO), (label, x, u)


@pytest.mark.parametrize("label,lam", [
    ("A3", (0, 0, 0)), ("B3", (0, 0, 0)), ("D4", (0, 0, 0, 0)),
    ("D4", (Q(1, 2), 0, 0, 0)),
])
def test_lower_ideals_match_bruhat_order(label, lam):
    idat = integral_datum(build_root_system(label), lam)
    t = idat.tables
    cache = KLCache(idat)
    for i, u in enumerate(t.elements):
        ideal = cache._ideal(i)
        assert ideal < 1 << (i + 1)  # members are numbered at most i
        for x, v in enumerate(t.elements):
            assert ideal >> x & 1 == idat.system.bruhat_leq(v, u), \
                (label, v, u)


@pytest.mark.parametrize("label,lam", CORPUS_BLOCKS + LARGE_BLOCKS,
                         ids=_ids(CORPUS_BLOCKS + LARGE_BLOCKS))
def test_rebuilt_columns_match_full_recursion(label, lam):
    idat = integral_datum(build_root_system(label), lam)
    cache = kl_cache(idat)
    t = idat.tables
    els, length = t.elements, t.length
    for u, col in enumerate(reference_kl_columns(idat)):
        assert cache.expansion(els[u]) == {
            els[x]: LaurentPoly(dict(enumerate(p))) for x, p in col.items()}
        # h_{x,u} = v h_{sx,u} for a left descent s of u and x < sx, and
        # the mirror relation h_{x,u} = v h_{xs,u} for a right descent
        for j in range(idat.rank):
            for mult in (t.left[j], t.right[j]):
                if length[mult[u]] > length[u]:
                    continue
                assert {mult[x] for x in col} == set(col), (label, u, j)
                for x, p in col.items():
                    if length[mult[x]] > length[x]:
                        assert p == (0, *col[mult[x]]), (label, x, u, j)


@pytest.mark.parametrize("label,lam", [
    ("A3", (0, 0, 0)), ("A3", (0, Q(1, 2), 0)), ("D4", (0, 0, 0, 0)),
    ("D4", (Q(1, 2), 0, 0, 0)),
])
def test_descent_masks_match_is_left_descent(label, lam):
    # s is a left descent of u when s u is shorter than u
    idat = integral_datum(build_root_system(label), lam)
    t, length = idat.tables, idat.system.length
    for x, u in enumerate(t.elements):
        assert t.dmask[x] == sum(
            1 << j for j, s in enumerate(idat.simple_reflections)
            if length(s * u) < length(u)), (label, u)


def test_validation_catches_each_fault(a3, monkeypatch):
    idat = integral_datum(a3, w(0, 0, 0))
    t = idat.tables
    word = idat.system.reduced_word
    w3412 = t.of(from_word(a3, (2, 1, 3, 2)))
    s1s2 = t.of(from_word(a3, (1, 2)))
    s1s3 = t.of(from_word(a3, (1, 3)))
    s2 = t.of(from_word(a3, (2,)))
    assert t.length[w3412] == 4 and t.dmask[w3412] == 0b010
    # D_L(w3412) = {s2}: e is not extremal, s2 tops its coset {e, s2}
    cache = KLCache(idat)
    assert cache.expansion(t.elements[w3412])[t.elements[0]] == \
        LaurentPoly({2: 1, 4: 1})
    assert 0 not in cache._cols[w3412]
    assert cache._cols[w3412][s2] == (0, 1, 0, 1)  # v + v^3

    # each fault is injected into the freshly built column, or its ideal,
    # just before the column's check
    def drop_diagonal(col, ideal):
        del col[w3412]
        return ideal

    def outside_interval(col, ideal):  # s1 s3 is extremal for s1 s2
        col[s1s3] = (0, 1)
        return ideal

    def above_degree_bound(col, ideal):
        col[s2] = (0, 1, 0, 1, 1)
        return ideal

    def negative_coefficient(col, ideal):
        col[s2] = (0, -1, 0, 1)
        return ideal

    def dropped_extremal_entry(col, ideal):
        del col[s2]
        return ideal

    def off_the_extremal_pairs(col, ideal):
        col[0] = (0, 0, 1, 0, 1)
        return ideal

    def unstable_ideal(col, ideal):  # s2 <= w3412 kept, e <= w3412 dropped
        return ideal & ~1

    check = KLCache._check_column
    for corrupt, what, x, u in [
            (drop_diagonal, "not unitriangular", None, w3412),
            (outside_interval, "Bruhat bound", s1s3, s1s2),
            (above_degree_bound, "degree bound", s2, w3412),
            (negative_coefficient, "negative KL coefficient", s2, w3412),
            (dropped_extremal_entry, "misses the extremal pair", s2, w3412),
            (off_the_extremal_pairs, "off the extremal pairs", 0, w3412),
            (unstable_ideal, "not a union of cosets", 0, w3412)]:
        def corrupted(self, v, col, ideal, corrupt=corrupt, u=u):
            if v == u:
                ideal = corrupt(col, ideal)
            check(self, v, col, ideal)

        monkeypatch.setattr(KLCache, "_check_column", corrupted)
        cache = KLCache(idat)
        with pytest.raises(AssertionError) as err:
            cache.expansion(t.elements[u])
        assert cache._cols[u] is None  # a failed column is not stored
        msg = str(err.value)
        assert what in msg and str(word(t.elements[u])) in msg, msg
        if x is not None:
            assert any(f.format(word(t.elements[x])) in msg
                       for f in ("({}, ", "{} <=", "{} and")), msg


def test_e6_half_block_builds_validated_table():
    e6 = build_root_system("E6")
    idat = integral_datum(e6, (Q(1, 2),) + (Q(0),) * 5)
    assert len(idat.int_elements()) == 1920
    cache = KLCache(idat)
    started = time.perf_counter()
    # reading every column builds and validates every column
    assert sum(len(cache.expansion(u)) for u in idat.int_elements()) == \
        745377
    assert time.perf_counter() - started < 20
    assert sum(map(len, cache._cols)) == 97460


def test_short_word_decompose_builds_only_its_closure():
    idat = integral_datum(build_root_system("D4"), w(0, 0, 0, 0))
    t, length = idat.tables, idat.tables.length
    assert len(t.elements) == 192
    full = KLCache(idat)
    for u in t.elements:
        full.expansion(u)

    def needs(v):
        """u = s v for the first left descent s of v, and the z < u with
        mu(z, u) != 0 and s z < z, read off the full table."""
        row = t.left[t.descent[v]]
        u = row[v]
        yield u
        for z, x in enumerate(t.elements):
            gap = length[u] - length[z]
            if gap > 0 and gap % 2 and length[row[z]] < length[z] and \
                    kl_polynomial(full, x, t.elements[u]).coeff(gap // 2):
                yield z

    rng = random.Random("closure")
    for _ in range(6):
        word = make_word(idat, [BsLetter(rng.randrange(1, 5))
                                for _ in range(rng.randint(3, 5))])
        image = bs_character(idat, word)
        cache = KLCache(idat)
        graded = decompose_graded(idat, image, cache)
        assert graded == decompose_graded(idat, image, full)
        read = {t.of(x) for _, x in graded}  # one column per label
        closure, todo = {0}, list(read)
        while todo:
            v = todo.pop()
            if v not in closure:
                closure.add(v)
                todo.extend(needs(v))
        built = {v for v, col in enumerate(cache._cols) if col is not None}
        assert read <= built <= closure
        assert cache._built.bit_count() == len(built) <= len(closure) < 192


def test_read_over_the_cap_builds_nothing(monkeypatch):
    idat = integral_datum(build_root_system("D4"), w(0, 0, 0, 0))
    t = idat.tables
    w0 = t.elements[-1]
    expect = kl_polynomial(KLCache(idat), t.elements[0], w0)
    monkeypatch.setattr(hecke, "KL_COLUMN_CAP", 40)
    cache = KLCache(idat)
    with pytest.raises(GroupBoundExceeded, match="191 columns built, more "
                                                 "than the cap of 40"):
        kl_polynomial(cache, t.elements[0], w0)
    assert cache._built == 1
    assert kl_polynomial(cache, w0, w0) == ONE  # no column needed
    # columns read bottom-up fit one by one under the cap
    for u in t.elements:
        cache.expansion(u)
    assert kl_polynomial(cache, t.elements[0], w0) == expect
    # past the cap, the corpus's hecke_block check draws its sample from
    # the first cap/2 elements, so every column it reads fits under the cap
    fresh = KLCache(idat)
    monkeypatch.setitem(idat._memo, "kl_cache", fresh)
    entry = next(e for e in CORPUS_ENTRIES
                 if e.type_label == "D4" and e.lam == w(0, 0, 0, 0))
    checks, _ = run_entry(entry, DEFAULT_SEED, 10 ** 6)
    assert checks["hecke_block"] == {"status": "pass"}
    assert 0 < fresh._built.bit_count() < len(t.elements)


def test_kl_unitriangular_and_positive(b2):
    idat = integral_datum(b2, w(0, 0))
    cache = kl_cache(idat)
    for u in idat.int_elements():
        exp = cache.expansion(u)
        assert exp[u] == ONE
        for x, p in exp.items():
            assert all(c >= 0 for _, c in p.items())
            if x != u:
                assert min(e for e, _ in p.items()) >= 1


def test_kl_basis_products_positive(a3_block):
    idat = a3_block
    cache = kl_cache(idat)
    e = idat.datum.identity
    for u in idat.int_elements():
        for j in range(1, idat.rank + 1):
            prod = kl_generator(idat, j) * cache.kl_basis_element(e, u)
            decompose(idat, prod, cache)  # raises on a negative coefficient


def test_decompose_examples(a1, a3, a3_block):
    idat = integral_datum(a1, w(0))
    cache = kl_cache(idat)
    b = kl_generator(idat, 1)
    s = a1.simple_reflections[0]
    e = a1.identity
    assert decompose(idat, b, cache) == {(e, s): 1}
    assert decompose(idat, b * b, cache) == {(e, s): 2}
    graded = decompose_graded(idat, b * b, cache)
    assert graded == {(e, s): V + V_INV}
    # twisted block: a twist times one wall letter is a single class
    c = next(x for x in a3_block.chamber.elements if not x.is_identity)
    word = make_word(a3_block, [RwLetter(c), BsLetter(2)])
    s3 = a3_block.simple_reflections[1]
    assert decompose(a3_block, bs_character(a3_block, word)) == {(c, s3): 1}


def test_decompose_rejects_negative_combinations(a1):
    idat = integral_datum(a1, w(0))
    cache = kl_cache(idat)
    e = a1.identity
    s = a1.simple_reflections[0]
    bad = HeckeElement(idat, {(e, s): ONE})  # H_s alone: b_s - v H_e
    with pytest.raises(ValueError):
        decompose(idat, bad, cache)


def test_full_label_set_in_regular_twisted_block(a3_block):
    # over a regular pair every (twist, element) label appears
    idat = a3_block
    cache = kl_cache(idat)
    labels = set()
    for c in idat.chamber.sorted_elements:
        for u in idat.int_elements():
            word = make_word(
                idat, [RwLetter(c)] + [BsLetter(j)
                                       for j in idat.system.reduced_word(u)])
            labels |= set(decompose(idat, bs_character(idat, word), cache))
    assert len(labels) == idat.chamber.order * idat.w_int.order == \
        len(idat.w_ext)


def test_hecke_associativity_random(a3_block):
    idat = a3_block
    rng = random.Random("assoc")
    e = idat.datum.identity
    pool = [standard_basis(idat, c, x)
            for c in idat.chamber.sorted_elements
            for x in idat.int_elements()]
    for _ in range(25):
        a, b, c = (rng.choice(pool) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def _seeded_word(idat, rng):
    """A word with at least one twist and up to five more letters."""
    twists = idat.chamber.sorted_elements
    letters = [RwLetter(rng.choice(twists))]
    for _ in range(rng.randrange(6)):
        if idat.rank and rng.random() < 0.6:
            letter = BsLetter(rng.randrange(1, idat.rank + 1))
        else:
            letter = RwLetter(rng.choice(twists))
        letters.insert(rng.randrange(len(letters) + 1), letter)
    return make_word(idat, letters)


@pytest.mark.parametrize("label,lam", REFERENCE_BLOCKS,
                         ids=_ids(REFERENCE_BLOCKS))
def test_integer_algebra_matches_reference(label, lam):
    idat = integral_datum(build_root_system(label), lam)
    cache = kl_cache(idat)
    rng = random.Random(f"reference:{label}:{lam}")
    e = idat.datum.identity
    twists, elements = idat.chamber.sorted_elements, idat.int_elements()
    for _ in range(4):
        word = _seeded_word(idat, rng)
        image = bs_character(idat, word)
        ref = reference_bs_character(idat, word)
        assert image.terms == ref, word
        assert list(decompose_graded(idat, image, cache).items()) == \
            list(reference_decompose_graded(idat, cache, ref).items())

    def random_element():
        return HeckeElement(idat, {
            (rng.choice(twists), rng.choice(elements)):
                LaurentPoly({rng.randint(-2, 2): rng.choice((-2, -1, 1, 3))})
            for _ in range(3)})

    for _ in range(3):
        a, b = random_element(), random_element()
        ref = reference_product(idat, a.terms, b.terms)
        assert (a * b).terms == ref
        assert list(decompose_graded(idat, a * b, cache).items()) == \
            list(reference_decompose_graded(idat, cache, ref).items())
    for _ in range(3):
        c, u = rng.choice(twists), rng.choice(elements)
        b_u = cache.kl_basis_element(c, u)
        assert b_u.terms == reference_product(
            idat, {(c, e): ONE},
            {(e, x): p for x, p in cache.expansion(u).items()})
        if idat.rank:
            b_s = kl_generator(idat, rng.randrange(1, idat.rank + 1))
            assert list(decompose_graded(idat, b_s * b_u, cache).items()) == \
                list(reference_decompose_graded(
                    idat, cache,
                    reference_product(idat, b_s.terms, b_u.terms)).items())


def test_hecke_block_check_fails_on_a_broken_block(a3, a3_block,
                                                    monkeypatch):
    assert _check_hecke_block(a3, a3_block, None, random.Random(1)) == \
        ("pass", None)
    # a KL column missing its extremal h_{s1, s1 s2} = v, and with it the
    # entry h_{e, s1 s2} = v^2 rebuilt from it
    idat = integral_datum(a3, w(0, 0, 0))
    cache = KLCache(idat)
    t = idat.tables
    for u in t.elements:  # every column built and validated first
        cache.expansion(u)
    s1s2 = t.of(from_word(a3, (1, 2)))
    del cache._cols[s1s2][t.of(from_word(a3, (1,)))]
    assert len(cache.expansion(t.elements[s1s2])) == 2
    monkeypatch.setitem(idat._memo, "kl_cache", cache)
    status, witness = _check_hecke_block(a3, idat, None, random.Random(1))
    assert status == "fail" and "negative structure constant" in witness
    # conjugation by the twist taken to be trivial, while it swaps s1, s3
    t = BlockTables(a3_block)
    assert t.conj[1] != list(range(len(t.elements)))
    t.conj[1] = list(range(len(t.elements)))
    monkeypatch.setitem(a3_block.__dict__, "tables", t)
    status, witness = _check_hecke_block(a3, a3_block, None, random.Random(1))
    assert status == "fail" and "not rewrite-invariant" in witness


def test_tables_match_weyl_element_products(a3_block):
    idat = a3_block
    t, chamber = idat.tables, idat.chamber.sorted_elements
    for x, u in enumerate(t.elements):
        for j, s in enumerate(idat.simple_reflections):
            assert t.elements[t.right[j][x]] == u * s
        for c, g in enumerate(chamber):
            assert t.elements[t.conj[c][x]] == g.inverse() * u * g
            assert t.label(g * u) == (c, x)
    assert chamber[0].is_identity
    for a, g in enumerate(chamber):
        for b, h in enumerate(chamber):
            assert chamber[idat.chamber_mul[a][b]] == g * h


@pytest.mark.parametrize("label,lam", REFERENCE_BLOCKS,
                         ids=_ids(REFERENCE_BLOCKS))
def test_bs_left_matches_the_generic_product(label, lam):
    """The left sweep b_s h equals kl_generator(idat, j) * h on twisted KL
    basis elements (c, e) b_x for every twist c, on word images and on
    combinations whose terms can cancel."""
    idat = integral_datum(build_root_system(label), lam)
    cache = kl_cache(idat)
    rng = random.Random(f"bs_left:{label}:{lam}")
    twists, elements = idat.chamber.sorted_elements, idat.int_elements()
    xs = elements if len(elements) <= 48 else rng.sample(elements, 16)
    hs = [cache.kl_basis_element(c, x) for c in twists for x in xs]
    hs += [bs_character(idat, _seeded_word(idat, rng)) for _ in range(6)]
    hs += [HeckeElement(idat, {
        (rng.choice(twists), rng.choice(elements)):
            LaurentPoly({rng.randint(-2, 2): rng.choice((-1, 1, 2))})
        for _ in range(4)}) for _ in range(6)]
    for j in range(1, idat.rank + 1):
        b = kl_generator(idat, j)
        for h in hs:
            assert bs_left(idat, j, h) == b * h, (j, h)


def test_bs_left_checks_its_arguments(a1, a3_block):
    h = identity_element(a3_block)
    with pytest.raises(ValueError, match="another block"):
        bs_left(integral_datum(a1, w(0)), 1, h)
    for j in (0, a3_block.rank + 1):
        with pytest.raises(ValueError, match="out of range"):
            bs_left(a3_block, j, h)


@pytest.mark.parametrize("label,lam", CORPUS_BLOCKS, ids=_ids(CORPUS_BLOCKS))
def test_upper_half_decomposition_matches_the_full_one(label, lam):
    """The s-upper-half kernel of the hecke_block check gives, for every w
    in W_int and every j, the graded coefficients, in their order, of the
    full decomposition of b_s b_w = bs_left(b_w)."""
    datum = build_root_system(label)
    idat = integral_datum(datum, lam)
    cache = kl_cache(idat)
    for x, u in enumerate(idat.int_elements()):
        b_u = cache.kl_basis_element(datum.identity, u)
        for j in range(1, idat.rank + 1):
            full = hecke._decompose(cache, bs_left(idat, j, b_u))
            assert {c for c, _ in full} <= {0}
            expect = [(z, {e: m for e, m in g.items() if m})
                      for (_, z), g in full.items()]
            got = hecke._bs_kl_coefficients(cache, x, j)
            assert list(got.items()) == expect, (u, j)

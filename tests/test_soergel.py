import json
import random
from fractions import Fraction as Q

import pytest

from weylblocks import (
    BsLetter,
    RwLetter,
    SingularWord,
    build_P_object,
    build_root_system,
    dot_action,
    grading,
    indecomposable_index,
    integral_datum,
    lattice_class,
    make_word,
    normalize,
    p_object_spec,
    random_rewrite,
    rank_left,
    rewrite_sites,
    rewrite_step,
    torsion_group,
    validate_singular_word,
)
from weylblocks.cli import default_corpus_path, load_corpus

from conftest import w
from oracles import closure_order, reference_normalize, reference_sites, \
    reference_step


with open(default_corpus_path(), encoding="utf-8") as _fh:
    CORPUS_BLOCKS = [(e.type_label, e.lam)
                     for e in load_corpus(json.load(_fh))]


def block_a3(a3_block):
    c = next(x for x in a3_block.chamber.elements if not x.is_identity)
    return a3_block, c


def test_grading_examples(a3_block):
    idat, c = block_a3(a3_block)
    assert grading(make_word(idat, [BsLetter(1), BsLetter(2)])).is_zero
    assert str(grading(make_word(idat, [RwLetter(c)]))) == "2 mod 4"
    assert grading(make_word(idat, [RwLetter(c), RwLetter(c)])).is_zero
    # a shift from another torsion group fails once a twist is added to it
    other = torsion_group(build_root_system("A1")).zero
    assert grading(make_word(idat, [BsLetter(1)], other)) is other
    with pytest.raises(ValueError, match="different groups"):
        grading(make_word(idat, [RwLetter(c)], other))


def test_make_word_validation(a3_block, a3):
    with pytest.raises(ValueError):
        make_word(a3_block, [BsLetter(3)])
    with pytest.raises(ValueError):
        make_word(a3_block, [RwLetter(a3.simple_reflections[0])])


def test_rewrite_examples(a3_block, a3):
    idat, c = block_a3(a3_block)
    word = make_word(idat, [RwLetter(a3.identity), BsLetter(1)])
    assert normalize(word).letters == (BsLetter(1),)
    word = make_word(idat, [RwLetter(c), RwLetter(c.inverse())])
    assert normalize(word).letters == ()
    # pushing a twist left conjugates the wall letter across it
    word = make_word(idat, [BsLetter(1), RwLetter(c)])
    assert normalize(word).letters == (RwLetter(c), BsLetter(2))
    word = make_word(idat, [BsLetter(2), RwLetter(c)])
    assert normalize(word).letters == (RwLetter(c), BsLetter(1))


def test_rewrite_step_is_single_and_local(a3_block):
    idat, c = block_a3(a3_block)
    word = make_word(idat, [BsLetter(1), RwLetter(c), RwLetter(c)])
    sites = rewrite_sites(word)
    assert sites == (0, 1)
    stepped = rewrite_step(word, 1)
    assert stepped.letters == (BsLetter(1), RwLetter(c * c))
    with pytest.raises(ValueError):
        rewrite_step(word, 2)


def _random_word(idat, rng, max_len=9):
    twists = idat.chamber.sorted_elements or (idat.datum.identity,)
    letters = []
    for _ in range(rng.randrange(max_len + 1)):
        if idat.rank and rng.random() < 0.6:
            letters.append(BsLetter(rng.randrange(1, idat.rank + 1)))
        else:
            letters.append(RwLetter(rng.choice(twists)))
    return make_word(idat, letters)


def test_rewrite_step_checks_only_the_requested_site(a3_block):
    rng = random.Random("local-site")
    for _ in range(80):
        word = _random_word(a3_block, rng)
        sites = rewrite_sites(word)
        for p in range(-1, len(word.letters) + 1):
            if p in sites:
                assert rewrite_step(word, p).letters != word.letters
            elif not sites:
                assert rewrite_step(word, p) is word
            else:
                with pytest.raises(ValueError):
                    rewrite_step(word, p)
        if sites:
            assert rewrite_step(word) == rewrite_step(word, sites[0])
        else:
            assert rewrite_step(word) is word


def _random_rewrite_path(word, rng):
    steps = 0
    cap = (len(word.letters) + 1) ** 2
    while True:
        sites = rewrite_sites(word)
        if not sites:
            return word, steps
        word = rewrite_step(word, rng.choice(sites))
        steps += 1
        assert steps <= cap, "termination measure exceeded"


@pytest.mark.parametrize("label,lam", [
    ("A3", (0, Q(1, 2), 0)),
    ("A1", (Q(1, 2),)),
    ("A4", (Q(1, 2), 0, 0, Q(1, 2))),
    ("B2", (Q(1, 2), 0)),
])
def test_confluence_and_invariants(label, lam):
    datum = build_root_system(label)
    idat = integral_datum(datum, tuple(Q(c) for c in lam))
    rng = random.Random(f"confluence:{label}")
    for _ in range(120):
        word = _random_word(idat, rng)
        nf = normalize(word)
        assert rewrite_sites(nf) == ()
        for _ in range(3):
            alt, _steps = _random_rewrite_path(word, rng)
            assert alt == nf
        assert grading(nf) == grading(word)
        assert nf.bs_count == word.bs_count
        assert rank_left(nf) == rank_left(word) == 2 ** word.bs_count
        # normal form shape: at most one twist, leading, non-identity
        twists = [i for i, l in enumerate(nf.letters)
                  if isinstance(l, RwLetter)]
        assert twists in ([], [0])


@pytest.mark.parametrize("label,lam,order,rank", [
    ("D4", (Q(1, 2), 0, Q(1, 2), Q(1, 2)), 4, 4),
    ("A3", (0, Q(1, 2), 0), 2, 2),
    ("A2", (Q(1, 3), Q(1, 3)), 3, 0),
])
def test_code_rules_match_letter_rules(label, lam, order, rank):
    idat = integral_datum(build_root_system(label), tuple(map(Q, lam)))
    assert (idat.chamber.order, idat.rank) == (order, rank)
    rng = random.Random(f"codes:{label}")
    for _ in range(200):
        word = _random_word(idat, rng)
        letters = word.letters
        assert make_word(idat, letters) == word
        sites = reference_sites(letters)
        assert rewrite_sites(word) == sites
        for p in sites:
            assert rewrite_step(word, p).letters == \
                reference_step(idat, letters, p)
        assert normalize(word).letters == reference_normalize(idat, letters)


@pytest.mark.parametrize(
    "label,lam", CORPUS_BLOCKS,
    ids=[f"{t}:{','.join(map(str, l))}" for t, l in CORPUS_BLOCKS])
def test_fold_matches_the_leftmost_walk(label, lam):
    """normalize's one fold equals the letter oracle and a leftmost
    rewrite_step walk; grading equals the shift plus tau summed one twist
    at a time."""
    datum = build_root_system(label)
    idat = integral_datum(datum, lam)
    group = torsion_group(datum)
    rng = random.Random(f"fold:{label}:{lam}")
    for _ in range(200):
        letters = _random_word(idat, rng).letters
        shift = group.class_of([rng.randint(-3, 3)
                                for _ in range(datum.rank)])
        word = make_word(idat, letters, shift)
        nf = normalize(word)
        assert nf.letters == reference_normalize(idat, letters)
        walk = word
        while rewrite_sites(walk):
            walk = rewrite_step(walk)
        assert nf == walk and nf.shift == shift
        expect = shift
        for l in letters:
            if isinstance(l, RwLetter):
                expect += idat.chamber_tau[
                    idat.chamber_number[l.twist.root_perm]]
        assert grading(word) == grading(nf) == expect


def test_word_calculus_leaves_the_w_int_tables_unbuilt():
    # a datum of its own, so no other test has built this block's tables
    datum = build_root_system.__wrapped__("D4")
    idat = integral_datum(datum, (Q(1, 2), Q(0), Q(1, 2), Q(1, 2)))
    c = idat.chamber.sorted_elements[-1]
    word = make_word(idat, [BsLetter(1), RwLetter(c), BsLetter(2),
                            RwLetter(c)])
    nf = normalize(word)
    assert nf == random_rewrite(word, random.Random("tables"))
    assert grading(nf) == grading(word) and rank_left(nf) == 4
    assert rewrite_step(word, 0).letters[0] == RwLetter(c)
    assert "tables" not in vars(idat)


def test_twist_conjugation_permutes_alphabet(a3_block):
    idat, c = block_a3(a3_block)
    for u in idat.chamber.elements:
        images = {idat.conjugate_simple(u, j)
                  for j in range(1, idat.rank + 1)}
        assert images == set(range(1, idat.rank + 1))


def test_rank_left_examples(a3_block):
    idat, c = block_a3(a3_block)
    assert rank_left(make_word(idat, [BsLetter(1)])) == 2
    assert rank_left(make_word(idat, [RwLetter(c)])) == 1
    assert rank_left(make_word(idat, [BsLetter(1), BsLetter(1)])) == 4


def test_singular_word_validation(a3_block, a2):
    idat, c = block_a3(a3_block)
    e = idat.datum.identity
    ok = SingularWord(idat, (frozenset(), frozenset({1}), frozenset()),
                      e, frozenset(), frozenset())
    assert validate_singular_word(ok)
    # an even-length chain is not a containment pattern
    i2 = integral_datum(a2, (Q(0), Q(0)))
    bad = SingularWord(i2, (frozenset({1}), frozenset({2})),
                       a2.identity, frozenset({1}), frozenset({2}))
    assert not validate_singular_word(bad)
    # the leading subset must be the twisted mu-side parabolic
    lead = SingularWord(idat, (frozenset({1}), frozenset({1, 2}),
                               frozenset({1})),
                        c, frozenset({2}), frozenset({1}))
    assert validate_singular_word(lead)
    lead_wrong = SingularWord(idat, (frozenset({2}), frozenset({1, 2}),
                                     frozenset({1})),
                              c, frozenset({2}), frozenset({1}))
    assert not validate_singular_word(lead_wrong)


def test_rank_of_an_invalid_chain_raises(a3):
    """({1,2}, {1}, {}) is no containment pattern: its index ratio 2/6 is
    no rank, and the chain is refused before it is computed."""
    idat = integral_datum(a3, w(0, 0, 0))
    sw = SingularWord(idat, (frozenset({1, 2}), frozenset({1}), frozenset()),
                      a3.identity, frozenset(), frozenset())
    assert not validate_singular_word(sw)
    with pytest.raises(ValueError, match="not a valid singular word"):
        rank_left(sw)


def test_singular_rank(a3_block):
    idat, _ = block_a3(a3_block)
    e = idat.datum.identity
    # the plain wall chain restricted to a regular pair: rank 2 twice over
    sw = SingularWord(idat, (frozenset(), frozenset({1}), frozenset(),
                             frozenset({2}), frozenset()),
                      e, frozenset(), frozenset())
    assert validate_singular_word(sw)
    assert rank_left(sw) == 4
    assert closure_order(idat.datum, idat.simple_reflections[:2]) == 4


def test_p_object_unit(a1):
    idat = integral_datum(a1, w(0))
    spec = p_object_spec(idat, w(-1), a1.identity, ())
    steps, image = build_P_object(spec)
    assert image.letters == ()
    assert str(grading(image)) == "1 mod 2"  # class of mu - lam
    assert steps[0][0] == w(-1) and steps[-1][1] == w(0)


def test_p_object_single_wall(a1):
    idat = integral_datum(a1, w(0))
    spec = p_object_spec(idat, w(0), a1.identity, (1,))
    _, image = build_P_object(spec)
    assert image.letters == (BsLetter(1),)
    assert grading(image).is_zero


def test_p_object_with_twist(a3, a3_block):
    idat, c = block_a3(a3_block)
    spec = p_object_spec(idat, idat.lam, c, (1,))
    steps, image = build_P_object(spec)
    assert image.letters == (RwLetter(c), BsLetter(1))
    # total grading equals the class of c.mu - lam
    c_mu = dot_action(a3, c, idat.lam)
    assert grading(image) == lattice_class(
        a3, tuple(x - y for x, y in zip(c_mu, idat.lam)))
    assert steps[0] == (c_mu, spec.nu)


def test_p_object_certificate_validation(a1):
    idat = integral_datum(a1, w(0))
    spec = p_object_spec(idat, w(0), a1.identity, (1,))
    broken = type(spec)(spec.ambient, spec.mu, spec.c, spec.indices,
                        spec.nu, {1: w(0)})  # not on the wall
    with pytest.raises(ValueError):
        build_P_object(broken)


def test_indecomposable_index_examples(a1, a2):
    assert len(indecomposable_index(a1, w(Q(-1, 2)), w(Q(-1, 2)))) == 2
    assert len(indecomposable_index(a1, w(-1), w(0))) == 1
    assert len(indecomposable_index(a2, w(0, 0), w(0, 0))) == 6
    with pytest.raises(ValueError):
        indecomposable_index(a1, w(Q(1, 2)), w(0))
    with pytest.raises(ValueError):
        indecomposable_index(a1, w(-2), w(0))


def test_index_chamber_stratification(a1):
    labels = indecomposable_index(a1, w(Q(-1, 2)), w(Q(-1, 2)))
    twists = {c for c, _ in labels}
    assert len(twists) == 2  # one label per chamber element here

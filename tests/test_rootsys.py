import copy as copy_module
import doctest
import pickle
import random
from fractions import Fraction as Q

import pytest

import weylblocks.rootsys
from weylblocks import (
    UnknownTypeError,
    are_compatible,
    build_root_system,
    classify_weight,
    dominant_character,
    dot_action,
    enumerate_Xi,
    integral_datum,
    lattice_class,
    linked,
    p_object_spec,
    torsion_group,
    weight_lattice_tests,
    weyl_dimension,
)
from weylblocks.cat_o import linear_dominant_rep, linear_orbit
from weylblocks.coxeter import (
    _transversal,
    from_word,
    generate_group,
    length,
    reduced_word,
    weyl_element_at,
)
from weylblocks.integral import lattice_mover
from weylblocks.rootsys import (
    _RANK_RANGE,
    IDENTITY_PERM,
    MAX_ROOTS,
    POSITIVE_ROOT_COUNT,
    GroupBoundExceeded,
    WeylElement,
    _numerators,
    _orbit,
    _step,
    dominant_dot_weight,
    smith_normal_form,
    to_dominant_dot,
)

from conftest import w
from oracles import (
    fraction_act,
    fraction_classify_weight,
    fraction_dot_action,
    fraction_inverse,
    fraction_to_dominant_dot,
    mat_vec,
    root_coords,
)

KERNEL_TYPES = ["A1", "A1xA1", "A3", "B3", "C3", "G2", "D4", "F4"]


def random_weight(rng, rank):
    """A rational weight with denominators 1-6."""
    return tuple(Q(rng.randint(-12, 12), rng.randint(1, 6))
                 for _ in range(rank))


def off_chamber_dominant(datum):
    """Weights that classify_weight calls dominant although lam + rho has a
    negative coordinate: that pairing is not an integer.  Candidates with a
    negative integral pairing on some other root are left out."""
    out = []
    for i in range(datum.rank):
        for num, den in ((-3, 2), (-5, 3), (-7, 6), (-5, 4)):
            lam = [Q(0)] * datum.rank
            lam[i] = Q(num, den)  # <lam + rho, alpha_i^vee> < 0, nonintegral
            if fraction_classify_weight(datum, lam).dominant:
                out.append(tuple(lam))
    assert out
    return out

KNOWN = [
    ("A1", 1, 2), ("A2", 3, 6), ("A3", 6, 24), ("A4", 10, 120),
    ("B2", 4, 8), ("B3", 9, 48), ("C3", 9, 48), ("D4", 12, 192),
    ("G2", 6, 12), ("F4", 24, 1152), ("A1xA1", 2, 4), ("A2xB2", 7, 48),
]


@pytest.mark.parametrize("label,n_pos,order", KNOWN)
def test_construction_counts(label, n_pos, order):
    datum = build_root_system(label)
    assert datum.num_positive == n_pos
    assert len(generate_group(datum)) == order


def test_cartan_matrix_is_finite_type(a3, b2):
    for datum in (a3, b2):
        m = datum.cartan_matrix
        n = datum.rank
        for i in range(n):
            assert m[i][i] == 2
            for j in range(n):
                if i != j:
                    assert m[i][j] <= 0
                    assert m[i][j] * m[j][i] < 4


def test_pairing_convention(b2):
    # <alpha_i, alpha_j^vee> must be the (j, i) Cartan entry
    for i in range(1, 3):
        for j in range(1, 3):
            ai = b2.simple_root(i)
            aj = b2.simple_root(j)
            assert aj.pair(ai.as_weight) == b2.cartan_matrix[j - 1][i - 1]


def test_rho_pairs_to_one_on_simple_coroots():
    for label in ("A2", "B3", "G2", "A1xA1"):
        datum = build_root_system(label)
        for i in range(1, datum.rank + 1):
            assert datum.simple_root(i).pair(datum.rho) == 1


def test_root_sign_split():
    datum = build_root_system("B3")
    for r in datum.positive_roots:
        assert all(c >= 0 for c in r.simple_coords)
        neg = datum.roots[r.index + datum.num_positive]
        assert neg.simple_coords == tuple(-c for c in r.simple_coords)


@pytest.mark.parametrize("bad", ["H2", "A0", "A9", "E5", "B1", "", "A", "Axx"])
def test_unknown_labels_rejected(bad):
    with pytest.raises(UnknownTypeError):
        build_root_system(bad)


def test_dot_action_examples(a1, a2):
    s = a1.simple_reflections[0]
    assert dot_action(a1, a1.identity, w(Q(1, 3))) == w(Q(1, 3))
    # s . 0 = -alpha = -2 omega in rank one
    assert dot_action(a1, s, w(0)) == w(-2)
    s1 = a2.simple_reflections[0]
    alpha1 = a2.simple_root(1).as_weight
    assert dot_action(a2, s1, w(0, 0)) == tuple(-c for c in alpha1)


def test_dot_action_properties(a3):
    rng = random.Random(11)
    group = generate_group(a3)
    for _ in range(60):
        lam = tuple(Q(rng.randint(-6, 6), rng.choice([1, 2, 3]))
                    for _ in range(3))
        u = rng.choice(group)
        v = rng.choice(group)
        assert dot_action(a3, u, dot_action(a3, u.inverse(), lam)) == lam
        assert dot_action(a3, u * v, lam) == \
            dot_action(a3, u, dot_action(a3, v, lam))


A3_ZERO = (Q(0),) * 3
A3_HALF = (Q(0), Q(1, 2), Q(0))
WEIGHT_ENTRY_POINTS = {
    "classify_weight": classify_weight,
    "weyl_dimension": weyl_dimension,
    "dominant_dot_weight": dominant_dot_weight,
    "to_dominant_dot": to_dominant_dot,
    "linear_dominant_rep": linear_dominant_rep,
    "linear_orbit": linear_orbit,
    "lattice_class": lattice_class,
    "weight_lattice_tests": weight_lattice_tests,
    "dominant_character": dominant_character,
    "integral_datum": integral_datum,
    "dot_action": lambda d, x: dot_action(d, d.identity, x),
    "linked": lambda d, x: linked(d, A3_ZERO, x),
    "lattice_mover": lambda d, x: lattice_mover(d, x, A3_ZERO),
    "are_compatible": lambda d, x: are_compatible(d, A3_ZERO, x),
    "enumerate_Xi": lambda d, x: enumerate_Xi(d, x, A3_HALF),
    "p_object_spec": lambda d, x: p_object_spec(integral_datum(d, A3_HALF),
                                                x, d.identity, ()),
}


@pytest.mark.parametrize("weight", [w(1, 0), w(0, Q(1, 2), 0, 0)],
                         ids=["short", "long"])
@pytest.mark.parametrize("name", WEIGHT_ENTRY_POINTS)
def test_weights_of_the_wrong_length_are_rejected(a3, name, weight):
    """Every entry point taking a weight rejects one of the wrong length
    before a zip can truncate it or an index run past it."""
    with pytest.raises(ValueError, match=f"weight has {len(weight)} "
                                         "coordinates, expected 3"):
        WEIGHT_ENTRY_POINTS[name](a3, weight)


def test_reflections_fix_their_wall(a3):
    rng = random.Random(5)
    for root in a3.positive_roots:
        s = a3.reflection(root)
        assert s.act(root.as_weight) == tuple(-c for c in root.as_weight)
        # fixes a spanning set of the hyperplane <., alpha^vee> = 0
        fixed = 0
        for _ in range(12):
            x = tuple(Q(rng.randint(-4, 4)) for _ in range(3))
            proj = tuple(
                xi - root.pair(x) * ai / 2
                for xi, ai in zip(x, root.as_weight))
            assert root.pair(proj) == 0
            if s.act(proj) == proj:
                fixed += 1
        assert fixed == 12


def test_length_behavior(b2):
    rng = random.Random(7)
    group = generate_group(b2)
    for _ in range(100):
        u, v = rng.choice(group), rng.choice(group)
        assert length(b2, u * v) <= length(b2, u) + length(b2, v)
        i = rng.randrange(2)
        s = b2.simple_reflections[i]
        assert abs(length(b2, u * s) - length(b2, u)) == 1


def test_classify_weight_examples(a1):
    cls = classify_weight(a1, w(-1))
    assert cls.dominant and not cls.regular
    assert [r.simple_coords for r in cls.singular_roots] == [(1,)]
    cls = classify_weight(a1, w(Q(-1, 2)))
    assert cls.dominant and cls.regular
    cls = classify_weight(a1, w(0))
    assert cls.dominant and cls.regular
    assert not classify_weight(a1, w(-2)).dominant
    assert classify_weight(a1, w(-2)).antidominant


def test_weight_lattice_tests_examples(a1, a2, a3):
    res = weight_lattice_tests(a1, w(1))
    assert res.in_weight_lattice and not res.in_root_lattice
    assert str(res.torsion_class) == "1 mod 2"
    res = weight_lattice_tests(a2, w(1, 1))  # rho = highest root here
    assert res.in_root_lattice and res.torsion_class.is_zero
    res = weight_lattice_tests(a3, w(0, 1, 0))
    assert str(res.torsion_class) == "2 mod 4"
    res = weight_lattice_tests(a1, w(Q(1, 2)))
    assert not res.in_weight_lattice and res.torsion_class is None
    with pytest.raises(ValueError):
        lattice_class(a1, w(Q(1, 2)))


def test_torsion_class_is_additive_and_det_order(a3):
    grp = torsion_group(a3)
    assert grp.order == 4  # det of the Cartan matrix
    x, y = w(0, 1, 0), w(1, 0, 0)
    assert grp.class_of(tuple(a + b for a, b in zip(x, y))) == \
        grp.class_of(x) + grp.class_of(y)
    # the middle fundamental weight has order two in the cyclic group
    cls = grp.class_of(x)
    assert not cls.is_zero and (cls + cls).is_zero


def test_torsion_class_of_ints_matches_fractions(a3):
    grp = torsion_group(a3)
    for v in ([0, 1, 0], [3, -2, 5], [-1, 0, 7]):
        assert grp.class_of(v) == grp.class_of(tuple(Q(x) for x in v))
        assert grp.class_of(v) is grp.class_of(list(v))  # one per class
    for bad in ((Q(1, 2), 0, 0), [0, 1, Q(-3, 4)], [0.5, 0, 0]):
        with pytest.raises(ValueError, match="not integral"):
            grp.class_of(bad)


def test_smith_normal_form_random():
    rng = random.Random(3)
    for _ in range(40):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        a = [[rng.randint(-5, 5) for _ in range(m)] for _ in range(n)]
        p, s, q = smith_normal_form(a)
        # p * a * q == s
        pa = [[sum(p[i][k] * a[k][j] for k in range(n)) for j in range(m)]
              for i in range(n)]
        paq = [[sum(pa[i][k] * q[k][j] for k in range(m)) for j in range(m)]
               for i in range(n)]
        assert paq == s
        diag = [s[i][i] for i in range(min(n, m))]
        for i in range(n):
            for j in range(m):
                if i != j:
                    assert s[i][j] == 0
        for d, e in zip(diag, diag[1:]):
            assert d >= 0 and (d == 0 and e == 0 or e % max(d, 1) == 0
                               if d == 0 else e % d == 0)


@pytest.mark.parametrize("label", [
    f"{letter}{n}" for letter, (lo, hi) in _RANK_RANGE.items()
    for n in range(lo, hi + 1)] + ["A2xB3xG2"])
def test_inverse_cartan_matches_fraction_inverse(label):
    datum = build_root_system(label)
    rows, d = datum.inverse_cartan
    cartan, n = datum.cartan_matrix, datum.rank
    assert d == torsion_group(datum).order  # |det C|
    assert [[sum(rows[i][k] * cartan[k][j] for k in range(n))
             for j in range(n)] for i in range(n)] == \
        [[d * int(i == j) for j in range(n)] for i in range(n)]
    inverse = fraction_inverse(cartan)
    rng = random.Random(f"root_coords:{label}")
    for lam in [r.as_weight for r in datum.roots[:datum.num_positive]] + \
            [random_weight(rng, n) for _ in range(10)]:
        assert root_coords(datum, lam) == mat_vec(inverse, lam)


def test_rootsys_doctests_pass():
    result = doctest.testmod(weylblocks.rootsys)
    assert result.failed == 0 and result.attempted >= 3


def test_positive_root_count_table_matches():
    for label, n_pos, _ in KNOWN:
        datum = build_root_system(label)
        expected = 0
        for part in label.split("x"):
            expected += POSITIVE_ROOT_COUNT[part[0]](int(part[1:]))
        assert datum.num_positive == expected == n_pos


@pytest.mark.parametrize("label", ["A1xA1", "A3", "B3", "C3", "G2", "D4",
                                   "F4"])
def test_permutation_action_against_reflection_formula(label):
    datum = build_root_system(label)
    n = datum.rank
    # alpha_i in fundamental-weight coordinates: column i of the Cartan matrix
    alpha = [tuple(datum.cartan_matrix[k][i] for k in range(n))
             for i in range(n)]
    index_of = {r.as_weight: r.index for r in datum.roots}
    alpha_index = [index_of[tuple(Q(c) for c in a)] for a in alpha]

    def by_word(word, x):
        for i in reversed(word):  # s_{i_1} ... s_{i_k} x, rightmost first
            x = tuple(xk - x[i - 1] * ak for xk, ak in zip(x, alpha[i - 1]))
        return x

    group = generate_group(datum)
    for u in group:
        word = reduced_word(datum, u)
        for j in range(n):
            omega = tuple(int(k == j) for k in range(n))
            assert u.act(w(*omega)) == by_word(word, omega)
        for i in range(n):
            assert u.act(w(*alpha[i])) == \
                datum.roots[u.root_perm[alpha_index[i]]].as_weight
    rng = random.Random(29)
    for _ in range(100):
        u, v = rng.choice(group), rng.choice(group)
        x = tuple(Q(rng.randint(-6, 6), rng.choice([1, 2, 3]))
                  for _ in range(n))
        assert (u * v).act(x) == u.act(v.act(x))
        assert (u.inverse() * u).is_identity
        assert u.inverse() * u == datum.identity


def _is_fraction_weight(x) -> bool:
    return type(x) is tuple and all(type(c) is Q for c in x)


@pytest.mark.parametrize("label", KERNEL_TYPES)
def test_kernel_matches_fraction_oracles(label):
    datum = build_root_system(label)
    group = generate_group(datum)
    rng = random.Random(f"kernel:{label}")
    weights = [random_weight(rng, datum.rank) for _ in range(60)]
    weights += off_chamber_dominant(datum)
    for lam in weights:
        u = rng.choice(group)
        assert u.act(lam) == fraction_act(u, lam)
        moved = dot_action(datum, u, lam)
        assert _is_fraction_weight(moved)
        assert moved == fraction_dot_action(datum, u, lam)
        assert classify_weight(datum, lam) == \
            fraction_classify_weight(datum, lam)
        elem, dom = to_dominant_dot(datum, lam)
        assert _is_fraction_weight(dom)
        assert (elem, dom) == fraction_to_dominant_dot(datum, lam)
        assert dominant_dot_weight(datum, lam) == dom


@pytest.mark.parametrize("label", KERNEL_TYPES)
def test_dominant_is_not_the_fundamental_chamber(label):
    # classify_weight's dominance ignores nonintegral pairings, so these
    # weights are dominant yet have another point of their dot orbit in the
    # closed fundamental chamber
    datum = build_root_system(label)
    for lam in off_chamber_dominant(datum):
        assert classify_weight(datum, lam).dominant
        dom = dominant_dot_weight(datum, lam)
        assert dom != lam
        assert dom == fraction_to_dominant_dot(datum, lam)[1]
        assert all(c + 1 >= 0 for c in dom)


# ---------------------------------------------------------------------------
# the element representation: 256-byte root permutations
# ---------------------------------------------------------------------------

#: one block per type, with a nontrivial chamber where the type has one
REPRESENTATION_BLOCKS = [
    ("A3", (0, Q(1, 2), 0)),
    ("B4", (0, 0, 0, Q(1, 2))),
    ("G2", (Q(1, 2), 0)),
    ("F4", (0, 0, 0, Q(1, 2))),
    ("E6", (Q(1, 3), 0, 0, 0, 0, Q(1, 3))),
]


def assert_padded_perm(datum, u):
    """u's permutation is 256 bytes: a permutation of the 2N root indices,
    then the identity."""
    perm, n = u.root_perm, len(datum.roots)
    assert type(perm) is bytes and len(perm) == MAX_ROOTS
    assert sorted(perm[:n]) == list(range(n))
    assert perm[n:] == IDENTITY_PERM[n:]


@pytest.mark.parametrize("label, lam", REPRESENTATION_BLOCKS)
def test_every_element_is_a_padded_byte_permutation(label, lam):
    datum = build_root_system(label)
    idat = integral_datum(datum, lam)
    group = generate_group(datum)
    rng = random.Random(f"perm:{label}")
    drawn = [weyl_element_at(datum, rng.randrange(len(group)))
             for _ in range(20)]
    pairs = [(rng.choice(group), rng.choice(group)) for _ in range(50)]
    assert idat.chamber.order > 1 or label in ("G2", "F4")
    for u in (datum.identity, *datum.simple_reflections,
              *map(datum.reflection, datum.roots), *group,
              *idat.int_elements(), *idat.chamber.elements, *idat.w_ext,
              *drawn, *(a * b for a, b in pairs),
              *(a.inverse() for a, _ in pairs)):
        assert_padded_perm(datum, u)


@pytest.mark.parametrize("label, lam", REPRESENTATION_BLOCKS)
def test_products_and_inverses_compose_permutations(label, lam):
    datum = build_root_system(label)
    group, n = generate_group(datum), len(datum.roots)
    rng = random.Random(f"compose:{label}")
    for _ in range(100):
        a, b = rng.choice(group), rng.choice(group)
        assert (a * b).root_perm[:n] == \
            bytes(a.root_perm[i] for i in b.root_perm[:n])
        assert (a.inverse() * a).is_identity
        assert a.inverse() * a == datum.identity == a * a.inverse()


@pytest.mark.parametrize("label, lam", REPRESENTATION_BLOCKS)
def test_equal_permutations_built_apart_are_one_element(label, lam):
    datum = build_root_system(label)
    group = generate_group(datum)
    rng = random.Random(f"equal:{label}")
    for u in rng.sample(group[1:], min(20, len(group) - 1)):
        again = from_word(datum, reduced_word(datum, u))
        copy = WeylElement(bytes(bytearray(u.root_perm)), datum)
        assert copy.root_perm is not u.root_perm
        for v in (again, copy):
            assert v is not u
            assert v == u and hash(v) == hash(u)
        assert len({u, again, copy}) == 1
        assert u != u.root_perm  # an element is not its bytes


@pytest.mark.parametrize("label, lam", REPRESENTATION_BLOCKS)
def test_elements_are_immutable_and_repr_shows_the_roots(label, lam):
    datum = build_root_system(label)
    u = datum.simple_reflections[-1] * datum.simple_reflections[0]
    for name, value in (("root_perm", IDENTITY_PERM), ("datum", None),
                        ("other", 1)):
        with pytest.raises(AttributeError):
            setattr(u, name, value)
    with pytest.raises(AttributeError):
        del u.root_perm
    assert u.weight_matrix == u.weight_matrix  # filled once, read again
    with pytest.raises(AttributeError):
        u._weight_matrix = ()
    n = len(datum.roots)
    assert repr(u) == f"WeylElement(root_perm={tuple(u.root_perm[:n])})"
    assert copy_module.copy(u) == u and pickle.loads(pickle.dumps(u)) == u


@pytest.mark.parametrize("label, count", [("E8xA4", 260), ("E8xD4", 264)])
def test_more_than_256_roots_are_refused(label, count):
    with pytest.raises(UnknownTypeError,
                       match=f"{label} has {count} roots; at most 256"):
        build_root_system(label)


def test_252_roots_still_build():
    datum = build_root_system("E8xA3")
    assert len(datum.roots) == 252
    u = datum.simple_reflections[0] * datum.simple_reflections[-1]
    assert_padded_perm(datum, u)
    assert (u.inverse() * u).is_identity


# nonintegral weights; their numerators are walked linearly and mod den
ORBIT_WEIGHTS = [
    ("A3", w(0, Q(1, 2), 0)),
    ("B3", w(Q(1, 2), 0, Q(1, 2))),
    ("G2", w(Q(1, 3), Q(-1, 2))),
    ("D4", w(Q(1, 2), 0, 0, Q(1, 3))),
    ("E6", w(Q(1, 3), 0, 0, 0, 0, Q(1, 2))),
]


def orbit_depths(cartan, orbit, den):
    """Each point's distance from the start along its search-tree parents,
    asserting that the parent came earlier in the search order."""
    depth = {}
    for x, i in orbit.items():
        if i < 0:
            depth[x] = 0
        else:
            parent = _step(cartan, x, i, den)
            assert parent in depth
            depth[x] = depth[parent] + 1
    return depth


@pytest.mark.parametrize("label, lam", ORBIT_WEIGHTS,
                         ids=[label for label, _ in ORBIT_WEIGHTS])
@pytest.mark.parametrize("mod", [False, True], ids=["linear", "mod_den"])
def test_orbit_matches_brute_force(label, lam, mod):
    """``_orbit`` is the orbit over every element of W, linear or mod den,
    searched breadth first from its start, and ``_transversal`` moves the
    start to each point."""
    datum = build_root_system(label)
    cartan = datum.cartan_matrix
    nums, den = _numerators(lam)
    den = den if mod else 0
    reduce = (lambda x: tuple(v % den for v in x)) if mod else tuple
    orbit = _orbit(cartan, nums, range(datum.rank), den)
    brute = {reduce(mat_vec(u.weight_matrix, nums))
             for u in generate_group(datum)}
    assert set(orbit) == brute and len(orbit) == len(brute)
    assert next(iter(orbit.items())) == (reduce(nums), -1)
    depth = list(orbit_depths(cartan, orbit, den).values())
    assert depth == sorted(depth)  # breadth first
    t = _transversal(datum, orbit, den)
    for x in orbit:
        assert reduce(mat_vec(t(x).weight_matrix, nums)) == x


def test_orbit_bound_and_stop():
    datum = build_root_system("D4")
    cartan = datum.cartan_matrix
    nums, den = _numerators(w(Q(1, 2), 0, 0, Q(1, 3)))
    letters = range(datum.rank)
    for d in (0, den):
        full = _orbit(cartan, nums, letters, d)
        assert _orbit(cartan, nums, letters, d, len(full)) == full
        with pytest.raises(GroupBoundExceeded, match="exceeds bound"):
            _orbit(cartan, nums, letters, d, len(full) - 1)
        depth = orbit_depths(cartan, full, d)
        for stop in full:  # the whole layer of stop, and nothing past it
            got = _orbit(cartan, nums, letters, d, stop=stop)
            assert list(got.items()) == [
                kv for kv in full.items() if depth[kv[0]] <= depth[stop]]
        # a stop outside the orbit walks all of it
        assert _orbit(cartan, nums, letters, d, stop=(7,) * 5) == full
    # the regular orbit of E8 holds |W| points: the bound stops it early
    e8 = build_root_system("E8")
    with pytest.raises(GroupBoundExceeded, match="bound 1000"):
        _orbit(e8.cartan_matrix, [1] * 8, range(8), 0, 1000)

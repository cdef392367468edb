"""Independent test oracles, kept apart from the library's main paths.

* The weight arithmetic done directly in Fractions, apart from the
  integer kernel in rootsys: the action, the dot action, weight
  classification and the walks to the dominant chamber, of the full and
  of the integral system; dot orbits by applying every element of the
  Weyl group.
* Matrix inverses by Gauss-Jordan elimination in Fractions.
* The decomposition w = c u in W_ext = C x| W_int by scanning W_int.
* The regular dominant and subgeneric certificates by scanning their
  coefficients upwards from the least, instead of the closed forms.
* Dot stabilizers by scanning the whole Weyl group.
* The movers of mu into lam + (weight lattice), hence W_ext, by scanning
  the whole Weyl group in generate_group order; the proper pairs of an
  orbit intersection from that scan in Fraction arithmetic; double cosets
  by a (length, word) key on every element.
* The stratified index of indecomposable classes chamber element by
  chamber element: the closed dot stabilizer of c.mu and a generic
  double-coset count over W_int for each c.
* Group enumeration by closure under products, sorted afterwards by
  (length, reduced word) through a fresh Coxeter system that computes each
  length as an inversion count and each word by greedy descents.
* Subgroup orders, parabolic ones included, as the size of that closure.
* The translation selection by walking every candidate to the dominant
  chamber, with no norm test in front.
* Bruhat order by exhaustive subword products of one reduced word.
* Kazhdan-Lusztig polynomials by inverting the R-polynomial functional
  equation (a different recursion from the production b_s-product one).
* Every KL column in full, by the b_s-product recursion over all pairs
  x <= w, with no reduction to extremal pairs.
* The extended Hecke algebra on WeylElement-keyed LaurentPoly terms: the
  product one (x, y) pair at a time, Bott-Samelson characters as products
  letter by letter, and the decomposition into the twisted KL basis.
* Dominant characters by the flat-box Freudenthal recursion: every weight
  down to half depth in a mixed-radix array, stabilizer orders by group
  enumeration; simple-root coordinates in Fractions over the integer
  inverse Cartan matrix.
* The word rewrite rules on letter objects, conjugating by WeylElement
  products; random words and random rewriting walks drawn on letters.
"""

from __future__ import annotations

from fractions import Fraction as Q
from itertools import combinations
from math import lcm

from weylblocks.cat_o import _check_dominant_integral, \
    irrep_weight_multiset, linear_dominant_rep, weyl_dimension
from weylblocks.coxeter import CoxeterSystem, closure, dot_stabilizer, \
    double_cosets, generate_group, reduced_word, sort_key
from weylblocks.hecke import ONE, V, V_INV, ZERO, LaurentPoly
from weylblocks.integral import _solve_single_diophantine, \
    dominant_dot_rep, integral_datum, lattice_mover
from weylblocks.rootsys import GroupBoundExceeded, WeightClass, \
    _dominant_dot_key, _integer_solver, _numerators, _rho_shifted, \
    _to_dominant, dot_action, weyl_order
from weylblocks.soergel import BsLetter, RwLetter, make_word

Q_MINUS_1 = LaurentPoly({1: 1, 0: -1})
Q_VAR = LaurentPoly({1: 1})


def mat_vec(m, v):
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in m)


def fraction_inverse(m) -> tuple:
    """The inverse of an invertible square matrix, by Gauss-Jordan
    elimination in Fractions."""
    n = len(m)
    a = [[Q(x) for x in row] + [Q(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for c in range(n):
        piv = next(i for i in range(c, n) if a[i][c] != 0)
        a[c], a[piv] = a[piv], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for i in range(n):
            if i != c and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return tuple(tuple(row[n:]) for row in a)


def fraction_act(w, weight):
    """w(weight) by the Fraction matrix product."""
    return mat_vec(w.weight_matrix, tuple(Q(c) for c in weight))


def fraction_dot_action(datum, w, lam):
    shifted = tuple(Q(x) + r for x, r in zip(lam, datum.rho))
    return tuple(x - r for x, r in zip(fraction_act(w, shifted), datum.rho))


def fraction_classify_weight(datum, lam) -> WeightClass:
    shifted = tuple(Q(x) + r for x, r in zip(lam, datum.rho))
    dominant = antidominant = True
    singular = []
    for root in datum.positive_roots:
        v = root.pair(shifted)
        if v == 0:
            singular.append(root)
        elif v.denominator == 1:
            if v < 0:
                dominant = False
            else:
                antidominant = False
    return WeightClass(dominant, antidominant, len(singular) == 0,
                       tuple(singular))


def fraction_to_dominant_dot(datum, nu):
    w, x = datum.identity, tuple(Q(c) for c in nu)
    while True:
        shifted = tuple(a + r for a, r in zip(x, datum.rho))
        i = next((j for j in range(datum.rank) if shifted[j] < 0), None)
        if i is None:
            return w, x
        s = datum.simple_reflections[i]
        x = fraction_dot_action(datum, s, x)
        w = s * w


def fraction_dominant_dot_rep(idat, nu):
    """dominant_dot_rep by the walk in Fractions: dot act by the integral
    simple reflection of the smallest index pairing negatively with
    x + rho, until there is none."""
    datum = idat.datum
    w, x = datum.identity, tuple(Q(c) for c in nu)
    while True:
        shifted = tuple(a + r for a, r in zip(x, datum.rho))
        j = next((j for j in range(idat.rank)
                  if idat.integral_simples[j].pair(shifted) < 0), None)
        if j is None:
            return w, x
        s = idat.simple_reflections[j]
        x = fraction_dot_action(datum, s, x)
        w = s * w


def scan_chamber_decompose(idat, w) -> tuple:
    """(c, u) with w = c u, c in the chamber, by scanning W_int for the u
    with w u^{-1} in the chamber."""
    for u in idat.int_elements():
        c = w * u.inverse()
        if c in idat.chamber.elements:
            return c, u
    raise AssertionError("no chamber part found")


SCAN_CAP = 10000  # the scans below give up after this many steps


def scan_find_regular_dominant(idat):
    """find_regular_dominant by trying lam + m*rho for m = 0, 1, 2, ..."""
    datum = idat.datum
    for m in range(SCAN_CAP):
        cand = tuple(x + m * r for x, r in zip(idat.lam, datum.rho))
        cls = fraction_classify_weight(datum, cand)
        if cls.dominant and cls.regular:
            return cand
    raise AssertionError("regular dominant scan exceeded cap")


def scan_find_subgeneric(idat, i):
    """find_subgeneric with steps 2 and 3 as scans from the least
    coefficient: the least m > 0 for which m on every other integral
    simple coroot (0 on alpha) is solvable, then the least l making
    mu' + l*delta dominant and singular on alpha alone."""
    datum = idat.datum
    alpha = idat.integral_simples[i - 1]
    row = tuple(int(x) for x in alpha.coroot_row)
    omega = _solve_single_diophantine(row, 1)
    target = alpha.pair(tuple(x + r for x, r in zip(idat.lam, datum.rho)))
    assert target.denominator == 1
    mu1 = tuple(x - target * o for x, o in zip(idat.lam, omega))
    solve, _ = _integer_solver(
        [[int(x) for x in r.coroot_row] for r in idat.integral_simples])
    for m in range(1, SCAN_CAP):
        delta = solve([0 if j == i - 1 else m for j in range(idat.rank)])
        if delta is not None:
            break
    else:
        raise AssertionError("lattice direction scan exceeded cap")
    for l in range(SCAN_CAP):
        cand = tuple(x + l * d for x, d in zip(mu1, delta))
        cls = fraction_classify_weight(datum, cand)
        if cls.dominant and cls.singular_roots == (alpha,):
            return cand
    raise AssertionError("subgeneric scan exceeded cap")


def fraction_linear_dominant_rep(datum, v):
    x = tuple(Q(c) for c in v)
    while True:
        i = next((j for j in range(datum.rank) if x[j] < 0), None)
        if i is None:
            return x
        x = fraction_act(datum.simple_reflections[i], x)


def brute_force_dot_orbit(datum, x) -> frozenset:
    """{w . x : w in W} by applying every element of the group."""
    return frozenset(fraction_dot_action(datum, w, x)
                     for w in generate_group(datum))


def brute_force_dot_stabilizer(datum, lam) -> frozenset:
    """{w : w . lam = lam} by an O(|W|) scan of the whole group."""
    return frozenset(w for w in generate_group(datum)
                     if dot_action(datum, w, lam) == lam)


def scan_lattice_movers(datum, mu, lam) -> tuple:
    """The w in W with w(mu) - lam a lattice weight, in generate_group
    order, by comparing mu's coroot pairings mod 1 on every element."""
    nums, den = _numerators([Q(x) for x in (*mu, *lam)])
    residues = [sum(map(int.__mul__, row, nums)) % den
                for row in datum.coroot_rows]
    target = [x % den for x in nums[datum.rank:]]
    return tuple(w for w in generate_group(datum)
                 if all(residues[w.root_perm.index(i)] == t
                        for i, t in enumerate(target)))


def scan_chamber(datum, w_ext, integral_positive) -> tuple:
    """The elements of W_ext sending every positive integral root to a
    positive root, in W_ext's order."""
    n = datum.num_positive
    return tuple(w for w in w_ext
                 if all(w.root_perm[r.index] < n for r in integral_positive))


def fraction_enumerate_Xi(datum, mu, lam) -> tuple:
    """(mu', lam_dom) pairs of enumerate_Xi: the dot orbit of mu0 under the
    scanned W_ext in Fractions, cut into orbits of the brute-force dot
    stabilizer of lam_dom, each represented by its least (antidominant
    first, then lexicographic) point; sorted by that point."""
    lam_dom = fraction_to_dominant_dot(datum, lam)[1]
    movers = scan_lattice_movers(datum, mu, lam_dom)
    if not movers:
        return ()
    mu0 = fraction_dot_action(datum, movers[0], mu)
    orbit = {fraction_dot_action(datum, w, mu0)
             for w in scan_lattice_movers(datum, lam_dom, lam_dom)}
    stab = brute_force_dot_stabilizer(datum, lam_dom)
    reps = set()
    for x in orbit:
        block = {fraction_dot_action(datum, g, x) for g in stab}
        reps.add(min(block, key=lambda y: (
            not fraction_classify_weight(datum, y).antidominant, y)))
    return tuple((rep, lam_dom) for rep in sorted(reps))


def sorted_double_cosets(datum, ambient, h, k) -> tuple:
    """(rep, members) per H g K orbit in ambient: the members as products
    of every h in H and k in K, the representative the least member by a
    fresh (length, word) key, the cosets sorted by it."""
    key = fresh_system(datum, range(datum.rank),
                       range(datum.num_positive)).sort_key
    left = set()
    out = []
    for g in sorted(ambient, key=key):
        if g in left:
            continue
        members = frozenset(a * g * b for a in h.elements for b in k.elements)
        left |= members
        out.append((min(members, key=key), members))
    return tuple(sorted(out, key=lambda c: key(c[0])))


def per_chamber_index(datum, mu, lam) -> tuple:
    """indecomposable_index's labels for a dominant compatible pair, each
    chamber element c paired with the representatives of a generic
    double-coset decomposition of W_int under the closed stabilizers of
    c.mu_d and lam, sorted by the (length, word) keys of c and then x."""
    idat = integral_datum(datum, lam)
    mover = lattice_mover(datum, mu, lam)
    _, mu_d = dominant_dot_rep(idat, dot_action(datum, mover, mu))
    stab_lam = dot_stabilizer(datum, lam)
    labels = []
    for c in idat.chamber.sorted_elements:
        stab = dot_stabilizer(datum, dot_action(datum, c, mu_d))
        dec = double_cosets(datum, idat.w_int.elements, stab, stab_lam)
        labels.extend((c, rep) for rep, _ in dec.cosets)
    labels.sort(key=lambda p: (sort_key(datum, p[0]), sort_key(datum, p[1])))
    return tuple(labels)


def fresh_system(datum, simple_root_indices, positive_root_indices):
    """A Coxeter system with empty memos, never enumerated."""
    return CoxeterSystem(datum, simple_root_indices, positive_root_indices)


def closure_sorted_group(datum) -> tuple:
    """The Weyl group by closure, sorted by a fresh (length, word) key."""
    system = fresh_system(datum, range(datum.rank),
                          range(datum.num_positive))
    return tuple(sorted(closure(datum, datum.simple_reflections),
                        key=system.sort_key))


_CLOSURE_ORDERS: dict = {}


def closure_order(datum, generators) -> int:
    """Order of the subgroup generated by these elements, by enumerating
    its closure; memoized per type label and generator set."""
    gens = frozenset(generators)
    key = (datum.type_label, gens)
    if key not in _CLOSURE_ORDERS:
        _CLOSURE_ORDERS[key] = len(closure(datum, gens))
    return _CLOSURE_ORDERS[key]


def closure_sorted_w_int(idat) -> tuple:
    """W_int by closure, sorted by a fresh integral (length, word) key."""
    system = fresh_system(idat.datum,
                          (r.index for r in idat.integral_simples),
                          (r.index for r in idat.integral_positive))
    return tuple(sorted(closure(idat.datum, system.simple_reflections),
                        key=system.sort_key))


def walk_only_translation(datum, lam, mu, w) -> dict:
    """translate_verma's terms, choosing each shift by walking it to the
    dominant chamber and comparing with mu's dominant representative."""
    shifted, den = _rho_shifted(lam)
    start = list(mat_vec(w.weight_matrix, shifted))
    diff = tuple(a - b for a, b in zip(mu, lam))
    charset = irrep_weight_multiset(datum, linear_dominant_rep(datum, diff))
    target, _ = _dominant_dot_key(datum, mu)
    w_lam = fraction_dot_action(datum, w, lam)
    out = {}
    for nu, m in charset.items():
        cand = [x + den * c.numerator for x, c in zip(start, nu)]
        if tuple(_to_dominant(datum.cartan_matrix, cand)) == target:
            out[tuple(a + b for a, b in zip(w_lam, nu))] = m
    return out


def bruhat_interval_by_subwords(datum, w) -> set:
    """{x : x <= w} as the set of all subword products of one reduced word."""
    word = reduced_word(datum, w)
    out = set()
    for k in range(len(word) + 1):
        for picks in combinations(range(len(word)), k):
            x = datum.identity
            for p in picks:
                x = x * datum.simple_reflections[word[p] - 1]
            out.add(x)
    return out


def r_polynomial_table(idat):
    """All R-polynomials of the integral system, by the descent recursion."""
    table = {}

    def rec(x, w):
        key = (x.root_perm, w.root_perm)
        if key in table:
            return table[key]
        if idat.system.length(w) == 0:
            out = ONE if idat.system.length(x) == 0 else ZERO
        elif idat.system.length(x) > idat.system.length(w):
            out = ZERO
        else:
            length = idat.system.length
            s = next(s for s in idat.simple_reflections  # a left descent
                     if length(s * w) < length(w))
            sx, sw = s * x, s * w
            if idat.system.length(sx) < idat.system.length(x):
                out = rec(sx, sw)
            else:
                out = Q_MINUS_1 * rec(x, sw) + Q_VAR * rec(sx, sw)
        table[key] = out
        return out

    return rec


def kl_polynomials_by_inversion(idat, w) -> dict:
    """P_{x,w} for all x, solved from q^(l(w)-l(x)) bar(P_{x,w}) =
    sum_z R_{x,z} P_{z,w} by descending induction on x.

    Independent of the production recursion: only the degree bound and the
    functional equation are used, and both sides are re-verified.
    """
    r_of = r_polynomial_table(idat)
    table = {w.root_perm: ONE}
    by_length = sorted(idat.int_elements(),
                       key=lambda x: (-idat.system.length(x),
                                      idat.system.reduced_word(x)))
    for x in by_length:
        if x.root_perm in table:
            continue
        if idat.system.length(x) >= idat.system.length(w):
            table[x.root_perm] = ZERO
            continue
        rhs = ZERO
        for z in idat.int_elements():
            if z == x:
                continue
            r = r_of(x, z)
            if r.is_zero:
                continue
            p = table.get(z.root_perm, ZERO)
            if not p.is_zero:
                rhs = rhs + r * p
        if rhs.is_zero and r_of(x, w).is_zero:
            table[x.root_perm] = ZERO
            continue
        gap = idat.system.length(w) - idat.system.length(x)
        low = (gap - 1) // 2
        cand = LaurentPoly({e: -c for e, c in rhs.items() if e <= low})
        assert cand.bar().shift(gap) - cand == rhs, \
            "functional equation has no bounded-degree solution"
        table[x.root_perm] = cand
    return table


def reference_h_product(idat, u, y) -> dict:
    """H_u H_y as {x: LaurentPoly}, multiplying WeylElements along the
    lex-minimal reduced word of u."""
    acc = {y: ONE}
    for j in reversed(idat.system.reduced_word(u)):
        s = idat.simple_reflections[j - 1]
        nxt = {}
        for x, p in acc.items():
            sx = s * x
            nxt[sx] = nxt.get(sx, ZERO) + p
            if idat.system.length(sx) < idat.system.length(x):
                nxt[x] = nxt.get(x, ZERO) + p * (V_INV - V)
        acc = nxt
    return acc


def reference_product(idat, a: dict, b: dict) -> dict:
    """(c, x)(c', y) = (c c', H_{c'^{-1} x c'} H_y) on WeylElement-keyed
    terms, one (x, y) pair at a time."""
    out = {}
    for (c1, x), p in a.items():
        for (c2, y), q in b.items():
            u = c2.inverse() * x * c2
            for z, r in reference_h_product(idat, u, y).items():
                key = (c1 * c2, z)
                out[key] = out.get(key, ZERO) + p * q * r
    return {k: p for k, p in out.items() if not p.is_zero}


def reference_bs_character(idat, word) -> dict:
    """The image of a word as a product, letter by letter, of b_s = H_s + v
    and the group-likes (c, e)."""
    e = idat.datum.identity
    out = {(e, e): ONE}
    for letter in word.letters:
        if isinstance(letter, BsLetter):
            s = idat.simple_reflections[letter.simple_index - 1]
            factor = {(e, s): ONE, (e, e): V}
        else:
            factor = {(letter.twist, e): ONE}
        out = reference_product(idat, out, factor)
    return out


def reference_decompose_graded(idat, cache, terms: dict) -> dict:
    """{(c, x): LaurentPoly} in the twisted KL basis: per twist (in
    root-permutation order), repeatedly strip the integral sort-key-largest
    term with its expansion."""
    out = {}
    for c in sorted({c for c, _ in terms}, key=lambda c: c.root_perm):
        f = {x: p for (d, x), p in terms.items() if d == c}
        while f:
            x = max(f, key=idat.system.sort_key)
            g = f.pop(x)
            out[(c, x)] = g
            for y, h in cache.expansion(x).items():
                if y != x:
                    f[y] = f.get(y, ZERO) - g * h
                    if f[y].is_zero:
                        del f[y]
    return out


def reference_sites(letters) -> tuple:
    """Rewrite sites on letter objects: a Rw(e), or any letter before a
    twist."""
    return tuple(p for p, l in enumerate(letters)
                 if (isinstance(l, RwLetter) and l.twist.is_identity)
                 or (p + 1 < len(letters)
                     and isinstance(letters[p + 1], RwLetter)))


def reference_step(idat, letters, p) -> tuple:
    """The rule at site p: drop Rw(e), fuse Rw(c) Rw(c') into Rw(c'c), or
    swap Bs(t) Rw(c) into Rw(c) Bs(c t c^{-1}), the conjugate found among
    the simple reflections by products."""
    ls = list(letters)
    l = ls[p]
    if isinstance(l, RwLetter) and l.twist.is_identity:
        del ls[p]
    elif isinstance(l, RwLetter):
        ls[p: p + 2] = [RwLetter(ls[p + 1].twist * l.twist)]
    else:
        c, simples = ls[p + 1].twist, idat.simple_reflections
        s = simples[l.simple_index - 1]
        ls[p: p + 2] = [RwLetter(c),
                        BsLetter(simples.index(c * s * c.inverse()) + 1)]
    return tuple(ls)


def reference_normalize(idat, letters) -> tuple:
    """Leftmost rewrites on letters until no site is left."""
    while sites := reference_sites(letters):
        letters = reference_step(idat, letters, sites[0])
    return letters


def reference_random_word(idat, rng, max_len=8):
    """A random word drawn as letters: a Bs letter when rng.randrange(5) < 3
    (and the block has simples), else a twist from the sorted chamber."""
    letters = []
    for _ in range(rng.randrange(max_len + 1)):
        if idat.rank and rng.randrange(5) < 3:
            letters.append(BsLetter(rng.randrange(1, idat.rank + 1)))
        else:
            pool = idat.chamber.sorted_elements
            letters.append(RwLetter(pool[rng.randrange(len(pool))]))
    return make_word(idat, letters)


def reference_random_rewrite(word, rng, cap=400):
    """Rewrites on letters at rng.randrange(len(sites)) over the ascending
    sites, a fresh site list per step, until none applies."""
    idat, letters = word.ambient, word.letters
    for _ in range(cap):
        sites = reference_sites(letters)
        if not sites:
            return make_word(idat, letters, word.shift)
        letters = reference_step(idat, letters,
                                 sites[rng.randrange(len(sites))])
    raise AssertionError("random rewriting exceeded the step cap")


def reference_kl_columns(idat) -> list:
    """Every KL column in full, by b_w = b_s b_{sw} - sum mu(z, sw) b_z over
    all x <= w: entry w maps the number of x (``int_elements()`` order) to
    the coefficients of h_{x,w}, entry e being the coefficient of v^e."""
    enum = idat.system.enumeration()
    length, left = enum.length, enum.left

    def add_into(q, p, m=1):
        q.extend([0] * (len(p) - len(q)))
        for e, c in enumerate(p):
            q[e] += m * c

    cols = [{0: (1,)}]
    for w in range(1, len(enum.elements)):
        row = left[enum.descent[w]]
        u = row[w]
        col_u = cols[u]
        # b_s b_u has h_{sy,u} + v^{+-1} h_{y,u} at y, + when sy > y
        acc = {}
        for x, p in col_u.items():
            sx = row[x]
            acc[x] = q = [0, *p] if length[sx] > length[x] else list(p[1:])
            if sx in col_u:
                add_into(q, col_u[sx])
            else:
                acc[sx] = list(p)
        for z, p in col_u.items():
            mu = p[1] if len(p) > 1 else 0
            if mu and z != u and length[row[z]] < length[z]:
                for x, hz in cols[z].items():
                    add_into(acc.setdefault(x, []), hz, -mu)
        col = {}
        for x, q in acc.items():
            while q and not q[-1]:
                q.pop()
            if q:
                col[x] = tuple(q)
        cols.append(col)
    return cols


def root_coords(datum, weight) -> tuple:
    """Coordinates of a weight in the simple-root basis: the integer rows
    of the inverse Cartan matrix over d, applied in Fractions."""
    rows, d = datum.inverse_cartan
    return tuple(sum(r * Q(x) for r, x in zip(row, weight)) / d
                 for row in rows)


def flat_box_character_scales(datum):
    """Integer data for the character recursion.

    All weights of a highest-weight module live in top + (root lattice), so
    a weight is an integer vector c with nu = top - sum c_i alpha_i.  The
    invariant form is cleared to integers by D, the common denominator of
    the symmetrizer: (nu, alpha_i) = d_i <nu, alpha_i-check> with
    D d_i = dd[i].
    """
    n = datum.rank
    d_den = lcm(*(d.denominator for d in datum.symmetrizer))
    dd = tuple(int(d * d_den) for d in datum.symmetrizer)
    # per positive root: displacement in c-space and the D-scaled pairing row
    roots = tuple(
        (alpha.simple_coords,
         tuple(dd[i] * alpha.simple_coords[i] for i in range(n)))
        for alpha in datum.positive_roots)
    return dd, roots


def flat_box_dominant_character(datum, highest) -> dict:
    """The dominant character by the flat-box Freudenthal recursion over
    integer root-coordinates, which visits every weight down to half depth.

    The weight system is laid out in a flat mixed-radix array (padded so a
    step up a positive root is one index subtraction) and visited once in
    depth order, down to half its depth, which both discovers it and runs
    the recursion.  The string sums telescope along each positive root, so
    the cost is linear in the system's size.  The recursion runs in
    integers, and the result is keyed by integer tuples of fundamental
    coordinates, ordered by depth; they compare and hash equal to the
    Fraction weights used elsewhere, so either kind looks a weight up.  The
    total mass, recovered through orbit-stabilizer counting, is checked
    against the Weyl dimension formula before returning.  Nothing is cached.
    """
    top = _check_dominant_integral(datum, highest)
    n = datum.rank
    dd, roots = flat_box_character_scales(datum)
    cartan = datum.cartan_matrix
    t = tuple(int(x) for x in top)
    rng_n = range(n)
    cols = tuple(tuple(cartan[j][i] for j in rng_n) for i in rng_n)

    # flat mixed-radix layout over the padded coordinate box; padding by the
    # largest root displacement makes "add a positive root" a single index
    # subtraction with no digit borrowing
    lowest = tuple(-x for x in linear_dominant_rep(
        datum, tuple(-Q(x) for x in t)))
    caps = [int(x) for x in root_coords(datum,
        tuple(Q(ti) - li for ti, li in zip(t, lowest)))]
    offs = [max(r[0][i] for r in roots) for i in rng_n]
    radix = [caps[i] + offs[i] + 1 for i in rng_n]
    strides = [0] * n
    acc_stride = 1
    for i in reversed(rng_n):
        strides[i] = acc_stride
        acc_stride *= radix[i]
    box = acc_stride
    if box > 50_000_000:
        raise GroupBoundExceeded(
            f"weight system box of size {box} is out of supported range")
    base = sum(offs[i] * strides[i] for i in rng_n)

    # per positive root: its index shift and a table whose entry at a weight
    # nu is sum_{k >= 0} m(nu + k alpha) (nu + k alpha, alpha), D-scaled;
    # it stays 0 off the weight system
    tables = [(sum(disp[i] * strides[i] for i in rng_n), w_row, [0] * box)
              for disp, w_row in roots]
    # gap(nu) = |top + rho|^2 - |nu + rho|^2, D-scaled, grows by
    # 2 (nu + rho, alpha_i) - (alpha_i, alpha_i) = 2 D d_i f_i down a step
    two_dd = tuple(2 * x for x in dd)

    # node_f holds each weight's fundamental coordinates; buckets group the
    # flat indices by depth (height of top - nu).  A dominant weight lies at
    # most half-way down, since top - w0(top) = (top - mu) + (mu - w0 mu) +
    # (w0 mu - w0 top) and the first and last terms have equal height; the
    # strings above it stay there too, so deeper weights are never visited.
    half = sum(caps) // 2
    node_f: list = [None] * box
    gap = [0] * box
    mult = [0] * box
    buckets: list[list[int]] = [[] for _ in range(half + 1)]
    node_f[base] = t
    buckets[0].append(base)
    dominant_by_depth = []
    for depth, bucket in enumerate(buckets):
        dominant = []
        room = half - depth
        for idx in bucket:
            f = node_f[idx]
            mirror = 0
            for fi, stride, col, q in zip(f, strides, cols, two_dd):
                if fi > 0:
                    # each simple-root string is entered at its top, where
                    # nu + alpha_i is not a weight; it runs down to s_i(nu)
                    if node_f[idx - stride] is None:
                        g, h, j, d = f, gap[idx], idx, depth
                        for x in range(fi, fi - 2 * min(fi, room), -2):
                            g = tuple(map(int.__sub__, g, col))
                            h += q * x
                            j += stride
                            d += 1
                            if node_f[j] is None:
                                node_f[j] = g
                                gap[j] = h
                                buckets[d].append(j)
                elif fi < 0 and not mirror:
                    # s_i(nu) = nu - f_i alpha_i lies higher
                    mirror = idx + fi * stride
            if mirror:  # off the dominant chamber: m(nu) = m(s_i nu)
                m = mult[mirror]
            else:
                if idx == base:  # the highest weight itself
                    m = 1
                else:
                    acc = 0
                    for shift, _, table in tables:
                        acc += table[idx - shift]
                    denom = gap[idx]
                    if denom <= 0 or 2 * acc % denom:
                        raise AssertionError(
                            "Freudenthal recursion is inconsistent")
                    m = 2 * acc // denom
                dominant.append(idx)
            mult[idx] = m
            for shift, w_row, table in tables:
                table[idx] = table[idx - shift] + \
                    m * sum(map(int.__mul__, f, w_row))
        dominant.sort()
        dominant_by_depth.append(dominant)

    group_order = weyl_order(datum)
    mass = 0
    out = {}
    orbit_size: dict[tuple, int] = {}
    for dominant in dominant_by_depth:
        for idx in dominant:
            f = node_f[idx]
            m = mult[idx]
            zeros = tuple(map((0).__eq__, f))
            size = orbit_size.get(zeros)
            if size is None:
                size = group_order // closure_order(
                    datum, (datum.simple_reflections[i] for i in rng_n
                            if zeros[i]))
                orbit_size[zeros] = size
            mass += m * size
            out[f] = m
    if mass != weyl_dimension(datum, top):
        raise AssertionError("Freudenthal mass disagrees with the Weyl "
                             "dimension formula")
    return out

"""Formal graded tensor words over a block's generator alphabet.

Words are sequences over {Bs(j)} (one letter per integral simple reflection)
and {Rw(c)} (one letter per chamber element), with a finite-abelian grading:
each twist contributes tau(c), Bs letters contribute nothing, and a word may
carry a constant shift (attached per word, so grading stays additive under
concatenation).  The rewrite rules

    Rw(c) Rw(c')  ->  Rw(c'c)
    Bs(t) Rw(c)   ->  Rw(c) Bs(c t c^{-1})
    Rw(e)         ->  (empty)

push all twists into a single leading letter; the resulting normal form is
unique, preserves the Bs letter count, the grading, and the one-sided rank
2^(#Bs).  ``rewrite_step`` and ``random_rewrite`` apply the rules one site
at a time; ``normalize`` reaches the normal form in one right-to-left fold
over the word, since the chamber subgroup C is abelian: the twists fuse
into one product d, and each Bs letter is conjugated by the part of d to
its right.  ``grading`` is one residue sum.

A word is stored as integer codes on its block's chamber numbering: Bs(j)
is j, and Rw(c) is ~k for c number k in ``idat.chamber.sorted_elements``
(so Rw(e) is -1).  The rules run on code tuples through the datum's
chamber tables, ``chamber_mul`` and ``chamber_conj``; letter objects are
converted only by ``make_word`` and ``BimoduleWord.letters``.

Singular parabolic-chain words and the translation-product objects with
their predicted images live here too, as does the stratified index of
indecomposable classes by chamber element and double coset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction as Q

from .coxeter import DEFAULT_GROUP_BOUND, dot_stabilizer, double_cosets, \
    sort_key
from .integral import IntegralDatum, integral_datum, _wsub, \
    dominant_dot_rep, find_regular_dominant, find_subgeneric, lattice_mover
from .rootsys import CartanDatum, FiniteAbelianElement, Weight, WeylElement, \
    _check_rank, _is_lattice, classify_weight, dot_action, lattice_class, \
    parabolic_order, torsion_group


@dataclass(frozen=True)
class BsLetter:
    simple_index: int  # 1-based position in the integral simple system

    def __str__(self) -> str:
        return f"B{self.simple_index}"


@dataclass(frozen=True)
class RwLetter:
    twist: WeylElement

    def __str__(self) -> str:
        return "R"


Letter = BsLetter | RwLetter


@dataclass(frozen=True)
class BimoduleWord:
    ambient: IntegralDatum = field(compare=False, repr=False)
    codes: tuple[int, ...] = ()
    shift: FiniteAbelianElement = None

    @property
    def letters(self) -> tuple[Letter, ...]:
        chamber = self.ambient.chamber.sorted_elements
        return tuple(BsLetter(x) if x > 0 else RwLetter(chamber[~x])
                     for x in self.codes)

    @property
    def bs_count(self) -> int:
        return sum(1 for x in self.codes if x > 0)


def make_word(idat: IntegralDatum, letters,
              shift: FiniteAbelianElement | None = None) -> BimoduleWord:
    """Validated word: Bs indices within the simple system, twists in the
    chamber subgroup."""
    codes = []
    for l in letters:
        if isinstance(l, BsLetter):
            if not 1 <= l.simple_index <= idat.rank:
                raise ValueError(f"Bs index {l.simple_index} out of range")
            codes.append(l.simple_index)
        elif isinstance(l, RwLetter):
            codes.append(~idat.chamber_index(l.twist))
        else:
            raise TypeError(f"not a letter: {l!r}")
    return word_of_codes(idat, codes, shift)


def word_of_codes(idat: IntegralDatum, codes,
                  shift: FiniteAbelianElement | None = None) -> BimoduleWord:
    """Validated word from its codes: j in 1..rank for Bs(j), ~k for the
    twist number k of the chamber."""
    codes = tuple(codes)
    rank, order = idat.rank, idat.chamber.order
    for x in codes:
        if not (1 <= x <= rank or -order <= x <= -1):
            raise ValueError(f"letter code {x} out of range")
    if shift is None:
        shift = torsion_group(idat.datum).zero
    return BimoduleWord(idat, codes, shift)


def grading(word: BimoduleWord) -> FiniteAbelianElement:
    """Sum of tau over the twists, plus the word's shift: one residue sum,
    reduced once into a single class."""
    shift, taus = word.shift, word.ambient.chamber_tau
    twists = [taus[~x] for x in word.codes if x < 0]
    if not twists:
        return shift
    if twists[0].moduli != shift.moduli:
        raise ValueError("elements of different groups")
    return FiniteAbelianElement(
        tuple(map(sum, zip(shift.residues, *(t.residues for t in twists)))),
        shift.moduli)


# ---------------------------------------------------------------------------
# rewriting
# ---------------------------------------------------------------------------

def _sites(codes: tuple) -> list[int]:
    """The positions p where a rewrite applies: a Rw(e) at p, or a twist
    at p + 1."""
    n = len(codes)
    return [p for p in range(n)
            if codes[p] == -1 or (p + 1 < n and codes[p + 1] < 0)]


def _rewrite(codes: tuple, p: int, idat: IntegralDatum) -> tuple | None:
    """The codes with the rule at p applied (drop, fuse or swap), checked
    on the letters at p and p + 1 only; None when no rule applies there."""
    a = codes[p]
    if a == -1:
        return codes[:p] + codes[p + 1:]
    b = codes[p + 1] if p + 1 < len(codes) else 0
    if b >= 0:
        return None
    if a < 0:
        return codes[:p] + (~idat.chamber_mul[~b][~a],) + codes[p + 2:]
    return codes[:p] + (b, idat.chamber_conj[~b][a]) + codes[p + 2:]


def rewrite_sites(word: BimoduleWord) -> tuple[int, ...]:
    """Positions where one rewrite applies (drop, fuse or swap at p)."""
    return tuple(_sites(word.codes))


def rewrite_step(word: BimoduleWord, site: int | None = None) -> BimoduleWord:
    """One rule application (leftmost site by default).

    A requested site is checked on its own letters, not by listing every
    site; a word without sites comes back unchanged.
    """
    codes = word.codes
    if site is None:
        sites = _sites(codes)
        if not sites:
            return word
        site = sites[0]
    out = _rewrite(codes, site, word.ambient) \
        if 0 <= site < len(codes) else None
    if out is None:
        if not _sites(codes):
            return word
        raise ValueError(f"no rewrite applies at position {site}")
    return BimoduleWord(word.ambient, out, word.shift)


def normalize(word: BimoduleWord) -> BimoduleWord:
    """Unique normal form: at most one leading twist, then Bs letters only.

    C is abelian, so the normal form is one right-to-left fold over the
    codes: d is the product of the twists read so far, each Bs(j) is
    carried left past them as Bs(d s_j d^{-1}) (``chamber_conj[d][j]``),
    each twist is fused into d (``chamber_mul``), and Rw(d) leads the
    result unless d is the identity.  The leftmost rewrites reach the same
    word, since the rules are confluent.
    """
    idat = word.ambient
    mul, conj = idat.chamber_mul, idat.chamber_conj
    d, out = 0, []
    for x in reversed(word.codes):
        if x > 0:
            out.append(conj[d][x])
        else:
            d = mul[~x][d]
    if d:
        out.append(~d)
    codes = tuple(reversed(out))
    return word if codes == word.codes else \
        BimoduleWord(idat, codes, word.shift)


def random_rewrite(word: BimoduleWord, rng, cap: int = 400) -> BimoduleWord:
    """Rewrites at random sites until none applies: each step draws
    ``rng.randrange(len(sites))`` over the ascending sites, on the codes,
    building one word at the end.  More than ``cap`` steps raise
    AssertionError."""
    codes = word.codes
    for _ in range(cap):
        sites = _sites(codes)
        if not sites:
            return word if codes is word.codes else \
                BimoduleWord(word.ambient, codes, word.shift)
        codes = _rewrite(codes, sites[rng.randrange(len(sites))],
                         word.ambient)
    raise AssertionError("random rewriting exceeded the step cap")


def rank_left(obj) -> int:
    """Rank as a free one-sided module in the completed, ungraded setting.

    Regular words: 2 per Bs letter, 1 per twist.  The normal form has
    the same Bs letters, conjugated one for one (each ``chamber_conj`` row
    is a validated permutation fixing 0), so the word is counted as it
    stands.  Singular chains: the product of the gluing-to-factor index
    ratios, times the order of the parabolic subgroup on the left (the
    chain denotes the restriction of an ambient word with full rings at
    both ends).  A chain that fails ``validate_singular_word`` raises
    ValueError.
    """
    if isinstance(obj, BimoduleWord):
        return 2 ** obj.bs_count
    if isinstance(obj, SingularWord):
        if not validate_singular_word(obj):
            raise ValueError("not a valid singular word "
                             "(see validate_singular_word)")
        idat = obj.ambient
        orders = idat._memo.setdefault("parabolic_order", {})
        for subset in {obj.mu_subset, *obj.chain[:-1]}:
            if subset not in orders:
                orders[subset] = parabolic_order(idat.cartan_matrix,
                                                 [j - 1 for j in subset])
        num = den = 1
        for p in range(1, len(obj.chain), 2):
            num *= orders[obj.chain[p]]
            den *= orders[obj.chain[p - 1]]
        total = orders[obj.mu_subset] * Q(num, den)
        if total.denominator != 1:
            raise AssertionError(f"rank {total} of a valid chain is not "
                                 "an integer")
        return int(total)
    raise TypeError(f"cannot take a rank of {obj!r}")


# ---------------------------------------------------------------------------
# singular parabolic chains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SingularWord:
    """An alternating parabolic chain [I_0, J_1, I_2, ..., J_{n-1}, I_n]
    of subsets of the integral simple system (1-based indices), twisted on
    the left by a chamber element.

    The even slots are the tensor factors, the odd slots the gluing
    subgroups; the first slot must be the twist-conjugate of the mu-side
    parabolic and the last slot the lam-side parabolic.
    """

    ambient: IntegralDatum = field(compare=False, repr=False)
    chain: tuple[frozenset, ...] = ()
    twist: WeylElement = None
    mu_subset: frozenset = frozenset()
    lam_subset: frozenset = frozenset()


def validate_singular_word(sw: SingularWord) -> bool:
    """Shape check: alternating containments, twisted leading subset,
    lam-side tail."""
    idat = sw.ambient
    n = len(sw.chain)
    if n % 2 == 0 or n == 0:
        return False
    universe = set(range(1, idat.rank + 1))
    for subset in (*sw.chain, sw.mu_subset, sw.lam_subset):
        if not set(subset) <= universe:
            return False
    if sw.twist not in idat.chamber.elements:
        return False
    for p in range(1, n, 2):
        if not (sw.chain[p - 1] <= sw.chain[p] and sw.chain[p + 1] <= sw.chain[p]):
            return False
    conj = frozenset(idat.conjugate_simple(sw.twist, j) for j in sw.mu_subset)
    return sw.chain[0] == conj and sw.chain[-1] == sw.lam_subset


# ---------------------------------------------------------------------------
# translation-product objects and their predicted images
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PObjectSpec:
    """Data for one translation-product object: a chamber element, a wall
    itinerary through subgeneric weights, and the certificates backing it."""

    ambient: IntegralDatum = field(compare=False, repr=False)
    mu: Weight = ()
    c: WeylElement = None
    indices: tuple[int, ...] = ()
    nu: Weight = ()                       # regular dominant in lam + lattice
    nu_i: dict = field(default_factory=dict, compare=False)  # index -> Weight


def p_object_spec(idat: IntegralDatum, mu: Weight, c: WeylElement,
                  indices) -> PObjectSpec:
    """Assemble a spec, computing the certificates in closed form."""
    _check_rank(idat.datum, mu)
    mu = tuple(Q(x) for x in mu)
    indices = tuple(int(j) for j in indices)
    idat.chamber_index(c)  # ValueError off the chamber
    if not _is_lattice(_wsub(mu, idat.lam)):
        raise ValueError("mu is not in lam + (weight lattice)")
    if not classify_weight(idat.datum, mu).dominant:
        raise ValueError("mu is not dominant")
    nu = find_regular_dominant(idat)
    nu_i = {j: find_subgeneric(idat, j) for j in sorted(set(indices))}
    return PObjectSpec(idat, mu, c, indices, nu, nu_i)


def _check_certificates(spec: PObjectSpec) -> None:
    idat = spec.ambient
    datum = idat.datum
    cls = classify_weight(datum, spec.nu)
    if not (cls.dominant and cls.regular
            and _is_lattice(_wsub(spec.nu, idat.lam))):
        raise ValueError("invalid certificate: nu is not regular dominant "
                         "in lam + (weight lattice)")
    for j in spec.indices:
        if j not in spec.nu_i:
            raise ValueError(f"missing subgeneric certificate for index {j}")
        wall = idat.integral_simples[j - 1]
        cls = classify_weight(datum, spec.nu_i[j])
        if not (cls.dominant and cls.singular_roots == (wall,)
                and _is_lattice(_wsub(spec.nu_i[j], idat.lam))):
            raise ValueError(f"invalid certificate: nu_{j} is not subgeneric "
                             "on its wall")


def build_P_object(spec: PObjectSpec) -> tuple[tuple, BimoduleWord]:
    """(factorization, predicted image) of a translation-product object.

    The factorization lists the translation steps (pairs of weights) for
    display; the predicted image is the normalized word with the twist on
    the left, the wall letters in itinerary order, and the block shift
    mu - lam, so its total grading is the class of c.mu - lam.
    """
    _check_certificates(spec)
    idat = spec.ambient
    datum = idat.datum
    c_mu = dot_action(datum, spec.c, spec.mu)
    steps: list[tuple[Weight, Weight]] = [(c_mu, spec.nu)]
    for j in spec.indices:
        steps.append((spec.nu, spec.nu_i[j]))
        steps.append((spec.nu_i[j], spec.nu))
    steps.append((spec.nu, idat.lam))
    # block shift mu - lam; together with the twist's own class the image
    # carries the predicted total character c.mu - lam
    shift = lattice_class(datum, _wsub(spec.mu, idat.lam))
    raw = make_word(idat, [RwLetter(spec.c)]
                    + [BsLetter(j) for j in spec.indices], shift)
    return tuple(steps), normalize(raw)


# ---------------------------------------------------------------------------
# the stratified index of indecomposable classes
# ---------------------------------------------------------------------------

def indecomposable_index(datum: CartanDatum, mu: Weight, lam: Weight,
                         bound: int = DEFAULT_GROUP_BOUND):
    """Labels (c, double-coset representative) for the indecomposable
    classes of the block of the dominant pair (mu, lam), sorted by the
    (length, reduced word) keys of c, then of the representative: W_int
    is sorted once by the full key, and each chamber element's labels,
    taken in ``chamber.sorted_elements`` order, are read off it in that
    order.

    For each chamber element c, one label per double coset of the stabilizer
    of c.mu against the stabilizer of lam inside the integral Weyl group.
    Both are standard parabolic subgroups of W_int: lam lies on the walls
    of the integral simples in J, mu's dominant representative mu_d on
    those in I, and c s_j c^{-1} = s_{conj[c][j]} (``chamber_conj``)
    carries I to the walls of c.mu_d.  So the representatives, each the
    shortest element of its double coset, are the x with no left descent
    in conj[c](I) and no right descent in J (Geck-Pfeiffer, *Characters of
    Finite Coxeter Groups and Iwahori-Hecke Algebras*, 2.1), read off
    ``tables.dmask`` and ``tables.rmask``; no subgroup is closed per c.
    The total is checked against an independent count: the generic
    ``double_cosets`` of the two stabilizers over W_ext.
    """
    mu = tuple(Q(x) for x in mu)
    lam = tuple(Q(x) for x in lam)
    for name, x in (("mu", mu), ("lam", lam)):
        if not classify_weight(datum, x).dominant:
            raise ValueError(f"{name} = {x} is not dominant")
    idat = integral_datum(datum, lam, bound)
    # the identity is the shortest, so a dominant mu in lam + P stays put
    mover = lattice_mover(datum, mu, lam, bound)
    if mover is None:
        raise ValueError("mu and lam are not compatible")
    _, mu_d = dominant_dot_rep(idat, dot_action(datum, mover, mu))
    total = double_cosets(datum, idat.w_ext,
                          dot_stabilizer(datum, mu_d),
                          dot_stabilizer(datum, lam)).count

    def walls(x):  # the integral simples j (1-based) with x on their wall
        on = {a.index for a in classify_weight(datum, x).singular_roots}
        return [j for j, a in enumerate(idat.integral_simples, 1)
                if a.index in on]

    walls_mu = walls(mu_d)
    right = sum(1 << j - 1 for j in walls(lam))
    t = idat.tables
    masks = sorted(zip(t.elements, t.dmask, t.rmask),
                   key=lambda m: sort_key(datum, m[0]))
    labels = []
    for c, conj in zip(idat.chamber.sorted_elements, idat.chamber_conj):
        left = sum(1 << conj[j] - 1 for j in walls_mu)
        labels.extend((c, x) for x, dl, dr in masks
                      if not (dl & left or dr & right))
    if len(labels) != total:
        raise AssertionError(
            f"stratified label count {len(labels)} disagrees with the "
            f"double-coset count {total}")
    return tuple(labels)

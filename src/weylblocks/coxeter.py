"""Weyl groups as finite Coxeter groups.

Enumeration by one layered search over the simple reflections, which meets
the elements already in (length, lex-minimal reduced word) order; lengths
and reduced words through the root permutation
(``length(w) = #{alpha > 0 : w(alpha) < 0}``), Bruhat order by the lifting
property, reflection subgroups, dot-action stabilizers, double-coset
decompositions, and a numbering of W through the transversals of its
parabolic chain, which draws elements without enumerating W.  Those
transversals are read off orbits of fundamental weights searched by
``rootsys._orbit``, the one orbit walk of the library, through
``_transversal``, which reads group elements off any such search (the
class orbits of ``integral`` too).

Elements are canonically keyed by their root permutation.  One
``CoxeterSystem`` class serves both the full group and the integral Weyl
group of a weight.  An enumerated system reads lengths and lex-minimal
reduced words off its numbering; one never enumerated counts lengths and
walks words by the greedy smallest left descent, memoized.  The full
group's system is cached on the datum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import prod

from .rootsys import (
    CartanDatum,
    GroupBoundExceeded,
    Weight,
    WeylElement,
    _orbit,
    _step,
    classify_weight,
    weyl_order,
)

DEFAULT_GROUP_BOUND = 10**6


@dataclass(frozen=True, eq=False)
class Enumeration:
    """A Coxeter system's elements numbered 0..n-1 in (length, lex-minimal
    reduced word) order, so the identity is 0, with what the search met on
    the way: ``length[x]``, ``descent[x]`` the smallest left descent of x as
    a 0-based letter (-1 for the identity), and ``left[j][x]`` the number of
    s_{j+1} x, and ``index`` maps root permutations to numbers.  Following
    descents spells the lex-minimal reduced word."""

    elements: tuple[WeylElement, ...]
    index: dict[bytes, int]
    length: list[int]
    descent: list[int]
    left: list[list[int]]


def _layered_search(datum: CartanDatum, simple_indices, reflections,
                    bound: int) -> Enumeration:
    """Enumerate the group generated by the reflections in the simple roots
    with these indices, layer by layer.

    Layer l+1 is built with the letter j as the outer loop, ascending, and
    layer l in its own order as the inner loop, keeping each element where
    it is first met.  An element y is first met from s_j y for its smallest
    left descent j, so the first-met order is the lex order of the greedy
    reduced words.  The search keeps inverse root permutations: s_j w > w
    iff w^{-1}(alpha_j) > 0, one lookup, and (s_j w)^{-1} = w^{-1} s_j.
    Only ascents are multiplied, and only the new elements' own permutations
    are formed; a descent's entry of the left table is the matching
    ascent's read backwards.  Raises GroupBoundExceeded when more
    than ``bound`` elements would be stored.
    """
    n, rank = datum.num_positive, datum.rank
    ident = datum.identity.root_perm
    k = len(simple_indices)
    # u -> u s_j on an inverse permutation u is s_j's permutation
    # translated by u, whole or on the key entries
    steps = [(j, s.root_perm, s.root_perm[:rank], i) for j, (s, i)
             in enumerate(zip(reflections, simple_indices))]
    inverses, perms = [ident], [ident]
    # an element is keyed by where its inverse sends the datum's simple
    # roots, a basis: the first rank entries of the inverse permutation
    seen = {ident[:rank]: 0}
    descent, length, nbrs = [-1], [0], [[0] * k]
    layer = range(1)
    while layer:
        start = len(inverses)
        for j, s, head, i in steps:
            for x in layer:
                u = inverses[x]
                if u[i] < n:  # s_j x > x
                    key = head.translate(u)
                    y = seen.get(key)
                    if y is None:
                        y = len(inverses)
                        if y >= bound:
                            raise GroupBoundExceeded(
                                f"group enumeration exceeds bound {bound}")
                        seen[key] = y
                        inverses.append(s.translate(u))
                        perms.append(perms[x].translate(s))
                        descent.append(j)
                        nbrs.append([0] * k)
                    nbrs[x][j] = y
                    nbrs[y][j] = x
        layer = range(start, len(inverses))
        length += [length[-1] + 1] * len(layer)
    del seen, inverses  # freed before the index is built
    return Enumeration(tuple(WeylElement(p, datum) for p in perms),
                       {p: x for x, p in enumerate(perms)}, length, descent,
                       [list(row) for row in zip(*nbrs)])


class CoxeterSystem:
    """Ordered enumeration, length, left descents, reduced words, sort key
    and Bruhat order of the reflection subgroup generated by the given
    simple roots.

    ``simple_root_indices`` must be a simple system of the subsystem's roots
    and ``positive_root_indices`` its positive roots, all lying in the
    datum's positive roots; the full Weyl group uses all the simple and
    positive roots.  Simple reflections are numbered 1..k in the given order,
    and Bruhat relations, lengths and words (until enumerated) are memoized.
    """

    def __init__(self, datum: CartanDatum, simple_root_indices,
                 positive_root_indices) -> None:
        self.datum = datum
        self.simple_indices = tuple(simple_root_indices)
        self.positive_indices = tuple(positive_root_indices)
        self.simple_reflections = tuple(
            datum.reflection(datum.roots[i]) for i in self.simple_indices)
        self._lengths: dict = {}
        self._words: dict = {datum.identity.root_perm: ()}
        self._bruhat: dict = {}
        self._enumeration: Enumeration | None = None

    def enumeration(self, bound: int = DEFAULT_GROUP_BOUND) -> Enumeration:
        """The ordered enumeration of the system, memoized.  Raises
        GroupBoundExceeded when the group has more than ``bound`` elements
        and is not enumerated yet."""
        if self._enumeration is None:
            self._enumeration = _layered_search(
                self.datum, self.simple_indices, self.simple_reflections,
                bound)
        return self._enumeration

    def elements(self, bound: int = DEFAULT_GROUP_BOUND
                 ) -> tuple[WeylElement, ...]:
        """All elements, sorted by (length, reduced word)."""
        return self.enumeration(bound).elements

    def length(self, w: WeylElement) -> int:
        """Number of the subsystem's positive roots that w sends to negative
        roots: the length of any reduced word."""
        perm, enum = w.root_perm, self._enumeration
        x = enum and enum.index.get(perm)
        if x is not None:
            return enum.length[x]
        hit = self._lengths.get(perm)
        if hit is None:
            n = self.datum.num_positive
            hit = self._lengths[perm] = sum(
                1 for i in self.positive_indices if perm[i] >= n)
        return hit

    def first_left_descent(self, perm: bytes) -> int | None:
        """Smallest left descent of the element with this root permutation,
        or None when there is none: s_j w < w iff w^{-1}(alpha_j) < 0."""
        n = self.datum.num_positive
        return next((j for j, i in enumerate(self.simple_indices, 1)
                     if perm.index(i) >= n), None)

    def reduced_word(self, w: WeylElement) -> tuple[int, ...]:
        """Lexicographically minimal reduced word, as 1-based simple indices.

        Spelled off the enumeration, else by greedy smallest left descents
        (suffixes memoized).  Raises ValueError outside the subgroup.

        >>> from weylblocks import build_root_system
        >>> b2 = coxeter_system(build_root_system("B2"))
        >>> [b2.reduced_word(w) for w in b2.elements()[-2:]]
        [(2, 1, 2), (1, 2, 1, 2)]
        """
        enum = self._enumeration
        x = enum and enum.index.get(w.root_perm)
        if x is not None:
            word, descent, left = [], enum.descent, enum.left
            while x:
                j = descent[x]
                word.append(j + 1)
                x = left[j][x]
            return tuple(word)
        words = self._words
        perm, path = w.root_perm, []
        while perm not in words:
            j = self.first_left_descent(perm)
            if j is None:
                raise ValueError("element is not in this Coxeter system")
            path.append((perm, j))
            perm = perm.translate(self.simple_reflections[j - 1].root_perm)
        word = words[perm]
        for perm, j in reversed(path):
            word = (j,) + word
            words[perm] = word
        return words[w.root_perm]

    def sort_key(self, w: WeylElement) -> tuple[int, tuple[int, ...]]:
        """(length, reduced word) - the canonical total order on elements."""
        return (self.length(w), self.reduced_word(w))

    def bruhat_leq(self, x: WeylElement, w: WeylElement) -> bool:
        """Bruhat order with subword-property semantics, via the lifting
        property: for a left descent s of w, x <= w iff (sx <= sw when
        sx < x, else x <= sw)."""
        if self.length(x) == 0:
            return True
        if self.length(x) > self.length(w):
            return False
        key = (x.root_perm, w.root_perm)
        hit = self._bruhat.get(key)
        if hit is not None:
            return hit
        s = self.simple_reflections[self.first_left_descent(w.root_perm) - 1]
        sx = s * x
        out = self.bruhat_leq(sx if self.length(sx) < self.length(x) else x,
                              s * w)
        self._bruhat[key] = out
        return out


def coxeter_system(datum: CartanDatum) -> CoxeterSystem:
    """The full Weyl group as a Coxeter system, cached on the datum."""
    if "coxeter" not in datum._memo:
        datum._memo["coxeter"] = CoxeterSystem(
            datum, range(datum.rank), range(datum.num_positive))
    return datum._memo["coxeter"]


def length(datum: CartanDatum, w: WeylElement) -> int:
    """Number of positive roots sent to negative roots: the length of any
    reduced word."""
    return coxeter_system(datum).length(w)


def reduced_word(datum: CartanDatum, w: WeylElement) -> tuple[int, ...]:
    """Lexicographically minimal reduced word, as 1-based simple indices."""
    return coxeter_system(datum).reduced_word(w)


def from_word(datum: CartanDatum, word) -> WeylElement:
    """Product s_{i_1} s_{i_2} ... for a sequence of 1-based simple indices."""
    w = datum.identity
    for i in word:
        w = w * datum.simple_reflections[i - 1]
    return w


def sort_key(datum: CartanDatum, w: WeylElement) -> tuple[int, tuple[int, ...]]:
    """(length, reduced word) - the canonical total order on elements."""
    return coxeter_system(datum).sort_key(w)


def generate_group(datum: CartanDatum,
                   bound: int = DEFAULT_GROUP_BOUND) -> tuple[WeylElement, ...]:
    """All Weyl group elements, sorted by (length, reduced word).

    Raises GroupBoundExceeded, before enumerating, when the group is larger
    than ``bound``.  The result is cached on the datum's Coxeter system and
    shared (read-only).
    """
    expected = weyl_order(datum)
    if expected > bound:
        raise GroupBoundExceeded(
            f"group order {expected} exceeds bound {bound}")
    out = coxeter_system(datum).elements(bound)
    if len(out) != expected:
        raise AssertionError(f"enumerated {len(out)} elements, expected "
                             f"{expected} for {datum.type_label}")
    return out


def _transversal(datum: CartanDatum, orbit: dict, den: int = 0):
    """t(x): an element of W moving the start of an ``_orbit`` (searched
    with this ``den``) to its point x, read off the search tree as
    t(x) = s_i t(s_i x), memoized."""
    cartan, simples = datum.cartan_matrix, datum.simple_reflections
    memo = {next(iter(orbit)): datum.identity}

    def t(x):
        hit = memo.get(x)
        if hit is None:
            i = orbit[x]
            hit = memo[x] = simples[i] * t(_step(cartan, x, i, den))
        return hit

    return t


def parabolic_transversals(datum: CartanDatum
                           ) -> tuple[tuple[WeylElement, ...], ...]:
    """X_1, ..., X_n with W_k = X_k W_{k-1} for the parabolic chain
    W_k = <s_1, ..., s_k>, memoized on the datum; W is never enumerated.

    The stabilizer of the fundamental weight omega_k in W_k is W_{k-1}, so
    X_k is read off the W_k-orbit of omega_k (``_orbit``) by the
    transversal of its search tree, in search order (Bjorner-Brenti,
    *Combinatorics of Coxeter Groups*, GTM 231, ch. 2).  Every w in W is
    x_n ... x_1, x_k in X_k, in exactly one way, so the orbit sizes
    multiply to |W|, which is asserted.
    """
    out = datum._memo.get("parabolic_transversals")
    if out is None:
        chain = []
        for k in range(datum.rank):
            orbit = _orbit(datum.cartan_matrix,
                           [int(i == k) for i in range(datum.rank)],
                           range(k + 1))
            chain.append(tuple(map(_transversal(datum, orbit), orbit)))
        if prod(map(len, chain)) != weyl_order(datum):
            raise AssertionError("parabolic orbit sizes do not multiply "
                                 f"to |W| for {datum.type_label}")
        out = datum._memo["parabolic_transversals"] = tuple(chain)
    return out


def weyl_element_at(datum: CartanDatum, index: int) -> WeylElement:
    """The element of W numbered ``index`` in 0..|W|-1 without enumerating
    W: x_n ... x_1 with x_k the i_k-th element of ``parabolic_transversals``
    X_k, where index = i_1 + |X_1| (i_2 + |X_2| (i_3 + ...))."""
    perm, rest = datum.identity.root_perm, index
    for layer in parabolic_transversals(datum):
        rest, i = divmod(rest, len(layer))
        if i:  # x = layer[i], and layer[0] is the identity: perm of x w
            perm = perm.translate(layer[i].root_perm)
    if rest:  # index < 0 or index >= |W|, the product of the layer sizes
        raise ValueError(f"element index {index} out of range "
                         f"0..{weyl_order(datum) - 1}")
    return WeylElement(perm, datum)


# ---------------------------------------------------------------------------
# subgroups
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SubgroupHandle:
    """A subgroup given by generators, with its element set materialized."""

    datum: CartanDatum = field(repr=False)
    generators: tuple[WeylElement, ...]
    elements: frozenset[WeylElement]

    @cached_property
    def sorted_elements(self) -> tuple[WeylElement, ...]:
        return tuple(sorted(self.elements,
                            key=lambda w: sort_key(self.datum, w)))

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, w: WeylElement) -> bool:
        return w in self.elements


def closure(datum: CartanDatum, generators,
            bound: int = DEFAULT_GROUP_BOUND) -> frozenset[WeylElement]:
    """Closure of a generating set under products (hence inverses: finite)."""
    gens = list(generators)
    seen = {datum.identity.root_perm: datum.identity}
    frontier = [datum.identity]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                u = w * g
                if u.root_perm not in seen:
                    if len(seen) >= bound:
                        raise GroupBoundExceeded(
                            f"subgroup closure exceeds bound {bound}")
                    seen[u.root_perm] = u
                    nxt.append(u)
        frontier = nxt
    return frozenset(seen.values())


def subgroup(datum: CartanDatum, generators,
             bound: int = DEFAULT_GROUP_BOUND) -> SubgroupHandle:
    gens = tuple(sorted(set(generators), key=lambda w: sort_key(datum, w)))
    return SubgroupHandle(datum, gens, closure(datum, gens, bound))


def dot_stabilizer(datum: CartanDatum, lam: Weight) -> SubgroupHandle:
    """The stabilizer of lam under the dot action.

    For a real reflection group the point stabilizer is generated by the
    reflections it contains, i.e. by the s_alpha with <lam+rho, alpha^vee> = 0;
    the test suite re-checks this against the brute-force stabilizer.
    """
    walls = classify_weight(datum, lam).singular_roots
    gens = tuple(datum.reflection(alpha) for alpha in walls)
    return subgroup(datum, gens)


# ---------------------------------------------------------------------------
# Bruhat order
# ---------------------------------------------------------------------------

def bruhat_leq(datum: CartanDatum, x: WeylElement, w: WeylElement) -> bool:
    """Bruhat order with subword-property semantics, via the lifting property.
    Memoized on the datum."""
    return coxeter_system(datum).bruhat_leq(x, w)


# ---------------------------------------------------------------------------
# double cosets
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DoubleCosetDecomposition:
    left: SubgroupHandle
    right: SubgroupHandle
    ambient: frozenset[WeylElement]
    cosets: tuple[tuple[WeylElement, frozenset[WeylElement]], ...]

    @property
    def count(self) -> int:
        return len(self.cosets)


def double_cosets(datum: CartanDatum, ambient, h: SubgroupHandle,
                  k: SubgroupHandle) -> DoubleCosetDecomposition:
    """Partition of ``ambient`` into H g K orbits.

    Representatives are length-minimal, ties broken by the lexicographic
    reduced word; the cosets are sorted by their representative's key.
    The ambient set is sorted once and numbered, and cosets are grown from
    its lowest unassigned element, which is then their representative.
    Raises ValueError when H or K does not act within ambient.
    """
    amb = frozenset(ambient)
    for grp, side in ((h, "left"), (k, "right")):
        if not grp.elements <= amb:
            raise ValueError(f"{side} subgroup is not contained in ambient")
    order = sorted(amb, key=coxeter_system(datum).sort_key)
    position = {w.root_perm: x for x, w in enumerate(order)}
    lefts = [g.root_perm for g in h.generators]
    rights = [g.root_perm for g in k.generators]
    assigned = [False] * len(order)
    blocks = []
    for x, w in enumerate(order):
        if assigned[x]:
            continue
        assigned[x] = True
        orbit = [x]
        frontier = [w.root_perm]
        while frontier:
            nxt = []
            for g in frontier:  # h g is g translated by h, g k is k by g
                for u in [g.translate(hg) for hg in lefts] + \
                        [kg.translate(g) for kg in rights]:
                    y = position.get(u)
                    if y is None:
                        raise ValueError(
                            "ambient set is not closed under H g K")
                    if not assigned[y]:
                        assigned[y] = True
                        orbit.append(y)
                        nxt.append(u)
            frontier = nxt
        blocks.append((w, frozenset(order[y] for y in orbit)))
    return DoubleCosetDecomposition(h, k, amb, tuple(blocks))

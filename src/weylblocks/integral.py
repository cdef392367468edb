"""Integral root data attached to a rational weight.

For a weight lam, the roots pairing integrally with lam form a root subsystem
with an integer Cartan matrix of its own, on which the walk to the dominant
chamber and the solve for lam# run the integer kernels of rootsys.  Its Weyl
group W_int sits inside the subgroup W_ext of elements moving lam by
a lattice weight.  The quotient embeds into (weight lattice)/(root lattice)
through the homomorphism ``tau(w) = w(lam) - lam  mod  root lattice``, and is
realized inside W_ext by the abelian chamber subgroup C of elements that
permute the positive integral roots, giving W_ext = C x| W_int.

W itself is never enumerated.  W_ext is the stabilizer of lam's class
modulo the weight lattice, so the orbit of that class, searched by the one
orbit walk ``rootsys._orbit`` on lam's numerators modulo its denominator,
gives |W_ext| = |W| / |orbit| before any group is built, and the bound is
enforced there.  C is closed from the Schreier generators of that
stabilizer, each reduced into C (Schreier's lemma; Seress, *Permutation
Group Algorithms*, 2003, 4.1).  C is numbered once, with its product, its
action on the integral simples and tau(c u) = tau(c) stored per number; the
block numbers c u by (c, u) (``BlockTables``), and W_ext sorted by the full
(length, reduced word) key is built on request.
The same orbit search, stopped at a target class, finds one t moving mu
into lam + (weight lattice), read off its search tree by
``coxeter._transversal``; the shortest such element is a coset minimum.

This module also hosts the constructive certificates around that picture:
regular dominant and subgeneric weights in lam + (weight lattice), the
canonical weight supported on the integral span, compatibility of dot orbits,
and the enumeration of proper pairs indexing one dot-orbit intersection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction as Q
from functools import cached_property
from math import prod

from .coxeter import (
    DEFAULT_GROUP_BOUND,
    CoxeterSystem,
    SubgroupHandle,
    _transversal,
    closure,
    coxeter_system,
)
from .rootsys import (
    CartanDatum,
    FiniteAbelianElement,
    GroupBoundExceeded,
    Root,
    Weight,
    WeylElement,
    _check_rank,
    _integer_inverse,
    _integer_solver,
    _is_lattice,
    _mat_nums,
    _numerators,
    _orbit,
    _rho_shifted,
    _step,
    _to_dominant,
    _weight,
    classify_weight,
    dominant_dot_weight,
    dot_action,
    torsion_group,
    weyl_order,
)

def _wsub(a: Weight, b: Weight) -> Weight:
    return tuple(x - y for x, y in zip(a, b))


def _wadd(a: Weight, b: Weight) -> Weight:
    return tuple(x + y for x, y in zip(a, b))


@dataclass(frozen=True, eq=False)
class IntegralDatum:
    """The integral package attached to one rational weight.

    All members are frozen at construction; the structural identities
    (kernel of tau, semidirect decomposition, chamber action on the simple
    roots) are verified once while building.  The chamber is numbered in
    ``chamber.sorted_elements`` order, so the identity is 0.
    """

    datum: CartanDatum = field(repr=False)
    lam: Weight
    integral_roots: tuple[Root, ...]       # positives then their negatives
    integral_positive: tuple[Root, ...]
    integral_simples: tuple[Root, ...]     # indexed 1..k downstream
    system: CoxeterSystem                  # W_int over the integral simples
    chamber: SubgroupHandle
    chamber_tau: tuple = field(repr=False)     # per chamber number
    chamber_number: dict = field(repr=False)   # root_perm -> number
    chamber_mul: tuple = field(repr=False)     # [a][b]: number of a b
    chamber_conj: tuple = field(repr=False)    # c s_j c^-1 = s_{[k][j]}
    _memo: dict = field(default_factory=dict, repr=False)

    @property
    def rank(self) -> int:
        return len(self.integral_simples)

    @cached_property
    def cartan_matrix(self) -> tuple[tuple[int, ...], ...]:
        """The Cartan matrix of the integral system, numbered as the
        datum's: entry [i][j] is <alpha_j, alpha_i^vee> over the integral
        simples."""
        rows, cartan = self.datum.coroot_rows, self.datum.cartan_matrix
        simples = [_mat_nums(cartan, r.simple_coords)
                   for r in self.integral_simples]
        return tuple(tuple(sum(map(int.__mul__, rows[a.index], b))
                           for b in simples) for a in self.integral_simples)

    @cached_property
    def w_int(self) -> SubgroupHandle:
        """W_int as an element set, built on first read."""
        return SubgroupHandle(self.datum, self.system.simple_reflections,
                              frozenset(self.int_elements()))

    @cached_property
    def w_ext(self) -> tuple[WeylElement, ...]:
        """W_ext sorted by the full (length, reduced word) key, on request."""
        return tuple(sorted((c * u for c in self.chamber.elements
                             for u in self.int_elements()),
                            key=coxeter_system(self.datum).sort_key))

    @cached_property
    def tables(self) -> "BlockTables":
        return BlockTables(self)

    # -- the integral system as a Coxeter group of its own -----------------

    @property
    def simple_reflections(self) -> tuple[WeylElement, ...]:
        return self.system.simple_reflections

    def int_elements(self) -> tuple[WeylElement, ...]:
        """W_int sorted by the integral (length, reduced word)."""
        return self.system.elements()

    def conjugate_simple(self, c: WeylElement, j: int) -> int:
        """Index j' with c s_j c^{-1} = s_{j'}, for chamber elements c and
        1 <= j <= rank."""
        k = self.chamber_number.get(c.root_perm)
        if k is None:
            raise ValueError("not a chamber element")
        if not 1 <= j <= self.rank:
            raise ValueError(f"integral simple index {j} out of range "
                             f"1..{self.rank}")
        return self.chamber_conj[k][j]


class BlockTables:
    """The block W_ext = C W_int on integers: W_int numbered 0..n-1 in
    ``int_elements()`` order, so the identity is 0 and lengths never
    decrease along the numbering.  ``index``, ``length``, ``descent`` and
    ``left`` are the system's enumeration tables (``coxeter.Enumeration``):
    ``left[j][x]`` is the index of s_{j+1} x and ``descent[x]`` the smallest
    j with s_{j+1} x < x (-1 for the identity), so following descents
    spells the lex-minimal reduced word.  ``dmask[x]`` is the left descent
    set of x as a bitmask, bit j set iff s_{j+1} x < x, and ``rmask[x]``
    the right descent set, bit j set iff x s_{j+1} < x.

    The chamber is numbered on the datum (``chamber_number``,
    ``chamber_mul``, ``chamber_conj``); ``chamber_inverse[c]`` numbers
    c^{-1}.  ``right[j][x]`` is the index of x s_{j+1} and ``conj[c][x]``
    the index of c^{-1} x c; both follow x = s_i u with u = left[i][x] one
    step shorter: x s = s_i (u s), and c^{-1} x c = s_{i'} (c^{-1} u c)
    where c^{-1} s_i c = s_{i'}.
    """

    def __init__(self, idat: IntegralDatum):
        self._idat = idat
        enum = idat.system.enumeration()
        self.elements = enum.elements
        self.index = enum.index
        self.length = enum.length
        self.left = left = enum.left
        self.descent = enum.descent
        self.dmask = self._descent_masks(left)
        # (j, u) with x = s_{j+1} u, for x = 1, 2, ... in order
        steps = [(j, left[j][x]) for x, j in enumerate(self.descent) if x]

        def follow(rows, start=0) -> list[int]:  # r[x] = rows[j][r[u]]
            r = [start]
            for j, u in steps:
                r.append(rows[j][r[u]])
            return r
        self.right = [follow(left, row[0]) for row in left]
        self.rmask = self._descent_masks(self.right)
        self.chamber_inverse = [row.index(0) for row in idat.chamber_mul]
        self.conj = [follow([left[j - 1] for j in idat.chamber_conj[ci][1:]])
                     for ci in self.chamber_inverse]

    def _descent_masks(self, rows) -> list[int]:
        """Per x, the bitmask of the j with rows[j][x] shorter than x."""
        masks = [0] * len(self.elements)
        for j, row in enumerate(rows):
            masks = [m | 1 << j if self.length[sx] < lx else m
                     for m, sx, lx in zip(masks, row, self.length)]
        return masks

    def label(self, w: WeylElement) -> tuple[int, int]:
        """(chamber number, W_int number) of w = c u, ValueError outside
        W_ext: one lookup on C or W_int, else a product per chamber element."""
        perm, idat = w.root_perm, self._idat
        if perm in idat.chamber_number:
            return idat.chamber_number[perm], 0
        chamber = idat.chamber.sorted_elements
        for c, ci in enumerate(self.chamber_inverse):
            x = self.index.get(perm.translate(chamber[ci].root_perm)
                               if c else perm)
            if x is not None:
                return c, x
        raise ValueError("element does not move lam by a lattice weight")

    def of(self, w: WeylElement) -> int:
        hit = self.index.get(w.root_perm)
        if hit is None:
            raise ValueError("element outside the integral Weyl group")
        return hit

    def twist(self, c: WeylElement) -> int:
        hit = self._idat.chamber_number.get(c.root_perm)
        if hit is None:
            raise ValueError("twist is not a chamber element")
        return hit


def _mover(datum: CartanDatum, mu: Weight, lam: Weight,
           bound: int) -> WeylElement | None:
    """Some t in W with t(mu) - lam a lattice weight, by walking mu's class
    orbit to lam's class; the identity when mu - lam is already one."""
    _check_rank(datum, mu)
    _check_rank(datum, lam)
    nums, den = _numerators([Q(x) for x in (*mu, *lam)])
    target = tuple(x % den for x in nums[datum.rank:])
    orbit = _orbit(datum.cartan_matrix, nums[:datum.rank], range(datum.rank),
                   den, bound, target)
    return _transversal(datum, orbit, den)(target) if target in orbit \
        else None


def lattice_mover(datum: CartanDatum, mu: Weight, lam: Weight,
                  bound: int = DEFAULT_GROUP_BOUND) -> WeylElement | None:
    """The shortest w in W with w(mu) - lam (or w.mu - lam, the same
    condition) a lattice weight, ties broken by reduced word; None when
    there is none.  For one such t, found by walking mu's classes, they are
    the cosets W_int c t, c in the chamber; each has exactly one shortest
    element, all others strictly longer (M. Dyer, J. Algebra 135 (1990)),
    so the least of those |C| minima is the answer.
    """
    t = _mover(datum, mu, lam, bound)
    if t is None:
        return None
    idat = integral_datum(datum, lam, bound)
    simples = list(zip(idat.system.simple_indices, idat.simple_reflections))
    return min((_into_chamber((c * t).inverse(), simples).inverse()
                for c in idat.chamber.elements),
               key=coxeter_system(datum).sort_key)


def _into_chamber(g: WeylElement, simples) -> WeylElement:
    """The shortest element of g W_int; for g in W_ext, its chamber part:
    right multiply by integral simple reflections s_alpha while g(alpha) < 0,
    which shortens g in the full length each time."""
    n = g.datum.num_positive
    while True:
        s = next((s for i, s in simples if g.root_perm[i] >= n), None)
        if s is None:
            return g
        g = g * s


def _chamber_group(datum: CartanDatum, orbit: dict, den: int, system,
                   order: int, bound: int) -> SubgroupHandle:
    """The chamber subgroup C, closed from the chamber parts of the Schreier
    generators t(y)^{-1} s_i t(x), y = s_i x, of the stabilizer W_ext of the
    weight's class (Schreier's lemma); they are taken in search order until
    C reaches order |W_ext| / |W_int|, the orbit-stabilizer count, and
    those that enlarged C are its generators."""
    cartan, t = datum.cartan_matrix, _transversal(datum, orbit, den)
    simples = list(zip(system.simple_indices, system.simple_reflections))
    target = order // len(system.elements())
    gens, chamber = [], frozenset({datum.identity})
    for x in orbit:
        for i, s in enumerate(datum.simple_reflections):
            if len(chamber) >= target:
                return SubgroupHandle(datum, tuple(gens), chamber)
            st = s * t(x)
            ty = t(_step(cartan, x, i, den))
            if st != ty:  # not an edge of the search tree
                c = _into_chamber(ty.inverse() * st, simples)
                if c not in chamber:
                    gens.append(c)
                    chamber = closure(datum, gens, bound)
    return SubgroupHandle(datum, tuple(gens), chamber)


def integral_datum(datum: CartanDatum, lam: Weight,
                   bound: int = DEFAULT_GROUP_BOUND) -> IntegralDatum:
    """Build (and cache) the integral package of a rational weight.

    W_ext is the stabilizer of lam's class modulo the weight lattice, so
    |W_ext| = |W| / |orbit of the class|; GroupBoundExceeded is raised from
    that count, before any group is enumerated, when |W_ext| (or the
    orbit) exceeds ``bound``.  W_ext is then C W_int, with C from Schreier
    generators; W itself is never enumerated.
    """
    _check_rank(datum, lam)
    lam = tuple(Q(x) for x in lam)
    key = ("integral", lam)
    if key in datum._memo:
        return datum._memo[key]

    nums, den = _numerators(lam)
    orbit = _orbit(datum.cartan_matrix, nums, range(datum.rank), den, bound)
    order = weyl_order(datum) // len(orbit)
    if order > bound:
        raise GroupBoundExceeded(
            f"W_ext enumeration exceeds bound {bound}: |W_ext| = {order}")

    # lam's pairing with every coroot, as numerators over den
    pairings = [sum(map(int.__mul__, row, nums)) for row in datum.coroot_rows]
    n = datum.num_positive
    int_pos = tuple(r for r in datum.positive_roots
                    if pairings[r.index] % den == 0)
    int_roots = int_pos + tuple(datum.roots[r.index + n] for r in int_pos)

    pos_coords = {r.simple_coords for r in int_pos}
    simples = tuple(
        r for r in int_pos
        if not any(tuple(map(int.__sub__, r.simple_coords, b.simple_coords))
                   in pos_coords for b in int_pos if b.height < r.height))
    system = CoxeterSystem(datum, (r.index for r in simples),
                           (r.index for r in int_pos))
    w_int_order = len(system.elements(bound))
    chamber = _chamber_group(datum, orbit, den, system, order, bound)
    if chamber.order * w_int_order * len(orbit) != weyl_order(datum):
        raise AssertionError("|C| * |W_int| * |orbit of lam mod the weight "
                             "lattice| != |W|")
    elements = chamber.sorted_elements
    shift, class_of = _tau_shift(datum, lam), torsion_group(datum).class_of
    number = {c.root_perm: k for k, c in enumerate(elements)}
    # -1 and 0 mark a product outside C and a non-simple image, which
    # _validate rejects
    position = {r.index: j for j, r in enumerate(simples, 1)}
    idat = IntegralDatum(
        datum=datum, lam=lam, integral_roots=int_roots,
        integral_positive=int_pos, integral_simples=simples,
        system=system, chamber=chamber,
        chamber_tau=tuple(class_of(shift(map(c.root_perm.index,
                                             range(datum.rank))))
                          for c in elements),
        chamber_number=number,
        chamber_mul=tuple(tuple(number.get((a * b).root_perm, -1)
                                for b in elements) for a in elements),
        chamber_conj=tuple((0, *(position.get(c.root_perm[r.index], 0)
                                 for r in simples)) for c in elements))
    _validate(idat)
    datum._memo[key] = idat
    return idat


def _tau_shift(datum: CartanDatum, lam: Weight):
    """w(lam) - lam as integer coordinates, as a function of the indices
    of the roots w^{-1}(alpha_i): coordinate i of w(lam) is lam's pairing
    with w^{-1}(alpha_i), taken on numerators over lam's denominator.  tau
    is the class of the shift."""
    nums, den = _numerators(lam)
    pairings = _mat_nums(datum.coroot_rows, nums)

    def shift(pulled) -> list[int]:
        moved = [pairings[k] - x for k, x in zip(pulled, nums)]
        if any(x % den for x in moved):
            raise AssertionError("w(lam) - lam is not a lattice weight")
        return [x // den for x in moved]
    return shift


def _validate(idat: IntegralDatum) -> None:
    datum = idat.datum
    # positive integral roots decompose over the integral simples, on
    # integer simple coordinates
    if idat.integral_simples:
        solve, diagonal = _integer_solver(
            [[r.simple_coords[i] for r in idat.integral_simples]
             for i in range(datum.rank)])
        if len(diagonal) < idat.rank or not all(diagonal):
            raise AssertionError("integral simples are linearly dependent")
        for r in idat.integral_positive:
            x = solve(r.simple_coords)
            if x is None or min(x) < 0:
                raise AssertionError(
                    f"integral root {r} does not decompose over the simples")
    # tau(c u) = tau(c) on C W_int, no product formed: c u (lam) - lam is
    # a lattice weight whose residues match tau(c)'s on every modulus > 1
    # (a row with modulus 1 is 0 on every vector); tau(c) = 0 only at
    # c = e, so the kernel of tau is W_int and C meets it trivially
    shift, group = _tau_shift(datum, idat.lam), torsion_group(datum)
    rows = [(row, m) for row, m in zip(group.projector, group.moduli)
            if m > 1]
    for c, t in zip(idat.chamber.sorted_elements, idat.chamber_tau):
        if t.is_zero != c.is_identity:
            raise AssertionError("kernel of tau differs from W_int")
        want = [r for r, m in zip(t.residues, t.moduli) if m > 1]
        heads = list(map(c.root_perm.index, range(datum.rank)))
        for u in idat.int_elements():
            # w^{-1}(alpha_i) = u^{-1}(c^{-1}(alpha_i))
            x = shift(map(u.root_perm.index, heads))
            if [sum(map(int.__mul__, row, x)) % m for row, m in rows] != want:
                raise AssertionError("tau(c u) differs from tau(c)")
    # the chamber is an abelian group permuting the integral simples: each
    # row of its tables is a permutation
    mul = idat.chamber_mul
    if mul != tuple(zip(*mul)):
        raise AssertionError("chamber subgroup is not abelian")
    if any(sorted(row) != list(range(len(mul))) for row in mul):
        raise AssertionError("chamber products fall outside C or repeat")
    if any(sorted(row) != list(range(idat.rank + 1))
           for row in idat.chamber_conj):
        raise AssertionError(
            "a chamber element does not permute the integral simples")


# ---------------------------------------------------------------------------
# the homomorphism tau and the semidirect decomposition
# ---------------------------------------------------------------------------

def tau(idat: IntegralDatum, w: WeylElement) -> FiniteAbelianElement:
    """Class of w(lam) - lam modulo the root lattice: tau(c) for w = c u."""
    return idat.chamber_tau[idat.tables.label(w)[0]]


def chamber_decompose(idat: IntegralDatum,
                      w: WeylElement) -> tuple[WeylElement, WeylElement]:
    """The unique (c, u) with w = c u, c in the chamber, u in W_int, read
    off the block's numbering; raises ValueError outside W_ext."""
    c, u = idat.tables.label(w)
    return idat.chamber.sorted_elements[c], idat.tables.elements[u]


def lambda_sharp(idat: IntegralDatum) -> Weight:
    """The weight in the rational span of the integral roots matching lam
    on every integral coroot: sum_j x_j alpha_j with x the integral
    Cartan matrix's inverse applied to lam's integral simple pairings."""
    datum = idat.datum
    if not idat.integral_simples:
        return datum.zero_weight()
    inverse, d = _integer_inverse(idat.cartan_matrix)
    nums, den = _numerators(idat.lam)
    rows = datum.coroot_rows
    x = _mat_nums(inverse, [sum(map(int.__mul__, rows[r.index], nums))
                            for r in idat.integral_simples])
    # sum_j x_j alpha_j in simple-root, then fundamental-weight coordinates
    coords = _mat_nums(zip(*(r.simple_coords for r in idat.integral_simples)),
                       x)
    return _weight(_mat_nums(datum.cartan_matrix, coords), d * den)


def dominant_dot_rep(idat: IntegralDatum,
                     nu: Weight) -> tuple[WeylElement, Weight]:
    """(w, dom) with dom = w . nu dominant for the integral system,
    ascending through the integral simple reflections, smallest index
    first: the integer walk of rootsys on nu + rho's pairings with the
    integral simple coroots, over the integral Cartan matrix."""
    nu = tuple(Q(x) for x in nu)
    if not _is_lattice(_wsub(nu, idat.lam)):
        raise ValueError("weight is not in lam + (weight lattice)")
    datum = idat.datum
    shifted, _ = _rho_shifted(nu)
    rows = datum.coroot_rows
    word: list[int] = []
    _to_dominant(idat.cartan_matrix,
                 [sum(map(int.__mul__, rows[r.index], shifted))
                  for r in idat.integral_simples], word)
    w = datum.identity
    for j in word:
        w = idat.simple_reflections[j] * w
    return w, dot_action(datum, w, nu)


# ---------------------------------------------------------------------------
# certificates: regular dominant and subgeneric weights
# ---------------------------------------------------------------------------

def _least_step(pairings, steps) -> int:
    """The least l >= 0 with p + l*d >= 1 for every pairing p and its step
    d > 0."""
    return max([0, *(-((p - 1) // d) for p, d in zip(pairings, steps))])


def find_regular_dominant(idat: IntegralDatum) -> Weight:
    """The first lam + m*rho (m = 0, 1, 2, ...) that is regular dominant.

    Only an integral root a can pair with lam + (m+1) rho to an integer,
    p + m*ht with p = <lam + rho, a^vee> and ht = <rho, a^vee>, the sum of
    its coroot row; m is the least making every such pairing at least 1.
    """
    datum = idat.datum
    shifted, den = _rho_shifted(idat.lam)
    rows = [datum.coroot_rows[r.index] for r in idat.integral_positive]
    m = _least_step([p // den for p in _mat_nums(rows, shifted)],
                    map(sum, rows))
    cand = _wadd(idat.lam, tuple(Q(m) * r for r in datum.rho))
    cls = classify_weight(datum, cand)
    if not (cls.dominant and cls.regular):
        raise AssertionError(f"{cand} is not regular dominant")
    return cand


def _solve_single_diophantine(row: tuple[int, ...], target: int):
    """Integer x with sum(row[j] x[j]) == target, or None.

    Folds the extended gcd left to right, so the answer is deterministic.
    """
    n = len(row)
    g, coeffs = 0, [0] * n
    for j, r in enumerate(row):
        if r == 0:
            continue
        if g == 0:
            g, coeffs = abs(r), [0] * n
            coeffs[j] = 1 if r > 0 else -1
            continue
        a, b = g, r
        # extended gcd of (a, b)
        old_r, rr = a, b
        old_s, s = 1, 0
        old_t, t = 0, 1
        while rr:
            qq = old_r // rr
            old_r, rr = rr, old_r - qq * rr
            old_s, s = s, old_s - qq * s
            old_t, t = t, old_t - qq * t
        coeffs = [old_s * c for c in coeffs]
        coeffs[j] += old_t
        g = old_r
    if g == 0:
        return None if target else tuple(0 for _ in row)
    if target % g:
        return None
    f = target // g
    return tuple(c * f for c in coeffs)


def find_subgeneric(idat: IntegralDatum, i: int) -> Weight:
    """A dominant weight in lam + (weight lattice) whose dot stabilizer is
    exactly {e, s} for the i-th integral simple reflection (i is 1-based).

    Three steps: land on the wall of s alone, find a lattice direction fixed
    by s but strictly positive on every other integral simple coroot, then
    walk along it to the first point that is dominant and on no other wall.
    Each step takes its least coefficient, and the walk's length is read
    off in closed form.
    """
    if not 1 <= i <= idat.rank:
        raise ValueError(f"integral simple index {i} out of range "
                         f"1..{idat.rank}")
    datum = idat.datum
    alpha = idat.integral_simples[i - 1]
    rows = datum.coroot_rows

    # step 1: mu' = lam - <lam + rho, alpha^vee> omega, <omega, alpha^vee>
    # = 1, lies on alpha's wall; mu1 is mu' + rho over lam's denominator
    omega = _solve_single_diophantine(rows[alpha.index], 1)
    shifted, den = _rho_shifted(idat.lam)
    t = sum(map(int.__mul__, rows[alpha.index], shifted))
    mu1 = [x - t * o for x, o in zip(shifted, omega)]

    # step 2: the least m > 0 with a lattice delta that is 0 on alpha^vee
    # and m on the other integral simple coroots; m is the order of a class
    # of Z^k / (image of their rows), so it divides that group's order, the
    # product of the Smith diagonal
    solve, diagonal = _integer_solver([rows[r.index]
                                       for r in idat.integral_simples])
    delta = next(d for d in (
        solve([0 if j == i - 1 else m for j in range(idat.rank)])
        for m in range(1, prod(diagonal) + 1)) if d is not None)

    # step 3: every other integral positive beta^vee is a nonnegative sum
    # of integral simple coroots, not all alpha^vee, so <delta, beta^vee>
    # >= m > 0; l is the least lifting every <mu' + rho, beta^vee> to >= 1
    others = [rows[b.index] for b in idat.integral_positive if b != alpha]
    l = _least_step([p // den for p in _mat_nums(others, mu1)],
                    _mat_nums(others, delta))
    cand = _weight([x - den + l * den * d for x, d in zip(mu1, delta)], den)
    cls = classify_weight(datum, cand)
    if not (cls.dominant and cls.singular_roots == (alpha,)):
        raise AssertionError(f"{cand} is not subgeneric for {alpha}")
    return cand


# ---------------------------------------------------------------------------
# compatibility and proper pairs
# ---------------------------------------------------------------------------

def are_compatible(datum: CartanDatum, lam: Weight, lam2: Weight,
                   bound: int = DEFAULT_GROUP_BOUND) -> bool:
    """True iff some dot translate of lam differs from lam2 by a lattice
    weight, i.e. the two dot orbits carry compatible central data.  Decided
    by the walk over lam's classes modulo the weight lattice alone."""
    return _mover(datum, lam, lam2, bound) is not None


@dataclass(frozen=True)
class ProperPair:
    """(mu, lam): lam dominant, mu the canonical point of its stabilizer
    orbit, mu - lam a lattice weight."""

    mu: Weight
    lam: Weight


def enumerate_Xi(datum: CartanDatum, mu: Weight, lam: Weight,
                 bound: int = DEFAULT_GROUP_BOUND) -> tuple[ProperPair, ...]:
    """Proper pairs indexing the orbit intersection attached to (mu, lam).

    One pair per W_lam-dot-orbit on the intersection of the full dot orbit
    of mu with lam_dom + (weight lattice); empty when the orbits are not
    compatible.  The cardinality equals the double coset count
    W_mu \\ W_ext / W_lam (checked in the test suite).

    That intersection is the W_ext-dot orbit of mu0 = t.mu for any mover t.
    It is walked as the integer numerators of its points + rho over mu0's
    denominator; each stabilizer orbit is represented by its first
    antidominant point in lexicographic order, else its first point, and
    Fractions are built only for the returned pairs.
    """
    mu = tuple(Q(x) for x in mu)
    lam = tuple(Q(x) for x in lam)
    lam_dom = dominant_dot_weight(datum, lam)
    t = _mover(datum, mu, lam_dom, bound)
    if t is None:
        return ()
    idat = integral_datum(datum, lam_dom, bound)
    start, den = _rho_shifted(dot_action(datum, t, mu))
    # coordinate i of w(x), w = c u, is x's pairing with u^{-1}(c^{-1} alpha_i)
    pairings = [sum(map(int.__mul__, row, start)) for row in datum.coroot_rows]
    heads = [list(map(c.root_perm.index, range(datum.rank)))
             for c in idat.chamber.elements]
    orbit = {tuple(pairings[u.root_perm.index(h)] for h in hs)
             for hs in heads for u in idat.int_elements()}
    # the dot stabilizer of lam_dom is generated by its wall reflections
    matrices = [datum.reflection(a).weight_matrix
                for a in classify_weight(datum, lam_dom).singular_roots]
    positive_rows = datum.coroot_rows[:datum.num_positive]

    def antidominant(y) -> bool:  # as classify_weight decides it
        return not any(v > 0 and v % den == 0 for v in (
            sum(map(int.__mul__, row, y)) for row in positive_rows))

    reps = []
    remaining = set(orbit)
    while remaining:
        block = {remaining.pop()}
        frontier = list(block)
        while frontier:
            nxt = []
            for y in frontier:
                for m in matrices:
                    z = tuple(_mat_nums(m, y))
                    if z not in block:
                        block.add(z)
                        nxt.append(z)
            frontier = nxt
        remaining -= block
        members = sorted(block)
        reps.append(next((y for y in members if antidominant(y)), members[0]))
    return tuple(ProperPair(_weight([v - den for v in y], den), lam_dom)
                 for y in sorted(reps))

"""Integral root data attached to a rational weight.

For a weight lam, the roots pairing integrally with lam form a root subsystem;
its Weyl group W_int sits inside the subgroup W_ext of elements moving lam by
a lattice weight.  The quotient embeds into (weight lattice)/(root lattice)
through the homomorphism ``tau(w) = w(lam) - lam  mod  root lattice``, and is
realized inside W_ext by the abelian chamber subgroup C of elements that
permute the positive integral roots, giving W_ext = C x| W_int.

This module also hosts the constructive certificates around that picture:
regular dominant and subgeneric weights in lam + (weight lattice), the
canonical weight supported on the integral span, compatibility of dot orbits,
and the enumeration of proper pairs indexing one dot-orbit intersection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction as Q

from .coxeter import (
    DEFAULT_GROUP_BOUND,
    CoxeterSystem,
    SubgroupHandle,
    dot_stabilizer,
    generate_group,
    sort_key,
)
from .rootsys import (
    CartanDatum,
    FiniteAbelianElement,
    Root,
    Weight,
    WeylElement,
    _mat_nums,
    _numerators,
    classify_weight,
    dominant_dot_weight,
    dot_action,
    smith_normal_form,
    torsion_group,
)

_SCAN_CAP = 10000  # safety cap for the certificate scans; never hit in practice


def _is_lattice(coords) -> bool:
    return all(x.denominator == 1 for x in coords)


def _wsub(a: Weight, b: Weight) -> Weight:
    return tuple(x - y for x, y in zip(a, b))


def _wadd(a: Weight, b: Weight) -> Weight:
    return tuple(x + y for x, y in zip(a, b))


@dataclass(frozen=True, eq=False)
class IntegralDatum:
    """The integral package attached to one rational weight.

    All members are frozen at construction; the structural identities
    (kernel of tau, semidirect decomposition, chamber action on the simple
    roots) are verified once while building.
    """

    datum: CartanDatum = field(repr=False)
    lam: Weight
    integral_roots: tuple[Root, ...]       # positives then their negatives
    integral_positive: tuple[Root, ...]
    integral_simples: tuple[Root, ...]     # indexed 1..k downstream
    system: CoxeterSystem                  # W_int over the integral simples
    w_int: SubgroupHandle
    w_ext: tuple[WeylElement, ...]         # sorted by (length, word)
    chamber: SubgroupHandle
    tau_table: dict = field(repr=False)    # WeylElement -> FiniteAbelianElement
    _memo: dict = field(default_factory=dict, repr=False)

    @property
    def rank(self) -> int:
        return len(self.integral_simples)

    # -- the integral system as a Coxeter group of its own -----------------

    @property
    def simple_reflections(self) -> tuple[WeylElement, ...]:
        return self.system.simple_reflections

    def int_length(self, w: WeylElement) -> int:
        return self.system.length(w)

    def int_left_descent(self, w: WeylElement, j: int) -> bool:
        """True iff s_j w is shorter in the integral system; j is 1-based."""
        return self.system.is_left_descent(w, j)

    def int_reduced_word(self, w: WeylElement) -> tuple[int, ...]:
        """Lex-minimal reduced word over the integral simple indices."""
        return self.system.reduced_word(w)

    def int_sort_key(self, w: WeylElement):
        return self.system.sort_key(w)

    def int_elements(self) -> tuple[WeylElement, ...]:
        """W_int sorted by the integral (length, reduced word)."""
        return self.system.elements()

    def int_bruhat_leq(self, x: WeylElement, w: WeylElement) -> bool:
        """Bruhat order of the integral Coxeter system (lifting property)."""
        return self.system.bruhat_leq(x, w)

    def conjugate_simple(self, c: WeylElement, j: int) -> int:
        """Index j' with c s_j c^{-1} = s_{j'}, for chamber elements c."""
        img_index = c.root_perm[self.integral_simples[j - 1].index]
        table = self._memo.get("simple_by_root")
        if table is None:
            table = self._memo["simple_by_root"] = {
                r.index: pos + 1
                for pos, r in enumerate(self.integral_simples)}
        if img_index not in table:
            raise ValueError("conjugation does not preserve the simple system")
        return table[img_index]


def lattice_movers(datum: CartanDatum, mu: Weight, lam: Weight,
                   bound: int = DEFAULT_GROUP_BOUND):
    """The w in W with w(mu) - lam a lattice weight, in generate_group order.

    These are also the w with w.mu - lam a lattice weight, since
    w.mu - w(mu) = w(rho) - rho is one.  Coordinate i of w(mu) is
    <mu, (w^{-1} alpha_i)^vee> and w^{-1} alpha_i is root perm.index(i), so
    mu's coroot pairings mod 1, taken once on numerators over the common
    denominator of mu and lam, decide every element without arithmetic per
    element.
    """
    if len(mu) != datum.rank or len(lam) != datum.rank:
        raise ValueError(f"weights need {datum.rank} coordinates")
    nums, den = _numerators([Q(x) for x in (*mu, *lam)])
    residues = [sum(map(int.__mul__, row, nums)) % den
                for row in datum.coroot_rows]
    target = [x % den for x in nums[datum.rank:]]
    for w in generate_group(datum, bound):
        perm = w.root_perm
        if all(residues[perm.index(i)] == t for i, t in enumerate(target)):
            yield w


def integral_datum(datum: CartanDatum, lam: Weight,
                   bound: int = DEFAULT_GROUP_BOUND) -> IntegralDatum:
    """Build (and cache) the integral package of a rational weight."""
    lam = tuple(Q(x) for x in lam)
    key = ("integral", lam)
    if key in datum._memo:
        return datum._memo[key]

    n = datum.num_positive
    int_pos = tuple(r for r in datum.positive_roots
                    if r.pair(lam).denominator == 1)
    int_roots = int_pos + tuple(datum.roots[r.index + n] for r in int_pos)

    pos_weights = {r.as_weight for r in int_pos}
    simples = tuple(
        r for r in int_pos
        if not any(_wsub(r.as_weight, b.as_weight) in pos_weights
                   for b in int_pos if b.height < r.height))
    system = CoxeterSystem(datum, (r.index for r in simples),
                           (r.index for r in int_pos))

    w_int = SubgroupHandle(
        datum, tuple(sorted(system.simple_reflections,
                            key=lambda w: sort_key(datum, w))),
        frozenset(system.elements(bound)), "reflection")
    w_ext = tuple(lattice_movers(datum, lam, lam, bound))
    chamber_els = frozenset(
        w for w in w_ext
        if all(w.root_perm[r.index] < n for r in int_pos))
    chamber = SubgroupHandle(datum, tuple(
        sorted(chamber_els - {datum.identity},
               key=lambda w: sort_key(datum, w))), chamber_els, "chamber")

    # tau(w) from w(lam) - lam, on numerators over lam's denominator
    torsion = torsion_group(datum)
    nums, den = _numerators(lam)
    tau_table = {}
    for w in w_ext:
        moved = [a - b for a, b in zip(_mat_nums(w.weight_matrix, nums), nums)]
        if any(x % den for x in moved):
            raise AssertionError("w(lam) - lam is not a lattice weight")
        tau_table[w] = torsion.class_of([x // den for x in moved])

    idat = IntegralDatum(
        datum=datum, lam=lam, integral_roots=int_roots,
        integral_positive=int_pos, integral_simples=simples,
        system=system, w_int=w_int, w_ext=w_ext,
        chamber=chamber, tau_table=tau_table)
    _validate(idat)
    datum._memo[key] = idat
    return idat


def _validate(idat: IntegralDatum) -> None:
    datum = idat.datum
    # positive integral roots decompose over the integral simples, on
    # integer simple coordinates
    if idat.integral_simples:
        solve, independent = _integer_solver(
            [[r.simple_coords[i] for r in idat.integral_simples]
             for i in range(datum.rank)])
        if not independent:
            raise AssertionError("integral simples are linearly dependent")
        for r in idat.integral_positive:
            x = solve(r.simple_coords)
            if x is None or min(x) < 0:
                raise AssertionError(
                    f"integral root {r} does not decompose over the simples")
    # kernel of tau is exactly W_int
    for w in idat.w_ext:
        if idat.tau_table[w].is_zero != (w in idat.w_int.elements):
            raise AssertionError("kernel of tau differs from W_int")
    # semidirect shape
    if idat.chamber.elements & idat.w_int.elements != {datum.identity}:
        raise AssertionError("chamber meets W_int nontrivially")
    if idat.chamber.order * idat.w_int.order != len(idat.w_ext):
        raise AssertionError("|C| * |W_int| != |W_ext|")
    for c in idat.chamber.elements:
        for cc in idat.chamber.elements:
            if c * cc != cc * c:
                raise AssertionError("chamber subgroup is not abelian")
        for j in range(1, idat.rank + 1):
            idat.conjugate_simple(c, j)  # raises if not a simple


# ---------------------------------------------------------------------------
# the homomorphism tau and the semidirect decomposition
# ---------------------------------------------------------------------------

def tau(idat: IntegralDatum, w: WeylElement) -> FiniteAbelianElement:
    """Class of w(lam) - lam modulo the root lattice."""
    hit = idat.tau_table.get(w)
    if hit is None:
        raise ValueError("element does not move lam by a lattice weight")
    return hit


def chamber_decompose(idat: IntegralDatum,
                      w: WeylElement) -> tuple[WeylElement, WeylElement]:
    """The unique (c, u) with w = c u, c in the chamber, u in W_int."""
    if w not in idat.tau_table:
        raise ValueError("element does not move lam by a lattice weight")
    for u in idat.int_elements():
        c = w * u.inverse()
        if c in idat.chamber.elements:
            return c, u
    raise AssertionError("semidirect decomposition failed")  # unreachable


def lambda_sharp(idat: IntegralDatum) -> Weight:
    """The weight in the rational span of the integral roots matching lam
    on every integral coroot, by exact linear algebra."""
    if not idat.integral_simples:
        return idat.datum.zero_weight()
    k = idat.rank
    cartan_int = tuple(
        tuple(idat.integral_simples[i].pair(idat.integral_simples[j].as_weight)
              for j in range(k))
        for i in range(k))
    rhs = tuple(idat.integral_simples[i].pair(idat.lam) for i in range(k))
    from .rootsys import solve_rational

    x = solve_rational(cartan_int, rhs)
    out = idat.datum.zero_weight()
    for c, r in zip(x, idat.integral_simples):
        out = _wadd(out, tuple(c * y for y in r.as_weight))
    return out


def dominant_dot_rep(idat: IntegralDatum,
                     nu: Weight) -> tuple[WeylElement, Weight]:
    """(w, dom) with dom = w . nu dominant, ascending through the integral
    simple reflections (smallest index first)."""
    nu = tuple(Q(x) for x in nu)
    if not _is_lattice(_wsub(nu, idat.lam)):
        raise ValueError("weight is not in lam + (weight lattice)")
    datum = idat.datum
    w = datum.identity
    x = nu
    while True:
        shifted = _wadd(x, datum.rho)
        j = next((j for j in range(idat.rank)
                  if idat.integral_simples[j].pair(shifted) < 0), None)
        if j is None:
            return w, x
        s = idat.simple_reflections[j]
        x = dot_action(datum, s, x)
        w = s * w


# ---------------------------------------------------------------------------
# certificates: regular dominant and subgeneric weights
# ---------------------------------------------------------------------------

def find_regular_dominant(idat: IntegralDatum) -> Weight:
    """First lam + m*rho (m = 0, 1, 2, ...) that is regular dominant."""
    datum = idat.datum
    for m in range(_SCAN_CAP):
        cand = _wadd(idat.lam, tuple(Q(m) * r for r in datum.rho))
        cls = classify_weight(datum, cand)
        if cls.dominant and cls.regular:
            return cand
    raise AssertionError("regular dominant scan exceeded cap")  # unreachable


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


def _integer_solver(rows: list[list[int]]):
    """(solve, independent): solve maps rhs to one integer solution of
    rows * x == rhs, or None, by a Smith normal form of rows computed once;
    independent tells whether the columns are, so that it is the only one."""
    p, s, q = smith_normal_form(rows)
    k, n = len(rows), len(rows[0])

    def solve(rhs):
        pr = [sum(p[i][j] * rhs[j] for j in range(k)) for i in range(k)]
        y = [0] * n
        for i in range(k):
            d = s[i][i] if i < min(k, n) else 0
            if d == 0:
                if pr[i] != 0:
                    return None
                continue
            if pr[i] % d:
                return None
            y[i] = pr[i] // d
        return tuple(sum(q[i][j] * y[j] for j in range(n)) for i in range(n))

    return solve, n <= k and all(s[i][i] for i in range(n))


def find_subgeneric(idat: IntegralDatum, i: int) -> Weight:
    """A dominant weight in lam + (weight lattice) whose dot stabilizer is
    exactly {e, s} for the i-th integral simple reflection (i is 1-based).

    Three steps: land on the wall of s alone, find a lattice direction fixed
    by s but strictly positive on every other integral simple coroot, then
    walk along it until the certificate checks.  All scans start at the
    minimal coefficient.
    """
    if not 1 <= i <= idat.rank:
        raise ValueError(f"integral simple index {i} out of range "
                         f"1..{idat.rank}")
    datum = idat.datum
    alpha = idat.integral_simples[i - 1]
    row = tuple(int(x) for x in alpha.coroot_row)

    # step 1: mu' in lam + lattice with <mu' + rho, alpha^vee> = 0
    omega = _solve_single_diophantine(row, 1)
    target = alpha.pair(_wadd(idat.lam, datum.rho))
    assert target.denominator == 1
    mu1 = _wadd(idat.lam, tuple(Q(-int(target) * x) for x in omega))

    # step 2: delta in the lattice with <delta, alpha^vee> = 0 and
    # <delta, beta^vee> = m > 0 on the other integral simples
    rows = [[int(x) for x in r.coroot_row] for r in idat.integral_simples]
    solve, _ = _integer_solver(rows)
    delta = None
    for m in range(1, _SCAN_CAP):
        rhs = [0 if j == i - 1 else m for j in range(idat.rank)]
        delta = solve(rhs)
        if delta is not None:
            break
    assert delta is not None

    # step 3: minimal l with mu' + l*delta dominant and singular on alpha only
    for l in range(_SCAN_CAP):
        cand = _wadd(mu1, tuple(Q(l * x) for x in delta))
        cls = classify_weight(datum, cand)
        if cls.dominant and cls.singular_roots == (alpha,):
            return cand
    raise AssertionError("subgeneric scan exceeded cap")  # unreachable


# ---------------------------------------------------------------------------
# compatibility and proper pairs
# ---------------------------------------------------------------------------

def are_compatible(datum: CartanDatum, lam: Weight, lam2: Weight,
                   bound: int = DEFAULT_GROUP_BOUND) -> bool:
    """True iff some dot translate of lam differs from lam2 by a lattice
    weight, i.e. the two dot orbits carry compatible central data."""
    return next(lattice_movers(datum, lam, lam2, bound), None) is not None


@dataclass(frozen=True)
class ProperPair:
    """(mu, lam): lam dominant, mu the canonical point of its stabilizer
    orbit, mu - lam a lattice weight."""

    mu: Weight
    lam: Weight


def _orbit_rep_key(datum: CartanDatum, x: Weight):
    cls = classify_weight(datum, x)
    return (0 if cls.antidominant else 1, x)


def enumerate_Xi(datum: CartanDatum, mu: Weight, lam: Weight,
                 bound: int = DEFAULT_GROUP_BOUND) -> tuple[ProperPair, ...]:
    """Proper pairs indexing the orbit intersection attached to (mu, lam).

    One pair per W_lam-dot-orbit on the intersection of the full dot orbit
    of mu with lam_dom + (weight lattice); empty when the orbits are not
    compatible.  The cardinality equals the double coset count
    W_mu \\ W_ext / W_lam (checked in the test suite).
    """
    mu = tuple(Q(x) for x in mu)
    lam = tuple(Q(x) for x in lam)
    lam_dom = dominant_dot_weight(datum, lam)
    w0 = next(lattice_movers(datum, mu, lam_dom, bound), None)
    if w0 is None:
        return ()
    mu0 = dot_action(datum, w0, mu)
    idat = integral_datum(datum, lam_dom, bound)
    orbit = {dot_action(datum, w, mu0) for w in idat.w_ext}
    stab = dot_stabilizer(datum, lam_dom)
    pairs = []
    remaining = set(orbit)
    for x in sorted(orbit):
        if x not in remaining:
            continue
        block = {x}
        frontier = [x]
        while frontier:
            nxt = []
            for y in frontier:
                for g in stab.generators:
                    z = dot_action(datum, g, y)
                    if z not in block:
                        block.add(z)
                        nxt.append(z)
            frontier = nxt
        remaining -= block
        rep = min(block, key=lambda y: _orbit_rep_key(datum, y))
        pairs.append(ProperPair(rep, lam_dom))
    pairs.sort(key=lambda p: p.mu)
    return tuple(pairs)

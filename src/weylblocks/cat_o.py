"""Grothendieck-level category O data.

Finite-dimensional characters by the Freudenthal recursion (exact rationals,
cross-checked against the Weyl dimension formula), dot-orbit linkage, and the
translation identity on Verma symbols: tensoring a Verma class by the
character of the simple module L(mu - lam) and projecting to the target orbit.

Only the formal consequences of highest-weight combinatorics live here; no
module category is materialized.  The deformed variant of the translation
identity has the same combinatorial content, so the one check here certifies
both readings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction as Q

from .coxeter import DEFAULT_GROUP_BOUND, dot_stabilizer, generate_group
from .integral import _wadd, _wsub
from .rootsys import CartanDatum, GroupBoundExceeded, Weight, WeylElement, \
    classify_weight, dot_action, weyl_order

WeightMultiset = dict  # Weight -> positive multiplicity


def linear_dominant_rep(datum: CartanDatum, v: Weight) -> Weight:
    """The dominant point of the linear W-orbit of v."""
    x = tuple(Q(c) for c in v)
    while True:
        i = next((j for j in range(datum.rank) if x[j] < 0), None)
        if i is None:
            return x
        x = datum.simple_reflections[i].act(x)


def linear_orbit(datum: CartanDatum, v: Weight) -> set[Weight]:
    seen = {tuple(Q(c) for c in v)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for s in datum.simple_reflections:
                y = s.act(x)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def _check_dominant_integral(datum: CartanDatum, highest: Weight) -> Weight:
    w = tuple(Q(c) for c in highest)
    if any(c.denominator != 1 for c in w):
        raise ValueError(f"highest weight {w} is not integral")
    if any(c < 0 for c in w):
        raise ValueError(f"highest weight {w} is not dominant")
    return w


def weyl_dimension(datum: CartanDatum, highest: Weight) -> int:
    """dim of the irreducible with the given dominant integral highest
    weight, as the exact product formula."""
    w = _check_dominant_integral(datum, highest)
    shifted = _wadd(w, datum.rho)
    out = Q(1)
    for alpha in datum.positive_roots:
        out *= alpha.pair(shifted) / alpha.pair(datum.rho)
    assert out.denominator == 1
    return int(out)


def _character_scales(datum: CartanDatum):
    """Integer scaling data for the character recursion, cached.

    All weights of a highest-weight module live in top + (root lattice), so
    a weight is an integer vector c with nu = top - sum c_i alpha_i.  The
    invariant form and the inverse Cartan matrix are cleared to integers by
    the factors D (symmetrizer denominators) and M (the common denominator
    of the inverse Cartan matrix).
    """
    key = "char_scales"
    if key in datum._memo:
        return datum._memo[key]
    n = datum.rank
    d_den = 1
    for d in datum.symmetrizer:
        d_den = d_den * d.denominator // _gcd(d_den, d.denominator)
    dd = tuple(int(d * d_den) for d in datum.symmetrizer)
    diag_m = 1
    for row in datum.inverse_cartan:
        for x in row:
            diag_m = diag_m * x.denominator // _gcd(diag_m, x.denominator)
    b = tuple(tuple(int(x * diag_m) for x in row)
              for row in datum.inverse_cartan)
    # per positive root: displacement in c-space and the D-scaled pairing row
    roots = tuple(
        (alpha.simple_coords,
         tuple(dd[i] * alpha.simple_coords[i] for i in range(n)))
        for alpha in datum.positive_roots)
    # the functional <., rho-check>: u with u^T (Cartan matrix) = (1, ..., 1)
    from .rootsys import solve_rational

    a_t = tuple(tuple(Q(datum.cartan_matrix[j][i]) for j in range(n))
                for i in range(n))
    u = solve_rational(a_t, tuple(Q(1) for _ in range(n)))
    out = (d_den, dd, diag_m, b, roots, u)
    datum._memo[key] = out
    return out


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def _parabolic_order_of_zeros(datum: CartanDatum, zeros: frozenset) -> int:
    from .coxeter import closure

    key = ("linear_parabolic", zeros)
    if key not in datum._memo:
        gens = [datum.simple_reflections[i] for i in sorted(zeros)]
        datum._memo[key] = len(closure(datum, gens))
    return datum._memo[key]


def dominant_character(datum: CartanDatum, highest: Weight) -> dict:
    """Multiplicities of the dominant weights of the irreducible, by the
    Freudenthal recursion over integer root-coordinates.

    The weight system is laid out in a flat mixed-radix array (padded so a
    string step is one index subtraction), and the string sums telescope
    along each positive root, so the cost is linear in the system's size.
    The total mass, recovered through orbit-stabilizer counting, is checked
    against the Weyl dimension formula before returning.
    """
    top = _check_dominant_integral(datum, highest)
    cache_key = ("dominant_char", top)
    if cache_key in datum._memo:
        return datum._memo[cache_key]

    n = datum.rank
    _, dd, diag_m, b, roots, u = _character_scales(datum)
    cartan = datum.cartan_matrix
    t = tuple(int(x) for x in top)
    rng_n = range(n)

    # dominant candidates: c >= 0 inside the simplex cut out by rho-check,
    # with the fundamental coordinates maintained incrementally
    height_cap = int(sum(ti * ui for ti, ui in zip(t, u)))
    cols = tuple(tuple(cartan[j][i] for j in rng_n) for i in rng_n)
    dominants = []
    c_work = [0] * n
    f_work = list(t)

    def scan(i, remaining):
        if i == n:
            if min(f_work) >= 0:
                dominants.append((tuple(c_work), tuple(f_work)))
            return
        col = cols[i]
        for c in range(remaining + 1):
            c_work[i] = c
            scan(i + 1, remaining - c)
            for j in rng_n:
                f_work[j] -= col[j]
        for j in rng_n:  # undo all subtractions of this level
            f_work[j] += (remaining + 1) * col[j]
        c_work[i] = 0

    scan(0, height_cap)
    dominants.sort(key=lambda cf: (sum(cf[0]), cf[0]))
    depths = [sum(c) for c, _ in dominants]

    # flat mixed-radix layout over the padded coordinate box; padding by the
    # largest root displacement makes "subtract a positive root" a single
    # index subtraction with no digit borrowing
    lowest = tuple(-x for x in linear_dominant_rep(
        datum, tuple(-Q(x) for x in t)))
    caps = [int(x) for x in datum.root_coords(
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

    def index_of(c) -> int:
        return base + sum(c[i] * strides[i] for i in rng_n)

    # the full weight system as orbits of the dominant weights; each node
    # stores (fundamental coords, index of its dominant source), bucketed
    # by depth as it appears (reflections only deepen).  A reflection moves
    # the flat index by f_i * stride_i, so no coordinate tuples are built.
    node_f: list = [None] * box
    node_src = [0] * box
    buckets: list[list] = [[] for _ in range(sum(caps) + 1)]
    indices = [index_of(c) for c, _ in dominants]
    for (c0, f0), i0, d0 in zip(dominants, indices, depths):
        if node_f[i0] is not None:
            continue
        node_f[i0] = f0
        node_src[i0] = i0
        buckets[d0].append((i0, f0))
        frontier = [(i0, f0, d0)]
        while frontier:
            nxt = []
            for idx, f, depth in frontier:
                for i in rng_n:
                    fi = f[i]
                    if fi == 0:
                        continue
                    i2 = idx + fi * strides[i]
                    if node_f[i2] is not None:
                        continue
                    col = cols[i]
                    f2 = tuple(f[j] - fi * col[j] for j in rng_n)
                    node_f[i2] = f2
                    node_src[i2] = i0
                    d2 = depth + fi
                    buckets[d2].append((i2, f2))
                    nxt.append((i2, f2, d2))
            frontier = nxt

    # (nu + rho, nu + rho) scaled by D * M as a quadratic form in the
    # shifted fundamental coordinates
    kk = tuple(tuple(dd[i] * b[i][j] for j in rng_n) for i in rng_n)

    def norm_dm(f):
        total = 0
        for i in rng_n:
            row = kk[i]
            gi = f[i] + 1
            acc = 0
            for j in rng_n:
                acc += row[j] * (f[j] + 1)
            total += gi * acc
        return total

    top_norm = norm_dm(t)
    mult = [0] * box
    root_data = []
    for disp, w_row in roots:
        shift = sum(disp[i] * strides[i] for i in rng_n)
        root_data.append((shift, w_row, [0] * box))
    two_m = 2 * diag_m
    # one pass in depth order; the string entry at a node never involves its
    # own multiplicity, so it doubles as the Freudenthal accumulator
    for bucket in buckets:
        for idx, f in bucket:
            src = node_src[idx]
            acc = 0
            for shift, w_row, table in root_data:
                prev = idx - shift
                pf = node_f[prev]
                if pf is None:
                    continue
                s = mult[prev] * sum(map(int.__mul__, pf, w_row)) + \
                    table[prev]
                if s:
                    table[idx] = s
                    acc += s
            if src != idx:
                m = mult[src]
            elif idx == base:  # c = 0: the highest weight itself
                m = 1
            else:
                denom = top_norm - norm_dm(f)
                num = two_m * acc
                if denom <= 0 or num % denom:
                    raise AssertionError(
                        "Freudenthal recursion is inconsistent")
                m = num // denom
            mult[idx] = m

    group_order = weyl_order(datum)
    mass = 0
    out = {}
    orbit_size: dict[int, int] = {}
    for (c, f), idx in zip(dominants, indices):
        m = mult[idx]
        mask = 0
        for i in rng_n:
            if f[i] == 0:
                mask |= 1 << i
        size = orbit_size.get(mask)
        if size is None:
            zeros = frozenset(i for i in rng_n if f[i] == 0)
            size = group_order // _parabolic_order_of_zeros(datum, zeros)
            orbit_size[mask] = size
        mass += m * size
        out[tuple(Q(x) for x in f)] = m
    if mass != weyl_dimension(datum, top):
        raise AssertionError("Freudenthal mass disagrees with the Weyl "
                             "dimension formula")
    datum._memo[cache_key] = out
    return out


def irrep_weight_multiset(datum: CartanDatum, highest: Weight) -> WeightMultiset:
    """All weights of the irreducible (with multiplicity): the dominant
    character expanded over the linear orbits.  Cached on the datum."""
    top = _check_dominant_integral(datum, highest)
    cache_key = ("irrep", top)
    if cache_key in datum._memo:
        return datum._memo[cache_key]
    out: WeightMultiset = {}
    for v, m in dominant_character(datum, top).items():
        for x in linear_orbit(datum, v):
            out[x] = m
    if sum(out.values()) != weyl_dimension(datum, top):
        raise AssertionError("orbit expansion lost mass")
    datum._memo[cache_key] = out
    return out


def zero_weight_multiplicity(datum: CartanDatum, highest: Weight) -> int:
    """Multiplicity of the zero weight; the predicted free rank of the
    invariant Hom space into the enveloping algebra."""
    return irrep_weight_multiset(datum, highest).get(datum.zero_weight(), 0)


def dot_orbit(datum: CartanDatum, x: Weight,
              bound: int = DEFAULT_GROUP_BOUND) -> frozenset:
    """The full dot orbit of x, cached on the datum."""
    x = tuple(Q(c) for c in x)
    key = ("dot_orbit", x)
    if key not in datum._memo:
        datum._memo[key] = frozenset(
            dot_action(datum, w, x) for w in generate_group(datum, bound))
    return datum._memo[key]


def linked(datum: CartanDatum, x: Weight, y: Weight,
           bound: int = DEFAULT_GROUP_BOUND) -> bool:
    """True iff x and y lie in one dot orbit of the full Weyl group."""
    return tuple(Q(c) for c in y) in dot_orbit(datum, x, bound)


@dataclass(frozen=True, eq=False)
class VermaCombination:
    """A formal integer combination of Verma symbols, keyed by exact
    highest weight (which already determines the stabilizer coset)."""

    datum: CartanDatum = field(repr=False)
    terms: dict = field(default_factory=dict)  # Weight -> int

    def items(self):
        return sorted(self.terms.items())

    def __eq__(self, other) -> bool:
        return isinstance(other, VermaCombination) and \
            self.terms == other.terms

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{m}*D({tuple(str(c) for c in w)})"
                          for w, m in self.items())


def translate_verma(datum: CartanDatum, lam: Weight, mu: Weight,
                    w: WeylElement,
                    bound: int = DEFAULT_GROUP_BOUND) -> VermaCombination:
    """Image of the Verma symbol D(w . lam) under translation to the orbit
    of mu, at the level of Verma classes.

    Tensors by the character of L(mu - lam) and keeps the shifts landing in
    the dot orbit of mu.  When the dot stabilizer of lam is contained in the
    one of mu, the outcome is asserted to be exactly 1 * D(w . mu), the
    selected shift is asserted to be w(mu - lam), and that extremal weight is
    asserted to have multiplicity one.
    """
    lam = tuple(Q(c) for c in lam)
    mu = tuple(Q(c) for c in mu)
    for name, x in (("lam", lam), ("mu", mu)):
        if not classify_weight(datum, x).dominant:
            raise ValueError(f"{name} = {x} is not dominant")
    diff = _wsub(mu, lam)
    if any(c.denominator != 1 for c in diff):
        raise ValueError("mu - lam is not a lattice weight; the orbits are "
                         "not compatible")
    dot_diff = _wsub(dot_action(datum, w, lam), lam)
    if any(c.denominator != 1 for c in datum.root_coords(dot_diff)):
        raise ValueError("w is not in the integral Weyl group of lam")

    highest = linear_dominant_rep(datum, diff)
    charset = irrep_weight_multiset(datum, highest)
    w_lam = dot_action(datum, w, lam)
    target_orbit = dot_orbit(datum, mu, bound)
    terms: dict[Weight, int] = {}
    selected: list[Weight] = []
    for nu, m in sorted(charset.items()):
        cand = _wadd(w_lam, nu)
        if cand in target_orbit:
            terms[cand] = terms.get(cand, 0) + m
            selected.append(nu)

    out = VermaCombination(datum, terms)
    stab_lam = dot_stabilizer(datum, lam).elements
    stab_mu = dot_stabilizer(datum, mu).elements
    if stab_lam <= stab_mu:
        expected = {dot_action(datum, w, mu): 1}
        extremal = w.act(diff)
        if terms != expected or selected != [extremal] \
                or charset[extremal] != 1:
            raise AssertionError(
                "translation identity failed: expected exactly "
                f"D({dot_action(datum, w, mu)}), got {out}")
    return out

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
from math import lcm

from .coxeter import parabolic_order
from .integral import _wadd, _wsub
from .rootsys import CartanDatum, GroupBoundExceeded, Weight, WeylElement, \
    _check_rank, _dominant_dot_key, _in_root_lattice, _mat_nums, \
    _numerators, _reflect, _rho_shifted, _to_dominant, _weight, \
    classify_weight, dot_action, weyl_order

WeightMultiset = dict  # Weight -> positive multiplicity


def linear_dominant_rep(datum: CartanDatum, v: Weight) -> Weight:
    """The dominant point of the linear W-orbit of v."""
    _check_rank(datum, v)
    nums, den = _numerators(v)
    return _weight(_to_dominant(datum.cartan_matrix, nums), den)


def linear_orbit(datum: CartanDatum, v: Weight) -> set[Weight]:
    """The linear W-orbit of v, closed under the simple reflections in
    integer numerators."""
    _check_rank(datum, v)
    nums, den = _numerators(v)
    cartan = datum.cartan_matrix
    seen = {tuple(nums)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for i in range(len(x)):
                if x[i]:  # s_i fixes x when x_i = 0
                    y = tuple(_reflect(cartan, x, i))
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
        frontier = nxt
    return {_weight(x, den) for x in seen}


def _check_dominant_integral(datum: CartanDatum, highest: Weight) -> Weight:
    _check_rank(datum, highest)
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
    """Integer data for the character recursion, cached.

    All weights of a highest-weight module live in top + (root lattice), so
    a weight is an integer vector c with nu = top - sum c_i alpha_i.  The
    invariant form is cleared to integers by D, the common denominator of
    the symmetrizer: (nu, alpha_i) = d_i <nu, alpha_i-check> with
    D d_i = dd[i].
    """
    key = "char_scales"
    if key in datum._memo:
        return datum._memo[key]
    n = datum.rank
    d_den = lcm(*(d.denominator for d in datum.symmetrizer))
    dd = tuple(int(d * d_den) for d in datum.symmetrizer)
    # per positive root: displacement in c-space and the D-scaled pairing row
    roots = tuple(
        (alpha.simple_coords,
         tuple(dd[i] * alpha.simple_coords[i] for i in range(n)))
        for alpha in datum.positive_roots)
    out = (dd, roots)
    datum._memo[key] = out
    return out


def dominant_character(datum: CartanDatum, highest: Weight) -> dict:
    """Multiplicities of the dominant weights of the irreducible, by the
    Freudenthal recursion over integer root-coordinates.

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
    dd, roots = _character_scales(datum)
    cartan = datum.cartan_matrix
    t = tuple(int(x) for x in top)
    rng_n = range(n)
    cols = tuple(tuple(cartan[j][i] for j in rng_n) for i in rng_n)

    # flat mixed-radix layout over the padded coordinate box; padding by the
    # largest root displacement makes "add a positive root" a single index
    # subtraction with no digit borrowing
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
                size = group_order // parabolic_order(
                    datum, (i for i in rng_n if zeros[i]))
                orbit_size[zeros] = size
            mass += m * size
            out[f] = m
    if mass != weyl_dimension(datum, top):
        raise AssertionError("Freudenthal mass disagrees with the Weyl "
                             "dimension formula")
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


def linked(datum: CartanDatum, x: Weight, y: Weight) -> bool:
    """True iff x and y lie in one dot orbit of the full Weyl group.

    Every dot orbit meets the closed dominant chamber of the dot action in
    exactly one point, so the two dominant representatives decide it.
    """
    return _dominant_dot_key(datum, tuple(map(Q, x))) == \
        _dominant_dot_key(datum, tuple(map(Q, y)))


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


def _invariant_form(datum: CartanDatum) -> tuple[tuple[int, ...], ...]:
    """Gram matrix of the W-invariant integer form
    (x, y) = sum over positive roots of <x, alpha^vee> <y, alpha^vee> on
    fundamental-weight numerators, cached on the datum.  W permutes the
    roots up to sign, so it is invariant; on each simple factor it is a
    positive multiple of the symmetrized form."""
    out = datum._memo.get("invariant_form")
    if out is None:
        rows = datum.coroot_rows[:datum.num_positive]
        n = datum.rank
        out = datum._memo["invariant_form"] = tuple(
            tuple(sum(r[i] * r[j] for r in rows) for j in range(n))
            for i in range(n))
    return out


def _quadratic(form, x) -> int:
    """(x, x) for the Gram matrix form."""
    return sum(a * sum(map(int.__mul__, row, x)) for a, row in zip(x, form))


def translate_verma(datum: CartanDatum, lam: Weight, mu: Weight,
                    w: WeylElement) -> VermaCombination:
    """Image of the Verma symbol D(w . lam) under translation to the orbit
    of mu, at the level of Verma classes.

    Tensors by the character of L(mu - lam) and keeps the shifts landing in
    the dot orbit of mu: those whose dominant representative is mu's.  When
    the dot stabilizer of lam is contained in the one of mu, the outcome is
    asserted to be exactly 1 * D(w . mu), the selected shift is asserted to
    be w(mu - lam), and that extremal weight is asserted to have
    multiplicity one.  The stabilizers are compared by their walls: a point
    stabilizer of a reflection group is generated by the reflections it
    contains (Steinberg), so Stab(lam) <= Stab(mu) iff every positive root
    singular for lam is singular for mu.
    """
    lam = tuple(Q(c) for c in lam)
    mu = tuple(Q(c) for c in mu)
    walls = []
    for name, x in (("lam", lam), ("mu", mu)):
        cls = classify_weight(datum, x)
        if not cls.dominant:
            raise ValueError(f"{name} = {x} is not dominant")
        walls.append({root.index for root in cls.singular_roots})
    diff = _wsub(mu, lam)
    if any(c.denominator != 1 for c in diff):
        raise ValueError("mu - lam is not a lattice weight; the orbits are "
                         "not compatible")
    # numerators over lam's denominator, which mu shares since mu - lam is
    # a lattice weight: w . lam - lam = w(lam + rho) - (lam + rho)
    shifted, den = _rho_shifted(lam)
    start = _mat_nums(w.weight_matrix, shifted)  # w . lam + rho
    if not _in_root_lattice(
            datum, [a - b for a, b in zip(start, shifted)], den):
        raise ValueError("w is not in the integral Weyl group of lam")
    w_lam = _weight([x - den for x in start], den)

    highest = linear_dominant_rep(datum, diff)
    charset = irrep_weight_multiset(datum, highest)
    # candidates compare as numerators of cand + rho; one off mu's orbit
    # by its invariant norm needs no walk to the dominant chamber
    target, _ = _dominant_dot_key(datum, mu)
    form = _invariant_form(datum)
    norm = _quadratic(form, target)
    cartan = datum.cartan_matrix
    terms: dict[Weight, int] = {}
    selected: list[Weight] = []
    for nu, m in charset.items():
        cand = [x + den * c.numerator for x, c in zip(start, nu)]
        if _quadratic(form, cand) == norm and \
                tuple(_to_dominant(cartan, cand)) == target:
            terms[_wadd(w_lam, nu)] = m
            selected.append(nu)

    out = VermaCombination(datum, terms)
    if walls[0] <= walls[1]:
        expected = {dot_action(datum, w, mu): 1}
        extremal = w.act(diff)
        if terms != expected or selected != [extremal] \
                or charset[extremal] != 1:
            raise AssertionError(
                "translation identity failed: expected exactly "
                f"D({dot_action(datum, w, mu)}), got {out}")
    return out

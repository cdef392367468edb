"""Grothendieck-level category O data.

Finite-dimensional characters by the Freudenthal recursion on the dominant
weights alone (exact integers, cross-checked against the Weyl dimension
formula), dot-orbit linkage, and the translation identity on Verma symbols:
tensoring a Verma class by the character of the simple module L(mu - lam)
and projecting to the target orbit.

Only the formal consequences of highest-weight combinatorics live here; no
module category is materialized.  The deformed variant of the translation
identity has the same combinatorial content, so the one check here certifies
both readings.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction as Q
from math import lcm

from .integral import _wsub
from .rootsys import CartanDatum, GroupBoundExceeded, Weight, WeylElement, \
    _check_rank, _dominant_dot_key, _in_root_lattice, _is_lattice, \
    _mat_nums, _numerators, _orbit, _rho_shifted, _to_dominant, _weight, \
    classify_weight, dot_action, parabolic_order, weyl_order

WeightMultiset = dict  # Weight -> positive multiplicity


def linear_dominant_rep(datum: CartanDatum, v: Weight) -> Weight:
    """The dominant point of the linear W-orbit of v."""
    _check_rank(datum, v)
    nums, den = _numerators(v)
    return _weight(_to_dominant(datum.cartan_matrix, nums), den)


def linear_orbit(datum: CartanDatum, v: Weight) -> set[Weight]:
    """The linear W-orbit of v: ``_orbit`` on its integer numerators."""
    _check_rank(datum, v)
    nums, den = _numerators(v)
    return {_weight(x, den)
            for x in _orbit(datum.cartan_matrix, nums, range(datum.rank))}


def _check_dominant_integral(datum: CartanDatum, highest: Weight) -> Weight:
    _check_rank(datum, highest)
    w = tuple(Q(c) for c in highest)
    if not _is_lattice(w):
        raise ValueError(f"highest weight {w} is not integral")
    if any(c < 0 for c in w):
        raise ValueError(f"highest weight {w} is not dominant")
    return w


def weyl_dimension(datum: CartanDatum, highest: Weight) -> int:
    """dim of the irreducible with the given dominant integral highest
    weight, as the exact product formula."""
    w = _check_dominant_integral(datum, highest)
    return _weyl_dimension(datum, [int(x) for x in w])


def _weyl_dimension(datum: CartanDatum, t) -> int:
    """prod <t + rho, alpha^vee> / prod <rho, alpha^vee> over the positive
    coroots, on integer fundamental coordinates."""
    num = den = 1
    for row in datum.coroot_rows[:datum.num_positive]:
        height = sum(row)  # <rho, alpha^vee>
        num *= sum(map(int.__mul__, row, t)) + height
        den *= height
    if num % den:
        raise AssertionError("Weyl dimension formula is not integral")
    return num // den


@dataclass(frozen=True, eq=False)
class _CharacterTable:
    """Integer data for the character recursion, one per datum.

    The invariant form is cleared to integers by D, the common denominator
    of the symmetrizer: (alpha_i, alpha_i) = 2 d_i, so for nu in fundamental
    coordinates and alpha with simple coordinates c, D (nu, alpha) is nu
    times the pairing row (D d_i c_i)_i.
    """

    # per root, positives first as in datum.roots: (fundamental
    # coordinates, pairing row)
    roots: tuple
    # per positive root: (fundamental coordinates, pairing row,
    # D (2 rho - alpha, alpha), height)
    positive: tuple
    perms: tuple  # the simple reflections' root permutations
    offsets: tuple  # the largest simple coordinate of a positive root


def _character_table(datum: CartanDatum) -> _CharacterTable:
    out = datum._memo.get("character_table")
    if out is None:
        d_den = lcm(*(d.denominator for d in datum.symmetrizer))
        dd = tuple(int(d * d_den) for d in datum.symmetrizer)
        roots = tuple(
            (tuple(int(x) for x in alpha.as_weight),
             tuple(map(int.__mul__, dd, alpha.simple_coords)))
            for alpha in datum.roots)
        positive = tuple(
            (f, row, sum(r * (2 - x) for r, x in zip(row, f)), alpha.height)
            for (f, row), alpha in zip(roots, datum.positive_roots))
        out = datum._memo["character_table"] = _CharacterTable(
            roots, positive,
            tuple(s.root_perm for s in datum.simple_reflections),
            tuple(map(max, zip(*(a.simple_coords
                                 for a in datum.positive_roots)))))
    return out


def dominant_character(datum: CartanDatum, highest: Weight) -> dict:
    """Multiplicities of the dominant weights of the irreducible, by the
    Freudenthal recursion run on the dominant weights alone.

    The dominant weights are found from the top by subtracting positive
    roots: every dominant weight below it is reached that way through
    dominant weights (Stembridge), and they are visited in buckets by
    depth, the height of top - mu.  Freudenthal's formula at mu needs, per
    positive root alpha, the string sum S(mu, alpha) = T(mu + alpha, alpha),
    where T(nu, beta) = m(nu) (nu, beta) + T(nu + beta, beta) and T is 0 at
    a non-weight, where the string ends.  When mu + alpha is dominant, its
    own visit left S(mu, alpha) for mu.  Otherwise mu + alpha is walked to
    its dominant representative d by simple reflections that carry alpha
    along to beta; (nu, alpha) = (w nu, w alpha) and m is W-invariant, so
    T(mu + alpha, alpha) = T(d, beta), followed up the string and memoized
    per call (Moody-Patera).  The recursion runs in integers, and the
    result is keyed by integer tuples of fundamental coordinates, ordered
    by depth and then by the root coordinates of top - mu; they compare and
    hash equal to the Fraction weights used elsewhere, so either kind looks
    a weight up.  The total mass, recovered through orbit-stabilizer
    counting, is checked against the Weyl dimension formula before
    returning.  Nothing is kept past the call.
    """
    top = _check_dominant_integral(datum, highest)
    table = _character_table(datum)
    roots, positive, perms = table.roots, table.positive, table.perms
    t = tuple(int(x) for x in top)
    rng_n = range(datum.rank)

    # the weight system spans top down to the lowest weight w0(top); its
    # box of root coordinates, padded by the largest root coordinates, is
    # the supported range
    lowest = [-x for x in _to_dominant(datum.cartan_matrix, [-x for x in t])]
    inv_rows, det = datum.inverse_cartan
    spread = [a - b for a, b in zip(t, lowest)]
    box = 1
    for cap, off in zip(_mat_nums(inv_rows, spread), table.offsets):
        box *= cap // det + off + 1
    if box > 50_000_000:
        raise GroupBoundExceeded(
            f"weight system box of size {box} is out of supported range")

    cols = tuple(roots[i][0] for i in rng_n)  # alpha_i, fundamental coords
    ups = tuple(f for f, *_ in positive)
    no_sums = (0,) * len(positive)
    # all D-scaled: below[a][nu] = S(nu, alpha_a), left by the dominant
    # weight nu + alpha_a until nu's visit; tails[b][d] = T(d, beta_b) for
    # the dominant weights d that a walk reached
    below = [{} for _ in positive]
    tails = [{} for _ in roots]
    # every dominant weight found, with gap(mu) = |top + rho|^2 -
    # |mu + rho|^2, D-scaled; the ones in mult are visited.  A step down
    # alpha adds 2 (mu, alpha) + (2 rho - alpha, alpha) to the gap and
    # ht(alpha) to the depth.
    gaps = {t: 0}
    mult: dict[tuple, int] = {}
    buckets = [[t]]
    for depth, bucket in enumerate(buckets):
        if len(bucket) > 1:  # by the root coordinates of top - mu, times det
            bucket.sort(key=lambda mu: _mat_nums(
                inv_rows, list(map(int.__sub__, t, mu))))
        for mu in bucket:
            if depth:
                sums = []
                for a, f in enumerate(ups):
                    tail = below[a].pop(mu, None)
                    if tail is not None:
                        sums.append(tail)
                        continue
                    nu = tuple(map(int.__add__, mu, f))
                    if min(nu) >= 0:  # dominant, so not a weight
                        sums.append(0)
                        continue
                    b = a
                    chain = []
                    while True:
                        # nu, carried with b, to the dominant chamber
                        while True:
                            for i, x in enumerate(nu):
                                if x < 0:
                                    break
                            else:
                                break
                            nu = [y - x * z for y, z in zip(nu, cols[i])]
                            b = perms[i][b]
                        d = tuple(nu)
                        tail = tails[b].get(d)
                        if tail is not None:
                            break
                        md = mult.get(d)
                        if md is None:  # not a weight: the string ends
                            tail = 0
                            break
                        chain.append((d, b, md))
                        nu = tuple(map(int.__add__, d, roots[b][0]))
                    for d, b, md in reversed(chain):
                        tail += md * sum(map(int.__mul__, d, roots[b][1]))
                        tails[b][d] = tail
                    sums.append(tail)
                acc = sum(sums)
                gap = gaps[mu]
                if gap <= 0 or 2 * acc % gap:
                    raise AssertionError(
                        "Freudenthal recursion is inconsistent")
                m = 2 * acc // gap
            else:  # the highest weight itself
                m = 1
                sums = no_sums
            mult[mu] = m
            gap = gaps[mu]
            for (f, row, step, height), s, memo in zip(
                    positive, sums, below):
                nu = tuple(map(int.__sub__, mu, f))
                if min(nu) < 0:
                    continue
                pair = sum(map(int.__mul__, mu, row))
                memo[nu] = m * pair + s
                if nu not in gaps:
                    gaps[nu] = gap + 2 * pair + step
                    while len(buckets) <= depth + height:
                        buckets.append([])
                    buckets[depth + height].append(nu)

    group_order = weyl_order(datum)
    mass = 0
    # |W| / |W_J| per set J of zero coordinates, W_J the stabilizer
    orbit_size = datum._memo.setdefault("orbit_size", {})
    for mu, m in mult.items():
        if 0 not in mu:  # regular: a free orbit
            mass += m * group_order
            continue
        zeros = tuple(i for i in rng_n if not mu[i])
        size = orbit_size.get(zeros)
        if size is None:
            size = orbit_size[zeros] = \
                group_order // parabolic_order(datum.cartan_matrix, zeros)
        mass += m * size
    if mass != _weyl_dimension(datum, t):
        raise AssertionError("Freudenthal mass disagrees with the Weyl "
                             "dimension formula")
    return mult


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
    of mu, at the level of Verma classes: ``verma_translator`` for one w."""
    return verma_translator(datum, lam, mu)(w)


def verma_translator(datum: CartanDatum, lam: Weight, mu: Weight
                     ) -> Callable[[WeylElement], VermaCombination]:
    """Translation of Verma symbols D(w . lam) to the orbit of mu, as a
    function of w; what depends on (lam, mu) alone is done once, here.

    Tensors by the character of L(mu - lam) and keeps the shifts landing in
    the dot orbit of mu: those whose dominant representative is mu's.  When
    the dot stabilizer of lam is contained in the one of mu, the outcome is
    asserted to be exactly 1 * D(w . mu), the selected shift is asserted to
    be w(mu - lam), and that extremal weight is asserted to have
    multiplicity one.  The stabilizers are compared by their walls: a point
    stabilizer of a reflection group is generated by the reflections it
    contains (Steinberg), so Stab(lam) <= Stab(mu) iff every positive root
    singular for lam is singular for mu.

    ValueError is raised here when lam or mu is not dominant or mu - lam
    is not a lattice weight, and by the returned function when w is not in
    the integral Weyl group of lam.
    """
    lam = tuple(Q(c) for c in lam)
    mu = tuple(Q(c) for c in mu)
    walls = []
    for name, x in (("lam", lam), ("mu", mu)):
        cls = classify_weight(datum, x)
        if not cls.dominant:
            raise ValueError(f"{name} = {x} is not dominant")
        walls.append({root.index for root in cls.singular_roots})
    nested = walls[0] <= walls[1]
    diff = _wsub(mu, lam)
    if not _is_lattice(diff):
        raise ValueError("mu - lam is not a lattice weight; the orbits are "
                         "not compatible")
    # numerators over lam's denominator, which mu shares since mu - lam is
    # a lattice weight: w . lam - lam = w(lam + rho) - (lam + rho)
    shifted, den = _rho_shifted(lam)
    step = [den * c.numerator for c in diff]  # mu + rho = lam + rho + step
    mu_shifted = list(map(int.__add__, shifted, step))
    charset = irrep_weight_multiset(datum, linear_dominant_rep(datum, diff))
    # candidates compare as numerators of cand + rho.  With start =
    # w(lam + rho) and d = den nu, W-invariance of the form gives
    # (start + d, start + d) = (lam + rho, lam + rho) + 2 (start, G d)
    # + (d, d), so a candidate is on mu's norm iff 2 (start, G d) equals
    # the gap below, one dot product per weight; only those are walked to
    # the dominant chamber
    target, _ = _dominant_dot_key(datum, mu)
    form = _invariant_form(datum)
    base = _quadratic(form, target) - _quadratic(form, shifted)
    shifts = []
    for nu, m in charset.items():
        d = [den * c.numerator for c in nu]
        shifts.append((m, d, _mat_nums(form, d), base - _quadratic(form, d)))
    cartan = datum.cartan_matrix

    def translate(w: WeylElement) -> VermaCombination:
        matrix = w.weight_matrix
        start = _mat_nums(matrix, shifted)  # w . lam + rho
        if not _in_root_lattice(
                datum, [a - b for a, b in zip(start, shifted)], den):
            raise ValueError("w is not in the integral Weyl group of lam")
        terms: dict[Weight, int] = {}
        selected = []  # (cand, d, m) per kept shift
        for m, d, gd, gap in shifts:
            if 2 * sum(map(int.__mul__, start, gd)) == gap:
                cand = list(map(int.__add__, start, d))
                if tuple(_to_dominant(cartan, cand)) == target:
                    terms[_weight([x - den for x in cand], den)] = m
                    selected.append((cand, d, m))

        out = VermaCombination(datum, terms)
        # nested walls: the one term is w . mu with multiplicity 1, from the
        # extremal shift w(mu - lam), on numerators
        if nested and selected != [(_mat_nums(matrix, mu_shifted),
                                    _mat_nums(matrix, step), 1)]:
            raise AssertionError(
                "translation identity failed: expected exactly "
                f"D({dot_action(datum, w, mu)}), got {out}")
        return out

    return translate

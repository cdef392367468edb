"""The Hecke algebra of a block's integral Coxeter system, extended by the
chamber subgroup.

Conventions: the standard basis satisfies H_s^2 = (v^{-1} - v) H_s + 1 and
the Kazhdan-Lusztig generator is b_s = H_s + v, so b_s^2 = (v + v^{-1}) b_s
and b_s is self-dual.  Elements of the extended algebra are finitely
supported maps (c, x) -> Laurent polynomial with c a chamber element and x
in the integral Weyl group, multiplied by

    (c, x) (c', y) = (c c', H_{c'^{-1} x c'} H_y),

so that conjugation by a group-like element permutes the KL generators.

Decomposition into the twisted KL basis {(c, e) b_x} is exact; the exposed
multiplicities are the values at v = 1 (the completed, ungraded contract),
with the graded coefficients available separately.

Internally the integral Weyl group is numbered 0..n-1 in ``int_elements()``
order, and products, KL expansions and decompositions run on those indices
with left multiplication read from integer tables; WeylElement and
LaurentPoly appear only at the API edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter

from .integral import IntegralDatum
from .rootsys import WeylElement
from .soergel import BimoduleWord, BsLetter


class LaurentPoly:
    """An integer Laurent polynomial in one variable, immutable."""

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        c = {int(e): int(x) for e, x in (coeffs or {}).items() if x}
        object.__setattr__(self, "_c", c)

    def __setattr__(self, *a):
        raise AttributeError("LaurentPoly is immutable")

    def items(self):
        return sorted(self._c.items())

    def coeff(self, e: int) -> int:
        return self._c.get(e, 0)

    @property
    def is_zero(self) -> bool:
        return not self._c

    def min_exp(self) -> int:
        return min(self._c) if self._c else 0

    def max_exp(self) -> int:
        return max(self._c) if self._c else 0

    def __add__(self, other):
        out = dict(self._c)
        for e, x in other._c.items():
            out[e] = out.get(e, 0) + x
        return LaurentPoly(out)

    def __neg__(self):
        return LaurentPoly({e: -x for e, x in self._c.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly({e: other * x for e, x in self._c.items()})
        out: dict[int, int] = {}
        for e1, x1 in self._c.items():
            for e2, x2 in other._c.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + x1 * x2
        return LaurentPoly(out)

    __rmul__ = __mul__

    def shift(self, k: int) -> "LaurentPoly":
        return LaurentPoly({e + k: x for e, x in self._c.items()})

    def bar(self) -> "LaurentPoly":
        """The involution v -> v^{-1}."""
        return LaurentPoly({-e: x for e, x in self._c.items()})

    def at_one(self) -> int:
        return sum(self._c.values())

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self._c == other._c

    def __hash__(self):
        return hash(tuple(self.items()))

    def format(self, var: str = "v") -> str:
        if not self._c:
            return "0"
        parts = []
        for e, x in self.items():
            if e == 0:
                parts.append(f"{x}")
            else:
                head = "" if x == 1 else "-" if x == -1 else f"{x}*"
                parts.append(f"{head}{var}" + (f"^{e}" if e != 1 else ""))
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"LaurentPoly({self.format()})"


ZERO = LaurentPoly()
ONE = LaurentPoly({0: 1})
V = LaurentPoly({1: 1})
V_INV = LaurentPoly({-1: 1})


@dataclass(frozen=True, eq=False)
class HeckeElement:
    """A finitely supported map (c, x) -> LaurentPoly."""

    idat: IntegralDatum = field(repr=False)
    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "terms", {
            k: p for k, p in self.terms.items() if not p.is_zero})

    def __eq__(self, other):
        return isinstance(other, HeckeElement) and self.terms == other.terms

    def coeff(self, c: WeylElement, x: WeylElement) -> LaurentPoly:
        return self.terms.get((c, x), ZERO)

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        out = dict(self.terms)
        for k, p in other.terms.items():
            out[k] = out.get(k, ZERO) + p
        return HeckeElement(self.idat, out)

    def scale(self, p: LaurentPoly) -> "HeckeElement":
        return HeckeElement(self.idat,
                            {k: q * p for k, q in self.terms.items()})

    def __mul__(self, other: "HeckeElement") -> "HeckeElement":
        idat = self.idat
        t = _tables(idat)
        theirs = _by_twist(t, other.terms)
        out: dict = {}
        for c1, xs in _by_twist(t, self.terms).items():
            for c2, ys in theirs.items():
                # c2^{-1} s_j c2 is again simple, so conjugating x by c2
                # renames the letters of its reduced word
                ci = c2.inverse()
                rename = [idat.conjugate_simple(ci, j) - 1
                          for j in range(1, idat.rank + 1)]
                acc = out.setdefault(c1 * c2, {})
                for x, p in xs.items():
                    word = [rename[j] for j in t.word(x)]
                    for y, q in ys.items():
                        pq: dict = {}
                        _add_product(pq, p, q)
                        for z, r in _h_product(t, word, y).items():
                            _add_product(acc.setdefault(z, {}), pq, r)
        return HeckeElement(self.idat, {
            (c, t.elements[z]): LaurentPoly(p)
            for c, acc in out.items() for z, p in acc.items()})


def identity_element(idat: IntegralDatum) -> HeckeElement:
    e = idat.datum.identity
    return HeckeElement(idat, {(e, e): ONE})


def standard_basis(idat: IntegralDatum, c: WeylElement,
                   x: WeylElement) -> HeckeElement:
    _require_members(idat, c, x)
    return HeckeElement(idat, {(c, x): ONE})


def group_like(idat: IntegralDatum, c: WeylElement) -> HeckeElement:
    if c not in idat.chamber.elements:
        raise ValueError("twist is not a chamber element")
    return HeckeElement(idat, {(c, idat.datum.identity): ONE})


def kl_generator(idat: IntegralDatum, j: int) -> HeckeElement:
    """b_s = H_s + v H_e for the j-th integral simple reflection."""
    if not 1 <= j <= idat.rank:
        raise ValueError(f"integral simple index {j} out of range")
    e = idat.datum.identity
    s = idat.simple_reflections[j - 1]
    return HeckeElement(idat, {(e, s): ONE, (e, e): V})


def _require_members(idat: IntegralDatum, c: WeylElement, x: WeylElement):
    if c not in idat.chamber.elements:
        raise ValueError("first label is not a chamber element")
    if x not in idat.w_int.elements:
        raise ValueError("second label is not in the integral Weyl group")


# ---------------------------------------------------------------------------
# the integral Weyl group as integer tables
# ---------------------------------------------------------------------------

class _Tables:
    """W_int numbered 0..n-1 in ``int_elements()`` order, so the identity is
    0 and lengths never decrease along the numbering.  ``left[j][x]`` is the
    index of s_{j+1} x, ``descent[x]`` the smallest j with s_{j+1} x < x
    (-1 for the identity), so following descents spells the lex-minimal
    reduced word."""

    def __init__(self, idat: IntegralDatum):
        self.elements = idat.int_elements()
        self.index = {w.root_perm: i for i, w in enumerate(self.elements)}
        self.length = [idat.int_length(w) for w in self.elements]
        self.left = [[self.index[tuple(map(s.root_perm.__getitem__,
                                           w.root_perm))]
                      for w in self.elements]
                     for s in idat.simple_reflections]
        self.descent = [next((j for j, row in enumerate(self.left)
                              if self.length[row[x]] < self.length[x]), -1)
                        for x in range(len(self.elements))]

    def of(self, w: WeylElement) -> int:
        hit = self.index.get(w.root_perm)
        if hit is None:
            raise ValueError("element outside the integral Weyl group")
        return hit

    def word(self, x: int) -> list[int]:
        """Lex-minimal reduced word of element x, as 0-based letters."""
        out = []
        while x:
            j = self.descent[x]
            out.append(j)
            x = self.left[j][x]
        return out


def _tables(idat: IntegralDatum) -> _Tables:
    if "hecke_tables" not in idat._memo:
        idat._memo["hecke_tables"] = _Tables(idat)
    return idat._memo["hecke_tables"]


# Inside products and decompositions a polynomial is a dict exponent ->
# coefficient (LaurentPoly's own storage, read but never mutated), and a
# combination of standard basis elements maps element indices to those.

def _add_product(q: dict, a: dict, b: dict) -> None:
    """q += a * b."""
    for e1, x1 in a.items():
        for e2, x2 in b.items():
            q[e1 + e2] = q.get(e1 + e2, 0) + x1 * x2


def _left_mult_simple(t: _Tables, j: int, acc: dict) -> dict:
    """H_{s_{j+1}} times a standard-basis combination."""
    row, length = t.left[j], t.length
    out: dict = {}
    for x, p in acc.items():
        sx = row[x]
        q = out.setdefault(sx, {})
        for e, c in p.items():
            q[e] = q.get(e, 0) + c
        if length[sx] < length[x]:  # H_s H_x = H_{sx} + (v^{-1} - v) H_x
            q = out.setdefault(x, {})
            for e, c in p.items():
                q[e - 1] = q.get(e - 1, 0) + c
                q[e + 1] = q.get(e + 1, 0) - c
    return out


def _h_product(t: _Tables, word: list[int], y: int) -> dict:
    """H_u * H_y in the standard basis, for u with the given reduced word."""
    acc = {y: {0: 1}}
    for j in reversed(word):
        acc = _left_mult_simple(t, j, acc)
    return acc


def _by_twist(t: _Tables, terms: dict) -> dict:
    """{c: {index of x: coefficient dict}} for terms keyed by (c, x)."""
    out: dict = {}
    for (c, x), p in terms.items():
        out.setdefault(c, {})[t.of(x)] = p._c
    return out


# ---------------------------------------------------------------------------
# Kazhdan-Lusztig basis
# ---------------------------------------------------------------------------

def _lower_ideals(t: _Tables) -> list[bytes]:
    """Bruhat lower ideals as bitmaps: byte x of entry w is 1 iff x <= w.

    Lifting property: for w = s u > u, {x <= w} = {x <= u} | s{x <= u}.
    """
    n = len(t.elements)
    flips = [itemgetter(*row) for row in t.left] if n > 1 else []
    ideals = [bytes([1]) + bytes(n - 1)]
    for w in range(1, n):
        j = t.descent[w]
        below = ideals[t.left[j][w]]
        moved = bytes(flips[j](below))
        ideals.append((int.from_bytes(below, "little") |
                       int.from_bytes(moved, "little")).to_bytes(n, "little"))
    return ideals


def _add_into(q: list[int], p: tuple[int, ...], m: int = 1) -> None:
    """q += m * p on coefficient lists, padding q with zeros."""
    if len(q) < len(p):
        q.extend([0] * (len(p) - len(q)))
    for k, c in enumerate(p):
        q[k] += m * c


class KLCache:
    """Expansions b_w = sum_x h_{x,w} H_x for the integral Coxeter system.

    Built bottom-up through b_w = b_s b_{sw} - sum mu(z, sw) b_z over the
    integer tables: column w maps the index of x to the coefficients of
    h_{x,w}, entry e being the coefficient of v^e.  On construction (with
    validate=True) every expansion is checked to be unitriangular,
    supported on the Bruhat interval below w, with coefficients in
    v Z_{>=0}[v] of degree at most l(w) - l(x) below the top term; a failure
    aborts with the offending pair.  Safe for concurrent readers once built.
    """

    def __init__(self, idat: IntegralDatum, validate: bool = True):
        self.idat = idat
        self._t = t = _tables(idat)
        length = t.length
        self._cols = cols = [{0: (1,)}]
        for w in range(1, len(t.elements)):
            row = t.left[t.descent[w]]
            u = row[w]
            col_u = cols[u]
            # b_s b_u has h_{sy,u} + v^{+-1} h_{y,u} at y, + when sy > y
            acc = {}
            for x, p in col_u.items():
                sx = row[x]
                acc[x] = q = [0, *p] if length[sx] > length[x] else list(p[1:])
                if sx in col_u:
                    _add_into(q, col_u[sx])
                else:
                    acc[sx] = list(p)
            for z, p in col_u.items():
                mu = p[1] if len(p) > 1 else 0
                if mu and z != u and length[row[z]] < length[z]:
                    for x, hz in cols[z].items():
                        _add_into(acc.setdefault(x, []), hz, -mu)
            col = {}
            for x, q in acc.items():
                while q and not q[-1]:
                    q.pop()
                if q:
                    col[x] = tuple(q)
            cols.append(col)
        if validate:
            self._validate()

    def _validate(self) -> None:
        t = self._t
        name = [self.idat.int_reduced_word(x) for x in t.elements]
        for w, (col, ideal) in enumerate(zip(self._cols, _lower_ideals(t))):
            if col.get(w) != (1,):
                raise AssertionError(
                    f"KL expansion of {name[w]} is not unitriangular")
            lw = t.length[w]
            for x, p in col.items():
                if x == w:
                    continue
                if not ideal[x]:
                    raise AssertionError(
                        f"KL support violates the Bruhat bound at "
                        f"{name[x]} <= {name[w]}")
                if not p or p[0] or len(p) - 1 > lw - t.length[x]:
                    raise AssertionError(
                        f"KL degree bound fails for ({name[x]}, {name[w]})")
                if min(p) < 0:
                    raise AssertionError(
                        f"negative KL coefficient at ({name[x]}, {name[w]}):"
                        f" {LaurentPoly(dict(enumerate(p))).format()}")

    def expansion(self, w: WeylElement) -> dict:
        """{x: h_{x,w}}, built on request from the integer column."""
        elements = self._t.elements
        return {elements[x]: LaurentPoly(dict(enumerate(p)))
                for x, p in self._cols[self._t.of(w)].items()}

    def kl_basis_element(self, c: WeylElement, w: WeylElement) -> HeckeElement:
        """(c, e) b_w in the standard basis."""
        _require_members(self.idat, c, w)
        return HeckeElement(self.idat, {
            (c, x): p for x, p in self.expansion(w).items()})


def kl_cache(idat: IntegralDatum, validate: bool = True) -> KLCache:
    key = ("kl_cache", validate)
    if key not in idat._memo:
        idat._memo[key] = KLCache(idat, validate)
    return idat._memo[key]


def kl_polynomial(cache: KLCache, x: WeylElement,
                  w: WeylElement) -> LaurentPoly:
    """P_{x,w} as a polynomial in q = v^2.

    Zero unless x <= w; P_{w,w} = 1; read off from h_{x,w}(v) =
    v^{l(w)-l(x)} P_{x,w}(v^{-2}).
    """
    t = cache._t
    ix, iw = t.of(x), t.of(w)
    if ix == iw:
        return ONE
    h = cache._cols[iw].get(ix)
    if h is None:
        return ZERO
    gap = t.length[iw] - t.length[ix]
    out = {}
    for e, coef in enumerate(h):
        if coef:
            if (gap - e) % 2:
                raise AssertionError("KL parity violation")
            out[(gap - e) // 2] = coef
    return LaurentPoly(out)


# ---------------------------------------------------------------------------
# characters of words and decomposition into the twisted KL basis
# ---------------------------------------------------------------------------

def bs_character(idat: IntegralDatum, word: BimoduleWord) -> HeckeElement:
    """Monoidal image of a word: Bs(j) -> b_{s_j}, Rw(c) -> (c, e), letters
    multiplied in word order.

    The image is invariant under the rewrite rules (the relations hold in
    the extended algebra), so normalizing first is allowed but not needed.
    """
    out = identity_element(idat)
    for letter in word.letters:
        if isinstance(letter, BsLetter):
            out = out * kl_generator(idat, letter.simple_index)
        else:
            out = out * group_like(idat, letter.twist)
    return out


def decompose_graded(idat: IntegralDatum, h: HeckeElement,
                     cache: KLCache | None = None) -> dict:
    """Exact change of basis into {(c, e) b_x}: label -> LaurentPoly."""
    cache = cache or kl_cache(idat)
    t = cache._t
    out: dict = {}
    for c, f in sorted(_by_twist(t, h.terms).items(),
                       key=lambda kv: kv[0].root_perm):
        f = {x: dict(p) for x, p in f.items()}
        while f:
            x = max(f)  # the int_sort_key-largest element
            g = f.pop(x)
            out[(c, t.elements[x])] = LaurentPoly(g)
            for y, hp in cache._cols[x].items():
                if y == x:
                    continue
                q = f.setdefault(y, {})
                for e1, g1 in g.items():
                    for e2, h2 in enumerate(hp):
                        if h2:
                            q[e1 + e2] = q.get(e1 + e2, 0) - g1 * h2
                if not any(q.values()):
                    del f[y]
    return out


def decompose(idat: IntegralDatum, h: HeckeElement,
              cache: KLCache | None = None) -> dict:
    """Multiset of labels (c, x) with multiplicity the value at v = 1 of the
    KL-basis coefficient.

    Raises ValueError when some coefficient has a negative entry - the input
    was not a nonnegative combination of the twisted KL basis, which signals
    an upstream bug.
    """
    graded = decompose_graded(idat, h, cache)
    out = {}
    for label, p in graded.items():
        if any(coef < 0 for _, coef in p.items()):
            raise ValueError(
                f"negative coefficient {p.format()} in the KL-basis "
                "decomposition")
        out[label] = p.at_one()
    return out

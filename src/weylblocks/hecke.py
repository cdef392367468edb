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
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
        out: dict = {}
        for (c1, x1), p1 in self.terms.items():
            for (c2, x2), p2 in other.terms.items():
                c = c1 * c2
                u = c2.inverse() * x1 * c2
                for y, q in _h_product(idat, u, x2).items():
                    key = (c, y)
                    out[key] = out.get(key, ZERO) + p1 * p2 * q
        return HeckeElement(idat, out)


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


def _left_mult_simple(idat: IntegralDatum, j: int, acc: dict) -> dict:
    """H_{s_j} * (standard-basis dict), within the integral system."""
    s = idat.simple_reflections[j - 1]
    out: dict = {}

    def add(x, p):
        out[x] = out.get(x, ZERO) + p

    for x, p in acc.items():
        sx = s * x
        if idat.int_length(sx) > idat.int_length(x):
            add(sx, p)
        else:
            add(sx, p)
            add(x, (V_INV - V) * p)
    return {x: p for x, p in out.items() if not p.is_zero}


def _h_product(idat: IntegralDatum, u: WeylElement, y: WeylElement) -> dict:
    """H_u * H_y in the standard basis of the integral Hecke algebra."""
    acc = {y: ONE}
    for j in reversed(idat.int_reduced_word(u)):
        acc = _left_mult_simple(idat, j, acc)
    return acc


# ---------------------------------------------------------------------------
# Kazhdan-Lusztig basis
# ---------------------------------------------------------------------------

class KLCache:
    """Expansions b_w = sum_x h_{x,w} H_x for the integral Coxeter system.

    Built bottom-up through b_w = b_s b_{sw} - sum mu(z, sw) b_z.  On
    construction (with validate=True) every expansion is checked to be
    unitriangular, supported on the Bruhat interval below w, with
    coefficients in v Z_{>=0}[v] below the top term; a failure aborts with
    the offending pair.  Safe for concurrent readers once built.
    """

    def __init__(self, idat: IntegralDatum, validate: bool = True):
        self.idat = idat
        self._h: dict = {}  # w -> {x -> LaurentPoly}
        elements = idat.int_elements()
        e = idat.datum.identity
        self._h[e] = {e: ONE}
        for w in elements:
            if w == e:
                continue
            j = idat.system.first_left_descent(w.root_perm)
            s = idat.simple_reflections[j - 1]
            u = s * w
            exp_u = self._h[u]
            acc = _left_mult_simple(idat, j, exp_u)
            for x, p in exp_u.items():
                acc[x] = acc.get(x, ZERO) + V * p
            for z, hz in exp_u.items():
                if z == u:
                    continue
                m = hz.coeff(1)
                if m and idat.int_length(s * z) < idat.int_length(z):
                    for x, p in self._h[z].items():
                        acc[x] = acc.get(x, ZERO) - m * p
            self._h[w] = {x: p for x, p in acc.items() if not p.is_zero}
            if validate:
                self._validate(w)

    def _validate(self, w: WeylElement) -> None:
        idat = self.idat
        exp = self._h[w]
        if exp.get(w) != ONE:
            raise AssertionError(
                f"KL expansion of {idat.int_reduced_word(w)} is not "
                "unitriangular")
        lw = idat.int_length(w)
        for x, p in exp.items():
            if x == w:
                continue
            if not idat.int_bruhat_leq(x, w):
                raise AssertionError(
                    f"KL support violates the Bruhat bound at "
                    f"{idat.int_reduced_word(x)} <= {idat.int_reduced_word(w)}")
            if p.min_exp() < 1 or p.max_exp() > lw - idat.int_length(x):
                raise AssertionError(
                    f"KL degree bound fails for "
                    f"({idat.int_reduced_word(x)}, {idat.int_reduced_word(w)})")
            if any(coef < 0 for _, coef in p.items()):
                raise AssertionError(
                    f"negative KL coefficient at "
                    f"({idat.int_reduced_word(x)}, {idat.int_reduced_word(w)}):"
                    f" {p.format()}")

    def expansion(self, w: WeylElement) -> dict:
        if w not in self._h:
            raise ValueError("element outside the integral Weyl group")
        return self._h[w]

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
    idat = cache.idat
    for el in (x, w):
        if el not in idat.w_int.elements:
            raise ValueError("element outside the integral Weyl group")
    if x == w:
        return ONE
    h = cache.expansion(w).get(x)
    if h is None:
        return ZERO
    gap = idat.int_length(w) - idat.int_length(x)
    out = {}
    for e, coef in h.items():
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
    by_twist: dict = {}
    for (c, x), p in h.terms.items():
        by_twist.setdefault(c, {})[x] = p
    out: dict = {}
    for c, f in sorted(by_twist.items(), key=lambda kv: kv[0].root_perm):
        f = dict(f)
        while f:
            x = max(f, key=idat.int_sort_key)
            g = f.pop(x)
            out[(c, x)] = g
            for y, hp in cache.expansion(x).items():
                if y == x:
                    continue
                q = f.get(y, ZERO) - g * hp
                if q.is_zero:
                    f.pop(y, None)
                else:
                    f[y] = q
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

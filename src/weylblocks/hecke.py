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

Internally the block's numbering is used, C's from the integral datum and
W_int's from ``idat.tables``: an element stores its terms under (chamber
number, W_int number), and products, characters, KL expansions and
decompositions run on those numbers with multiplication and conjugation
read from integer tables; WeylElement and LaurentPoly appear only at the
API edge.  Multiplying by a KL generator, on either side, is one sweep over
the terms (``bs_character`` on the right, ``bs_left`` on the left); the
generic product ``HeckeElement.__mul__`` is the reference for both.

The corpus check of KL positivity decomposes b_s b_w without forming it
(``_bs_kl_coefficients``): it reads the column of w and eliminates on the
s-upper half {x : sx < x} only.  Every element of b_s H, and every b_z with
sz < z, has h_x = v h_{sx} for x < sx, so the top term of the elimination
is always in that half and the coefficients are those of the full
``decompose(bs_left(...))``, which stays the reference.  When sw < w the
stored column already gives b_s b_w = (v + v^{-1}) b_w.
"""

from __future__ import annotations

from itertools import compress

from .integral import BlockTables, IntegralDatum
from .rootsys import GroupBoundExceeded, WeylElement
from .soergel import BimoduleWord


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


class HeckeElement:
    """A finitely supported map (c, x) -> LaurentPoly.

    Stored on integers: a term key is (chamber number, W_int number), with
    the chamber numbered in ``idat.chamber.sorted_elements`` order and W_int
    in ``int_elements()`` order (the identity is 0 in both), and a
    coefficient is a dict exponent -> nonzero int.  ``terms`` builds the
    WeylElement-keyed view on request.
    """

    __slots__ = ("idat", "_ints")

    def __init__(self, idat: IntegralDatum, terms: dict | None = None):
        t = idat.tables
        self.idat = idat
        self._ints = {(t.twist(c), t.of(x)): dict(p._c)
                      for (c, x), p in (terms or {}).items() if not p.is_zero}

    @classmethod
    def _of(cls, idat: IntegralDatum, ints: dict) -> "HeckeElement":
        """The element with integer terms ``ints``, zero entries dropped."""
        self = object.__new__(cls)
        self.idat = idat
        self._ints = {}
        for k, p in ints.items():
            if 0 in p.values():
                p = {e: x for e, x in p.items() if x}
            if p:
                self._ints[k] = p
        return self

    @property
    def terms(self) -> dict:
        """{(c, x): LaurentPoly}, built on request."""
        chamber, t = self.idat.chamber.sorted_elements, self.idat.tables
        return {(chamber[c], t.elements[x]): LaurentPoly(p)
                for (c, x), p in self._ints.items()}

    def __eq__(self, other):
        return isinstance(other, HeckeElement) and \
            self.idat is other.idat and self._ints == other._ints

    def __repr__(self):
        return f"HeckeElement(terms={self.terms!r})"

    def coeff(self, c: WeylElement, x: WeylElement) -> LaurentPoly:
        p = self._ints.get((self.idat.chamber_number.get(c.root_perm),
                            self.idat.tables.index.get(x.root_perm)))
        return ZERO if p is None else LaurentPoly(p)

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        out = {k: dict(p) for k, p in self._ints.items()}
        for k, p in other._ints.items():
            q = out.setdefault(k, {})
            for e, x in p.items():
                q[e] = q.get(e, 0) + x
        return HeckeElement._of(self.idat, out)

    def scale(self, p: LaurentPoly) -> "HeckeElement":
        out = {}
        for k, q in self._ints.items():
            _add_product(out.setdefault(k, {}), q, p._c)
        return HeckeElement._of(self.idat, out)

    def __mul__(self, other: "HeckeElement") -> "HeckeElement":
        t, word = self.idat.tables, self.idat.system.reduced_word
        theirs = _by_twist(other._ints)
        out: dict = {}
        for c1, xs in _by_twist(self._ints).items():
            for c2, ys in theirs.items():
                c, conj = self.idat.chamber_mul[c1][c2], t.conj[c2]
                for x, p in xs.items():
                    # H_{c2^{-1} x c2} times the whole combination ys
                    prod = ys
                    for j in reversed(word(t.elements[conj[x]])):
                        prod = _left_mult_simple(t, j - 1, prod)
                    for z, r in prod.items():
                        _add_product(out.setdefault((c, z), {}), p, r)
        return HeckeElement._of(self.idat, out)


def identity_element(idat: IntegralDatum) -> HeckeElement:
    return HeckeElement._of(idat, {(0, 0): {0: 1}})


def standard_basis(idat: IntegralDatum, c: WeylElement,
                   x: WeylElement) -> HeckeElement:
    return HeckeElement(idat, {(c, x): ONE})


def group_like(idat: IntegralDatum, c: WeylElement) -> HeckeElement:
    return HeckeElement._of(idat, {(idat.tables.twist(c), 0): {0: 1}})


def kl_generator(idat: IntegralDatum, j: int) -> HeckeElement:
    """b_s = H_s + v H_e for the j-th integral simple reflection."""
    if not 1 <= j <= idat.rank:
        raise ValueError(f"integral simple index {j} out of range")
    s = idat.tables.left[j - 1][0]
    return HeckeElement._of(idat, {(0, s): {0: 1}, (0, 0): {1: 1}})


# Inside elements, products and decompositions a polynomial is a dict
# exponent -> coefficient (never mutated once an element holds it), and a
# combination of standard basis elements maps element indices to those.

def _add_product(q: dict, a: dict, b: dict) -> None:
    """q += a * b."""
    for e1, x1 in a.items():
        for e2, x2 in b.items():
            q[e1 + e2] = q.get(e1 + e2, 0) + x1 * x2


def _left_mult_simple(t: BlockTables, j: int, acc: dict) -> dict:
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


def _by_twist(ints: dict) -> dict:
    """{c: {x: coefficient dict}} for integer terms keyed by (c, x)."""
    out: dict = {}
    for (c, x), p in ints.items():
        out.setdefault(c, {})[x] = p
    return out


# ---------------------------------------------------------------------------
# Kazhdan-Lusztig basis
# ---------------------------------------------------------------------------

# A read that would build more KL columns than this raises
# GroupBoundExceeded and builds none.  Every column a read needs lies in the
# Bruhat ideal of the column read, so the unbuilt part of that ideal bounds
# the work.  Building every column of a 2000-element ideal took 0.5-1.1 s
# on W(F4), W(B5), W(A6) and W(E6) (2 vCPUs, CPython 3.11), about as long
# as the whole table of E6 at (1/2,0,...,0), 1920 columns, which fits.
KL_COLUMN_CAP = 2000

_UNPACK = bytes.maketrans(b"01", b"\0\1")
_PACK = bytes.maketrans(b"\0\1", b"01")


def _flags(bits: int, n: int = 0) -> bytes:
    """Byte x is bit x of ``bits``, padded with zeros to at least n bytes."""
    return format(bits, "b")[::-1].encode().translate(_UNPACK).ljust(n, b"\0")


def _members(bits: int):
    """The x with bit x of ``bits`` set, ascending."""
    return compress(range(bits.bit_length()), _flags(bits))


def _pack(flags: bytes) -> int:
    """The int whose bit x is byte x of ``flags`` (each 0 or 1)."""
    return int(flags[::-1].translate(_PACK), 2)


def _add_into(q: list[int], p: tuple[int, ...], k: int = 0,
              m: int = 1) -> None:
    """q += m * v^k * p on coefficient lists, padding q with zeros."""
    end = k + len(p)
    if len(q) < end:
        q.extend([0] * (end - len(q)))
    for e, c in enumerate(p, k):
        q[e] += m * c


class _Tops(dict):
    """x -> x', the top of the coset W_I x for one descent set I = mask,
    found on the first lookup of x by walking up: while some s_{j+1} in I
    has s_{j+1} x > x, x moves to s_{j+1} x for the lowest such j.  Every
    element on the walk is memoized."""

    __slots__ = ("_left", "_dmask", "_mask")

    def __init__(self, t: BlockTables, mask: int):
        super().__init__()
        self._left, self._dmask, self._mask = t.left, t.dmask, mask

    def __missing__(self, x: int) -> int:
        walk = [x]
        while missing := self._mask & ~self._dmask[x]:
            x = self._left[(missing & -missing).bit_length() - 1][x]
            top = self.get(x)
            if top is not None:
                break
            walk.append(x)
        else:
            top = x
        for y in walk:
            self[y] = top
        return top


class KLCache:
    """Expansions b_w = sum_x h_{x,w} H_x for the integral Coxeter system,
    built column by column on first read and stored on the extremal pairs.

    For a left descent s of w and x < sx, h_{x,w} = v h_{sx,w}.  So with
    I = D_L(w) the column of w is determined by its extremal entries, the
    x <= w with I contained in D_L(x), which are the tops of the cosets
    W_I x; every other entry is h_{x,w} = v^k h_{x',w} with x' the top of
    W_I x and k = l(x') - l(x).  ``_tops(I)`` maps x -> x', one memo per
    descent set, filled as entries are read.  Column w maps the index of
    each extremal x to the coefficients of h_{x,w}, entry e being the
    coefficient of v^e; ``_cols[w]`` is None until it is built.

    Column w is built through b_w = b_s b_u - sum mu(z, u) b_z with
    u = sw < w, computing only its extremal entries and reading the entries
    of u and z through their own coset tops.  u and those z lie below w, so
    a read first builds the columns they need that are not yet built,
    bottom-up from an explicit stack.  The candidates are the lower ideal
    of w masked by the extremal set of I.  The ideal is an int of n bits,
    bit x set iff x <= w, grown from the ideal of sw by the lifting
    property; it stays on the cache (``_ideals``) with the column, and
    every read (``expansion``, ``kl_basis_element``, ``kl_polynomial``,
    decompositions) rebuilds entries from them.

    Before a read builds anything, it counts the unbuilt columns in the
    ideal of w, where every column it needs lies, and raises
    GroupBoundExceeded, building none, when there are more than
    ``KL_COLUMN_CAP``.

    Each column is checked as it is built, so every pair x <= w of a built
    column is covered: each stored entry is checked to be unitriangular,
    supported on the Bruhat interval below w, with coefficients in
    v Z_{>=0}[v] of degree at most l(w) - l(x) below the top term; the
    stored support must be exactly the extremal part of the lower ideal (a
    bit count), and the ideal must be stable under every s in D_L(w), so it
    is a union of cosets W_I x and x <= w iff x' <= w.  An unstored entry
    is v^k (k >= 1) times a checked one, so it inherits the zero constant
    term, nonnegativity and the degree bound.  A failure raises
    AssertionError naming the offending pair, and the column is not stored.
    """

    def __init__(self, idat: IntegralDatum):
        self.idat = idat
        self._t = t = idat.tables
        n = len(t.elements)
        # bit x of _descents[j] is set iff s_{j+1} x < x
        self._descents = [_pack(bytes(m >> j & 1 for m in t.dmask))
                          for j in range(len(t.left))]
        self._memos: dict[int, _Tops] = {}
        self._exts: dict[int, int] = {}
        self._ideals: list = [1] + [None] * (n - 1)
        self._cols: list = [{0: (1,)}] + [None] * (n - 1)
        self._built = 1  # bit w set iff column w is built

    def _name(self, w: int) -> tuple[int, ...]:
        return self.idat.system.reduced_word(self._t.elements[w])

    def _tops(self, mask: int) -> _Tops:
        tops = self._memos.get(mask)
        if tops is None:
            tops = self._memos[mask] = _Tops(self._t, mask)
        return tops

    def _extremal(self, mask: int) -> int:
        """Bit x set iff D_L(x) contains I = mask."""
        ext = self._exts.get(mask)
        if ext is None:
            ext = (1 << len(self._t.elements)) - 1
            for j, d in enumerate(self._descents):
                if mask >> j & 1:
                    ext &= d
            self._exts[mask] = ext
        return ext

    def _ideal(self, w: int) -> int:
        """The lower ideal of w: for w = s u > u with s the first left
        descent, {x <= w} = {x <= u} | s{x <= u}, walked down to an ideal
        already known and back up.  Its members are numbered at most w."""
        t, ideals = self._t, self._ideals
        chain = []
        while ideals[w] is None:
            chain.append(w)
            w = t.left[t.descent[w]][w]
        ideal = ideals[w]
        for v in reversed(chain):
            row, flags = t.left[t.descent[v]], bytearray(v + 1)
            for x in _members(ideal):
                flags[x] = flags[row[x]] = 1
            ideal = ideals[v] = _pack(flags)
        return ideal

    def _col(self, w: int) -> dict:
        """Column w, built first with every column it needs if not yet."""
        col = self._cols[w]
        if col is None:
            self._build(w)
            col = self._cols[w]
        return col

    def _build(self, w: int) -> None:
        """Column w and the unbuilt columns it needs, each checked, once
        their count is known to be within the cap."""
        todo = (self._ideal(w) & ~self._built).bit_count()
        if todo > KL_COLUMN_CAP:
            raise GroupBoundExceeded(
                f"the KL column of {self._name(w)} needs up to {todo} "
                f"columns built, more than the cap of {KL_COLUMN_CAP}")
        t, cols = self._t, self._cols
        stack = [w]
        while stack:
            v = stack[-1]
            if cols[v] is not None:
                stack.pop()
                continue
            row = t.left[t.descent[v]]
            u = row[v]
            if cols[u] is None:
                stack.append(u)
                continue
            # z < u with mu(z, u) != 0 and sz < z: an extremal entry of u,
            # or z = s'u for s' in D_L(u), where h_{z,u} = v
            mus = [(p[1], z) for z, p in cols[u].items()
                   if len(p) > 1 and p[1]]
            mus += [(1, r[u]) for j, r in enumerate(t.left)
                    if t.dmask[u] >> j & 1]
            mus = [(m, z) for m, z in mus if t.length[row[z]] < t.length[z]]
            unbuilt = [z for _, z in mus if cols[z] is None]
            if unbuilt:
                stack += unbuilt
                continue
            stack.pop()
            ideal = self._ideal(v)
            col = self._new_column(v, row, mus, ideal)
            self._check_column(v, col, ideal)
            cols[v] = col
            self._built |= 1 << v

    def _new_column(self, w: int, row: list[int], mus: list,
                    ideal: int) -> dict:
        """The extremal entries of b_w = b_s b_u - sum mu(z, u) b_z, for
        u = row[w] and the (mu(z, u), z) in ``mus``, all built, with
        ``ideal`` the lower ideal of w."""
        t, cols, length = self._t, self._cols, self._t.length
        u = row[w]
        col_u, top_u = cols[u], self._tops(t.dmask[u])
        terms = [(-m, cols[z], self._tops(t.dmask[z])) for m, z in mus]
        cands = ideal & self._extremal(t.dmask[w])
        col = {}
        for x in _members(cands):
            # b_s b_u at x, where sx < x: h_{sx,u} + v^{-1} h_{x,u},
            # and sx <= u by the lifting property
            y = row[x]
            ty = top_u[y]
            q = [0] * (length[ty] - length[y])
            q += col_u.get(ty, ())
            tx = top_u[x]
            p = col_u.get(tx)
            if p is not None:  # x != u, so p has no constant term
                k = length[tx] - length[x]
                if k:
                    _add_into(q, p, k - 1)
                else:
                    _add_into(q, p[1:])
            for m, col_z, top_z in terms:
                tz = top_z[x]
                p = col_z.get(tz)
                if p is not None:
                    _add_into(q, p, length[tz] - length[x], m)
            while q and not q[-1]:
                q.pop()
            if q:
                col[x] = tuple(q)
        return col

    def _check_column(self, w: int, col: dict, ideal: int) -> None:
        """Every check of the class docstring on column w and its ideal."""
        t, name = self._t, self._name
        n, length, mask = len(t.elements), t.length, t.dmask[w]
        if col.get(w) != (1,):
            raise AssertionError(
                f"KL expansion of {name(w)} is not unitriangular")
        flags = _flags(ideal, n)
        below = list(compress(range(ideal.bit_length()), flags))
        for j, row in enumerate(t.left):  # x <= w iff x' <= w
            if mask >> j & 1 and not all(
                    map(flags.__getitem__, map(row.__getitem__, below))):
                x = next(x for x in below if not flags[row[x]])
                raise AssertionError(
                    f"Bruhat lower ideal of {name(w)} is not a union of "
                    f"cosets of its left descents: {name(row[x])} and "
                    f"{name(x)} differ")
        lw = length[w]
        for x, p in col.items():
            if x == w:
                continue
            if not flags[x]:
                raise AssertionError(
                    f"KL support violates the Bruhat bound at "
                    f"{name(x)} <= {name(w)}")
            if t.dmask[x] & mask != mask:
                raise AssertionError(
                    f"KL entry stored off the extremal pairs at "
                    f"({name(x)}, {name(w)})")
            if not p or p[0] or len(p) - 1 > lw - length[x]:
                raise AssertionError(
                    f"KL degree bound fails for ({name(x)}, {name(w)})")
            if min(p) < 0:
                raise AssertionError(
                    f"negative KL coefficient at ({name(x)}, {name(w)}):"
                    f" {LaurentPoly(dict(enumerate(p))).format()}")
        support = ideal & self._extremal(mask)
        if len(col) != support.bit_count():
            x = next(x for x in _members(support) if x not in col)
            raise AssertionError(
                f"KL support misses the extremal pair "
                f"({name(x)}, {name(w)})")

    def _column(self, w: int, within: int = -1):
        """(x, k, p) with h_{x,w} = v^k p for every x <= w with bit x of
        ``within`` set, p the stored entry at the top of x's coset."""
        col = self._col(w)
        ideal, length = self._ideals[w], self._t.length
        tops = self._tops(self._t.dmask[w])
        for x in _members(ideal & within):
            top = tops[x]
            p = col.get(top)
            if p is not None:
                yield x, length[top] - length[x], p

    def expansion(self, w: WeylElement) -> dict:
        """{x: h_{x,w}}, rebuilt on request from the extremal entries."""
        elements = self._t.elements
        return {elements[x]: LaurentPoly(dict(enumerate(p, k)))
                for x, k, p in self._column(self._t.of(w))}

    def kl_basis_element(self, c: WeylElement, w: WeylElement) -> HeckeElement:
        """(c, e) b_w in the standard basis."""
        c = self._t.twist(c)
        return HeckeElement._of(self.idat, {
            (c, x): dict(enumerate(p, k))
            for x, k, p in self._column(self._t.of(w))})


def kl_cache(idat: IntegralDatum) -> KLCache:
    if "kl_cache" not in idat._memo:
        idat._memo["kl_cache"] = KLCache(idat)
    return idat._memo["kl_cache"]


def kl_polynomial(cache: KLCache, x: WeylElement,
                  w: WeylElement) -> LaurentPoly:
    """P_{x,w} as a polynomial in q = v^2.

    Zero unless x <= w; P_{w,w} = 1; read off from h_{x,w}(v) =
    v^{l(w)-l(x)} P_{x,w}(v^{-2}).  Builds the column of w when x < w,
    so raises GroupBoundExceeded past ``KL_COLUMN_CAP``.
    """
    t = cache._t
    ix, iw = t.of(x), t.of(w)
    if ix == iw:
        return ONE
    if not cache._ideal(iw) >> ix & 1:
        return ZERO
    top = cache._tops(t.dmask[iw])[ix]
    h = cache._col(iw).get(top)
    if h is None:
        return ZERO
    gap = t.length[iw] - t.length[ix]
    out = {}
    for e, coef in enumerate(h, t.length[top] - t.length[ix]):
        if coef:
            if (gap - e) % 2:
                raise AssertionError("KL parity violation")
            out[(gap - e) // 2] = coef
    return LaurentPoly(out)


# ---------------------------------------------------------------------------
# characters of words and decomposition into the twisted KL basis
# ---------------------------------------------------------------------------

def _kl_sweep(terms: dict, rows, length) -> dict:
    """The terms times b_s on one side, in one pass: (c, x) goes to
    (c, y) + v^{-1} (c, x) when y = rows[c][x] is shorter than x, else to
    (c, y) + v (c, x).  On the right y = x s; on the left y = s' x with
    s' = c^{-1} s c, since (e, s) (c, x) = (c, H_{s'} H_x)."""
    out: dict = {}
    for (c, x), p in terms.items():
        y = rows[c][x]
        shift = -1 if length[y] < length[x] else 1
        for key, k in (((c, y), 0), ((c, x), shift)):
            q = out.setdefault(key, {})
            for e, m in p.items():
                q[e + k] = q.get(e + k, 0) + m
    return out


def bs_left(idat: IntegralDatum, j: int, h: HeckeElement) -> HeckeElement:
    """b_s h for s the j-th integral simple reflection, in one sweep over
    the terms of h: b_s (c, x) = (c, s'x) + v^{+-1} (c, x) with
    s' = c^{-1} s c, the exponent -1 when s'x < x.  Equal to
    ``kl_generator(idat, j) * h``, the generic product."""
    if h.idat is not idat:
        raise ValueError("element of another block")
    if not 1 <= j <= idat.rank:
        raise ValueError(f"integral simple index {j} out of range")
    t = idat.tables
    # c^{-1} s_j c = s_{conj[c^{-1}][j]}
    rows = [t.left[idat.chamber_conj[ci][j] - 1] for ci in t.chamber_inverse]
    return HeckeElement._of(idat, _kl_sweep(h._ints, rows, t.length))


def bs_character(idat: IntegralDatum, word: BimoduleWord) -> HeckeElement:
    """Monoidal image of a word of this block: Bs(j) -> b_{s_j},
    Rw(c) -> (c, e), letters multiplied in word order.

    The image is built by right multiplication, letter by letter:
    (c, x) b_s = (c, H_x H_s + v H_x), one sweep over the terms with the
    table of x s, and (c, x) (c', e) = (c c', c'^{-1} x c'), a relabelling.
    The word's codes are read as they stand: Bs j is ``right[j - 1]`` and
    Rw ~k the chamber number k.  It is invariant under the rewrite rules
    (the relations hold in the extended algebra), so normalizing first is
    allowed but not needed.
    """
    if word.ambient is not idat:
        raise ValueError("word of another block")
    t, order = idat.tables, idat.chamber.order
    terms = {(0, 0): {0: 1}}
    for code in word.codes:
        if code > 0:
            terms = _kl_sweep(terms, [t.right[code - 1]] * order, t.length)
        else:
            conj, mul = t.conj[~code], idat.chamber_mul
            terms = {(mul[c][~code], conj[x]): p
                     for (c, x), p in terms.items()}
    return HeckeElement._of(idat, terms)


def _decompose(cache: KLCache, h: HeckeElement) -> dict:
    """Change of basis into {(c, e) b_x} on integers: {(c, x): coefficient
    dict}, twists in root-permutation order, then x descending."""
    if h.idat is not cache.idat:
        raise ValueError("element of another block")
    chamber = cache.idat.chamber.sorted_elements
    return {(c, x): g for c, f in sorted(
                _by_twist(h._ints).items(),
                key=lambda kv: chamber[kv[0]].root_perm)
            for x, g in _eliminate(
                cache, {y: dict(p) for y, p in f.items()}).items()}


def _eliminate(cache: KLCache, f: dict, within: int = -1) -> dict:
    """KL-basis coefficients {x: coefficient dict}, x descending, of the
    standard coefficients ``f`` (consumed), zero entries dropped: pop the
    top term x, subtract it times b_x read on ``within`` (``_column``)."""
    out = {}
    while f:
        x = max(f)  # the largest element by the integral sort key
        g = out[x] = {e: m for e, m in f.pop(x).items() if m}
        for y, k, p in cache._column(x, within):
            if y == x:
                continue
            q = f.setdefault(y, {})
            for e1, g1 in g.items():
                for e2, h2 in enumerate(p, e1 + k):
                    if h2:
                        q[e2] = q.get(e2, 0) - g1 * h2
            if not any(q.values()):
                del f[y]
    return out


def _bs_kl_coefficients(cache: KLCache, w: int, j: int) -> dict:
    """The graded coefficients of b_s b_w in the KL basis, s the j-th
    integral simple reflection and w a W_int number, all of twist e:
    {x: coefficient dict}, x descending.  Equal to
    ``_decompose(cache, bs_left(idat, j, b_w))`` without forming b_s b_w;
    raises ValueError, as ``multiplicity`` does, on a negative coefficient.

    Computed on the s-upper half U = {x : sx < x} only.  Every element h of
    b_s H has h_x = v h_{sx} for x < sx, and so has b_z for sz < z, since
    the ideal of z is s-stable (checked when its column is built) and its
    column is stored on the cosets of W_{D_L(z)}.  So the top term of the
    elimination is always in U, subtracting g b_z keeps the property, and
    eliminating on U alone gives the coefficients of the whole.  On U, with
    a_y = h_{y,w}, the coefficient of H_x in b_s b_w is a_{sx} + v^{-1} a_x.
    When sw < w that is (v + v^{-1}) a_x by the same storage, so
    b_s b_w = (v + v^{-1}) b_w is returned without the elimination.
    """
    t = cache._t
    if t.dmask[w] >> (j - 1) & 1:
        return {w: {-1: 1, 1: 1}}
    row, upper = t.left[j - 1], cache._descents[j - 1]
    f: dict = {}
    for y, k, p in cache._column(w):
        if upper >> y & 1:  # v^{-1} a_y at y
            x, k = y, k - 1
        else:  # a_y at sy
            x = row[y]
        q = f.setdefault(x, {})
        for e, c in enumerate(p, k):
            if c:
                q[e] = q.get(e, 0) + c
    out = _eliminate(cache, f, upper)
    for g in out.values():
        _check_nonnegative(g)
    return out


def decompose_graded(idat: IntegralDatum, h: HeckeElement,
                     cache: KLCache | None = None) -> dict:
    """Exact change of basis into {(c, e) b_x}: label -> LaurentPoly."""
    cache = cache or kl_cache(idat)
    chamber, elements = idat.chamber.sorted_elements, cache._t.elements
    return {(chamber[c], elements[x]): LaurentPoly(g)
            for (c, x), g in _decompose(cache, h).items()}


def multiplicity(poly: LaurentPoly) -> int:
    """A KL-basis coefficient's value at v = 1.  Raises ValueError on a
    negative entry: the input was not a nonnegative combination of the
    twisted KL basis, which signals an upstream bug."""
    _check_nonnegative(poly._c)
    return poly.at_one()


def _check_nonnegative(coeffs: dict) -> None:
    if any(x < 0 for x in coeffs.values()):
        raise ValueError(f"negative coefficient {LaurentPoly(coeffs).format()}"
                         " in the KL-basis decomposition")


def decompose(idat: IntegralDatum, h: HeckeElement,
              cache: KLCache | None = None) -> dict:
    """Multiset of labels (c, x) with multiplicity the value at v = 1 of the
    KL-basis coefficient (``multiplicity``, which raises ValueError on a
    negative entry).  Raises GroupBoundExceeded when a KL column it reads
    is past ``KL_COLUMN_CAP``.
    """
    return {label: multiplicity(poly)
            for label, poly in decompose_graded(idat, h, cache).items()}

"""Exact root-system and weight arithmetic.

Cartan data for the finite types A-G (and products, e.g. "A1xA1"), with all
coordinates kept as exact rationals:

* weights are tuples of Fractions in the fundamental-weight basis, so the
  pairing with the i-th simple coroot is just coordinate i;
* roots carry both their simple-root coordinates and the row functional
  ``nu -> <nu, alpha^vee>``;
* Weyl group elements are stored as permutations of the root list alone,
  one byte per root, so a datum has at most 256 roots (``MAX_ROOTS``);
  their integer action matrix on fundamental-weight coordinates is read off
  the permutation on first use;
* the action, the dot action, pairings with coroots and the walk to the
  dominant chamber run on a weight's integer numerators over one common
  denominator, and Fractions are built only for the weights handed back;
* linear systems are solved on integers through one Smith normal form, and
  the inverse Cartan matrix is kept as integer rows over |det C|.

Simple roots follow the Bourbaki numbering; the columns of the Cartan matrix
are the simple roots written in the fundamental-weight basis, i.e.
``cartan_matrix[j][i] == <alpha_i, alpha_j^vee>``.

Everything here is immutable after construction and safe to share between
threads; the only mutable state is a per-datum memo dict and each element's
matrix, filled on first use with values that never change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction as Q
from functools import cached_property, lru_cache
from math import factorial, lcm, prod

Weight = tuple[Q, ...]
IntMatrix = tuple[tuple[int, ...], ...]

#: positive-root counts and group orders for the irreducible types, used as
#: construction-time sanity checks.
POSITIVE_ROOT_COUNT = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}

WEYL_ORDER = {
    "A": lambda n: factorial(n + 1),
    "B": lambda n: 2**n * factorial(n),
    "C": lambda n: 2**n * factorial(n),
    "D": lambda n: 2 ** (n - 1) * factorial(n),
    "E": lambda n: {6: 51840, 7: 2903040, 8: 696729600}[n],
    "F": lambda n: 1152,
    "G": lambda n: 12,
}

_RANK_RANGE = {"A": (1, 8), "B": (2, 8), "C": (2, 8), "D": (3, 8),
               "E": (6, 8), "F": (4, 4), "G": (2, 2)}


class UnknownTypeError(ValueError):
    """Raised for type labels outside the supported finite types."""


class GroupBoundExceeded(RuntimeError):
    """Raised when an enumeration would exceed the configured group bound."""


# ---------------------------------------------------------------------------
# the integer weight kernel
# ---------------------------------------------------------------------------

def _check_rank(datum: "CartanDatum", weight) -> None:
    if len(weight) != datum.rank:
        raise ValueError(f"weight has {len(weight)} coordinates, "
                         f"expected {datum.rank}")


def _numerators(weight) -> tuple[list[int], int]:
    """(nums, den) with weight == nums / den and den the least common
    denominator; the Weyl group and integral shifts keep den fixed."""
    den = lcm(*(x.denominator for x in weight))
    return [x.numerator * (den // x.denominator) for x in weight], den


def _rho_shifted(weight) -> tuple[list[int], int]:
    """(nums, den) of weight + rho; rho is (1, ..., 1)."""
    nums, den = _numerators(weight)
    return [x + den for x in nums], den


def _weight(nums, den: int) -> Weight:
    return tuple(Q(x, den) for x in nums)


def _is_lattice(coords) -> bool:
    """True iff every coordinate is an integer."""
    return all(x.denominator == 1 for x in coords)


def _mat_nums(m, nums) -> list[int]:
    return [sum(map(int.__mul__, row, nums)) for row in m]


def _reflect(cartan, x, i: int) -> list[int]:
    """s_i x on fundamental-weight numerators:
    x_j - x_i * <alpha_i, alpha_j^vee>."""
    xi = x[i]
    return [xj - xi * row[i] for xj, row in zip(x, cartan)]


def _step(cartan, x, i: int, den: int = 0) -> tuple[int, ...]:
    """s_i x as a point of ``_orbit``: reduced mod den when den is not 0."""
    y = _reflect(cartan, x, i)
    return tuple(v % den for v in y) if den else tuple(y)


def _orbit(cartan, start, letters, den: int = 0, bound: int | None = None,
           stop=None) -> dict:
    """The orbit of the integer vector ``start`` under the simple
    reflections s_i, i in ``letters``, searched breadth first.

    With ``den`` not 0 the points are classes modulo den, stored reduced:
    the orbit of the weight start / den modulo the weight lattice.  Returns
    {point: i} in search order, where s_i first reached the point (-1 for
    the start), so each point's parent is s_i of it.  s_i is skipped at a
    point whose coordinate i is 0, which is exactly where it fixes the
    point.  Stops after the layer on which ``stop`` is reached; raises
    GroupBoundExceeded before more than ``bound`` points are stored.
    """
    start = tuple(v % den for v in start) if den else tuple(start)
    orbit = {start: -1}
    frontier = [start]
    while frontier and stop not in orbit:
        nxt = []
        for x in frontier:
            for i in letters:
                if x[i]:
                    y = _step(cartan, x, i, den)
                    if y not in orbit:
                        if bound is not None and len(orbit) >= bound:
                            raise GroupBoundExceeded(
                                f"orbit enumeration exceeds bound {bound}")
                        orbit[y] = i
                        nxt.append(y)
        frontier = nxt
    return orbit


def _to_dominant(cartan, x, word: list | None = None) -> list[int]:
    """x reflected into the closed fundamental chamber, always by the
    simple reflection of the smallest negative coordinate, whose index is
    appended to ``word``."""
    while True:
        for i, xi in enumerate(x):
            if xi < 0:
                break
        else:
            return x
        x = _reflect(cartan, x, i)
        if word is not None:
            word.append(i)


def _in_root_lattice(datum: "CartanDatum", nums, den: int) -> bool:
    """Whether the weight nums / den lies in the root lattice.  Its simple
    root coordinates are C^{-1} nums / den; C^{-1} is kept as integer rows
    over d = |det C|, so the test is that every row times nums is divisible
    by d * den."""
    rows, d = datum.inverse_cartan
    return all(x % (d * den) == 0 for x in _mat_nums(rows, nums))


def _dominant_dot_key(datum: "CartanDatum", nu: Weight,
                      word: list | None = None) -> tuple:
    """The dominant point of nu's dot orbit as (numerators of it + rho,
    denominator): two weights are linked iff their keys are equal."""
    _check_rank(datum, nu)
    x, den = _rho_shifted(nu)
    return tuple(_to_dominant(datum.cartan_matrix, x, word)), den


# ---------------------------------------------------------------------------
# Smith normal form and the finite group  (weight lattice)/(root lattice)
# ---------------------------------------------------------------------------

def smith_normal_form(m):
    """Return (p, s, q) with p*m*q == s in Smith normal form, p, q unimodular.

    The diagonal of s is nonnegative and satisfies the divisibility chain
    s[0][0] | s[1][1] | ...  All matrices are lists of lists of ints; m is
    not modified.
    """
    rows, cols = len(m), len(m[0])
    s = [list(r) for r in m]
    p = [[int(i == j) for j in range(rows)] for i in range(rows)]
    q = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        p[i], p[j] = p[j], p[i]

    def swap_cols(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]
        for row in q:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, f):  # row[dst] += f * row[src]
        s[dst] = [x + f * y for x, y in zip(s[dst], s[src])]
        p[dst] = [x + f * y for x, y in zip(p[dst], p[src])]

    def add_col(src, dst, f):
        for row in s:
            row[dst] += f * row[src]
        for row in q:
            row[dst] += f * row[src]

    for t in range(min(rows, cols)):
        while True:
            entries = [(abs(s[i][j]), i, j) for i in range(t, rows)
                       for j in range(t, cols) if s[i][j] != 0]
            if not entries:
                break
            _, bi, bj = min(entries)
            swap_rows(t, bi)
            swap_cols(t, bj)
            for i in range(t + 1, rows):
                if s[i][t]:
                    add_row(t, i, -(s[i][t] // s[t][t]))
            for j in range(t + 1, cols):
                if s[t][j]:
                    add_col(t, j, -(s[t][j] // s[t][t]))
            if any(s[i][t] for i in range(t + 1, rows)) or \
                    any(s[t][j] for j in range(t + 1, cols)):
                continue  # remainders survived; shrink the pivot again
            pivot = s[t][t]
            bad = next(((i, j) for i in range(t + 1, rows)
                        for j in range(t + 1, cols) if s[i][j] % pivot), None)
            if bad is None:
                break
            add_row(bad[0], t, 1)  # pull the non-divisible row up and redo
        if s[t][t] < 0:
            s[t] = [-x for x in s[t]]
            p[t] = [-x for x in p[t]]
    return p, s, q


def _integer_solver(rows):
    """(solve, diagonal): solve maps rhs to one integer solution of
    rows * x == rhs, or None, by a Smith normal form of rows computed once;
    diagonal is that form's diagonal, so the columns are independent iff
    there are at most as many as rows and no diagonal entry is 0, and for a
    square matrix the entries multiply to |det rows|."""
    p, s, q = smith_normal_form(rows)
    k, n = len(rows), len(rows[0])
    diagonal = [s[i][i] for i in range(min(k, n))]

    def solve(rhs):
        pr = [sum(p[i][j] * rhs[j] for j in range(k)) for i in range(k)]
        y = [0] * n
        for i in range(k):
            d = diagonal[i] if i < len(diagonal) else 0
            if d == 0:
                if pr[i] != 0:
                    return None
                continue
            if pr[i] % d:
                return None
            y[i] = pr[i] // d
        return tuple(sum(q[i][j] * y[j] for j in range(n)) for i in range(n))

    return solve, diagonal


def _integer_inverse(m) -> tuple[IntMatrix, int]:
    """(rows, d) with m^{-1} == rows / d and d = |det m|, for an invertible
    square integer matrix: column j of rows is the solution of m x = d e_j,
    integral because d m^{-1} is the adjugate up to sign."""
    solve, diagonal = _integer_solver(m)
    d = prod(diagonal)
    if d == 0:
        raise ValueError("matrix is singular")
    return tuple(zip(*(solve([d * int(i == j) for i in range(len(m))])
                       for j in range(len(m))))), d


@dataclass(frozen=True)
class FiniteAbelianElement:
    """An element of a fixed finite abelian group, as residues per modulus."""

    residues: tuple[int, ...]
    moduli: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "residues", tuple(
            r % m for r, m in zip(self.residues, self.moduli)))

    def __add__(self, other: "FiniteAbelianElement") -> "FiniteAbelianElement":
        if self.moduli != other.moduli:
            raise ValueError("elements of different groups")
        return FiniteAbelianElement(
            tuple(a + b for a, b in zip(self.residues, other.residues)),
            self.moduli)

    def __neg__(self) -> "FiniteAbelianElement":
        return FiniteAbelianElement(
            tuple(-r for r in self.residues), self.moduli)

    def __sub__(self, other: "FiniteAbelianElement") -> "FiniteAbelianElement":
        return self + (-other)

    @property
    def is_zero(self) -> bool:
        return all(r == 0 for r in self.residues)

    def __str__(self) -> str:
        parts = [(r, m) for r, m in zip(self.residues, self.moduli) if m > 1]
        if not parts:
            return "0"
        if len(parts) == 1:
            return f"{parts[0][0]} mod {parts[0][1]}"
        return "(" + ", ".join(f"{r} mod {m}" for r, m in parts) + ")"


@dataclass(frozen=True, eq=False)
class FiniteAbelianGroup:
    """The cokernel Z^n / M Z^n of an integer matrix, via Smith normal form."""

    moduli: tuple[int, ...]
    projector: tuple[tuple[int, ...], ...]  # unimodular P with P*M*Q diagonal
    # one element per class met, keyed by residues: at most order entries
    _elements: dict = field(default_factory=dict, repr=False)

    @classmethod
    def cokernel(cls, m) -> "FiniteAbelianGroup":
        p, s, _ = smith_normal_form(m)
        n = len(m)
        moduli = tuple(s[i][i] if i < len(s) else 0 for i in range(n))
        if any(d == 0 for d in moduli):
            raise ValueError("matrix is singular; cokernel is infinite")
        return cls(moduli, tuple(tuple(r) for r in p))

    @property
    def order(self) -> int:
        return prod(self.moduli)

    @property
    def zero(self) -> FiniteAbelianElement:
        return FiniteAbelianElement((0,) * len(self.moduli), self.moduli)

    def class_of(self, vector) -> FiniteAbelianElement:
        """Class of an integral vector modulo the column lattice.  A vector
        of ints is used as it is; other entries must be integral numbers."""
        ints = list(vector)
        if not all(type(x) is int for x in ints):
            if any(x != int(x) for x in ints):
                raise ValueError(f"vector {vector} is not integral")
            ints = [int(x) for x in ints]
        res = tuple(sum(map(int.__mul__, row, ints)) % m
                    for row, m in zip(self.projector, self.moduli))
        hit = self._elements.get(res)
        if hit is None:
            hit = self._elements[res] = FiniteAbelianElement(res, self.moduli)
        return hit


# ---------------------------------------------------------------------------
# roots and Weyl group elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Root:
    """One root: simple-root coordinates plus the coroot pairing functional."""

    index: int
    simple_coords: tuple[int, ...]
    as_weight: Weight
    coroot_row: tuple[Q, ...]

    @property
    def height(self) -> int:
        return sum(self.simple_coords)

    def pair(self, weight: Weight) -> Q:
        """<weight, alpha^vee> as an exact rational."""
        return sum(c * x for c, x in zip(self.coroot_row, weight))

    def __str__(self) -> str:
        return "+".join(f"{c}a{i + 1}" for i, c in
                        enumerate(self.simple_coords) if c) or "0"


#: the largest root count a datum may have: a root permutation is one byte
#: per root, so that products and inverses are ``bytes.translate`` and
#: ``bytes.maketrans``, which need a 256-entry table
MAX_ROOTS = 256

#: the identity on 0..255; every root permutation is padded with it past
#: its datum's roots
IDENTITY_PERM = bytes(range(MAX_ROOTS))


class WeylElement:
    """A Weyl group element, stored as the permutation it induces on the
    root list of its datum.

    ``root_perm`` is a 256-byte string: entry k is the index of the image
    of root k for k < 2N, and k itself past the datum's 2N roots.  Bytes
    compare like tuples of the same ints, so every order keyed by the
    permutation is the tuple order.  The permutation determines the
    element, so equality and hashing use it alone, and the bytes cache
    their own hash.  The product is one ``translate`` and the inverse one
    ``maketrans``.  Elements are immutable.  The integer action matrix on
    fundamental-weight coordinates is derived on first use: row i is the
    coroot row of w^{-1}(alpha_i), because
    <w lam, alpha_i^vee> = <lam, (w^{-1} alpha_i)^vee>.
    """

    __slots__ = ("root_perm", "datum", "_weight_matrix")

    def __init__(self, root_perm: bytes, datum: CartanDatum) -> None:
        _set_root_perm(self, root_perm)
        _set_datum(self, datum)

    def __setattr__(self, name, value):
        raise AttributeError(f"WeylElement is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(
            f"WeylElement is immutable: cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is WeylElement:
            return self.root_perm == other.root_perm
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.root_perm)

    def __reduce__(self):  # copy and pickle past __setattr__
        return WeylElement, (self.root_perm, self.datum)

    def __repr__(self) -> str:
        return (f"WeylElement(root_perm="
                f"{tuple(self.root_perm[:len(self.datum.roots)])})")

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        # (self other)(k) = self(other(k))
        return WeylElement(other.root_perm.translate(self.root_perm),
                           self.datum)

    def inverse(self) -> "WeylElement":
        return WeylElement(bytes.maketrans(self.root_perm, IDENTITY_PERM),
                           self.datum)

    @property
    def weight_matrix(self) -> tuple[tuple[int, ...], ...]:
        try:
            return self._weight_matrix
        except AttributeError:
            pass
        rows, perm = self.datum.coroot_rows, self.root_perm
        # the simple roots lead the root list, so alpha_i has index i
        out = tuple(rows[perm.index(i)] for i in range(self.datum.rank))
        _set_weight_matrix(self, out)
        return out

    def act(self, weight: Weight) -> Weight:
        """The linear action on fundamental-weight coordinates."""
        nums, den = _numerators(weight)
        return _weight(_mat_nums(self.weight_matrix, nums), den)

    @property
    def is_identity(self) -> bool:
        return self.root_perm == IDENTITY_PERM


# each slot is written once, through its descriptor, past __setattr__
_set_root_perm = WeylElement.root_perm.__set__
_set_datum = WeylElement.datum.__set__
_set_weight_matrix = WeylElement._weight_matrix.__set__


@dataclass(frozen=True, eq=False)
class CartanDatum:
    """A semisimple root datum over exact rationals.

    ``roots`` lists the positive roots (sorted by height, then by simple
    coordinates) followed by their negatives; index(-alpha) = index(alpha) +
    num_positive.  So the simple roots come first, alpha_i at index i - 1.
    This ordering is frozen so every downstream enumeration is deterministic.
    ``coroot_rows[k]`` is the coroot row of root k in integers.
    """

    type_label: str
    rank: int
    cartan_matrix: tuple[tuple[int, ...], ...]
    symmetrizer: tuple[Q, ...]  # d_i = (alpha_i, alpha_i)/2, per component
    roots: tuple[Root, ...]
    coroot_rows: tuple[tuple[int, ...], ...] = field(repr=False)
    rho: Weight
    simple_reflections: tuple[WeylElement, ...]
    identity: WeylElement
    _memo: dict = field(default_factory=dict, repr=False)

    @property
    def num_positive(self) -> int:
        return len(self.roots) // 2

    @property
    def positive_roots(self) -> tuple[Root, ...]:
        return self.roots[: self.num_positive]

    def simple_root(self, i: int) -> Root:
        """The i-th simple root, 1-based Bourbaki numbering."""
        if not 1 <= i <= self.rank:
            raise ValueError(f"simple root index {i} out of range "
                             f"1..{self.rank}")
        return self.roots[i - 1]

    def zero_weight(self) -> Weight:
        return (Q(0),) * self.rank

    @cached_property
    def inverse_cartan(self) -> tuple[IntMatrix, int]:
        """The inverse Cartan matrix as (rows, d): integer rows over
        d = |det C|, built on first use by ``_integer_inverse``."""
        return _integer_inverse(self.cartan_matrix)

    def reflection(self, root: Root) -> WeylElement:
        """The reflection s_alpha as a WeylElement."""
        key = ("refl", root.index)
        if key not in self._memo:
            self._memo[key] = _reflection_element(self, root)
        return self._memo[key]


def _reflection_element(datum: CartanDatum, root: Root) -> WeylElement:
    n = datum.rank
    row, cartan = datum.coroot_rows[root.index], datum.cartan_matrix
    alpha = [int(x) for x in root.as_weight]
    # s(x) = x - <x, alpha^vee> alpha, on fundamental-weight coordinates
    matrix = tuple(tuple(int(i == j) - alpha[i] * row[j] for j in range(n))
                   for i in range(n))
    # <alpha_k, alpha^vee> per simple root; a root pairs by its simple
    # coords, and s(beta) = beta - k alpha is found by its simple coords
    on_simples = [sum(row[j] * cartan[j][k] for j in range(n))
                  for k in range(n)]
    by_coords, coords = datum._memo["root_by_coords"], root.simple_coords
    perm = []
    for beta in datum.roots:
        k = sum(map(int.__mul__, on_simples, beta.simple_coords))
        if k == 0:
            perm.append(beta.index)
            continue
        perm.append(by_coords[tuple(
            b - k * a for b, a in zip(beta.simple_coords, coords))])
    out = WeylElement(bytes(perm) + IDENTITY_PERM[len(perm):], datum)
    if out.weight_matrix != matrix:
        raise AssertionError(f"reflection in {root} disagrees with the "
                             "matrix read off its root permutation")
    return out


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def _cartan_block(letter: str, n: int) -> list[list[int]]:
    """Bourbaki Cartan matrix with a[i][j] = <alpha_j, alpha_i^vee>."""
    a = [[2 * int(i == j) for j in range(n)] for i in range(n)]

    def bond(i, j, aij=-1, aji=-1):  # 1-based
        a[i - 1][j - 1] = aij
        a[j - 1][i - 1] = aji

    if letter in "ABC":
        for i in range(1, n):
            bond(i, i + 1)
        if letter == "B":           # alpha_n short
            bond(n - 1, n, -1, -2)
        if letter == "C":           # alpha_n long
            bond(n - 1, n, -2, -1)
    elif letter == "D":
        for i in range(1, n - 1):
            bond(i, i + 1)
        a[n - 2][n - 1] = a[n - 1][n - 2] = 0
        bond(n - 2, n)
    elif letter == "E":
        chain = [1, 3, 4, 5, 6, 7, 8][: n - 1]
        for i, j in zip(chain, chain[1:]):
            bond(i, j)
        bond(2, 4)
    elif letter == "F":
        bond(1, 2)
        bond(2, 3, -1, -2)          # alpha_3, alpha_4 short
        bond(3, 4)
    elif letter == "G":
        bond(1, 2, -3, -1)          # alpha_1 short, alpha_2 long
    return a


def parse_type_label(label: str) -> list[tuple[str, int]]:
    """Split e.g. "A2xB3" into [("A", 2), ("B", 3)], validating ranks."""
    factors = []
    for part in label.split("x"):
        part = part.strip()
        if len(part) < 2 or part[0] not in "ABCDEFG" or not part[1:].isdigit():
            raise UnknownTypeError(f"cannot parse type label {part!r}")
        letter, n = part[0], int(part[1:])
        lo, hi = _RANK_RANGE[letter]
        if not lo <= n <= hi:
            raise UnknownTypeError(
                f"rank {n} out of supported range [{lo}, {hi}] for type {letter}")
        factors.append((letter, n))
    if not factors:
        raise UnknownTypeError("empty type label")
    return factors


def weyl_order(datum: CartanDatum) -> int:
    """The order of the Weyl group, from the type label alone."""
    out = 1
    for letter, n in parse_type_label(datum.type_label):
        out *= WEYL_ORDER[letter](n)
    return out


def _symmetrizer(cartan: list[list[int]]) -> list[Q]:
    """d_i with d_i * a[i][j] == d_j * a[j][i], one propagation per component."""
    n = len(cartan)
    d: list[Q | None] = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Q(1)
        queue = [start]
        while queue:
            i = queue.pop()
            for j in range(n):
                if cartan[i][j] != 0 and i != j and d[j] is None:
                    d[j] = d[i] * cartan[i][j] / cartan[j][i]
                    queue.append(j)
    return [x for x in d]


def _positive_roots(cartan) -> list[tuple[int, ...]]:
    """The positive roots of a finite-type Cartan matrix in simple-root
    coordinates, sorted by height and then by descending coordinates: the
    simple roots closed under the simple reflections."""
    rank = len(cartan)
    seen = {tuple(int(i == j) for j in range(rank)) for i in range(rank)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for coords in frontier:
            for i, k in enumerate(_mat_nums(cartan, coords)):
                img = list(coords)
                img[i] -= k  # s_i beta = beta - <beta, alpha_i^vee> alpha_i
                img_t = tuple(img)
                if img_t not in seen:
                    seen.add(img_t)
                    nxt.append(img_t)
        frontier = nxt
    return sorted((c for c in seen if sum(c) > 0),
                  key=lambda c: (sum(c), tuple(-x for x in c)))


def parabolic_order(cartan, subset) -> int:
    """Order of the standard parabolic subgroup on the simple roots with
    these 0-based indices: prod (ht alpha + 1) / ht alpha over the positive
    roots of the principal submatrix on ``subset``, heights taken over its
    own simples (Macdonald's height formula).  No element is enumerated.

    >>> parabolic_order(build_root_system("G2").cartan_matrix, range(2))
    12
    >>> parabolic_order(build_root_system("E8").cartan_matrix, range(7))
    2903040
    """
    rows = sorted(set(subset))
    num = den = 1
    for coords in _positive_roots([[cartan[i][j] for j in rows]
                                   for i in rows]):
        height = sum(coords)
        num *= height + 1
        den *= height
    return num // den


@lru_cache(maxsize=None)
def build_root_system(type_label: str) -> CartanDatum:
    """Construct the Cartan datum for a (product of) finite type(s).

    >>> build_root_system("A2").num_positive
    3
    >>> build_root_system("G2").num_positive
    6
    >>> build_root_system("A1xA1").num_positive
    2
    """
    factors = parse_type_label(type_label)
    expected = sum(POSITIVE_ROOT_COUNT[l](n) for l, n in factors)
    if 2 * expected > MAX_ROOTS:
        raise UnknownTypeError(
            f"{type_label} has {2 * expected} roots; at most {MAX_ROOTS} "
            "are supported")
    rank = sum(n for _, n in factors)
    cartan = [[0] * rank for _ in range(rank)]
    offset = 0
    for letter, n in factors:
        block = _cartan_block(letter, n)
        for i in range(n):
            for j in range(n):
                cartan[offset + i][offset + j] = block[i][j]
        offset += n
    d = _symmetrizer(cartan)

    positives = _positive_roots(cartan)
    if positives[:rank] != [tuple(int(i == j) for j in range(rank))
                            for i in range(rank)]:
        raise AssertionError("simple roots do not lead the root list")
    if len(positives) != expected:
        raise AssertionError(
            f"root closure produced {len(positives)} positive roots, "
            f"expected {expected} for {type_label}")

    # the symmetrizer scaled to integers; scaling cancels in the coroots
    scale = lcm(*(x.denominator for x in d))
    d_int = [int(x * scale) for x in d]

    def coroot_row(coords, weight) -> tuple[int, ...]:
        # <omega_j, alpha^vee> = 2 (omega_j, alpha) / (alpha, alpha), where
        # (alpha, alpha) = sum_i c_i d_i <alpha, alpha_i^vee>
        norm = sum(d_int[i] * coords[i] * weight[i] for i in range(rank))
        row = [2 * d_int[j] * coords[j] for j in range(rank)]
        if any(x % norm for x in row):
            raise AssertionError("coroot is not integral on the lattice")
        return tuple(x // norm for x in row)

    roots: list[Root] = []
    rows: list[tuple[int, ...]] = []
    ordered = positives + [tuple(-c for c in p) for p in positives]
    for idx, coords in enumerate(ordered):
        ints = _mat_nums(cartan, coords)
        w = tuple(Q(x) for x in ints)
        rows.append(coroot_row(coords, ints))
        roots.append(Root(idx, coords, w, tuple(Q(x) for x in rows[-1])))

    rho = tuple(Q(1) for _ in range(rank))
    datum = CartanDatum(
        type_label="x".join(f"{l}{n}" for l, n in factors),
        rank=rank,
        cartan_matrix=tuple(tuple(row) for row in cartan),
        symmetrizer=tuple(d),
        roots=tuple(roots),
        coroot_rows=tuple(rows),
        rho=rho,
        simple_reflections=(),  # filled below
        identity=None,  # filled below
    )
    datum._memo["root_by_coords"] = {c: i for i, c in enumerate(ordered)}
    object.__setattr__(datum, "identity", WeylElement(IDENTITY_PERM, datum))
    simples = tuple(_reflection_element(datum, datum.simple_root(i + 1))
                    for i in range(rank))
    object.__setattr__(datum, "simple_reflections", simples)
    datum._memo.update((("refl", i), s) for i, s in enumerate(simples))
    return datum


# ---------------------------------------------------------------------------
# the dot action and weight classification
# ---------------------------------------------------------------------------

def dot_action(datum: CartanDatum, w: WeylElement, lam: Weight) -> Weight:
    """w . lam = w(lam + rho) - rho."""
    _check_rank(datum, lam)
    shifted, den = _rho_shifted(lam)
    moved = _mat_nums(w.weight_matrix, shifted)
    return _weight([x - den for x in moved], den)


@dataclass(frozen=True)
class WeightClass:
    dominant: bool
    antidominant: bool
    regular: bool
    singular_roots: tuple[Root, ...]  # positive roots with <lam+rho, a^vee> = 0


def classify_weight(datum: CartanDatum, lam: Weight) -> WeightClass:
    """Dominance / antidominance / regularity of a rational weight.

    Dominant means no positive root pairs with lam + rho to a negative
    integer; regular means the dot stabilizer is trivial, i.e. no positive
    root pairs to zero.  The pairings are scanned as numerators over the
    weight's denominator, so v is integral when den divides it.
    """
    _check_rank(datum, lam)
    shifted, den = _rho_shifted(lam)
    dominant = antidominant = True
    singular = []
    rows = datum.coroot_rows
    for root in datum.positive_roots:
        v = sum(map(int.__mul__, rows[root.index], shifted))
        if v == 0:
            singular.append(root)
        elif v % den == 0:
            if v < 0:
                dominant = False
            else:
                antidominant = False
    return WeightClass(dominant, antidominant, len(singular) == 0,
                       tuple(singular))


@dataclass(frozen=True)
class LatticeMembership:
    in_weight_lattice: bool
    in_root_lattice: bool
    torsion_class: FiniteAbelianElement | None


def torsion_group(datum: CartanDatum) -> FiniteAbelianGroup:
    """The finite group (weight lattice)/(root lattice) of the datum."""
    key = "torsion"
    if key not in datum._memo:
        datum._memo[key] = FiniteAbelianGroup.cokernel(
            [list(r) for r in datum.cartan_matrix])
    return datum._memo[key]


def weight_lattice_tests(datum: CartanDatum, lam: Weight) -> LatticeMembership:
    """Membership in the weight and root lattices, plus the torsion class.

    The class is the image of lam in Z^n modulo the Cartan matrix columns,
    computed through the Smith normal form; it is only defined for lattice
    weights (None otherwise).
    """
    _check_rank(datum, lam)
    in_wl = _is_lattice(lam)
    in_rl = _in_root_lattice(datum, *_numerators(lam))
    cls = torsion_group(datum).class_of(lam) if in_wl else None
    return LatticeMembership(in_wl, in_rl, cls)


def lattice_class(datum: CartanDatum, lam: Weight) -> FiniteAbelianElement:
    """Torsion class of a lattice weight; raises for non-lattice input."""
    _check_rank(datum, lam)
    if not _is_lattice(lam):
        raise ValueError(f"{lam} is not in the weight lattice")
    return torsion_group(datum).class_of(lam)


def to_dominant_dot(datum: CartanDatum,
                    nu: Weight) -> tuple[WeylElement, Weight]:
    """(w, dom) with dom = w . nu the dominant point of the full dot orbit.

    Ascends through simple reflections, always taking the smallest index with
    a negative pairing, so the output is deterministic.
    """
    word: list[int] = []
    x, den = _dominant_dot_key(datum, nu, word)
    w = datum.identity
    for i in word:
        w = datum.simple_reflections[i] * w
    return w, _weight([v - den for v in x], den)


def dominant_dot_weight(datum: CartanDatum, nu: Weight) -> Weight:
    """The dominant point of the dot orbit of nu, as ``to_dominant_dot``
    finds it, without forming the group element."""
    x, den = _dominant_dot_key(datum, nu)
    return _weight([v - den for v in x], den)

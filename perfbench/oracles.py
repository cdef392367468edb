"""Reference computations the benchmark checks the library against.

Everything here starts from a Cartan matrix (the type's defining data) and
uses none of the library's derived objects: positive coroots by root
strings, the Weyl dimension product, orbit sizes by closure under the simple
reflections, the dominance cone by an exact inverse, and Weyl group orders
by the closed formulas.

Convention (the library's): ``cartan[j][i] == <alpha_i, alpha_j^vee>``, so
column i is the simple root alpha_i in fundamental-weight coordinates.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm

POSITIVE_ROOTS = {"A": lambda n: n * (n + 1) // 2, "B": lambda n: n * n,
                  "C": lambda n: n * n, "D": lambda n: n * (n - 1),
                  "F": lambda n: 24, "G": lambda n: 6}

WEYL_ORDER = {"A": lambda n: factorial(n + 1),
              "B": lambda n: 2 ** n * factorial(n),
              "C": lambda n: 2 ** n * factorial(n),
              "D": lambda n: 2 ** (n - 1) * factorial(n),
              "F": lambda n: 1152, "G": lambda n: 12}


def weyl_order(label: str) -> int:
    return WEYL_ORDER[label[0]](int(label[1:]))


def positive_roots(cartan) -> list[tuple[int, ...]]:
    """Positive roots in simple-root coordinates, by alpha_i-strings.

    For a root beta the alpha_i-string through it runs from beta - q alpha_i
    to beta + p alpha_i with p = q - <beta, alpha_i^vee>, so beta + alpha_i
    is a root exactly when p > 0.
    """
    n = len(cartan)
    simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    roots = set(simple)
    layer = simple
    while layer:
        nxt = []
        for beta in layer:
            for i in range(n):
                q = 0
                down = list(beta)
                while True:
                    down[i] -= 1
                    if tuple(down) not in roots:
                        break
                    q += 1
                pairing = sum(cartan[i][j] * beta[j] for j in range(n))
                if q - pairing > 0:
                    up = list(beta)
                    up[i] += 1
                    up = tuple(up)
                    if up not in roots:
                        roots.add(up)
                        nxt.append(up)
        layer = nxt
    return sorted(roots, key=lambda r: (sum(r), r))


def positive_coroots(cartan) -> list[tuple[int, ...]]:
    """Positive coroots in simple-coroot coordinates: the positive roots of
    the dual system, whose Cartan matrix is the transpose."""
    n = len(cartan)
    return positive_roots([[cartan[j][i] for j in range(n)] for i in range(n)])


def weyl_dimension(coroots, highest) -> int:
    """prod over positive coroots of <lam + rho, a^vee> / <rho, a^vee>; rho
    has every fundamental coordinate 1."""
    num = den = 1
    for k in coroots:
        num *= sum(kj * (int(hj) + 1) for kj, hj in zip(k, highest))
        den *= sum(k)
    if num % den:
        raise ArithmeticError("Weyl dimension product is not an integer")
    return num // den


def highest_root(cartan) -> tuple[int, ...]:
    """The adjoint highest weight, in fundamental-weight coordinates."""
    theta = positive_roots(cartan)[-1]
    n = len(cartan)
    return tuple(sum(cartan[j][i] * theta[i] for i in range(n))
                 for j in range(n))


def dominant_weights_up_to(coroots, rank: int, cap: int):
    """Dominant integral weights whose Weyl dimension is at most cap, in
    breadth-first order from 0 (dimension grows along each coordinate)."""
    zero = (0,) * rank
    out, seen, frontier = [], {zero}, [zero]
    while frontier:
        nxt = []
        for v in frontier:
            if weyl_dimension(coroots, v) > cap:
                continue
            out.append(v)
            for i in range(rank):
                u = v[:i] + (v[i] + 1,) + v[i + 1:]
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return out


def orbit_size(cartan, weight) -> int:
    """Size of the W-orbit of an integral weight, by closure under
    s_i(x) = x - x_i * alpha_i."""
    n = len(cartan)
    cols = [tuple(cartan[j][i] for j in range(n)) for i in range(n)]
    start = tuple(int(x) for x in weight)
    seen, frontier = {start}, [start]
    while frontier:
        nxt = []
        for x in frontier:
            for i in range(n):
                if x[i]:
                    y = tuple(a - x[i] * c for a, c in zip(x, cols[i]))
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
        frontier = nxt
    return len(seen)


def inverse(matrix) -> tuple[list[list[int]], int]:
    """Exact inverse of a nonsingular square matrix by Gauss-Jordan, as an
    integer matrix and the common denominator it is to be divided by."""
    n = len(matrix)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(matrix)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        lead = a[col][col]
        a[col] = [x / lead for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    den = lcm(*(x.denominator for row in a for x in row[n:]))
    return [[int(x * den) for x in row[n:]] for row in a], den


def below_in_root_cone(inv, highest, weight) -> bool:
    """True iff highest - weight is a nonnegative integer combination of the
    simple roots (columns of the Cartan matrix); inv is ``inverse``'s pair."""
    rows, den = inv
    diff = [int(h) - int(w) for h, w in zip(highest, weight)]
    coeffs = [sum(r * d for r, d in zip(row, diff)) for row in rows]
    return all(c >= 0 and c % den == 0 for c in coeffs)

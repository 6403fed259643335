"""Exact integer and rational linear algebra on small matrices.

Matrices are tuples of row tuples; everything is arbitrary-precision.
`echelon_integer` is the one Gaussian elimination: a fraction-free reduced
echelon form over the integers, from which rank and the rational solutions
of `solve_rational` are read off. The Hermite normal form (`hnf`) is the
other, one pass per column with extended-gcd row steps: it answers every
integer-lattice question; v is a member exactly when its residue
(`hnf_reduce`) is zero, which `solve_integer` asks.
Rational answers are fractions.Fraction, never floats.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul

Vec = tuple[int, ...]
Mat = tuple[Vec, ...]


def mat_mul(a: Mat, b: Mat) -> Mat:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def mat_vec(a: Mat, v) -> tuple:
    return tuple(sum(map(mul, row, v)) for row in a)


def echelon_integer(rows, rhs):
    """Reduced row echelon form of an integer system A x = b, fraction-free.

    Returns (pivots, free) or None if the system has no rational solution.
    `free` lists the free columns. Each pivot is (column, row): `row` is
    an integer equation sum_j row[j] x_j = row[-1] whose coefficient at
    every other pivot column is 0. So any choice of the free coordinates
    gives the unique rational solution with
    x[column] = (row[-1] - sum_f row[f] x_f) / row[column].
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    m = [[*r, b] for r, b in zip(rows, rhs)]
    pivots = []
    row = 0
    for col in range(ncols):
        if row == nrows:
            break  # every row has its pivot; the columns left are free
        for piv in range(row, nrows):
            if m[piv][col]:
                break
        else:
            continue
        m[row], m[piv] = m[piv], m[row]
        p = m[row]
        pc = p[col]
        for r, other in enumerate(m):
            f = other[col]
            if f and r != row:
                new = [pc * x - f * y for x, y in zip(other, p)]
                g = gcd(*new)
                m[r] = [x // g for x in new] if g > 1 else new
        pivots.append(col)
        row += 1
    if any(m[r][ncols] for r in range(row, nrows)):
        return None
    free = [c for c in range(ncols) if c not in pivots]
    return [(col, tuple(m[r])) for r, col in enumerate(pivots)], free


def solve_rational(rows, rhs):
    """Solve A x = b over the rationals.

    Returns (particular solution, nullspace basis) with Fraction entries,
    or None if the system is inconsistent. Both are read off the reduced
    echelon form of `echelon_integer`: the particular solution is 0 in
    the free columns, and each free column gives the basis vector that is
    1 there and 0 in the other free columns.
    """
    system = echelon_integer(rows, rhs)
    if system is None:
        return None
    pivots, free = system
    ncols = len(pivots) + len(free)
    x = [Fraction(0)] * ncols
    for col, row in pivots:
        x[col] = Fraction(row[-1], row[col])
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for col, row in pivots:
            v[col] = Fraction(-row[f], row[col])
        basis.append(tuple(v))
    return tuple(x), tuple(basis)


def hnf(vectors, ncols: int) -> Mat:
    """Canonical row Hermite normal form of the span of the given vectors.

    Rows are in echelon order with positive pivots; in each pivot column the
    other entries are reduced into [0, pivot). The result is unique per
    lattice, so tuple equality decides lattice equality.

    One pass per column: the first row with a non-zero entry there is the
    pivot row p, and each later such row r is cleared against it, by
    r - q p when p's entry divides r's and otherwise by one extended-gcd
    step, which leaves the gcd in p. The rows above are then reduced by
    the finished pivot row; later pivot rows are zero in this column, so
    the reduction stays.
    """
    rows = [v for v in vectors if any(v)]
    result: list = []
    for col in range(ncols):
        p = None
        rest = []
        for r in rows:
            b = r[col]
            if not b:
                rest.append(r)
                continue
            if p is None:
                p = r
                continue
            a = p[col]
            q, m = divmod(b, a)
            if m:
                # g = s a + t b, and (p, r) -> (s p + t r, (a/g) r - (b/g) p)
                # is unimodular and clears r in this column
                s, s1, t, t1, g, h = 1, 0, 0, 1, a, b
                while h:
                    f, g, h = g // h, h, g % h
                    s, s1 = s1, s - f * s1
                    t, t1 = t1, t - f * t1
                a, b = a // g, b // g
                p, r = ([s * x + t * y for x, y in zip(p, r)],
                        [a * y - b * x for x, y in zip(p, r)])
            else:
                r = [y - q * x for x, y in zip(p, r)]
            if any(r):
                rest.append(r)
        rows = rest
        if p is None:
            continue
        if p[col] < 0:
            p = [-x for x in p]
        d = p[col]
        for i, row in enumerate(result):
            q = row[col] // d
            if q:
                result[i] = [x - q * y for x, y in zip(row, p)]
        result.append(p)
    return tuple(map(tuple, result))


def hnf_pivots(basis) -> tuple[int, ...]:
    """The pivot column of each row of an HNF basis: its first non-zero entry.

    `hnf_reduce` takes them from the caller, which reads them once per
    basis (see `intlattice.IntegerLattice`).
    """
    return tuple(next(j for j, x in enumerate(row) if x) for row in basis)


def hnf_reduce(basis: Mat, pivots, v) -> tuple:
    """Canonical residue of v modulo the lattice with HNF basis `basis`,
    whose pivot columns are `pivots` (floor division per pivot). It is
    zero exactly on the lattice: a non-zero member with first coefficient c
    has c * pivot, outside [0, pivot), in that row's pivot column."""
    w = list(v)
    n = len(w)
    for row, pcol in zip(basis, pivots):
        q = w[pcol] // row[pcol]
        if q:
            for j in range(n):
                w[j] -= q * row[j]
    return tuple(w)


def solve_integer(rows, rhs) -> bool:
    """Whether A x = b has an integral solution.

    A x runs over the integer combinations of the columns of A, so the
    answer is whether b lies in the lattice they span: one HNF, and b is in
    it exactly when its residue is zero (no bound on x). The name stays
    because `perfbench/tracing.py` times the function under it.
    """
    basis = hnf(list(zip(*rows)), len(rhs))
    return not any(hnf_reduce(basis, hnf_pivots(basis), rhs))

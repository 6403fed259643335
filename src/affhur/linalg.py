"""Exact integer and rational linear algebra on small matrices.

Matrices are tuples of row tuples; everything is arbitrary-precision.
`echelon_integer` is the one Gaussian elimination: a fraction-free reduced
echelon form over the integers, from which rank and the rational solutions
of `solve_rational` are read off. Lattices go through the Hermite normal
form (`hnf`), integer systems through the Smith normal form
(`solve_integer`). Rational answers are fractions.Fraction, never floats.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import add, mul, neg

Vec = tuple[int, ...]
Mat = tuple[Vec, ...]


def identity_mat(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: Mat, b: Mat) -> Mat:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def mat_vec(a: Mat, v) -> tuple:
    return tuple(sum(map(mul, row, v)) for row in a)


def vec_add(u, v):
    return tuple(map(add, u, v))


def vec_neg(u):
    return tuple(map(neg, u))


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
    m = [list(rows[i]) + [rhs[i]] for i in range(nrows)]
    pivots = []
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if m[r][col]), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        p = m[row]
        for r in range(nrows):
            f = m[r][col]
            if r != row and f:
                new = [p[col] * x - f * y for x, y in zip(m[r], p)]
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
    """
    rows = [list(v) for v in vectors if any(v)]
    result: list[list[int]] = []
    for col in range(ncols):
        while True:
            nz = [r for r in rows if r[col] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda r: abs(r[col]))
            a = nz[0]
            for b in nz[1:]:
                q = b[col] // a[col]
                for j in range(ncols):
                    b[j] -= q * a[j]
            rows = [r for r in rows if any(r)]
        nz = [r for r in rows if r[col] != 0]
        if nz:
            p = nz[0]
            rows.remove(p)
            if p[col] < 0:
                p = [-x for x in p]
            result.append(p)
    # reduce entries in pivot columns, left to right so that a reduction
    # never disturbs a pivot column that was already normalized
    for i in range(len(result)):
        pcol = next(j for j, x in enumerate(result[i]) if x != 0)
        for k in range(i):
            q = result[k][pcol] // result[i][pcol]
            if q:
                result[k] = [x - q * y for x, y in zip(result[k], result[i])]
    return tuple(tuple(r) for r in result)


def hnf_contains(basis: Mat, v) -> bool:
    """Exact membership of v in the lattice with HNF basis `basis`."""
    w = list(v)
    n = len(w)
    for row in basis:
        pcol = next(j for j, x in enumerate(row) if x != 0)
        if w[pcol]:
            if w[pcol] % row[pcol] != 0:
                return False
            q = w[pcol] // row[pcol]
            for j in range(n):
                w[j] -= q * row[j]
    return not any(w)


def hnf_reduce(basis: Mat, v) -> tuple:
    """Canonical residue of v modulo the lattice (floor division per pivot)."""
    w = list(v)
    n = len(w)
    for row in basis:
        pcol = next(j for j, x in enumerate(row) if x != 0)
        q = w[pcol] // row[pcol]
        if q:
            for j in range(n):
                w[j] -= q * row[j]
    return tuple(w)


def smith_normal_form(a: Mat):
    """Diagonalize A as D = U A V with unimodular U, V.

    Returns (divisors, U, V) where divisors are the nonzero diagonal
    entries of D. The divisibility chain is not enforced; callers here
    only need the diagonal form (determinant products, integer solving).
    """
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    m = [list(row) for row in a]
    u = [list(r) for r in identity_mat(nrows)] if nrows else []
    v = [list(r) for r in identity_mat(ncols)] if ncols else []

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in m:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_row(i, j, c):  # row_i += c * row_j
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]

    def add_col(i, j, c):  # col_i += c * col_j
        for r in m:
            r[i] += c * r[j]
        for r in v:
            r[i] += c * r[j]

    t = 0
    while t < min(nrows, ncols):
        # find a pivot
        piv = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if m[i][j] != 0:
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            # clear column t
            done = True
            for i in range(t + 1, nrows):
                if m[i][t]:
                    q = m[i][t] // m[t][t]
                    add_row(i, t, -q)
                    if m[i][t]:
                        swap_rows(t, i)
                        done = False
            for j in range(t + 1, ncols):
                if m[t][j]:
                    q = m[t][j] // m[t][t]
                    add_col(j, t, -q)
                    if m[t][j]:
                        swap_cols(t, j)
                        done = False
            if done:
                break
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    divisors = [m[i][i] for i in range(t)]
    return divisors, tuple(tuple(r) for r in u), tuple(tuple(r) for r in v)


def solve_integer(rows, rhs):
    """Solve A x = b over the integers.

    Returns (particular solution, kernel basis) or None when no integral
    solution exists. Solvability is decided exactly (no bound on x).
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    divisors, u, v = smith_normal_form(tuple(tuple(r) for r in rows))
    c = mat_vec(u, rhs)
    r = len(divisors)
    y = [0] * ncols
    for i in range(r):
        if c[i] % divisors[i] != 0:
            return None
        y[i] = c[i] // divisors[i]
    for i in range(r, nrows):
        if c[i] != 0:
            return None
    x = mat_vec(v, y)
    kernel = tuple(tuple(row[j] for row in v) for j in range(r, ncols))
    return tuple(x), kernel

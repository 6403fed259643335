import random
from fractions import Fraction
from operator import mul

from hypothesis import example, given, settings
from hypothesis import strategies as st

from affhur.linalg import (echelon_integer, hnf, hnf_pivots, hnf_reduce,
                           mat_mul, mat_vec, solve_integer, solve_rational)

small_int = st.integers(min_value=-6, max_value=6)


def square(n):
    return st.lists(st.lists(small_int, min_size=n, max_size=n),
                    min_size=n, max_size=n).map(lambda r: tuple(map(tuple, r)))


def solve_rational_reference(rows, rhs):
    """Gauss-Jordan elimination over Fraction: the oracle for solve_rational.

    Returns (particular solution, nullspace basis) or None, like the
    function it checks.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else len(rhs)
    m = [[Fraction(x) for x in rows[i]] + [Fraction(rhs[i])] for i in range(nrows)]
    pivots = []
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = 1 / m[row][col]
        m[row] = [x * inv for x in m[row]]
        for r in range(nrows):
            if r != row and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
    for r in range(row, nrows):
        if m[r][ncols] != 0:
            return None
    x = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        x[col] = m[r][ncols]
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, col in enumerate(pivots):
            v[col] = -m[r][fc]
        basis.append(tuple(v))
    return tuple(x), tuple(basis)


def hnf_reference(vectors, ncols: int):
    """The canonical row HNF by repeated division by the smallest entry:
    the oracle for `hnf`, which clears each column in one pass.

    Per column, the non-zero entries are sorted by absolute value and
    reduced modulo the smallest until one is left; that row, made
    positive, is the pivot row. The entries above each pivot are reduced
    into [0, pivot) at the end, left to right.
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
    pivots = [next(j for j, x in enumerate(r) if x) for r in result]
    for i, pcol in enumerate(pivots):
        for k in range(i):
            q = result[k][pcol] // result[i][pcol]
            if q:
                result[k] = [x - q * y for x, y in zip(result[k], result[i])]
    return tuple(tuple(r) for r in result)


@st.composite
def lattice_generators(draw):
    """(vectors, n): up to 20 random vectors in Z^n, n in 1..8, with
    entries bounded by 1, 6, 10^6 or 10^30, followed by up to 40 vectors
    made from them: zero vectors, repeats and integer combinations of two."""
    n = draw(st.integers(1, 8))
    bound = draw(st.sampled_from([1, 6, 10 ** 6, 10 ** 30]))
    # hypothesis favours small integers; the last two draw from the ends
    entry = st.one_of(small_int, st.integers(-bound, bound),
                      st.integers(bound // 2, bound),
                      st.integers(-bound, -(bound // 2)))
    vectors = draw(st.lists(st.tuples(*[entry] * n), max_size=20))
    if vectors:
        index = st.integers(0, len(vectors) - 1)
        size = draw(st.integers(0, 40))
        for kind, i, j, a, b in draw(st.lists(st.tuples(
                st.sampled_from(["zero", "repeat", "combination"]), index, index,
                small_int, small_int), min_size=size, max_size=size)):
            if kind == "zero":
                vectors.append((0,) * n)
            elif kind == "repeat":
                vectors.append(vectors[i])
            else:
                vectors.append(tuple(a * x + b * y
                                     for x, y in zip(vectors[i], vectors[j])))
    return vectors, n


def _wide_generators(seed: int):
    """60 vectors of Z^8: 20 with entries up to 10^30, a zero vector, 9
    repeats and 30 combinations of two of them."""
    rng = random.Random(seed)
    vectors = [tuple(rng.randint(-10 ** 30, 10 ** 30) for _ in range(8))
               for _ in range(20)]
    vectors.append((0,) * 8)
    vectors += [rng.choice(vectors[:20]) for _ in range(9)]
    for _ in range(30):
        x, y = rng.sample(vectors[:20], 2)
        a, b = rng.randint(-6, 6), rng.randint(-6, 6)
        vectors.append(tuple(a * u + b * v for u, v in zip(x, y)))
    rng.shuffle(vectors)
    return vectors, 8


@settings(max_examples=150, deadline=None)
@given(lattice_generators())
@example(([], 1))
@example(([(0,) * 8] * 3, 8))
@example(([(6, 10, 15), (6, 10, 15), (12, 20, 30), (0, 0, 0)], 3))
@example(_wide_generators(0))
def test_hnf_matches_reference(data):
    vectors, n = data
    assert hnf(vectors, n) == hnf_reference(vectors, n)


def test_hnf_canonical_example():
    assert hnf([(2, 0), (0, 2), (1, 1)], 2) == ((1, 1), (0, 2))


def test_hnf_empty_and_zero():
    assert hnf([], 3) == ()
    assert hnf([(0, 0, 0)], 3) == ()


def test_hnf_is_basis_of_same_lattice():
    vecs = [(2, 4), (3, 1), (5, 5)]
    basis = hnf(vecs, 2)
    for v in vecs:
        assert not any(hnf_reduce(basis, hnf_pivots(basis), v))
    # basis vectors generate nothing outside the original span: same HNF
    assert hnf(list(basis) + vecs, 2) == basis


def test_hnf_reduce_residue():
    basis = hnf([(1, 1), (0, 2)], 2)
    pivots = hnf_pivots(basis)
    assert pivots == (0, 1)
    assert hnf_reduce(basis, pivots, (5, 3)) == (0, 0)
    assert hnf_reduce(basis, pivots, (0, 1)) == (0, 1)


def hnf_contains_reference(basis, v) -> bool:
    """Membership with each row's pivot found on every call."""
    w = list(v)
    for row in basis:
        pcol = next(j for j, x in enumerate(row) if x != 0)
        if w[pcol]:
            if w[pcol] % row[pcol] != 0:
                return False
            q = w[pcol] // row[pcol]
            w = [x - q * y for x, y in zip(w, row)]
    return not any(w)


def hnf_reduce_reference(basis, v) -> tuple:
    """The residue with each row's pivot found on every call."""
    w = list(v)
    for row in basis:
        pcol = next(j for j, x in enumerate(row) if x != 0)
        q = w[pcol] // row[pcol]
        w = [x - q * y for x, y in zip(w, row)]
    return tuple(w)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.lists(small_int, min_size=n, max_size=n), max_size=5),
    st.lists(st.lists(st.integers(-30, 30), min_size=n, max_size=n),
             min_size=1, max_size=6))))
def test_hnf_pivots_match_the_per_call_search(data):
    vectors, probes = data
    n = len(probes[0])
    basis = hnf(vectors, n)
    pivots = hnf_pivots(basis)
    assert list(pivots) == sorted(set(pivots))  # echelon: strictly increasing
    # the residue is zero exactly on the members, and every vector of the
    # span is one
    for v in list(vectors) + probes:
        assert hnf_reduce(basis, pivots, v) == hnf_reduce_reference(basis, v)
        assert (not any(hnf_reduce(basis, pivots, v))) == \
            hnf_contains_reference(basis, v)
    for v in vectors:
        assert not any(hnf_reduce(basis, pivots, v))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(small_int, small_int, small_int),
                min_size=1, max_size=4))
def test_hnf_order_independent(vectors):
    assert hnf(vectors, 3) == hnf(list(reversed(vectors)), 3)


def matrix(rows, cols):
    return st.lists(st.lists(small_int, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def mat_mul_operands(draw):
    n, k, m = (draw(st.integers(min_value=1, max_value=4)) for _ in range(3))
    a, b = draw(matrix(n, k)), draw(matrix(k, m))
    if draw(st.booleans()):  # tuples of tuples as well as lists of lists
        a, b = tuple(map(tuple, a)), tuple(map(tuple, b))
    return a, b, draw(st.lists(small_int, min_size=k, max_size=k))


@settings(max_examples=80, deadline=None)
@given(mat_mul_operands())
def test_mat_mul_and_mat_vec_entrywise(operands):
    a, b, v = operands
    n, k, m = len(a), len(b), len(b[0])
    expected = tuple(tuple(sum(a[i][t] * b[t][j] for t in range(k))
                           for j in range(m)) for i in range(n))
    assert mat_mul(a, b) == expected
    assert mat_vec(a, v) == tuple(sum(a[i][t] * v[t] for t in range(k))
                                  for i in range(n))


def test_solve_rational_inconsistent():
    assert solve_rational([(1, 1), (1, 1)], [0, 1]) is None


def test_solve_rational_with_nullspace():
    x, basis = solve_rational([(1, 1)], [2])
    assert x[0] + x[1] == 2
    assert len(basis) == 1
    assert basis[0][0] + basis[0][1] == 0


def identity_mat(n: int):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def smith_normal_form(a):
    """Diagonalize A as D = U A V with unimodular U, V.

    Returns (divisors, U, V) where divisors are the nonzero diagonal
    entries of D. The divisibility chain is not enforced; the oracle below
    only needs the diagonal form.
    """
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    m = [list(row) for row in a]
    u = [list(r) for r in identity_mat(nrows)]
    v = [list(r) for r in identity_mat(ncols)]

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
        piv = next(((i, j) for i in range(t, nrows) for j in range(t, ncols)
                    if m[i][j] != 0), None)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            # clear row and column t by their smallest non-zero entry;
            # pivoting on each remainder as soon as it appears lets the other
            # entries grow without bound
            _, i, j = min([(abs(m[i][t]), i, t) for i in range(t, nrows) if m[i][t]]
                          + [(abs(m[t][j]), t, j) for j in range(t + 1, ncols)
                             if m[t][j]])
            swap_rows(t, i)
            swap_cols(t, j)
            done = True
            for i in range(t + 1, nrows):
                if m[i][t]:
                    add_row(i, t, -(m[i][t] // m[t][t]))
                    done = done and not m[i][t]
            for j in range(t + 1, ncols):
                if m[t][j]:
                    add_col(j, t, -(m[t][j] // m[t][t]))
                    done = done and not m[t][j]
            if done:
                break
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    divisors = [m[i][i] for i in range(t)]
    return divisors, tuple(tuple(r) for r in u), tuple(tuple(r) for r in v)


def solve_integer_reference(rows, rhs):
    """Solve A x = b over the integers through the Smith normal form: the
    oracle for solve_integer, which shares no code with it.

    Returns (particular solution, kernel basis) or None when no integral
    solution exists.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    divisors, u, v = smith_normal_form(tuple(tuple(r) for r in rows))
    c = [sum(map(mul, row, rhs)) for row in u]
    r = len(divisors)
    if any(c[i] % divisors[i] for i in range(r)) or any(c[r:]):
        return None
    y = [c[i] // divisors[i] for i in range(r)] + [0] * (ncols - r)
    x = tuple(sum(map(mul, row, y)) for row in v)
    kernel = tuple(tuple(row[j] for row in v) for j in range(r, ncols))
    return x, kernel


def test_smith_normal_form_diagonalizes():
    a = ((2, 4, 4), (-6, 6, 12), (10, 4, 16))
    divisors, u, v = smith_normal_form(a)
    d = mat_mul(mat_mul(u, a), v)
    for i, row in enumerate(d):
        for j, x in enumerate(row):
            if i == j and i < len(divisors):
                assert x == divisors[i] > 0
            else:
                assert x == 0
    # unimodular: the rows span the whole integer lattice
    assert hnf(u, len(u)) == identity_mat(len(u))
    assert hnf(v, len(v)) == identity_mat(len(v))


def test_solve_integer():
    assert solve_integer([(2, 0), (0, 3)], (4, 9))
    assert not solve_integer([(2,)], (3,))
    assert solve_integer_reference([(2, 0), (0, 3)], (4, 9)) == ((2, 3), ())
    assert solve_integer_reference([(2,)], (3,)) is None


def test_solve_integer_kernel():
    sol = solve_integer_reference([(1, 1)], (3,))
    assert sol is not None
    x, kernel = sol
    assert x[0] + x[1] == 3
    assert len(kernel) == 1 and kernel[0][0] + kernel[0][1] == 0


@settings(max_examples=60, deadline=None)
@given(square(2), st.tuples(small_int, small_int))
def test_solve_integer_verified(m, rhs):
    sol = solve_integer_reference(m, rhs)
    assert solve_integer(m, rhs) == (sol is not None)
    if sol is not None:
        x, kernel = sol
        assert mat_vec(m, x) == rhs
        assert all(not any(mat_vec(m, k)) for k in kernel)
    else:
        # over the rationals there must also be no *integral* solution;
        # check by brute force in a small box
        box = range(-8, 9)
        assert not any(mat_vec(m, (a, b)) == rhs for a in box for b in box)


@st.composite
def integer_systems(draw):
    """A = B C with B of shape rows x r and C of shape r x cols, so rank A
    is at most r: r = 0 gives the zero matrix, r < min(rows, cols) a
    rank-deficient one. The right-hand side is zero, A x for an integral
    x, or arbitrary."""
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    r = draw(st.integers(0, min(nrows, ncols)))
    b, c = draw(matrix(nrows, r)), draw(matrix(r, ncols))
    rows = [tuple(sum(b[i][k] * c[k][j] for k in range(r)) for j in range(ncols))
            for i in range(nrows)]
    kind = draw(st.sampled_from(["zero", "image", "any"]))
    if kind == "zero":
        rhs = (0,) * nrows
    elif kind == "image":
        rhs = mat_vec(rows, draw(st.lists(small_int, min_size=ncols,
                                          max_size=ncols)))
    else:
        rhs = tuple(draw(st.lists(small_int, min_size=nrows, max_size=nrows)))
    return rows, rhs


@settings(max_examples=200, deadline=None)
@given(integer_systems())
# a system on which the Smith normal form reference once ran for minutes
@example(([(37, -45, -1, -11, -34), (-14, -30, -34, -26, -8),
           (-1, -20, -33, -32, -41), (-59, 85, 44, 2, 65)], (0, 0, 0, 0)))
def test_solve_integer_matches_reference(system):
    rows, rhs = system
    sol = solve_integer_reference(rows, rhs)
    assert solve_integer(rows, rhs) == (sol is not None)
    if sol is not None:
        assert mat_vec(rows, sol[0]) == rhs


@st.composite
def linear_systems(draw):
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    rows = draw(matrix(nrows, ncols))
    if draw(st.booleans()):  # a consistent right-hand side
        x = draw(st.lists(small_int, min_size=ncols, max_size=ncols))
        rhs = list(mat_vec(rows, x))
    else:
        rhs = draw(st.lists(small_int, min_size=nrows, max_size=nrows))
    return rows, rhs


@settings(max_examples=80, deadline=None)
@given(linear_systems(), st.lists(small_int, min_size=5, max_size=5))
def test_echelon_integer_solves_the_system(system, choice):
    rows, rhs = system
    ech = echelon_integer(rows, rhs)
    ref = solve_rational_reference(rows, rhs)
    assert (ech is None) == (ref is None)
    if ech is None:
        return
    pivots, free = ech
    ncols = len(rows[0])
    assert len(pivots) == ncols - len(ref[1])  # the rank
    assert sorted([c for c, _ in pivots] + list(free)) == list(range(ncols))
    # any free coordinates determine the pivot coordinates of a solution
    x = [Fraction(0)] * ncols
    for f, c in zip(free, choice):
        x[f] = Fraction(c)
    for col, row in pivots:
        assert all(row[c] == 0 for c, _ in pivots if c != col)
        x[col] = Fraction(row[-1] - sum(row[f] * x[f] for f in free), row[col])
    assert list(mat_vec(rows, x)) == list(rhs)


@settings(max_examples=200, deadline=None)
@given(linear_systems())
def test_solve_rational_matches_reference(system):
    # the reduced echelon form is unique, so the answers agree exactly,
    # basis vectors in the same order
    rows, rhs = system
    assert solve_rational(rows, rhs) == solve_rational_reference(rows, rhs)


def test_solve_rational_fractional_solution():
    x, basis = solve_rational([(2, 4), (0, 3)], [1, 2])
    assert x == (Fraction(-5, 6), Fraction(2, 3)) and basis == ()
    x, basis = solve_rational([(0, 2, 1)], [3])
    assert x == (0, Fraction(3, 2), 0)
    assert basis == ((1, 0, 0), (0, Fraction(-1, 2), 1))

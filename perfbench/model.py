"""The benchmark's own exact model of finite and affine Weyl groups.

It shares no code with affhur and is built from Cartan matrices alone.
The affine reflection s_{alpha,k} is the integer (n+1)x(n+1) matrix of
x -> x - (<alpha, x> - k) alpha^vee acting on (x, 1), with x in
simple-coroot coordinates. A reflection is named by (root, level) with the
root a tuple of simple-root coordinates, canonically positive, exactly as
affhur's AffineReflection; s_{alpha,k} = s_{-alpha,-k}.

Braid letters follow affhur's convention: letter i > 0 is sigma_i,
(a, b) -> (a b a, a) at slots i, i+1; letter -i is its inverse,
(a, b) -> (b, b a b).
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def cartan_matrix(family: str, n: int):
    """A[i][j] = <alpha_j, alpha_i^vee>, Bourbaki numbering."""
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def link(i, j, aij=-1, aji=-1):
        a[i][j], a[j][i] = aij, aji

    if family == "A":
        for i in range(n - 1):
            link(i, i + 1)
    elif family in ("B", "C"):
        for i in range(n - 2):
            link(i, i + 1)
        link(n - 2, n - 1, *((-1, -2) if family == "B" else (-2, -1)))
    elif family == "D":
        for i in range(n - 2):
            link(i, i + 1)
        link(n - 3, n - 1)
    elif family == "F" and n == 4:
        link(0, 1)
        link(1, 2, -1, -2)
        link(2, 3)
    elif family == "G" and n == 2:
        link(0, 1, -3, -1)
    else:
        raise ValueError(f"no Cartan matrix for {family}{n}")
    return tuple(tuple(row) for row in a)


def mat_mul(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols)
                 for row in a)


def rank_and_solve(rows, rhs):
    """Rank of the rows, and whether rows . x = rhs has a rational solution."""
    m = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    ncols = len(rows[0])
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][col]:
                f = m[i][col] / m[r][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r, all(not row[ncols] for row in m[r:])


def determinant(a) -> Fraction:
    m = [[Fraction(x) for x in row] for row in a]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for i in range(col + 1, n):
            f = m[i][col] / m[col][col]
            m[i] = [x - f * y for x, y in zip(m[i], m[col])]
    return det


class Group:
    """Roots, coroots and affine reflection matrices of one irreducible type."""

    def __init__(self, name: str):
        self.name = name
        self.family, self.rank = name[0], int(name[1:])
        n = self.rank
        a = self.cartan = cartan_matrix(self.family, n)
        # symmetrizer: d_i A_ij = d_j A_ji, smallest entry 1
        d = [None] * n
        d[0] = Fraction(1)
        stack = [0]
        while stack:
            i = stack.pop()
            for j in range(n):
                if a[i][j] and d[j] is None:
                    d[j] = d[i] * a[i][j] / a[j][i]
                    stack.append(j)
        low = min(d)
        self.symmetrizer = tuple(int(x / low) for x in d)
        # roots and coroots together: s_i acts on root coordinates through
        # A and on coroot coordinates through its transpose
        unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        coroot = {u: (u, self.symmetrizer[i]) for i, u in enumerate(unit)}
        frontier = list(coroot)
        while frontier:
            nxt = []
            for v in frontier:
                cv, length = coroot[v]
                for i in range(n):
                    p = sum(a[i][j] * v[j] for j in range(n))
                    q = sum(a[j][i] * cv[j] for j in range(n))
                    w = tuple(x - p * (j == i) for j, x in enumerate(v))
                    if w not in coroot:
                        coroot[w] = (tuple(x - q * (j == i) for j, x in enumerate(cv)),
                                     length)
                        nxt.append(w)
            frontier = nxt
        self.roots = sorted(coroot)
        self.coroot = {r: c for r, (c, _) in coroot.items()}
        long_d = max(self.symmetrizer)
        self.long = {r for r, (_, length) in coroot.items() if length == long_d}
        self.positive_roots = [r for r in self.roots if min(r) >= 0]
        self.highest_root = max(self.positive_roots, key=sum)
        self._matrix = {}
        self._by_linear = {self.matrix(r, 0): r for r in self.positive_roots}

    def pairing_row(self, root):
        """The row l with l . x = <root, x> for x in coroot coordinates."""
        n = self.rank
        return tuple(sum(self.cartan[i][j] * root[j] for j in range(n))
                     for i in range(n))

    def matrix(self, root, level: int):
        key = (root, level)
        m = self._matrix.get(key)
        if m is None:
            n = self.rank
            cv = self.coroot[root]
            row = self.pairing_row(root)
            m = tuple(tuple((i == j) - cv[i] * row[j] for j in range(n)) + (level * cv[i],)
                      for i in range(n)) + ((0,) * n + (1,),)
            self._matrix[key] = m
        return m

    def recognise(self, m):
        """(positive root, level) of a reflection matrix, or None."""
        n = self.rank
        root = self._by_linear.get(tuple(tuple(row[:n]) + (0,) for row in m[:n])
                                   + ((0,) * n + (1,),))
        if root is None:
            return None
        cv = self.coroot[root]
        i = next(i for i, c in enumerate(cv) if c)
        level, rest = divmod(m[i][n], cv[i])
        if rest or self.matrix(root, level) != m:
            return None
        return root, level

    def product(self, refs):
        out = None
        for root, level in refs:
            m = self.matrix(root, level)
            out = m if out is None else mat_mul(out, m)
        return out

    def move(self, t: tuple, letter: int) -> tuple:
        i = abs(letter)
        if not 1 <= i < len(t):
            raise ValueError(f"letter {letter} out of range for a {len(t)}-tuple")
        a, b = self.matrix(*t[i - 1]), self.matrix(*t[i])
        if letter > 0:
            pair = (self.recognise(mat_mul(mat_mul(a, b), a)), t[i - 1])
        else:
            pair = (t[i], self.recognise(mat_mul(mat_mul(b, a), b)))
        return t[:i - 1] + pair + t[i + 1:]

    def replay(self, t: tuple, word) -> tuple:
        for letter in word:
            t = self.move(t, letter)
        return t

    def conjugate(self, a, b):
        """s_a s_b s_a by the closed form s(s_alpha(beta), l - k <beta, alpha^vee>).

        Used only to make inputs quickly; every check replays with matrices.
        """
        (alpha, k), (beta, l) = a, b
        p = sum(c * v for c, v in zip(self.coroot[alpha], self.pairing_row(beta)))
        root = tuple(y - p * x for x, y in zip(alpha, beta))
        level = l - k * p
        if min(root) < 0:
            root, level = tuple(-x for x in root), -level
        return root, level

    def quick_replay(self, t: tuple, word) -> tuple:
        """replay() through the closed form."""
        for letter in word:
            i = abs(letter)
            a, b = t[i - 1], t[i]
            pair = (self.conjugate(a, b), a) if letter > 0 else (b, self.conjugate(b, a))
            t = t[:i - 1] + pair + t[i + 1:]
        return t

    def simple_affine_tuple(self) -> tuple:
        n = self.rank
        return tuple((tuple(int(i == j) for j in range(n)), 0)
                     for i in range(n)) + ((self.highest_root, 1),)

    # ------------------------------------------------------- element facts

    def reflect_root(self, a, b):
        """s_a(b) = b - <b, a^vee> a."""
        p = sum(c * v for c, v in zip(self.coroot[a], self.pairing_row(b)))
        return tuple(y - p * x for x, y in zip(a, b))

    def generates_finite(self, roots) -> bool:
        """The reflections of the roots generate W0: their root closure is all."""
        if not hasattr(self, "_reflect"):
            index = {r: i for i, r in enumerate(self.roots)}
            self._reflect = [[index[self.reflect_root(a, b)] for b in self.roots]
                             for a in self.roots]
            self._negate = [index[tuple(-x for x in r)] for r in self.roots]
        index = {r: i for i, r in enumerate(self.roots)}
        closed = {index[r] for r in roots}
        closed |= {self._negate[i] for i in closed}
        frontier = list(closed)
        while frontier:
            nxt = []
            for b in frontier:
                for a in list(closed):
                    for z in (self._reflect[a][b], self._reflect[b][a]):
                        if z not in closed:
                            closed.add(z)
                            nxt.append(z)
            frontier = nxt
        return len(closed) == len(self.roots)

    def linear_part(self, m):
        n = self.rank
        return tuple(tuple(row[:n]) for row in m[:n])

    def codim_fixed(self, m) -> int:
        """Codimension of the fixed space of the linear part."""
        n = self.rank
        rows = [[m[i][j] - (i == j) for j in range(n)] for i in range(n)]
        return rank_and_solve(rows, [0] * n)[0]

    def has_fixed_point(self, m) -> bool:
        n = self.rank
        rows = [[m[i][j] - (i == j) for j in range(n)] for i in range(n)]
        return rank_and_solve(rows, [-m[i][n] for i in range(n)])[1]

    def det_linear(self, m) -> int:
        return int(determinant(self.linear_part(m)))

    # ---------------------------------------------------------- brute force

    def window(self, level_bound: int):
        return [(r, k) for r in self.positive_roots
                for k in range(-level_bound, level_bound + 1)]

    def factorizations(self, target, length: int, level_bound: int) -> set:
        """Every length-m tuple from the level window whose product is target.

        Meets in the middle: a left half p with product P needs a right
        half with product P^-1 target, and P^-1 is p's reversed product
        because reflections are involutions.
        """
        refs = self.window(level_bound)
        left_len = length // 2
        right = {}
        for q in itertools.product(refs, repeat=length - left_len):
            right.setdefault(self.product(q), []).append(q)
        out = set()
        for p in itertools.product(refs, repeat=left_len):
            need = target if not p else mat_mul(self.product(reversed(p)), target)
            for q in right.get(need, ()):
                out.add(p + q)
        return out

    def orbit(self, t: tuple, node_limit: int = 10 ** 5) -> set:
        """Breadth-first Hurwitz orbit; raises if it exceeds node_limit."""
        seen = {t}
        frontier = [t]
        letters = [s * i for i in range(1, len(t)) for s in (1, -1)]
        while frontier:
            nxt = []
            for u in frontier:
                for letter in letters:
                    v = self.move(u, letter)
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            if len(seen) > node_limit:
                raise RuntimeError("model orbit exceeds its node limit")
            frontier = nxt
        return seen

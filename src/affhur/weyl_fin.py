"""Finite Weyl group elements, absolute length and reflection factorizations.

An element is stored as the permutation it induces on the root system:
`perm[i]` is the index of the image of root i, with roots indexed in the
order of `RootSystem.roots`. Multiplication composes permutations and
inversion inverts one, so group operations do no arithmetic. The
per-root-system data lives in one shared `RootTable`, the reflection
coding included: s_alpha is coded by the index of +-alpha in
`RootSystem.positive_roots`, and every module reads the map between
roots, codes and permutations from the table. The action on coroot
coordinates is read from it once per element and memoized there; the
matrix of the action on root coordinates is derived on demand.

`root_index_sequences` is the one search over reflection sequences. It
runs on raw root permutations and yields codes, which the affine
enumeration of `affhur.quasicox` and the stage-2 count of `affhur.verify`
use as they are; `root_sequences` decodes them to roots for the finite
quasi-Coxeter tests and the product-form check of `affhur.verify`. The
reduced factorizations of w are its sequences of length l_T(w). The root
closure of a set of reflections is an orbit of the same permutations on
root indices, started from the reflections' codes: `smallest_subsystem`
returns it, `is_parabolic` compares it with the roots that fix the
reflections' common fixed space, and `generates_w0_codes` asks whether it
is all of the roots. `generates_w0_codes` is memoized per (root system,
frozenset of codes) in an `lru_cache` of `SEARCH_MEMO_SIZE` entries;
`generates_w0` asks it of the codes of the roots it is given.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import lcm
from operator import itemgetter, mul

from .linalg import Mat, echelon_integer, solve_rational
from .rootsys import (Root, RootSystem, RootSystemError, bilinear_row, coroot,
                      reflect)

# Entries per memo of an answer keyed by its input: the Hurwitz searches of
# `affhur.hurwitz`, the checks of `quasicox.connect_reduced` and
# `generates_w0_codes`. An entry of a rank 3 or 4 search (key, word and
# cache link) takes about 400 bytes, so a full search memo holds about 25 MB.
SEARCH_MEMO_SIZE = 1 << 16
# The default node bound of a search: those of `affhur.hurwitz` and the ones
# `quasicox.connect_reduced`, `affhur.verify` and the `affhur` command run.
SEARCH_NODE_LIMIT = 10 ** 6
# builds a group element from its fields without the Python-level __new__
# that namedtuple generates: the products of the searches build millions
_new = tuple.__new__


class RootTable:
    """The data of one root system that its group elements share.

    Built once per root system `rs` by `root_table`. It compares by identity,
    which keeps elements of different root systems (B2 and C2, say) apart
    even when their permutations coincide. `roots`, `index`, `simple` and
    `coroots` hold the roots, the dict from root to index, the simple-root
    indices and each root's coroot in simple-coroot coordinates.

    The reflection coding: `root_codes` maps every root alpha, either
    sign, to the code j of s_alpha, the index of +-alpha in
    `RootSystem.positive_roots`, and `code` reads it. `reflections[j]` is
    (root index of the positive root, root permutation of s_alpha, an
    `itemgetter` on it), `elements[j]` the shared `FiniteWeylElement` of
    s_alpha, and `perm_codes` maps each permutation back to its code.

    `inverses` memoizes inversion: Hurwitz moves invert the same few
    elements over and over. `lengths` memoizes absolute length, which the
    factorization searches ask of the same elements over and over.
    `coactions` memoizes the rows of the action on coroot coordinates,
    which every affine product and inverse applies. Each memo holds at
    most one entry per group element, keyed by its root permutation.
    """

    __slots__ = ("rs", "roots", "index", "simple", "coroots", "identity",
                 "root_codes", "reflections", "elements", "perm_codes",
                 "inverses", "lengths", "coactions")

    def __init__(self, rs: RootSystem):
        self.rs = rs
        roots = self.roots = rs.roots
        index = self.index = {r: i for i, r in enumerate(roots)}
        self.simple = tuple(index[a] for a in rs.simple_roots)
        self.coroots = tuple(coroot(rs, r) for r in roots)
        self.identity = tuple(range(len(roots)))
        positive = rs.positive_roots
        self.root_codes = {r: j for j, a in enumerate(positive) for r in (a, -a)}
        perms = [tuple(index[reflect(rs, a, b)] for b in roots) for a in positive]
        # a root system has at least two roots, so itemgetter returns a tuple
        self.reflections = tuple((index[a], perm, itemgetter(*perm))
                                 for a, perm in zip(positive, perms))
        self.elements = tuple(FiniteWeylElement(perm, self) for perm in perms)
        self.perm_codes = {perm: j for j, perm in enumerate(perms)}
        self.inverses: dict = {}
        self.lengths: dict = {}
        self.coactions: dict = {}

    def code(self, root: Root) -> int:
        """The code of s_root: the index of +-root in
        `RootSystem.positive_roots`."""
        j = self.root_codes.get(root)
        if j is None:
            raise RootSystemError(f"{root.coords} is not a root")
        return j

    def inverse(self, perm: tuple) -> tuple:
        """The inverse of a root permutation."""
        inv = self.inverses.get(perm)
        if inv is None:
            out = [0] * len(perm)
            for i, j in enumerate(perm):
                out[j] = i
            inv = self.inverses[perm] = tuple(out)
        return inv

    def coact(self, perm: tuple, v) -> tuple:
        """Image of a vector in simple-coroot coordinates under the element
        with root permutation `perm`.

        Column j of the action is the coroot of w(alpha_j), the image of the
        j-th simple coroot.
        """
        rows = self.coactions.get(perm)
        if rows is None:
            rows = self.coactions[perm] = tuple(
                zip(*[self.coroots[perm[s]] for s in self.simple]))
        return tuple([sum(map(mul, row, v)) for row in rows])


@lru_cache(maxsize=None)
def root_table(rs: RootSystem) -> RootTable:
    return RootTable(rs)


class FiniteWeylElement(namedtuple("FiniteWeylElement", "perm table")):
    """An element by its root permutation, perm[i] the index of the image
    of root i, and the root table it indexes. Equal as the tuple (perm,
    table); the hash reads the permutation alone."""

    __slots__ = ()

    def __mul__(self, other: "FiniteWeylElement") -> "FiniteWeylElement":
        # (uv)(root i) = u(v(root i)); a root system has at least two roots,
        # so itemgetter returns a tuple
        return _new(FiniteWeylElement,
                    (itemgetter(*other.perm)(self.perm), self.table))

    def inverse(self) -> "FiniteWeylElement":
        return FiniteWeylElement(self.table.inverse(self.perm), self.table)

    def __hash__(self) -> int:
        return hash(self.perm)

    def act_root(self, r: Root) -> Root:
        t = self.table
        return t.roots[self.perm[t.index[r]]]

    @property
    def matrix(self) -> Mat:
        """Action on root coordinates; column j is w(alpha_j)."""
        t = self.table
        return tuple(zip(*(t.roots[self.perm[s]].coords for s in t.simple)))

    @property
    def rank(self) -> int:
        return len(self.table.simple)

    def is_identity(self) -> bool:
        return self.perm == self.table.identity


def identity_element(rs: RootSystem) -> FiniteWeylElement:
    t = root_table(rs)
    return FiniteWeylElement(t.identity, t)


def reflection_element(rs: RootSystem, alpha: Root) -> FiniteWeylElement:
    """s_alpha as a root permutation, the root table's shared element;
    identical for alpha and -alpha."""
    t = root_table(rs)
    return t.elements[t.code(alpha)]


def root_of_reflection(rs: RootSystem, w: FiniteWeylElement) -> Root | None:
    """The positive root of a reflection, or None if w is not a reflection
    of the group of `rs`."""
    t = root_table(rs)
    j = t.perm_codes.get(w.perm) if w.table is t else None
    return None if j is None else t.roots[t.reflections[j][0]]


def absolute_length(w: FiniteWeylElement) -> int:
    """Reflection length, computed as the codimension of the fixed space.

    That is the rank of w - 1, counted as the pivots of its transpose: row
    j is w(alpha_j) - alpha_j, read from the root table.
    """
    length = w.table.lengths.get(w.perm)
    return _perm_length(w.table, w.perm) if length is None else length


def _perm_length(t: RootTable, perm: tuple) -> int:
    """`absolute_length` of the element with root permutation `perm`,
    computed and stored in the root table's memo."""
    rows = [tuple(x - 1 if i == j else x
                  for i, x in enumerate(t.roots[perm[s]].coords))
            for j, s in enumerate(t.simple)]
    pivots, _ = echelon_integer(rows, [0] * len(rows))
    length = t.lengths[perm] = len(pivots)
    return length


def root_index_sequences(rs: RootSystem, target: FiniteWeylElement, m: int):
    """Root sequences whose reflections multiply to `target`, lazily.

    Yields (indices, columns) for every b_1..b_m of positive roots with
    s_{b_1} ... s_{b_m} = target, in itertools.product order; indices[i]
    is the index of b_i in `RootSystem.positive_roots`, the code of
    `RootTable`. For m = 0 that is ((), ()) when target is the
    identity. A depth-first search over prefixes p = s_{b_1} ... s_{b_i}
    keeps the remainder r = p^-1 target and cuts a prefix unless
    l_T(r) <= m - i. l_T(r) has the parity of det r, so once l_T(target)
    has the parity of m, that of l_T(r) is the parity of m - i; a
    remainder passing the test is then a product of exactly m - i
    reflections, and every branch kept ends in a sequence. For
    m = l_T(target) the test reads l_T(r) = m - i: the sequences are the
    reduced factorizations. columns[i] is the coroot of
    s_{b_1} ... s_{b_{i-1}}(b_i): levels k_i make the affine reflections
    s_{b_i,k_i} multiply to TR(c) target exactly when
    sum_i k_i columns[i] = c.

    The search runs on root permutations, not on elements: the remainder
    s_b r has the permutation itemgetter(*r)(perm of s_b), and l_T is read
    from the memo of the root table.
    """
    table = root_table(rs)
    refl, index_of = table.reflections, table.perm_codes
    coroots = table.coroots
    lengths = table.lengths
    seq: list = [0] * m
    cols: list = [None] * m

    def dfs(i, prefix, rest):
        left = m - i - 1  # reflections still to choose after this one
        times_rest = itemgetter(*rest)
        for j, (idx, perm, times_s) in enumerate(refl):
            nxt = times_rest(perm)  # s_b r
            length = lengths.get(nxt)
            if length is None:
                length = _perm_length(table, nxt)
            if length > left:
                continue
            seq[i] = j
            cols[i] = coroots[prefix[idx]]
            if left > 1:
                yield from dfs(i + 1, times_s(prefix), nxt)  # p s_b
                continue
            # nxt is a reflection: the test that admitted it allows no other
            last = index_of[nxt]
            seq[i + 1] = last
            cols[i + 1] = coroots[prefix[perm[refl[last][0]]]]
            yield tuple(seq), tuple(cols)

    length = absolute_length(target)
    if m == 0:
        if length == 0:
            yield (), ()
    elif m == 1:
        if length == 1:
            j = index_of[target.perm]
            yield (j,), (coroots[refl[j][0]],)
    elif length <= m and (m - length) % 2 == 0:
        yield from dfs(0, table.identity, target.perm)


def root_sequences(rs: RootSystem, target: FiniteWeylElement, m: int):
    """`root_index_sequences` with each index decoded to its positive root:
    (roots, columns), in the same order."""
    pos = rs.positive_roots
    for seq, cols in root_index_sequences(rs, target, m):
        yield tuple([pos[j] for j in seq]), cols


def generates_w0(rs: RootSystem, roots) -> bool:
    """Whether the reflections of the given roots generate the full group:
    `generates_w0_codes` of their codes."""
    roots = list(roots)
    if not roots:
        raise RootSystemError("generates_w0 needs a non-empty root set")
    return generates_w0_codes(rs, frozenset(map(root_table(rs).code, roots)))


@lru_cache(maxsize=SEARCH_MEMO_SIZE)
def generates_w0_codes(rs: RootSystem, codes: frozenset) -> bool:
    """Whether the reflections of the positive roots with indices `codes`
    (in `RootSystem.positive_roots`) generate the full group.

    They do exactly when their root closure is every root: the reflection
    subgroup they generate has the closure as its root system, and W is
    generated by the reflections of all roots. The tests compare this with
    the lattice criterion of Baumeister, Dyer, Stump and Wegener: the
    roots span the root lattice and their coroots the coroot lattice.
    Answers are memoized per (rs, codes); no set generates for an empty
    `codes`.
    """
    return len(_closure_indices(rs, codes)) == len(rs.roots)


def fixed_affine_subspace(rs: RootSystem, roots, levels):
    """Common fixed points of the affine reflections s_{beta_i, k_i}.

    Solves (v | beta_i) = k_i exactly in rational simple-root coordinates
    and returns (point, basis of the direction), or None when the
    hyperplanes have empty intersection. No reflections fix everything.
    """
    # with no roots, the one equation 0 = 0 gives the system its width
    rows = [bilinear_row(rs, r) for r in roots] or [(0,) * rs.rank]
    return solve_rational(rows, list(levels) or [0])


def _closure_indices(rs: RootSystem, codes) -> set[int]:
    """Root indices of the orbit of the positive roots with indices `codes`
    under their reflections.

    One permutation lookup per root and generator, on the permutations of
    `RootTable.reflections`.
    """
    refl = root_table(rs).reflections
    perms = [refl[j][1] for j in codes]
    seen = {refl[j][0] for j in codes}
    todo = list(seen)
    while todo:
        i = todo.pop()
        for perm in perms:
            j = perm[i]
            if j not in seen:
                seen.add(j)
                todo.append(j)
    return seen


def smallest_subsystem(rs: RootSystem, roots) -> frozenset[Root]:
    """The smallest root subsystem containing the given roots.

    It is their orbit under the group G generated by the s_beta: the orbit
    contains them and is closed under its own reflections, since
    s_{w(beta)} = w s_beta w^-1 lies in G for every w in G, and every set
    with both properties contains it.
    """
    roots = list(roots)
    if not roots:
        raise RootSystemError("smallest_subsystem needs a non-empty root set")
    table = root_table(rs)
    codes = frozenset(map(table.code, roots))
    return frozenset(table.roots[i] for i in _closure_indices(rs, codes))


def _integral(v) -> tuple[int, list[int]]:
    """(d, d v) for the least d > 0 that makes the rational vector v integral."""
    d = lcm(*(x.denominator for x in v))
    return d, [int(x * d) for x in v]


def is_parabolic(rs: RootSystem, roots, levels=None) -> bool:
    """Whether the reflections s_{beta_i, k_i} generate a parabolic subgroup.

    The levels k_i default to 0, the reflections of the finite group.
    Parabolic means equal to the pointwise fixer F of the fixed space.
    When the hyperplanes (v | beta_i) = k_i meet in p + U, the generated
    group G fixes p, so it maps injectively onto its linear part, the
    reflection group of the root closure of the beta_i. So does F, which
    is generated by the reflections whose hyperplanes contain p + U, with
    linear part the reflection group of {alpha : alpha vanishes on U,
    (p | alpha) is an integer}. As G lies in F and a reflection subgroup
    is determined by its reflections, G = F exactly when these two root
    sets are equal. Hyperplanes without a common point generate an
    infinite group, which is not parabolic.

    The scan over the roots runs on integers: with d p and the basis of U
    made integral, (p | alpha) is an integer exactly when d divides
    (d p | alpha).
    """
    roots = list(roots)
    if not roots:
        return True
    sub = fixed_affine_subspace(rs, roots,
                                [0] * len(roots) if levels is None else levels)
    if sub is None:
        return False
    point, basis = sub
    d, p = _integral(point)
    dirs = [_integral(u)[1] for u in basis]
    fixer = set()
    for i, alpha in enumerate(rs.roots):
        row = bilinear_row(rs, alpha)
        if (all(sum(map(mul, row, u)) == 0 for u in dirs)
                and sum(map(mul, row, p)) % d == 0):
            fixer.add(i)
    codes = frozenset(map(root_table(rs).code, roots))
    return fixer == _closure_indices(rs, codes)


def is_quasi_coxeter_fin(rs: RootSystem, w: FiniteWeylElement) -> bool:
    """Some reduced factorization of w generates the whole group."""
    return any(generates_w0(rs, roots)
               for roots, _ in root_sequences(rs, w, absolute_length(w)))


def is_parabolic_quasi_coxeter_fin(rs: RootSystem, w: FiniteWeylElement) -> bool:
    """Some reduced factorization of w generates a parabolic subgroup."""
    return any(is_parabolic(rs, roots)
               for roots, _ in root_sequences(rs, w, absolute_length(w)))


@lru_cache(maxsize=None)
def all_elements(rs: RootSystem) -> tuple[FiniteWeylElement, ...]:
    """The whole finite group, by closure of the simple reflections."""
    gens = [reflection_element(rs, r) for r in rs.simple_roots]
    seen = {identity_element(rs)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                x = w * g
                if x not in seen:
                    seen.add(x)
                    nxt.append(x)
        frontier = nxt
    return tuple(sorted(seen, key=lambda w: w.matrix))

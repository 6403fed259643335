"""Affine quasi-Coxeter detection and constructive Hurwitz transitivity.

Implements the generation criterion for (n+1)-tuples of affine reflections,
K-bounded enumeration of reflection factorizations via integer linear
systems, absolute length in the affine group, fibers of the projection to
the finite group, and the staged connect pipeline of the transitivity
proof.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .hurwitz import (BraidWord, apply_braid, connect, lr_normalize,
                      reflection_codes)
from .intlattice import (IntegerLattice, full_lattice, lattice_equal,
                         reduce_mod, span)
from .linalg import echelon_integer, mat_vec, solve_integer, solve_rational
from .rootsys import Root, RootSystem, coroot
from .weyl_aff import AffineReflection, AffineWeylElement, pair_product
from .weyl_fin import (SEARCH_MEMO_SIZE, absolute_length, all_elements,
                       generates_w0_codes, is_parabolic, root_index_sequences,
                       root_table)


class PipelineExhausted(RuntimeError):
    """A search stage ran out of its limits."""

    def __init__(self, stage: str, detail: str = ""):
        super().__init__(f"pipeline stage {stage!r} exhausted its limits"
                         + (f": {detail}" if detail else ""))
        self.stage = stage


@dataclass
class GenerationCertificate:
    normalizing_braid: BraidWord | None
    conjugating_coweight: tuple[Fraction, ...] | None
    repeated_root: Root | None
    level_gap: int | None  # l_n - l_{n+1} after normalization
    projected_generates: bool
    translation_lattice: IntegerLattice | None


@dataclass
class GenerationResult:
    generates: bool
    certificate: GenerationCertificate


@dataclass(frozen=True)
class FactorizationQuery:
    target: AffineWeylElement
    length: int
    level_bound: int

    def __post_init__(self):
        if self.length < 0 or self.level_bound < 0:
            raise ValueError("length and level bound must be non-negative")


@lru_cache(maxsize=None)
def _roots_by_length(rs: RootSystem) -> dict:
    """The roots of each squared length, in root order; built on first use.

    These are the orbits of the finite group: the Weyl group of an
    irreducible root system acts transitively on the roots of each length.
    """
    out: dict = {}
    for r in rs.roots:
        out.setdefault(rs.norm_sq(r), []).append(r)
    return {norm: tuple(roots) for norm, roots in out.items()}


@lru_cache(maxsize=None)
def _coroot_lattice(rs: RootSystem, norm) -> IntegerLattice:
    """The span of the coroots of the roots of squared length `norm`;
    built on first use, at most two per root system."""
    return span([coroot(rs, b) for b in _roots_by_length(rs)[norm]], rs.rank)


def _translation_lattice(rs: RootSystem, norm, gap: int) -> IntegerLattice:
    """The span of gap times the coroots of the roots of squared length
    `norm`: the basis of `_coroot_lattice` with every entry times |gap|,
    or the zero lattice when gap = 0. Scaling a canonical HNF by a
    positive integer keeps it canonical: the echelon shape, the positive
    pivots and each entry's place in [0, pivot) are kept."""
    if not gap:
        return span([], rs.rank)
    scale = abs(gap)
    return IntegerLattice(rs.rank, tuple(
        tuple(scale * c for c in row) for row in _coroot_lattice(rs, norm).basis))


@lru_cache(maxsize=None)
def _code_data(rs: RootSystem) -> tuple:
    """Per reflection code j, for the positive root alpha of index j: the
    row of v -> (v | alpha) for v in coroot coordinates, and (alpha |
    alpha). Built on first use, one per root system."""
    return tuple((mat_vec(rs.cartan, a.coords), rs.norm_sq(a))
                 for a in rs.positive_roots)


def generates_affine(rs: RootSystem, refs) -> GenerationResult:
    """Decide whether n+1 affine reflections generate the affine group.

    Normalizes to a repeated-root tail, conjugates the first n levels to
    zero by a coweight, and compares the translation lattice generated by
    the leftover translation's orbit with the full coroot lattice. The
    tuple is coded once; the projection test (`generates_w0_codes`) and
    the normalization (see `_normalize_tail`) run on its codes, so no
    group element is built. The orbit is the roots of the tail root's
    length, so the lattice is |gap| L for the span L of their coroots,
    which is kept once per root length (`_translation_lattice`). The
    Cartan row and squared length of each root are read by code from
    `_code_data`.
    """
    refs = tuple(refs)
    n = rs.rank
    if len(refs) != n + 1:
        raise ValueError(f"expected {n + 1} reflections, got {len(refs)}")
    codes = reflection_codes(rs, True)
    code = tuple(map(codes.code_of, refs))
    projected_generates = generates_w0_codes(rs, frozenset([a for a, _ in code]))
    if not projected_generates:
        cert = GenerationCertificate(None, None, None, None, False, None)
        return GenerationResult(False, cert)

    found = _normalize_tail(codes, reflection_codes(rs, False).move, code)
    if found is None:
        raise RuntimeError("internal inconsistency: repeated-root shape "
                           "unreachable although the projection generates")
    word, normed = found
    tail = normed[n - 1][0]
    if tail != normed[n][0]:
        raise RuntimeError("internal inconsistency: normalized tuple lacks "
                           "the repeated-root tail")

    data = _code_data(rs)
    sol = solve_rational([data[a][0] for a, _ in normed[:n]],
                         [-k for _, k in normed[:n]])
    if sol is None or sol[1]:
        raise RuntimeError("internal inconsistency: normalized roots must "
                           "be independent")
    lam = sol[0]

    gap = normed[n - 1][1] - normed[n][1]
    norm = data[tail][1]
    lattice = _translation_lattice(rs, norm, gap)
    verdict = lattice_equal(lattice, full_lattice(n))
    if verdict and (abs(gap) != 1 or norm != 2 * rs.ratio_delta):
        raise RuntimeError("internal inconsistency: generation verdict violates "
                           "the long-root / unit-gap necessity")
    cert = GenerationCertificate(word, lam, codes.roots[tail], gap,
                                 projected_generates, lattice)
    return GenerationResult(verdict, cert)


def _normalize_tail(codes, finite_move, code: tuple, node_limit: int = 10 ** 6):
    """Braid an affine code (n+1)-tuple to a repeated-root tail.

    `codes` is the affine `ReflectionCodes` of the root system and
    `finite_move` its finite move. Returns (word, normalized code), or
    None when the search ran out of `node_limit`. The word is searched on
    the root indices alone, then applied to the (root index, level) pairs.
    """
    word = lr_normalize(finite_move, tuple(a for a, _ in code),
                        codes.rs.rank - 1, node_limit)
    if word is None:
        return None
    return word, codes.braid(code, word)


@lru_cache(maxsize=None)
def _element_ids(rs: RootSystem) -> tuple:
    """The finite group numbered for `closure_generates`: the root
    permutations of `all_elements`, the identity moved to id 0, and the
    dict from permutation to id."""
    identity = root_table(rs).identity
    perms = [identity] + [w.perm for w in all_elements(rs) if w.perm != identity]
    return perms, {perm: u for u, perm in enumerate(perms)}


def _pack(v, bits: int) -> int:
    """The integer sum of v[i] 2^(bits i): v with balanced digits."""
    x = 0
    for c in reversed(v):
        x = (x << bits) + c
    return x


def _unpack(x: int, bits: int, n: int) -> tuple:
    """The n balanced digits of `_pack`, each read in [-2^(bits-1), 2^(bits-1))."""
    half = 1 << (bits - 1)
    mask = (1 << bits) - 1
    out = []
    for _ in range(n):
        c = x & mask
        if c >= half:
            c -= mask + 1
        out.append(c)
        x = (x - c) >> bits
    return tuple(out)


@lru_cache(maxsize=None)
def _right_multiplication(rs: RootSystem, j: int, bits: int) -> tuple:
    """(times_s, images) for the positive root b of index j: times_s[u] is
    the id of (element u) s_b and images[u] the coroot of (element u)(b),
    packed with `bits`-bit digits (`_pack`). Built on first use, one per
    (rs, j, bits); `closure_generates` asks for bits a multiple of 64.
    Each coroot is packed once and its integer shared by the entries."""
    perms, ids = _element_ids(rs)
    table = root_table(rs)
    i, _, times_s = table.reflections[j]
    packed = [_pack(v, bits) for v in table.coroots]
    return ([ids[times_s(perm)] for perm in perms],
            [packed[perm[i]] for perm in perms])


def closure_generates(rs: RootSystem, refs, node_limit: int = 50000) -> bool:
    """Multiplication-closure oracle for affine generation.

    Works by group multiplication and the HNF alone, independent of the
    lattice criterion of `generates_affine`. H, the subgroup the
    reflections generate, is W_aff exactly when its projection p(H) is W0
    and its translations H ∩ T are the whole coroot lattice. One
    breadth-first search over p(H) decides both. It keeps one coset
    representative TR(c) w per finite element w reached, with c an integer
    vector in coroot coordinates: the pair (c, w) of `affhur.weyl_aff`.
    Finite elements are ids, numbers of W0 fixed per root system with the
    identity at 0 (`_element_ids`), and right multiplication by a
    reflection is one lookup in a table built once per reflection
    (`_right_multiplication`). Since s_{alpha,k} = TR(k alpha-coroot)
    s_alpha, right-multiplying TR(c) w by it gives
    TR(c + k w(alpha)-coroot) w s_alpha, the pair rule's reflection step,
    run inline. A reflection is read with its positive root, as
    s_{-alpha,-k} = s_{alpha,k}. When w s_alpha already has a
    representative TR(b) w s_alpha, the edge gives the translation
    TR(c') (TR(b) w s_alpha)^-1 = TR(c' - b), a Schreier generator. By
    Schreier's lemma these generate H ∩ T; their span is kept as an HNF
    basis and enlarged only by a non-zero residue. A difference c' - b
    seen before is skipped: the span only grows, and it took the
    difference in when it was first reduced.

    Each undirected edge is taken once. A generator s = s_{alpha,k} is an
    involution, so the edge (x, s) with x = u s leads back to u, and its
    Schreier generator is the negative of that of (u, s), or 0 when (u, s)
    found x. So an edge whose target was dequeued before is skipped: its
    reverse was taken then. Tree edges are never skipped, so the
    representatives, the point where `node_limit` raises and the span
    after each taken edge are those of the search over every edge.

    A vector c is held as one integer, `_pack(c, bits)`: sums and
    comparisons of vectors are then sums and comparisons of integers, and
    a difference is unpacked only for its reduction. Packing is exact
    while every entry lies in [-B/2, B/2) for B = 2^bits. A representative
    is a sum of at most |W0| - 1 terms k (coroot) and c' adds one more, so
    every entry of a difference c' - b is below 2 |W0| K M in absolute
    value, for K the largest |level| and M the largest |coroot entry|;
    bits is the least multiple of 64 with B > 4 |W0| K M. The
    search returns True as soon as p(H) = W0 and the span is full, and
    False when it ends without both.

    `node_limit` bounds the number of representatives, |p(H)|; a search
    that would pass it decides nothing and raises `PipelineExhausted`. It
    never does when |W0| <= `node_limit`.
    """
    table = root_table(rs)
    n = rs.rank
    codes = reflection_codes(rs, True)
    coded = []
    for r in refs:
        table.code(r.root)  # a non-root raises RootSystemError
        coded.append(codes.code_of(r))
    perms = _element_ids(rs)[0]
    order = len(perms)
    levels = max([1] + [abs(k) for _, k in coded])
    # the coroots come in pairs +-v, so their largest entry is M
    bound = 4 * order * levels * max(map(max, table.coroots))
    bits = 64 * -(-bound.bit_length() // 64)
    gens = [(*_right_multiplication(rs, j, bits), k) for j, k in coded]
    full = full_lattice(n)
    reps: list = [None] * order
    reps[0] = 0
    done = bytearray(order)
    queue = [0]
    lattice = span([], n)
    reduced: set = set()
    for u in queue:
        done[u] = 1
        c = reps[u]
        for times_s, images, k in gens:
            x = times_s[u]
            if done[x]:
                continue
            y = c + k * images[u]
            b = reps[x]
            if b is None:
                if len(queue) >= node_limit:
                    raise PipelineExhausted("closure", f"more than {node_limit} "
                                            "coset representatives")
                reps[x] = y
                queue.append(x)
            elif y == b:
                continue
            else:
                d = y - b
                if d in reduced:
                    continue
                reduced.add(d)
                r = reduce_mod(lattice, _unpack(d, bits, n))
                if not any(r):
                    continue
                lattice = span(lattice.basis + (r,), n)
            if len(queue) == order and lattice_equal(lattice, full):
                return True
    return False


def _levels_in_window(cols, rhs, bound: int) -> list[tuple[int, ...]]:
    """Integer vectors k in [-bound, bound]^m with sum_i k_i cols[i] = rhs.

    Works on the exact solution space: `echelon_integer` writes each pivot
    coordinate as (r - sum_f a_f k_f) / d in the free coordinates k_f. All
    free coordinates but the last run over [-K, K]; the last is solved
    for. With the others fixed, each pivot row asks -K <= (r - a k) / d
    <= K of the last free coordinate k, an integer interval when a != 0
    and a fixed quotient to test when a == 0. The points of the
    intersection of those intervals with [-K, K] are tested for
    integrality of every pivot, in ascending order. So the output is the
    window scan's, in the same order, and no point outside the intervals
    is visited.
    """
    system = echelon_integer(tuple(zip(*cols)), rhs)
    if system is None:
        return []
    pivots, free = system
    ks = [0] * len(cols)
    if not free:
        for col, row in pivots:
            k, rem = divmod(row[-1], row[col])
            if rem or not -bound <= k <= bound:
                return []
            ks[col] = k
        return [tuple(ks)]
    *outer, last = free
    out = []
    for cs in itertools.product(range(-bound, bound + 1), repeat=len(outer)):
        for f, c in zip(outer, cs):
            ks[f] = c
        lo, hi = -bound, bound
        moving = []
        for col, row in pivots:
            r, a, d = row[-1], row[last], row[col]
            for f, c in zip(outer, cs):
                r -= row[f] * c
            # -K <= (r - a k) / d <= K and the quotient are unchanged when
            # r, a and d all change sign
            if a < 0:
                r, a, d = -r, -a, -d
            if a:
                # r - |d| K <= a k <= r + |d| K
                e = (d if d > 0 else -d) * bound
                t = -((e - r) // a)
                if t > lo:
                    lo = t
                t = (r + e) // a
                if t < hi:
                    hi = t
                if lo > hi:
                    break
                moving.append((col, r, a, d))
                continue
            k, rem = divmod(r, d)
            if rem or not -bound <= k <= bound:
                break
            ks[col] = k
        else:
            for x in range(lo, hi + 1):
                ks[last] = x
                for col, r, a, d in moving:
                    k, rem = divmod(r - a * x, d)
                    if rem:
                        break
                    ks[col] = k
                else:
                    out.append(tuple(ks))
    return out


def _factorization_blocks(rs: RootSystem, target: AffineWeylElement, m: int,
                          bound: int):
    """`_factorization_codes` lazily, one sorted block per first root index.

    `weyl_fin.root_index_sequences` yields its sequences in order of the
    first root index, and a code tuple sorts by that index first, so the
    blocks, each sorted on its own, concatenate to the sorted list. Blocks
    come in ascending order of the first index; an index with no tuple in
    the window gives no block.
    """
    if m == 0:
        if target.is_identity():
            yield [()]
        return
    for _, group in itertools.groupby(
            root_index_sequences(rs, target.finite, m), lambda sc: sc[0][0]):
        block = sorted(tuple(zip(seq, ks)) for seq, cols in group
                       for ks in _levels_in_window(cols, target.translation, bound))
        if block:
            yield block


def _factorization_codes(rs: RootSystem, target: AffineWeylElement, m: int,
                         bound: int) -> list[tuple]:
    """`enumerate_factorizations` on affine codes: sorted tuples of
    (positive-root index, level) pairs, the concatenated
    `_factorization_blocks`. Positive roots are indexed in root order, so
    this is the order of the decoded `AffineReflection` tuples."""
    return list(itertools.chain.from_iterable(
        _factorization_blocks(rs, target, m, bound)))


def enumerate_factorizations(rs: RootSystem, query: FactorizationQuery):
    """All reflection factorizations of the target with levels in [-K, K].

    Complete in root sequences; complete in levels for the given bound.
    The root sequences of the finite part w0 of the target come from
    `weyl_fin.root_index_sequences`, a prefix search that keeps a prefix
    only while the remainder p^-1 w0 has l_T at most the number of slots
    left, with the same parity. For each sequence the levels form an exact
    linear system, solved in the window by `_levels_in_window`: all free
    coordinates but the last run over [-K, K], the last is confined to
    the interval every pivot row allows, and the pivot coordinates are
    solved for. The search and the sort run on affine codes,
    (positive-root index, level) pairs, one sorted block per first root
    (`_factorization_blocks`); the sorted result is decoded once, each
    code to the one `AffineReflection` that `ReflectionCodes.reflection`
    keeps for it.
    """
    decode = reflection_codes(rs, True).reflection
    return [tuple(map(decode, code)) for code in _factorization_codes(
        rs, query.target, query.length, query.level_bound)]


def _has_factorization(rs: RootSystem, w: AffineWeylElement, m: int) -> bool:
    """Whether w is a product of m affine reflections.

    True when some length-m root sequence multiplies to the finite part of
    w and its level system is integrally solvable; solvability is decided
    exactly, independent of any level bound.
    """
    if m == 0:
        return w.is_identity()
    return any(solve_integer(tuple(zip(*cols)), w.translation)
               for _, cols in root_index_sequences(rs, w.finite, m))


def absolute_length_affine(rs: RootSystem, w: AffineWeylElement) -> int:
    """Reflection length in the affine group.

    Searches lengths of the right parity up to the affine bound 2n for a
    root sequence whose level system is integrally solvable.
    """
    if w.is_identity():
        return 0
    ceiling = 2 * rs.rank
    # a product of reflections has determinant (-1)^(its length), so the
    # parity of every factorization is that of l_T of the finite part
    start = 2 - absolute_length(w.finite) % 2
    for m in range(start, ceiling + 1, 2):
        if _has_factorization(rs, w, m):
            return m
    raise RuntimeError(f"no factorization found up to the length ceiling {ceiling}; "
                       "the ceiling convention may not apply to this element")


@dataclass
class QuasiCoxeterResult:
    is_quasi_coxeter: bool
    witness: tuple | None
    conclusive: bool
    detail: str


def is_quasi_coxeter_affine(rs: RootSystem, w: AffineWeylElement,
                            level_cap: int = 2) -> QuasiCoxeterResult:
    """Search for a generating length-(n+1) decomposition of w.

    A generating witness needs no separate reducedness check. The
    factorizations with levels in [-cap, cap] are read block by block from
    `_factorization_blocks` and the test stops at the first generating
    tuple: every earlier block was walked in full, so it is the first
    generating tuple of the sorted enumeration. A negative verdict is
    conclusive when parity or exact insolvability rules out all
    length-(n+1) factorizations; otherwise it only covers |k_i| <= cap.
    """
    n = rs.rank
    m = n + 1
    FactorizationQuery(w, m, level_cap)  # rejects a negative cap
    if absolute_length(w.finite) % 2 != m % 2:
        return QuasiCoxeterResult(False, None, True,
                                  f"parity excludes factorizations of length {m}")
    # n+1 reflections are needed to generate the affine group, and with the
    # parity above a length-(n-1) factorization exists iff the absolute
    # length is below n+1
    if _has_factorization(rs, w, n - 1):
        return QuasiCoxeterResult(False, None, True,
                                  f"absolute length at most {n - 1}, below {m}")
    # the generated subgroup is a Hurwitz invariant: once a tuple fails to
    # generate, so does every tuple reached from it by moves inside the
    # window, and the first generating tuple in sorted order is still found
    codes = reflection_codes(rs, True)
    settled: set = set()
    for code in itertools.chain.from_iterable(
            _factorization_blocks(rs, w, m, level_cap)):
        if code in settled:
            continue
        fac = tuple(map(codes.reflection, code))
        if generates_affine(rs, fac).generates:
            return QuasiCoxeterResult(True, fac, True, "generating witness found")
        settled.add(code)
        stack = [code]
        while stack:
            for moved in _moves_in_window(codes.move, stack.pop(), level_cap):
                if moved not in settled:
                    settled.add(moved)
                    stack.append(moved)
    # an empty window leaves nothing settled
    if not settled and not _has_factorization(rs, w, m):
        # exact insolvability, not merely an empty K-window
        return QuasiCoxeterResult(False, None, True,
                                  f"no length-{m} factorization exists "
                                  "(integer systems insolvable)")
    return QuasiCoxeterResult(False, None, False,
                              f"no witness with levels bounded by {level_cap}")


def _moves_in_window(move, code, bound: int):
    """Tuples one sigma_i or sigma_i^-1 away whose levels stay in [-bound, bound].

    Tuples are coded as (positive-root index, level) pairs and `move` is
    the affine `ReflectionCodes.move`; only the entry a move creates can
    leave the window.
    """
    for i in range(1, len(code)):
        for letter, new in ((i, i - 1), (-i, i)):
            moved = move(code, letter)
            if -bound <= moved[new][1] <= bound:
                yield moved


def fiber(rs: RootSystem, base, shift_bound: int):
    """The sigma_n-line through a repeated-root-tail reduced factorization.

    Members share all roots and the first n-1 levels; the last two levels
    run over (l_n + j, l_{n+1} + j) for |j| <= shift_bound.
    """
    base = tuple(base)
    n = rs.rank
    if len(base) != n + 1:
        raise ValueError(f"expected a {n + 1}-tuple")
    if base[n - 1].root != base[n].root:
        raise ValueError("base tuple lacks the repeated-root tail pattern")
    out = []
    for j in range(-shift_bound, shift_bound + 1):
        entries = list(base)
        entries[n - 1] = AffineReflection(base[n - 1].root, base[n - 1].level + j)
        entries[n] = AffineReflection(base[n].root, base[n].level + j)
        out.append(tuple(entries))
    return out


def connect_reduced(rs: RootSystem, w: AffineWeylElement, t1, t2,
                    depth_limit: int | None = None,
                    node_limit: int = 10 ** 6) -> BraidWord:
    """Braid word connecting two reduced factorizations of a quasi-Coxeter w.

    Stages: repeated-root normalization of both tuples, projection
    alignment inside the finite Fac set, then a sigma_n power along the
    fiber. The stages run on reflection codes (see `affhur.hurwitz`), and
    so do the checks, on the affine pairs (see `affhur.weyl_aff`) that
    `ReflectionCodes.pair` keeps per code. The codes, the finite move and
    the root table are looked up once per call and handed to the stages,
    and the word is built once, from the letters of the stages. Each input
    tuple is coded once.
    Once per distinct code tuple, in a memo of `SEARCH_MEMO_SIZE` entries
    (`_tuple_facts`), its product pair and whether its projection
    generates W0 are computed; on every call the product is compared with
    the pair of w, and a tuple that does not generate is refused. The word
    is replayed on every call, on the reflection pairs of t1 with
    `hurwitz.apply_braid`, one conjugation per letter and independent of
    the move tables the stages search with, and compared with the pairs of
    t2. A stage that runs out of its limits raises `PipelineExhausted`.
    The alignment search is bounded by `node_limit` alone unless a
    `depth_limit` is given.
    """
    t1 = tuple(t1)
    t2 = tuple(t2)
    n = rs.rank
    codes = reflection_codes(rs, True)
    table = codes.table
    # pairs are compared by permutation, so the root table must be the same
    if w.finite.table is not table:
        other = w.finite.table.rs
        raise ValueError(f"target element is in the group of "
                         f"{other.family}{other.rank}, not of "
                         f"{rs.family}{rs.rank}")
    target = (w.translation, w.finite.perm)
    coded = []
    for t in (t1, t2):
        if len(t) != n + 1:
            raise ValueError(f"expected {n + 1}-tuples")
        code = tuple(map(codes.code_of, t))
        product, generates = _tuple_facts(rs, code)
        if product != target:
            raise ValueError("tuple is not a factorization of the target element")
        if not generates:
            raise ValueError("projection does not generate the finite group; "
                             "the element is not quasi-Coxeter")
        coded.append(code)
    code1, code2 = coded
    word = _connect_pipeline(codes, reflection_codes(rs, False).move, code1,
                             code2, n, depth_limit, node_limit)
    pair = codes.pair
    if apply_braid(table, tuple(map(pair, code1)), word) != tuple(map(pair, code2)):
        raise RuntimeError("internal inconsistency: the braid word found "
                           "does not replay")
    return word


@lru_cache(maxsize=SEARCH_MEMO_SIZE)
def _tuple_facts(rs: RootSystem, code: tuple) -> tuple:
    """(product pair, whether the projection generates W0) of an affine
    code tuple; memoized per (rs, code)."""
    pair = reflection_codes(rs, True).pair
    return (pair_product(root_table(rs), map(pair, code)),
            generates_w0_codes(rs, frozenset([a for a, _ in code])))


def _connect_pipeline(codes, finite_move, code1, code2, n, depth_limit,
                      node_limit) -> BraidWord:
    if code1 == code2:
        return BraidWord()

    def normalize(code):
        found = _normalize_tail(codes, finite_move, code, node_limit)
        if found is None:
            raise PipelineExhausted("normalize")
        return found

    word1, u1 = normalize(code1)
    word2, u2 = normalize(code2)

    word_fin = connect(finite_move, tuple(a for a, _ in u1),
                       tuple(a for a, _ in u2), depth_limit, node_limit)
    if word_fin is None:
        raise PipelineExhausted("finite-alignment")
    u1p = codes.braid(u1, word_fin)

    if u1p[:n - 1] != u2[:n - 1]:
        raise PipelineExhausted("fiber", "leading levels disagree")
    gap = u1p[n - 1][1] - u1p[n][1]
    shift = u2[n - 1][1] - u1p[n - 1][1]
    if gap == 0 or shift % gap != 0:
        raise PipelineExhausted("fiber", "sigma_n power cannot align the levels")
    e = shift // gap
    fiber_letters = (n,) * e if e >= 0 else (-n,) * -e
    # word1, word_fin, sigma_n^e, then word2 inverted
    return BraidWord(word1.letters + word_fin.letters + fiber_letters
                     + tuple([-x for x in reversed(word2.letters)]))


def is_parabolic_quasi_coxeter_affine(rs: RootSystem, w: AffineWeylElement,
                                      level_cap: int = 2) -> bool:
    """Whether some reduced factorization of w generates a parabolic subgroup.

    Full-length elements defer to the quasi-Coxeter test; shorter ones
    pass each enumerated factorization, levels included, to
    `weyl_fin.is_parabolic` (a best-effort scan, complete per level bound).
    The factorizations are read as codes, one `_factorization_blocks`
    block at a time, so the scan stops at the first parabolic one; for the
    identity that is the empty one.
    """
    n = rs.rank
    m = absolute_length_affine(rs, w)
    FactorizationQuery(w, m, level_cap)  # rejects a negative cap
    if m > n + 1:
        return False  # proper parabolics are finite; the full group needs n+1
    if m == n + 1:
        return is_quasi_coxeter_affine(rs, w, level_cap).is_quasi_coxeter
    roots = rs.positive_roots
    return any(is_parabolic(rs, [roots[a] for a, _ in code], [k for _, k in code])
               for code in itertools.chain.from_iterable(
                   _factorization_blocks(rs, w, m, level_cap)))

"""Braid moves, Hurwitz orbits and braid-word search on reflection tuples.

The searches run on codes, not on group elements. A finite reflection
s_alpha is coded by the index of +-alpha in `RootSystem.positive_roots`,
the code `weyl_fin.RootTable` keeps; an affine reflection s_{alpha,k} by
the pair (that index, k). Callers build codes with
`ReflectionCodes.code_of`, which reads the root table. A tuple of codes
is a plain tuple that hashes cheaply, and a Hurwitz move on it is one
lookup in a table built once per root system. `orbit`, `connect` and
`lr_normalize` each take a move function, `ReflectionCodes.move`, and
code tuples; `orbit` returns the set of codes it reached, the others
braid words.

`connect` and `lr_normalize` remember their answers: each is wrapped in an
`lru_cache` of `SEARCH_MEMO_SIZE` entries (the bound `affhur.weyl_fin`
sets for every memo keyed by its input), keyed by all of its arguments:
the move function (one per root system and kind, from `reflection_codes`),
the code tuples, and the limits. A search cut short by a small limit is
never answered by what a larger limit found, and the answer to a repeated
call is the word the search would find again. `orbit` is not cached: it
returns a mutable set, which can hold millions of tuples.

The words the searches find are replayed by a multiplication rule the
searches do not use, and checked before they are trusted. `apply_braid`
and `apply_move` act on the affine pairs (c, w) for TR(c) w, the value of
`affhur.weyl_aff`, of reflections: each entry is its own inverse, so each
letter, sigma_i or its inverse, is one conjugation by the pair rule,
`weyl_aff.pair_conj`, and reads no move table. A finite reflection is the
pair with c = 0. `quasicox.connect_reduced`, the CLI and `affhur.verify`
replay with them, on the pairs `ReflectionCodes.pair` keeps per code or
`weyl_aff.reflection_pair` makes.

Words are applied leftmost letter first; positive letter i is sigma_i,
negative is its inverse.
"""

from __future__ import annotations

import itertools
from collections import deque
from functools import lru_cache, partial

from .rootsys import RootSystem, RootSystemError
from .weyl_aff import AffineReflection, pair_conj, reflection_pair
from .weyl_fin import (SEARCH_MEMO_SIZE, SEARCH_NODE_LIMIT, RootTable,
                       root_table)


class BraidWord:
    """A braid word by its letters; equal, and hashed, by them."""

    __slots__ = ("letters",)

    def __init__(self, letters: tuple[int, ...] = ()):
        self.letters = letters

    def __eq__(self, other) -> bool:
        if other.__class__ is not BraidWord:
            return NotImplemented
        return self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def inverse(self) -> "BraidWord":
        return BraidWord(tuple(-x for x in reversed(self.letters)))

    def __add__(self, other: "BraidWord") -> "BraidWord":
        return BraidWord(self.letters + other.letters)

    def __len__(self) -> int:
        return len(self.letters)


def apply_braid(table: RootTable, entries: tuple, word: BraidWord) -> tuple:
    """The braid word applied to the affine pairs (see `affhur.weyl_aff`)
    of reflections, all of one root table.

    sigma_i sends (a, b) at slots i, i+1 to (a b a^-1, a), its inverse to
    (b, b^-1 a b). Every entry must be a reflection pair, as
    `weyl_aff.reflection_pair` makes them: a reflection is its own inverse,
    so b^-1 a b = b a b^-1 and each letter is one conjugation,
    `pair_conj(a, b)` or `pair_conj(b, a)`. It is computed by the pair
    rule, not with the move tables the searches use. On other pairs the
    inverse letters are wrong.
    """
    entries = list(entries)
    m = len(entries)
    for letter in word.letters:
        i = abs(letter)
        if not 1 <= i < m:
            raise IndexError(f"move index {i} out of range for a {m}-tuple")
        a, b = entries[i - 1], entries[i]
        if letter > 0:
            entries[i - 1] = pair_conj(table, a, b)
            entries[i] = a
        else:
            entries[i - 1] = b
            entries[i] = pair_conj(table, b, a)
    return tuple(entries)


def apply_move(table: RootTable, entries: tuple, letter: int) -> tuple:
    """`apply_braid` of the one-letter word: sigma_i for letter i > 0, its
    inverse for -i."""
    return apply_braid(table, entries, BraidWord((letter,)))


# ------------------------------------------------------------------ codes

@lru_cache(maxsize=None)
def _move_table(rs: RootSystem):
    """Hurwitz moves on (positive-root index, level) pairs.

    moves[a][b] = (c, x, y) says s_{a,k} s_{b,l} s_{a,k} = s_{c, x*l + y*k}
    for positive-root indices a, b and all levels k, l. The closed form is

        s_{alpha,k} s_{beta,l} s_{alpha,k} = s_{s_alpha(beta), l - p*k},
        p = <beta, alpha-coroot>,

    and both of its parts are read off the root permutation of s_alpha:
    the image of beta is s_alpha(beta) = beta - p*alpha, so p is the
    quotient of beta - s_alpha(beta) by alpha in any coordinate where
    alpha is non-zero. A positive image gives (c, 1, -p); a negative one
    is stored by its positive root, s_{-gamma,-m} = s_{gamma,m}, and gives
    (c, -1, p). The finite move is the column c alone.
    """
    table = root_table(rs)
    pos = rs.positive_roots
    moves = []
    for a, s_a in zip(pos, table.elements):
        j = next(j for j, x in enumerate(a.coords) if x)
        row = []
        for b in pos:
            image = s_a.act_root(b)
            p = (b.coords[j] - image.coords[j]) // a.coords[j]
            c = table.root_codes[image]
            row.append((c, 1, -p) if image.is_positive else (c, -1, p))
        moves.append(row)
    return moves


def _finite_move(conj, code: tuple, letter: int) -> tuple:
    i = abs(letter)
    a, b = code[i - 1], code[i]
    pair = (b, conj[b][a]) if letter < 0 else (conj[a][b], a)
    return code[:i - 1] + pair + code[i + 1:]


def _affine_move(moves, code: tuple, letter: int) -> tuple:
    i = abs(letter)
    x, y = code[i - 1], code[i]
    (a, k), (b, l) = x, y
    if letter < 0:
        c, p, q = moves[b][a]
        pair = (y, (c, p * k + q * l))
    else:
        c, p, q = moves[a][b]
        pair = ((c, p * l + q * k), x)
    return code[:i - 1] + pair + code[i + 1:]


class _Interned(dict):
    """code -> make(code), made on first lookup and kept."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, code):
        value = self[code] = self.make(code)
        return value


class ReflectionCodes:
    """The reflections of one root system as codes, and Hurwitz moves on them.

    Finite codes are positive-root indices, affine codes (index, level)
    pairs; the coding is the root table's (`weyl_fin.RootTable`), and
    `code_of` reads it. `move(code, letter)` applies one letter to a
    tuple of codes. `reflection(code)` decodes an affine code to its
    `AffineReflection`, and `pair(code)` to its affine pair (see
    `affhur.weyl_aff`), one shared instance per code.
    """

    def __init__(self, rs: RootSystem, affine: bool):
        self.rs = rs
        self.affine = affine
        self.table = root_table(rs)
        roots = self.roots = rs.positive_roots
        reflection = self.reflection = _Interned(
            lambda code: AffineReflection(roots[code[0]], code[1])).__getitem__
        self.pair = _Interned(
            lambda code: reflection_pair(rs, reflection(code))).__getitem__
        moves = _move_table(rs)
        self.move = (partial(_affine_move, moves) if affine
                     else partial(_finite_move,
                                  tuple(tuple(c for c, _, _ in row) for row in moves)))

    def code_of(self, r: AffineReflection):
        """The code of s_{root, level}, read as s_root on the finite
        instance; s_{-alpha,-k} = s_{alpha,k}."""
        root = r.root
        i = self.table.root_codes.get(root)
        if i is None:
            rs = self.rs
            raise RootSystemError(f"{root.coords} is not a root of "
                                  f"{rs.family}{rs.rank}")
        if not self.affine:
            return i
        return (i, r.level) if self.roots[i].coords == root.coords else (i, -r.level)

    def braid(self, code: tuple, word: BraidWord) -> tuple:
        move = self.move
        for letter in word.letters:
            code = move(code, letter)
        return code


@lru_cache(maxsize=None)
def reflection_codes(rs: RootSystem, affine: bool) -> ReflectionCodes:
    return ReflectionCodes(rs, affine)


# --------------------------------------------------------------- searches

def _letters(m: int) -> tuple[int, ...]:
    # sigma_i before sigma_i^-1, ascending i: the documented tie-break
    return tuple(x for i in range(1, m) for x in (i, -i))


def _word_to(parents: dict, node) -> BraidWord:
    letters = []
    while parents[node] is not None:
        node, letter = parents[node]
        letters.append(letter)
    return BraidWord(tuple(reversed(letters)))


class OrbitResult:
    __slots__ = ("members", "exhausted")

    def __init__(self, members: set, exhausted: bool):
        self.members = members  # the code tuples reached, the start's included
        self.exhausted = exhausted


def orbit(move, start: tuple, node_limit: int = SEARCH_NODE_LIMIT,
          depth_limit: int | None = None) -> OrbitResult:
    """BFS closure of the code tuple start under all Hurwitz moves, one
    level at a time.

    `exhausted` is True iff the orbit closed before hitting either limit;
    otherwise the members are a truncation, not the full orbit.
    """
    letters = _letters(len(start))
    members = {start}
    frontier = [start]
    depth = 0
    while frontier and (depth_limit is None or depth < depth_limit):
        level = []
        for node in frontier:
            for letter in letters:
                nxt = move(node, letter)
                if nxt not in members:
                    if len(members) >= node_limit:
                        return OrbitResult(members, False)
                    members.add(nxt)
                    level.append(nxt)
        frontier = level
        depth += 1
    return OrbitResult(members, not frontier)


@lru_cache(maxsize=SEARCH_MEMO_SIZE)
def connect(move, start: tuple, goal: tuple, depth_limit: int | None = 12,
            node_limit: int = SEARCH_NODE_LIMIT) -> BraidWord | None:
    """Bidirectional BFS for a braid word sending code tuple start to goal.

    Each round expands the smaller frontier, the forward one on a tie. Once
    either is empty, that side has seen its whole orbit and None is a
    disproof; otherwise None means "not found within limits". A
    `depth_limit` of None bounds the search by `node_limit` alone. The
    products are not compared and the word is not replayed: that is the
    caller's job. Answers, None included, are memoized per (move, start,
    goal, depth_limit, node_limit); see the module docstring.
    """
    if len(start) != len(goal):
        raise ValueError("tuples must have equal length")
    if start == goal:
        return BraidWord()
    letters = _letters(len(start))
    fwd: dict = {start: None}
    bwd: dict = {goal: None}
    frontier_f = [start]
    frontier_b = [goal]
    for _ in itertools.count() if depth_limit is None else range(depth_limit):
        if not frontier_f or not frontier_b:
            break
        expand_forward = len(frontier_f) <= len(frontier_b)
        frontier, parents, other = ((frontier_f, fwd, bwd) if expand_forward
                                    else (frontier_b, bwd, fwd))
        nxt_frontier = []
        for node in frontier:
            for letter in letters:
                nxt = move(node, letter)
                if nxt in parents:
                    continue
                if len(fwd) + len(bwd) >= node_limit:
                    return None
                parents[nxt] = (node, letter)
                if nxt in other:
                    return _word_to(fwd, nxt) + _word_to(bwd, nxt).inverse()
                nxt_frontier.append(nxt)
        if expand_forward:
            frontier_f = nxt_frontier
        else:
            frontier_b = nxt_frontier
    return None


@lru_cache(maxsize=SEARCH_MEMO_SIZE)
def lr_normalize(move, start: tuple, target_reduced_length: int,
                 node_limit: int = SEARCH_NODE_LIMIT) -> BraidWord | None:
    """Braid word bringing code tuple start to repeated-pair-tail shape.

    The target shape keeps a length-`target_reduced_length` prefix and ends
    in (m - target)/2 equal pairs, the normal form of Lewis and Reiner.
    Found by orbit BFS. None means the orbit was exhausted without that
    shape or the search passed `node_limit`; `quasicox._normalize_tail`
    asks only about orbits that hold the shape, so it reads a None as the
    limit and raises `PipelineExhausted`. Answers are memoized per (move,
    start, target_reduced_length, node_limit); see the module docstring.
    """
    m = len(start)
    if (m - target_reduced_length) % 2 != 0 or not 0 <= target_reduced_length <= m:
        raise ValueError("target length must lie in [0, tuple length] and have "
                         "the parity of the tuple length")
    # the tail from `cut` on is made of equal pairs when its even and odd
    # slots agree
    cut = target_reduced_length
    if start[cut::2] == start[cut + 1::2]:
        return BraidWord()
    letters = _letters(m)
    parents: dict = {start: None}
    frontier = deque([start])
    while frontier:
        node = frontier.popleft()
        for letter in letters:
            nxt = move(node, letter)
            if nxt in parents:
                continue
            if len(parents) >= node_limit:
                return None
            parents[nxt] = (node, letter)
            if nxt[cut::2] == nxt[cut + 1::2]:
                return _word_to(parents, nxt)
            frontier.append(nxt)
    return None

"""Braid moves, Hurwitz orbits and braid-word search over any exact group.

Tuple entries may be any hashable elements supporting `*` and .inverse();
both finite and affine Weyl elements qualify. Words are applied leftmost
letter first; positive letter i is sigma_i, negative is its inverse.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass


@dataclass(frozen=True)
class ReflectionTuple:
    entries: tuple

    def __len__(self) -> int:
        return len(self.entries)

    def product(self):
        out = self.entries[0]
        for x in self.entries[1:]:
            out = out * x
        return out


@dataclass(frozen=True)
class BraidWord:
    letters: tuple[int, ...] = ()

    def inverse(self) -> "BraidWord":
        return BraidWord(tuple(-x for x in reversed(self.letters)))

    def __add__(self, other: "BraidWord") -> "BraidWord":
        return BraidWord(self.letters + other.letters)

    def __len__(self) -> int:
        return len(self.letters)


@dataclass
class OrbitResult:
    start: ReflectionTuple
    parents: dict  # tuple -> (parent tuple, letter); start maps to None
    exhausted: bool

    @property
    def tuples(self):
        return self.parents.keys()

    def word_to(self, target: ReflectionTuple) -> BraidWord:
        """Reconstruct the braid word from the orbit's start to target."""
        letters = []
        node = target
        while self.parents[node] is not None:
            node, letter = self.parents[node]
            letters.append(letter)
        return BraidWord(tuple(reversed(letters)))


def apply_move(t: ReflectionTuple, i: int, inverse: bool = False) -> ReflectionTuple:
    """The i-th Hurwitz move (1-indexed): conjugate-and-shift of slots i, i+1."""
    m = len(t.entries)
    if not 1 <= i <= m - 1:
        raise IndexError(f"move index {i} out of range for a {m}-tuple")
    a, b = t.entries[i - 1], t.entries[i]
    if inverse:
        pair = (b, b.inverse() * a * b)
    else:
        pair = (a * b * a.inverse(), a)
    return ReflectionTuple(t.entries[:i - 1] + pair + t.entries[i + 1:])


def apply_braid(t: ReflectionTuple, word: BraidWord) -> ReflectionTuple:
    for letter in word.letters:
        t = apply_move(t, abs(letter), inverse=letter < 0)
    return t


def _moves(m: int):
    # sigma_i before sigma_i^-1, ascending i: the documented tie-break
    out = []
    for i in range(1, m):
        out.append((i, False))
        out.append((i, True))
    return out


def orbit(t: ReflectionTuple, node_limit: int = 10 ** 6,
          depth_limit: int | None = None) -> OrbitResult:
    """BFS closure of t under all Hurwitz moves.

    `exhausted` is True iff the orbit closed before hitting either limit;
    otherwise the result is a truncation, not the full orbit.
    """
    moves = _moves(len(t))
    parents: dict = {t: None}
    frontier = deque([(t, 0)])
    exhausted = True
    while frontier:
        node, depth = frontier.popleft()
        if depth_limit is not None and depth >= depth_limit:
            exhausted = False
            continue
        for i, inv in moves:
            nxt = apply_move(node, i, inv)
            if nxt not in parents:
                if len(parents) >= node_limit:
                    exhausted = False
                    frontier.clear()
                    break
                parents[nxt] = (node, -i if inv else i)
                frontier.append((nxt, depth + 1))
    return OrbitResult(t, parents, exhausted)


def connect(t1: ReflectionTuple, t2: ReflectionTuple,
            depth_limit: int = 12, node_limit: int = 10 ** 6) -> BraidWord | None:
    """Bidirectional BFS for a braid word sending t1 to t2.

    None means "not found within limits", never a disproof. A tuple-product
    mismatch is rejected up front since the product is a Hurwitz invariant.
    """
    if len(t1) != len(t2):
        raise ValueError("tuples must have equal length")
    if t1.product() != t2.product():
        return None
    if t1 == t2:
        return BraidWord()
    moves = _moves(len(t1))
    fwd: dict = {t1: None}
    bwd: dict = {t2: None}

    def trace(parents, node):
        letters = []
        while parents[node] is not None:
            node, letter = parents[node]
            letters.append(letter)
        return BraidWord(tuple(reversed(letters)))

    frontier_f = [t1]
    frontier_b = [t2]
    for _ in range(depth_limit):
        # expand the smaller frontier
        if not frontier_f and not frontier_b:
            break
        expand_forward = bool(frontier_f) and (not frontier_b
                                               or len(frontier_f) <= len(frontier_b))
        frontier, parents, other = ((frontier_f, fwd, bwd) if expand_forward
                                    else (frontier_b, bwd, fwd))
        nxt_frontier = []
        for node in frontier:
            for i, inv in moves:
                nxt = apply_move(node, i, inv)
                if nxt in parents:
                    continue
                if len(fwd) + len(bwd) >= node_limit:
                    return None
                parents[nxt] = (node, -i if inv else i)
                if nxt in other:
                    word = trace(fwd, nxt) + trace(bwd, nxt).inverse()
                    if apply_braid(t1, word) != t2:
                        raise RuntimeError("internal inconsistency: the braid "
                                           "word found does not replay")
                    return word
                nxt_frontier.append(nxt)
        if expand_forward:
            frontier_f = nxt_frontier
        else:
            frontier_b = nxt_frontier
    return None


def _tail_pairs_equal(t: ReflectionTuple, pairs: int) -> bool:
    e = t.entries
    return all(e[len(e) - 1 - 2 * j] == e[len(e) - 2 - 2 * j] for j in range(pairs))


def lr_normalize(t: ReflectionTuple, target_reduced_length: int,
                 node_limit: int = 10 ** 6) -> BraidWord | None:
    """Braid word bringing t to repeated-pair-tail shape.

    The target shape keeps a length-`target_reduced_length` prefix and ends
    in (m - target)/2 equal pairs. Found by orbit BFS; when the orbit is
    exhausted a None is conclusive.
    """
    m = len(t)
    if (m - target_reduced_length) % 2 != 0 or m < target_reduced_length:
        raise ValueError("tuple length and target length have different parity")
    pairs = (m - target_reduced_length) // 2
    if _tail_pairs_equal(t, pairs):
        return BraidWord()
    moves = _moves(m)
    parents: dict = {t: None}
    frontier = deque([t])
    while frontier:
        node = frontier.popleft()
        for i, inv in moves:
            nxt = apply_move(node, i, inv)
            if nxt in parents:
                continue
            if len(parents) >= node_limit:
                return None
            parents[nxt] = (node, -i if inv else i)
            if _tail_pairs_equal(nxt, pairs):
                return OrbitResult(t, parents, False).word_to(nxt)
            frontier.append(nxt)
    return None

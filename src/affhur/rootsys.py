"""Crystallographic root systems from Cartan data, with exact arithmetic.

Roots live in simple-root coordinates, coroots in simple-coroot
coordinates; both are integral. The bilinear form is normalized so that
short roots have squared length 2, which makes the symmetrizer entries
d_i = (alpha_i | alpha_i)/2 lie in {1, 2, 3}.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from operator import mul

from .linalg import Mat, Vec, mat_vec

FAMILIES = ("A", "B", "C", "D", "E", "F", "G")
# the highest rank `parse_type` accepts: building a root system takes time
# that grows about as rank^4, and the group searches grow far faster
MAX_RANK = 12


class RootSystemError(ValueError):
    pass


class Root(namedtuple("Root", "coords")):
    """A root in simple-root coordinates; compares, sorts and hashes as
    the tuple (coords,)."""

    __slots__ = ()

    def __neg__(self) -> "Root":
        return Root(tuple(-c for c in self.coords))

    @property
    def is_positive(self) -> bool:
        for c in self.coords:
            if c:
                return c > 0
        return False


def _dynkin_data(family: str, rank: int):
    """Edges of the Dynkin diagram and the symmetrizer d."""
    n = rank
    path = [(i, i + 1) for i in range(n - 1)]
    if family == "A" and n >= 1:
        return path, (1,) * n
    if family == "B" and n >= 2:
        return path, (2,) * (n - 1) + (1,)
    if family == "C" and n >= 2:
        return path, (1,) * (n - 1) + (2,)
    if family == "D" and n >= 4:
        edges = [(i, i + 1) for i in range(n - 3)] + [(n - 3, n - 2), (n - 3, n - 1)]
        return edges, (1,) * n
    if family == "E" and n in (6, 7, 8):
        # Bourbaki numbering: node 2 hangs off node 4 of the chain 1-3-4-5-...
        chain = [1, 3] + list(range(4, n + 1))
        edges = [(a - 1, b - 1) for a, b in zip(chain, chain[1:])] + [(1, 3)]
        return edges, (1,) * n
    if family == "F" and n == 4:
        return path, (2, 2, 1, 1)
    if family == "G" and n == 2:
        return path, (1, 3)
    raise RootSystemError(f"invalid finite type {family}{rank}")


def _cartan_matrix(edges, d) -> Mat:
    n = len(d)
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = 2
    for i, j in edges:
        # (alpha_i | alpha_j) = -max(d_i, d_j) for a Dynkin edge
        a[i][j] = -max(d[i], d[j]) // d[i]
        a[j][i] = -max(d[i], d[j]) // d[j]
    return tuple(tuple(row) for row in a)


class RootSystem:
    """One finite root system; every field is determined by (family,
    rank), which is what equality and the hash read. The hash is computed
    once: every lru_cache keyed on a root system asks for it."""

    __slots__ = ("family", "rank", "cartan", "symmetrizer", "roots",
                 "highest_root", "ratio_delta", "_hash")

    def __init__(self, family: str, rank: int, cartan: Mat, symmetrizer: Vec,
                 roots: tuple[Root, ...], highest_root: Root, ratio_delta: int):
        self.family = family
        self.rank = rank
        self.cartan = cartan             # cartan[i][j] = <alpha_j, alpha_i-coroot>
        self.symmetrizer = symmetrizer   # d_i = (alpha_i | alpha_i)/2
        self.roots = roots               # all roots, sorted lexicographically
        self.highest_root = highest_root
        self.ratio_delta = ratio_delta   # squared-length ratio long/short
        self._hash = hash((family, rank))

    def __eq__(self, other) -> bool:
        if other.__class__ is not RootSystem:
            return NotImplemented
        return self.family == other.family and self.rank == other.rank

    def __hash__(self) -> int:
        return self._hash

    @property
    def root_set(self) -> frozenset[Root]:
        return _root_set(self)

    @property
    def positive_roots(self) -> tuple[Root, ...]:
        return tuple(r for r in self.roots if r.is_positive)

    @property
    def simple_roots(self) -> tuple[Root, ...]:
        n = self.rank
        return tuple(Root(tuple(1 if j == i else 0 for j in range(n))) for i in range(n))

    def norm_sq(self, a: Root) -> int:
        """(a | a), exact."""
        return sum(map(mul, bilinear_row(self, a), a.coords))

    def is_long(self, a: Root) -> bool:
        return self.norm_sq(a) == 2 * self.ratio_delta

    def is_root(self, a: Root) -> bool:
        return a in self.root_set


@lru_cache(maxsize=None)
def _root_set(rs: RootSystem) -> frozenset[Root]:
    return frozenset(rs.roots)


def _simple_reflect(cartan: Mat, i: int, coords: Vec) -> Vec:
    pairing = sum(cartan[i][j] * coords[j] for j in range(len(coords)))
    return tuple(c - pairing if j == i else c for j, c in enumerate(coords))


@lru_cache(maxsize=None)
def build_root_system(family: str, rank: int) -> RootSystem:
    """Construct the full root system of a finite type by reflection closure."""
    family = family.upper()
    edges, d = _dynkin_data(family, rank)
    cartan = _cartan_matrix(edges, d)
    n = rank
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    seen: set[Vec] = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(n):
                w = _simple_reflect(cartan, i, v)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    seen |= {tuple(-c for c in v) for v in seen}
    roots = tuple(sorted(Root(v) for v in seen))
    delta = max(d)

    highest = [r for r in roots if r.is_positive
               and all(tuple(x + y for x, y in zip(r.coords, s)) not in seen
                       for s in simple)]
    if len(highest) != 1:
        raise RootSystemError(f"highest root not unique in {family}{rank}")
    return RootSystem(
        family=family,
        rank=rank,
        cartan=cartan,
        symmetrizer=tuple(d),
        roots=roots,
        highest_root=highest[0],
        ratio_delta=delta,
    )


@lru_cache(maxsize=None)
def coroot(rs: RootSystem, alpha: Root) -> Vec:
    """Coroot 2*alpha/(alpha|alpha) in simple-coroot coordinates."""
    if not rs.is_root(alpha):
        raise RootSystemError(f"{alpha.coords} is not a root of {rs.family}{rs.rank}")
    d_alpha = rs.norm_sq(alpha) // 2
    out = []
    for c, di in zip(alpha.coords, rs.symmetrizer):
        num = c * di
        if num % d_alpha != 0:
            raise RootSystemError("non-integral coroot coordinates")
        out.append(num // d_alpha)
    return tuple(out)


def bilinear_row(rs: RootSystem, alpha: Root) -> Vec:
    """Row of the functional v -> (v | alpha) on root coordinates."""
    n = rs.rank
    return tuple(sum(rs.symmetrizer[i] * rs.cartan[i][j] * alpha.coords[i]
                     for i in range(n)) for j in range(n))


def pairing_coords(rs: RootSystem, lam_coords, alpha: Root):
    """(lambda | alpha) for a coweight in (possibly rational) coroot coordinates."""
    return sum(v * x for v, x in zip(lam_coords, mat_vec(rs.cartan, alpha.coords)))


def reflect(rs: RootSystem, alpha: Root, beta: Root) -> Root:
    """s_alpha(beta) = beta - <beta, alpha-coroot> alpha."""
    if not rs.is_root(alpha) or not rs.is_root(beta):
        raise RootSystemError("reflect arguments must be roots")
    p = pairing_coords(rs, coroot(rs, alpha), beta)
    return Root(tuple(b - p * a for a, b in zip(alpha.coords, beta.coords)))


def parse_type(s: str) -> RootSystem:
    """Parse a type string like 'A2' or 'b3' (case-insensitive).

    Ranks above `MAX_RANK` are rejected.
    """
    s = s.strip()
    if len(s) < 2 or s[0].upper() not in FAMILIES:
        raise RootSystemError(f"cannot parse root system type {s!r}")
    try:
        rank = int(s[1:])
    except ValueError:
        raise RootSystemError(f"cannot parse root system type {s!r}") from None
    if rank > MAX_RANK:
        raise RootSystemError(f"rank {rank} of {s!r} is above the supported "
                              f"maximum {MAX_RANK}")
    return build_root_system(s[0].upper(), rank)


def parse_root(rs: RootSystem, s: str) -> Root:
    """Parse a root literal 'c1,c2,...,cn'."""
    try:
        coords = tuple(int(x) for x in s.split(","))
    except ValueError:
        raise RootSystemError(f"cannot parse root literal {s!r}") from None
    if len(coords) != rs.rank:
        raise RootSystemError(f"root literal {s!r} has wrong rank for {rs.family}{rs.rank}")
    r = Root(coords)
    if not rs.is_root(r):
        raise RootSystemError(f"{s!r} is not a root of {rs.family}{rs.rank}")
    return r


def format_root(r: Root) -> str:
    return ",".join(str(c) for c in r.coords)

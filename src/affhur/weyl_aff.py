"""Affine Weyl group elements: one value and one multiplication rule.

An element is the pair (c, w) for TR(c) w, the translation applied last: c
is an integer tuple in simple-coroot coordinates and w is the root
permutation of the finite part (see `affhur.weyl_fin`). The rule is

    (c, u)(d, v) = (c + u(d), u v),

with u(d) read from the `RootTable.coactions` memo (`RootTable.coact`),
and the inverse of (c, u) is (-u^-1(c), u^-1). The affine reflection
s_{alpha,k} is the pair (k alpha-coroot, perm of s_alpha), so
right-multiplying by it gives (c + k (u alpha)-coroot, u s_alpha).
Conjugation follows from the rule and the inverse:

    (c, u)(d, v)(c, u)^-1 = (c + u(d) - (u v u^-1)(c), u v u^-1),

two actions on coroot coordinates where two products and an inverse make
three. `pair_mul`, `pair_inverse`, `pair_conj` and `reflection_pair` are
the rule on plain tuples; `AffineWeylElement` holds the same pair as
(`translation`, `finite`) and multiplies by the same rule.
`product_of_reflections`, `quasicox.connect_reduced` and the Hurwitz
replay `hurwitz.apply_braid` compute on tuples; the replay moves
reflection pairs, each its own inverse, so each letter is one `pair_conj`.
`quasicox.closure_generates` runs the reflection step inline, on c packed
into one integer and (u alpha)-coroot read packed from a table per
reflection.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from operator import add, itemgetter, neg, sub

from .linalg import Vec
from .rootsys import Root, RootSystem, RootSystemError, coroot, pairing_coords
from .weyl_fin import (FiniteWeylElement, RootTable, identity_element,
                       reflection_element, root_of_reflection, root_table)

Pair = tuple  # (c, w) for TR(c) w: coroot coordinates, root permutation
# builds an element from its fields without namedtuple's Python-level __new__
_new = tuple.__new__


def pair_mul(table: RootTable, x: Pair, y: Pair) -> Pair:
    """(c, u)(d, v) = (c + u(d), u v)."""
    (c, u), (d, v) = x, y
    # a root system has at least two roots, so itemgetter returns a tuple
    uv = itemgetter(*v)(u)
    # y = (0, v) needs no coaction: 14% of the calls in `verify lemmas`, and
    # about 2 in 3 in the product checks of `quasicox.connect_reduced`
    if not any(d):
        return c, uv
    return tuple(map(add, c, table.coact(u, d))), uv


def pair_inverse(table: RootTable, x: Pair) -> Pair:
    """(c, u)^-1 = (-u^-1(c), u^-1)."""
    c, u = x
    uinv = table.inverse(u)
    if not any(c):
        return c, uinv
    return tuple(map(neg, table.coact(uinv, c))), uinv


def pair_conj(table: RootTable, x: Pair, y: Pair) -> Pair:
    """x y x^-1 = (c + u(d) - (u v u^-1)(c), u v u^-1) for x = (c, u),
    y = (d, v)."""
    (c, u), (d, v) = x, y
    w = itemgetter(*table.inverse(u))(itemgetter(*v)(u))  # u v u^-1
    e = tuple(map(add, c, table.coact(u, d))) if any(d) else c
    if any(c):
        e = tuple(map(sub, e, table.coact(w, c)))
    return e, w


class AffineWeylElement(namedtuple("AffineWeylElement", "finite translation")):
    """TR(translation) * finite, the translation in coroot coordinates.
    Equal as the tuple (finite, translation); the hash reads the finite
    part's permutation and the translation."""

    __slots__ = ()

    def __mul__(self, other: "AffineWeylElement") -> "AffineWeylElement":
        table = self.finite.table
        return _element(table, pair_mul(table, (self.translation, self.finite.perm),
                                        (other.translation, other.finite.perm)))

    def inverse(self) -> "AffineWeylElement":
        table = self.finite.table
        return _element(table, pair_inverse(table, (self.translation,
                                                    self.finite.perm)))

    def __hash__(self) -> int:
        return hash((self.finite.perm, self.translation))

    def is_identity(self) -> bool:
        return self.finite.is_identity() and not any(self.translation)


def _element(table: RootTable, x: Pair) -> AffineWeylElement:
    """The pair (c, u) as the element TR(c) u."""
    c, u = x
    return _new(AffineWeylElement, (_new(FiniteWeylElement, (u, table)), c))


class AffineReflection(namedtuple("AffineReflection", "root level")):
    """Canonical (positive root, level) pair for s_{root, level}; compares,
    sorts and hashes as that tuple."""

    __slots__ = ()


def affine_reflection(rs: RootSystem, root: Root, level: int) -> AffineReflection:
    """Canonicalize: s_{alpha,k} = s_{-alpha,-k}, stored with positive root."""
    if not rs.is_root(root):
        raise RootSystemError(f"{root.coords} is not a root")
    if root.is_positive:
        return AffineReflection(root, level)
    return AffineReflection(-root, -level)


@lru_cache(maxsize=None)
def reflection_pair(rs: RootSystem, r: AffineReflection) -> Pair:
    """s_{alpha,k} as the pair (k alpha-coroot, perm of s_alpha)."""
    return (tuple(r.level * x for x in coroot(rs, r.root)),
            reflection_element(rs, r.root).perm)


@lru_cache(maxsize=None)
def as_element(rs: RootSystem, r: AffineReflection) -> AffineWeylElement:
    """s_{alpha,k} = TR(k alpha-coroot) s_alpha."""
    return _element(root_table(rs), reflection_pair(rs, r))


def translation_element(rs: RootSystem, lam: Vec) -> AffineWeylElement:
    if len(lam) != rs.rank:
        raise ValueError(f"expected {rs.rank} translation coordinates, "
                         f"got {len(lam)}")
    return AffineWeylElement(identity_element(rs), tuple(lam))


def recognize_reflection(rs: RootSystem, x: AffineWeylElement) -> AffineReflection | None:
    """Inverse of `as_element`; None if x is not a reflection."""
    alpha = root_of_reflection(rs, x.finite)
    if alpha is None:
        return None
    v = coroot(rs, alpha)
    # translation must be k * coroot(alpha)
    k = None
    for t, c in zip(x.translation, v):
        if c:
            if t % c != 0:
                return None
            k = t // c
            break
    if k is None:
        raise RuntimeError("internal inconsistency: a coroot has no "
                           "non-zero coordinate")
    if tuple(k * c for c in v) != x.translation:
        return None
    return AffineReflection(alpha, k)


def pair_product(table: RootTable, pairs) -> Pair:
    """The product of pairs, left to right; the identity for none."""
    out = ((0,) * len(table.simple), table.identity)
    for x in pairs:
        out = pair_mul(table, out, x)
    return out


def product_of_reflections(rs: RootSystem, refs) -> AffineWeylElement:
    table = root_table(rs)
    return _element(table, pair_product(
        table, [reflection_pair(rs, r) for r in refs]))


def is_coweight(rs: RootSystem, lam_coords) -> bool:
    """Integral pairing with the simple roots suffices for all roots."""
    return all(Fraction(pairing_coords(rs, lam_coords, a)).denominator == 1
               for a in rs.simple_roots)


def coweight_conjugate(rs: RootSystem, lam_coords, r: AffineReflection) -> AffineReflection:
    """TR(lambda) s_{alpha,k} TR(-lambda) = s_{alpha, k + (lambda|alpha)}."""
    if not is_coweight(rs, lam_coords):
        raise RootSystemError("vector is not in the coweight lattice")
    shift = pairing_coords(rs, lam_coords, r.root)
    return AffineReflection(r.root, r.level + int(shift))


def simple_system_affine(rs: RootSystem) -> tuple[AffineReflection, ...]:
    """The affine simple reflections: the finite simples plus s_{highest,1}."""
    return tuple(AffineReflection(a, 0) for a in rs.simple_roots) + \
        (AffineReflection(rs.highest_root, 1),)

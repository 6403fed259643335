"""Affine Weyl group elements in semidirect normal form.

An element is stored as the unique pair (finite part, translation) with
w = w0 * TR(lambda), the translation acting first. Under this convention
the affine reflection s_{alpha,k} corresponds to (s_alpha, -k * alpha-coroot).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .linalg import Vec, vec_add, vec_neg
from .rootsys import Root, RootSystem, RootSystemError, coroot, pairing_coords
from .weyl_fin import (FiniteWeylElement, identity_element, reflection_element,
                       root_of_reflection)


@dataclass(frozen=True)
class AffineWeylElement:
    finite: FiniteWeylElement
    translation: Vec  # coroot coordinates, integral

    def __mul__(self, other: "AffineWeylElement") -> "AffineWeylElement":
        # (u, l)(v, m) = (uv, m + v^-1(l))
        vinv = other.finite.inverse()
        return AffineWeylElement(
            self.finite * other.finite,
            vec_add(other.translation, vinv.act_coroot(self.translation)),
        )

    def inverse(self) -> "AffineWeylElement":
        return AffineWeylElement(self.finite.inverse(),
                                 vec_neg(self.finite.act_coroot(self.translation)))

    def __hash__(self) -> int:
        return hash((self.finite.perm, self.translation))

    def is_identity(self) -> bool:
        return self.finite.is_identity() and not any(self.translation)


@dataclass(frozen=True, order=True)
class AffineReflection:
    """Canonical (positive root, level) pair for s_{root, level}."""

    root: Root
    level: int


def affine_reflection(rs: RootSystem, root: Root, level: int) -> AffineReflection:
    """Canonicalize: s_{alpha,k} = s_{-alpha,-k}, stored with positive root."""
    if not rs.is_root(root):
        raise RootSystemError(f"{root.coords} is not a root")
    if root.is_positive:
        return AffineReflection(root, level)
    return AffineReflection(-root, -level)


def aff_identity(rs: RootSystem) -> AffineWeylElement:
    return AffineWeylElement(identity_element(rs), (0,) * rs.rank)


@lru_cache(maxsize=None)
def as_element(rs: RootSystem, r: AffineReflection) -> AffineWeylElement:
    """Normal form of s_{alpha,k}: (s_alpha, -k * alpha-coroot)."""
    v = coroot(rs, r.root)
    return AffineWeylElement(reflection_element(rs, r.root),
                             tuple(-r.level * x for x in v))


def translation_element(rs: RootSystem, lam: Vec) -> AffineWeylElement:
    return AffineWeylElement(identity_element(rs), tuple(lam))


def recognize_reflection(rs: RootSystem, x: AffineWeylElement) -> AffineReflection | None:
    """Inverse of the normal-form embedding; None if x is not a reflection."""
    alpha = root_of_reflection(rs, x.finite)
    if alpha is None:
        return None
    v = coroot(rs, alpha)
    # translation must be -k * coroot(alpha)
    k = None
    for t, c in zip(x.translation, v):
        if c:
            if t % c != 0:
                return None
            k = -(t // c)
            break
    if k is None:
        raise RuntimeError("internal inconsistency: a coroot has no "
                           "non-zero coordinate")
    if tuple(-k * c for c in v) != x.translation:
        return None
    return AffineReflection(alpha, k)


def product_of_reflections(rs: RootSystem, refs) -> AffineWeylElement:
    out = aff_identity(rs)
    for r in refs:
        out = out * as_element(rs, r)
    return out


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

"""Integer lattices as canonical Hermite-normal-form bases.

Equality of stored bases is equality of lattices; all arithmetic is over
arbitrary-precision integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .linalg import Mat, hnf, hnf_contains, hnf_reduce
from .rootsys import RootSystem

INFINITE = math.inf


@dataclass(frozen=True)
class IntegerLattice:
    ambient_rank: int
    basis: Mat  # r x n, canonical HNF, r <= n

    @property
    def rank(self) -> int:
        return len(self.basis)


def span(vectors, ambient_rank: int) -> IntegerLattice:
    """Canonical HNF basis of the integer span; empty input is the zero lattice."""
    vectors = list(vectors)
    for v in vectors:
        if len(v) != ambient_rank:
            raise ValueError(f"vector {v} does not have length {ambient_rank}")
    return IntegerLattice(ambient_rank, hnf(vectors, ambient_rank))


def full_lattice(ambient_rank: int) -> IntegerLattice:
    basis = tuple(tuple(1 if i == j else 0 for j in range(ambient_rank))
                  for i in range(ambient_rank))
    return IntegerLattice(ambient_rank, basis)


def contains(lattice: IntegerLattice, v) -> bool:
    if len(v) != lattice.ambient_rank:
        raise ValueError("dimension mismatch")
    return hnf_contains(lattice.basis, v)


def reduce_mod(lattice: IntegerLattice, v):
    """Canonical residue of v modulo the lattice."""
    return hnf_reduce(lattice.basis, v)


def lattice_equal(l1: IntegerLattice, l2: IntegerLattice) -> bool:
    return l1.ambient_rank == l2.ambient_rank and l1.basis == l2.basis


def is_sublattice(sub: IntegerLattice, sup: IntegerLattice) -> bool:
    return all(contains(sup, row) for row in sub.basis)


def _pivot_product(basis: Mat) -> int:
    return math.prod(next(x for x in row if x) for row in basis)


def index(sub: IntegerLattice, sup: IntegerLattice):
    """Index [sup : sub]; INFINITE when the ranks differ.

    Raises ValueError unless sub is contained in sup. Of equal rank, sub
    and sup span the same rational space, so their HNF bases have their
    pivots in the same columns and are triangular there: the index is the
    ratio of the pivot products.
    """
    if not is_sublattice(sub, sup):
        raise ValueError("first lattice is not contained in the second")
    if sub.rank < sup.rank:
        return INFINITE
    q, r = divmod(_pivot_product(sub.basis), _pivot_product(sup.basis))
    if r:
        raise RuntimeError("internal inconsistency: the pivot product of a "
                           "lattice does not divide that of its sublattice")
    return q


def connection_index(rs: RootSystem) -> int:
    """|P(Phi)/L(Phi)| = |det(Cartan matrix)|: the index of the lattice
    spanned by the rows of the Cartan matrix."""
    n = rs.rank
    return index(span(rs.cartan, n), full_lattice(n))

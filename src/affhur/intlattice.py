"""Integer lattices as canonical Hermite-normal-form bases.

Equality of stored bases is equality of lattices, and v lies in a lattice
exactly when its residue (`reduce_mod`) is zero; all arithmetic is over
arbitrary-precision integers.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .linalg import Mat, hnf, hnf_pivots, hnf_reduce
from .rootsys import RootSystem


class IntegerLattice:
    """A lattice in Z^ambient_rank by its canonical HNF basis; two are
    equal when their ambient ranks and bases are."""

    __slots__ = ("ambient_rank", "basis", "pivots")

    def __init__(self, ambient_rank: int, basis: Mat):
        self.ambient_rank = ambient_rank
        self.basis = basis  # r x n, canonical HNF, r <= n
        # the pivot column of each basis row, read once; determined by the basis
        self.pivots = hnf_pivots(basis)

    def __eq__(self, other) -> bool:
        if other.__class__ is not IntegerLattice:
            return NotImplemented
        return self.ambient_rank == other.ambient_rank and self.basis == other.basis

    def __hash__(self) -> int:
        return hash((self.ambient_rank, self.basis))

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


@lru_cache(maxsize=None)
def full_lattice(ambient_rank: int) -> IntegerLattice:
    """Z^n with its identity basis; built on first use, one per rank."""
    basis = tuple(tuple(1 if i == j else 0 for j in range(ambient_rank))
                  for i in range(ambient_rank))
    return IntegerLattice(ambient_rank, basis)


def reduce_mod(lattice: IntegerLattice, v):
    """Canonical residue of v modulo the lattice."""
    return hnf_reduce(lattice.basis, lattice.pivots, v)


def lattice_equal(l1: IntegerLattice, l2: IntegerLattice) -> bool:
    return l1.ambient_rank == l2.ambient_rank and l1.basis == l2.basis


def connection_index(rs: RootSystem) -> int:
    """|P(Phi)/L(Phi)| = |det(Cartan matrix)| = [Z^n : L] for L the span
    of the Cartan rows. L has full rank, so its HNF basis is triangular
    with positive pivots, and the index is their product."""
    lattice = span(rs.cartan, rs.rank)
    return math.prod(row[p] for row, p in zip(lattice.basis, lattice.pivots))

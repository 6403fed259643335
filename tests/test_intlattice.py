import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affhur.intlattice import (INFINITE, connection_index, contains,
                               full_lattice, index, is_sublattice,
                               lattice_equal, reduce_mod, span)
from affhur.rootsys import build_root_system, coroot


def test_span_canonical_example():
    lat = span([(2, 0), (0, 2), (1, 1)], 2)
    assert lat.basis == ((1, 1), (0, 2))


def test_full_and_zero():
    full = full_lattice(2)
    assert full.rank == 2
    zero = span([], 2)
    assert zero.rank == 0
    assert is_sublattice(zero, full)


def test_contains_and_reduce():
    lat = span([(1, 1), (0, 2)], 2)
    assert contains(lat, (3, 5))
    assert not contains(lat, (1, 0))
    assert reduce_mod(lat, (3, 5)) == (0, 0)
    assert reduce_mod(lat, (1, 0)) == (0, 1)


def test_index():
    full = full_lattice(2)
    even = span([(2, 0), (0, 2)], 2)
    assert index(even, full) == 4
    assert index(full, full) == 1
    line = span([(1, 0)], 2)
    assert index(line, full) == INFINITE
    with pytest.raises(ValueError):
        index(full, even)


def _det(m) -> int:
    """Leibniz expansion: a determinant that shares no code with affhur."""
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        pairs = itertools.combinations(range(n), 2)
        inversions = sum(perm[i] > perm[j] for i, j in pairs)
        total += (-1) ** inversions * math.prod(m[i][perm[i]] for i in range(n))
    return total


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_index_is_the_coefficient_determinant(data):
    # sub = C * (basis of sup), so [sup : sub] = |det C| when C is invertible
    n = data.draw(st.integers(1, 4))
    entry = st.integers(-3, 3)
    vectors = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                                 min_size=1, max_size=4))
    sup = span(vectors, n)
    r = sup.rank
    c = data.draw(st.lists(st.lists(entry, min_size=r, max_size=r),
                           min_size=r, max_size=r))
    sub = span([[sum(c[i][k] * sup.basis[k][j] for k in range(r)) for j in range(n)]
                for i in range(r)], n)
    det = _det(c)
    assert index(sub, sup) == (abs(det) if det else INFINITE)


def test_connection_indices():
    expected = {("A", 1): 2, ("A", 2): 3, ("B", 2): 2, ("G", 2): 1,
                ("F", 4): 1, ("D", 4): 4, ("E", 6): 3, ("C", 3): 2,
                ("A", 5): 6, ("B", 4): 2, ("C", 4): 2, ("D", 5): 4,
                ("E", 7): 2, ("E", 8): 1}
    for (family, rank), idx in expected.items():
        assert connection_index(build_root_system(family, rank)) == idx


def test_root_and_coroot_span():
    rs = build_root_system("B", 2)
    full = full_lattice(2)

    def root_span(roots):
        return span([r.coords for r in roots], rs.rank)

    simples = list(rs.simple_roots)
    assert lattice_equal(root_span(simples), full)
    assert lattice_equal(span([coroot(rs, r) for r in simples], rs.rank), full)
    # the two long positive roots span index-2 sublattices
    longs = [r for r in rs.positive_roots if rs.is_long(r)]
    assert index(root_span(longs), full) == 2

import itertools
import math
import random
from collections import deque
from operator import mul

import pytest

from affhur.hurwitz import orbit, reflection_codes
from affhur.intlattice import full_lattice, lattice_equal, span
from affhur.linalg import mat_mul, mat_vec
from affhur.rootsys import (Root, RootSystemError, bilinear_row,
                            build_root_system, coroot, parse_type, reflect)
from affhur.weyl_fin import (SEARCH_MEMO_SIZE, FiniteWeylElement, RootTable,
                             _closure_indices, absolute_length, all_elements,
                             fixed_affine_subspace, generates_w0,
                             generates_w0_codes, identity_element,
                             is_parabolic, is_parabolic_quasi_coxeter_fin,
                             is_quasi_coxeter_fin, reflection_element,
                             root_index_sequences, root_of_reflection,
                             root_sequences, root_table, smallest_subsystem)
from test_hurwitz import product

GROUP_ORDERS = {("A", 2): 6, ("B", 2): 8, ("G", 2): 12, ("A", 3): 24}


def bfs_absolute_length(rs, w):
    """Independent oracle: word-length BFS over the reflection generators."""
    if w.is_identity():
        return 0
    gens = [reflection_element(rs, r) for r in rs.positive_roots]
    seen = {identity_element(rs)}
    frontier = [identity_element(rs)]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y == w:
                    return depth
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    raise AssertionError("element not reached")


@pytest.mark.parametrize("family,rank", sorted(GROUP_ORDERS))
def test_group_orders(family, rank):
    rs = build_root_system(family, rank)
    assert len(all_elements(rs)) == GROUP_ORDERS[(family, rank)]


def test_reflections_are_involutions():
    rs = build_root_system("B", 2)
    for r in rs.positive_roots:
        t = reflection_element(rs, r)
        assert t * t == identity_element(rs)
        assert t.act_root(r) == -r
        assert root_of_reflection(rs, t) == r
    assert root_of_reflection(rs, identity_element(rs)) is None


TABLE_GROUPS = ["A2", "B2", "G2", "A3", "B3", "C3", "A4", "B4", "C4", "D4", "F4"]


@pytest.mark.parametrize("name", TABLE_GROUPS)
def test_root_table_codes_match_reflect(name):
    rs = parse_type(name)
    table = root_table(rs)
    pos = rs.positive_roots
    where = {r: i for i, r in enumerate(rs.roots)}
    identity = tuple(range(len(rs.roots)))
    assert len(table.reflections) == len(table.elements) == len(pos)
    assert len(table.perm_codes) == len(pos)
    for alpha in rs.roots:
        j = table.code(alpha)
        assert j == table.root_codes[alpha] == pos.index(alpha if alpha.is_positive
                                                         else -alpha)
        perm = tuple(where[reflect(rs, alpha, b)] for b in rs.roots)
        i, stored, times_s = table.reflections[j]
        assert i == where[pos[j]]
        assert stored == perm == table.elements[j].perm == times_s(identity)
        assert table.elements[j].table is table
        assert table.perm_codes[perm] == j
        assert root_of_reflection(rs, table.elements[j]) == pos[j]
    coxeter = identity_element(rs)
    for a in rs.simple_roots:
        coxeter = coxeter * reflection_element(rs, a)
    assert root_of_reflection(rs, identity_element(rs)) is None
    assert root_of_reflection(rs, coxeter) is None


def test_reflection_same_for_opposite_roots():
    rs = build_root_system("A", 2)
    a = Root((1, 1))
    assert reflection_element(rs, a) == reflection_element(rs, -a)
    with pytest.raises(RootSystemError):
        reflection_element(rs, Root((2, 0)))


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("G", 2)])
def test_absolute_length_against_bfs_oracle(family, rank):
    rs = build_root_system(family, rank)
    for w in all_elements(rs):
        assert absolute_length(w) == bfs_absolute_length(rs, w)


def leq_T(u, v):
    """Absolute order: l(u) + l(u^-1 v) = l(v)."""
    return absolute_length(u) + absolute_length(u.inverse() * v) == absolute_length(v)


def test_leq_T():
    rs = build_root_system("A", 2)
    e = identity_element(rs)
    s = reflection_element(rs, Root((1, 0)))
    c = s * reflection_element(rs, Root((0, 1)))
    assert leq_T(e, s) and leq_T(s, c) and leq_T(e, c)
    assert not leq_T(c, s)


# Coxeter elements: Deligne's count n! h^n / |W| of reduced factorizations,
# with h the Coxeter number (number of roots over the rank)
COXETER_RED_T = [("A", 2, 3), ("A", 3, 16), ("B", 3, 27), ("A", 4, 125),
                 ("B", 4, 256), ("D", 4, 162), ("F", 4, 432)]


@pytest.mark.parametrize("family,rank,count", COXETER_RED_T,
                         ids=[f"{f}{n}" for f, n, _ in COXETER_RED_T])
def test_reduced_factorizations_coxeter(family, rank, count):
    rs = build_root_system(family, rank)
    h = len(rs.roots) // rank
    assert math.factorial(rank) * h ** rank == count * len(all_elements(rs))
    c = identity_element(rs)
    for a in rs.simple_roots:
        c = c * reflection_element(rs, a)
    assert absolute_length(c) == rank
    facs = [seq for seq, _ in root_index_sequences(rs, c, rank)]
    assert len(facs) == count == len(set(facs))
    pos = rs.positive_roots
    for fac in facs:
        assert product([reflection_element(rs, pos[j]) for j in fac]) == c


def test_reduced_factorizations_identity():
    rs = build_root_system("B", 2)
    e = identity_element(rs)
    assert absolute_length(e) == 0
    assert list(root_index_sequences(rs, e, 0)) == [((), ())]


def red_t_codes(rs, w):
    """Red_T(w) as index sequences, in itertools.product order."""
    return [seq for seq, _ in root_index_sequences(rs, w, absolute_length(w))]


def _brute_force_root_sequences(rs, m):
    """Every length-m sequence of positive roots, in itertools.product
    order, grouped by the product of its reflections; each with its
    columns, the coroots of s_{b_1} ... s_{b_{i-1}}(b_i), computed by
    reflecting roots one reflection at a time."""
    by_product = {}
    for seq in itertools.product(rs.positive_roots, repeat=m):
        prod = identity_element(rs)
        for b in seq:
            prod = prod * reflection_element(rs, b)
        cols = []
        for i, b in enumerate(seq):
            image = b
            for a in reversed(seq[:i]):
                image = reflect(rs, a, image)
            cols.append(coroot(rs, image))
        by_product.setdefault(prod, []).append((seq, tuple(cols)))
    return by_product


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("G", 2),
                                         ("A", 3), ("B", 3)])
def test_root_sequences_match_brute_force(family, rank):
    # the prefix search yields exactly the filtered product, in its order,
    # with the same columns; for every target and m <= 4
    rs = build_root_system(family, rank)
    pos = rs.positive_roots
    for m in range(5):
        by_product = _brute_force_root_sequences(rs, m)
        for target in all_elements(rs):
            expected = by_product.get(target, [])
            assert list(root_sequences(rs, target, m)) == expected
            assert [(tuple(pos[j] for j in seq), cols) for seq, cols
                    in root_index_sequences(rs, target, m)] == expected


def test_red_t_single_orbit_d4():
    """Red_T of each quasi-Coxeter element of D4 is one Hurwitz orbit.

    D4 has 44 quasi-Coxeter elements: the 32 Coxeter elements, one
    conjugacy class, and the 12 of Carter's class D4(a1), the first
    quasi-Coxeter elements that are not Coxeter.
    """
    rs = build_root_system("D", 4)
    elements = all_elements(rs)
    c = identity_element(rs)
    for a in rs.simple_roots:
        c = c * reflection_element(rs, a)
    coxeter_class = {g * c * g.inverse() for g in elements}
    sizes = {}
    for w in elements:
        if absolute_length(w) != 4 or not is_quasi_coxeter_fin(rs, w):
            continue
        facs = red_t_codes(rs, w)
        res = orbit(reflection_codes(rs, False).move, facs[0])
        assert res.exhausted
        assert res.members == set(facs)
        sizes[w] = len(facs)
    assert len(sizes) == 44
    assert {w for w, k in sizes.items() if k == 162} == coxeter_class
    assert sorted(sizes.values()) == [162] * 32 + [192] * 12


# parabolic quasi-Coxeter elements, the identity included; in type A that
# is every element
PARABOLIC_QC_COUNTS = [("A", 3, 24), ("B", 3, 38), ("C", 3, 38), ("D", 4, 191)]


@pytest.mark.parametrize("family,rank,count", PARABOLIC_QC_COUNTS,
                         ids=[f"{f}{n}" for f, n, _ in PARABOLIC_QC_COUNTS])
def test_red_t_single_orbit_parabolic_quasi_coxeter(family, rank, count):
    """The finite case of the paper's theorem: Red_T of every parabolic
    quasi-Coxeter element is one Hurwitz orbit."""
    rs = build_root_system(family, rank)
    found = 0
    for w in all_elements(rs):
        if not is_parabolic_quasi_coxeter_fin(rs, w):
            continue
        found += 1
        facs = red_t_codes(rs, w)
        if w.is_identity():
            assert facs == [()]
            continue
        res = orbit(reflection_codes(rs, False).move, facs[0])
        assert res.exhausted
        assert res.members == set(facs)
    assert found == count


def test_generates_w0():
    rs = build_root_system("B", 2)
    longs = [r for r in rs.positive_roots if rs.is_long(r)]
    shorts = [r for r in rs.positive_roots if rs.norm_sq(r) == 2]
    assert generates_w0(rs, [longs[0], shorts[0]])
    assert not generates_w0(rs, longs)   # A1 x A1 subgroup
    assert not generates_w0(rs, shorts)  # index-2 coroot span


def test_generates_matches_group_closure():
    rs = build_root_system("B", 2)
    pos = rs.positive_roots
    for i, a in enumerate(pos):
        for b in pos[i:]:
            gens = [reflection_element(rs, a), reflection_element(rs, b)]
            seen = {identity_element(rs)}
            queue = deque(seen)
            while queue:
                x = queue.popleft()
                for g in gens:
                    y = x * g
                    if y not in seen:
                        seen.add(y)
                        queue.append(y)
            assert generates_w0(rs, [a, b]) == (len(seen) == 8)


def pairwise_closure(rs, roots):
    """Reference root closure: reflect every ordered pair until nothing changes."""
    closed = set()
    for r in roots:
        closed.add(r)
        closed.add(-r)
    changed = True
    while changed:
        changed = False
        current = list(closed)
        for a in current:
            for b in current:
                c = reflect(rs, a, b)
                if c not in closed:
                    closed.add(c)
                    changed = True
    return frozenset(closed)


def test_smallest_subsystem_a2():
    rs = build_root_system("A", 2)
    sub = smallest_subsystem(rs, [Root((1, 0))])
    assert sub == {Root((1, 0)), Root((-1, 0))}
    sub2 = smallest_subsystem(rs, [Root((1, 0)), Root((0, 1))])
    assert sub2 == rs.root_set
    with pytest.raises(RootSystemError):
        smallest_subsystem(rs, [])


def test_smallest_subsystem_b2_long_roots():
    rs = build_root_system("B", 2)
    longs = [r for r in rs.positive_roots if rs.is_long(r)]
    sub = smallest_subsystem(rs, longs)
    # the long roots of B2 form an A1 x A1 subsystem, closed already
    assert len(sub) == 4
    assert all(rs.is_long(r) for r in sub)


def random_root_tuples(rs, count, lengths, seed):
    rng = random.Random(seed)
    return [[rng.choice(rs.roots) for _ in range(rng.choice(lengths))]
            for _ in range(count)]


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4),
                                         ("F", 4), ("E", 6)])
def test_smallest_subsystem_matches_pairwise_closure(family, rank):
    rs = build_root_system(family, rank)
    for roots in random_root_tuples(rs, 30, range(1, rank + 1), 1707):
        assert smallest_subsystem(rs, roots) == pairwise_closure(rs, roots)


def spans_both_lattices(rs, roots):
    """The lattice criterion for generating W: the roots span the root
    lattice and their coroots span the coroot lattice."""
    full = full_lattice(rs.rank)
    return (lattice_equal(span([r.coords for r in roots], rs.rank), full)
            and lattice_equal(span([coroot(rs, r) for r in roots], rs.rank),
                              full))


@pytest.mark.parametrize("family,rank", [("B", 3), ("C", 3), ("D", 4), ("F", 4),
                                         ("E", 6)])
def test_generates_w0_iff_closure_is_everything(family, rank):
    """`generates_w0` asks whether the root closure is everything; the
    lattice criterion decides generation independently of the closure."""
    rs = build_root_system(family, rank)
    seen = set()
    for roots in random_root_tuples(rs, 40, (rank, rank + 1), 1706):
        generates = spans_both_lattices(rs, roots)
        assert generates_w0(rs, roots) == generates
        seen.add(generates)
    assert seen == {True, False}


def closure_verdict(rs, codes):
    """The index test without its memo: the closure is every root."""
    return len(_closure_indices(rs, codes)) == len(rs.roots)


@pytest.mark.parametrize("name", ["A3", "B3", "C3"])
def test_generates_w0_codes_on_every_subset(name):
    # every set of positive-root indices, the empty one included, against
    # the unmemoized closure and the lattice criterion
    rs = parse_type(name)
    pos = rs.positive_roots
    seen = set()
    for size in range(len(pos) + 1):
        for subset in itertools.combinations(range(len(pos)), size):
            codes = frozenset(subset)
            generates = spans_both_lattices(rs, [pos[j] for j in subset])
            assert generates_w0_codes(rs, codes) == generates
            assert closure_verdict(rs, codes) == generates
            seen.add(generates)
    assert seen == {True, False}


def test_generates_w0_codes_keeps_root_systems_apart():
    # B3 and C3 number their positive roots alike; one index set has a
    # memo entry per root system, each answered by that system's closure
    b3, c3 = parse_type("B3"), parse_type("C3")
    assert b3 != c3
    subsets = [frozenset(s) for s in itertools.combinations(range(9), 3)]
    generates_w0_codes.cache_clear()
    differ = 0
    for codes in subsets:
        b, c = generates_w0_codes(b3, codes), generates_w0_codes(c3, codes)
        assert b == closure_verdict(b3, codes)
        assert c == closure_verdict(c3, codes)
        differ += b != c
    assert differ, "some index set must generate in one system only"
    info = generates_w0_codes.cache_info()
    assert (info.misses, info.hits, info.currsize) == \
        (2 * len(subsets), 0, 2 * len(subsets))
    for codes in subsets:
        assert generates_w0_codes(b3, codes) == closure_verdict(b3, codes)
    assert generates_w0_codes.cache_info().hits == len(subsets)


def test_generates_w0_codes_memo_is_bounded():
    assert generates_w0_codes.cache_info().maxsize == SEARCH_MEMO_SIZE == 1 << 16


def test_is_parabolic():
    rs = build_root_system("A", 3)
    simples = list(rs.simple_roots)
    assert is_parabolic(rs, simples[:1])
    assert is_parabolic(rs, simples[:2])
    assert is_parabolic(rs, simples)
    # two orthogonal roots spanning a non-parabolic A1 x A1 in B2
    rsb = build_root_system("B", 2)
    longs = [r for r in rsb.positive_roots if rsb.is_long(r)]
    assert not is_parabolic(rsb, longs)
    assert is_parabolic(rsb, [])


def fraction_scan_is_parabolic(rs, roots, levels):
    """Reference for `is_parabolic`: the fixer set scanned in `Fraction`s.

    A root fixes p + U when its row of the bilinear form vanishes on U
    and pairs with p to an integer.
    """
    sub = fixed_affine_subspace(rs, roots, levels)
    if sub is None:
        return False
    point, basis = sub
    fixer = set()
    for alpha in rs.roots:
        row = bilinear_row(rs, alpha)
        if (all(sum(map(mul, row, u)) == 0 for u in basis)
                and sum(map(mul, row, point)).denominator == 1):
            fixer.add(alpha)
    return fixer == smallest_subsystem(rs, roots)


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "B3", "C3"])
def test_is_parabolic_matches_fraction_scan(name):
    rs = build_root_system(name[0], int(name[1]))
    verdicts = set()
    for m in (1, 2, 3):
        for roots in itertools.combinations(rs.positive_roots, m):
            for levels in itertools.product((-1, 0, 1), repeat=m):
                verdict = is_parabolic(rs, roots, levels)
                assert verdict == fraction_scan_is_parabolic(rs, roots, levels)
                verdicts.add(verdict)
    assert verdicts == {True, False}


def test_quasi_coxeter_fin():
    rs = build_root_system("B", 2)
    s_long = reflection_element(rs, Root((1, 0)))
    s_short = reflection_element(rs, Root((0, 1)))
    assert is_quasi_coxeter_fin(rs, s_long * s_short)
    # the rotation by pi: product of the two long (orthogonal) reflections
    longs = [r for r in rs.positive_roots if rs.is_long(r)]
    rot = reflection_element(rs, longs[0]) * reflection_element(rs, longs[1])
    assert not is_quasi_coxeter_fin(rs, rot)
    assert not is_parabolic_quasi_coxeter_fin(rs, rot)
    assert is_parabolic_quasi_coxeter_fin(rs, s_long)


def test_fac_set():
    # the Fac set of a reflection, read from the prefix search, against
    # every triple of positive roots
    rs = build_root_system("A", 2)
    pos = rs.positive_roots
    s1 = reflection_element(rs, Root((1, 0)))
    facs = [roots for roots, _ in root_sequences(rs, s1, 3)
            if generates_w0(rs, roots)]
    assert facs, "a reflection has generating length-3 factorizations"
    assert facs == [
        roots for roots in itertools.product(pos, repeat=3)
        if product([reflection_element(rs, r) for r in roots]) == s1
        and generates_w0(rs, roots)]


def test_roots_of_tuple_rejects_non_reflection():
    rs = build_root_system("A", 2)
    c = reflection_element(rs, Root((1, 0))) * reflection_element(rs, Root((0, 1)))
    assert root_of_reflection(rs, c) is None


def reflection_matrices(rs, alpha):
    """s_alpha on root and on coroot coordinates, from the Cartan matrix alone.

    On roots, s_alpha(x) = x - <x, alpha-coroot> alpha; on coroots,
    s_alpha(y) = y - <alpha, y> alpha-coroot.
    """
    n = rs.rank
    a = alpha.coords
    av = coroot(rs, alpha)
    # <alpha_j, alpha-coroot> and <alpha, alpha_j-coroot> as Cartan sums
    on_roots = tuple(tuple((i == j) - a[i] * sum(av[k] * rs.cartan[k][j] for k in range(n))
                           for j in range(n)) for i in range(n))
    on_coroots = tuple(tuple((i == j) - av[i] * sum(rs.cartan[j][k] * a[k] for k in range(n))
                             for j in range(n)) for i in range(n))
    return on_roots, on_coroots


def comatrix(u):
    """Action on coroot coordinates; column j is the coroot of u(alpha_j)."""
    rs = u.table.rs
    return tuple(zip(*(coroot(rs, u.act_root(a)) for a in rs.simple_roots)))


def check_reflections(rs):
    for r in rs.positive_roots:
        t = reflection_element(rs, r)
        assert (t.matrix, comatrix(t)) == reflection_matrices(rs, r)
        assert root_of_reflection(rs, t) == r


def check_against_matrices(pairs):
    """The permutation group law agrees with matrix multiplication."""
    for u, v in pairs:
        uv = u * v
        assert uv.matrix == mat_mul(u.matrix, v.matrix)
        assert comatrix(uv) == mat_mul(comatrix(u), comatrix(v))


def identity_mat(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def check_actions(rs, elements):
    eye = identity_mat(rs.rank)
    probes = [coroot(rs, r) for r in rs.roots] + [tuple(range(1, rs.rank + 1))]
    for u in elements:
        assert (u * u.inverse()).is_identity() and (u.inverse() * u).is_identity()
        assert mat_mul(u.matrix, u.inverse().matrix) == eye
        for r in rs.roots:
            assert u.act_root(r) == Root(mat_vec(u.matrix, r.coords))
        for v in probes:
            assert u.table.coact(u.perm, v) == mat_vec(comatrix(u), v)


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("C", 2), ("G", 2),
                                         ("A", 3)])
def test_permutations_agree_with_matrix_oracle(family, rank):
    rs = build_root_system(family, rank)
    check_reflections(rs)
    elements = all_elements(rs)
    check_against_matrices(itertools.product(elements, repeat=2))
    check_actions(rs, elements)
    assert identity_element(rs).matrix == identity_mat(rank)


@pytest.mark.parametrize("family,rank,order", [("B", 3, 48), ("F", 4, 1152)])
def test_permutations_agree_with_matrix_oracle_sampled(family, rank, order):
    rs = build_root_system(family, rank)
    check_reflections(rs)
    elements = all_elements(rs)
    assert len(elements) == order
    rng = random.Random(1994)
    pairs = [(rng.choice(elements), rng.choice(elements)) for _ in range(300)]
    check_against_matrices(pairs)
    check_actions(rs, rng.sample(elements, 40))


@pytest.mark.parametrize("family,rank", [("B", 2), ("C", 2), ("G", 2), ("B", 3)])
def test_coroot_action_memo(family, rank):
    rs = build_root_system(family, rank)
    table = RootTable(rs)
    elements = [FiniteWeylElement(w.perm, table) for w in all_elements(rs)]
    probes = [coroot(rs, r) for r in rs.roots] + [tuple(range(1, rank + 1))]
    for u in elements:
        assert u.perm not in table.coactions
        for _ in range(2):
            for v in probes:
                assert u.table.coact(u.perm, v) == mat_vec(comatrix(u), v)
        assert len(table.coactions) <= len(elements)
    assert table.coactions.keys() == {u.perm for u in elements}


def test_coroot_action_memo_keeps_b2_and_c2_apart():
    b2, c2 = build_root_system("B", 2), build_root_system("C", 2)
    tables = (RootTable(b2), RootTable(c2))
    differ = 0
    for w in all_elements(b2):
        # the same permutation read in either table, asked alternately
        u, twin = (FiniteWeylElement(w.perm, t) for t in tables)
        for x in (u, twin, u, twin):
            assert x.table.coact(x.perm, (1, 2)) == mat_vec(comatrix(x), (1, 2))
        differ += comatrix(u) != comatrix(twin)
    assert differ


def test_equal_permutations_of_different_systems_differ():
    b2 = build_root_system("B", 2)
    c2 = build_root_system("C", 2)
    for r in b2.positive_roots:
        t = reflection_element(b2, r)
        twin = FiniteWeylElement(t.perm, root_table(c2))
        assert twin != t
    assert identity_element(b2) != identity_element(c2)
    assert identity_element(b2) == identity_element(build_root_system("B", 2))

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affhur.rootsys import (Root, RootSystemError, build_root_system, coroot,
                            parse_type)
from affhur.weyl_aff import (AffineReflection, AffineWeylElement,
                             affine_reflection, as_element, coweight_conjugate,
                             is_coweight, pair_conj, pair_inverse, pair_mul,
                             pair_product, product_of_reflections,
                             recognize_reflection, reflection_pair,
                             simple_system_affine, translation_element)
from affhur.weyl_fin import (fixed_affine_subspace, identity_element,
                             reflection_element, root_sequences, root_table)
from test_hurwitz import _model_group


@pytest.fixture(scope="module")
def a2():
    return build_root_system("A", 2)


@pytest.fixture(scope="module")
def b2():
    return build_root_system("B", 2)


def all_reflections(rs, level):
    return [AffineReflection(r, k) for r in rs.positive_roots
            for k in range(-level, level + 1)]


def test_affine_reflection_canonicalization(a2):
    r = affine_reflection(a2, Root((-1, 0)), 2)
    assert r == AffineReflection(Root((1, 0)), -2)
    assert as_element(a2, r) == as_element(a2, AffineReflection(Root((1, 0)), -2))
    with pytest.raises(RootSystemError):
        affine_reflection(a2, Root((2, 0)), 0)


def test_as_element_normal_form(a2):
    r = AffineReflection(Root((1, 1)), 1)
    e = as_element(a2, r)
    assert e.finite == reflection_element(a2, Root((1, 1)))
    assert e.translation == (1, 1)  # TR(k * coroot) s_alpha
    assert e * e == product_of_reflections(a2, ())


def test_recognize_reflection_round_trip(b2):
    for r in all_reflections(b2, 3):
        assert recognize_reflection(b2, as_element(b2, r)) == r
    assert recognize_reflection(b2, product_of_reflections(b2, ())) is None
    # a pure translation by a coroot is not a reflection
    tr = translation_element(b2, (1, 0))
    assert recognize_reflection(b2, tr) is None
    # reflection finite part with a mismatched translation
    bad = AffineWeylElement(reflection_element(b2, Root((1, 0))), (0, 1))
    assert recognize_reflection(b2, bad) is None


def test_multiplication_group_axioms(b2):
    refl = all_reflections(b2, 1)
    sample = refl[::3]
    for x_r, y_r, z_r in itertools.product(sample[:4], repeat=3):
        x, y, z = (as_element(b2, r) for r in (x_r, y_r, z_r))
        assert (x * y) * z == x * (y * z)
        assert x * x.inverse() == product_of_reflections(b2, ())
        assert x.inverse().inverse() == x


# ------------------------------------- the pair rule against the matrix model

PAIR_GROUPS = ("A2", "B2", "G2", "A3", "B3", "C3")


@st.composite
def reflection_words(draw):
    """(group name, affine reflections on any roots, levels in [-3, 3])."""
    name = draw(st.sampled_from(PAIR_GROUPS))
    roots = parse_type(name).roots
    word = draw(st.lists(st.tuples(st.sampled_from(roots), st.integers(-3, 3)),
                         min_size=1, max_size=7))
    return name, [AffineReflection(r, k) for r, k in word]


def pair_matrix(table, x):
    """The affine matrix of TR(c) u on (coroot coordinates, 1)."""
    c, u = x
    cols = [table.coroots[u[s]] for s in table.simple]
    n = len(cols)
    return tuple(tuple(col[i] for col in cols) + (c[i],) for i in range(n)) \
        + ((0,) * n + (1,),)


@settings(max_examples=150, deadline=None)
@given(reflection_words(), st.integers(0, 7))
def test_pair_rule_matches_the_matrix_model(data, cut):
    name, word = data
    rs = parse_type(name)
    table = root_table(rs)
    pairs = [reflection_pair(rs, r) for r in word]
    prod = pair_product(table, pairs)
    # the benchmark's integer affine matrices share no code with affhur
    expected = _model_group(name).product([(r.root.coords, r.level) for r in word])
    assert pair_matrix(table, prod) == expected
    # the rule on two arbitrary pairs, not only on a reflection factor
    cut = min(cut, len(pairs))
    assert pair_mul(table, pair_product(table, pairs[:cut]),
                    pair_product(table, pairs[cut:])) == prod
    assert pair_mul(table, prod, pair_inverse(table, prod)) == \
        ((0,) * rs.rank, table.identity)
    # the element multiplies by the same rule
    identity = elem = product_of_reflections(rs, ())
    for r in word:
        elem = elem * as_element(rs, r)
    assert pair_matrix(table, (elem.translation, elem.finite.perm)) == expected
    assert elem * elem.inverse() == elem.inverse() * elem == identity


@st.composite
def conjugation_inputs(draw):
    """(group name, two words of affine reflections on any roots): the
    factors of x and of y, each a reflection or a product of up to four."""
    name = draw(st.sampled_from(("A2", "B2", "G2", "A3")))
    roots = parse_type(name).roots
    word = st.lists(st.tuples(st.sampled_from(roots), st.integers(-3, 3)),
                    min_size=1, max_size=4)
    return name, [[AffineReflection(r, k) for r, k in draw(word)]
                  for _ in range(2)]


@settings(max_examples=150, deadline=None)
@given(conjugation_inputs())
def test_pair_conj_is_the_rule_with_the_inverse(data):
    name, (xs, ys) = data
    rs = parse_type(name)
    table = root_table(rs)
    x = pair_product(table, [reflection_pair(rs, r) for r in xs])
    y = pair_product(table, [reflection_pair(rs, r) for r in ys])
    conj = pair_conj(table, x, y)
    assert conj == pair_mul(table, pair_mul(table, x, y), pair_inverse(table, x))
    # x^-1 is the word of x reversed; the matrices share no code with affhur
    expected = _model_group(name).product([(r.root.coords, r.level)
                                            for r in xs + ys + xs[::-1]])
    assert pair_matrix(table, conj) == expected


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "B3", "C3", "A4",
                                  "D4", "F4"])
def test_reflection_pairs_are_involutions(name):
    # hurwitz.apply_braid reads b^-1 as b for every entry b it moves
    rs = parse_type(name)
    table = root_table(rs)
    identity = ((0,) * rs.rank, table.identity)
    for r in rs.roots:
        for k in range(-3, 4):
            x = reflection_pair(rs, AffineReflection(r, k))
            assert pair_mul(table, x, x) == identity, (r, k)


def test_projection_is_homomorphism(a2):
    r1 = as_element(a2, AffineReflection(Root((1, 0)), 2))
    r2 = as_element(a2, AffineReflection(Root((1, 1)), -1))
    assert (r1 * r2).finite == r1.finite * r2.finite


def test_translation_part_closed_form(b2):
    # the level system the enumeration solves: s_{b_i,k_i} multiply to
    # TR(c) w exactly when sum_i k_i cols[i] = c, where cols[i] is the
    # coroot of s_{b_1} ... s_{b_{i-1}}(b_i)
    refl = all_reflections(b2, 1)
    for seq in itertools.product(refl[:6], repeat=3):
        prod = product_of_reflections(b2, seq)
        roots = tuple(r.root for r in seq)
        cols = dict(root_sequences(b2, prod.finite, 3))[roots]
        prefix = identity_element(b2)
        for r, col in zip(roots, cols):
            assert col == prefix.table.coact(prefix.perm, coroot(b2, r))
            prefix = prefix * reflection_element(b2, r)
        assert prefix == prod.finite
        expected = tuple(sum(r.level * c[j] for r, c in zip(seq, cols))
                         for j in range(b2.rank))
        assert prod.translation == expected


def test_is_coweight(b2):
    # coroot lattice vectors are coweights
    assert is_coweight(b2, (1, 0))
    assert is_coweight(b2, (0, 1))
    assert not is_coweight(b2, (Fraction(1, 2), 0))


def test_coweight_conjugation(b2):
    for lam in itertools.product((-1, 0, 1), repeat=2):
        tl = translation_element(b2, lam)
        for r in all_reflections(b2, 1):
            shifted = coweight_conjugate(b2, lam, r)
            assert as_element(b2, shifted) == tl * as_element(b2, r) * tl.inverse()
    with pytest.raises(RootSystemError):
        coweight_conjugate(b2, (Fraction(1, 3), 0), AffineReflection(Root((1, 0)), 0))


def test_fixed_affine_subspace(a2):
    # one reflection fixes a line
    sol = fixed_affine_subspace(a2, [Root((1, 0))], [1])
    assert sol is not None
    point, basis = sol
    assert len(basis) == 1
    # two parallel distinct hyperplanes have empty intersection
    sol2 = fixed_affine_subspace(a2, [Root((1, 0))] * 2, [0, 1])
    assert sol2 is None
    # no generators fix everything
    sol3 = fixed_affine_subspace(a2, [], [])
    assert sol3 is not None and len(sol3[1]) == 2


def test_simple_system_affine(a2):
    simples = simple_system_affine(a2)
    assert len(simples) == 3
    assert simples[-1] == AffineReflection(a2.highest_root, 1)
    assert all(r.level == 0 for r in simples[:-1])
    # the product is a Coxeter element: finite part of absolute length n
    w = product_of_reflections(a2, simples)
    assert not w.is_identity()


def test_translation_element_properties(a2):
    t1 = translation_element(a2, (1, 0))
    t2 = translation_element(a2, (0, 1))
    assert t1 * t2 == t2 * t1 == translation_element(a2, (1, 1))
    assert t1.inverse() == translation_element(a2, (-1, 0))
    assert t1.finite == identity_element(a2)
    # products would silently truncate a short or long vector
    for lam in ((1, 2, 3), (1,), ()):
        with pytest.raises(ValueError):
            translation_element(a2, lam)

import itertools
from fractions import Fraction

import pytest

from affhur.rootsys import Root, RootSystemError, build_root_system, coroot
from affhur.weyl_aff import (AffineReflection, AffineWeylElement, aff_identity,
                             affine_reflection, as_element, coweight_conjugate,
                             is_coweight, product_of_reflections,
                             recognize_reflection, simple_system_affine,
                             translation_element)
from affhur.weyl_fin import (fixed_affine_subspace, identity_element,
                             reflection_element, root_sequences)


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
    assert e.translation == (-1, -1)  # -k * coroot
    assert e * e == aff_identity(a2)


def test_recognize_reflection_round_trip(b2):
    for r in all_reflections(b2, 3):
        assert recognize_reflection(b2, as_element(b2, r)) == r
    assert recognize_reflection(b2, aff_identity(b2)) is None
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
        assert x * x.inverse() == aff_identity(b2)
        assert x.inverse().inverse() == x


def test_projection_is_homomorphism(a2):
    r1 = as_element(a2, AffineReflection(Root((1, 0)), 2))
    r2 = as_element(a2, AffineReflection(Root((1, 1)), -1))
    assert (r1 * r2).finite == r1.finite * r2.finite


def test_translation_part_closed_form(b2):
    # the level system the enumeration solves: s_{b_i,k_i} multiply to
    # (w, t) exactly when sum_i k_i cols[i] = w(t), where cols[i] is the
    # coroot of s_{b_1} ... s_{b_{i-1}}(b_i)
    refl = all_reflections(b2, 1)
    for seq in itertools.product(refl[:6], repeat=3):
        prod = product_of_reflections(b2, seq)
        roots = tuple(r.root for r in seq)
        cols = dict(root_sequences(b2, prod.finite, 3))[roots]
        prefix = identity_element(b2)
        for r, col in zip(roots, cols):
            assert col == prefix.act_coroot(coroot(b2, r))
            prefix = prefix * reflection_element(b2, r)
        assert prefix == prod.finite
        expected = tuple(sum(r.level * c[j] for r, c in zip(seq, cols))
                         for j in range(b2.rank))
        assert prod.finite.act_coroot(prod.translation) == expected


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

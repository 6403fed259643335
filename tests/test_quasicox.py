import itertools

import pytest

from affhur.hurwitz import BraidWord, ReflectionTuple, apply_braid
from affhur.intlattice import full_lattice, lattice_equal
from affhur.quasicox import (FactorizationQuery, PipelineExhausted,
                             absolute_length_affine, closure_generates,
                             connect_reduced, enumerate_factorizations, fiber,
                             generates_affine, is_parabolic_quasi_coxeter_affine,
                             is_quasi_coxeter_affine)
from affhur.rootsys import Root, build_root_system
from affhur.weyl_aff import (AffineReflection, aff_identity, as_element,
                             product_of_reflections, simple_system_affine)


@pytest.fixture(scope="module")
def a2():
    return build_root_system("A", 2)


@pytest.fixture(scope="module")
def b2():
    return build_root_system("B", 2)


def ref(r, k=0):
    return AffineReflection(Root(r), k)


# ------------------------------------------------------------- generation

def test_simple_system_generates(a2):
    res = generates_affine(a2, simple_system_affine(a2))
    assert res.generates
    cert = res.certificate
    assert cert.projected_generates
    assert abs(cert.level_gap) == 1
    assert a2.is_long(cert.repeated_root)
    assert lattice_equal(cert.translation_lattice, full_lattice(2))


def test_all_level_zero_does_not_generate(a2):
    refs = (ref((1, 0)), ref((0, 1)), ref((1, 1)))
    res = generates_affine(a2, refs)
    assert not res.generates
    assert res.certificate.level_gap == 0


def test_bad_projection_does_not_generate(b2):
    # projections span A1 x A1 only
    longs = [r for r in b2.positive_roots if b2.is_long(r)]
    refs = (AffineReflection(longs[0], 0), AffineReflection(longs[1], 1),
            AffineReflection(longs[1], 0))
    res = generates_affine(b2, refs)
    assert not res.generates
    assert not res.certificate.projected_generates


def test_short_repeated_root_does_not_generate(b2):
    # repeated short root: the translation lattice misses the short coroots
    shorts = [r for r in b2.positive_roots if b2.is_short(r)]
    longs = [r for r in b2.positive_roots if b2.is_long(r)]
    refs = (AffineReflection(longs[0], 0), AffineReflection(shorts[0], 1),
            AffineReflection(shorts[0], 0))
    res = generates_affine(b2, refs)
    assert not res.generates


def test_wrong_tuple_length_rejected(a2):
    with pytest.raises(ValueError):
        generates_affine(a2, (ref((1, 0)), ref((0, 1))))


def test_closure_oracle_matches(a2):
    samples = [
        simple_system_affine(a2),
        (ref((1, 0)), ref((0, 1)), ref((1, 1))),
        (ref((1, 0)), ref((1, 0), 1), ref((0, 1))),
        (ref((1, 1), 1), ref((0, 1)), ref((1, 0), -1)),
    ]
    for refs in samples:
        assert closure_generates(a2, refs) == generates_affine(a2, refs).generates


# ------------------------------------------------------------ enumeration

def test_enumerate_identity(a2):
    assert enumerate_factorizations(
        a2, FactorizationQuery(aff_identity(a2), 0, 2)) == [()]
    assert enumerate_factorizations(
        a2, FactorizationQuery(as_element(a2, ref((1, 0))), 0, 2)) == []


def test_enumerate_single_reflection(a2):
    w = as_element(a2, ref((1, 0), 1))
    facs = enumerate_factorizations(a2, FactorizationQuery(w, 1, 2))
    assert facs == [(ref((1, 0), 1),)]


def test_enumerate_complete_and_sound(a2):
    refs = (ref((1, 0)), ref((0, 1), 1))
    w = product_of_reflections(a2, refs)
    facs = enumerate_factorizations(a2, FactorizationQuery(w, 2, 2))
    assert refs in facs
    # soundness: every enumerated tuple multiplies back to w
    for fac in facs:
        assert product_of_reflections(a2, fac) == w
    # completeness within the window: brute force over all pairs
    brute = []
    for r1 in a2.positive_roots:
        for r2 in a2.positive_roots:
            for k1 in range(-2, 3):
                for k2 in range(-2, 3):
                    t = (AffineReflection(r1, k1), AffineReflection(r2, k2))
                    if product_of_reflections(a2, t) == w:
                        brute.append(t)
    assert sorted(brute) == list(facs)


def test_enumerate_sorted_deterministic(a2):
    w = product_of_reflections(a2, simple_system_affine(a2))
    facs = enumerate_factorizations(a2, FactorizationQuery(w, 3, 2))
    assert facs == sorted(facs)


def test_query_validation(a2):
    with pytest.raises(ValueError):
        FactorizationQuery(aff_identity(a2), -1, 2)


# -------------------------------------------------------- absolute length

def test_absolute_length_affine_basics(a2):
    assert absolute_length_affine(a2, aff_identity(a2)) == 0
    assert absolute_length_affine(a2, as_element(a2, ref((1, 0), 2))) == 1
    two = product_of_reflections(a2, (ref((1, 0)), ref((0, 1))))
    assert absolute_length_affine(a2, two) == 2


def test_absolute_length_translation_by_coroot(a2):
    # TR(alpha^vee) = s_{alpha,1} s_{alpha,0}: length 2
    from affhur.weyl_aff import translation_element
    w = translation_element(a2, (1, 0))
    assert absolute_length_affine(a2, w) == 2


def test_absolute_length_respects_parity(a2):
    w = product_of_reflections(a2, simple_system_affine(a2))
    assert absolute_length_affine(a2, w) == 3


# ------------------------------------------------------------------ fiber

def test_fiber_pinned_example(a2):
    base = (ref((1, 0), 0), ref((1, 1), 1), ref((1, 1), 0))
    members = fiber(a2, base, 2)
    tails = [(m[1].level, m[2].level) for m in members]
    assert tails == [(-1, -2), (0, -1), (1, 0), (2, 1), (3, 2)]
    # all members share the product-defining data except the shifted tail
    for m in members:
        assert m[0] == base[0]
        assert m[1].root == m[2].root == Root((1, 1))
        assert product_of_reflections(a2, m) == product_of_reflections(a2, base)


def test_fiber_members_connected_by_sigma_n(a2):
    base = (ref((1, 0), 0), ref((1, 1), 1), ref((1, 1), 0))
    t_base = ReflectionTuple(tuple(as_element(a2, r) for r in base))
    for j, m in zip(range(-2, 3), fiber(a2, base, 2)):
        t_m = ReflectionTuple(tuple(as_element(a2, r) for r in m))
        word = BraidWord((2,) * j if j >= 0 else (-2,) * (-j))
        assert apply_braid(t_base, word) == t_m


def test_fiber_requires_tail_pattern(a2):
    with pytest.raises(ValueError):
        fiber(a2, (ref((1, 0)), ref((0, 1)), ref((1, 1))), 1)
    with pytest.raises(ValueError):
        fiber(a2, (ref((1, 0)), ref((1, 0))), 1)


# ---------------------------------------------------------------- connect

def test_connect_reduced_round_trip(a2):
    t1 = simple_system_affine(a2)
    w = product_of_reflections(a2, t1)
    e1 = ReflectionTuple(tuple(as_element(a2, r) for r in t1))
    moved = apply_braid(e1, BraidWord((1, 2, -1, 2, 2)))
    from affhur.weyl_aff import recognize_reflection
    t2 = tuple(recognize_reflection(a2, e) for e in moved.entries)
    word = connect_reduced(a2, w, t1, t2)
    assert apply_braid(e1, word) == moved


def test_connect_reduced_rejects_mismatch(a2):
    t1 = simple_system_affine(a2)
    w = product_of_reflections(a2, t1)
    with pytest.raises(ValueError):
        connect_reduced(a2, w, t1, (ref((1, 0)), ref((0, 1)), ref((1, 1))))


def test_connect_reduced_rejects_non_generating_projection(a2):
    bad = (ref((1, 0)), ref((1, 0), 1), ref((1, 0), 2))
    w = product_of_reflections(a2, bad)
    with pytest.raises(ValueError):
        connect_reduced(a2, w, bad, bad)


# --------------------------------------------------------- quasi-Coxeter

def test_is_quasi_coxeter_affine_positive(a2):
    w = product_of_reflections(a2, simple_system_affine(a2))
    res = is_quasi_coxeter_affine(a2, w)
    assert res.is_quasi_coxeter and res.conclusive
    assert res.witness is not None
    assert generates_affine(a2, res.witness).generates


def test_is_quasi_coxeter_affine_negative_parity(a2):
    from affhur.weyl_aff import translation_element
    w = translation_element(a2, (2, 1))
    res = is_quasi_coxeter_affine(a2, w)
    assert not res.is_quasi_coxeter and res.conclusive


def test_is_quasi_coxeter_affine_finite_coxeter_not(a2):
    # a finite Coxeter element has length 2 < 3; no length-3 factorization
    w = product_of_reflections(a2, (ref((1, 0)), ref((0, 1))))
    res = is_quasi_coxeter_affine(a2, w)
    assert not res.is_quasi_coxeter


def test_is_quasi_coxeter_affine_short_element_conclusive(a2):
    # length below n+1 settles the question without enumerating
    res = is_quasi_coxeter_affine(a2, as_element(a2, ref((1, 0))))
    assert not res.is_quasi_coxeter and res.conclusive
    assert res.detail == "absolute length at most 1, below 3"
    a3 = build_root_system("A", 3)
    for w in (aff_identity(a3),
              product_of_reflections(a3, (ref((1, 0, 0), 1), ref((0, 0, 1))))):
        res = is_quasi_coxeter_affine(a3, w)
        assert not res.is_quasi_coxeter and res.conclusive


def test_parabolic_quasi_coxeter_affine(a2):
    assert is_parabolic_quasi_coxeter_affine(a2, aff_identity(a2))
    assert is_parabolic_quasi_coxeter_affine(a2, as_element(a2, ref((1, 1), 1)))
    w = product_of_reflections(a2, (ref((1, 0)), ref((0, 1))))
    assert is_parabolic_quasi_coxeter_affine(a2, w)
    full = product_of_reflections(a2, simple_system_affine(a2))
    assert is_parabolic_quasi_coxeter_affine(a2, full)


def test_parabolic_quasi_coxeter_affine_negative(b2):
    # rotation by pi of B2: not parabolic quasi-Coxeter even in the affine group
    longs = [r for r in b2.positive_roots if b2.is_long(r)]
    w = product_of_reflections(b2, (AffineReflection(longs[0], 0),
                                    AffineReflection(longs[1], 0)))
    assert not is_parabolic_quasi_coxeter_affine(b2, w)

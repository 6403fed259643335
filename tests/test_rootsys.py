import pytest

from affhur.rootsys import (Root, RootSystemError, build_root_system, coroot,
                            format_root, pairing_coords, parse_root,
                            parse_type, reflect)
from affhur.weyl_aff import AffineReflection, as_element
from affhur.weyl_fin import reflection_element

ROOT_COUNTS = {
    ("A", 1): 2, ("A", 2): 6, ("A", 3): 12,
    ("B", 2): 8, ("B", 3): 18,
    ("C", 3): 18, ("D", 4): 24,
    ("F", 4): 48, ("G", 2): 12,
    ("E", 6): 72,
}


@pytest.mark.parametrize("family,rank", sorted(ROOT_COUNTS))
def test_root_counts(family, rank):
    rs = build_root_system(family, rank)
    assert len(rs.roots) == ROOT_COUNTS[(family, rank)]
    assert len(rs.positive_roots) * 2 == len(rs.roots)


def test_invalid_types_rejected():
    for bad in ("H3", "I2", "B1", "D3", "E9", "X2", "A0"):
        with pytest.raises(RootSystemError):
            parse_type(bad)


def test_cartan_a2():
    rs = build_root_system("A", 2)
    assert rs.cartan == ((2, -1), (-1, 2))
    assert rs.symmetrizer == (1, 1)
    assert rs.highest_root == Root((1, 1))


def test_highest_roots():
    assert build_root_system("B", 2).highest_root == Root((1, 2))
    assert build_root_system("C", 3).highest_root == Root((2, 2, 1))
    assert build_root_system("G", 2).highest_root == Root((3, 2))


def test_norms_and_lengths_g2():
    rs = build_root_system("G", 2)
    assert rs.ratio_delta == 3
    assert rs.norm_sq(Root((1, 0))) == 2       # short simple
    assert rs.norm_sq(Root((0, 1))) == 6       # long simple
    assert not rs.is_long(Root((1, 0)))
    assert rs.is_long(rs.highest_root)
    shorts = [r for r in rs.roots if rs.norm_sq(r) == 2]
    longs = [r for r in rs.roots if rs.is_long(r)]
    assert len(shorts) == len(longs) == 6


@pytest.mark.parametrize("family,rank", sorted(ROOT_COUNTS))
def test_norm_sq_is_the_symmetrized_cartan_form(family, rank):
    # (a | a) = sum_ij a_i a_j d_i cartan[i][j]; short roots have 2
    rs = build_root_system(family, rank)
    n = rs.rank
    for r in rs.roots:
        a = r.coords
        expected = sum(a[i] * a[j] * rs.symmetrizer[i] * rs.cartan[i][j]
                       for i in range(n) for j in range(n))
        assert rs.norm_sq(r) == expected in (2, 2 * rs.ratio_delta)


def test_simply_laced_all_long_and_short():
    rs = build_root_system("A", 3)
    assert all(rs.is_long(r) and rs.norm_sq(r) == 2 for r in rs.roots)


def test_coroot_integral_everywhere():
    for family, rank in ROOT_COUNTS:
        rs = build_root_system(family, rank)
        for r in rs.roots:
            v = coroot(rs, r)
            assert all(isinstance(c, int) for c in v)
            assert pairing_coords(rs, v, r) == 2


def test_coroot_b2():
    rs = build_root_system("B", 2)
    # long simple alpha_1 has coroot alpha_1/d with coords (1, 0);
    # the short simple alpha_2 has coroot 2*alpha_2/2 = alpha_2
    assert coroot(rs, Root((1, 0))) == (1, 0)
    assert coroot(rs, Root((0, 1))) == (0, 1)
    assert coroot(rs, rs.highest_root) == (1, 1)


def test_reflect_involution_and_closure():
    rs = build_root_system("B", 2)
    for a in rs.roots:
        for b in rs.roots:
            c = reflect(rs, a, b)
            assert rs.is_root(c)
            assert reflect(rs, a, c) == b


def test_reflect_example_a2():
    rs = build_root_system("A", 2)
    assert reflect(rs, Root((1, 0)), Root((0, 1))) == Root((1, 1))


def test_parse_and_format_round_trip():
    rs = parse_type("b3")
    assert (rs.family, rs.rank) == ("B", 3)
    for r in rs.roots:
        assert parse_root(rs, format_root(r)) == r
    with pytest.raises(RootSystemError):
        parse_root(rs, "1,1")          # wrong rank
    with pytest.raises(RootSystemError):
        parse_root(rs, "5,0,0")        # not a root
    with pytest.raises(RootSystemError):
        parse_root(rs, "a,b,c")


def test_positive_root_canonicalization():
    r = Root((-1, -1))
    assert not r.is_positive
    assert (-r).is_positive and -r == Root((1, 1))


def test_hash_consistent_with_equality():
    b2 = build_root_system("B", 2)
    # an equal system built without the constructor cache
    twin = build_root_system.__wrapped__("B", 2)
    assert twin is not b2
    assert twin == b2 and hash(twin) == hash(b2)
    c2 = build_root_system("C", 2)
    assert b2 != c2


def test_cached_constructors_keep_b2_and_c2_apart():
    b2 = build_root_system("B", 2)
    c2 = build_root_system("C", 2)
    for coords in ((1, 0), (0, 1), (1, 1)):
        r = Root(coords)
        assert b2.is_root(r) and c2.is_root(r)
        assert reflection_element(b2, r) != reflection_element(c2, r)
        ref = AffineReflection(r, 1)
        assert as_element(b2, ref) != as_element(c2, ref)

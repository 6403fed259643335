import pytest

from affhur.literals import (format_affine_reflection, format_group,
                             format_tuple, parse_affine_reflection,
                             parse_group, parse_reflection_args,
                             parse_tuple_literal, reflection_to_json,
                             tuple_to_json)
from affhur.rootsys import Root, RootSystemError
from affhur.weyl_aff import AffineReflection


def test_parse_group():
    rs, affine = parse_group("B2")
    assert (rs.family, rs.rank, affine) == ("B", 2, False)
    rs2, affine2 = parse_group("affine:b2")
    assert (rs2.family, rs2.rank, affine2) == ("B", 2, True)
    assert format_group(rs2, affine2) == "affine:B2"
    with pytest.raises(RootSystemError):
        parse_group("euclidean:B2")
    with pytest.raises(RootSystemError):
        parse_group("Q5")


def test_reflection_literals_round_trip():
    rs, _ = parse_group("affine:A2")
    for text in ("1,0:0", "0,1:-2", "1,1:3"):
        r = parse_affine_reflection(rs, text)
        assert format_affine_reflection(r) == text
    assert parse_affine_reflection(rs, "1,0") == AffineReflection(Root((1, 0)), 0)
    with pytest.raises(RootSystemError):
        parse_affine_reflection(rs, "1,0:x")
    with pytest.raises(RootSystemError):
        parse_affine_reflection(rs, "2,0:1")


def test_negative_root_literal_canonicalized():
    rs, _ = parse_group("affine:A2")
    r = parse_affine_reflection(rs, "-1,0:2")
    assert r == AffineReflection(Root((1, 0)), -2)


def test_finite_groups_reject_levels():
    rs, affine = parse_group("A2")
    parse_reflection_args(rs, ["1,0", "0,1"], affine)
    with pytest.raises(RootSystemError):
        parse_reflection_args(rs, ["1,0:1"], affine)


def test_tuple_literals():
    rs, affine = parse_group("affine:A2")
    t = parse_tuple_literal(rs, "1,0:0;0,1:1;1,1:-1", affine)
    assert len(t) == 3
    assert format_tuple(t) == "1,0:0;0,1:1;1,1:-1"
    with pytest.raises(RootSystemError):
        parse_tuple_literal(rs, " ; ", affine)
    # a finite group takes level-0 entries only, as in parse_reflection_args
    assert parse_tuple_literal(rs, "1,0;0,1:0", False) == \
        parse_reflection_args(rs, ["1,0", "0,1"], False)
    with pytest.raises(RootSystemError, match="does not allow levels"):
        parse_tuple_literal(rs, "1,0:3;0,1", False)


def test_json_shapes():
    r = AffineReflection(Root((1, 1)), 2)
    assert reflection_to_json(r) == {"root": [1, 1], "level": 2}
    assert tuple_to_json((r,)) == [{"root": [1, 1], "level": 2}]

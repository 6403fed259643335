import pytest

from affhur.hurwitz import (BraidWord, ReflectionTuple, apply_braid,
                            apply_move, connect, lr_normalize, orbit)
from affhur.rootsys import Root, build_root_system
from affhur.weyl_aff import AffineReflection, as_element
from affhur.weyl_fin import reflection_element


@pytest.fixture(scope="module")
def a2():
    return build_root_system("A", 2)


def fin_tuple(rs, *roots):
    return ReflectionTuple(tuple(reflection_element(rs, Root(r)) for r in roots))


def aff_tuple(rs, *refs):
    return ReflectionTuple(tuple(as_element(rs, AffineReflection(Root(r), k))
                                 for r, k in refs))


def test_apply_move_shapes(a2):
    t = fin_tuple(a2, (1, 0), (0, 1), (1, 1))
    s1, s2, s3 = t.entries
    moved = apply_move(t, 1)
    assert moved.entries == (s1 * s2 * s1, s1, s3)
    inv = apply_move(t, 1, inverse=True)
    assert inv.entries == (s2, s2 * s1 * s2, s3)
    assert apply_move(apply_move(t, 2), 2, inverse=True) == t
    with pytest.raises(IndexError):
        apply_move(t, 3)
    with pytest.raises(IndexError):
        apply_move(t, 0)


def test_moves_preserve_product(a2):
    t = aff_tuple(a2, ((1, 0), 1), ((0, 1), -2), ((1, 1), 0))
    prod = t.product()
    for i in (1, 2):
        for inv in (False, True):
            assert apply_move(t, i, inv).product() == prod


def test_braid_word_application_order(a2):
    # the leftmost letter acts first: pinned by the worked dihedral chain
    s1 = reflection_element(a2, Root((1, 0)))
    s2 = reflection_element(a2, Root((0, 1)))
    t = ReflectionTuple((s1, s1, s2, s2))
    result = apply_braid(t, BraidWord((2, 1, 3, 2)))
    assert result == ReflectionTuple((s2, s2, s1, s1))


def test_braid_word_inverse_and_concat(a2):
    t = aff_tuple(a2, ((1, 0), 0), ((1, 1), 1), ((0, 1), -1))
    w = BraidWord((1, -2, 1, 2))
    assert apply_braid(apply_braid(t, w), w.inverse()) == t
    assert (w + w.inverse()).letters == (1, -2, 1, 2, -2, -1, 2, -1)


def test_orbit_exhausted(a2):
    t = fin_tuple(a2, (1, 0), (0, 1))
    res = orbit(t)
    assert res.exhausted
    assert len(res.parents) == 3  # Red_T of a Coxeter element of A2
    for node in res.tuples:
        assert apply_braid(t, res.word_to(node)) == node


def test_orbit_limits(a2):
    t = aff_tuple(a2, ((1, 0), 0), ((1, 0), 1))  # infinite dihedral orbit
    res = orbit(t, node_limit=50)
    assert not res.exhausted
    assert len(res.parents) <= 50
    res2 = orbit(t, depth_limit=3)
    assert not res2.exhausted


def test_connect_basic(a2):
    t = fin_tuple(a2, (1, 0), (0, 1))
    assert connect(t, t) == BraidWord()
    other = apply_braid(t, BraidWord((1, 1)))
    word = connect(t, other)
    assert word is not None
    assert apply_braid(t, word) == other


def test_connect_product_mismatch(a2):
    t1 = fin_tuple(a2, (1, 0), (0, 1))
    t2 = fin_tuple(a2, (0, 1), (0, 1))
    assert connect(t1, t2) is None
    with pytest.raises(ValueError):
        connect(t1, fin_tuple(a2, (1, 0), (0, 1), (1, 1)))


def test_connect_affine(a2):
    t = aff_tuple(a2, ((1, 0), 0), ((0, 1), 0), ((1, 1), 1))
    target = apply_braid(t, BraidWord((2, -1, 2, 2, 1)))
    word = connect(t, target)
    assert word is not None
    assert apply_braid(t, word) == target


def test_lr_normalize(a2):
    # a 4-tuple with repeated-pair tail target (prefix length 0)
    s1 = reflection_element(a2, Root((1, 0)))
    s2 = reflection_element(a2, Root((0, 1)))
    t = ReflectionTuple((s1, s2, s1, s2))
    word = lr_normalize(t, 0)
    if word is not None:
        normed = apply_braid(t, word)
        e = normed.entries
        assert e[0] == e[1] and e[2] == e[3]
    # parity mismatch is rejected
    with pytest.raises(ValueError):
        lr_normalize(t, 1)


def test_lr_normalize_already_shaped(a2):
    s1 = reflection_element(a2, Root((1, 0)))
    s2 = reflection_element(a2, Root((0, 1)))
    t = ReflectionTuple((s1, s2, s2))
    assert lr_normalize(t, 1) == BraidWord()


def test_lr_normalize_finds_tail(a2):
    s1 = reflection_element(a2, Root((1, 0)))
    s2 = reflection_element(a2, Root((0, 1)))
    s3 = reflection_element(a2, Root((1, 1)))
    t = ReflectionTuple((s1, s2, s3))  # Coxeter-like triple: product has length 2?
    word = lr_normalize(t, 1)
    assert word is not None
    normed = apply_braid(t, word)
    assert normed.entries[1] == normed.entries[2]
    assert normed.product() == t.product()


def test_connect_raises_when_word_does_not_replay(a2, monkeypatch):
    import affhur.hurwitz as hurwitz
    t = fin_tuple(a2, (1, 0), (0, 1))
    other = apply_braid(t, BraidWord((1, 1)))
    real = hurwitz.apply_braid
    monkeypatch.setattr(hurwitz, "apply_braid",
                        lambda tup, word: real(tup, word + BraidWord((1,))))
    with pytest.raises(RuntimeError, match="internal inconsistency"):
        connect(t, other)

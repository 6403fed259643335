import functools
import importlib.util
import itertools
import operator
import os
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affhur.hurwitz import (SEARCH_MEMO_SIZE, BraidWord, apply_braid,
                            apply_move, connect, lr_normalize, orbit,
                            reflection_codes)
from affhur.rootsys import Root, build_root_system, parse_type
from affhur.weyl_aff import (AffineReflection, as_element, pair_product,
                             reflection_pair)
from affhur.weyl_fin import reflection_element, root_index_sequences, root_table

MODEL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "model.py")


def _load_model():
    # the benchmark's matrix model shares no code with affhur
    spec = importlib.util.spec_from_file_location("perfbench_model", MODEL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def a2():
    return build_root_system("A", 2)


def product(t):
    """The product of a tuple of group elements, left to right."""
    return functools.reduce(operator.mul, t)


def element_move(t, i, inverse=False):
    """The i-th Hurwitz move (1-indexed) on a tuple of group elements, by
    multiplying them: the reference the moves on codes are checked with."""
    m = len(t)
    if not 1 <= i <= m - 1:
        raise IndexError(f"move index {i} out of range for a {m}-tuple")
    a, b = t[i - 1], t[i]
    pair = (b, b.inverse() * a * b) if inverse else (a * b * a.inverse(), a)
    return t[:i - 1] + pair + t[i + 1:]


def element_braid(t, word):
    for letter in word.letters:
        t = element_move(t, abs(letter), inverse=letter < 0)
    return t


def aff_pairs(rs, *refs):
    return tuple(reflection_pair(rs, AffineReflection(Root(r), k)) for r, k in refs)


def fin_pairs(rs, *roots):
    return aff_pairs(rs, *((r, 0) for r in roots))


def decode(codes, code):
    """A tuple of codes as a tuple of group elements."""
    if codes.affine:
        return tuple(as_element(codes.rs, codes.reflection(c)) for c in code)
    return tuple(codes.table.elements[a] for a in code)


def fin_code(rs, *roots):
    codes = reflection_codes(rs, False)
    return tuple(codes.code_of(AffineReflection(Root(r), 0)) for r in roots)


def aff_code(rs, *refs):
    codes = reflection_codes(rs, True)
    return tuple(codes.code_of(AffineReflection(Root(r), k)) for r, k in refs)


def test_apply_move_shapes(a2):
    table = root_table(a2)
    # s1, s2 generate an infinite dihedral group, so s1 s2 s1 != s2 s1 s2
    # and the two letters move the tuple apart
    t = aff_pairs(a2, ((1, 0), 0), ((1, 0), 1), ((1, 1), 0))
    s1, s2, s3 = t
    assert pair_product(table, (s1, s2, s1)) != pair_product(table, (s2, s1, s2))
    moved = apply_move(table, t, 1)
    assert moved == (pair_product(table, (s1, s2, s1)), s1, s3)
    inv = apply_move(table, t, -1)
    assert inv == (s2, pair_product(table, (s2, s1, s2)), s3)
    assert apply_move(table, apply_move(table, t, 2), -2) == t
    with pytest.raises(IndexError):
        apply_move(table, t, 3)
    with pytest.raises(IndexError):
        apply_move(table, t, 0)


def test_moves_preserve_product(a2):
    table = root_table(a2)
    t = aff_pairs(a2, ((1, 0), 1), ((0, 1), -2), ((1, 1), 0))
    prod = pair_product(table, t)
    for i in (1, 2):
        for letter in (i, -i):
            assert pair_product(table, apply_move(table, t, letter)) == prod


def test_braid_word_application_order(a2):
    # the leftmost letter acts first: pinned by the worked dihedral chain
    s1, s2 = fin_pairs(a2, (1, 0), (0, 1))
    result = apply_braid(root_table(a2), (s1, s1, s2, s2), BraidWord((2, 1, 3, 2)))
    assert result == (s2, s2, s1, s1)


def test_braid_word_inverse_and_concat(a2):
    table = root_table(a2)
    t = aff_pairs(a2, ((1, 0), 0), ((1, 1), 1), ((0, 1), -1))
    w = BraidWord((1, -2, 1, 2))
    assert apply_braid(table, apply_braid(table, t, w), w.inverse()) == t
    assert (w + w.inverse()).letters == (1, -2, 1, 2, -2, -1, 2, -1)


def test_orbit_exhausted(a2):
    res = orbit(reflection_codes(a2, False).move, fin_code(a2, (1, 0), (0, 1)))
    assert res.exhausted
    assert len(res.members) == 3  # Red_T of a Coxeter element of A2
    c = reflection_element(a2, Root((1, 0))) * reflection_element(a2, Root((0, 1)))
    assert res.members == {seq for seq, _ in root_index_sequences(a2, c, 2)}


def test_orbit_limits(a2):
    move = reflection_codes(a2, True).move
    t = aff_code(a2, ((1, 0), 0), ((1, 0), 1))  # infinite dihedral orbit
    res = orbit(move, t, node_limit=50)
    assert not res.exhausted
    assert len(res.members) == 50
    res2 = orbit(move, t, depth_limit=3)
    assert not res2.exhausted


def test_connect_basic(a2):
    codes = reflection_codes(a2, False)
    t = fin_code(a2, (1, 0), (0, 1))
    assert connect(codes.move, t, t) == BraidWord()
    word = connect(codes.move, t, codes.braid(t, BraidWord((1, 1))))
    assert word is not None
    e = fin_pairs(a2, (1, 0), (0, 1))
    table = root_table(a2)
    assert apply_braid(table, e, word) == apply_braid(table, e, BraidWord((1, 1)))


def test_connect_product_mismatch(a2):
    # no move changes the product, so the search runs dry
    move = reflection_codes(a2, False).move
    t1 = fin_code(a2, (1, 0), (0, 1))
    assert connect(move, t1, fin_code(a2, (0, 1), (0, 1))) is None
    with pytest.raises(ValueError):
        connect(move, t1, fin_code(a2, (1, 0), (0, 1), (1, 1)))


def test_connect_stops_once_a_frontier_is_empty():
    # two reduced factorizations of one B3 element, not parabolic
    # quasi-Coxeter, in Hurwitz orbits of 12 and 16 tuples
    b3 = build_root_system("B", 3)
    move = reflection_codes(b3, False).move
    t1 = fin_code(b3, (0, 0, 1), (0, 1, 0), (1, 1, 1))
    t2 = fin_code(b3, (0, 1, 0), (1, 0, 0), (1, 2, 2))
    table = root_table(b3)
    assert product(tuple(table.elements[a] for a in t1)) == \
        product(tuple(table.elements[a] for a in t2))
    sizes = [len(orbit(move, t).members) for t in (t1, t2)]
    assert sizes == [12, 16]
    letters = 4
    for start, goal in ((t1, t2), (t2, t1)):
        calls = []

        def counted(code, letter):
            calls.append(letter)
            return move(code, letter)

        assert connect(counted, start, goal, None) is None
        # the smaller orbit is walked whole, and the larger one only until
        # then: walking both whole would take letters * (12 + 16) moves
        assert letters * min(sizes) <= len(calls) < letters * sum(sizes)


def test_connect_affine(a2):
    codes = reflection_codes(a2, True)
    refs = (((1, 0), 0), ((0, 1), 0), ((1, 1), 1))
    t = aff_code(a2, *refs)
    word = connect(codes.move, t, codes.braid(t, BraidWord((2, -1, 2, 2, 1))))
    assert word is not None
    e = aff_pairs(a2, *refs)
    table = root_table(a2)
    assert apply_braid(table, e, word) == \
        apply_braid(table, e, BraidWord((2, -1, 2, 2, 1)))


def test_lr_normalize(a2):
    # a 4-tuple with repeated-pair tail target (prefix length 0)
    move = reflection_codes(a2, False).move
    roots = ((1, 0), (0, 1), (1, 0), (0, 1))
    word = lr_normalize(move, fin_code(a2, *roots), 0)
    if word is not None:
        e = apply_braid(root_table(a2), fin_pairs(a2, *roots), word)
        assert e[0] == e[1] and e[2] == e[3]
    # parity mismatch and a negative target are rejected
    with pytest.raises(ValueError):
        lr_normalize(move, fin_code(a2, *roots), 1)
    with pytest.raises(ValueError):
        lr_normalize(move, fin_code(a2, *roots), -2)


def test_lr_normalize_already_shaped(a2):
    move = reflection_codes(a2, False).move
    assert lr_normalize(move, fin_code(a2, (1, 0), (0, 1), (0, 1)), 1) == BraidWord()


def test_lr_normalize_finds_tail(a2):
    move = reflection_codes(a2, False).move
    roots = ((1, 0), (0, 1), (1, 1))
    word = lr_normalize(move, fin_code(a2, *roots), 1)
    assert word is not None
    table = root_table(a2)
    t = fin_pairs(a2, *roots)
    normed = apply_braid(table, t, word)
    assert normed[1] == normed[2]
    assert pair_product(table, normed) == pair_product(table, t)


# ------------------------------------------------- the search on codes
#
# The searches run on reflection codes. The oracles below work on the group
# elements alone: `element_move`/`element_braid` above, and breadth-first
# searches over tuples of elements written in the same order.

CODE_GROUPS = ["A2", "B2", "G2", "A3", "B3", "F4"]


def _reference_letters(m):
    return [x for i in range(1, m) for x in (i, -i)]


def _reference_word(parents, node):
    letters = []
    while parents[node] is not None:
        node, letter = parents[node]
        letters.append(letter)
    return BraidWord(tuple(reversed(letters)))


def _apply_letter(t, letter):
    return element_move(t, abs(letter), inverse=letter < 0)


def reference_lr_normalize(t, target_reduced_length, node_limit=10 ** 6):
    """Breadth-first search for the repeated-pair tail on the elements."""
    m = len(t)
    pairs = (m - target_reduced_length) // 2

    def shaped(u):
        return all(u[m - 1 - 2 * j] == u[m - 2 - 2 * j] for j in range(pairs))

    if shaped(t):
        return BraidWord()
    parents = {t: None}
    frontier = deque([t])
    while frontier:
        node = frontier.popleft()
        for letter in _reference_letters(m):
            nxt = _apply_letter(node, letter)
            if nxt in parents:
                continue
            if len(parents) >= node_limit:
                return None
            parents[nxt] = (node, letter)
            if shaped(nxt):
                return _reference_word(parents, nxt)
            frontier.append(nxt)
    return None


def reference_orbit(t, node_limit=10 ** 6, depth_limit=None):
    """Breadth-first closure on the elements, one node at a time, with a
    parent map: (parents, exhausted)."""
    parents = {t: None}
    frontier = deque([(t, 0)])
    exhausted = True
    while frontier:
        node, depth = frontier.popleft()
        if depth_limit is not None and depth >= depth_limit:
            exhausted = False
            continue
        for letter in _reference_letters(len(t)):
            nxt = _apply_letter(node, letter)
            if nxt not in parents:
                if len(parents) >= node_limit:
                    return parents, False
                parents[nxt] = (node, letter)
                frontier.append((nxt, depth + 1))
    return parents, exhausted


def reference_connect(t1, t2, depth_limit=12, node_limit=10 ** 6):
    """Bidirectional breadth-first search on the elements."""
    if product(t1) != product(t2):
        return None
    if t1 == t2:
        return BraidWord()
    fwd, bwd = {t1: None}, {t2: None}
    frontier_f, frontier_b = [t1], [t2]
    for _ in range(depth_limit):
        if not frontier_f and not frontier_b:
            break
        expand_forward = bool(frontier_f) and (not frontier_b
                                               or len(frontier_f) <= len(frontier_b))
        frontier, parents, other = ((frontier_f, fwd, bwd) if expand_forward
                                    else (frontier_b, bwd, fwd))
        nxt_frontier = []
        for node in frontier:
            for letter in _reference_letters(len(t1)):
                nxt = _apply_letter(node, letter)
                if nxt in parents:
                    continue
                if len(fwd) + len(bwd) >= node_limit:
                    return None
                parents[nxt] = (node, letter)
                if nxt in other:
                    return (_reference_word(fwd, nxt)
                            + _reference_word(bwd, nxt).inverse())
                nxt_frontier.append(nxt)
        if expand_forward:
            frontier_f = nxt_frontier
        else:
            frontier_b = nxt_frontier
    return None


def _tuples(rs, affine, refs):
    """The reflections refs as a tuple of elements and as a tuple of codes."""
    codes = reflection_codes(rs, affine)
    elements = tuple(as_element(rs, r) if affine else reflection_element(rs, r.root)
                     for r in refs)
    return elements, tuple(map(codes.code_of, refs))


def _draw_tuple(data, rs, affine, size):
    roots = data.draw(st.lists(st.sampled_from(rs.positive_roots),
                               min_size=size, max_size=size))
    levels = (data.draw(st.lists(st.integers(-3, 3), min_size=size,
                                 max_size=size)) if affine else [0] * size)
    return _tuples(rs, affine, list(map(AffineReflection, roots, levels)))


def _draw_word(data, m, max_size):
    return BraidWord(tuple(data.draw(st.lists(
        st.integers(1, m - 1).flatmap(lambda i: st.sampled_from((i, -i))),
        max_size=max_size))))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_code_moves_match_element_moves(data):
    rs = parse_type(data.draw(st.sampled_from(CODE_GROUPS)))
    affine = data.draw(st.booleans())
    m = data.draw(st.integers(2, 5))
    t, code = _draw_tuple(data, rs, affine, m)
    codes = reflection_codes(rs, affine)
    assert decode(codes, code) == t
    for i in range(1, m):
        for inverse in (False, True):
            letter = -i if inverse else i
            assert decode(codes, codes.move(code, letter)) == element_move(t, i, inverse)
    word = _draw_word(data, m, 12)
    assert decode(codes, codes.braid(code, word)) == element_braid(t, word)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_searches_return_the_reference_words(data):
    rs = parse_type(data.draw(st.sampled_from(CODE_GROUPS[:5])))
    affine = data.draw(st.booleans())
    m = data.draw(st.integers(2, 5))
    t, code = _draw_tuple(data, rs, affine, m)
    codes = reflection_codes(rs, affine)
    target = data.draw(st.sampled_from(range(m % 2, m + 1, 2)))
    assert lr_normalize(codes.move, code, target, node_limit=1500) == \
        reference_lr_normalize(t, target, node_limit=1500)
    word = _draw_word(data, m, 6)
    assert connect(codes.move, code, codes.braid(code, word), depth_limit=6,
                   node_limit=3000) == \
        reference_connect(t, element_braid(t, word), depth_limit=6, node_limit=3000)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_orbit_matches_the_reference(data):
    # the limits are tried at, just below and just above the node count and
    # the depth at which they cut the search: where the orbit closes, or, for
    # an orbit larger than the cap here, at a drawn point
    rs = parse_type(data.draw(st.sampled_from(CODE_GROUPS[:4])))
    affine = data.draw(st.booleans())
    m = data.draw(st.integers(2, 4))
    t, code = _draw_tuple(data, rs, affine, m)
    codes = reflection_codes(rs, affine)
    parents, exhausted = reference_orbit(t, node_limit=1500)
    if exhausted:
        size = len(parents)
        depth = max(len(_reference_word(parents, node)) for node in parents)
    else:
        size = data.draw(st.integers(1, 1500))
        depth = data.draw(st.integers(1, 3))
    cases = ([{"node_limit": n} for n in (size - 1, size, size + 1)]
             + [{"depth_limit": d} for d in (depth - 1, depth, depth + 1)
                if d >= 0])
    for limits in cases:
        res = orbit(codes.move, code, **limits)
        parents, exhausted = reference_orbit(t, **limits)
        assert {decode(codes, code) for code in res.members} == set(parents)
        assert res.exhausted == exhausted


@pytest.mark.parametrize("name", ["A3", "B3", "C3"])
def test_pipeline_searches_return_the_reference_words(name):
    # the inputs connect_reduced and generates_affine search on: projections
    # of (n+1)-tuples normalized to a length-(n-1) prefix, and affine tuples
    # carried by braid words, connected with the default limits
    rs = parse_type(name)
    n = rs.rank
    rng = random.Random(5)
    pos = rs.positive_roots
    move = reflection_codes(rs, False).move
    for _ in range(15):
        refs = [AffineReflection(rng.choice(pos), rng.randint(-2, 2))
                for _ in range(n + 1)]
        fin, fin_codes = _tuples(rs, False, refs)
        assert lr_normalize(move, fin_codes, n - 1, node_limit=4000) == \
            reference_lr_normalize(fin, n - 1, node_limit=4000)
        word = BraidWord(tuple(rng.choice((1, -1)) * rng.randint(1, n)
                               for _ in range(5)))
        for affine in (False, True):
            t, code = _tuples(rs, affine, refs)
            codes = reflection_codes(rs, affine)
            other, goal = element_braid(t, word), codes.braid(code, word)
            assert connect(codes.move, code, goal, node_limit=20000) == \
                reference_connect(t, other, node_limit=20000)
            # both searches give up at the same node count
            for limit in range(2, 60, 3):
                assert connect(codes.move, code, goal, node_limit=limit) == \
                    reference_connect(t, other, node_limit=limit)
                assert lr_normalize(codes.move, code, n - 1, node_limit=limit) == \
                    reference_lr_normalize(t, n - 1, node_limit=limit)


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3"])
def test_code_of_takes_either_sign_of_a_root(name):
    # finite codes are positive-root indices, affine ones (index, level)
    # pairs, with s_{-alpha,-k} = s_{alpha,k}
    rs = parse_type(name)
    fin, aff = reflection_codes(rs, False), reflection_codes(rs, True)
    for i, r in enumerate(rs.positive_roots):
        assert fin.code_of(AffineReflection(r, 0)) == i
        assert fin.code_of(AffineReflection(-r, 0)) == i
        assert decode(fin, (i,)) == (reflection_element(rs, -r),)
        assert aff.code_of(AffineReflection(r, -1)) == (i, -1)
        assert aff.code_of(AffineReflection(-r, 2)) == (i, -2)


@pytest.mark.parametrize("name,roots,level", [
    ("A2", "all", 2), ("B2", "all", 2), ("G2", "all", 2), ("A3", "all", 2),
    ("B3", "positive", 1), ("C3", "positive", 1), ("D4", "positive", 1),
    ("F4", "positive", 1),
])
def test_move_table_matches_matrix_model(name, roots, level):
    # both letters on 2-tuples, against the product of affine matrices;
    # negative roots enter through code_of, s_{-alpha,-k} = s_{alpha,k}
    rs = parse_type(name)
    model = _load_model().Group(name)
    codes = reflection_codes(rs, True)

    def canonical(root, k):
        return (root, k) if max(root) > 0 else (tuple(-x for x in root), -k)

    refs = [(r.coords, k) for r in (rs.roots if roots == "all" else rs.positive_roots)
            for k in range(-level, level + 1)]
    for pair in itertools.product(refs, repeat=2):
        code = tuple(codes.code_of(AffineReflection(Root(r), k)) for r, k in pair)
        for letter in (1, -1):
            moved = codes.move(code, letter)
            expected = tuple(canonical(*x) for x in model.move(pair, letter))
            assert tuple((codes.roots[c].coords, k) for c, k in moved) == expected


@functools.lru_cache(maxsize=None)
def _model_group(name):
    return _load_model().Group(name)


@st.composite
def replay_inputs(draw):
    """(group name, 2 to 4 affine reflections on any roots, a braid word)."""
    name = draw(st.sampled_from(("A2", "B2", "G2", "A3")))
    roots = parse_type(name).roots
    refs = draw(st.lists(st.tuples(st.sampled_from(roots), st.integers(-3, 3)),
                         min_size=2, max_size=4))
    i = st.integers(1, len(refs) - 1)
    word = draw(st.lists(st.one_of(i, i.map(lambda x: -x)), max_size=8))
    return name, [AffineReflection(r, k) for r, k in refs], tuple(word)


@settings(max_examples=150, deadline=None)
@given(replay_inputs())
def test_apply_braid_matches_the_matrix_model(data):
    # the replay on affine pairs against the model's replay by matrices
    name, refs, word = data
    rs = parse_type(name)
    model = _model_group(name)
    replayed = model.replay(tuple((r.root.coords, r.level) for r in refs), word)
    expected = tuple(reflection_pair(rs, AffineReflection(Root(r), k))
                     for r, k in replayed)
    table = root_table(rs)
    pairs = tuple(reflection_pair(rs, r) for r in refs)
    assert apply_braid(table, pairs, BraidWord(word)) == expected
    # and the inverse word brings the pairs back
    assert apply_braid(table, expected, BraidWord(word).inverse()) == pairs


# ------------------------------------------------------- the search memos
#
# connect and lr_normalize are memoized; a hit must give the word the
# search gives, and the limits are part of the key.

def _pipeline_inputs(name, count=4):
    """Seeded finite (n+1)-tuples, not yet normalized, each with a goal
    braided from it: [(elements, codes, goal elements, goal codes)]."""
    rs = parse_type(name)
    n = rs.rank
    codes = reflection_codes(rs, False)
    rng = random.Random(5)
    out = []
    while len(out) < count:
        refs = [AffineReflection(rng.choice(rs.positive_roots), 0)
                for _ in range(n + 1)]
        t, code = _tuples(rs, False, refs)
        if code[n - 1] == code[n]:
            continue  # already in normal form: no search would run
        word = BraidWord(tuple(rng.choice((1, -1)) * rng.randint(1, n)
                               for _ in range(5)))
        out.append((t, code, element_braid(t, word), codes.braid(code, word)))
    return rs, codes, out


def _counted(search, *args):
    """search(*args) and the (misses, hits) it added to its memo."""
    before = search.cache_info()
    word = search(*args)
    after = search.cache_info()
    return word, (after.misses - before.misses, after.hits - before.hits)


@pytest.mark.parametrize("name", ["A3", "B3", "C3"])
def test_memo_hits_return_the_reference_words(name):
    rs, codes, inputs = _pipeline_inputs(name)
    n = rs.rank
    lr_normalize.cache_clear()
    connect.cache_clear()
    for t, code, other, goal in inputs:
        expected = reference_lr_normalize(t, n - 1)
        assert expected is not None
        assert _counted(lr_normalize, codes.move, code, n - 1) == (expected, (1, 0))
        assert _counted(lr_normalize, codes.move, code, n - 1) == (expected, (0, 1))
        expected = reference_connect(t, other)
        assert expected is not None
        assert _counted(connect, codes.move, code, goal) == (expected, (1, 0))
        assert _counted(connect, codes.move, code, goal) == (expected, (0, 1))


def _least_limit(reference):
    """The smallest node limit at which reference(limit) finds its word."""
    limit = 1
    while reference(limit) is None:
        limit += 1
    return limit


@pytest.mark.parametrize("name", ["A3", "B3"])
def test_memo_keeps_the_limits_apart(name):
    # a word found under a large limit does not answer a call whose limit
    # cuts the search short: that call still returns None, as the reference
    rs, codes, inputs = _pipeline_inputs(name)
    n = rs.rank
    t, code, other, goal = max(
        inputs, key=lambda x: len(reference_lr_normalize(x[0], n - 1)))
    need = _least_limit(lambda limit: reference_lr_normalize(t, n - 1, limit))
    assert need > 2
    assert lr_normalize(codes.move, code, n - 1, 10 ** 6) is not None
    assert lr_normalize(codes.move, code, n - 1, need - 1) is None
    assert lr_normalize(codes.move, code, n - 1, need) == \
        reference_lr_normalize(t, n - 1, need)
    need = _least_limit(lambda limit: reference_connect(t, other, 12, limit))
    assert need > 2
    assert connect(codes.move, code, goal, 12, 10 ** 6) is not None
    assert connect(codes.move, code, goal, 12, need - 1) is None
    assert connect(codes.move, code, goal, 12, need) == \
        reference_connect(t, other, 12, need)


def test_search_memos_are_bounded():
    for search in (lr_normalize, connect):
        assert search.cache_info().maxsize == SEARCH_MEMO_SIZE
    assert isinstance(SEARCH_MEMO_SIZE, int) and SEARCH_MEMO_SIZE > 0


def test_orbit_is_not_memoized(a2):
    # orbit hands out a mutable set: each call builds its own
    move = reflection_codes(a2, False).move
    t = fin_code(a2, (1, 0), (0, 1), (1, 1))
    first, second = orbit(move, t), orbit(move, t)
    assert first.members == second.members
    assert first.members is not second.members

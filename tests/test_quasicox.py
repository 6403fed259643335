import itertools
import random
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affhur.hurwitz import (BraidWord, ReflectionTuple, _move_table, apply_braid,
                            reflection_codes)
from affhur.intlattice import full_lattice, lattice_equal
from affhur.linalg import solve_rational, vec_add
from affhur import quasicox
from affhur.quasicox import (FactorizationQuery, PipelineExhausted,
                             _has_factorization, _moves_in_window,
                             _root_orbit, absolute_length_affine,
                             closure_generates, connect_reduced,
                             enumerate_factorizations, fiber, generates_affine,
                             is_parabolic_quasi_coxeter_affine,
                             is_quasi_coxeter_affine)
from affhur.rootsys import (Root, bilinear_row, build_root_system, coroot,
                            parse_type)
from affhur.verify import suite_main_theorem
from affhur.weyl_aff import (AffineReflection, AffineWeylElement,
                             aff_identity, as_element,
                             product_of_reflections, recognize_reflection,
                             simple_system_affine)
from affhur.weyl_fin import (all_elements, identity_element, is_parabolic,
                             reflection_element)
from test_linalg import solve_integer_reference


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


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "D4", "F4", "G2"])
def test_root_orbit_is_the_weyl_group_orbit(name):
    rs = parse_type(name)
    elements = all_elements(rs)
    for gamma in rs.roots:
        orbit = {w.act_root(gamma) for w in elements}
        assert _root_orbit(rs, gamma) == sorted(orbit)


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


def _oracle_coroots(rs, seq):
    """v_i = s_{b_m} ... s_{b_{i+1}} (b_i)-coroot, in coroot coordinates."""
    vs = []
    suffix = identity_element(rs)
    for r in reversed(seq):
        vs.append(suffix.act_coroot(coroot(rs, r)))
        suffix = suffix * reflection_element(rs, r)
    vs.reverse()
    return vs


def _brute_force_factorizations(rs, target, m, bound):
    """Every root sequence, then every level vector in the window.

    Returns the sorted factorizations with levels in [-bound, bound] and
    whether any root sequence has an integrally solvable level system.
    """
    if m == 0:
        return ([()] if target.is_identity() else []), target.is_identity()
    n = rs.rank
    facs = []
    solvable = False
    for seq in itertools.product(rs.positive_roots, repeat=m):
        prod = identity_element(rs)
        for r in seq:
            prod = prod * reflection_element(rs, r)
        if prod != target.finite:
            continue
        vs = _oracle_coroots(rs, seq)
        rows = [tuple(-vs[i][j] for i in range(m)) for j in range(n)]
        if solve_integer_reference(rows, target.translation) is None:
            continue
        solvable = True
        for ks in itertools.product(range(-bound, bound + 1), repeat=m):
            t = (0,) * n
            for k, v in zip(ks, vs):
                if k:
                    t = vec_add(t, tuple(-k * c for c in v))
            if t == target.translation:
                facs.append(tuple(AffineReflection(r, k)
                                  for r, k in zip(seq, ks)))
    facs.sort()
    return facs, solvable


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_enumeration_matches_brute_force(data):
    rs = parse_type(data.draw(st.sampled_from(["A2", "B2", "G2", "A3", "B3"])))
    n = rs.rank
    built = data.draw(st.lists(
        st.tuples(st.sampled_from(rs.positive_roots), st.integers(-2, 2)),
        max_size=n + 1))
    target = product_of_reflections(
        rs, [AffineReflection(r, k) for r, k in built])
    # half the queries ask for the length the target was built with
    m = data.draw(st.one_of(st.just(len(built)), st.integers(0, n + 1)))
    bound = data.draw(st.integers(0, 2))
    facs, solvable = _brute_force_factorizations(rs, target, m, bound)
    assert enumerate_factorizations(
        rs, FactorizationQuery(target, m, bound)) == facs
    assert _has_factorization(rs, target, m) == solvable


def test_brute_force_sees_an_insolvable_level_system():
    # s_b s_b is the identity for every root b, so length-2 root sequences
    # exist, but a translation off every coroot line has no length-2
    # factorization: the oracle must reject each level system
    b2 = parse_type("B2")
    target = AffineWeylElement(identity_element(b2), (1, 3))
    assert _brute_force_factorizations(b2, target, 2, 2) == ([], False)
    assert not _has_factorization(b2, target, 2)


def test_main_theorem_rank_four():
    results = suite_main_theorem(groups=("A4",), samples=10)
    assert results and all(c.ok for c in results), \
        [(c.name, c.detail) for c in results if not c.ok]


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
    t2 = tuple(recognize_reflection(a2, e) for e in moved.entries)
    word = connect_reduced(a2, w, t1, t2)
    assert apply_braid(e1, word) == moved


def test_connect_reduced_depth_limit_cuts_the_alignment():
    # the finite alignment of this A3 pair takes 5 letters: a depth limit
    # of 5 finds the default word, and 4 cuts the search
    a3 = build_root_system("A", 3)
    t1 = simple_system_affine(a3)
    w = product_of_reflections(a3, t1)
    e1 = ReflectionTuple(tuple(as_element(a3, r) for r in t1))
    moved = apply_braid(e1, BraidWord((3, -2, 3, -3, -3, -3)))
    t2 = tuple(recognize_reflection(a3, e) for e in moved.entries)
    word = connect_reduced(a3, w, t1, t2)
    assert apply_braid(e1, word) == moved
    assert connect_reduced(a3, w, t1, t2, depth_limit=5) == word
    with pytest.raises(PipelineExhausted) as exc:
        connect_reduced(a3, w, t1, t2, depth_limit=4)
    assert exc.value.stage == "finite-alignment"


def test_connect_reduced_default_needs_no_depth_guess():
    # a sampled pair of `verify main-theorem --group D5` whose finite
    # alignment is longer than 16 letters
    d5 = build_root_system("D", 5)
    w = product_of_reflections(d5, simple_system_affine(d5))
    t1 = (ref((1, 1, 1, 1, 0), 1), ref((0, 1, 2, 1, 1)), ref((0, 1, 1, 0, 1)),
          ref((1, 1, 1, 0, 1), 1), ref((0, 0, 1, 0, 0)), ref((0, 1, 1, 0, 0), 1))
    t2 = (ref((0, 0, 1, 0, 1), -1), ref((0, 0, 1, 1, 0), -1),
          ref((1, 1, 1, 1, 1)), ref((0, 1, 0, 0, 0), 2), ref((1, 1, 2, 1, 1)),
          ref((1, 0, 0, 0, 0), 1))
    e1 = ReflectionTuple(tuple(as_element(d5, r) for r in t1))
    e2 = ReflectionTuple(tuple(as_element(d5, r) for r in t2))
    assert apply_braid(e1, connect_reduced(d5, w, t1, t2)) == e2
    with pytest.raises(PipelineExhausted) as exc:
        connect_reduced(d5, w, t1, t2, depth_limit=16)
    assert exc.value.stage == "finite-alignment"


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


def test_connect_reduced_raises_when_a_stage_is_exhausted(a2, monkeypatch):
    # no fallback search: a stage out of its limits ends the pipeline
    monkeypatch.setattr(quasicox, "normalize_codes", lambda *args: None)
    t1 = simple_system_affine(a2)
    w = product_of_reflections(a2, t1)
    e1 = ReflectionTuple(tuple(as_element(a2, r) for r in t1))
    t2 = tuple(recognize_reflection(a2, e)
               for e in apply_braid(e1, BraidWord((1,))).entries)
    with pytest.raises(PipelineExhausted) as exc:
        connect_reduced(a2, w, t1, t2)
    assert exc.value.stage == "normalize"


@pytest.mark.parametrize("name", ["A2", "B3"])
def test_connect_reduced_equal_tuples_give_the_empty_word(name):
    # no search runs, so not even word . word^-1 comes back
    rs = parse_type(name)
    t = simple_system_affine(rs)
    assert connect_reduced(rs, product_of_reflections(rs, t), t, t) == BraidWord()


def test_generates_affine_keeps_its_own_error_when_normalization_fails(
        a2, monkeypatch):
    # a generating projection always normalizes, so a failure is internal
    monkeypatch.setattr(quasicox, "normalize_codes", lambda *args: None)
    with pytest.raises(RuntimeError, match="internal inconsistency") as exc:
        generates_affine(a2, simple_system_affine(a2))
    assert not isinstance(exc.value, PipelineExhausted)


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


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3"])
def test_move_table_matches_group_multiplication(name):
    rs = parse_type(name)
    pos = rs.positive_roots
    moves = _move_table(rs)
    codes = reflection_codes(rs, True)
    index = codes.index
    assert index == {r: i for i, r in enumerate(pos)}
    for a, b in itertools.product(pos, repeat=2):
        c, x, y = moves[index[a]][index[b]]
        for k, l in itertools.product(range(-2, 3), repeat=2):
            ea = as_element(rs, AffineReflection(a, k))
            eb = as_element(rs, AffineReflection(b, l))
            assert as_element(rs, AffineReflection(pos[c], x * l + y * k)) \
                == ea * eb * ea
            code = ((index[a], k), (index[b], l))
            fwd, inv = _moves_in_window(codes.move, code, 20)
            assert fwd[1] == (index[a], k) and inv[0] == (index[b], l)
            assert as_element(rs, AffineReflection(pos[fwd[0][0]], fwd[0][1])) \
                == ea * eb * ea
            assert as_element(rs, AffineReflection(pos[inv[1][0]], inv[1][1])) \
                == eb * ea * eb
            # the window drops moves that leave it
            inside = list(_moves_in_window(codes.move, code, 2))
            assert inside == [t for t in (fwd, inv)
                              if all(abs(lv) <= 2 for _, lv in t)]


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_quasi_coxeter_witness_is_first_generating_tuple(name):
    rs = parse_type(name)
    n = rs.rank
    rng = random.Random(11)
    elements = [product_of_reflections(rs, simple_system_affine(rs))]
    elements += [product_of_reflections(
        rs, [AffineReflection(rng.choice(rs.positive_roots), rng.randint(-1, 1))
             for _ in range(n + 1)]) for _ in range(8)]
    for w in elements:
        res = is_quasi_coxeter_affine(rs, w)
        facs = enumerate_factorizations(rs, FactorizationQuery(w, n + 1, 2))
        first = next((f for f in facs if generates_affine(rs, f).generates),
                     None)
        assert res.witness == first
        assert res.is_quasi_coxeter == (first is not None)


def test_parabolic_quasi_coxeter_affine(a2):
    assert is_parabolic_quasi_coxeter_affine(a2, aff_identity(a2))
    assert is_parabolic_quasi_coxeter_affine(a2, as_element(a2, ref((1, 1), 1)))
    w = product_of_reflections(a2, (ref((1, 0)), ref((0, 1))))
    assert is_parabolic_quasi_coxeter_affine(a2, w)
    full = product_of_reflections(a2, simple_system_affine(a2))
    assert is_parabolic_quasi_coxeter_affine(a2, full)
    # a proper subset of the affine simple system generates a standard
    # parabolic subgroup, so its product, in either order, qualifies
    for name in ("A2", "B2", "C2", "G2", "A3", "B3", "C3", "A4", "D4"):
        rs = parse_type(name)
        simple = simple_system_affine(rs)
        for size in range(1, len(simple)):
            for subset in itertools.combinations(simple, size):
                for word in (subset, subset[::-1]):
                    w = product_of_reflections(rs, word)
                    assert is_parabolic_quasi_coxeter_affine(rs, w), (name, word)


def test_parabolic_quasi_coxeter_affine_translation_is_not(a2):
    # s_{alpha,0} s_{alpha,1} is a translation: its factorizations have
    # parallel hyperplanes, so no fixed point and an infinite subgroup
    w = product_of_reflections(a2, (ref((1, 0), 0), ref((1, 0), 1)))
    assert not w.is_identity() and w.finite.is_identity()
    assert not is_parabolic_quasi_coxeter_affine(a2, w)


def test_parabolic_quasi_coxeter_affine_negative(b2):
    # rotation by pi of B2: not parabolic quasi-Coxeter even in the affine group
    longs = [r for r in b2.positive_roots if b2.is_long(r)]
    w = product_of_reflections(b2, (AffineReflection(longs[0], 0),
                                    AffineReflection(longs[1], 0)))
    assert not is_parabolic_quasi_coxeter_affine(b2, w)


def _closure(rs, refs):
    """The subgroup generated by the affine reflections, as a set of elements."""
    gens = [as_element(rs, r) for r in refs]
    seen = {aff_identity(rs)}
    stack = list(seen)
    while stack:
        x = stack.pop()
        for g in gens:
            y = x * g
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return frozenset(seen)


def _generates_parabolic_reference(rs, refs):
    """The group-closure parabolic test, a reference for `is_parabolic`.

    Builds the subgroup the reflections generate and the subgroup of the
    reflections whose hyperplanes contain the common fixed space, both as
    element sets, and compares them.
    """
    sub = solve_rational([bilinear_row(rs, r.root) for r in refs],
                         [r.level for r in refs])
    if sub is None:
        return False  # no common fixed point: an infinite subgroup
    point, basis = sub
    fixer = []
    for alpha in rs.positive_roots:
        row = bilinear_row(rs, alpha)
        if any(sum(map(mul, row, u)) for u in basis):
            continue
        k = sum(map(mul, row, point))
        if k.denominator == 1:
            fixer.append(AffineReflection(alpha, int(k)))
    return _closure(rs, refs) == _closure(rs, fixer)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_is_parabolic_matches_group_closure(data):
    rs = parse_type(data.draw(st.sampled_from(["A1", "A2", "B2", "G2", "A3",
                                               "B3", "C3"])))
    refs = data.draw(st.lists(
        st.builds(AffineReflection, st.sampled_from(rs.positive_roots),
                  st.integers(-2, 2)),
        min_size=1, max_size=rs.rank))
    assert is_parabolic(rs, [r.root for r in refs], [r.level for r in refs]) \
        == _generates_parabolic_reference(rs, refs)

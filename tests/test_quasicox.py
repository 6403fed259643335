import itertools
import os
import random
import re
import subprocess
import sys
from collections import deque
from operator import add, mul, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affhur.hurwitz import BraidWord, _move_table, reflection_codes
from affhur.intlattice import full_lattice, lattice_equal, reduce_mod, span
from affhur.linalg import echelon_integer, solve_rational
from affhur import quasicox, verify
from affhur.quasicox import (FactorizationQuery, PipelineExhausted,
                             _factorization_blocks, _has_factorization,
                             _levels_in_window, absolute_length_affine,
                             closure_generates, connect_reduced,
                             enumerate_factorizations, fiber, generates_affine,
                             is_parabolic_quasi_coxeter_affine,
                             is_quasi_coxeter_affine)
from affhur.rootsys import (Root, RootSystemError, bilinear_row,
                            build_root_system, coroot, parse_type)
from affhur.verify import suite_main_theorem
from affhur.weyl_aff import (AffineReflection, AffineWeylElement, as_element,
                             product_of_reflections, recognize_reflection,
                             simple_system_affine, translation_element)
from affhur.weyl_fin import (SEARCH_MEMO_SIZE, FiniteWeylElement,
                             absolute_length, all_elements, generates_w0,
                             identity_element, is_parabolic,
                             reflection_element, root_table,
                             smallest_subsystem)
from test_hurwitz import element_braid
from test_intlattice import pivot_product
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
    shorts = [r for r in b2.positive_roots if b2.norm_sq(r) == 2]
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


def closure_generates_reference(rs, refs, node_limit=50000):
    """Reference closure oracle: a restart search on affine elements.

    Multiplies with `AffineWeylElement.__mul__`, so it also checks the
    semidirect rule `closure_generates` writes out by hand. The projection
    is closed first; then words in the generators are explored with states
    (finite part, translation modulo the partial translation lattice), and
    each new pure translation enlarges the lattice by its orbit under the
    projection and restarts the search. Exact when the closure terminates;
    hitting `node_limit` states gives False.
    """
    gens = [as_element(rs, r) for r in refs]
    n = rs.rank
    proj = {identity_element(rs)}
    frontier = list(proj)
    while frontier:
        frontier = [x for x in {w * g.finite for w in frontier for g in gens}
                    if x not in proj]
        proj.update(frontier)
    if len(proj) != len(all_elements(rs)):
        return False
    lattice = span([], n)
    while True:
        new_translation = None
        seen = {(identity_element(rs), (0,) * n)}
        queue = deque([product_of_reflections(rs, ())])
        while queue and new_translation is None:
            x = queue.popleft()
            for g in gens:
                y = x * g
                t = reduce_mod(lattice, y.translation)
                if y.finite.is_identity() and any(t):
                    new_translation = t
                    break
                if (y.finite, t) not in seen:
                    if len(seen) >= node_limit:
                        return False
                    seen.add((y.finite, t))
                    queue.append(AffineWeylElement(y.finite, t))
        if new_translation is None:
            return lattice_equal(lattice, full_lattice(n))
        lattice = span(lattice.basis
                       + tuple(w.table.coact(w.perm, new_translation)
                               for w in proj), n)


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "B3", "C3"])
def test_closure_oracle_matches_reference(name):
    # both verdicts occur in every group at levels in [-2, 2]
    rs = parse_type(name)
    rng = random.Random(f"closure-{name}")
    verdicts = set()
    for _ in range(300):
        refs = tuple(AffineReflection(rng.choice(rs.positive_roots),
                                      rng.randint(-2, 2))
                     for _ in range(rs.rank + 1))
        verdict = closure_generates(rs, refs)
        assert verdict == closure_generates_reference(rs, refs), refs
        assert verdict == generates_affine(rs, refs).generates, refs
        verdicts.add(verdict)
    assert verdicts == {True, False}


# levels far past one machine word, so packed translations carry digits
PACKING_LEVELS = tuple(s * k for k in (1, 2, 10 ** 6, 2 ** 61, 10 ** 30)
                       for s in (1, -1))


@pytest.mark.parametrize("name", ["A2", "G2", "B3"])
def test_closure_oracle_packing_is_exact_at_any_level(name):
    # a simple system of random signs and one more root; one draw in three
    # repeats a root at a second level, one in three adds its negative;
    # both verdicts occur on tuples holding a level of 10^6 or more
    rs = parse_type(name)
    rng = random.Random(f"closure-packing-{name}")
    verdicts = set()
    for i in range(300):
        roots = [rng.choice((a, -a)) for a in rs.simple_roots]
        extra = (rng.choice(rs.roots), roots[0], -roots[0])[i % 3]
        roots.append(extra)
        rng.shuffle(roots)
        refs = tuple(AffineReflection(r, rng.choice(PACKING_LEVELS)) for r in roots)
        verdict = closure_generates(rs, refs)
        assert verdict == closure_generates_reference(rs, refs), refs
        if max(abs(r.level) for r in refs) > 2:
            verdicts.add(verdict)
    assert verdicts == {True, False}


@pytest.mark.parametrize("case", ["projection-proper", "translations-full-"
                                  "projection-proper", "finite", "index-4"])
def test_closure_oracle_negatives(case, a2, b2):
    if case == "projection-proper":
        # the long roots of B2 span A1 x A1 only
        longs = [r for r in b2.positive_roots if b2.is_long(r)]
        rs, refs = b2, (AffineReflection(longs[0], 0), AffineReflection(longs[1], 1),
                        AffineReflection(longs[1], 0))
    elif case == "translations-full-projection-proper":
        # affine A2 on the long roots of G2: its translations are every
        # coroot translation, but its projection is W(A2), not W(G2)
        rs = parse_type("G2")
        longs = [r for r in rs.positive_roots if rs.is_long(r)]
        top = max(longs, key=lambda r: sum(r.coords))
        low = [r for r in longs if r != top]
        refs = (AffineReflection(low[0], 0), AffineReflection(low[1], 0),
                AffineReflection(top, 1))
    elif case == "finite":
        rs, refs = a2, (ref((1, 0)), ref((0, 1)), ref((1, 1)))
    else:
        # the highest root at level 2: translations by twice the coroots
        rs, refs = a2, simple_system_affine(a2)[:2] + (ref(a2.highest_root.coords, 2),)
        lattice = generates_affine(rs, refs).certificate.translation_lattice
        assert lattice.rank == 2 and pivot_product(lattice) == 4
    assert not closure_generates(rs, refs)
    assert not closure_generates_reference(rs, refs)
    assert not generates_affine(rs, refs).generates


def _draw_tuples(rs, seed, count, generating_share=3):
    """Seeded (n+1)-tuples of affine reflections, roots of either sign and
    levels in [-2, 2]. One draw in `generating_share` is unconstrained;
    the others are redrawn until their projection generates W0."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        while True:
            refs = tuple(AffineReflection(rng.choice(rs.roots), rng.randint(-2, 2))
                         for _ in range(rs.rank + 1))
            if i % generating_share == 0 or generates_w0(rs, [r.root for r in refs]):
                break
        out.append(refs)
    return out


@pytest.mark.parametrize("name", ["B3", "C3", "D4", "B4"])
def test_closure_oracle_on_element_ids_matches_reference(name):
    # non-generating projections included; both verdicts occur
    rs = parse_type(name)
    verdicts = set()
    projections = set()
    for refs in _draw_tuples(rs, f"closure-ids-{name}", 40):
        verdict = closure_generates(rs, refs)
        assert verdict == closure_generates_reference(rs, refs), refs
        verdicts.add(verdict)
        projections.add(generates_w0(rs, [r.root for r in refs]))
    assert verdicts == {True, False}
    assert projections == {True, False}


def test_closure_oracle_rejects_a_non_root(a2):
    refs = (ref((5, 5)), ref((0, 1)), ref((1, 1), 1))
    with pytest.raises(RootSystemError, match=r"^\(5, 5\) is not a root$"):
        closure_generates(a2, refs)


def _connect_with(rs, bad):
    t = simple_system_affine(rs)
    return connect_reduced(rs, product_of_reflections(rs, t), t[:-1] + (bad,), t)


# every reader of the reflection coding, each given a non-root of A2
NON_ROOT_READERS = {
    "reflection_element": lambda rs, b: reflection_element(rs, b),
    "code_of-finite": lambda rs, b: reflection_codes(rs, False).code_of(
        AffineReflection(b, 0)),
    "code_of-affine": lambda rs, b: reflection_codes(rs, True).code_of(
        AffineReflection(b, 1)),
    "generates_w0": lambda rs, b: generates_w0(rs, [Root((1, 0)), b]),
    "smallest_subsystem": lambda rs, b: smallest_subsystem(rs, [Root((1, 0)), b]),
    "is_parabolic": lambda rs, b: is_parabolic(rs, [b]),
    "generates_affine": lambda rs, b: generates_affine(
        rs, (ref((1, 0)), ref((0, 1)), AffineReflection(b, 1))),
    "closure_generates": lambda rs, b: closure_generates(
        rs, (ref((1, 0)), ref((0, 1)), AffineReflection(b, 1))),
    "connect_reduced": lambda rs, b: _connect_with(rs, AffineReflection(b, 1)),
}


@pytest.mark.parametrize("reader", sorted(NON_ROOT_READERS))
@pytest.mark.parametrize("coords", [(5, 5), (2, 0)], ids=str)
def test_a_non_root_raises_root_system_error(a2, reader, coords):
    # a RootSystemError, not the KeyError of a missed table lookup
    with pytest.raises(RootSystemError, match=re.escape(f"{coords} is not a root")):
        NON_ROOT_READERS[reader](a2, Root(coords))


@pytest.mark.parametrize("name", ["A3", "B3"])
def test_closure_oracle_reads_a_negative_root_as_its_canonical_form(name):
    # s_{-alpha,-k} = s_{alpha,k}
    rs = parse_type(name)
    verdicts = set()
    for refs in _draw_tuples(rs, f"closure-signs-{name}", 60):
        canonical = tuple(r if r.root in rs.positive_roots
                          else AffineReflection(-r.root, -r.level) for r in refs)
        flipped = tuple(AffineReflection(-r.root, -r.level) for r in canonical)
        verdict = closure_generates(rs, canonical)
        assert closure_generates(rs, refs) == verdict, refs
        assert closure_generates(rs, flipped) == verdict, refs
        verdicts.add(verdict)
    assert verdicts == {True, False}


# the largest |level| of the packing width tests
WIDTH_LEVELS = (1, 2, 10 ** 6, 2 ** 61)


def asked_widths(rs, monkeypatch) -> dict:
    """{K: the digit width `closure_generates` asks its tables for} on a
    simple system with the affine reflection at level K. Node limit 1
    stops each search at its first coset, after the tables are read."""
    inner = quasicox._right_multiplication
    asked = set()

    def recording(rs, j, bits):
        asked.add(bits)
        return inner(rs, j, bits)

    monkeypatch.setattr(quasicox, "_right_multiplication", recording)
    simple = simple_system_affine(rs)
    widths = {}
    for k in WIDTH_LEVELS:
        refs = simple[:-1] + (AffineReflection(rs.highest_root, k),)
        asked.clear()
        with pytest.raises(PipelineExhausted):
            closure_generates(rs, refs, node_limit=1)
        (widths[k],) = asked
    monkeypatch.undo()
    return widths


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "B3", "C3", "A4",
                                  "B4", "C4", "D4", "F4"])
def test_packing_width_is_the_least_multiple_of_8_above_the_bound(name, monkeypatch):
    # B = 2^bits > 4 |W0| K M, for M the largest |entry| of a coroot in
    # simple-coroot coordinates, and no multiple of 8 below bits will do
    rs = parse_type(name)
    order = len(all_elements(rs))
    m = max(abs(x) for a in rs.positive_roots for x in coroot(rs, a))
    for k, bits in asked_widths(rs, monkeypatch).items():
        bound = 4 * order * k * m
        assert bits % 8 == 0, (k, bits)
        assert 2 ** bits > bound >= 2 ** bits // 256, (k, bits, bound)


@pytest.mark.parametrize("name", ["A3", "B3", "G2", "D4"])
def test_pack_round_trips_the_extreme_digits(name, monkeypatch):
    rs = parse_type(name)
    n = rs.rank
    for bits in set(asked_widths(rs, monkeypatch).values()):
        lo, hi = -2 ** (bits - 1), 2 ** (bits - 1) - 1
        for v in itertools.product((lo, hi, 0, -1, 1), repeat=n):
            assert quasicox._unpack(quasicox._pack(v, bits), bits, n) == v, (bits, v)


@pytest.mark.parametrize("name", ["A3", "B3", "G2", "D4"])
def test_right_multiplication_tables_are_the_group_product(name, monkeypatch):
    rs = parse_type(name)
    widths = sorted(set(asked_widths(rs, monkeypatch).values()))
    perms, ids = quasicox._element_ids(rs)
    elements = all_elements(rs)
    assert perms[0] == identity_element(rs).perm
    assert sorted(perms) == sorted(w.perm for w in elements)
    assert all(ids[perm] == u for u, perm in enumerate(perms))
    table = elements[0].table
    for j, b in enumerate(rs.positive_roots):
        s = reflection_element(rs, b)
        i = table.index[b]
        for bits in widths:
            times_s, images = quasicox._right_multiplication(rs, j, bits)
            assert len(times_s) == len(images) == len(perms)
            for u, perm in enumerate(perms):
                product = FiniteWeylElement(perm, table) * s
                assert times_s[u] == ids[product.perm], (b, u)
                assert (quasicox._unpack(images[u], bits, rs.rank)
                        == table.coroots[perm[i]]), (b, u, bits)


def test_oracle_tables_are_built_on_first_use():
    # neither the import nor a refused non-root builds a table
    code = ("import affhur.cli, affhur.quasicox as q\n"
            "from affhur.rootsys import Root, RootSystemError, parse_type\n"
            "from affhur.weyl_aff import AffineReflection as R\n"
            "try:\n"
            "    q.closure_generates(parse_type('A2'), (R(Root((5, 5)), 0),"
            " R(Root((0, 1)), 0), R(Root((1, 1)), 1)))\n"
            "except RootSystemError:\n"
            "    pass\n"
            "print([f.cache_info().currsize for f in (q._element_ids,"
            " q._right_multiplication, q._coroot_lattice, q._code_data,"
            " q.full_lattice)])")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    assert res.stdout.strip() == "[0, 0, 0, 0, 0]"


def test_root_table_is_built_on_first_use():
    code = ("import affhur.cli, affhur.quasicox\n"
            "from affhur import weyl_fin\n"
            "print(weyl_fin.root_table.cache_info().currsize)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    assert res.stdout.strip() == "0"


def test_closure_oracle_node_limit_bounds_the_projection():
    # |W(A3)| = 24: the verdict is exact from node_limit 24 on
    a3 = parse_type("A3")
    simple = simple_system_affine(a3)
    level_2 = simple[:3] + (AffineReflection(a3.highest_root, 2),)
    with pytest.raises(PipelineExhausted):
        closure_generates(a3, simple, node_limit=23)
    assert closure_generates(a3, simple, node_limit=24)
    assert not closure_generates(a3, level_2, node_limit=24)
    assert closure_generates_reference(a3, simple)
    assert not closure_generates_reference(a3, level_2)


def test_oracle_agreement_cut_by_the_node_limit_is_a_limit():
    # |W(B3)| = 48: a generating sample passes 20 coset representatives
    out = []
    verify._check(out, "oracle", lambda: verify._check_oracle_agreement(
        parse_type("B3"), 1, 20, node_limit=20))
    assert out[0].limit and not out[0].ok
    assert out[0].detail.startswith("PipelineExhausted: pipeline stage 'closure'")


def _roots_of_length(rs, gamma):
    """The roots of gamma's squared length, in root order: the roots whose
    coroots `quasicox._coroot_lattice` spans."""
    return [b for b in rs.roots if rs.norm_sq(b) == rs.norm_sq(gamma)]


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "D4", "F4", "G2"])
def test_root_orbit_is_the_weyl_group_orbit(name):
    rs = parse_type(name)
    elements = all_elements(rs)
    for gamma in rs.roots:
        orbit = {w.act_root(gamma) for w in elements}
        assert _roots_of_length(rs, gamma) == sorted(orbit)


def _gap_scaled_orbit_span(rs, gamma, gap):
    """The translation lattice as `generates_affine` once built it: the
    span of the gap-scaled coroots of the roots of gamma's length."""
    orbit = _roots_of_length(rs, gamma)
    return span([tuple(gap * c for c in coroot(rs, b)) for b in orbit], rs.rank)


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "B3", "C3", "D4", "F4"])
def test_coroot_lattice_times_the_gap_is_the_orbit_span(name):
    rs = parse_type(name)
    for gamma in rs.roots:
        for gap in range(-3, 4):
            lattice = quasicox._translation_lattice(rs, rs.norm_sq(gamma), gap)
            expected = _gap_scaled_orbit_span(rs, gamma, gap)
            assert lattice == expected, (gamma, gap)
            assert lattice.pivots == expected.pivots
            if gap == 0:
                assert lattice.basis == expected.basis == ()


@pytest.mark.parametrize("name", ["B3", "C3", "D4"])
def test_certificate_lattice_is_the_gap_scaled_orbit_span(name):
    rs = parse_type(name)
    gaps = set()
    for refs in _draw_tuples(rs, f"certificate-{name}", 40, generating_share=40):
        cert = generates_affine(rs, refs).certificate
        if cert.repeated_root is None:
            assert cert.translation_lattice is None
            continue
        expected = _gap_scaled_orbit_span(rs, cert.repeated_root, cert.level_gap)
        assert cert.translation_lattice == expected, refs
        gaps.add(abs(cert.level_gap))
    assert {0, 1} < gaps


# ------------------------------------------------------------ enumeration

def test_enumerate_identity(a2):
    assert enumerate_factorizations(
        a2, FactorizationQuery(product_of_reflections(a2, ()), 0, 2)) == [()]
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


def test_enumerate_with_a_limit_reads_one_past_it(a2):
    # a cut list is the first limit + 1 factorizations; a list at or under
    # the limit is the whole one
    w = product_of_reflections(a2, simple_system_affine(a2))
    query = FactorizationQuery(w, 3, 2)
    facs = enumerate_factorizations(a2, query)
    assert len(facs) == 33
    for limit in (0, 1, 5, 32):
        assert enumerate_factorizations(a2, query, limit) == facs[:limit + 1]
    for limit in (33, 34, 10 ** 6):
        assert enumerate_factorizations(a2, query, limit) == facs

def _oracle_coroots(rs, seq):
    """v_i = s_{b_m} ... s_{b_{i+1}} (b_i)-coroot, in coroot coordinates."""
    vs = []
    suffix = identity_element(rs)
    for r in reversed(seq):
        vs.append(suffix.table.coact(suffix.perm, coroot(rs, r)))
        suffix = suffix * reflection_element(rs, r)
    vs.reverse()
    return vs


def _brute_force_factorizations(rs, target, m, bound):
    """Every root sequence, then every level vector in the window.

    Returns the sorted factorizations with levels in [-bound, bound] and
    whether any root sequence has an integrally solvable level system.
    The translations of all level vectors are compared with the target's;
    nothing is solved for. The oracle writes a product as w TR(lambda), the
    translation acting first, so it reads lambda = w^-1(c) off the target
    TR(c) w once.
    """
    if m == 0:
        return ([()] if target.is_identity() else []), target.is_identity()
    n = rs.rank
    inv = target.finite.inverse()
    lam = inv.table.coact(inv.perm, target.translation)
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
        if solve_integer_reference(rows, lam) is None:
            continue
        solvable = True
        # every level vector in the window: the first m-1 levels run over
        # the window, and the last is looked up among the window's values
        window = range(-bound, bound + 1)
        moves = [[(k, tuple(-k * c for c in v)) for k in window] for v in vs]
        last = {t: k for k, t in moves[-1]}
        for head in itertools.product(*moves[:-1]):
            t = (0,) * n
            for _, step in head:
                t = tuple(map(add, t, step))
            k = last.get(tuple(map(sub, lam, t)))
            if k is not None:
                ks = [k for k, _ in head] + [k]
                facs.append(tuple(AffineReflection(r, k)
                                  for r, k in zip(seq, ks)))
    facs.sort()
    return facs, solvable


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_enumeration_matches_brute_force(data):
    rs = parse_type(data.draw(st.sampled_from(["A2", "B2", "G2", "A3", "B3",
                                               "C3"])))
    n = rs.rank
    built = data.draw(st.lists(
        st.tuples(st.sampled_from(rs.positive_roots), st.integers(-2, 2)),
        max_size=n + 1))
    target = product_of_reflections(
        rs, [AffineReflection(r, k) for r, k in built])
    # half the queries ask for the length the target was built with
    m = data.draw(st.one_of(st.just(len(built)), st.integers(0, n + 1)))
    bound = data.draw(st.integers(0, 3))
    facs, solvable = _brute_force_factorizations(rs, target, m, bound)
    assert enumerate_factorizations(
        rs, FactorizationQuery(target, m, bound)) == facs
    assert _has_factorization(rs, target, m) == solvable


def _levels_by_scan(cols, rhs, bound):
    """Every k in [-bound, bound]^m with sum_i k_i cols[i] = rhs, by a plain
    scan of the window, in itertools.product order."""
    window = range(-bound, bound + 1)
    return [ks for ks in itertools.product(window, repeat=len(cols))
            if all(sum(map(mul, ks, row)) == r
                   for row, r in zip(zip(*cols), rhs))]


def _window_cases(cols, rhs):
    """The shapes of the echelon system that `_levels_in_window` handles
    apart: how many free coordinates, a negative pivot entry, a zero
    coefficient on the last free coordinate, no rational solution."""
    system = echelon_integer(tuple(zip(*cols)), rhs)
    if system is None:
        return {"inconsistent"}
    pivots, free = system
    cases = {("free", min(len(free), 2))}
    if any(row[col] < 0 for col, row in pivots):
        cases.add("negative pivot")
    if free and any(row[free[-1]] == 0 for _, row in pivots):
        cases.add("zero on the last free")
    return cases


# one system per shape; `test_pinned_windows_match_the_scan` checks the shapes
_PINNED_WINDOWS = [
    (((1, 0), (1, 1)), (1, 2), 2),               # no free coordinate
    (((-2,), (3,)), (1,), 3),                    # one free, negative pivot
    (((1,), (1,), (1,)), (0,), 2),               # two free
    (((1, 0), (1, 0), (0, 1)), (1, -1), 2),      # zero on the last free
    (((1, 1), (2, 2)), (1, 0), 2),               # inconsistent
    (((2,), (4,)), (1,), 3),                     # rational, not integral
    (((-1, 2, 1), (3, -1, 2), (2, 1, 3), (1, 1, 1)), (3, 1, 4), 2),
]


@st.composite
def integer_window_systems(draw):
    rows = draw(st.integers(1, 3))
    m = draw(st.integers(1, 4))
    bound = draw(st.integers(0, 3))
    cols = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * rows),
                         min_size=m, max_size=m))
    # half the right-hand sides are hit by a point of the window
    point = draw(st.tuples(*[st.integers(-bound, bound)] * m))
    hit = tuple(sum(k * c[j] for k, c in zip(point, cols)) for j in range(rows))
    rhs = draw(st.one_of(st.just(hit),
                         st.tuples(*[st.integers(-6, 6)] * rows)))
    return tuple(cols), rhs, bound


def _assert_window_matches_the_scan(cols, rhs, bound):
    found = _levels_in_window(cols, rhs, bound)
    assert len(set(found)) == len(found)
    assert sorted(found) == _levels_by_scan(cols, rhs, bound)


def test_pinned_windows_match_the_scan():
    seen = set()
    for cols, rhs, bound in _PINNED_WINDOWS:
        _assert_window_matches_the_scan(cols, rhs, bound)
        seen |= _window_cases(cols, rhs)
    assert seen >= {("free", 0), ("free", 1), ("free", 2), "negative pivot",
                    "zero on the last free", "inconsistent"}


@settings(max_examples=200, deadline=None)
@given(integer_window_systems())
def test_levels_in_window_matches_the_scan(system):
    _assert_window_matches_the_scan(*system)


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3"])
def test_factorization_blocks_concatenate_to_the_codes(name):
    rs = parse_type(name)
    n = rs.rank
    rng = random.Random(20)
    elements = [product_of_reflections(rs, simple_system_affine(rs))]
    elements += [product_of_reflections(
        rs, [AffineReflection(rng.choice(rs.positive_roots), rng.randint(-1, 1))
             for _ in range(size)]) for size in (0, 1, 2, n, n + 1)]
    for w in elements:
        for m in range(n + 2):
            blocks = list(_factorization_blocks(rs, w, m, 2))
            codes = [c for block in blocks for c in block]
            assert codes == sorted(codes)
            decoded = [tuple(AffineReflection(rs.positive_roots[a], k)
                             for a, k in code) for code in codes]
            assert decoded == enumerate_factorizations(
                rs, FactorizationQuery(w, m, 2))
            if m == 0:
                continue
            firsts = []
            for block in blocks:
                assert block and block == sorted(block)
                assert len({code[0][0] for code in block}) == 1
                firsts.append(block[0][0][0])
            assert firsts == sorted(set(firsts))


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
        FactorizationQuery(product_of_reflections(a2, ()), -1, 2)


def test_is_quasi_coxeter_affine_rejects_a_negative_level_cap(a2):
    # before each early return: parity (the identity), a length below n+1
    # (a reflection), and the witness search (the Coxeter element)
    for w in (product_of_reflections(a2, ()), as_element(a2, ref((1, 0))),
              product_of_reflections(a2, simple_system_affine(a2))):
        with pytest.raises(ValueError, match="non-negative"):
            is_quasi_coxeter_affine(a2, w, level_cap=-1)


def test_is_parabolic_quasi_coxeter_affine_rejects_a_negative_level_cap(a2):
    # before each early return: the identity's empty factorization, a
    # length above n+1 (the translation by 2 alpha_1 + alpha_2 has length 4)
    # and full length (the Coxeter element, deferred to the quasi-Coxeter
    # test); and before the scan (a reflection)
    translation = translation_element(a2, (2, 1))
    assert absolute_length_affine(a2, translation) == 4
    for w in (product_of_reflections(a2, ()), translation,
              product_of_reflections(a2, simple_system_affine(a2)),
              as_element(a2, ref((1, 0)))):
        with pytest.raises(ValueError, match="non-negative"):
            is_parabolic_quasi_coxeter_affine(a2, w, level_cap=-1)


# -------------------------------------------------------- absolute length

def test_absolute_length_affine_basics(a2):
    assert absolute_length_affine(a2, product_of_reflections(a2, ())) == 0
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
    t_base = tuple(as_element(a2, r) for r in base)
    for j, m in zip(range(-2, 3), fiber(a2, base, 2)):
        t_m = tuple(as_element(a2, r) for r in m)
        word = BraidWord((2,) * j if j >= 0 else (-2,) * (-j))
        assert element_braid(t_base, word) == t_m


def test_fiber_reads_its_base_as_codes(a2):
    # s_{-theta,0} = s_{theta,0}, and s_{-theta,-1} = s_{theta,1}: a tail
    # written with the negative root is the same tail, and the members come
    # back with the positive root
    members = fiber(a2, (ref((1, 0), 0), ref((1, 1), 1), ref((1, 1), 0)), 1)
    assert fiber(a2, (ref((1, 0), 0), ref((1, 1), 1), ref((-1, -1), 0)), 1) == members
    assert fiber(a2, (ref((-1, 0), 0), ref((-1, -1), -1), ref((-1, -1), 0)), 1) \
        == members


def test_fiber_requires_tail_pattern(a2):
    with pytest.raises(ValueError):
        fiber(a2, (ref((1, 0)), ref((0, 1)), ref((1, 1))), 1)
    with pytest.raises(ValueError):
        fiber(a2, (ref((1, 0)), ref((1, 0))), 1)


# ---------------------------------------------------------------- connect

def test_connect_reduced_round_trip(a2):
    t1 = simple_system_affine(a2)
    w = product_of_reflections(a2, t1)
    e1 = tuple(as_element(a2, r) for r in t1)
    moved = element_braid(e1, BraidWord((1, 2, -1, 2, 2)))
    t2 = tuple(recognize_reflection(a2, e) for e in moved)
    word = connect_reduced(a2, w, t1, t2)
    assert element_braid(e1, word) == moved


def test_connect_reduced_depth_limit_cuts_the_alignment():
    # the finite alignment of this A3 pair takes 5 letters: a depth limit
    # of 5 finds the default word, and 4 cuts the search
    a3 = build_root_system("A", 3)
    t1 = simple_system_affine(a3)
    w = product_of_reflections(a3, t1)
    e1 = tuple(as_element(a3, r) for r in t1)
    moved = element_braid(e1, BraidWord((3, -2, 3, -3, -3, -3)))
    t2 = tuple(recognize_reflection(a3, e) for e in moved)
    word = connect_reduced(a3, w, t1, t2)
    assert element_braid(e1, word) == moved
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
    e1 = tuple(as_element(d5, r) for r in t1)
    e2 = tuple(as_element(d5, r) for r in t2)
    assert element_braid(e1, connect_reduced(d5, w, t1, t2)) == e2
    with pytest.raises(PipelineExhausted) as exc:
        connect_reduced(d5, w, t1, t2, depth_limit=16)
    assert exc.value.stage == "finite-alignment"


def test_connect_reduced_rejects_mismatch(a2):
    t1 = simple_system_affine(a2)
    w = product_of_reflections(a2, t1)
    with pytest.raises(ValueError):
        connect_reduced(a2, w, t1, (ref((1, 0)), ref((0, 1)), ref((1, 1))))


def test_connect_reduced_names_a_target_of_another_root_system():
    # B3 and C3 have equally many roots, so the C3 element's permutation
    # would read as a B3 one; the mismatch is refused by name, not as a
    # tuple that fails to multiply to the target
    b3, c3 = parse_type("B3"), parse_type("C3")
    t = simple_system_affine(b3)
    w = product_of_reflections(c3, simple_system_affine(c3))
    with pytest.raises(ValueError, match="target element is in the group of "
                                         "C3, not of B3"):
        connect_reduced(b3, w, t, t)
    assert connect_reduced(b3, product_of_reflections(b3, t), t, t) == BraidWord()


def test_connect_reduced_rejects_a_non_root(a2):
    t = simple_system_affine(a2)
    w = product_of_reflections(a2, t)
    with pytest.raises(RootSystemError, match=r"\(5, 5\) is not a root of A2"):
        connect_reduced(a2, w, (ref((5, 5)),) + t[1:], t)


def test_connect_reduced_checks_each_tuple_once_and_compares_every_call(a2):
    # the product and projection of a code tuple are computed once; the
    # comparison with the target runs on every call
    assert quasicox._tuple_facts.cache_info().maxsize == SEARCH_MEMO_SIZE
    t1 = simple_system_affine(a2)
    w = product_of_reflections(a2, t1)
    e1 = tuple(as_element(a2, r) for r in t1)
    t2 = tuple(recognize_reflection(a2, e)
               for e in element_braid(e1, BraidWord((1, 2))))
    quasicox._tuple_facts.cache_clear()
    word = connect_reduced(a2, w, t1, t2)
    info = quasicox._tuple_facts.cache_info()
    assert (info.misses, info.hits) == (2, 0)
    assert connect_reduced(a2, w, t1, t2) == word
    info = quasicox._tuple_facts.cache_info()
    assert (info.misses, info.hits) == (2, 2)
    other = product_of_reflections(a2, (ref((1, 0), 1),) + t1[1:])
    with pytest.raises(ValueError, match="not a factorization of the target"):
        connect_reduced(a2, other, t1, t2)
    assert quasicox._tuple_facts.cache_info().hits == 3


def test_connect_reduced_rejects_non_generating_projection(a2):
    bad = (ref((1, 0)), ref((1, 0), 1), ref((1, 0), 2))
    w = product_of_reflections(a2, bad)
    with pytest.raises(ValueError):
        connect_reduced(a2, w, bad, bad)


def test_connect_reduced_raises_when_a_stage_is_exhausted(a2, monkeypatch):
    # no fallback search: a stage out of its limits ends the pipeline
    monkeypatch.setattr(quasicox, "lr_normalize", lambda *args: None)
    t1 = simple_system_affine(a2)
    w = product_of_reflections(a2, t1)
    e1 = tuple(as_element(a2, r) for r in t1)
    t2 = tuple(recognize_reflection(a2, e)
               for e in element_braid(e1, BraidWord((1,))))
    with pytest.raises(PipelineExhausted) as exc:
        connect_reduced(a2, w, t1, t2)
    assert exc.value.stage == "normalize"


@pytest.mark.parametrize("name", ["A2", "B3"])
def test_connect_reduced_equal_tuples_give_the_empty_word(name):
    # no search runs, so not even word . word^-1 comes back
    rs = parse_type(name)
    t = simple_system_affine(rs)
    assert connect_reduced(rs, product_of_reflections(rs, t), t, t) == BraidWord()


@pytest.mark.parametrize("name,word", [("A2", (1, 2, -1, 2, 2)),
                                       ("B3", (1, 2, -3, 3))])
def test_connect_reduced_raises_when_word_does_not_replay(name, word, monkeypatch):
    # the replay on affine pairs catches a word that the pipeline got wrong
    rs = parse_type(name)
    t1 = simple_system_affine(rs)
    w = product_of_reflections(rs, t1)
    e1 = tuple(as_element(rs, r) for r in t1)
    t2 = tuple(recognize_reflection(rs, e)
               for e in element_braid(e1, BraidWord(word)))
    assert t2[0] != t2[1]  # so that sigma_1 moves t2
    connect_reduced(rs, w, t1, t2)  # the word as found replays
    real = quasicox._connect_pipeline
    monkeypatch.setattr(quasicox, "_connect_pipeline",
                        lambda *args: real(*args) + BraidWord((1,)))
    with pytest.raises(RuntimeError, match="internal inconsistency"):
        connect_reduced(rs, w, t1, t2)


# The words connect_reduced returns on pairs of tuples, each tuple the image
# of the affine simple system under a seeded braid word
PINNED_WORDS = [
    ("A3", (-3, 1, 2, -1, -2), (-1, 1, -2, 1, 1),
     (-2, -1, 2, -3, 2, -1, 3, 2, -1)),
    ("A3", (-2, 2, 3, -2, -2), (1, -3, 3, 3, -3),
     (2, 1, 3, 2, -1, 2, -3, 2, 1, 3, 2, -1)),
    ("B3", (-2, -2, 2, -1, 1), (-2, 2, 3, -2, 2),
     (-2, 1, -2, 1, 2, -3, 2, -1, 3, 2, -3, 1, -2)),
    ("B3", (-3, -3, -1, 3, 2), (-2, 1, -2, -2, -1),
     (2, 1, 3, -2, 2, 1, 3, -2, 3, 1, 2, 3, -2, -2)),
    ("C3", (2, -3, 1, -3, -3), (-1, -2, -3, -1, 1), (1, 3, 2, -1, 2, -3)),
    ("A4", (-4, -2, -4, 4, -4), (-1, 2, -1, -1, 4),
     (1, -2, 4, 3, 1, -3, -4, -2)),
]


@pytest.mark.parametrize("name,word1,word2,letters", PINNED_WORDS)
def test_connect_reduced_returns_the_pinned_word(name, word1, word2, letters):
    rs = parse_type(name)
    simple = simple_system_affine(rs)
    start = tuple(as_element(rs, r) for r in simple)
    e1, e2 = (element_braid(start, BraidWord(word)) for word in (word1, word2))
    t1, t2 = (tuple(recognize_reflection(rs, e) for e in t)
              for t in (e1, e2))
    word = connect_reduced(rs, product_of_reflections(rs, simple), t1, t2)
    assert word.letters == letters
    assert element_braid(e1, word) == e2


def test_generates_affine_raises_when_normalization_is_exhausted(
        a2, monkeypatch):
    # a generating projection has the normal form in its finite orbit, so a
    # search that finds none ran out of its limit
    monkeypatch.setattr(quasicox, "lr_normalize", lambda *args: None)
    with pytest.raises(PipelineExhausted) as exc:
        generates_affine(a2, simple_system_affine(a2))
    assert exc.value.stage == "normalize"


def test_normalization_out_of_its_node_limit_is_a_limit(monkeypatch):
    # E6's normal form lies beyond 10^4 nodes of the real search (and within
    # 10^5), so the cut search answers None and generates_affine raises
    e6 = parse_type("E6")
    simple = simple_system_affine(e6)
    real = quasicox.lr_normalize
    monkeypatch.setattr(quasicox, "lr_normalize", lambda move, start, target,
                        node_limit: real(move, start, target, 10 ** 4))
    with pytest.raises(PipelineExhausted) as exc:
        generates_affine(e6, simple)
    assert exc.value.stage == "normalize"
    out = []
    verify._check(out, "generation", lambda: generates_affine(e6, simple))
    assert out[0].limit and not out[0].ok
    assert out[0].detail.startswith("PipelineExhausted: pipeline stage 'normalize'")


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
    for w in (product_of_reflections(a3, ()),
              product_of_reflections(a3, (ref((1, 0, 0), 1), ref((0, 0, 1))))):
        res = is_quasi_coxeter_affine(a3, w)
        assert not res.is_quasi_coxeter and res.conclusive


def _moves_in_window(move, code, bound: int):
    """Tuples one sigma_i or sigma_i^-1 away whose levels stay in [-bound, bound].

    Tuples are coded as (positive-root index, level) pairs and `move` is
    the affine `ReflectionCodes.move`; only the entry a move creates can
    leave the window.
    """
    for i in range(1, len(code)):
        for letter, new in ((i, i - 1), (-i, i)):
            moved = move(code, letter)
            if -bound <= moved[new][1] <= bound:
                yield moved


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3"])
def test_move_table_matches_group_multiplication(name):
    rs = parse_type(name)
    pos = rs.positive_roots
    moves = _move_table(rs)
    codes = reflection_codes(rs, True)
    index = root_table(rs).root_codes
    assert index == {r: i for i, a in enumerate(pos) for r in (a, -a)}
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


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "B3", "C3"])
def test_quasi_coxeter_verdicts_match_the_closure_oracle(name):
    # `closure_generates` multiplies group elements and shares no code with
    # the rule of `generates_affine`; Coxeter elements, their conjugates and
    # random length-(n+1) products, decided in the window K = 1
    rs = parse_type(name)
    n = rs.rank
    rng = random.Random(36)

    def random_refs(size):
        return [AffineReflection(rng.choice(rs.positive_roots), rng.randint(-1, 1))
                for _ in range(size)]

    coxeter = product_of_reflections(rs, simple_system_affine(rs))
    elements = [coxeter]
    for _ in range(3):
        x = product_of_reflections(rs, random_refs(2))
        elements.append(x * coxeter * x.inverse())
    elements += [product_of_reflections(rs, random_refs(n + 1)) for _ in range(8)]
    verdicts = set()
    for w in elements:
        res = is_quasi_coxeter_affine(rs, w, 1)
        if res.is_quasi_coxeter:
            assert product_of_reflections(rs, res.witness) == w
            assert closure_generates(rs, res.witness), res.witness
        elif not res.conclusive:
            for fac in enumerate_factorizations(rs, FactorizationQuery(w, n + 1, 1)):
                assert not closure_generates(rs, fac), fac
        verdicts.add((res.is_quasi_coxeter, res.conclusive))
    assert {(True, True), (False, False)} <= verdicts


def _is_quasi_coxeter_reference(rs, w, level_cap=2):
    """`is_quasi_coxeter_affine` on the element path, by another argument:
    enumerate the AffineReflection tuples and hand them to
    `generates_affine`, but skip every tuple that Hurwitz moves inside the
    window reach from one that fails. The generated subgroup is a Hurwitz
    invariant, so the first generating tuple in sorted order is still
    found. Returns (verdict, witness, conclusive, detail)."""
    n = rs.rank
    m = n + 1
    if absolute_length(w.finite) % 2 != m % 2:
        return False, None, True, f"parity excludes factorizations of length {m}"
    if _has_factorization(rs, w, n - 1):
        return False, None, True, f"absolute length at most {n - 1}, below {m}"
    facs = enumerate_factorizations(rs, FactorizationQuery(w, m, level_cap))
    codes = reflection_codes(rs, True)
    settled = set()
    for fac in facs:
        code = tuple(codes.code_of(r) for r in fac)
        if code in settled:
            continue
        if generates_affine(rs, fac).generates:
            return True, fac, True, "generating witness found"
        settled.add(code)
        stack = [code]
        while stack:
            for moved in _moves_in_window(codes.move, stack.pop(), level_cap):
                if moved not in settled:
                    settled.add(moved)
                    stack.append(moved)
    if not facs and not _has_factorization(rs, w, m):
        return (False, None, True, f"no length-{m} factorization exists "
                "(integer systems insolvable)")
    return False, None, False, f"no witness with levels bounded by {level_cap}"


@pytest.mark.parametrize("name", ["A3", "B3", "C3"])
def test_quasi_coxeter_codes_match_the_element_path(name):
    # Coxeter elements, their conjugates and random length-(n+1) products
    rs = parse_type(name)
    n = rs.rank
    rng = random.Random(16)

    def random_refs(size):
        return [AffineReflection(rng.choice(rs.positive_roots), rng.randint(-1, 1))
                for _ in range(size)]

    coxeter = product_of_reflections(rs, simple_system_affine(rs))
    elements = [coxeter]
    for _ in range(4):
        x = product_of_reflections(rs, random_refs(2))
        elements.append(x * coxeter * x.inverse())
    elements += [product_of_reflections(rs, random_refs(n + 1)) for _ in range(6)]
    # the conclusive negatives: parity, and translations, some without any
    # length-(n+1) factorization in A3
    elements.append(product_of_reflections(rs, random_refs(n)))
    elements += [translation_element(rs, lam) for lam in ((1, 2, 3), (2, 0, 1))]
    verdicts = set()
    for w in elements:
        res = is_quasi_coxeter_affine(rs, w)
        expected = _is_quasi_coxeter_reference(rs, w)
        assert (res.is_quasi_coxeter, res.witness, res.conclusive,
                res.detail) == expected
        verdicts.add((res.is_quasi_coxeter, res.conclusive))
    assert {(True, True), (False, True), (False, False)} <= verdicts


def test_parabolic_quasi_coxeter_affine(a2):
    identity = product_of_reflections(a2, ())
    assert is_parabolic_quasi_coxeter_affine(a2, identity)
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
    seen = {product_of_reflections(rs, ())}
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

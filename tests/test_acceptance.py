"""Acceptance gate: one test (and one pass/fail line) per criterion.

All checks are exact integer/rational identities; tolerances are zero
throughout. Each criterion carries the runtime budget it was specified
with, asserted against wall-clock time.
"""

import itertools
import time

from affhur.hurwitz import orbit, reflection_codes
from affhur.intlattice import (connection_index, full_lattice, lattice_equal,
                               reduce_mod, span)
from affhur.rootsys import build_root_system, coroot
from affhur.verify import (suite_example_a2, suite_generation, suite_lemmas,
                           suite_main_theorem)
from affhur.weyl_fin import (absolute_length, all_elements, generates_w0,
                             is_parabolic_quasi_coxeter_fin,
                             reflection_element, root_index_sequences,
                             smallest_subsystem)


def _finish(num: int, desc: str, t0: float, budget: float, detail: str = ""):
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, \
        f"criterion {num} took {elapsed:.1f}s, over its {budget}s budget"
    print(f"ACCEPTANCE {num} ({desc}): PASS in {elapsed:.1f}s"
          + (f" -- {detail}" if detail else ""))


def _assert_suite(results):
    failures = [c for c in results if not c.ok]
    assert not failures, "; ".join(f"{c.name}: {c.detail}" for c in failures)
    return ", ".join(f"{c.name} ok" for c in results)


def test_criterion_1_worked_example_a2():
    t0 = time.perf_counter()
    detail = _assert_suite(suite_example_a2())
    _finish(1, "worked example in affine A2", t0, 10.0, detail)


def test_criterion_2_closed_forms_vs_oracle():
    t0 = time.perf_counter()
    detail = _assert_suite(suite_lemmas(groups=("B2", "G2"), level=3))
    _finish(2, "conjugation/normal-form closed forms, B2+G2, levels [-3,3]",
            t0, 30.0, detail)


def test_criterion_3_generation_criteria():
    t0 = time.perf_counter()
    detail = _assert_suite(suite_generation(groups=("C2", "G2"),
                                            samples=200, level=2))
    _finish(3, "generation necessity + lattice criterion vs closure oracle",
            t0, 120.0, detail)


def test_criterion_4_finite_transitivity():
    t0 = time.perf_counter()
    summary = []
    for family, rank in (("A", 2), ("B", 2), ("A", 3)):
        rs = build_root_system(family, rank)
        n = rs.rank
        pos = rs.positive_roots
        move = reflection_codes(rs, False).move

        def generating(seq):
            return generates_w0(rs, [pos[j] for j in seq])

        qc = 0
        for w in all_elements(rs):
            if w.is_identity():
                continue
            facs = [seq for seq, _ in
                    root_index_sequences(rs, w, absolute_length(w))]
            if not any(map(generating, facs)):
                continue
            qc += 1
            res = orbit(move, facs[0])
            assert res.exhausted, f"Red_T orbit not exhausted in {family}{rank}"
            assert res.members == set(facs), \
                f"Red_T is not a single Hurwitz orbit in {family}{rank}"
        assert qc > 0, f"no quasi-Coxeter elements found in {family}{rank}"

        pqc = 0
        for w in all_elements(rs):
            if absolute_length(w) != n - 1:
                continue
            if not is_parabolic_quasi_coxeter_fin(rs, w):
                continue
            fs = [seq for seq, _ in root_index_sequences(rs, w, n + 1)
                  if generating(seq)]
            assert fs, f"empty Fac set for a length-{n - 1} element"
            pqc += 1
            res = orbit(move, fs[0])
            assert res.exhausted
            assert res.members == set(fs), \
                f"Fac is not a single Hurwitz orbit in {family}{rank}"
        assert pqc > 0
        summary.append(f"{family}{rank}: {qc} quasi-Coxeter, {pqc} Fac sets")
    _finish(4, "finite Hurwitz transitivity on Red_T and Fac", t0, 120.0,
            "; ".join(summary))


def test_criterion_5_constructive_main_theorem():
    details = []
    for group in ("A2", "C2", "G2"):
        t0 = time.perf_counter()
        results = suite_main_theorem(groups=(group,), samples=50)
        details.append(_assert_suite(results))
        elapsed = time.perf_counter() - t0
        assert elapsed < 300.0, f"{group} exceeded the 5-minute budget"
    print("ACCEPTANCE 5 (constructive transitivity pipeline): PASS -- "
          + "; ".join(details))


def test_criterion_6_lattice_lemmas():
    t0 = time.perf_counter()
    for name in ("B2", "B3", "C3", "F4", "G2"):
        rs = build_root_system(name[0], int(name[1]))
        delta = rs.ratio_delta
        shorts = [r for r in rs.roots if rs.norm_sq(r) == 2]
        longs = [r for r in rs.roots if rs.is_long(r)]
        full = full_lattice(rs.rank)

        mixed = span([tuple(delta * c for c in r.coords) for r in shorts]
                     + [r.coords for r in longs], rs.rank)
        for s in shorts:
            assert any(reduce_mod(mixed, s.coords)), \
                f"short root inside the mixed sublattice of {name}"
        assert not lattice_equal(mixed, full), \
            f"mixed sublattice of {name} is not proper"

        dual = span([tuple(delta * c for c in coroot(rs, r)) for r in longs]
                    + [coroot(rs, s) for s in shorts], rs.rank)
        assert not lattice_equal(dual, full), \
            f"dual mixed sublattice of {name} is not proper"
        for a in rs.simple_roots:
            w = reflection_element(rs, a)
            for row in dual.basis:
                assert not any(reduce_mod(dual, w.table.coact(w.perm, row))), \
                    f"dual mixed sublattice of {name} is not stable"

    indices = {("A", 1): 2, ("A", 2): 3, ("B", 2): 2, ("G", 2): 1}
    for (family, rank), expected in indices.items():
        assert connection_index(build_root_system(family, rank)) == expected
    _finish(6, "sublattice lemmas and connection indices", t0, 10.0)


def root_span(rs, roots):
    return span([r.coords for r in roots], rs.rank)


def coroot_span(rs, roots):
    return span([coroot(rs, r) for r in roots], rs.rank)


def test_criterion_7_subsystem_lattice_equivalence():
    t0 = time.perf_counter()
    checked = 0
    for name in ("A3", "G2"):
        rs = build_root_system(name[0], int(name[1]))
        pos = rs.positive_roots
        full = full_lattice(rs.rank)
        for k in range(1, len(pos) + 1):
            for subset in itertools.combinations(pos, k):
                closure = smallest_subsystem(rs, subset)
                # the reflection closure spans exactly the same lattices
                assert lattice_equal(root_span(rs, closure),
                                     root_span(rs, subset))
                assert lattice_equal(coroot_span(rs, closure),
                                     coroot_span(rs, subset))
                # closure = whole system  <=>  both spans are full
                whole = closure == rs.root_set
                spans_full = (lattice_equal(root_span(rs, subset), full)
                              and lattice_equal(coroot_span(rs, subset), full))
                assert whole == spans_full, \
                    f"lattice equivalence fails for {subset} in {name}"
                assert spans_full == generates_w0(rs, list(subset))
                checked += 1
    _finish(7, "root-subsystem vs lattice-span equivalence", t0, 60.0,
            f"{checked} subsets")

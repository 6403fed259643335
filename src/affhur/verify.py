"""Self-verification suites: formula identities, worked example, generation
criteria and the constructive transitivity pipeline.

Each suite returns a list of CheckResult; suites are deterministic for a
fixed seed. They are shared between the CLI `verify` subcommand and the
test suite.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass

from .hurwitz import (BraidWord, ReflectionTuple, apply_braid, apply_move,
                      connect, orbit, reflection_codes)
from .quasicox import (FactorizationQuery, PipelineExhausted,
                       absolute_length_affine, closure_generates,
                       connect_reduced, enumerate_factorizations,
                       generates_affine, is_quasi_coxeter_affine)
from .rootsys import Root, build_root_system, parse_type
from .weyl_aff import (AffineReflection, as_element, coweight_conjugate,
                       product_of_reflections, simple_system_affine,
                       translation_element)
from .weyl_fin import (all_elements, generates_w0, reflection_element,
                       root_sequences)

SUITES = ("lemmas", "example-a2", "generation", "main-theorem")
DEFAULT_SEED = 20230

@dataclass
class CheckResult:
    name: str
    ok: bool
    seconds: float
    detail: str = ""
    limit: bool = False  # not ok because a search ran out of its limits


class CheckFailed(Exception):
    """A verification check found its property violated."""


def _require(condition, message: str) -> None:
    # an explicit raise, unlike assert, also runs under python -O
    if not condition:
        raise CheckFailed(message)


def _check(results: list, name: str, fn) -> None:
    t0 = time.perf_counter()
    ok, limit = False, False
    try:
        detail = fn()
        ok = True
    except CheckFailed as exc:
        detail = str(exc)
    except PipelineExhausted as exc:  # a limit hit decides nothing
        detail = f"{type(exc).__name__}: {exc}"
        limit = True
    except Exception as exc:  # a crashed check is a failed check
        detail = f"{type(exc).__name__}: {exc}"
    results.append(CheckResult(name, ok, time.perf_counter() - t0, detail or "",
                               limit))


# ---------------------------------------------------------------- lemmas

def _check_conjugation(rs, level: int) -> str:
    # the closed form is the move table of the searches: the first entry
    # of sigma_1 applied to the codes of (s_a, s_b) is s_a s_b s_a
    codes = reflection_codes(rs, True)
    count = 0
    for a_root in rs.roots:
        for b_root in rs.roots:
            for ka in range(-level, level + 1):
                a = AffineReflection(a_root, ka)
                ea = as_element(rs, a)
                for kb in range(-level, level + 1):
                    b = AffineReflection(b_root, kb)
                    c, kc = codes.move((codes.code_of(a), codes.code_of(b)), 1)[0]
                    _require(as_element(rs, AffineReflection(codes.roots[c], kc))
                             == ea * as_element(rs, b) * ea,
                             f"conjugation closed form fails for {a}, {b}")
                    count += 1
    return f"{count} conjugation identities"


def _check_product_form(rs, level: int) -> str:
    # the enumeration solves sum_i k_i cols[i] = target(t) for the levels of
    # a root sequence of `root_sequences`; each triple of reflections has odd
    # l_T <= 3, so it is yielded once, under the finite part of its product
    window = range(-level, level + 1)
    count = 0
    for target in all_elements(rs):
        for roots, cols in root_sequences(rs, target, 3):
            for ks in itertools.product(window, repeat=3):
                seq = tuple(map(AffineReflection, roots, ks))
                prod = product_of_reflections(rs, seq)
                expected = tuple(sum(k * c[j] for k, c in zip(ks, cols))
                                 for j in range(rs.rank))
                _require(prod.finite == target
                         and target.act_coroot(prod.translation) == expected,
                         f"closed form disagrees with the product for {seq}")
                count += 1
    triples = (len(rs.positive_roots) * len(window)) ** 3
    _require(count == triples, f"{count} of {triples} reflection triples seen")
    return f"{count} product normal forms"


def _check_coweight_conjugation(rs) -> str:
    n = rs.rank
    count = 0
    for lam in itertools.product((-1, 0, 1), repeat=n):
        tl = translation_element(rs, lam)
        tli = tl.inverse()
        for r in rs.positive_roots:
            for k in (-1, 0, 1):
                ref = AffineReflection(r, k)
                shifted = coweight_conjugate(rs, lam, ref)
                _require(as_element(rs, shifted) == tl * as_element(rs, ref) * tli,
                         f"coweight conjugation fails for {lam}, {ref}")
                count += 1
    return f"{count} coweight conjugations"


def _check_hurwitz_moves(rs, seed: int, samples: int = 50) -> str:
    # the searches move (root index, level) codes by table lookup; each code
    # move is compared with the move made by multiplying the elements
    rng = random.Random(seed)
    pos = rs.positive_roots
    codes = reflection_codes(rs, True)
    for _ in range(samples):
        refs = [AffineReflection(rng.choice(pos), rng.randint(-2, 2))
                for _ in range(4)]
        t = ReflectionTuple(tuple(as_element(rs, r) for r in refs))
        code = tuple(codes.code_of(r) for r in refs)
        prod = t.product()
        for i in (1, 2, 3):
            moved = apply_move(t, i)
            _require(moved.product() == prod,
                     "Hurwitz move changed the product")
            _require(apply_move(moved, i, inverse=True) == t,
                     "inverse move does not undo the move")
            for letter, expected in ((i, moved), (-i, apply_move(t, i, inverse=True))):
                _require(codes.decode(codes.move(code, letter)) == expected,
                         f"code move {letter} disagrees with multiplication "
                         f"for {refs}")
    return f"{samples} random 4-tuples"


def suite_lemmas(groups=("B2", "G2"), seed: int = DEFAULT_SEED,
                 level: int = 3) -> list[CheckResult]:
    out: list[CheckResult] = []
    for g in groups:
        rs = parse_type(g)
        out_name = f"{rs.family}{rs.rank}"
        _check(out, f"conjugation-closed-form-{out_name}",
               lambda rs=rs: _check_conjugation(rs, level))
        _check(out, f"product-normal-form-{out_name}",
               lambda rs=rs: _check_product_form(rs, level))
        _check(out, f"coweight-conjugation-{out_name}",
               lambda rs=rs: _check_coweight_conjugation(rs))
        _check(out, f"hurwitz-moves-{out_name}",
               lambda rs=rs: _check_hurwitz_moves(rs, seed))
    return out


# ---------------------------------------------------------- example-a2

def _a2_data():
    rs = build_root_system("A", 2)
    a1 = Root((1, 0))
    a2 = Root((0, 1))
    high = rs.highest_root
    word = [AffineReflection(a1, 0), AffineReflection(a2, 0),
            AffineReflection(high, 1)]
    w = product_of_reflections(rs, word + word)
    displayed = (AffineReflection(high, 0), AffineReflection(a2, 1),
                 AffineReflection(a2, 0), AffineReflection(high, 1))
    return rs, a1, a2, high, w, displayed


def _example_translation() -> str:
    rs, a1, a2, high, w, displayed = _a2_data()
    _require(w.finite.is_identity(), "w is not a pure translation")
    # the coefficient pattern {1, 2} up to sign and the diagram flip
    _require(w.translation in {(1, 2), (2, 1), (-1, -2), (-2, -1)},
             f"unexpected translation {w.translation}")
    _require(product_of_reflections(rs, displayed) == w,
             "displayed reduced factorization has the wrong product")
    return f"TR{w.translation}"


def _example_length() -> str:
    rs, *_, w, _ = _a2_data()
    length = absolute_length_affine(rs, w)
    _require(length == 4, f"absolute length {length} != 4")
    return "absolute length 4"


def _example_enumeration() -> str:
    rs, *_, w, displayed = _a2_data()
    facs = enumerate_factorizations(rs, FactorizationQuery(w, 4, 2))
    _require(displayed in facs, "displayed 4-tuple not enumerated at K=2")
    return f"{len(facs)} factorizations at K=2, displayed tuple among them"


def _example_chains() -> str:
    rs, a1, a2, high, *_ = _a2_data()
    s1 = reflection_element(rs, a1)
    s2 = reflection_element(rs, a2)
    s3 = reflection_element(rs, high)
    word = BraidWord((2, 1, 3, 2))

    def tup(*xs):
        return ReflectionTuple(xs)

    _require(apply_braid(tup(s1, s1, s2, s2), word) == tup(s2, s2, s1, s1),
             "first displayed chain fails")
    _require(apply_braid(tup(s2, s2, s3, s3), word) == tup(s3, s3, s2, s2),
             "second displayed chain fails")
    _require(apply_braid(tup(s3, s3, s1, s1), word) == tup(s1, s1, s3, s3),
             "third displayed chain fails")
    for target in (tup(s2, s2, s3, s3), tup(s3, s3, s1, s1)):
        _require(connect(tup(s1, s1, s2, s2), target) is not None,
                 "unlabeled chain step is not Hurwitz-reachable")
    return "three displayed chains verified"


def _example_not_quasi_coxeter() -> str:
    rs, *_, w, _ = _a2_data()
    res = is_quasi_coxeter_affine(rs, w)
    _require(not res.is_quasi_coxeter and res.conclusive,
             "length-4 element misclassified as quasi-Coxeter")
    return f"not quasi-Coxeter (length 4 > 3): {res.detail}"


def suite_example_a2(**_ignored) -> list[CheckResult]:
    out: list[CheckResult] = []
    _check(out, "a2-pure-translation", _example_translation)
    _check(out, "a2-absolute-length", _example_length)
    _check(out, "a2-enumeration", _example_enumeration)
    _check(out, "a2-hurwitz-chains", _example_chains)
    _check(out, "a2-extended-remark-flag", _example_not_quasi_coxeter)
    return out


# ---------------------------------------------------------- generation

def _leading_parts(rs, level: int, seed: int, samples: int):
    """The n-1 leading reflections of the tuples `_check_necessity` scans.

    Up to rank 2 every choice of roots and levels in the window. From rank
    3 on that is too many: a seeded sample of at most `samples` distinct
    root choices is taken, each with seeded levels. The roots are drawn
    among those that some long root completes to a generating set, so that
    the scan meets generating tuples.
    """
    pos = rs.positive_roots
    lead = rs.rank - 1
    window = range(-level, level + 1)
    if lead <= 1:
        return [tuple(map(AffineReflection, roots, ks))
                for roots in itertools.product(pos, repeat=lead)
                for ks in itertools.product(window, repeat=lead)]
    longs = [g for g in pos if rs.is_long(g)]
    completable = [roots for roots in itertools.product(pos, repeat=lead)
                   if any(generates_w0(rs, roots + (g,)) for g in longs)]
    rng = random.Random(seed)
    return [tuple(AffineReflection(r, rng.choice(window)) for r in roots)
            for roots in rng.sample(completable, min(samples, len(completable)))]


def _check_necessity(rs, level: int, seed: int, samples: int) -> str:
    # normalized (n+1)-tuples: n-1 leading reflections, then one root at
    # two levels, with every repeated root and every pair of tail levels
    window = range(-level, level + 1)
    positives = 0
    total = 0
    for head in _leading_parts(rs, level, seed, samples):
        for g in rs.positive_roots:
            for k1, k2 in itertools.product(window, repeat=2):
                refs = head + (AffineReflection(g, k1), AffineReflection(g, k2))
                total += 1
                res = generates_affine(rs, refs)
                if res.generates:
                    positives += 1
                    cert = res.certificate
                    _require(abs(cert.level_gap) == 1, "level gap is not a unit")
                    _require(rs.is_long(cert.repeated_root),
                             "repeated root is short")
    _require(positives > 0, "necessity scan found no generating tuple")
    return f"{positives}/{total} normalized tuples generate"


def _check_oracle_agreement(rs, seed: int, samples: int,
                            node_limit: int = 30000) -> str:
    rng = random.Random(seed)
    pos = rs.positive_roots
    n = rs.rank
    agree_true = 0
    for i in range(samples):
        refs = tuple(AffineReflection(rng.choice(pos), rng.randint(-2, 2))
                     for _ in range(n + 1))
        verdict = generates_affine(rs, refs).generates
        oracle = closure_generates(rs, refs, node_limit=node_limit)
        _require(verdict == oracle,
                 f"criterion {verdict} vs oracle {oracle} on sample {i}: {refs}")
        if verdict:
            agree_true += 1
    return f"{samples} samples agree ({agree_true} generating)"


def suite_generation(groups=("C2", "G2"), seed: int = DEFAULT_SEED,
                     samples: int = 200, level: int = 2) -> list[CheckResult]:
    out: list[CheckResult] = []
    for g in groups:
        rs = parse_type(g)
        name = f"{rs.family}{rs.rank}"
        _check(out, f"unit-gap-long-root-necessity-{name}",
               lambda rs=rs: _check_necessity(rs, level, seed, samples))
        _check(out, f"criterion-vs-closure-oracle-{name}",
               lambda rs=rs: _check_oracle_agreement(rs, seed, samples))
    return out


# -------------------------------------------------------- main-theorem

def _check_connect_all_pairs(rs, seed: int, samples: int) -> str:
    n = rs.rank
    w = product_of_reflections(rs, simple_system_affine(rs))
    # smallest level window holding enough tuples (K=2 suffices except at
    # the smallest ranks, where the window itself caps the count)
    for level_bound in (2, 3, 4):
        facs = enumerate_factorizations(rs, FactorizationQuery(w, n + 1,
                                                               level_bound))
        if len(facs) >= samples:
            break
    _require(len(facs) >= samples,
             f"only {len(facs)} factorizations sampled at K={level_bound}, need {samples}")
    rng = random.Random(seed)
    chosen = rng.sample(facs, samples)
    pairs = 0
    for i, t1 in enumerate(chosen):
        for t2 in chosen[i + 1:]:
            word = connect_reduced(rs, w, t1, t2)
            _require(word is not None, f"no braid word from {t1} to {t2}")
            pairs += 1
    _require(pairs > 0,
             f"no pairs connected: {samples} sample(s) form no pair")
    return (f"{pairs} pairs connected among {samples} of {len(facs)} tuples "
            f"at K={level_bound}")


def _check_stage2_orbit_exhausted(rs) -> str:
    fin = ReflectionTuple(tuple(reflection_element(rs, r.root)
                                for r in simple_system_affine(rs)))
    res = orbit(fin)
    if not res.exhausted:
        raise PipelineExhausted("orbit", f"finite projection orbit passed "
                                f"{len(res.parents)} nodes")
    return f"finite orbit of size {len(res.parents)} exhausted"


def suite_main_theorem(groups=("A2", "C2", "G2"), seed: int = DEFAULT_SEED,
                       samples: int = 50) -> list[CheckResult]:
    out: list[CheckResult] = []
    for g in groups:
        rs = parse_type(g)
        name = f"{rs.family}{rs.rank}"
        _check(out, f"stage2-orbit-exhausted-{name}",
               lambda rs=rs: _check_stage2_orbit_exhausted(rs))
        _check(out, f"connect-all-pairs-{name}",
               lambda rs=rs: _check_connect_all_pairs(rs, seed, samples))
    return out


def run_suite(name: str, groups=None, seed: int = DEFAULT_SEED,
              samples: int | None = None) -> list[CheckResult]:
    kwargs = {"seed": seed}
    if groups:
        kwargs["groups"] = tuple(groups)
    if name == "lemmas":
        return suite_lemmas(**kwargs)
    if name == "example-a2":
        return suite_example_a2()
    if name == "generation":
        if samples is not None:
            kwargs["samples"] = samples
        return suite_generation(**kwargs)
    if name == "main-theorem":
        if samples is not None:
            kwargs["samples"] = samples
        return suite_main_theorem(**kwargs)
    raise ValueError(f"unknown suite {name!r}")

"""Self-test of the benchmark's checks: each rejects a corrupted output.

    python3 perfbench/selftest.py

Run from the repository root. It runs real operations of every workload,
asserts that their true outputs pass the checks, then corrupts each output
in one way -- a braid letter changed, a factorization dropped, a verdict
negated, a JSON field altered -- and asserts that the check fails. Each
corruption is first shown to change the result: for example, flipping
sigma_i to its inverse on a repeated pair leaves the tuple as it was, so
such a flip is not used as a corrupted word.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads as W  # noqa: E402

SEED = 7
failures = []


def expect_reject(label: str, op, corrupted) -> None:
    try:
        op.check(corrupted)
    except W.CheckFailed as exc:
        print(f"ok   {label}: rejected ({str(exc)[:90]})")
        return
    failures.append(label)
    print(f"FAIL {label}: the corrupted output passed")


def true_output(op):
    out = op.normal(op.run())
    op.check(out)
    return out


def changed_word(g, t, letters):
    """A one-letter change of the word that changes where it carries t."""
    target = g.replay(t, letters)
    n = len(t) - 1
    for pos in range(len(letters)):
        for new in [s * i for i in range(1, n + 1) for s in (1, -1)]:
            word = letters[:pos] + (new,) + letters[pos + 1:]
            if new != letters[pos] and g.replay(t, word) != target:
                return word
    raise AssertionError("no one-letter change alters the result")


def test_transitivity() -> None:
    op = next(op for op in W.build_transitivity(SEED)
              if op.name == "B3" and op.t1 != op.t2)
    letters = true_output(op)
    g = W.group(op.name)[1]
    expect_reject("transitivity: a braid letter changed", op,
                  changed_word(g, op.t1, letters))


def test_enumeration() -> None:
    simple = W.group("A3")[1].simple_affine_tuple()
    op = next(op for op in W.build_enumeration(SEED) if op.t == simple)
    length, facs, (verdict, witness, conclusive) = true_output(op)
    assert facs and verdict, "the A3 Coxeter element should be quasi-Coxeter"
    expect_reject("enumeration: a factorization dropped", op,
                  (length, facs[:5] + facs[6:], (verdict, witness, conclusive)))
    expect_reject("enumeration: the verdict negated", op,
                  (length, facs, (not verdict, witness, conclusive)))
    expect_reject("enumeration: the length changed", op,
                  (length + 2, facs, (verdict, witness, conclusive)))


def test_generation() -> None:
    ops = [op for op in W.build_generation(SEED) if op.name == "A3"]
    seen = set()
    for op in ops:
        out = true_output(op)
        if out[0] in seen:
            continue
        seen.add(out[0])
        verdict, oracle, word, root, gap = out
        expect_reject(f"generation: the {verdict} verdict negated", op,
                      (not verdict, oracle, word, root, gap))
        if verdict:
            g = W.group(op.name)[1]
            expect_reject("generation: a certificate letter changed", op,
                          (verdict, oracle, changed_word(g, op.t, word), root, gap))
        if len(seen) == 2:
            return
    raise AssertionError("the A3 tuples did not give both verdicts")


def test_cli() -> None:
    def alter(payload, op, g):
        command = op.command
        p = json.loads(json.dumps(payload))
        if command == "roots":
            p["highest_root"] = list(g.positive_roots[0])
        elif command == "length":
            p["absolute_length"] -= 2
        elif command == "check-qc":
            p["witness"][0]["level"] += 1
        elif command == "factorize":
            p["factorizations"].pop()
            p["count"] -= 1
        elif command == "orbit":
            p["size"] += 1
        elif command == "connect":
            p["braid_word"] = list(changed_word(g, op.data[0], tuple(p["braid_word"])))
        elif command == "fiber":
            p["members"][0][-1]["level"] += 1
        return p

    done = set()
    for op in W.build_cli(SEED):
        if op.command in done:
            continue
        done.add(op.command)
        payload = true_output(op)
        g = W.group(op.name)[1]
        expect_reject(f"cli {op.command}: a JSON field altered", op, alter(payload, op, g))


def main() -> int:
    for test in (test_transitivity, test_enumeration, test_generation, test_cli):
        test()
    if failures:
        print(f"{len(failures)} corrupted outputs passed: {failures}")
        return 1
    print("every check rejected its corrupted output")
    return 0


if __name__ == "__main__":
    sys.exit(main())

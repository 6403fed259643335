"""The four workloads: seeded inputs, the timed operation, untimed checks.

Each workload builds a fixed list of operations from the seed. An
operation's ``run()`` is the timed call into affhur; ``check(output)``
compares the output with the benchmark's own model (perfbench/model.py)
and raises CheckFailed when they disagree. ``normal(output)`` turns an
output into plain data, so that rounds can be compared with the first.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

from model import Group

from affhur import quasicox  # timed calls go through the module, so the tracer sees them
from affhur.quasicox import FactorizationQuery, closure_generates
from affhur.rootsys import Root, build_root_system
from affhur.weyl_aff import AffineReflection, product_of_reflections

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")   # run output and traces
LEVEL_BOUND = 2        # K of the enumeration window, as `affhur factorize -K 2`
WORD_LENGTH = 4        # letters of the random braid words that make tuples

# (group, ops per round). The cost of one op varies by a factor of ten
# within a group (coefficient of variation 0.3-0.8), so the spread between
# seeds falls only with the number of ops: a round holds many cheap ops and
# few costly ones. B4 and F4 are left out: one F4 pair takes 0.1-1.8 s and
# one B4 closure 0.2-1 s, so a single such op moved a round by up to 10%.
TRANSITIVITY_MIX = (("A3", 400), ("B3", 360), ("C3", 360), ("A4", 60),
                    ("C4", 6), ("D4", 4))
# One op takes 1.2-3 s. A round holds the Coxeter elements of A3, B3 and
# C3, four A3 elements conjugate to the Coxeter element (quasi-Coxeter, each
# about as costly as it) and two random A3 elements of length n+1, which
# take 1.2 s when quasi-Coxeter and up to 2.2 s when not. The median op is
# then an A3 quasi-Coxeter element on every seed. A random B3 or C3 element
# takes 4-7 s, and one or two of them would set the spread between seeds.
ENUMERATION_COXETER = ("A3", "B3", "C3")
ENUMERATION_CONJUGATES = 4
ENUMERATION_RANDOM = 2
GENERATION_MIX = (("A3", 144), ("B3", 144), ("C3", 144), ("A4", 48), ("D4", 24))
CLOSURE_NODE_LIMIT = 30000
NEGATIVE_SAMPLE = 4    # closure_generates checks per negative verdict
CLI_COMMANDS = ("roots", "length", "check-qc", "factorize", "orbit",
                "connect", "fiber")
CLI_REPEATS = 10       # instances of each command per round


class CheckFailed(AssertionError):
    pass


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


_groups: dict = {}


def group(name: str):
    """(affhur root system, model group) for a type name like 'B3'."""
    if name not in _groups:
        _groups[name] = (build_root_system(name[0], int(name[1:])), Group(name))
    return _groups[name]


def to_refs(t) -> tuple:
    return tuple(AffineReflection(Root(r), k) for r, k in t)


def from_refs(refs) -> tuple:
    return tuple((r.root.coords, r.level) for r in refs)


def random_word(rng: random.Random, n: int, length: int = WORD_LENGTH) -> tuple:
    return tuple(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(length))


def random_tuple(rng: random.Random, g: Group, size: int) -> tuple:
    return tuple((rng.choice(g.positive_roots), rng.randint(-LEVEL_BOUND, LEVEL_BOUND))
                 for _ in range(size))


def random_long_element(rng: random.Random, g: Group) -> tuple:
    """n+1 window reflections whose product has absolute length exactly n+1.

    Kept when the linear part fixes a line (codimension n-1) and the product
    has no fixed point. A product of n+1 reflections has length at most n+1;
    a length-(n-1) product of reflections with codimension n-1 has a fixed
    point, so these have length n+1.
    """
    n = g.rank
    while True:
        t = random_tuple(rng, g, n + 1)
        m = g.product(t)
        if g.codim_fixed(m) == n - 1 and not g.has_fixed_point(m):
            return t


def coxeter_conjugate(rng: random.Random, g: Group) -> tuple:
    """A factorization of a conjugate of the Coxeter element by a level-0 reflection.

    Quasi-Coxeter like the Coxeter element, and level-0 conjugation maps
    the level window onto itself, so a generating witness lies inside it.
    """
    s = (rng.choice(g.positive_roots), 0)
    t = g.quick_replay(g.simple_affine_tuple(), random_word(rng, g.rank))
    return tuple(g.conjugate(s, x) for x in t)


# --------------------------------------------------------------- transitivity

class ConnectOp:
    kind = "connect_reduced"

    def __init__(self, name, t1, t2, target):
        self.name, self.t1, self.t2, self.target = name, t1, t2, target
        self.rs = group(name)[0]
        self.refs1, self.refs2 = to_refs(t1), to_refs(t2)

    def run(self):
        return quasicox.connect_reduced(self.rs, self.target, self.refs1, self.refs2)

    @staticmethod
    def normal(word):
        return tuple(word.letters)

    def check(self, letters) -> None:
        g = group(self.name)[1]
        c = g.product(g.simple_affine_tuple())
        require(g.product(self.t1) == c and g.product(self.t2) == c,
                f"{self.name}: an input tuple does not multiply to the Coxeter element")
        require(g.replay(self.t1, letters) == self.t2,
                f"{self.name}: braid word {list(letters)} does not carry t1 to t2")


def build_transitivity(seed: int) -> list:
    rng = random.Random(seed)
    ops = []
    for name, count in TRANSITIVITY_MIX:
        rs, g = group(name)
        simple = g.simple_affine_tuple()
        coxeter = product_of_reflections(rs, to_refs(simple))
        for _ in range(count):
            t1 = g.quick_replay(simple, random_word(rng, g.rank))
            t2 = g.quick_replay(simple, random_word(rng, g.rank))
            ops.append(ConnectOp(name, t1, t2, coxeter))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------- enumeration

class EnumerationOp:
    kind = "enumerate"

    def __init__(self, name, t, sample_seed):
        self.name, self.t, self.sample_seed = name, t, sample_seed
        rs, _ = group(name)
        self.rs = rs
        self.w = product_of_reflections(rs, to_refs(t))
        self.length = rs.rank + 1

    def run(self):
        length = quasicox.absolute_length_affine(self.rs, self.w)
        facs = quasicox.enumerate_factorizations(
            self.rs, FactorizationQuery(self.w, self.length, LEVEL_BOUND))
        verdict = quasicox.is_quasi_coxeter_affine(self.rs, self.w, LEVEL_BOUND)
        return length, facs, verdict

    @staticmethod
    def normal(out):
        length, facs, v = out
        witness = None if v.witness is None else from_refs(v.witness)
        return (length, tuple(from_refs(f) for f in facs),
                (v.is_quasi_coxeter, witness, v.conclusive))

    def check(self, out) -> None:
        length, facs, (verdict, witness, conclusive) = out
        g = group(self.name)[1]
        n = g.rank
        m = g.product(self.t)
        tag = f"{self.name} element {self.t}"
        require(g.det_linear(m) == (-1) ** length, f"{tag}: length {length} has the wrong parity")
        require(g.codim_fixed(m) <= length <= 2 * n, f"{tag}: length {length} out of range")
        require(length == n + 1, f"{tag}: length {length}, the model says {n + 1}")
        require(list(facs) == sorted(facs), f"{tag}: factorizations are not sorted")
        found = set(facs)
        require(len(found) == len(facs), f"{tag}: repeated factorizations")
        expected = g.factorizations(m, self.length, LEVEL_BOUND)
        require(found == expected,
                f"{tag}: {len(expected - found)} factorizations missing, "
                f"{len(found - expected)} extra")
        for f in facs:
            for i in range(1, n + 1):
                for letter in (i, -i):
                    image = g.move(f, letter)
                    if all(abs(k) <= LEVEL_BOUND for _, k in image):
                        require(image in found, f"{tag}: not closed under move {letter}")
        if verdict:
            require(conclusive and witness in found,
                    f"{tag}: positive verdict without a listed witness")
            require(closure_generates(self.rs, to_refs(witness)),
                    f"{tag}: closure oracle rejects the witness")
        else:
            require(not conclusive, f"{tag}: negative verdict marked conclusive")
            rng = random.Random(self.sample_seed)
            for f in rng.sample(list(facs), min(NEGATIVE_SAMPLE, len(facs))):
                require(not closure_generates(self.rs, to_refs(f)),
                        f"{tag}: negative verdict but {f} generates")


def build_enumeration(seed: int) -> list:
    rng = random.Random(seed)
    ops = []
    for name in ENUMERATION_COXETER:
        g = group(name)[1]
        ops.append(EnumerationOp(name, g.simple_affine_tuple(), rng.random()))
    g = group("A3")[1]
    for _ in range(ENUMERATION_CONJUGATES):
        ops.append(EnumerationOp("A3", coxeter_conjugate(rng, g), rng.random()))
    for _ in range(ENUMERATION_RANDOM):
        ops.append(EnumerationOp("A3", random_long_element(rng, g), rng.random()))
    rng.shuffle(ops)
    return ops


# ----------------------------------------------------------------- generation

class GenerationOp:
    kind = "generation"

    def __init__(self, name, t):
        self.name, self.t = name, t
        self.rs = group(name)[0]
        self.refs = to_refs(t)

    def run(self):
        result = quasicox.generates_affine(self.rs, self.refs)
        return result, quasicox.closure_generates(self.rs, self.refs,
                                                  node_limit=CLOSURE_NODE_LIMIT)

    @staticmethod
    def normal(out):
        result, oracle = out
        cert = result.certificate
        word = None if cert.normalizing_braid is None else tuple(cert.normalizing_braid.letters)
        root = None if cert.repeated_root is None else cert.repeated_root.coords
        return result.generates, oracle, word, root, cert.level_gap

    def check(self, out) -> None:
        verdict, oracle, word, root, gap = out
        tag = f"{self.name} tuple {self.t}"
        require(verdict == oracle, f"{tag}: criterion says {verdict}, closure says {oracle}")
        if not verdict:
            return
        g = group(self.name)[1]
        n = g.rank
        u = g.replay(self.t, word)
        (r1, k1), (r2, k2) = u[n - 1], u[n]
        require(r1 == r2 == root, f"{tag}: normalized tail {u[n - 1:]} is not the repeated root {root}")
        require(r1 in g.long, f"{tag}: repeated root {r1} is short")
        require(k1 - k2 == gap and abs(gap) == 1, f"{tag}: level gap {k1 - k2}, certificate {gap}")


def build_generation(seed: int) -> list:
    rng = random.Random(seed)
    ops = []
    for name, count in GENERATION_MIX:
        g = group(name)[1]
        kept = 0
        while kept < count:
            t = random_tuple(rng, g, g.rank + 1)
            if g.generates_finite([r for r, _ in t]):
                ops.append(GenerationOp(name, t))
                kept += 1
    rng.shuffle(ops)
    return ops


# ------------------------------------------------------------------------ cli

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _literal(t) -> list:
    return [",".join(map(str, r)) + f":{k}" for r, k in t]


class CliOp:
    """One `affhur ... --format json` command in a fresh interpreter."""

    kind = "cli"
    tracer = None  # set by run.py to run the commands under this tracer
    runs = 0

    def __init__(self, command, args, name, data):
        self.command, self.args, self.name, self.data = command, args, name, data

    def run(self):
        env = child_env()
        if self.tracer is None:
            argv = [sys.executable, "-m", "affhur.cli"]
        else:
            argv = [sys.executable, os.path.join(HERE, "cli_child.py")]
            env["PERFBENCH_TRACE_FILE"] = trace_file = os.path.join(
                OUT_DIR, f"cli-child-{os.getpid()}.json")
        argv += [self.command] + self.args + ["--format", "json"]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=120)
        if self.tracer is not None:
            with open(trace_file) as fh:
                state = json.load(fh)
            os.remove(trace_file)
            CliOp.runs += 1
            self.tracer.merge(state, f"cli{CliOp.runs}")
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
        return proc.stdout

    @staticmethod
    def normal(stdout):
        return json.loads(stdout)

    def check(self, payload) -> None:
        g = group(self.name)[1]
        n = g.rank
        tag = f"{self.command} {self.name} {self.args}"
        require(payload.get("command") == self.command, f"{tag}: wrong command field")
        if self.command == "roots":
            require(sorted(map(tuple, payload["roots"])) == g.roots, f"{tag}: root set differs")
            require(sorted(map(tuple, payload["positive_roots"])) == g.positive_roots,
                    f"{tag}: positive roots differ")
            require(tuple(payload["highest_root"]) == g.highest_root, f"{tag}: highest root differs")
        elif self.command == "length":
            require(payload["absolute_length"] == n + 1,
                    f"{tag}: length {payload['absolute_length']}, the model says {n + 1}")
        elif self.command == "check-qc":
            witness = tuple((tuple(e["root"]), e["level"]) for e in payload["witness"] or ())
            require(payload["verdict"] is True and payload["conclusive"] is True,
                    f"{tag}: quasi-Coxeter element not recognised")
            require(payload["absolute_length"] == n + 1, f"{tag}: wrong absolute length")
            require(g.product(witness) == g.product(self.data),
                    f"{tag}: witness does not multiply to the element")
            require(all(abs(k) <= LEVEL_BOUND for _, k in witness), f"{tag}: witness out of window")
            require(closure_generates(group(self.name)[0], to_refs(witness)),
                    f"{tag}: closure oracle rejects the witness")
        elif self.command == "factorize":
            facs = [tuple((tuple(e["root"]), e["level"]) for e in f)
                    for f in payload["factorizations"]]
            expected = g.factorizations(g.product(self.data), n + 1, LEVEL_BOUND)
            require(payload["length"] == n + 1 and payload["count"] == len(facs),
                    f"{tag}: length or count field wrong")
            require(facs == sorted(expected), f"{tag}: factorization list differs from the model")
        elif self.command == "orbit":
            require(payload["exhausted"] is True and payload["size"] == len(g.orbit(self.data)),
                    f"{tag}: orbit size {payload['size']} differs from the model")
        elif self.command == "connect":
            t1, t2 = self.data
            word = payload["braid_word"]
            require(word is not None and g.replay(t1, word) == t2,
                    f"{tag}: braid word {word} does not carry t1 to t2")
        elif self.command == "fiber":
            members = [tuple((tuple(e["root"]), e["level"]) for e in m)
                       for m in payload["members"]]
            base = self.data
            expected = [base[:n - 1] + ((base[n - 1][0], base[n - 1][1] + j),
                                        (base[n][0], base[n][1] + j))
                        for j in range(-LEVEL_BOUND, LEVEL_BOUND + 1)]
            require(members == expected, f"{tag}: fiber members differ")
            require(all(g.product(m) == g.product(base) for m in members),
                    f"{tag}: a fiber member changes the product")


def _cli_instance(rng: random.Random, command: str) -> CliOp:
    if command == "roots":
        name = rng.choice(("A2", "B2", "G2", "A3", "B3", "C3", "A4", "D4", "F4"))
        return CliOp(command, [name], name, None)
    name = rng.choice(("A2", "B2", "G2"))
    g = group(name)[1]
    n = g.rank
    spec = f"affine:{name}"
    if command in ("length", "factorize"):
        t = random_long_element(rng, g)
        extra = ["-K", str(LEVEL_BOUND)] if command == "factorize" else []
        return CliOp(command, [spec] + _literal(t) + extra, name, t)
    if command == "check-qc":
        t = coxeter_conjugate(rng, g)
        return CliOp(command, [spec] + _literal(t) + ["-K", str(LEVEL_BOUND)], name, t)
    if command == "orbit":
        name = rng.choice(("A3", "B3", "C3"))
        g = group(name)[1]
        simple = tuple((r, 0) for r, _ in g.simple_affine_tuple()[:g.rank])
        t = g.quick_replay(simple, random_word(rng, g.rank - 1))
        return CliOp(command, [name] + [",".join(map(str, r)) for r, _ in t], name, t)
    if command == "connect":
        simple = g.simple_affine_tuple()
        t1 = g.quick_replay(simple, random_word(rng, n))
        t2 = g.quick_replay(simple, random_word(rng, n))
        return CliOp(command, [spec, ";".join(_literal(t1)), ";".join(_literal(t2))],
                     name, (t1, t2))
    if command == "fiber":
        root = rng.choice(g.positive_roots)
        t = random_tuple(rng, g, n - 1) + ((root, rng.randint(-2, 2)), (root, rng.randint(-2, 2)))
        return CliOp(command, [spec] + _literal(t) + ["-K", str(LEVEL_BOUND)], name, t)
    raise ValueError(command)


def build_cli(seed: int) -> list:
    rng = random.Random(seed)
    ops = [_cli_instance(rng, command) for command in CLI_COMMANDS for _ in range(CLI_REPEATS)]
    rng.shuffle(ops)
    return ops


def summary(ops, outputs) -> str:
    """The make-up of a round: ops per group and what the outputs were."""
    groups = {}
    for op in ops:
        groups[op.name] = groups.get(op.name, 0) + 1
    text = " ".join(f"{g}:{c}" for g, c in groups.items())
    done = [(op, out) for op, out in zip(ops, outputs) if out is not None]
    kind = ops[0].kind
    if kind == "generation":
        text += f"; generating {sum(out[0] for _, out in done)}/{len(done)}"
    elif kind == "enumerate":
        text += "; factorizations (verdict) " + ", ".join(
            f"{op.name}:{len(out[1])}({'qc' if out[2][0] else 'not qc'})" for op, out in done)
    elif kind == "connect_reduced":
        text += f"; mean word length {sum(len(out) for _, out in done) / len(done):.1f}"
    return text


BUILDERS = {
    "transitivity": build_transitivity,
    "enumeration": build_enumeration,
    "generation": build_generation,
    "cli": build_cli,
}

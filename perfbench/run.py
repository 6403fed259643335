"""affhur benchmark: one workload per invocation.

    python3 perfbench/run.py --workload transitivity --seed 1 --seconds 10 --trace 0

Run from the repository root. It imports affhur from ./src, builds the
workload's operations from the seed, and runs whole rounds over them, one
operation at a time, until --seconds have passed. Every output is checked
against the benchmark's own model after the timing. The last line of
stdout is one JSON object: correct, attempted, failed and the metrics
named in BENCHMARK.json -- end_to_end with --trace 0, per_layer with
--trace 1. A traced run times one untraced round, then one round under the
tracer, and writes its spans to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("transitivity", "enumeration", "generation", "cli")
SETUP_STARTS = 5       # fresh processes per run; setup_s is their median
STARTUP_PROBES = 5     # fresh processes per traced run for cli.*_ms


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true",
                   help="set up the workload, print 'ready' and exit (for setup_s)")
    return p.parse_args()


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")


def spawn_seconds(argv, until_ready: bool) -> float:
    """Wall time from spawning argv until it prints 'ready', or until it exits."""
    t0 = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=child_env(),
                          cwd=ROOT) as proc:
        if until_ready:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.communicate(timeout=120)
            ok = line.strip() == "ready"
        else:
            out, _ = proc.communicate(timeout=120)
            t1 = time.perf_counter()
            ok = bool(out.strip())
    if proc.returncode != 0 or not ok:
        raise RuntimeError(f"{argv[1:]} exited {proc.returncode}")
    return t1 - t0


def setup_seconds(workload: str, seed: int) -> float:
    if workload == "cli":
        argv, until_ready = [sys.executable, "-m", "affhur.cli", "--version"], False
    else:
        argv = [sys.executable, os.path.join(HERE, "run.py"), "--probe",
                "--workload", workload, "--seed", str(seed)]
        until_ready = True
    return statistics.median(spawn_seconds(argv, until_ready) for _ in range(SETUP_STARTS))


def startup_ms() -> tuple[float, float]:
    """Medians of a bare interpreter start and of `import affhur.cli` in one."""
    bare = [spawn_seconds([sys.executable, "-c", "print(1)"], False)
            for _ in range(STARTUP_PROBES)]
    code = ("import time; t = time.perf_counter(); import affhur.cli; "
            "print(time.perf_counter() - t)")
    imports = []
    for _ in range(STARTUP_PROBES):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=child_env(), cwd=ROOT, timeout=120, check=True).stdout
        imports.append(float(out))
    return statistics.median(bare) * 1e3, statistics.median(imports) * 1e3


class Rounds:
    """Whole rounds over the op list: latencies, failures, first outputs."""

    def __init__(self, ops):
        self.ops = ops
        self.first = [None] * len(ops)
        self.by_op: list = [[] for _ in ops]
        self.attempted = self.failed = self.mismatched = 0
        self.rounds = 0

    def run(self, seconds: float, tracer=None) -> float:
        """Run rounds until `seconds` have passed (at least one); return their wall time."""
        clock = time.perf_counter
        start = clock()
        while True:
            for i, op in enumerate(self.ops):
                self.attempted += 1
                t0 = clock()
                try:
                    out = op.run() if tracer is None else tracer.span(f"op.{op.kind}", op.run)
                except Exception as exc:  # a failed op is counted, not fatal
                    self.failed += 1
                    print(f"op {i} ({op.kind} {op.name}) failed: {exc!r}", file=sys.stderr)
                    continue
                dt = clock() - t0
                self.by_op[i].append(dt)
                norm = op.normal(out)
                if self.first[i] is None:
                    self.first[i] = norm
                elif norm != self.first[i]:
                    self.mismatched += 1
                    print(f"op {i} ({op.kind} {op.name}) changed its output", file=sys.stderr)
            self.rounds += 1
            if clock() - start >= seconds:
                return clock() - start

    def check(self) -> bool:
        from workloads import CheckFailed
        ok = self.mismatched == 0
        for op, out in zip(self.ops, self.first):
            if out is None:
                continue
            try:
                op.check(out)
            except CheckFailed as exc:
                ok = False
                print(f"check failed: {exc}", file=sys.stderr)
        return ok


def selected(metrics: dict, section: str) -> dict:
    """The metrics BENCHMARK.json names in `section`, in its order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)[section]
    return {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in spec}


def main() -> int:
    args = parse_args()
    if os.environ.get("PYTHONHASHSEED") != "0":
        # fixed string hashing, so that traced counts repeat exactly
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  dict(os.environ, PYTHONHASHSEED="0"))
    if not os.path.isfile(os.path.join(ROOT, "src", "affhur", "__init__.py")):
        print(f"error: no affhur sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    ops = workloads.BUILDERS[args.workload](args.seed)
    if args.probe:
        print("ready", flush=True)
        return 0
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    rounds = Rounds(ops)

    if not args.trace:
        wall = rounds.run(args.seconds)
        usage = resource.getrusage(resource.RUSAGE_CHILDREN if args.workload == "cli"
                                   else resource.RUSAGE_SELF)
        lat = sorted(t for ts in rounds.by_op for t in ts)
        metrics = {
            "ops_per_s": (len(lat) / wall, "1/s"),
            "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "setup_s": (setup_seconds(args.workload, args.seed), "s"),
            "peak_rss_mb": (usage.ru_maxrss / 1024, "MB"),
        }
        print(f"# {args.workload} seed {args.seed}: {rounds.rounds} rounds of "
              f"{len(ops)} ops in {wall:.2f} s; op p90 {lat[int(0.9 * (len(lat) - 1))] * 1e3:.1f} ms "
              f"(reference only)")
        section = "end_to_end"
    else:
        from tracing import Tracer
        untraced = rounds.run(0)
        tracer = Tracer()
        workloads.CliOp.tracer = tracer
        tracer.install()
        try:
            traced = rounds.run(0, tracer)
        finally:
            tracer.uninstall()
            workloads.CliOp.tracer = None
        metrics = tracer.metrics()
        metrics["trace.overhead"] = (traced / untraced, "ratio")
        interpreter, imports = startup_ms()
        metrics["cli.interpreter_ms"] = (interpreter, "ms")
        metrics["cli.import_ms"] = (imports, "ms")
        for command in workloads.CLI_COMMANDS:
            times = [t for op, ts in zip(ops, rounds.by_op)
                     if getattr(op, "command", None) == command for t in ts[:1]]
            metrics[f"cli.{command}.ms"] = (statistics.median(times) * 1e3 if times else 0.0, "ms")
        path = os.path.join(workloads.OUT_DIR, f"trace-{args.workload}-{args.seed}.jsonl")
        tracer.write_spans(path)
        print(f"# {args.workload} seed {args.seed}: untraced {untraced:.2f} s, "
              f"traced {traced:.2f} s, {len(tracer.spans)} spans in {path}")
        section = "per_layer"

    print(f"# make-up: {workloads.summary(ops, rounds.first)}")
    correct = rounds.check()
    print(json.dumps({"correct": correct, "attempted": rounds.attempted,
                      "failed": rounds.failed, "metrics": selected(metrics, section)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 usage/parse error,
3 limits exceeded (inconclusive/not found within limits). Text output is
human-oriented; ``--format json`` is the stable interface.

The parsing is the standard library's `argparse`: one parser reads the
command name, and one built for that command alone reads its arguments.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .hurwitz import apply_braid, connect, orbit, reflection_codes
from .intlattice import connection_index
from .literals import (braid_word_to_json, certificate_to_json, format_group,
                       format_root, format_tuple, parse_group,
                       parse_reflection_args, parse_tuple_literal,
                       tuple_to_json)
from .quasicox import (FactorizationQuery, PipelineExhausted,
                       QuasiCoxeterResult, absolute_length_affine,
                       connect_reduced, enumerate_factorizations, fiber,
                       generates_affine, is_quasi_coxeter_affine)
from .rootsys import RootSystemError, coroot, parse_type
from .weyl_aff import product_of_reflections, reflection_pair
from .weyl_fin import SEARCH_NODE_LIMIT, absolute_length

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_LIMITS = 3


def _usage_error(msg: str):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(EXIT_USAGE)


class _Parser(argparse.ArgumentParser):
    """A usage error found while parsing the arguments (an unknown option,
    a missing argument, a non-integer option value, an unknown command)
    is one `error:` line with exit code 2, like the commands' own checks."""

    def error(self, message):
        _usage_error(message)


def _int_at_least(low: int):
    """The argparse type of an integer option of at least `low`."""
    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is less than {low}")
        return value
    return convert


_NATURAL = _int_at_least(0)

# command name -> (function, its arguments); `main` calls the function with
# the parsed values by keyword
COMMANDS: dict = {}


def _command(name: str, *arguments):
    """Register the decorated function as command `name`; each argument is
    the (flags, options) of one `ArgumentParser.add_argument` call."""
    def register(fn):
        COMMANDS[name] = (fn, arguments)
        return fn
    return register


def _arg(*flags, **options):
    return flags, options


_FORMAT = _arg("--format", dest="fmt", choices=("text", "json"), default="text",
               help="Output format; json is the stable interface "
                    "(default: text).")
_GROUP = _arg("group", metavar="GROUP")
_REFLECTIONS = _arg("reflections", metavar="REFLECTIONS", nargs="+")


def _node_limit() -> int:
    raw = os.environ.get("AFFHUR_NODE_LIMIT")
    if raw is None:
        return SEARCH_NODE_LIMIT
    try:
        limit = int(raw)
    except ValueError:
        _usage_error(f"AFFHUR_NODE_LIMIT must be an integer, got {raw!r}")
    if limit < 0:
        _usage_error(f"AFFHUR_NODE_LIMIT must be non-negative, got {limit}")
    return limit


def _emit(fmt: str, payload: dict, text_lines):
    if fmt == "json":
        payload = {"tool": "affhur", "version": __version__, **payload}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _parse_group_or_exit(group: str):
    try:
        return parse_group(group)
    except (RootSystemError, ValueError) as exc:
        _usage_error(str(exc))


def _parse_refs_or_exit(rs, refs, affine):
    try:
        return parse_reflection_args(rs, refs, affine)
    except (RootSystemError, ValueError) as exc:
        _usage_error(str(exc))


def main(args=None, prog_name: str = "affhur"):
    """Run the command line `args` (default: ``sys.argv[1:]``). A command
    that ends with any exit code but 0 raises `SystemExit`; with no
    arguments at all the help goes to stderr and the exit code is 2."""
    args = sys.argv[1:] if args is None else list(args)
    width = max(map(len, COMMANDS)) + 2
    top = _Parser(
        prog=prog_name, allow_abbrev=False,
        description="Exact reflection-factorization computations in finite "
                    "and affine Weyl groups.",
        epilog="Commands:\n" + "\n".join(
            f"  {name:<{width}}{fn.__doc__.splitlines()[0]}"
            for name, (fn, _) in sorted(COMMANDS.items())),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    top.add_argument("--version", action="version",
                     version=f"affhur, version {__version__}")
    top.add_argument("command", metavar="COMMAND", choices=COMMANDS,
                     help="one of the commands below")
    top.add_argument("args", metavar="ARGS", nargs=argparse.REMAINDER,
                     help=f"its arguments; '{prog_name} COMMAND -h' lists them")
    if not args:
        top.print_help(sys.stderr)
        sys.exit(EXIT_USAGE)
    ns = top.parse_args(args)
    fn, arguments = COMMANDS[ns.command]
    parser = _Parser(prog=f"{prog_name} {ns.command}", description=fn.__doc__,
                     allow_abbrev=False)
    for flags, options in arguments:
        parser.add_argument(*flags, **options)
    fn(**vars(parser.parse_intermixed_args(ns.args)))


@_command("roots", _GROUP, _FORMAT)
def cmd_roots(group, fmt):
    """List roots, coroots, highest root and connection index of GROUP."""
    rs, _affine = _parse_group_or_exit(group)
    index = connection_index(rs)
    payload = {
        "command": "roots",
        "group": f"{rs.family}{rs.rank}",
        "roots": [list(r.coords) for r in rs.roots],
        "positive_roots": [list(r.coords) for r in rs.positive_roots],
        "coroots": [list(coroot(rs, r)) for r in rs.roots],
        "highest_root": list(rs.highest_root.coords),
        "connection_index": index,
        "cartan_matrix": [list(row) for row in rs.cartan],
    }
    lines = [f"group {rs.family}{rs.rank}: {len(rs.roots)} roots, "
             f"{len(rs.positive_roots)} positive",
             f"highest root: {format_root(rs.highest_root)}",
             f"connection index: {index}",
             "positive roots: "
             + " ".join(format_root(r) for r in rs.positive_roots)]
    _emit(fmt, payload, lines)


@_command("check-qc", _GROUP, _REFLECTIONS,
          _arg("-K", "--level-bound", type=_NATURAL, default=2,
               help="Level bound for the witness search (default: 2)."),
          _FORMAT)
def cmd_check_qc(group, reflections, level_bound, fmt):
    """Decide quasi-Coxeter status of the product of the given reflections."""
    rs, affine = _parse_group_or_exit(group)
    if not affine:
        _usage_error("check-qc needs an affine group spec like 'affine:A2'")
    refs = _parse_refs_or_exit(rs, reflections, affine)
    w = product_of_reflections(rs, refs)
    cert = None
    try:
        res = is_quasi_coxeter_affine(rs, w, level_cap=level_bound)
        if res.witness is not None:
            cert = certificate_to_json(
                generates_affine(rs, res.witness).certificate)
    except PipelineExhausted as exc:
        # a normalization out of its limits decides nothing
        res = QuasiCoxeterResult(None, None, False, str(exc))
    length = absolute_length_affine(rs, w)
    detail = res.detail
    if length > rs.rank + 1:
        detail += (f"; absolute length {length} exceeds {rs.rank + 1}, "
                   "outside the quasi-Coxeter length range")
    payload = {
        "command": "check-qc",
        "group": format_group(rs, affine),
        "verdict": res.is_quasi_coxeter,
        "conclusive": res.conclusive,
        "absolute_length": length,
        "witness": None if res.witness is None else tuple_to_json(res.witness),
        "certificate": cert,
        "detail": detail,
        "limits": {"level_bound": level_bound},
    }
    verdict = ("undecided (a search ran out of its limits)"
               if res.is_quasi_coxeter is None else
               f"{res.is_quasi_coxeter} "
               f"({'conclusive' if res.conclusive else 'within level bound only'})")
    lines = [f"quasi-Coxeter: {verdict}",
             f"absolute length: {length}",
             f"detail: {detail}"]
    if res.witness is not None:
        lines.append(f"witness: {format_tuple(res.witness)}")
    _emit(fmt, payload, lines)
    sys.exit(EXIT_OK if res.conclusive else EXIT_LIMITS)


@_command("factorize", _GROUP, _REFLECTIONS,
          _arg("--length", type=_NATURAL, default=None,
               help="Factorization length; defaults to the absolute length."),
          _arg("-K", "--level-bound", type=_NATURAL, default=2,
               help="Level bound of the factorizations (default: 2)."),
          _FORMAT)
def cmd_factorize(group, reflections, length, level_bound, fmt):
    """Enumerate reflection factorizations of the product of REFLECTIONS."""
    rs, affine = _parse_group_or_exit(group)
    if not affine:
        _usage_error("factorize needs an affine group spec like 'affine:A2'")
    refs = _parse_refs_or_exit(rs, reflections, affine)
    node_limit = _node_limit()
    w = product_of_reflections(rs, refs)
    if length is None:
        length = absolute_length_affine(rs, w)
    facs = enumerate_factorizations(
        rs, FactorizationQuery(w, length, level_bound), limit=node_limit)
    cut = len(facs) > node_limit
    del facs[node_limit:]
    payload = {
        "command": "factorize",
        "group": format_group(rs, affine),
        "length": length,
        "limits": {"level_bound": level_bound},
        "count": len(facs),
        "factorizations": [tuple_to_json(f) for f in facs],
    }
    head = (f"{len(facs)} factorizations of length {length} "
            f"with levels in [-{level_bound}, {level_bound}]")
    if cut:
        payload["truncated"] = True
        payload["limits"]["node_limit"] = node_limit
        head = f"first {head}, cut at the node limit {node_limit}"
    _emit(fmt, payload, [head] + [format_tuple(f) for f in facs])
    if cut:
        sys.exit(EXIT_LIMITS)


@_command("length", _GROUP, _REFLECTIONS, _FORMAT)
def cmd_length(group, reflections, fmt):
    """Absolute (reflection) length of the product of REFLECTIONS."""
    rs, affine = _parse_group_or_exit(group)
    refs = _parse_refs_or_exit(rs, reflections, affine)
    w = product_of_reflections(rs, refs)
    length = absolute_length_affine(rs, w) if affine else absolute_length(w.finite)
    payload = {"command": "length", "group": format_group(rs, affine),
               "absolute_length": length}
    _emit(fmt, payload, [f"absolute length: {length}"])


@_command("orbit", _GROUP, _REFLECTIONS,
          _arg("--depth", type=_NATURAL, default=None,
               help="Depth cap (default none)."),
          _FORMAT)
def cmd_orbit(group, reflections, depth, fmt):
    """Hurwitz orbit of the given reflection tuple."""
    rs, affine = _parse_group_or_exit(group)
    refs = _parse_refs_or_exit(rs, reflections, affine)
    node_limit = _node_limit()
    codes = reflection_codes(rs, affine)
    res = orbit(codes.move, tuple(map(codes.code_of, refs)), node_limit, depth)
    payload = {"command": "orbit", "group": format_group(rs, affine),
               "size": len(res.members), "exhausted": res.exhausted,
               "limits": {"node_limit": node_limit, "depth": depth}}
    _emit(fmt, payload,
          [f"orbit size: {len(res.members)} "
           f"({'exhausted' if res.exhausted else 'truncated at limits'})"])
    sys.exit(EXIT_OK if res.exhausted else EXIT_LIMITS)


@_command("connect", _GROUP, _arg("tuple1", metavar="TUPLE1"),
          _arg("tuple2", metavar="TUPLE2"),
          _arg("--depth", type=_NATURAL, default=16,
               help="Depth bound of the search (default: 16). Affine "
                    "(n+1)-tuples try the quasi-Coxeter pipeline first, and "
                    "there it bounds only the finite-alignment stage."),
          _FORMAT)
def cmd_connect(group, tuple1, tuple2, depth, fmt):
    """Braid word sending TUPLE1 to TUPLE2 (semicolon-separated literals)."""
    rs, affine = _parse_group_or_exit(group)
    try:
        t1 = parse_tuple_literal(rs, tuple1, affine)
        t2 = parse_tuple_literal(rs, tuple2, affine)
    except (RootSystemError, ValueError) as exc:
        _usage_error(str(exc))
    if len(t1) != len(t2):
        _usage_error("tuples have different lengths")
    w = product_of_reflections(rs, t1)
    if w != product_of_reflections(rs, t2):
        _usage_error("tuple products differ; no braid word can exist")
    node_limit = _node_limit()
    word = None
    if affine and len(t1) == rs.rank + 1:
        try:
            word = connect_reduced(rs, w, t1, t2, depth_limit=depth,
                                   node_limit=node_limit)
        except (PipelineExhausted, ValueError):
            word = None
    if word is None:
        codes = reflection_codes(rs, affine)
        c1, c2 = (tuple(map(codes.code_of, t)) for t in (t1, t2))
        word = connect(codes.move, c1, c2, depth, node_limit)
        if word is not None:
            p1, p2 = (tuple(reflection_pair(rs, r) for r in t) for t in (t1, t2))
            if apply_braid(codes.table, p1, word) != p2:
                raise RuntimeError("internal inconsistency: the braid word "
                                   "found does not replay")
    payload = {"command": "connect", "group": format_group(rs, affine),
               "braid_word": braid_word_to_json(word),
               "limits": {"depth": depth, "node_limit": node_limit}}
    if word is None:
        # an orbit that closes without the other tuple disproves a word
        for start, goal, which in ((c1, c2, "first"), (c2, c1, "second")):
            res = orbit(codes.move, start, node_limit, depth)
            if res.exhausted and goal not in res.members:
                _emit(fmt, payload, [
                    f"no braid word exists: the Hurwitz orbit of the {which} "
                    f"tuple closes at {len(res.members)} tuples without the other"])
                return
        _emit(fmt, payload, ["no braid word found within limits"])
        sys.exit(EXIT_LIMITS)
    _emit(fmt, payload, [f"braid word: {list(word.letters)}"])


@_command("fiber", _GROUP, _REFLECTIONS,
          _arg("-K", "--shift-bound", type=_NATURAL, default=2,
               help="Bound of the level shift (default: 2)."),
          _FORMAT)
def cmd_fiber(group, reflections, shift_bound, fmt):
    """Members of the sigma_n-fiber through a repeated-root-tail tuple."""
    rs, affine = _parse_group_or_exit(group)
    if not affine:
        _usage_error("fiber needs an affine group spec like 'affine:A2'")
    refs = _parse_refs_or_exit(rs, reflections, affine)
    try:
        members = fiber(rs, refs, shift_bound)
    except ValueError as exc:
        _usage_error(str(exc))
    payload = {"command": "fiber", "group": format_group(rs, affine),
               "limits": {"shift_bound": shift_bound},
               "members": [tuple_to_json(m) for m in members]}
    _emit(fmt, payload,
          [f"{len(members)} fiber members"] + [format_tuple(m) for m in members])


@_command("verify", _arg("suites", metavar="SUITE", nargs="*"),
          _arg("--group", dest="groups", action="append", default=[],
               help="Group to run the suites over; repeatable "
                    "(suite defaults if omitted)."),
          _arg("--seed", type=int, default=None,
               help="Seed of the sampled checks "
                    "(default: affhur.verify.DEFAULT_SEED)."),
          _arg("--samples", type=_int_at_least(1), default=None,
               help="Sample count for randomized suites."),
          _FORMAT)
def cmd_verify(suites, groups, seed, samples, fmt):
    """Run verification suites (default: all)."""
    from . import verify as verify_mod  # only this command pays its import
    if seed is None:
        seed = verify_mod.DEFAULT_SEED
    names = list(suites) if suites else list(verify_mod.SUITES)
    for name in names:
        if name not in verify_mod.SUITES:
            _usage_error(f"unknown suite {name!r}; known: {', '.join(verify_mod.SUITES)}")
    for g in groups:
        try:
            parse_type(g)
        except RootSystemError as exc:
            _usage_error(str(exc))
    group_list = list(groups) or None

    node_limit = _node_limit()
    all_results = [verify_mod.run_suite(name, groups=group_list, seed=seed,
                                        samples=samples, node_limit=node_limit)
                   for name in names]
    checks = []
    lines = []
    failed = limited = False
    for name, results in zip(names, all_results):
        if not results:
            lines.append(f"[{name}] WARNING: no checks ran (empty group list)")
        for c in results:
            failed |= not c.ok and not c.limit
            limited |= c.limit
            check = {"suite": name, "name": c.name, "ok": c.ok,
                     "seconds": round(c.seconds, 4), "detail": c.detail}
            if c.limit:
                check["limit"] = True
            checks.append(check)
            status = "PASS" if c.ok else "LIMIT" if c.limit else "FAIL"
            lines.append(f"[{name}] {status} {c.name} ({c.seconds:.2f}s) {c.detail}")
    code, summary = ((EXIT_FAIL, "FAILURES present") if failed
                     else (EXIT_LIMITS, "LIMITS hit, no check failed") if limited
                     else (EXIT_OK, "all checks passed"))
    lines.append(summary)
    payload = {"command": "verify", "seed": seed, "suites": names,
               "checks": checks, "ok": code == EXIT_OK}
    _emit(fmt, payload, lines)
    sys.exit(code)


if __name__ == "__main__":
    main()

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import affhur
from affhur import cli, quasicox, verify
from affhur.cli import main
from affhur.hurwitz import BraidWord
from affhur.rootsys import parse_type
from affhur.weyl_aff import product_of_reflections, simple_system_affine
from affhur.weyl_fin import generates_w0, root_sequences

WORD = ["1,0:0", "0,1:0", "1,1:1"]
THOMAS = WORD + WORD  # the length-4 pure translation of the worked example


class Result:
    """What one in-process run of the command line left: its exit code,
    stdout and stderr as a terminal shows them (`output`), stderr alone,
    and the exception that ended it (None on exit code 0)."""

    def __init__(self, exit_code, output, stderr, exception):
        self.exit_code = exit_code
        self.output = output
        self.stderr = stderr
        self.exception = exception


class _Stream(io.StringIO):
    """One output stream that also copies its text to the shared `mixed`."""

    def __init__(self, mixed):
        super().__init__()
        self.mixed = mixed

    def write(self, text):
        self.mixed.write(text)
        return super().write(text)


class Runner:
    """Runs `main(args)` in this process with captured stdout and stderr.
    `env` sets environment variables for the run (None unsets one); an
    exception other than `SystemExit` is exit code 1, or re-raised when
    `catch_exceptions` is false."""

    def invoke(self, cli, args, env=None, catch_exceptions=True):
        mixed = io.StringIO()
        out, err = _Stream(mixed), _Stream(mixed)
        env = env or {}
        saved = {key: os.environ.get(key) for key in env}
        _set_env(env)
        exit_code, exception = 0, None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                cli(list(args), prog_name="affhur")
        except SystemExit as exc:
            code = exc.code
            exit_code = 0 if code is None else code if isinstance(code, int) else 1
            exception = exc if exit_code else None
        except Exception as exc:
            if not catch_exceptions:
                raise
            exit_code, exception = 1, exc
        finally:
            _set_env(saved)
        return Result(exit_code, mixed.getvalue(), err.getvalue(), exception)


def _set_env(env):
    for key, value in env.items():
        if value is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = value


@pytest.fixture()
def runner():
    return Runner()


def run(runner, *args):
    return runner.invoke(main, list(args))


def test_roots_text(runner):
    res = run(runner, "roots", "A2")
    assert res.exit_code == 0
    assert "6 roots" in res.output
    assert "connection index: 3" in res.output


def test_roots_json(runner):
    res = run(runner, "roots", "A2", "--format", "json")
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["tool"] == "affhur" and "version" in data
    assert len(data["roots"]) == 6
    assert data["connection_index"] == 3
    assert data["highest_root"] == [1, 1]


def test_roots_a1(runner):
    res = run(runner, "roots", "A1", "--format", "json")
    assert res.exit_code == 0
    assert len(json.loads(res.output)["roots"]) == 2


def test_roots_rejects_noncrystallographic(runner):
    res = run(runner, "roots", "H3")
    assert res.exit_code == 2


def test_check_qc_positive(runner):
    res = run(runner, "check-qc", "affine:A2", *WORD, "--format", "json")
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["verdict"] is True and data["conclusive"] is True
    assert data["witness"] is not None
    assert data["certificate"]["projected_generates"] is True


def test_check_qc_all_level_zero(runner):
    res = run(runner, "check-qc", "affine:A2", "1,0:0", "0,1:0", "--format", "json")
    assert res.exit_code == 0
    assert json.loads(res.output)["verdict"] is False


def test_check_qc_thomas_element(runner):
    res = run(runner, "check-qc", "affine:A2", *THOMAS, "--format", "json")
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["verdict"] is False and data["conclusive"] is True
    assert data["absolute_length"] == 4
    assert "exceeds" in data["detail"]


def test_check_qc_b2_certificate(runner):
    res = run(runner, "check-qc", "affine:B2", "1,0:0", "0,1:0", "1,2:1",
              "--format", "json")
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["witness"] == [{"root": [0, 1], "level": 0},
                               {"root": [1, 2], "level": -2},
                               {"root": [1, 2], "level": -1}]
    assert data["certificate"] == {
        "conjugating_coweight": ["2", "1"], "level_gap": -1,
        "normalizing_braid": [], "projected_generates": True,
        "repeated_root": [1, 2],
        "translation_lattice": {"ambient_rank": 2, "basis": [[1, 0], [0, 1]]}}


def test_check_qc_usage_errors(runner):
    assert run(runner, "check-qc", "A2", "1,0:0").exit_code == 2
    assert run(runner, "check-qc", "affine:A2", "9,9:0").exit_code == 2


def test_check_qc_short_element_conclusive(runner):
    res = run(runner, "check-qc", "affine:A2", "1,0:0", "--format", "json")
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["verdict"] is False and data["conclusive"] is True
    assert data["absolute_length"] == 1


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_check_qc_on_an_exhausted_normalization_is_inconclusive(runner, monkeypatch, fmt):
    # a normalization out of its node limit decides nothing: exit 3, the
    # stage named on stdout, nothing on stderr
    monkeypatch.setattr(quasicox, "lr_normalize", lambda *args, **kwargs: None)
    res = run(runner, "check-qc", "affine:A2", *WORD, "--format", fmt)
    assert res.exit_code == 3 and not res.stderr
    assert isinstance(res.exception, SystemExit)
    if fmt == "json":
        data = json.loads(res.output)
        assert data["verdict"] is None and data["conclusive"] is False
        assert data["witness"] is None and data["certificate"] is None
        assert "'normalize'" in data["detail"]
    else:
        assert res.output.splitlines()[0] == (
            "quasi-Coxeter: undecided (a search ran out of its limits)")
        assert "'normalize'" in res.output

def test_length(runner):
    res = run(runner, "length", "affine:A2", *THOMAS, "--format", "json")
    assert res.exit_code == 0
    assert json.loads(res.output)["absolute_length"] == 4
    res2 = run(runner, "length", "A2", "1,0", "0,1", "--format", "json")
    assert json.loads(res2.output)["absolute_length"] == 2


def test_factorize(runner):
    res = run(runner, "factorize", "affine:A2", *THOMAS, "--format", "json")
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["length"] == 4 and data["count"] == len(data["factorizations"]) > 0


def test_factorize_stops_at_the_node_limit(runner, monkeypatch):
    # the worked example's element has 33 factorizations at K=2
    args = ["factorize", "affine:A2", *WORD, "--format", "json"]
    full = run(runner, *args)
    assert full.exit_code == 0 and json.loads(full.output)["count"] == 33
    monkeypatch.setenv("AFFHUR_NODE_LIMIT", "33")
    res = run(runner, *args)
    assert res.exit_code == 0 and res.output == full.output
    monkeypatch.setenv("AFFHUR_NODE_LIMIT", "5")
    res = run(runner, *args)
    assert res.exit_code == 3 and not res.stderr
    data = json.loads(res.output)
    assert data["truncated"] is True and data["limits"]["node_limit"] == 5
    assert data["count"] == 5
    assert data["factorizations"] == json.loads(full.output)["factorizations"][:5]
    res = run(runner, *args[:-2])
    assert res.exit_code == 3 and not res.stderr
    lines = res.output.splitlines()
    assert lines[0] == ("first 5 factorizations of length 3 with levels in "
                        "[-2, 2], cut at the node limit 5")
    assert len(lines) == 6


def test_orbit_exhausted(runner):
    res = run(runner, "orbit", "A2", "1,0", "0,1", "--format", "json")
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["size"] == 3 and data["exhausted"] is True


def test_orbit_limits_exit_code(runner, monkeypatch):
    monkeypatch.setenv("AFFHUR_NODE_LIMIT", "10")
    res = run(runner, "orbit", "affine:A2", "1,0:0", "1,0:1", "--format", "json")
    assert res.exit_code == 3
    assert json.loads(res.output)["exhausted"] is False


def test_connect(runner):
    res = run(runner, "connect", "A2", "1,0;1,0;0,1;0,1", "0,1;0,1;1,0;1,0",
              "--format", "json")
    assert res.exit_code == 0
    assert json.loads(res.output)["braid_word"]


def test_connect_affine_reduced(runner):
    res = run(runner, "connect", "affine:A2",
              "1,0:0;0,1:0;1,1:1", "0,1:0;1,1:-2;1,1:-1", "--format", "json")
    assert res.exit_code == 0
    assert json.loads(res.output)["braid_word"] is not None


def test_connect_affine_equal_tuples(runner):
    res = run(runner, "connect", "affine:A2",
              "1,0:0;0,1:0;1,1:1", "1,0:0;0,1:0;1,1:1", "--format", "json")
    assert res.exit_code == 0
    assert json.loads(res.output)["braid_word"] == []


def test_connect_raises_when_word_does_not_replay(runner, monkeypatch):
    # the fallback search replays its word on the reflection pairs before it
    # answers; the affine 2-tuples replay pairs with non-zero translations
    real = cli.apply_braid
    monkeypatch.setattr(cli, "apply_braid", lambda table, entries, word:
                        real(table, entries, word + BraidWord((1,))))
    for args in (["A2", "1,0;0,1", "1,1;1,0"],
                 ["affine:A2", "1,0:1;0,1:0", "1,1:1;1,0:1"]):
        with pytest.raises(RuntimeError, match="internal inconsistency"):
            runner.invoke(main, ["connect"] + args, catch_exceptions=False)


# two B3 tuples with one product in different Hurwitz orbits, of 12 and 16
# tuples
B3_APART = ["B3", "0,0,1;0,1,0;1,1,1", "0,1,0;1,0,0;1,2,2"]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_connect_reports_a_disproof(runner, fmt):
    res = run(runner, "connect", *B3_APART, "--format", fmt)
    assert res.exit_code == 0
    if fmt == "json":
        assert json.loads(res.output)["braid_word"] is None
    else:
        assert res.output == ("no braid word exists: the Hurwitz orbit of the "
                              "first tuple closes at 12 tuples without the other\n")


def test_connect_cut_by_its_limits_proves_nothing(runner, monkeypatch):
    monkeypatch.setenv("AFFHUR_NODE_LIMIT", "10")
    res = run(runner, "connect", *B3_APART)
    assert res.exit_code == 3
    assert res.output == "no braid word found within limits\n"
    monkeypatch.delenv("AFFHUR_NODE_LIMIT")
    res = run(runner, "connect", *B3_APART, "--depth", "2", "--format", "json")
    assert res.exit_code == 3
    assert json.loads(res.output)["braid_word"] is None


def test_connect_product_mismatch(runner):
    res = run(runner, "connect", "A2", "1,0;0,1", "0,1;0,1")
    assert res.exit_code == 2


def test_fiber(runner):
    res = run(runner, "fiber", "affine:A2", "1,0:0", "1,1:1", "1,1:0",
              "-K", "2", "--format", "json")
    assert res.exit_code == 0
    members = json.loads(res.output)["members"]
    assert len(members) == 5
    assert members[0][1]["level"] == -1 and members[0][2]["level"] == -2


def test_fiber_bad_pattern(runner):
    res = run(runner, "fiber", "affine:A2", "1,0:0", "0,1:1", "1,1:0")
    assert res.exit_code == 2


def test_verify_example_suite(runner):
    res = run(runner, "verify", "example-a2", "--format", "json")
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["ok"] is True
    assert all(c["ok"] for c in data["checks"])


def test_verify_unknown_suite(runner):
    assert run(runner, "verify", "nope").exit_code == 2


@pytest.mark.parametrize("suite,group", [
    ("lemmas", "A1"),
    ("example-a2", "A1"), ("example-a2", "B3"),
    ("generation", "A1"), ("generation", "B3"),
    ("main-theorem", "A1"), ("main-theorem", "B3"),
])
def test_verify_smoke(runner, suite, group):
    # every suite runs on the smallest rank and on a rank-3 group; lemmas
    # only on A1, as they scan every pair of roots
    res = run(runner, "verify", suite, "--group", group, "--samples", "2")
    assert res.exit_code == 0, res.output
    assert res.output.rstrip().endswith("all checks passed")


@pytest.mark.parametrize("node_limit,args", [
    ("abc", ["orbit", "A2", "1,0", "0,1"]),
    ("-1", ["orbit", "A2", "1,0", "0,1"]),
    (None, ["factorize", "affine:A2", "1,0:0", "-K", "-1"]),
    (None, ["factorize", "affine:A2", "1,0:0", "--length", "-2"]),
    (None, ["check-qc", "affine:A2", "1,0:0", "-K", "-1"]),
    (None, ["fiber", "affine:A2", "1,0:0", "1,1:1", "1,1:0", "-K", "-3"]),
    (None, ["verify", "lemmas", "--group", "Z9"]),
    (None, ["verify", "main-theorem", "--samples", "0"]),
    (None, ["orbit", "A2", "1,0", "0,1", "--depth", "-1"]),
    (None, ["connect", "A2", "1,0;0,1", "1,1;1,0", "--depth", "-1"]),
    (None, ["--bogus"]),
    (None, ["--bogus", "roots", "A2"]),
    (None, ["roots", "A80"]),
    (None, ["verify", "main-theorem", "--group", "A13"]),
    (None, ["roots", "affine:Z2"]),
    (None, ["length", "A0", "1,0"]),
    (None, ["orbit", "A13", "1,0", "0,1"]),
    (None, ["check-qc", "E9", "1,0:0", "0,1:0", "1,1:1"]),
    (None, ["connect", "affine:", "1,0:0;0,1:0", "1,1:0;1,0:0"]),
    (None, ["factorize", "affine:A2", "1,0:0", "--length", "1.5"]),
    (None, ["connect", "A2", "1,0:3;0,1", "1,1;1,0"]),
], ids=["node-limit-not-int", "node-limit-negative", "factorize-negative-K",
        "factorize-negative-length", "check-qc-negative-K", "fiber-negative-K",
        "verify-unknown-group", "verify-zero-samples", "orbit-negative-depth",
        "connect-negative-depth", "unknown-group-option",
        "unknown-group-option-before-command", "rank-above-cap",
        "verify-rank-above-cap", "unknown-family", "rank-zero", "orbit-rank-above-cap",
        "no-E9", "affine-without-type", "factorize-non-integer-length",
        "connect-finite-with-levels"])
def test_bad_input_is_a_usage_error(runner, monkeypatch, node_limit, args):
    if node_limit is not None:
        monkeypatch.setenv("AFFHUR_NODE_LIMIT", node_limit)
    res = run(runner, *args)
    assert res.exit_code == 2
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in res.output


def test_help_and_version_still_work(runner):
    # with no arguments the help is printed; --help and --version exit 0
    bare = run(runner)
    assert bare.exit_code == 2 and "Commands:" in bare.output
    for flag in ("--help", "--version"):
        res = run(runner, flag)
        assert res.exit_code == 0 and res.output and not res.stderr
    assert "check-qc" in run(runner, "--help").output
    assert run(runner, "--version").output.startswith("affhur, version ")


def test_rank_cap_admits_rank_twelve():
    from affhur.rootsys import MAX_RANK, parse_type
    assert MAX_RANK == 12
    assert parse_type("A12").rank == 12


def test_verify_single_sample_connects_nothing_and_fails(runner):
    res = run(runner, "verify", "main-theorem", "--group", "A2", "--samples", "1")
    assert res.exit_code == 1
    assert "all checks passed" not in res.output


def test_verify_limit_hit_exits_3(runner, monkeypatch):
    # a pipeline stage out of its limits decides nothing: LIMIT, not FAIL
    monkeypatch.setattr(quasicox, "lr_normalize", lambda *args: None)
    res = run(runner, "verify", "main-theorem", "--group", "A2", "--samples", "2")
    assert res.exit_code == 3
    assert "[main-theorem] LIMIT connect-all-pairs-A2" in res.output
    assert "PipelineExhausted" in res.output
    assert "FAIL" not in res.output and "all checks passed" not in res.output
    res = run(runner, "verify", "main-theorem", "--group", "A2", "--samples", "2",
              "--format", "json")
    assert res.exit_code == 3
    data = json.loads(res.output)
    assert data["ok"] is False
    limited = [c for c in data["checks"] if c.get("limit")]
    assert [c["name"] for c in limited] == ["connect-all-pairs-A2"]
    assert not limited[0]["ok"]


def test_verify_orbit_limit_hit_exits_3(runner, monkeypatch):
    # an orbit cut at its node limit decides nothing either; A2's
    # stage-2 orbit has 8 tuples
    stage2 = verify.suite_main_theorem(groups=("A2",), samples=2,
                                       node_limit=5)[0]
    assert stage2.name == "stage2-orbit-exhausted-A2"
    assert stage2.limit and not stage2.ok
    assert "PipelineExhausted" in stage2.detail
    assert verify.suite_main_theorem(groups=("A2",), samples=2,
                                     node_limit=8)[0].ok
    monkeypatch.setenv("AFFHUR_NODE_LIMIT", "5")
    res = run(runner, "verify", "main-theorem", "--group", "A2")
    assert res.exit_code == 3
    assert "[main-theorem] LIMIT stage2-orbit-exhausted-A2" in res.output
    assert "FAIL" not in res.output


def test_verify_node_limit_reaches_connect(runner, monkeypatch):
    # the limit also bounds connect_reduced's searches in connect-all-pairs
    seen = []
    connect_reduced = verify.connect_reduced

    def spy(*args, **kwargs):
        seen.append(kwargs["node_limit"])
        return connect_reduced(*args, **kwargs)

    monkeypatch.setattr(verify, "connect_reduced", spy)
    monkeypatch.setenv("AFFHUR_NODE_LIMIT", "777")
    res = run(runner, "verify", "main-theorem", "--group", "A2", "--samples", "3")
    assert res.exit_code == 0, res.output
    assert seen == [777] * 3


def test_verify_stage2_counts_the_generating_sequences(runner):
    # the A2 Coxeter element's projection has 8 generating root sequences
    res = run(runner, "verify", "main-theorem", "--group", "A2", "--samples", "2")
    assert res.exit_code == 0, res.output
    assert ("[main-theorem] PASS stage2-orbit-exhausted-A2" in res.output
            and "finite orbit of size 8 exhausted; it is all 8 generating"
            in res.output)


def decoded_generating_count(rs, target, m):
    """Reference for the stage-2 count: every root sequence decoded to its
    roots, each asked of `generates_w0`."""
    return sum(1 for roots, _ in root_sequences(rs, target, m)
               if generates_w0(rs, roots))


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "B3", "C3", "D4"])
def test_stage2_count_on_codes_matches_the_decoded_count(name):
    rs = parse_type(name)
    target = product_of_reflections(rs, simple_system_affine(rs)).finite
    m = rs.rank + 1
    expected = decoded_generating_count(rs, target, m)
    assert expected > 0
    assert verify._generating_sequence_count(rs, target, m) == expected


def test_verify_stage2_fails_on_a_wrong_count(runner, monkeypatch):
    real = verify._generating_sequence_count
    monkeypatch.setattr(verify, "_generating_sequence_count",
                        lambda *args: real(*args) + 1)
    res = run(runner, "verify", "main-theorem", "--group", "A2", "--samples", "2")
    assert res.exit_code == 1
    assert "[main-theorem] FAIL stage2-orbit-exhausted-A2" in res.output
    assert "finite orbit of size 8, but 9 generating" in res.output
    assert "[main-theorem] PASS connect-all-pairs-A2" in res.output


def test_verify_limit_hit_with_a_failure_exits_1(runner, monkeypatch):
    monkeypatch.setattr(quasicox, "lr_normalize", lambda *args: None)

    def failing(rs, node_limit):
        raise verify.CheckFailed("made to fail")

    monkeypatch.setattr(verify, "_check_stage2_orbit_exhausted", failing)
    res = run(runner, "verify", "main-theorem", "--group", "A2", "--samples", "2")
    assert res.exit_code == 1
    assert "[main-theorem] FAIL stage2-orbit-exhausted-A2" in res.output
    assert "[main-theorem] LIMIT connect-all-pairs-A2" in res.output
    assert "FAILURES present" in res.output


# a check made to fail, run with assertions stripped
_FAILING_VERIFY_UNDER_O = """
import sys
if not sys.flags.optimize:
    sys.exit(99)
from affhur import verify
verify.absolute_length_affine = lambda rs, w: 3
from affhur.cli import main
main(["verify", "example-a2"])
"""


def test_verify_fails_under_python_O():
    src = os.path.dirname(os.path.dirname(os.path.abspath(affhur.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-O", "-c", _FAILING_VERIFY_UNDER_O],
                         capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 1, res.stdout + res.stderr
    assert "[example-a2] FAIL a2-absolute-length" in res.stdout
    assert "absolute length 3 != 4" in res.stdout
    assert "FAILURES present" in res.stdout


# ------------------------------------------------- property: bad input

A2_POSITIVE = ("1,0", "0,1", "1,1")


def _is_int(s):
    try:
        int(s)
    except ValueError:
        return False
    return True


_not_int = st.text(alphabet=" 0123456789,:;.+-_xe", max_size=6).filter(
    lambda s: not _is_int(s))
_root_coords = st.lists(st.integers(-3, 3), max_size=4).map(
    lambda cs: ",".join(map(str, cs)))
# every literal here fails to parse as a reflection of A2: wrong number of
# coordinates, not a root, not integers, or a level that is not an integer
_bad_literal = st.one_of(
    _root_coords.filter(lambda s: s.count(",") != 1),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    .filter(lambda c: c not in {(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)})
    .map(lambda c: f"{c[0]},{c[1]}"),
    st.tuples(st.sampled_from(A2_POSITIVE), _not_int).map(":".join),
    _not_int.filter(lambda s: "," not in s),
)
_good_literal = st.tuples(st.sampled_from(A2_POSITIVE), st.integers(-2, 2)).map(
    lambda t: f"{t[0]}:{t[1]}")
_negative = st.integers(max_value=-1).map(str)
_bad_bound = st.one_of(_negative, _not_int)
_env_text = st.text(st.characters(blacklist_categories=("Cs",),
                                  blacklist_characters="\x00"), max_size=6)
# AFFHUR_NODE_LIMIT: not a non-negative integer, or too small for the
# three tuples of the orbit and for a connecting word
_bad_node_limit = st.one_of(_env_text.filter(lambda s: not _is_int(s)),
                            _negative, st.integers(0, 2).map(str))


BAD_GROUPS = ("affine:Z2", "A0", "A13", "E9", "affine:")
# one well-formed invocation of each command that takes a group, with the
# group left out
_GROUP_COMMANDS = (
    ["roots"], ["length", "1,0:0"], ["check-qc", *WORD, "-K", "1"],
    ["factorize", "1,0:0", "1,1:1", "-K", "1"], ["orbit", "1,0", "0,1"],
    ["connect", "1,0;0,1", "1,1;1,0"], ["fiber", "1,0:0", "1,1:1", "1,1:0", "-K", "1"],
)


@st.composite
def bad_invocations(draw):
    """(argv, AFFHUR_NODE_LIMIT or None, whether it must exit 2), each with
    at least one defect."""
    kind = draw(st.sampled_from(["literal", "tuple-length", "bound", "node-limit",
                                 "group", "length"]))
    if kind == "group":
        command, *args = draw(st.sampled_from(_GROUP_COMMANDS))
        return [command, draw(st.sampled_from(BAD_GROUPS)), *args], None, True
    if kind == "length":
        return (["factorize", "affine:A2", "1,0:0", "1,1:1", "-K", "1",
                 "--length", draw(_bad_bound)], None, True)
    if kind == "literal":
        command = draw(st.sampled_from(["length", "check-qc", "factorize",
                                        "orbit", "fiber"]))
        refs = draw(st.lists(_good_literal, max_size=3))
        refs.insert(draw(st.integers(0, len(refs))), draw(_bad_literal))
        bound = [] if command in ("length", "orbit") else ["-K", "1"]
        return [command, "affine:A2", *refs, *bound], None, False
    if kind == "tuple-length":
        refs = draw(st.lists(_good_literal, min_size=1, max_size=5))
        if len(refs) != 3 and draw(st.booleans()):
            return ["fiber", "affine:A2", *refs, "-K", "1"], None, False
        other = draw(st.lists(_good_literal, min_size=1, max_size=5)
                     .filter(lambda r: len(r) != len(refs)))
        return ["connect", "affine:A2", ";".join(refs), ";".join(other)], None, False
    if kind == "bound":
        value = draw(_bad_bound)
        argv = draw(st.sampled_from([
            ["check-qc", "affine:A2", "1,0:0", "0,1:0", "1,1:1", "-K"],
            ["factorize", "affine:A2", "1,0:0", "1,1:1", "-K"],
            ["fiber", "affine:A2", "1,0:0", "1,1:1", "1,1:0", "-K"],
            ["orbit", "A2", "1,0", "0,1", "--depth"],
            ["connect", "A2", "1,0;0,1", "1,1;1,0", "--depth"],
        ]))
        return [*argv, value], None, False
    argv = draw(st.sampled_from([["orbit", "A2", "1,0", "0,1"],
                                 ["connect", "A2", "1,0;0,1", "1,1;1,0"]]))
    return argv, draw(_bad_node_limit), False


@settings(max_examples=150, deadline=None)
@given(bad_invocations(), st.sampled_from(["text", "json"]))
def test_bad_input_never_crashes(invocation, fmt):
    # levels stay within -K 1, so no enumeration runs long
    argv, node_limit, usage = invocation
    env = {"AFFHUR_NODE_LIMIT": node_limit}
    res = Runner().invoke(main, [*argv, "--format", fmt], env=env)
    assert res.exit_code in ((2,) if usage else (2, 3)), (argv, node_limit, res.output)
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
    lines = res.stderr.splitlines()
    if res.exit_code == 2:
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    else:
        assert not lines

import json
import os
import subprocess
import sys

import pytest
from click.testing import CliRunner

import affhur
from affhur import hurwitz, quasicox, verify
from affhur.cli import main

WORD = ["1,0:0", "0,1:0", "1,1:1"]
THOMAS = WORD + WORD  # the length-4 pure translation of the worked example


@pytest.fixture()
def runner():
    return CliRunner()


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


def test_check_qc_usage_errors(runner):
    assert run(runner, "check-qc", "A2", "1,0:0").exit_code == 2
    assert run(runner, "check-qc", "affine:A2", "9,9:0").exit_code == 2


def test_check_qc_short_element_conclusive(runner):
    res = run(runner, "check-qc", "affine:A2", "1,0:0", "--format", "json")
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["verdict"] is False and data["conclusive"] is True
    assert data["absolute_length"] == 1


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
], ids=["node-limit-not-int", "node-limit-negative", "factorize-negative-K",
        "factorize-negative-length", "check-qc-negative-K", "fiber-negative-K",
        "verify-unknown-group", "verify-zero-samples", "orbit-negative-depth",
        "connect-negative-depth"])
def test_bad_input_is_a_usage_error(runner, monkeypatch, node_limit, args):
    if node_limit is not None:
        monkeypatch.setenv("AFFHUR_NODE_LIMIT", node_limit)
    res = run(runner, *args)
    assert res.exit_code == 2
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in res.output


def test_verify_single_sample_connects_nothing_and_fails(runner):
    res = run(runner, "verify", "main-theorem", "--group", "A2", "--samples", "1")
    assert res.exit_code == 1
    assert "all checks passed" not in res.output


def test_verify_limit_hit_exits_3(runner, monkeypatch):
    # a pipeline stage out of its limits decides nothing: LIMIT, not FAIL
    monkeypatch.setattr(quasicox, "normalize_codes", lambda *args: None)
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
    # an orbit cut at its node limit decides nothing either
    monkeypatch.setattr(verify, "orbit",
                        lambda t: hurwitz.orbit(t, node_limit=5))
    stage2 = verify.suite_main_theorem(groups=("A2",), samples=2)[0]
    assert stage2.name == "stage2-orbit-exhausted-A2"
    assert stage2.limit and not stage2.ok
    assert "PipelineExhausted" in stage2.detail
    res = run(runner, "verify", "main-theorem", "--group", "A2", "--samples", "2")
    assert res.exit_code == 3
    assert "[main-theorem] LIMIT stage2-orbit-exhausted-A2" in res.output
    assert "FAIL" not in res.output


def test_verify_limit_hit_with_a_failure_exits_1(runner, monkeypatch):
    monkeypatch.setattr(quasicox, "normalize_codes", lambda *args: None)

    def failing(rs):
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

"""Golden outputs of the CLI: stdout and exit code of fixed invocations,
compared byte for byte with `cli_golden.json`.

Each invocation runs as `python -m affhur.cli` in a fresh interpreter.
The `seconds` a verification check took is the one field that differs
from run to run; it is blanked on both sides before the comparison.
Usage errors are recorded by exit code alone: their stdout is empty and
only the stderr message, whose wording may change, says more.

To record the file from the sources on PYTHONPATH:

    PYTHONPATH=src python tests/test_cli_golden.py record
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import affhur

GOLDEN = Path(__file__).with_name("cli_golden.json")
WORD = ["1,0:0", "0,1:0", "1,1:1"]
THOMAS = WORD + WORD

# (argv, AFFHUR_NODE_LIMIT or None); each runs once per format
INVOCATIONS = [
    (["roots", "A2"], None),
    (["roots", "G2"], None),
    (["length", "affine:A2", *THOMAS], None),
    (["length", "A2", "1,0", "0,1"], None),
    (["check-qc", "affine:A2", *WORD], None),
    (["check-qc", "affine:A2", *THOMAS], None),
    (["check-qc", "affine:B2", "1,0:0", "0,1:0", "1,2:1"], None),
    (["factorize", "affine:A2", *WORD], None),
    (["factorize", "affine:A2", *THOMAS, "-K", "1"], None),
    (["orbit", "A2", "1,0", "0,1"], None),
    (["orbit", "affine:A2", "1,0:0", "1,0:1"], "10"),
    (["fiber", "affine:A2", "1,0:0", "1,1:1", "1,1:0", "-K", "2"], None),
    (["connect", "A2", "1,0;1,0;0,1;0,1", "0,1;0,1;1,0;1,0"], None),
    (["connect", "affine:A2", "1,0:0;0,1:0;1,1:1", "0,1:0;1,1:-2;1,1:-1"], None),
    (["connect", "B3", "0,0,1;0,1,0;1,1,1", "0,1,0;1,0,0;1,2,2"], None),
    (["connect", "B3", "0,0,1;0,1,0;1,1,1", "0,1,0;1,0,0;1,2,2"], "10"),
    (["verify", "lemmas", "--group", "A1"], None),
]
FORMATS = ("text", "json")
VERSION = (["--version"], None)
USAGE_ERRORS = [
    (["roots", "H3"], None),
    (["--bogus"], None),
    (["check-qc", "A2", "1,0:0"], None),
    (["factorize", "affine:A2", "1,0:0", "--length", "1.5"], None),
]


def cases():
    """(key, argv, AFFHUR_NODE_LIMIT or None, whether stdout is recorded)."""
    out = []
    for argv, limit in INVOCATIONS:
        for fmt in FORMATS:
            out.append((argv + ["--format", fmt], limit, True))
    out.append((*VERSION, True))
    out += [(argv, limit, False) for argv, limit in USAGE_ERRORS]
    return [(" ".join(argv) + (f" [AFFHUR_NODE_LIMIT={limit}]" if limit else ""),
             argv, limit, keep) for argv, limit, keep in out]


_SECONDS = (re.compile(r'"seconds": [0-9.e-]+'), re.compile(r"\(\d+\.\d\ds\)"))


def blank_seconds(stdout: str) -> str:
    stdout = _SECONDS[0].sub('"seconds": _', stdout)
    return _SECONDS[1].sub("(_s)", stdout)


def run_cli(argv, limit, src):
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("AFFHUR_NODE_LIMIT", None)
    if limit is not None:
        env["AFFHUR_NODE_LIMIT"] = limit
    res = subprocess.run([sys.executable, "-m", "affhur.cli", *argv],
                         capture_output=True, text=True, env=env, timeout=120)
    return res.returncode, blank_seconds(res.stdout)


def record(src: str) -> dict:
    golden = {}
    for key, argv, limit, keep in cases():
        code, stdout = run_cli(argv, limit, src)
        golden[key] = {"exit_code": code, "stdout": stdout if keep else None}
    return golden


SRC = str(Path(affhur.__file__).resolve().parent.parent)


@pytest.mark.parametrize("key,argv,limit,keep", cases(), ids=[c[0] for c in cases()])
def test_cli_output_matches_the_golden_file(key, argv, limit, keep):
    expected = json.loads(GOLDEN.read_text())[key]
    code, stdout = run_cli(argv, limit, SRC)
    assert code == expected["exit_code"]
    if keep:
        assert stdout == expected["stdout"]


def test_golden_file_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(c[0] for c in cases())


if __name__ == "__main__" and sys.argv[1:] == ["record"]:
    GOLDEN.write_text(json.dumps(record(os.environ["PYTHONPATH"]), indent=1,
                                 sort_keys=True) + "\n")

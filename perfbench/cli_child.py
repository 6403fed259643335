"""Run one affhur CLI command under the tracer.

    PERFBENCH_TRACE_FILE=out.json python3 perfbench/cli_child.py <affhur args>

The command's output goes to stdout as usual; the tracer's counters and
spans go to the file, and the exit code is the command's.
"""

import json
import os
import sys

import affhur.cli

from tracing import Tracer

tracer = Tracer()
tracer.install()
try:
    affhur.cli.main(sys.argv[1:], prog_name="affhur")
    code = 0
except SystemExit as exc:
    code = exc.code if isinstance(exc.code, int) else 1
finally:
    tracer.uninstall()
with open(os.environ["PERFBENCH_TRACE_FILE"], "w") as fh:
    json.dump(tracer.state(), fh)
sys.exit(code)

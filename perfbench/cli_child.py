"""`ptslab ARGV` with tracing installed, for the traced cli-session run.

Writes the process's spans and per-name summary into the directory named
by PERFBENCH_CHILD_TRACE when it exits, however it exits.
"""

import json
import os
import sys
from pathlib import Path

import ptslab  # noqa: F401
from tracer import Tracer

tracer = Tracer()
tracer.install()

from ptslab.cli import main  # noqa: E402

out = Path(os.environ["PERFBENCH_CHILD_TRACE"]) / f"child-{os.getpid()}"
try:
    code = main()
finally:
    tracer.dump(out.with_suffix(".bin"))
    out.with_suffix(".json").write_text(json.dumps(tracer.summary()))
sys.exit(code)

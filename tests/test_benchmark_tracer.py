"""The benchmark's span tracer must still bind every function it wraps.

`perfbench/tracer.py` wraps its targets by module and name; renaming or
unbinding one of them would otherwise surface only in a `--trace 1` run.
The tracer rebinds module attributes, so it is installed in a child
interpreter, which writes no bytecode into `perfbench/`.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from tracer import TARGETS, Tracer
tracer = Tracer()
tracer.install()
from ptslab import models, parse_base, parse_formula
holds = models(parse_base("-> a\\n"), (), parse_formula("a | ~a"))
print(json.dumps({"holds": holds, "targets": len(TARGETS), **tracer.summary()}))
"""


def test_tracer_binds_every_target():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT / "perfbench")],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    assert out["holds"] and out["targets"] == 23
    # one traced models call, which reads the base's closure once
    assert out["base_semantics.models.calls"] == 1
    assert out["atomic_base.atomic_closure.calls"] == 1
    assert out["formula.parse_formula.calls"] == 1

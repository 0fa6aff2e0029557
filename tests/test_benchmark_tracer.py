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

INSTALL = """
import json, sys
sys.path.insert(0, sys.argv[1])
from tracer import TARGETS, Tracer
tracer = Tracer()
tracer.install()
"""

CHILD = INSTALL + """
from ptslab import models, parse_base, parse_formula
holds = models(parse_base("-> a\\n"), (), parse_formula("a | ~a"))
print(json.dumps({"holds": holds, "targets": len(TARGETS), **tracer.summary()}))
"""

SEARCH_CHILD = INSTALL + """
import ptslab
from ptslab import Atom, parse_formula
atoms = [Atom("a"), Atom("b")]
found = [
    search(*args)
    for search in (ptslab.search_counterexample, ptslab.base_semantics.search_counterexample)
    for args in (((), parse_formula("a | ~a"), atoms, 2), ((), parse_formula("a -> b"), atoms, 2))
]
print(json.dumps({"found": [f and f.id for f in found], **tracer.summary()}))
"""


def _traced(code: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "perfbench")],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_tracer_binds_every_target():
    out = _traced(CHILD)
    assert out["holds"] and out["targets"] == 23
    # one traced models call, which reads the base's closure once
    assert out["base_semantics.models.calls"] == 1
    assert out["atomic_base.atomic_closure.calls"] == 1
    assert out["formula.parse_formula.calls"] == 1


def test_search_counterexample_is_one_object_at_every_binding():
    # it lives in base_semantics; the tracer's ("cli", "search_counterexample")
    # target and tools/differential.py find it through the cli re-export and
    # rebind every binding of that one object
    import ptslab
    import ptslab.base_semantics
    import ptslab.cli

    assert ptslab.search_counterexample is ptslab.cli.search_counterexample
    assert ptslab.cli.search_counterexample is ptslab.base_semantics.search_counterexample
    out = _traced(SEARCH_CHILD)
    assert out["found"] == [None, "{-> a}", None, "{-> a}"]
    assert out["cli.search_counterexample.calls"] == 4
    # the search reads closures on masks: no enumerated base, no models call
    assert out["atomic_base.enumerate_bases.calls"] == 0
    assert out["base_semantics.models.calls"] == 0

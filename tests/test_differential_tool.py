"""`tools/differential.py`, the record every change is compared by, must still run.

The tool is run in a child interpreter on this checkout's `src`, which writes
no bytecode into `perfbench/`. Its op and record counts, its line count and the
sha256 of its output are pinned: a change that keeps every verdict and its
details writes the same bytes, and a change of them is a change of the record
to be explained.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

from ptslab import validity

ROOT = Path(__file__).resolve().parent.parent


def test_the_differential_tool_records_every_op(tmp_path):
    out = tmp_path / "records.txt"
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "differential.py"), "--src", str(ROOT / "src"), "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    ops, records = done.stdout.splitlines()
    assert ops.endswith(", readers 688 ops")
    assert sum(int(part.split()[-2]) for part in ops.split(", ")) == 1203 + 688
    assert records == (
        "valid 7063 records, recheck_invalid 299 records, consequence 303 records, logical_consequence 567 records,"
        f" search_counterexample 192 records, is_schematic 50 records -> {out}"
    )
    lines = out.read_bytes().splitlines(keepends=True)
    assert len(lines) == 12151
    # the groups before `readers` write the same bytes as before it was added
    assert hashlib.sha256(b"".join(lines[:10139])).hexdigest() == (
        "843de55edad5354c529164e5351e0ccdfb37a33fa0bbb92b745b4ea6817af6c7"
    )
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "55889376855fd7c02b867934cc294425d1c5b654dfb1d6b856e2f1f646ad66cb"
    )
    # without it the witness group would synthesize afresh and compare the reference with itself
    assert callable(validity._Search.closed)

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


def _blocks(lines: list[str]) -> dict[str, list[str]]:
    """The lines after each `op` line up to the next, by op name."""
    out: dict[str, list[str]] = {}
    for line in lines:
        if line.startswith("op "):
            body = out[line[len("op "):]] = []
        else:
            body.append(line)
    return out


def test_the_differential_tool_records_every_op(tmp_path):
    out = tmp_path / "records.txt"
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "differential.py"), "--src", str(ROOT / "src"), "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    ops, records = done.stdout.splitlines()
    assert ops.endswith(
        ", readers 688 ops, partition 24 ops, atomic-derivations 34 ops, shared 137 ops, applications 75 ops"
    )
    assert sum(int(part.split()[-2]) for part in ops.split(", ")) == 1203 + 688 + 24 + 34 + 137 + 75
    assert records == (
        "valid 8296 records, recheck_invalid 316 records, consequence 422 records, logical_consequence 687 records,"
        f" search_counterexample 192 records, is_schematic 50 records -> {out}"
    )
    lines = out.read_bytes().splitlines(keepends=True)
    assert len(lines) == 36916
    # the groups before `readers`, then those before `partition`, each as they were when it was added
    # less the nested `valid` lines of the checks a class of bases shares, then those before `atomic-derivations`,
    # then those before `shared`, then those before the replayed detour-search ops, then those before `applications`
    assert hashlib.sha256(b"".join(lines[:5405])).hexdigest() == (
        "fbac5826b46e49f5c3848790eb90cd37d320ff5de33be4a7346ca3c0291d90be"
    )
    assert hashlib.sha256(b"".join(lines[:7417])).hexdigest() == (
        "21aa20f49277ad6b4509bec7b907705479a368645744502a4dbb7afe41c8c843"
    )
    assert hashlib.sha256(b"".join(lines[:13039])).hexdigest() == (
        "ef908e5764a33594088c267e4dacf9a19b75cf271f5d6fe1082047cac8b87a43"
    )
    assert hashlib.sha256(b"".join(lines[:13107])).hexdigest() == (
        "6ae8ac578bc25d7afe08afd46b9703b4359c5942e5286784882629c0256a38d5"
    )
    assert hashlib.sha256(b"".join(lines[:13755])).hexdigest() == (
        "ca333287cc52a7fe06cd2fcc1dcffe6f8d9ff5804e9bdc5212a9480eda3f4c43"
    )
    assert hashlib.sha256(b"".join(lines[:13870])).hexdigest() == (
        "bc79fd1c25031dc4ad0f3bbeaaaa668b83a05c6acc9e7b2157afeaab029c6093"
    )
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "24685e0f34e05458c65c454f34867cedf2d62f52100a409338c5f399336b4f4f"
    )
    # an op replayed in reverse order, on a search other calls filled, writes what it wrote first
    blocks = _blocks(out.read_text().splitlines())
    shared = {op[len("shared/"):]: body for op, body in blocks.items() if op.startswith("shared/")}
    pooled = {op for op in shared if f"pooled-family/11/{op}" in blocks}
    detour = {op for op in shared if f"detour-search/11/{op}" in blocks}
    assert len(pooled) == 96 and len(detour) == 41 and not pooled & detour
    assert all(blocks[f"pooled-family/11/{op}"] == shared[op] for op in pooled)
    assert all(blocks[f"detour-search/11/{op}"] == shared[op] for op in detour)
    # without it the witness group would synthesize afresh and compare the reference with itself
    assert callable(validity._Search.closed)

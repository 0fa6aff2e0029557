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
        ", readers 688 ops, partition 24 ops, atomic-derivations 34 ops, shared 137 ops, applications 75 ops,"
        " root-stable 6 ops, scan-warnings 40 ops"
    )
    assert sum(int(part.split()[-2]) for part in ops.split(", ")) == 1203 + 688 + 24 + 34 + 137 + 75 + 6 + 40
    assert records == (
        "valid 8305 records, recheck_invalid 319 records, consequence 422 records, logical_consequence 717 records,"
        f" search_counterexample 202 records, is_schematic 50 records -> {out}"
    )
    lines = out.read_bytes().splitlines(keepends=True)
    assert len(lines) == 37167
    # the groups before `readers`, then those before `partition`, each as they were when it was added
    # less the nested `valid` lines of the checks a class of bases shares, then those before `atomic-derivations`,
    # then those before `shared`, then those before the replayed detour-search ops, then those before `applications`,
    # then those before `root-stable`, then those before `scan-warnings`; each re-pinned when the canonical clause
    # rewrote the Invalid records of andI-rooted checks (the wide detours without x, the refuted group), and the last
    # two when the case analyses of `tests/genlib` became well formed (one `applications` line: a reduct, where a
    # contract error was)
    assert hashlib.sha256(b"".join(lines[:5405])).hexdigest() == (
        "fb9e8ec386dd3a50f8437f63ea792178d2bb4ef46d9d11e334d170f777a25a81"
    )
    assert hashlib.sha256(b"".join(lines[:7417])).hexdigest() == (
        "18933bcf207db9485259f29fd5ed0acfe427b84a2e5485dd049cd9e4d926dbff"
    )
    assert hashlib.sha256(b"".join(lines[:13039])).hexdigest() == (
        "39e5869f4e31f36a5cb9ff83e56da298fbd5fca9099b5616b6923c31f19f45c3"
    )
    assert hashlib.sha256(b"".join(lines[:13107])).hexdigest() == (
        "dbc566a470b048aa7c10ab9d5d47cc1126aa87ca1518b68957f10be59f9c83bd"
    )
    assert hashlib.sha256(b"".join(lines[:13755])).hexdigest() == (
        "1609f203439c4d4db9d6e3d2645046f6f24984b1f582fa2bbe3273859fbe14ce"
    )
    assert hashlib.sha256(b"".join(lines[:13870])).hexdigest() == (
        "d0e72b4b89e41327950e7fc1c23c0d06536a63f029940a1609cc22566841f4ff"
    )
    assert hashlib.sha256(b"".join(lines[:36916])).hexdigest() == (
        "2d3327268238d0aa2e79f33ab7e06a2150b067c14105ee4955a7b170ceebfca7"
    )
    assert hashlib.sha256(b"".join(lines[:36934])).hexdigest() == (
        "a8cdeb5845025f48c8e4e1612f717123d1b4e93d0c024a5e7ff8fa690d0ea537"
    )
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "bd0dc5753a91797857ed2434d078d13492dc4961ec05872de8461b2144f0eb36"
    )
    # an op replayed in reverse order, on a search other calls filled, writes what it wrote first
    blocks = _blocks(out.read_text().splitlines())
    shared = {op[len("shared/"):]: body for op, body in blocks.items() if op.startswith("shared/")}
    pooled = {op for op in shared if f"pooled-family/11/{op}" in blocks}
    detour = {op for op in shared if f"detour-search/11/{op}" in blocks}
    assert len(pooled) == 96 and len(detour) == 41 and not pooled & detour
    assert all(blocks[f"pooled-family/11/{op}"] == shared[op] for op in pooled)
    assert all(blocks[f"detour-search/11/{op}"] == shared[op] for op in detour)
    # the widest detour the stream's 2^12 reducts left Unknown at 10 steps falls with its first detour
    assert blocks["root-stable/12/without"][0].startswith("valid Verdict(status='invalid', reason='immediate substructure 1 ")
    assert blocks["root-stable/12/without"][-1] == "recheck_invalid True"
    # a family scanned as a list, a tuple or a generator gives one verdict and one run of warnings
    scans = {op: body for op, body in blocks.items() if op.startswith("scan-warnings/")}
    searches = [op for op in scans if op.endswith("/search")]
    assert len(searches) == 10 and all(len(scans[op]) == 1 for op in searches)  # a search warns of nothing
    for op in searches:
        first, *others = [scans[op.replace("/search", f"/{kind}")] for kind in ("list", "tuple", "generator")]
        assert all(other == first for other in others)
    assert sum(line.startswith("warning ") for body in scans.values() for line in body) == 3 * 51
    # without it the witness group would synthesize afresh and compare the reference with itself
    assert callable(validity._Search.closed)

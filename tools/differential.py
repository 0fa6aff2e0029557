"""Record every verdict the benchmark's search workloads produce, for a diff.

    python3 tools/differential.py --src PATH --out FILE

Imports ptslab from PATH (the directory that holds the `ptslab`
package, e.g. `src` of a checkout), builds the pooled-family and
detour-search workloads of this repository's `perfbench/workloads.py` at
seeds 0, 11 and 9001, runs every op once and writes one line per call of
`valid`, `recheck_invalid` and `consequence`: the function name and the
`repr` of its result. Calls made inside other calls are recorded too (the
`valid` calls of `consequence`), in the order they return.

Run it on two checkouts and compare the files with `cmp`: a change that
keeps every verdict and its details writes the same bytes.
"""

from __future__ import annotations

import argparse
import functools
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = ("pooled-family", "detour-search")
SEEDS = (0, 11, 9001)
RECORDED = ("valid", "recheck_invalid", "consequence")


def _record_calls(out) -> None:
    """Rebind each recorded function at every module binding inside ptslab."""
    import ptslab  # noqa: F401  (loads every module that binds a target)
    from ptslab import validity

    modules = [m for n, m in list(sys.modules.items()) if n == "ptslab" or n.startswith("ptslab.")]
    for name in RECORDED:
        original = getattr(validity, name)

        @functools.wraps(original)
        def recorded(*args, _fn=original, _name=name, **kwargs):
            result = _fn(*args, **kwargs)
            out.write(f"{_name} {result!r}\n")
            return result

        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, recorded)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True, help="directory holding the ptslab package")
    ap.add_argument("--out", required=True, help="file to write the records to")
    args = ap.parse_args()
    sys.path[:0] = [str(Path(args.src).resolve()), str(BENCH)]

    ops = 0
    with open(args.out, "w") as out, tempfile.TemporaryDirectory() as work:
        _record_calls(out)
        import workloads  # after the rebinding, so its imported names are recorded too

        for name in WORKLOADS:
            for seed in SEEDS:
                for op in workloads.build(name, seed, Path(work)):
                    out.write(f"op {name}/{seed}/{op.id}\n")
                    op.run()
                    ops += 1
    with open(args.out) as fh:
        records = sum(1 for line in fh if not line.startswith("op "))
    print(f"{ops} ops, {records} records -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

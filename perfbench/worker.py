"""One sweep of one workload, in the fresh interpreter it was started in.

    python3 perfbench/worker.py --workload NAME --seed N --mode sweep|setup|traced \
        --t0 NS --kernel0 NS

`--t0` is the launcher's `time.monotonic_ns()` just before it started this
process, so `setup_s` covers interpreter start, `import ptslab` and input
generation; `--kernel0` is the speed kernel's time measured just before
that. In `sweep` and `traced` modes the ops then run one after the other,
each timed on its own while speed.Sampler samples the speed kernel, and
afterwards (untimed) every observation is checked against its known
answer. Prints one JSON object; times are given both as wall times and
rescaled to the reference speed (see speed.py).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

import ptslab  # noqa: F401  (imported first: part of set-up, as for a user)
import speed

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("sweep", "setup", "traced"), required=True)
    ap.add_argument("--t0", type=int, required=True)
    ap.add_argument("--kernel0", type=int, required=True)
    ap.add_argument("--tag", default="0", help="distinguishes the spans files of one run")
    args = ap.parse_args()

    tracer = None
    child_dir = None
    if args.mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        if args.workload == "cli-session":
            child_dir = OUT / f"children-{args.tag}"
            shutil.rmtree(child_dir, ignore_errors=True)
            child_dir.mkdir(parents=True)
            os.environ["PERFBENCH_CHILD_TRACE"] = str(child_dir)

    import workloads

    workdir = OUT / f"work-{os.getpid()}"
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        setup_ns = time.monotonic_ns() - args.t0
        result = {
            "setup_s": setup_ns / 1e9,
            "setup_ref_s": speed.to_reference(setup_ns, args.kernel0, speed.kernel_ns()) / 1e9,
        }
        if args.mode != "setup":
            result.update(_sweep(args, ops, tracer))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{args.workload}-{args.tag}.bin")
        summary = tracer.summary()
        if child_dir is not None:
            for path in sorted(child_dir.glob("*.json")):
                for k, v in json.loads(path.read_text()).items():
                    summary[k] = summary.get(k, 0) + v
        result["trace"] = summary
    print(json.dumps(result))
    return 0


def _sweep(args, ops, tracer) -> dict:
    import workloads

    observed = []
    timings = []
    key_calls = []
    key_id = tracer.name_id("argument.canonical_key") if tracer else None
    op_id = tracer.name_id("op") if tracer else None
    sampler = speed.Sampler()
    for op in ops:
        frame = tracer.open(op_id) if tracer else None
        before = tracer.calls[key_id] if tracer else 0
        outcome, *timing = sampler.time_call(op.run)
        if tracer:
            tracer.close(frame)
            key_calls.append(tracer.calls[key_id] - before)
        timings.append(timing)
        if isinstance(outcome, Exception):  # an op that raises is a failed op
            observed.append((None, f"raised {type(outcome).__name__}: {outcome}"))
        else:
            observed.append((outcome, None))
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-session" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024

    known = workloads.KNOWN_DEFECTS.get(args.workload, ())
    failures = []
    decided = 0
    for op, (obs, err) in zip(ops, observed):
        problem = err
        if problem is None:
            try:
                problem = op.check(obs)
                decided += bool(op.decided(obs))
            except Exception as e:  # a malformed observation fails the op
                problem = f"unexpected result {obs!r}: {type(e).__name__}: {e}"
        if problem is not None:
            failures.append({"id": op.id, "problem": problem, "known": op.id in known})
    if args.workload == "semantics-sweep":
        problem = workloads.check_family_sizes()
        if problem is not None:
            failures.append({"id": "family-sizes", "problem": problem, "known": False})

    op_ref_ns = [sampler.reference_ns(*t) for t in timings]
    return {
        "sweep_s": sum(wall for _, _, wall in timings) / 1e9,
        "sweep_ref_s": sum(op_ref_ns) / 1e9,
        "speed": sampler.speed(),
        "op_ids": [op.id for op in ops],
        "op_ref_ms": [ns / 1e6 for ns in op_ref_ns],
        "growth_sizes": [op.growth_size for op in ops],
        "commands": [op.command for op in ops],
        "key_calls": key_calls,
        "attempted": len(ops),
        "decided": decided,
        "failures": failures,
        "peak_rss_mb": peak_rss_mb,
    }


if __name__ == "__main__":
    sys.exit(main())

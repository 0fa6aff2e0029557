"""The ptslab benchmark: time to a verdict, as a user waits for it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; ptslab is imported from `src/`. Workloads
(see workloads.py for why each exists): pooled-family, detour-search,
semantics-sweep, cli-session. The seed generates the inputs; ptslab only
sees the generated inputs. Seed 9001 is held out: leave it alone while a
change is written, and use it to confirm the change's claim.

Each sweep runs the workload's whole op list once, in a fresh interpreter
(so the `_closure` cache and import state never carry over), with one
client in a closed loop: the next op starts when the previous one has
returned. Ops get no untimed warm-up, because a user pays those costs once
per session. A run repeats sweeps until the next one would end past
`--seconds` (at least MIN_SWEEPS of them), and times set-up in at least
SETUP_SAMPLES fresh interpreters.

All times are reported at a reference speed: wall time rescaled by a fixed
Python kernel measured around each op (speed.py), because the speed of a
shared host drifts far more than any regression bound. The report line
gives the wall sweep time and the host's speed next to them.

--trace 0 prints the end-to-end metrics:
  sweep_s          time for the whole op list
  verdict_p50_ms   median time of one op (a whole process on cli-session)
  verdict_tail_ms  the op time at the highest percentile that leaves at
                   least ten of the run's guaranteed samples beyond it
Each op's time is its median over the run's sweeps.
  decided_share    ops ending valid/invalid (0/1 on cli-session) over ops attempted
  correct_share    ops that gave their known answer over ops attempted,
                   i.e. 1 - failed_share; reported this way so it is never 0
  setup_s          median time from interpreter start through `import ptslab`
                   to the end of input generation and parsing
  peak_rss_mb      median over sweeps of the sweep's peak resident memory
                   (of the CLI child processes on cli-session)

--trace 1 makes one untraced and two traced sweeps and prints per-layer
metrics: calls and self time of each traced function, result counters,
growth of delta-star with family size, CLI process costs and the tracing
overhead. Counts must agree exactly between the two traced sweeps. Spans
are written to .perfbench-out/.

The last line of output is one JSON object: correct, attempted, failed,
metrics. A wrong answer, other than from an op listed as a known defect
in workloads.KNOWN_DEFECTS, makes `correct` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
from tracer import TARGETS, VARIANTS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

MIN_SWEEPS = {"pooled-family": 4, "detour-search": 3, "semantics-sweep": 5, "cli-session": 6}
SETUP_SAMPLES = 9
IMPORT_SAMPLES = 5
WORKER_TIMEOUT_S = 150
CLI_COMMANDS = ("derive", "models", "search", "consequence", "reduce", "valid", "demo")
GROWTH_VARIANT = "delta-star"
# counters that must repeat exactly between traced sweeps
EXACT_SUFFIXES = (".calls", ".hits", ".reducts", ".reached", ".bound_hits", ".bases")


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env.pop("PERFBENCH_CHILD_TRACE", None)
    return env


def _spawn(workload: str, seed: int, mode: str, tag: str = "0") -> dict:
    kernel0 = speed.kernel_ns()
    t0 = time.monotonic_ns()
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
        "--mode", mode, "--tag", tag, "--t0", str(t0), "--kernel0", str(kernel0),
    ]
    # its own process group, so a worker that overruns is stopped with its children
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{mode} worker for {workload} ran past {WORKER_TIMEOUT_S} s") from None
    wall_s = (time.monotonic_ns() - t0) / 1e9
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker for {workload} exited {proc.returncode}: {stderr.strip()}")
    out = json.loads(lines[-1])
    out["wall_s"] = wall_s
    return out


def _nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def _slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log y against log x."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len(pts) < 2:
        return 0.0
    mx = statistics.fmean(p[0] for p in pts)
    my = statistics.fmean(p[1] for p in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sum((x - mx) ** 2 for x, _ in pts)


def _growth(sweep: dict, values: list[float]) -> tuple[float, list[tuple[int, float]]]:
    """Slope over family size of the values of the growth series' ops."""
    points = sorted((n, v) for n, v in zip(sweep["growth_sizes"], values) if n)
    return _slope(points), points


def _unexpected(sweeps: list[dict]) -> list[dict]:
    return [f for s in sweeps for f in s["failures"] if not f["known"]]


def _tally(sweeps: list[dict]) -> tuple[int, int]:
    return sum(s["attempted"] for s in sweeps), sum(len(s["failures"]) for s in sweeps)


def measure(workload: str, seed: int, seconds: int) -> tuple[dict, list[str], list[dict]]:
    sweeps = []
    start = time.monotonic()
    while True:
        sweeps.append(_spawn(workload, seed, "sweep"))
        elapsed = time.monotonic() - start
        if len(sweeps) >= MIN_SWEEPS[workload] and elapsed + sweeps[-1]["wall_s"] > seconds:
            break
    setups = [s["setup_ref_s"] for s in sweeps]
    while len(setups) < SETUP_SAMPLES:
        setups.append(_spawn(workload, seed, "setup")["setup_ref_s"])

    if any(s["op_ids"] != sweeps[0]["op_ids"] for s in sweeps):
        raise BenchError("sweeps of one seed ran different op lists")
    # each op's time is its median over the run's sweeps, so one execution
    # caught by a burst of load on the host moves the figures little; the
    # percentiles count every execution, at its op's median time
    per_op = [statistics.median(col) for col in zip(*(s["op_ref_ms"] for s in sweeps))]
    op_ms = per_op * len(sweeps)
    guaranteed = MIN_SWEEPS[workload] * sweeps[0]["attempted"]
    pct = 100 * (guaranteed - 10) / guaranteed
    attempted, failed = _tally(sweeps)
    decided = sum(s["decided"] for s in sweeps)
    metrics = {
        "sweep_s": (sum(per_op) / 1e3, "s"),
        "verdict_p50_ms": (statistics.median(op_ms), "ms"),
        "verdict_tail_ms": (_nearest_rank(op_ms, pct), "ms"),
        "decided_share": (decided / attempted, "ratio"),
        "correct_share": ((attempted - failed) / attempted, "ratio"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(s["peak_rss_mb"] for s in sweeps), "MB"),
    }
    notes = [
        f"{len(sweeps)} sweep(s) of {sweeps[0]['attempted']} ops, {len(setups)} set-up samples",
        f"verdict_tail_ms is p{pct:.1f} over {len(op_ms)} op samples",
        f"failed_share {failed / attempted:.4f} ({failed} of {attempted})",
        f"wall sweep_s {statistics.median(s['sweep_s'] for s in sweeps):.3f} at "
        f"{statistics.median(s['speed'] for s in sweeps):.2f}x the reference speed",
    ]
    return metrics, notes, sweeps


def per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for module, qual, kinds in TARGETS:
        name = f"{module}.{qual}"
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
        out += [(f"{name}.{k}", "count") for k in kinds]
        if name == "validity.consequence":
            for v in VARIANTS:
                out += [(f"{name}.{v}.calls", "count"), (f"{name}.{v}.self_s", "s")]
            out += [(f"{name}.{GROWTH_VARIANT}.growth", "slope"),
                    (f"{name}.{GROWTH_VARIANT}.key_growth", "slope")]
    out.append(("cli.import_s", "s"))
    out += [(f"cli.process_s.{c}", "s") for c in CLI_COMMANDS]
    out.append(("trace.overhead_s", "s"))
    return out


def _import_s() -> float:
    """Median time of a bare `import ptslab` in a fresh interpreter."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        before = speed.kernel_ns()
        t0 = time.monotonic_ns()
        subprocess.run([sys.executable, "-c", "import ptslab"], cwd=ROOT, env=_env(), check=True,
                       timeout=WORKER_TIMEOUT_S)
        wall_ns = time.monotonic_ns() - t0
        samples.append(speed.to_reference(wall_ns, before, speed.kernel_ns()) / 1e9)
    return statistics.median(samples)


def trace(workload: str, seed: int) -> tuple[dict, list[str], list[dict]]:
    plain = _spawn(workload, seed, "sweep")
    traced = [_spawn(workload, seed, "traced", tag=str(i)) for i in (1, 2)]
    first, second = (t["trace"] for t in traced)
    drift = sorted(
        k for k in set(first) | set(second)
        if k.endswith(EXACT_SUFFIXES) and first.get(k) != second.get(k)
    )
    growth, time_points = _growth(plain, plain["op_ref_ms"])
    key_growth, key_points = _growth(traced[0], traced[0]["key_calls"])
    by_command: dict[str, list[float]] = {}
    for cmd, ms in zip(plain["commands"], plain["op_ref_ms"]):
        by_command.setdefault(cmd, []).append(ms / 1e3)

    values: dict[str, float] = {}
    for name, unit in per_layer_names():
        if name not in first:
            values[name] = 0
        elif unit == "s":
            # self times are wall times; rescale each sweep's by its speed
            values[name] = statistics.fmean(t["trace"][name] * t["speed"] for t in traced)
        else:
            values[name] = first[name]
    values[f"validity.consequence.{GROWTH_VARIANT}.growth"] = growth
    values[f"validity.consequence.{GROWTH_VARIANT}.key_growth"] = key_growth
    values["cli.import_s"] = _import_s()
    for c in CLI_COMMANDS:
        values[f"cli.process_s.{c}"] = statistics.median(by_command[c]) if c in by_command else 0
    values["trace.overhead_s"] = statistics.median(t["sweep_ref_s"] for t in traced) - plain["sweep_ref_s"]
    metrics = {name: (values[name], unit) for name, unit in per_layer_names()}

    notes = [f"one untraced and two traced sweeps of {plain['attempted']} ops"]
    if time_points:
        notes.append(f"{GROWTH_VARIANT} ms by family size: "
                     + ", ".join(f"{n}: {v:.1f}" for n, v in time_points))
        notes.append(f"{GROWTH_VARIANT} canonical_key calls by family size: "
                     + ", ".join(f"{n}: {int(v)}" for n, v in key_points))
    sweeps = [plain, *traced]
    if drift:
        notes.append("counts differ between the traced sweeps: " + ", ".join(drift))
        sweeps[-1]["failures"].append({"id": "trace-counts", "problem": "counts differ", "known": False})
    return metrics, notes, sweeps


def main() -> int:
    ap = argparse.ArgumentParser(description="ptslab benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(MIN_SWEEPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "ptslab" / "__init__.py").is_file():
        print(f"run.py: no ptslab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # the build: byte-compile once, so no timed interpreter compiles sources
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src/ptslab"], cwd=ROOT, check=True,
                   timeout=WORKER_TIMEOUT_S)
    try:
        if args.trace:
            metrics, notes, sweeps = trace(args.workload, args.seed)
        else:
            metrics, notes, sweeps = measure(args.workload, args.seed, args.seconds)
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1

    attempted, failed = _tally(sweeps)
    unexpected = _unexpected(sweeps)
    known = sorted({f["id"] for s in sweeps for f in s["failures"] if f["known"]})
    print(f"{args.workload} seed {args.seed} trace {args.trace}: " + "; ".join(notes))
    if known:
        print("known-defect ops that failed: " + ", ".join(known))
    for f in unexpected:
        print(f"WRONG {f['id']}: {f['problem']}", file=sys.stderr)
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not unexpected else 1


if __name__ == "__main__":
    sys.exit(main())

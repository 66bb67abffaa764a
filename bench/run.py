"""k3lat benchmark: cold-process workloads with checked outputs.

Run from the repository root:

    python3 bench/run.py --workload cusp_tables --seed 1 --seconds 5 --trace 0
    python3 bench/run.py --workload all --seed 1        # every workload, untraced and traced

Each measured iteration is a fresh interpreter (bench/worker.py), because
k3lat's module caches would turn a second run in one process into cache
hits; a user of ``k3lat verify`` pays the cold cost on every invocation.
Iterations repeat until ``--seconds`` have passed (at least one), and the
reported figure is the median over iterations.  Workloads, metrics and
bounds are defined in BENCHMARK.json.

``--trace 0`` reports the end-to-end metrics:

- ``setup_s``: process start until k3lat is imported and the inputs are
  ready; median over ten setup-only processes, half of them before and
  half after the iterations, and the iterations themselves.
- ``wall_rel``: wall time of the checked computation, cold caches, in
  units of a fixed stdlib reference slice timed in the same process every
  0.125 s (see ``SpeedClock`` in worker.py).  The machine's speed drifts by
  tens of percent between and within runs; the ratio cancels that drift.
- ``query_p50_rel``, ``query_tail_rel``: latency of the workload's units
  of work in the same units (a query of lattice_queries, a gluing of
  kulikov_glue, a suite of cusp_tables).  The tail is the highest
  percentile with at least ten samples beyond it (p95 of the 200
  queries); with fewer than 100 units it is the slowest unit.  The table
  workloads run their units in a fixed order here, because the units
  share module caches and a seeded order moved a unit's time by up to
  half between seeds.
- ``peak_rss_mb``: peak resident set size of the workload process.

The same times in seconds and milliseconds (``wall_s``, ``query_p50_ms``,
``query_tail_ms``) are printed and recorded, but carry no bound.

``--trace 1`` runs the workload once untraced and once traced
(bench/tracer.py) and reports the per-layer metrics, ``trace.overhead_s``
(traced minus untraced ``wall_s``) and ``trace.unattributed_s`` (traced
``wall_s`` outside every top-level traced call).  The traced process runs
the units of the table workloads in a seeded order.  The run checks that
both processes give the same outputs, so that neither tracing nor the
order changes a result, and that the self times plus that untraced
remainder account for the traced ``wall_s``.

The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it
give each metric with its unit and the run environment: Python version,
nproc, git revision, load average, steal ticks from /proc/stat and the
reference-slice times (count, median and range per process).  ``--out
FILE`` also writes the full record: workloads, seeds, reasons, metrics,
raw times, environment and, for a traced run, its spans.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
SETUP_PROBES = 10  # setup-only processes per untraced run
RUN_BUDGET_S = 175  # a run must end within 180 s
TAIL_BEYOND = 10  # samples beyond the tail percentile
# Layers the non-cusp workloads must not reach (checked in traced runs).
BYPASS_PREFIXES = ("cusps.", "lattice.glue_overlattice.")


class BenchError(RuntimeError):
    pass


def load_spec() -> Dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def spawn(workload: str, seed: int, deadline: float, *flags: str) -> Dict:
    """Run one worker process to completion and return its JSON record."""
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise BenchError("run budget exhausted")
    t0 = perf_counter()
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed), "--t0", repr(t0), *flags]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the run budget: {' '.join(cmd)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker failed with exit code {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(xs: List[float]) -> float:
    """Highest percentile with TAIL_BEYOND samples beyond it; the maximum
    when there are too few samples for a percentile above p90."""
    xs = sorted(xs)
    if len(xs) < 10 * TAIL_BEYOND:
        return xs[-1]
    return xs[len(xs) - TAIL_BEYOND - 1]


def read_steal() -> Optional[int]:
    try:
        with open("/proc/stat") as f:
            return int(f.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None


def git_revision() -> Optional[str]:
    """HEAD of the checkout's git repository, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> Dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_revision": git_revision(),
        "loadavg": os.getloadavg(),
        "steal_ticks": read_steal(),
    }


def run_untraced(workload: str, seed: int, seconds: int, smoke: bool, deadline: float) -> Dict:
    flags = ["--smoke"] if smoke else []

    def probe_setup(n: int) -> List[float]:
        return [spawn(workload, seed, deadline, "--setup-only", *flags)["setup_s"] for _ in range(n)]

    setups = probe_setup(SETUP_PROBES // 2)
    records: List[Dict] = []
    start = perf_counter()
    while not records or perf_counter() - start < seconds:
        last = records[-1]["wall_s"] if records else 0.0
        # leave room for the closing setup probes
        if records and perf_counter() + 1.5 * last + 10 > deadline:
            break
        records.append(spawn(workload, seed, deadline, *flags))
    setups += probe_setup(SETUP_PROBES - len(setups))
    med = statistics.median
    metrics = {
        "setup_s": med(setups + [r["setup_s"] for r in records]),
        "wall_rel": med(r["wall_rel"] for r in records),
        "query_p50_rel": med(med(r["unit_rel"]) for r in records),
        "query_tail_rel": med(tail(r["unit_rel"]) for r in records),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in records),
    }
    raw = {
        "wall_s": med(r["wall_s"] for r in records),
        "query_p50_ms": med(1000 * med(r["unit_s"]) for r in records),
        "query_tail_ms": med(1000 * tail(r["unit_s"]) for r in records),
    }
    return {"metrics": metrics, "raw": raw, "records": records, "setup_probes": setups, "problems": []}


def run_traced(workload: str, seed: int, smoke: bool, deadline: float) -> Dict:
    flags = ["--smoke"] if smoke else []
    plain = spawn(workload, seed, deadline, *flags)
    traced = spawn(workload, seed, deadline, "--trace", *flags)
    metrics = dict(traced["layers"])
    for suite in ("tab3", "tab4", "expl", "eis", "order4", "tschirnhausen", "semifan", "glue"):
        metrics[f"suites.{suite}.s"] = 0.0
    if workload == "cusp_tables":
        metrics.update({f"suites.{u}.s": s for u, s in zip(traced["units"], traced["unit_s"])})
    elif workload == "kulikov_glue":
        metrics["suites.glue.s"] = traced["wall_s"]
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    # the untraced remainder: traced wall time outside every top-level traced call
    metrics["trace.unattributed_s"] = traced["wall_s"] - traced["toplevel_s"]
    problems = []
    if traced["digest"] != plain["digest"]:
        problems.append("traced outputs differ from untraced outputs")
    if metrics["trace.unattributed_s"] < 0:
        problems.append("top-level traced calls last longer than the traced wall time")
    if abs(traced["attributed_s"] + metrics["trace.unattributed_s"] - traced["wall_s"]) > 1e-6 * traced["wall_s"]:
        problems.append("self times plus the untraced remainder do not account for the traced wall time")
    if workload != "cusp_tables":
        reached = [k for k, v in metrics.items() if k.startswith(BYPASS_PREFIXES) and k.endswith(".calls") and v]
        if reached:
            # not an output error: the workload no longer bypasses these layers
            print(f"warning: {workload} reached {', '.join(reached)}", file=sys.stderr)
    return {"metrics": metrics, "records": [plain, traced], "problems": problems, "spans": traced.pop("spans")}


def run_workload(spec: Dict, workload: str, seed: int, seconds: int, trace: bool, smoke: bool) -> Dict:
    deadline = perf_counter() + RUN_BUDGET_S
    env_start = environment()
    if trace:
        result = run_traced(workload, seed, smoke, deadline)
        wanted = spec["per_layer"]
    else:
        result = run_untraced(workload, seed, seconds, smoke, deadline)
        wanted = spec["end_to_end"]
    env_end = environment()
    records = result["records"]
    problems = result["problems"]
    problems += [f"{f[0]}: computed {f[2]}" for r in records for f in r["failures"]]
    if not all(r["oracle_rejects_wrong"] for r in records):
        problems.append("the query oracle accepted a deliberately wrong answer")
    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    steal = [env_start["steal_ticks"], env_end["steal_ticks"]]
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "smoke": smoke,
        "correct": not problems and all(r["failed"] == 0 for r in records),
        "attempted": sum(r["checks"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "checks_per_iteration": records[0]["checks"],
        "iterations": len(records),
        "problems": problems,
        "metrics": {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in wanted},
        "raw": result.get("raw", {}),
        "spans": result.get("spans"),
        "env": {
            **{k: env_start[k] for k in ("python", "nproc", "git_revision")},
            "loadavg": [env_start["loadavg"], env_end["loadavg"]],
            "steal_ticks": None if None in steal else steal[1] - steal[0],
            "ref_slices_s": [
                [len(r["ref_s"]), min(r["ref_s"]), statistics.median(r["ref_s"]), max(r["ref_s"])] for r in records
            ],
            "setup_probes_s": result.get("setup_probes"),
        },
    }


def describe(run: Dict) -> List[str]:
    lines = [
        f"workload {run['workload']} seed {run['seed']} trace {run['trace']}"
        f"{' smoke' if run['smoke'] else ''}: {run['iterations']} process(es),"
        f" {run['checks_per_iteration']} checks each, {run['failed']} failed"
        f" (fail_share {run['failed'] / max(run['attempted'], 1):.4f})"
    ]
    for name, m in run["metrics"].items():
        lines.append(f"  {name:<42} {m['value']:>14.6g} {m['unit']}")
    for name, value in run["raw"].items():
        unit = "s" if name.endswith("_s") else "ms"
        lines.append(f"  {name:<42} {value:>14.6g} {unit} (raw time, not bounded: machine speed drifts)")
    env = run["env"]
    ref = " ".join(f"{n}x{med * 1000:.2f}ms[{lo * 1000:.2f}-{hi * 1000:.2f}]" for n, lo, med, hi in env["ref_slices_s"])
    lines.append(
        f"  env python {env['python']} nproc {env['nproc']} rev {env['git_revision'] or 'unknown'}"
        f" load {env['loadavg'][0][0]:.2f}->{env['loadavg'][1][0]:.2f}"
        f" steal_ticks +{env['steal_ticks']} reference slices {ref}"
    )
    lines += [f"  problem: {p}" for p in run["problems"]]
    return lines


def main() -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="small inputs, for the benchmark's own tests")
    ap.add_argument("--out", type=Path, help="also write the full record as JSON")
    args = ap.parse_args()

    try:
        if args.workload == "all":
            runs = [
                run_workload(spec, w, args.seed, args.seconds, trace, args.smoke)
                for w in names
                for trace in (False, True)
            ]
        else:
            runs = [run_workload(spec, args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    for run in runs:
        print("\n".join(describe(run)))
    if args.out:
        why = {w["name"]: w["why"] for w in spec["workloads"]}
        args.out.write_text(json.dumps([{**r, "why": why[r["workload"]]} for r in runs], indent=2) + "\n")
    if len(runs) == 1:
        metrics = runs[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in runs for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

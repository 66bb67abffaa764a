"""Steadiness check: two sets of untraced runs of the same code, compared
against the bounds in BENCHMARK.json.

    python3 bench/steady.py --runs 10                  # every workload, two sets
    python3 bench/steady.py --runs 5 --sets 1 --workloads lattice_queries

Each run uses another seed, counting from 1.  For each workload and
end-to-end metric it prints the median of every set and the spread of
every set: the distance between the first and the third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  It
fails when a spread exceeds the metric's bound, or when a later set's
median differs from the first set's, in either direction, by more than
the bound.  A spread above a third of the bound is flagged as a warning.

The spread of ``setup_s`` is only warned about.  It is the one raw time
in seconds: set-up lasts about 0.2 s, too short to carry the reference
slices that steady the other timings, and the machine's speed drifts
between runs minutes apart by more than the largest bound allowed.  Its
median per set must still agree within the bound.  Runs are sequential: the workloads
are single-process and a second run at the same time would disturb the
first.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
UNBOUNDED_SPREAD = {"setup_s"}


def one_run(workload: str, seed: int) -> Dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{' '.join(cmd)} reported incorrect output:\n{proc.stdout[-3000:]}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values: List[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(spec: Dict, values: List[Dict[str, Dict[str, List[float]]]], workloads: List[str]):
    """Table rows, warnings and failures for ``values[set][workload][metric]``."""
    rows, warnings, failures = [], [], []
    for w in workloads:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            meds = [statistics.median(v[w][name]) for v in values]
            spreads = [spread(v[w][name]) for v in values]
            rows.append((w, name, meds, spreads, bound))
            for i, sp in enumerate(spreads):
                if sp > bound:
                    (warnings if name in UNBOUNDED_SPREAD else failures).append(
                        f"{w} {name}: spread {sp:.4f} of set {i + 1} exceeds bound {bound}"
                    )
                elif sp > bound / 3:
                    warnings.append(f"{w} {name}: spread {sp:.4f} of set {i + 1} above a third of bound {bound}")
            for i in range(1, len(meds)):
                moved = abs(meds[i] / meds[0] - 1)
                if moved > bound:
                    failures.append(f"{w} {name}: set {i + 1} median differs from set 1 by {moved:.4f} > {bound}")
    return rows, warnings, failures


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--out", type=Path, help="write every run's metrics as JSON")
    args = ap.parse_args()
    workloads = args.workloads.split(",")

    # values[set][workload][metric] -> one value per run
    values: List[Dict[str, Dict[str, List[float]]]] = []
    seed = 1
    for s in range(args.sets):
        per_set: Dict[str, Dict[str, List[float]]] = {w: {} for w in workloads}
        for _ in range(args.runs):
            for w in workloads:
                for k, v in one_run(w, seed).items():
                    per_set[w].setdefault(k, []).append(v)
            print(f"set {s + 1}: seed {seed} done", file=sys.stderr, flush=True)
            seed += 1
        values.append(per_set)
    if args.out:
        args.out.write_text(json.dumps(values, indent=1) + "\n")

    rows, warnings, failures = compare(spec, values, workloads)
    print(f"{'workload':<16} {'metric':<14} {'median per set':>30} {'spread per set':>22} {'bound':>6}")
    for w, name, meds, spreads, bound in rows:
        print(
            f"{w:<16} {name:<14} {' '.join(f'{x:>14.6g}' for x in meds):>30}"
            f" {' '.join(f'{x:>10.4f}' for x in spreads):>22} {bound:>6}"
        )
    for line in warnings:
        print(f"warning: {line}")
    for line in failures:
        print(f"FAIL: {line}")
    print("steady" if not failures else "not steady")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

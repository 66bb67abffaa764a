"""One cold run of one benchmark workload, in a fresh interpreter.

run.py starts this script once per measured iteration, so the module
caches of k3lat (``_NIEMEIER_CACHE``, ``_EMBED_CACHE``, ``_COMPONENTS``,
``_COMPONENT_CACHE``) start empty, as they do for a user of ``k3lat
verify``.  The last line of standard output is one JSON record.

    python3 bench/worker.py --workload cusp_tables --seed 1 --t0 <perf_counter at spawn>
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import resource
import signal
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Tuple

from queries import expected_answer, make_stream, mismatches, wrong_answers

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

Check = Tuple[str, bool, str]  # (id, passed, computed value)

# The suites of cusp_tables and the number of checks each records.
CUSP_SUITES = {
    "tab3": 32, "tab4": 10, "expl": 16, "eis": 16,
    "order4": 5, "tschirnhausen": 6, "semifan": 49,
}
SMOKE_SUITES = ("eis", "order4", "tschirnhausen")
GLUE_UNIT_CHECKS = 4  # shape, root type, star index, root split


class CuspTables:
    """The cusp and semifan tables: seven suites in one process.

    The suites share module caches, so the time of a suite depends on
    which suites ran before it.  They run in the order of ``verify
    --suite all``; in a traced run (``permute``) the seed shuffles them,
    which must not change any result."""

    def __init__(self) -> None:
        from k3lat import suites

        self.suites = suites.SUITES

    def units(self, seed: int, smoke: bool, permute: bool) -> List[Tuple[str, str]]:
        names = list(SMOKE_SUITES if smoke else CUSP_SUITES)
        if permute:
            random.Random(seed).shuffle(names)
        return [(n, n) for n in names]

    def run(self, name: str):
        return self.suites[name]().items

    def check(self, name: str, items) -> List[Check]:
        expected = CUSP_SUITES[name]
        checks = [(f"{name}/{i.id}", i.status == "pass", i.computed) for i in items]
        if len(checks) != expected:
            return [(f"{name}/count", False, f"{len(checks)} items, expected {expected}")] * expected
        return checks

    def checks_of(self, name: str) -> int:
        return CUSP_SUITES[name]

    def finish(self) -> List[Check]:
        return []


class KulikovGlue:
    """The two-component gluings of the glue suite, one unit per gluing;
    each family's cusp set is checked once all its gluings have run.  The
    checks are those of ``suites.suite_glue``.  Gluings share the component
    cache, so their times depend on the order; they run in the order of
    the glue suite, and in a traced run (``permute``) in a seeded order,
    which must not change any result."""

    def __init__(self) -> None:
        from k3lat import exactla, goldens, kulikov, roots

        # functions are looked up on their modules at call time, so that a
        # traced run calls the tracer's wrappers
        self.exactla, self.goldens, self.kulikov, self.roots = exactla, goldens, kulikov, roots
        self.seen: Dict[Tuple[int, int], set] = {}
        self.done: Dict[Tuple[int, int], int] = {}

    def units(self, seed: int, smoke: bool, permute: bool):
        pairings = self.goldens.GLUE_PAIRINGS
        if smoke:  # the cheapest gluing: A2^6, 36 roots
            pairings = {(2, 1): pairings[(2, 1)][:1]}
        units = [
            (f"({fam[0]},{fam[1]})-{p[2]}", (fam, p)) for fam, ps in pairings.items() for p in ps
        ]
        if permute:
            random.Random(seed).shuffle(units)
        return units

    def run(self, unit) -> List[Check]:
        kul, exactla = self.kulikov, self.exactla
        fam, (s0, s1, expected, starred) = unit
        self.done[fam] = self.done.get(fam, 0) + 1
        c0 = kul.build_component(kul.ComponentSpec(*s0))
        c1 = kul.build_component(kul.ComponentSpec(*s1))
        k = kul.glue_lambda(c0, c1)
        pid = f"({fam[0]},{fam[1]})-{expected}" + ("*" if starred else "")
        lat = k.lattice
        shape = (lat.rank, lat.det(), lat.is_even)
        prim_lat = k.prim.lattice()
        rtype, span = self.roots.root_system(prim_lat)
        idx = exactla.index_in(span.basis, exactla.IntMatrix.identity(prim_lat.rank))
        ok, split_idx = kul.root_split_check(k, c0, c1)
        self.seen.setdefault(fam, set()).add(str(rtype.with_star(idx == 3)))
        return [
            (f"{pid}-shape", lat.rank == 18 and abs(shape[1]) == 1 and lat.is_even, str(shape)),
            (f"{pid}-root-type", str(rtype) == expected, str(rtype)),
            (f"{pid}-star-index", idx == (3 if starred else 1), str(idx)),
            (f"{pid}-root-split", ok and split_idx >= 1, f"split {ok}, index {split_idx}"),
        ]

    def check(self, unit, checks: List[Check]) -> List[Check]:
        return checks

    def checks_of(self, unit) -> int:
        return GLUE_UNIT_CHECKS

    def finish(self) -> List[Check]:
        out = []
        for fam, pairings in self.goldens.GLUE_PAIRINGS.items():
            if self.done.get(fam) != len(pairings):
                continue  # smoke runs glue only part of a family
            expected = sorted(self.goldens.CUSP_TABLE[fam])
            got = sorted(self.seen.get(fam, ()))
            out.append((f"({fam[0]},{fam[1]})-cusp-set", got == expected, str(got)))
        return out


class LatticeQueries:
    """A seeded stream of ``k3lat info`` queries, checked by a closed-form oracle."""

    def __init__(self) -> None:
        from k3lat import cli, lattice, roots

        self.cli, self.lattice, self.roots = cli, lattice, roots
        self.oracle_rejects_wrong = True

    def units(self, seed: int, smoke: bool, permute: bool):
        stream = make_stream(seed, 0.1 if smoke else 1.0)
        return [(f"q{i}", q) for i, q in enumerate(stream)]

    def run(self, q) -> Dict:
        lattice = self.lattice
        lat = self.cli.parse_lattice_expr(q.text)
        p, n, r = lattice.signature_with_radical(lat)
        return {
            "rank": lat.rank,
            "signature": [p, n, r],
            "even": lat.is_even,
            "det": lat.det(),
            "disc": list(lattice.disc_group(lat).elementary_divisors),
            "roots": str(self.roots.root_system(lat)[0]) if p == 0 or n == 0 else None,
        }

    def check(self, q, answer: Dict) -> List[Check]:
        expected = expected_answer(q.atoms)
        # every check must be able to fail: the oracle rejects a wrong answer
        # in each field
        if not all(mismatches(bad, expected) for bad in wrong_answers(expected)):
            self.oracle_rejects_wrong = False
        bad = mismatches(answer, expected)
        return [(q.text, not bad, json.dumps(answer, sort_keys=True))]

    def checks_of(self, q) -> int:
        return 1

    def finish(self) -> List[Check]:
        return []


WORKLOADS = {"cusp_tables": CuspTables, "kulikov_glue": KulikovGlue, "lattice_queries": LatticeQueries}


SLICE_PERIOD_S = 0.125  # steadier short units than 0.25 s on a 2-core VM (median p50 spread 0.03 vs 0.08)


def reference_slice() -> float:
    """Seconds for a fixed slice of stdlib work of the kind k3lat runs
    (integer dot products over lists, and Fraction arithmetic), about
    10 ms.  The cyclic collector is off while it runs, so that the heap
    the workload has built does not slow it."""
    enabled = gc.isenabled()
    gc.disable()
    start = perf_counter()
    rows = [[(i * j) % 7 - 3 for j in range(16)] for i in range(16)]
    acc = 0
    for k in range(300):
        col = rows[k & 15]
        for r in rows:
            acc += sum(a * b for a, b in zip(r, col))
    f = Fraction(0)
    for k in range(1, 600):
        f = (f + Fraction(k % 7, k % 11 + 1)) / 2
    elapsed = perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


class SpeedClock:
    """Work time, in seconds and in units of the reference slice.

    The speed of this kind of shared machine drifts by tens of percent
    within seconds, much more than the bounds of the benchmark.  With
    ``sample`` on, a SIGALRM timer interrupts the workload every
    SLICE_PERIOD_S seconds to time one reference slice.  Each stretch of
    work between two slices is divided by the median duration of the
    slices around it (the two ends and the one before), so a slower
    machine gives the same relative time; the slices are not counted as
    work.  The median of three keeps one disturbed slice from skewing a
    stretch."""

    def __init__(self, sample: bool) -> None:
        self.slices: List[Tuple[float, float]] = []  # (start, end) of each slice
        self._slice()
        if sample:
            signal.signal(signal.SIGALRM, self._slice)
            signal.setitimer(signal.ITIMER_REAL, SLICE_PERIOD_S, SLICE_PERIOD_S)

    def _slice(self, *_) -> None:
        start = perf_counter()
        self.slices.append((start, start + reference_slice()))

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._slice()  # closes the last stretch

    def durations(self) -> List[float]:
        return [end - start for start, end in self.slices]

    def measure(self, a: float, b: float) -> Tuple[float, float]:
        """(work seconds, relative time) between perf_counter stamps a and b."""
        d = self.durations()
        work = rel = 0.0
        for i in range(len(self.slices) - 1):  # stretch i runs from slice i to slice i + 1
            overlap = min(b, self.slices[i + 1][0]) - max(a, self.slices[i][1])
            if overlap > 0:
                work += overlap
                rel += overlap / statistics.median(d[max(i - 1, 0):i + 2])
        return work, rel


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True, help="perf_counter of the parent at spawn")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    workload = WORKLOADS[args.workload]()
    # a traced run takes the table workloads' units in a seeded order
    units = workload.units(args.seed, args.smoke, permute=args.trace)
    setup_s = perf_counter() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    clock = SpeedClock(sample=not tracer)
    outputs = []
    spans: List[Tuple[float, float]] = []
    start = perf_counter()
    for label, unit in units:
        if tracer:
            tracer.unit = label
        t = perf_counter()
        try:
            outputs.append(workload.run(unit))
        except Exception as exc:  # a raising unit fails all of its checks; the run goes on
            outputs.append(exc)
        spans.append((t, perf_counter()))
    if tracer:
        tracer.unit = None
    end = perf_counter()
    clock.stop()

    # outputs are checked after the timed loop, so the oracle is not timed
    checks: List[Check] = []
    for (label, unit), out in zip(units, outputs):
        if isinstance(out, Exception):
            detail = f"raised {type(out).__name__}: {out}"
            checks += [(f"{label}/raised", False, detail)] * workload.checks_of(unit)
        else:
            checks += workload.check(unit, out)
    checks += workload.finish()
    wall_s, wall_rel = clock.measure(start, end)
    unit_s, unit_rel = zip(*(clock.measure(a, b) for a, b in spans))

    failed = [c for c in checks if not c[1]]
    record = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "wall_rel": wall_rel,
        "ref_s": clock.durations(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "units": [label for label, _ in units],
        "unit_s": unit_s,
        "unit_rel": unit_rel,
        "checks": len(checks),
        "failed": len(failed),
        "failures": failed[:5],
        "digest": hashlib.sha256(json.dumps(sorted(checks)).encode()).hexdigest(),
        "oracle_rejects_wrong": getattr(workload, "oracle_rejects_wrong", True),
    }
    if tracer:
        record["layers"] = tracer.metrics()
        record["attributed_s"] = tracer.attributed_s()
        record["toplevel_s"] = tracer.toplevel_s
        record["spans"] = tracer.spans
    print(json.dumps(record))


if __name__ == "__main__":
    main()

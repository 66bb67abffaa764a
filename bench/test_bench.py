"""Tests of the benchmark itself (not of k3lat).

    python3 -m pytest bench -q

The end-to-end tests use ``--smoke``: the same code paths on small inputs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from queries import expected_answer, invariant_factors, make_stream, mismatches, wrong_answers
from steady import compare

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(args, cwd=ROOT, timeout=180):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=timeout
    )


@pytest.mark.parametrize(
    "diagonal, expected",
    [
        ([1, 3, 1, 3], (3, 3)),
        ([1, 1, 2, 2], (2, 2)),
        ([2, 3], (6,)),
        ([4, 2, 2, 8], (2, 2, 4, 8)),
        ([1, 1], ()),
        ([6, 4], (2, 12)),
    ],
)
def test_invariant_factors(diagonal, expected):
    assert invariant_factors(diagonal) == expected


def test_expected_answer_closed_forms():
    # A2 as the CLI writes it (negative definite), and rescaled by 3
    assert expected_answer([("A", 2, -1)]) == {
        "rank": 2, "signature": [0, 2, 0], "even": True, "det": 3, "disc": [3], "roots": "A2",
    }
    a = expected_answer([("A", 2, -3)])
    assert (a["det"], a["disc"], a["roots"]) == (27, [3, 9], "0")
    # U(2) + D5 + E8: indefinite, so no root system is asked for
    b = expected_answer([("U", 1, 2), ("D", 5, -1), ("E", 8, -1)])
    assert (b["signature"], b["det"], b["disc"], b["roots"]) == ([1, 14, 0], 16, [2, 2, 4], None)
    assert expected_answer([("D", 6, 1), ("E", 7, 1)])["roots"] == "E7+D6"


def test_oracle_rejects_every_wrong_answer():
    for q in make_stream(7):
        expected = expected_answer(q.atoms)
        assert mismatches(expected, expected) == []
        for bad in wrong_answers(expected):
            assert mismatches(bad, expected), (q.text, bad)


def test_stream_is_seeded_and_keeps_its_composition():
    a, b, c = make_stream(1), make_stream(1), make_stream(2)
    assert [q.text for q in a] == [q.text for q in b]
    assert [q.text for q in a] != [q.text for q in c]

    def shapes(stream):
        return sorted((q.kind, sorted((s, n) for s, n, _ in q.atoms)) for q in stream)

    assert shapes(a) == shapes(c)
    assert len(a) == 200
    assert max(sum(2 if s == "U" else n for s, n, _ in q.atoms) for q in a) <= 12


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_meets_the_output_contract(workload, trace, tmp_path):
    out = tmp_path / "record.json"
    proc = run(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
                "--smoke", "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0
    if trace and workload != "cusp_tables":
        # these workloads bypass the cusp machinery and the glue search
        for name, got in result["metrics"].items():
            if name.startswith(("cusps.", "lattice.glue_overlattice.")):
                assert got["value"] == 0, name
    record = json.loads(out.read_text())[0]
    assert record["env"]["nproc"] and record["env"]["python"]


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(["--workload", WORKLOADS[0], "--seed", "1", "--trace", "0"], cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _values(scale_second_set=1.0, jitter=0.01):
    base = {m["name"]: 10.0 for m in SPEC["end_to_end"]}
    sets = []
    for factor in (1.0, scale_second_set):
        sets.append({"w": {k: [v * factor * (1 + jitter * (i - 5)) for i in range(10)] for k, v in base.items()}})
    return sets


def test_steadiness_verdict():
    _, _, failures = compare(SPEC, _values(), ["w"])
    assert failures == []
    # a spread beyond every bound fails; that of setup_s is warned about
    _, warnings, failures = compare(SPEC, _values(jitter=0.2), ["w"])
    assert {f.split(":")[0] for f in failures if "spread" in f} == {
        f"w {m['name']}" for m in SPEC["end_to_end"] if m["name"] != "setup_s"
    }
    assert any(w.startswith("w setup_s: spread") and "exceeds" in w for w in warnings)
    # a second set that moved either way by more than every bound disagrees
    for scale in (1.5, 0.6):
        _, _, failures = compare(SPEC, _values(scale_second_set=scale), ["w"])
        assert {f.split(":")[0] for f in failures if "differs from set 1" in f} == {
            f"w {m['name']}" for m in SPEC["end_to_end"]
        }

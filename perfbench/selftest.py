"""Self-test of the benchmark; run from the repository root:

    python3 perfbench/selftest.py

Checks the self-time and nesting arithmetic on a hand-built span tree, runs
every workload at tiny size untraced and traced, and checks that the
benchmark refuses to run where there is no pertkit source.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracing import outermost, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def check_span_arithmetic() -> None:
    # root [0, 10] holds children [1, 4] and [3, 6], which overlap (union 5),
    # and [8, 12], which runs past the root's end (clipped to 2); the first
    # child holds a grandchild [1.5, 2.5].
    start = [0.0, 1.0, 3.0, 1.5, 8.0]
    end = [10.0, 4.0, 6.0, 2.5, 12.0]
    parent = [-1, 0, 0, 1, 0]
    got = self_times(start, end, parent).tolist()
    assert got == [3.0, 2.0, 3.0, 1.0, 4.0], got
    group = [0, 1, 1, 1, 0]
    got = outermost(parent, group).tolist()
    assert got == [True, True, True, False, False], got


def run(args: list[str], cwd: str = ".") -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(HERE, "run.py")] + args
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=170)


def check_smoke_runs() -> None:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(["--workload", workload, "--seed", "3", "--seconds", "1",
                        "--trace", str(trace), "--tiny"])
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, proc.stdout
            assert result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (workload, trace, got)
            print(f"ok  {workload} trace={trace} attempted={result['attempted']}")


def check_refuses_without_source() -> None:
    bare = os.path.abspath(os.path.join(".perfbench_out", "bare"))
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "order_sweep", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=170)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  refuses to run without src/pertkit")


if __name__ == "__main__":
    check_span_arithmetic()
    print("ok  span arithmetic")
    check_refuses_without_source()
    check_smoke_runs()

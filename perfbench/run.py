"""pertkit benchmark: end-to-end metrics per workload, or per-layer with tracing.

Run from the repository root:

    python3 perfbench/run.py --workload order_sweep --seed 1 --seconds 20 --trace 0

Workloads: order_sweep, fig3_ensemble, dense_models (see workloads.py).
The untraced run (``--trace 0``) starts fresh interpreters that import
``pertkit.cli``, write the seeded inputs and run one warm-up op; the median
of these start-ups is ``setup_s``.  The last of them then runs the workload
for ``--seconds`` (at least the workload's minimum number of passes) and
checks every output.  ``--trace 1`` instead runs an untraced reference
phase and a traced phase and reports per-layer metrics and the tracing
overhead.  A readable report comes first; the last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import speed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Fresh interpreters timed for setup_s, the measuring one included.
SETUP_SAMPLES = 5
#: Hard limit on the whole run, kept under a 180 s budget per run.
DEADLINE_S = 170.0
OUT_DIR = ".perfbench_out"

END_TO_END = (
    ("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"), ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("graded.nested_commutator_calls", "count"), ("graded.commutator_calls", "count"),
    ("graded.commutator_ms", "ms"), ("graded.matmul_calls", "count"),
    ("graded.dense_products", "count"), ("graded.gflop_computed", "GFLOP"),
    ("graded.add_calls", "count"), ("graded.add_ms", "ms"), ("graded.init_calls", "count"),
    ("graded.cache_hit_ratio", "ratio"), ("graded.self_ms", "ms"),
    ("engine.transform_self_ms", "ms"), ("engine.solve_generator_ms", "ms"),
    ("engine.solve_generator_calls", "count"), ("oracle.calls", "count"),
    ("io.bytes_written", "B"), ("experiments.skipped", "count"),
    ("cli.self_ms", "ms"), ("models.build_ms", "ms"), ("order_growth", "x"),
    ("experiments.threads2_speedup", "x"), ("trace.overhead_pct", "%"),
    ("repo.src_lines", "count"),
)

#: ROADMAP item 1 baseline (run_fd / run_la called directly, 2-core virtual
#: machine, numpy 2.4), in ms, keyed by sweep case.
ROADMAP_MS = {"fd.o8": 71.0, "fd.o11": 564.0, "la.o8": 250.0, "la.o9": 530.0}


class Worker:
    """A worker process; always killed and reaped on the way out."""

    def __init__(self, args, workdir, extra, deadline):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", workdir] + extra
        if args.tiny:
            cmd.append("--tiny")
        env = dict(os.environ)
        # pertkit's matrices are d <= 64; BLAS threads only add contention noise
        env.setdefault("OPENBLAS_NUM_THREADS", "1")
        src = os.path.abspath("src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.deadline = deadline
        self.kernel = speed.kernel_seconds()
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)

    def wait_ready(self) -> float:
        """Seconds from spawn to the READY line, at reference speed.

        The worker reports its last kernel time on that line; with the one
        timed here just before the spawn it gives the speed factor.
        """
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "READY":
            raise RuntimeError(f"worker did not start: {' '.join(line)!r}")
        return (time.perf_counter() - self.started) * speed.factor(self.kernel, float(line[1]))

    def result(self) -> dict:
        out, _ = self.proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with code {self.proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def run_workers(args, workdir) -> tuple[dict, list[float]]:
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    probes = 0 if args.trace else SETUP_SAMPLES - 1
    for i in range(probes):
        setup_dir = os.path.join(workdir, f"setup{i}")
        os.makedirs(setup_dir)
        w = Worker(args, setup_dir, ["--setup-only"], deadline)
        try:
            setups.append(w.wait_ready())
            w.proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        finally:
            w.close()
    extra = []
    if args.trace:
        extra = ["--trace-file", os.path.join(OUT_DIR, f"trace-{args.workload}.npz")]
    main_dir = os.path.join(workdir, "run")
    os.makedirs(main_dir, exist_ok=True)
    w = Worker(args, main_dir, extra, deadline)
    try:
        setups.append(w.wait_ready())
        return w.result(), setups
    finally:
        w.close()


def report(args, res: dict, setups: list[float], metrics: dict) -> None:
    env = res["env"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"  python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  blas {env['blas']}"
          f"  nproc {env['nproc']}  git {git_revision()}")
    print("  " + "  ".join(f"{k}={v}" for k, v in env["env"].items()))
    attempted, failed = res["attempted"], res["failed"]
    if not args.trace:
        e = res["e2e"]
        q = round(100 * e["tail_quantile"], 1)
        print(f"end-to-end, at reference speed (median speed factor {e['speed_factor']:.3f}):")
        print(f"  setup_s      {metrics['setup_s']['value']:.4f} s (median of {len(setups)} fresh "
              f"interpreters; import alone {res['import_s']:.3f} s)")
        print(f"  ops_per_s    {e['ops_per_s']:.4f} 1/s ({e['samples']} ops, {e['passes']} passes)")
        print(f"  op_p50_ms    {e['op_p50_ms']:.3f} ms (n={e['samples']})")
        print(f"  op_tail_ms   {e['op_tail_ms']:.3f} ms (p{q:g}, n={e['samples']})")
        print(f"  fail_ratio   {failed / attempted:.4f} ({failed}/{attempted})")
        print(f"  peak_rss_mb  {e['peak_rss_mb']:.1f} MB")
        growth = e["order_growth"]
        print(f"  order_growth {'%.4f x/order (fd)' % growth if growth else 'n/a (order_sweep only)'}")
        if e["case_ms"]:
            print("op median by case (ms): " + "  ".join(f"{c} {v:.1f}" for c, v in e["case_ms"].items()))
    else:
        layers = res["layers"]
        print(f"per-layer, per traced pass, times at reference speed ({res['spans']} spans):")
        for name in sorted(layers):
            print(f"  {name:36s} {layers[name]:.6g}")
        if args.workload == "order_sweep":
            print("order-cost table (ms at reference speed): case, untraced op median, "
                  "traced routine span, ROADMAP item 1")
            for case, op_ms in res["ref_case_ms"].items():
                method, order = case.split(".o")
                span = layers.get(f"{'least_action.la' if method == 'la' else 'engine.' + method}"
                                  f".o{order}_ms", float("nan"))
                ref = ROADMAP_MS.get(case)
                note = f"{ref:g} (op median {100 * (op_ms / ref - 1):+.0f}%)" if ref else "-"
                print(f"  {case:8s} {op_ms:9.1f} {span:9.1f}   {note}")
        print(f"  fail_ratio {failed / attempted:.4f} ({failed}/{attempted})")
        print("  span wiring cross-check: " + ("passed" if res["wiring_checked"] else "NOT passed"))
        if res["missing"]:
            print("  not traced (absent): " + ", ".join(res["missing"]))
    for line in res["failures"] + res["problems"]:
        print(f"  FAIL {line}")


def git_revision() -> str:
    if not os.path.isdir(".git"):
        return "n/a (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)
    # a terminated benchmark still kills and reaps its worker in the finally blocks
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join("src", "pertkit", "cli.py")):
        print("error: run from a pertkit checkout (src/pertkit/cli.py not found)", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    try:
        res, setups = run_workers(args, workdir)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        values = {name: (res["layers"][name], unit) for name, unit in PER_LAYER}
    else:
        e = res["e2e"]
        values = {"setup_s": (statistics.median(setups), "s")}
        values.update({name: (e[name], unit) for name, unit in END_TO_END if name in e})
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
    report(args, res, setups, metrics)
    correct = res["failed"] == 0 and not res["problems"]
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark process: set up a workload, time it, check it, report.

Started by ``run.py`` in a fresh interpreter with ``src`` on PYTHONPATH.
It imports ``pertkit.cli``, writes the workload's inputs, runs one warm-up
op and prints ``READY``; with ``--setup-only`` it stops there.  Otherwise it
runs the timed phase (or, with ``--trace 1``, an untraced reference phase,
a traced phase and for fig3 a two-thread probe) and prints one JSON line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io as _stdio
import json
import os
import resource
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import speed
from tracing import LAYERS, Tracer, outermost, self_times
from workloads import WORKLOADS, Call, Verdict

clock = time.perf_counter


class InstanceTimer:
    """Times each fig3 ensemble instance at the experiments layer boundary.

    With ``calibrate`` set, the reference kernel runs after each instance,
    outside its timing, so each instance gets its own speed factor.
    """

    def __init__(self):
        self.samples: dict[int, float] = {}  # index -> seconds
        self.raw_s = 0.0
        self.calibration_s = 0.0
        self.last_kernel = 0.0
        self.calibrate = True

    def reset(self, kernel: float) -> None:
        self.samples.clear()
        self.raw_s = self.calibration_s = 0.0
        self.last_kernel = kernel

    def install(self, experiments) -> None:
        inner = getattr(experiments, "_instance_rows", None)
        if inner is None:
            return

        def timed(spec, index, *args, **kwargs):
            t0 = clock()
            try:
                return inner(spec, index, *args, **kwargs)
            finally:
                t1 = clock()
                self.raw_s += t1 - t0
                self.samples[index] = t1 - t0
                if self.calibrate:
                    after = speed.kernel_seconds()
                    self.samples[index] *= speed.factor(self.last_kernel, after)
                    self.last_kernel = after
                    self.calibration_s += clock() - t1

        experiments._instance_rows = timed


@dataclass
class Record:
    """One CLI call; times are at reference speed, calibration excluded."""

    call: Call
    op_id: int
    seconds: float
    factor: float
    digest: str | None
    error: str | None
    instances: dict[int, float] = field(default_factory=dict)


@dataclass
class Op:
    case: str
    ms: float
    failure: str | None


class Bench:
    def __init__(self, cli, workload, timer: InstanceTimer):
        self.cli = cli
        self.workload = workload
        self.timer = timer
        self.next_op = 0
        self.kernel = speed.kernel_seconds()
        self.pending: dict[str, tuple[Call, bytes]] = {}
        self.verdicts: dict[str, Verdict] = {}

    def run_call(self, call: Call, tracer: Tracer | None = None) -> Record:
        op_id, self.next_op = self.next_op, self.next_op + 1
        before = self.kernel
        self.timer.reset(before)
        stderr = _stdio.StringIO()
        if tracer is not None:
            tracer.set_op(op_id)
        error = None
        t0 = clock()
        try:
            with contextlib.redirect_stderr(stderr):
                code = self.cli.main(call.argv)
            if code != 0:
                error = f"exit code {code}: {stderr.getvalue().strip()[:200]}"
        except (Exception, SystemExit) as err:  # an op that raises is a failed op
            error = f"{type(err).__name__}: {err}"
        wall = clock() - t0 - self.timer.calibration_s
        if tracer is not None:
            tracer.set_op(-1)
        self.kernel = speed.kernel_seconds()
        factor = speed.factor(before, self.kernel)
        # calibrated instances carry their own factors; the rest takes the call's
        scale = 1.0 if self.timer.calibrate else factor
        instances = {i: dt * scale for i, dt in self.timer.samples.items()}
        seconds = sum(instances.values()) + (wall - self.timer.raw_s) * factor
        digest = None
        if error is None:
            with open(call.out, "rb") as fh:
                data = fh.read()
            digest = hashlib.sha256(data).hexdigest()
            if digest not in self.verdicts and digest not in self.pending:
                self.pending[digest] = (call, data)
        return Record(call, op_id, seconds, factor, digest, error, instances)

    def run_phase(self, seconds: float, min_passes: int, tracer: Tracer | None = None):
        records: list[Record] = []
        start = clock()
        passes = 0
        while passes < min_passes or clock() - start < seconds:
            for call in self.workload.calls():
                records.append(self.run_call(call, tracer))
            passes += 1
        return records, passes

    def check_pending(self) -> None:
        """Check each distinct output once; identical bytes share a verdict."""
        for digest, (call, data) in list(self.pending.items()):
            try:
                verdict = self.workload.check(call, data)
            except Exception as err:  # a malformed output is a failed op
                verdict = Verdict(problems=[f"check raised {type(err).__name__}: {err}"])
            self.verdicts[digest] = verdict
        self.pending.clear()

    def ops(self, records: list[Record]) -> list[Op]:
        out = []
        for rec in records:
            verdict = self.verdicts.get(rec.digest, Verdict())
            failure = rec.error or ("; ".join(verdict.problems) or None)
            if rec.call.kind != "experiment":
                out.append(Op(rec.call.case, rec.seconds * 1e3, failure))
                continue
            count = self.workload.count
            for index in range(count):
                seconds = rec.instances.get(index, rec.seconds / count)
                reason = failure or verdict.instances.get(index, "no output")
                out.append(Op(f"fig3.i{index}", seconds * 1e3, reason))
        return out


def percentile_ms(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), 100 * q))


def tail_quantile(workload, ops_per_pass: int) -> float:
    """Fixed per workload: the highest quantile with at least ten samples
    beyond it at the minimum sample count, so runs of any length compare."""
    return max(0.5, 1 - 10 / (workload.min_passes * ops_per_pass))


def case_medians(ops: list[Op]) -> dict[str, float]:
    by_case: dict[str, list[float]] = {}
    for op in ops:
        by_case.setdefault(op.case, []).append(op.ms)
    return {case: float(np.median(v)) for case, v in by_case.items()}


def order_growth(medians: dict[str, float]) -> float | None:
    fd = sorted((int(c.split(".o")[1]), ms) for c, ms in medians.items() if c.startswith("fd.o"))
    if len(fd) < 2:
        return None
    (lo, t_lo), (hi, t_hi) = fd[0], fd[-1]
    return (t_hi / t_lo) ** (1 / (hi - lo))


def failures_list(ops: list[Op], limit: int = 20) -> list[str]:
    seen: dict[str, int] = {}
    for op in ops:
        if op.failure:
            key = f"{op.case}: {op.failure}"
            seen[key] = seen.get(key, 0) + 1
    return [f"{k} (x{n})" for k, n in list(seen.items())[:limit]]


def end_to_end(bench: Bench, records, ops, passes) -> dict:
    ops_per_pass = len(ops) // passes
    q = tail_quantile(bench.workload, ops_per_pass)
    lat = [op.ms for op in ops]
    medians = case_medians(ops) if bench.workload.name != "fig3_ensemble" else {}
    # a pass repeats the same calls: sum each call's median over the passes
    calls = len(records) // passes
    pass_s = sum(float(np.median([r.seconds for r in records[j::calls]])) for j in range(calls))
    return {
        "ops_per_s": ops_per_pass / pass_s,
        "op_p50_ms": percentile_ms(lat, 0.5),
        "op_tail_ms": percentile_ms(lat, q),
        "tail_quantile": q,
        "samples": len(ops),
        "passes": passes,
        "case_ms": medians,
        "speed_factor": float(np.median([r.factor for r in records])),
        "order_growth": order_growth(medians),
    }


# ---------------------------------------------------------------------------
# per-layer metrics from the traced phase
# ---------------------------------------------------------------------------

#: Span names timed together as one metric group.
GROUPS = {
    "io.parse": ("io.load_problem", "io.load_operator"),
    "io.serialize": ("io.result_document", "io.operator_document", "io.matrix_to_json",
                     "io.write_document"),
    "oracle.eta": ("oracle.spectral_distance", "oracle.partial_sum_matrix"),
    "transform": ("engine.run_swt", "engine.run_fd", "engine.run_ace", "least_action.run_la"),
    "models.build": ("models.random_bd_hamiltonian", "models.random_bd",
                     "models.build_transmon_resonator", "models.build_edsr"),
}


def layer_metrics(tracer: Tracer, op_case: dict[int, str], op_factor: dict[int, float],
                  passes: int, diagnostics: dict[int, tuple[int, int]]) -> tuple[dict, list[str]]:
    """Per-pass layer metrics from the traced phase, and span-wiring problems.

    Only spans inside ops count, except ``models.build_ms``, which adds the
    traced input generation to the model building done inside ops.  Times
    are at reference speed, each span scaled by its op's speed factor.
    ``diagnostics`` maps op ids to the cache counts their outputs report.
    """
    sp = tracer.spans()
    names = tracer.names
    ids = {n: i for i, n in enumerate(names)}
    group_of = {n: g for g, members in GROUPS.items() for n in members}
    group_names = sorted(set(group_of.get(n, n) for n in names))
    gid = np.array([group_names.index(group_of.get(n, n)) for n in names] or [0])
    group = gid[sp["name"]] if len(sp["name"]) else sp["name"]
    scale = np.full(max(op_factor, default=0) + 2, float(np.median(list(op_factor.values()))))
    scale[list(op_factor)] = list(op_factor.values())
    scale = scale[sp["op"]]  # op -1 takes the last slot: the phase's median factor
    dur = (sp["end"] - sp["start"]) * scale
    own = self_times(sp["start"], sp["end"], sp["parent"]) * scale
    outer = outermost(sp["parent"], group)
    layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in names] or [0])
    layer = layer_of[sp["name"]] if len(sp["name"]) else sp["name"]

    in_op = sp["op"] >= 0

    def is_name(*wanted, everywhere=False):
        sel = np.zeros(len(dur), dtype=bool)
        for n in wanted:
            if n in ids:
                sel |= sp["name"] == ids[n]
        return sel if everywhere else sel & in_op

    def count(*wanted):
        return int(is_name(*wanted).sum()) / passes

    def incl_ms(*wanted):
        return float(dur[is_name(*wanted) & outer].sum()) * 1e3 / passes

    def group_ms(g):
        return incl_ms(*GROUPS[g])

    m: dict[str, float] = {}
    for i, lay in enumerate(LAYERS):
        m[f"{lay}.self_ms"] = float(own[(layer == i) & in_op].sum()) * 1e3 / passes
    transforms = [tracer.diagnostics[i] for i in tracer.diagnostics if outer[i] and in_op[i]]
    hits = sum(h for h, _ in transforms)
    lookups = sum(h + mi for h, mi in transforms)
    m.update({
        "graded.nested_commutator_calls": count("graded.nested_commutator"),
        "graded.commutator_calls": count("graded.commutator"),
        "graded.commutator_ms": incl_ms("graded.commutator"),
        "graded.matmul_calls": count("graded.matmul"),
        "graded.dense_products": tracer.counters["dense_products"] / passes,
        "graded.gflop_computed": tracer.counters["flop"] / 1e9 / passes,
        "graded.add_calls": count("graded.add"),
        "graded.add_ms": incl_ms("graded.add"),
        "graded.init_calls": count("graded.init"),
        "graded.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "engine.transform_self_ms": float(own[is_name(*GROUPS["transform"][:3])].sum()) * 1e3 / passes,
        "engine.solve_generator_ms": incl_ms("engine.solve_generator_order"),
        "engine.solve_generator_calls": count("engine.solve_generator_order"),
        "engine.rotate_ms": incl_ms("engine.rotate_operator"),
        "oracle.exact_ms": incl_ms("oracle.exact_block_diagonalize"),
        "oracle.eta_ms": group_ms("oracle.eta"),
        "oracle.calls": float(((layer == LAYERS.index("oracle")) & in_op).sum()) / passes,
        "io.parse_ms": group_ms("io.parse"),
        "io.serialize_ms": group_ms("io.serialize"),
        "io.read_result_ms": incl_ms("io.load_result"),
        "io.bytes_written": tracer.counters["bytes_written"] / passes,
        "cli.self_ms": m["cli.self_ms"],
    })
    models = is_name(*GROUPS["models.build"], everywhere=True) & outer
    m["models.build_ms"] = float(dur[models & ~in_op].sum() + dur[models & in_op].sum() / passes) * 1e3
    serialize_s = m["io.serialize_ms"] / 1e3
    m["io.serialize_mb_per_s"] = m["io.bytes_written"] / 1e6 / serialize_s if serialize_s else 0.0

    # least action: split each run_la span into its fd, generator and rotation parts
    la = is_name("least_action.run_la")
    parent_is_la = np.isin(sp["parent"], np.flatnonzero(la))
    fd_in_la = float(dur[is_name("engine.run_fd") & parent_is_la].sum())
    gen_in_la = float(dur[is_name("least_action.compute_la_generator") & parent_is_la].sum())
    m["least_action.fd_ms"] = fd_in_la * 1e3 / passes
    m["least_action.la_generator_ms"] = gen_in_la * 1e3 / passes
    m["least_action.rotation_ms"] = (float(dur[la].sum()) - fd_in_la - gen_in_la) * 1e3 / passes
    m["least_action.epsilon_ms"] = incl_ms("least_action.epsilon_order")
    m["least_action.w_ms"] = incl_ms("least_action.w_order")

    # order-cost table: the top-level routine span of each sweep case
    top = np.isin(sp["parent"], np.flatnonzero(layer == LAYERS.index("cli")))
    per_case: dict[str, list[float]] = {}
    for method, name in (("swt", "engine.run_swt"), ("fd", "engine.run_fd"),
                         ("ace", "engine.run_ace"), ("la", "least_action.run_la")):
        for i in np.flatnonzero(is_name(name) & top).tolist():
            case = op_case.get(int(sp["op"][i]), "")
            if case.startswith(f"{method}.o"):
                per_case.setdefault(case, []).append(float(dur[i]) * 1e3)
    for case, values in sorted(per_case.items()):
        method, order = case.split(".o")
        prefix = "least_action.la" if method == "la" else f"engine.{method}"
        m[f"{prefix}.o{order}_ms"] = float(np.median(values))

    # span wiring: one nested_commutator span per cache lookup the op reports
    mismatches = []
    if "pertkit.graded.nested_commutator" not in tracer.missing:
        nc = is_name("graded.nested_commutator")
        per_op = np.bincount(sp["op"][nc & (sp["op"] >= 0)], minlength=max(op_case, default=0) + 1)
        for op_id, (h, mi) in sorted(diagnostics.items()):
            if per_op[op_id] != h + mi:
                mismatches.append(f"op {op_id} ({op_case[op_id]}): {per_op[op_id]} nested_commutator "
                                  f"spans != {h + mi} cache lookups")
    return m, mismatches


# ---------------------------------------------------------------------------


def environment(seed: int) -> dict:
    import scipy

    blas = "unknown"
    with contextlib.suppress(Exception):
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    src_lines = 0
    for root, _, files in os.walk(os.path.join("src", "pertkit")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(root, f), encoding="utf-8") as fh:
                    src_lines += sum(1 for line in fh if line.strip())
    keys = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "PERTKIT_THREADS")
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "env": {k: os.environ.get(k, "unset") for k in keys},
        "seed": seed,
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-file", default=None)
    args = parser.parse_args(argv)

    t0 = clock()
    import pertkit.cli as cli
    import pertkit.experiments as experiments
    import_s = clock() - t0
    workload = WORKLOADS[args.workload](args.workdir, args.seed, args.tiny)
    timer = InstanceTimer()
    timer.install(experiments)
    bench = Bench(cli, workload, timer)
    warmup = bench.run_call(workload.warmup_call())
    print(f"READY {bench.kernel!r}", flush=True)
    if args.setup_only:
        return 0

    problems = [f"warm-up failed: {warmup.error}"] if warmup.error else []
    result: dict = {"import_s": import_s, "env": environment(args.seed)}
    if not args.trace:
        records, passes = bench.run_phase(args.seconds, workload.min_passes)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        bench.check_pending()
        ops = bench.ops(records)
        result["e2e"] = dict(end_to_end(bench, records, ops, passes), peak_rss_mb=rss_mb)
    else:
        timer.calibrate = False  # the tracer would time the kernel inside instance spans
        ref_records, ref_passes = bench.run_phase(0, workload.min_passes)
        bench.check_pending()
        ref_ops = bench.ops(ref_records)
        gen_dir = os.path.join(args.workdir, "gen")
        os.makedirs(gen_dir)
        tracer = Tracer()
        tracer.install()
        try:
            WORKLOADS[args.workload](gen_dir, args.seed, args.tiny)
            records, passes = bench.run_phase(0, workload.min_passes, tracer)
        finally:
            tracer.uninstall()
        bench.check_pending()
        ops = bench.ops(records)
        all_ops = ref_ops + ops
        op_case = {r.op_id: r.call.case for r in records}
        diagnostics = {r.op_id: bench.verdicts[r.digest].diagnostics for r in records
                       if r.digest in bench.verdicts and bench.verdicts[r.digest].diagnostics}
        op_factor = {r.op_id: r.factor for r in records}
        layers, mismatches = layer_metrics(tracer, op_case, op_factor, passes, diagnostics)
        problems += mismatches
        ref = end_to_end(bench, ref_records, ref_ops, ref_passes)
        untraced_s = sum(r.seconds for r in ref_records) / ref_passes
        traced_s = sum(r.seconds for r in records) / passes
        layers["trace.overhead_pct"] = (traced_s / untraced_s - 1) * 100
        layers["order_growth"] = ref["order_growth"] or 0.0
        inst = [op.ms for op in ref_ops if op.case.startswith("fig3.i")]
        layers["experiments.instance_p50_ms"] = percentile_ms(inst, 0.5) if inst else 0.0
        layers["experiments.instance_tail_ms"] = (
            percentile_ms(inst, tail_quantile(workload, workload.count)) if inst else 0.0)
        layers["experiments.skipped"] = float(sum(op.failure == "skipped" for op in ops)) / passes
        layers["experiments.threads2_speedup"] = 0.0
        if workload.name == "fig3_ensemble" and len(os.sched_getaffinity(0)) >= 2:
            saved = os.environ.get("PERTKIT_THREADS")
            os.environ["PERTKIT_THREADS"] = "2"
            try:
                probe = bench.run_call(workload.calls()[0])
            finally:
                if saved is None:
                    del os.environ["PERTKIT_THREADS"]
                else:
                    os.environ["PERTKIT_THREADS"] = saved
            bench.check_pending()
            all_ops += bench.ops([probe])
            serial_s = sum(r.seconds for r in ref_records) / len(ref_records)
            layers["experiments.threads2_speedup"] = serial_s / probe.seconds
        layers["repo.src_lines"] = float(result["env"]["src_lines"])
        result.update(layers=layers, ref_case_ms=ref["case_ms"], missing=tracer.missing,
                      wiring_checked=not mismatches and "pertkit.graded.nested_commutator"
                      not in tracer.missing, spans=len(tracer.ends))
        if args.trace_file:
            tracer.save(args.trace_file)
        ops = all_ops
    result.update(
        attempted=len(ops),
        failed=sum(op.failure is not None for op in ops),
        failures=failures_list(ops),
        problems=problems,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: transform, rotate, oracle, experiment.

Exit codes: 0 success, 2 parse error, 3 precondition violation,
4 resonance or degeneracy, 5 ill-conditioned oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import io
from .engine import (
    Mask,
    rotate_operator,
    run_ace,
    run_fd,
    run_swt,
)
from .errors import (
    DegenerateSpectrum,
    IllConditionedBlocks,
    PertError,
    ResonantDenominator,
)
from .experiments import EnsembleSpec, ace_demo, eta_rows_to_csv, run_fig3_experiment
from .least_action import BlockStructure, run_la
from .oracle import exact_block_diagonalize, evaluate_at

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_RESONANCE = 4
EXIT_ILL_CONDITIONED = 5


def _thread_count() -> int:
    raw = os.environ.get("PERTKIT_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _run_problem(spec: io.ProblemSpec, deg_tol, res_tol):
    h = spec.to_graded()
    if spec.method == "swt":
        if spec.block_sizes is None:
            raise io.ProblemFormatError("the swt method requires block_sizes")
        # the off-block content of the terms is the perturbation to eliminate;
        # relabeling in-block content as part of H leaves the result unchanged
        mask = Mask.block_off_diagonal(spec.block_sizes)
        h_blocks = mask.complement_project(h)
        v = mask.project(h)
        return run_swt(
            h_blocks, v, spec.block_sizes, spec.max_order,
            hbar=spec.hbar, deg_tol=deg_tol, res_tol=res_tol,
        )
    if spec.method == "fd":
        return run_fd(h, spec.max_order, hbar=spec.hbar, deg_tol=deg_tol, res_tol=res_tol)
    if spec.method == "ace":
        return run_ace(
            h, spec.build_mask(), spec.max_order,
            hbar=spec.hbar, deg_tol=deg_tol, res_tol=res_tol,
        )
    if spec.method == "la":
        if spec.block_sizes is None:
            raise io.ProblemFormatError("the la method requires block_sizes")
        return run_la(
            h, BlockStructure(spec.block_sizes), spec.max_order,
            hbar=spec.hbar, deg_tol=deg_tol, res_tol=res_tol,
        )
    raise io.ProblemFormatError(f"unknown method {spec.method!r}")


def cmd_transform(args) -> int:
    spec, digest = io.load_problem(args.input)
    if args.max_order is not None:
        spec.max_order = args.max_order
    if args.method is not None:
        spec.method = args.method
    deg_tol, res_tol = spec.resolved_tolerances(args.tol_degeneracy, args.tol_resonance)
    result = _run_problem(spec, deg_tol, res_tol)
    io.write_document(args.out, io.result_document(result, digest))
    return EXIT_OK


def cmd_rotate(args) -> int:
    with open(args.problem, "rb") as fh:
        digest = io.problem_hash(fh.read())
    view = io.load_result(args.result)
    if view.problem_sha256 != digest:
        raise PertError(
            "result document was produced from a different problem file "
            f"(hash {view.problem_sha256[:12]}... != {digest[:12]}...)"
        )
    if args.order > view.max_order:
        raise PertError(
            f"rotation order {args.order} exceeds solved order {view.max_order}"
        )
    operator = io.load_operator(args.operator, view.dim, view.omega_d)
    rotated = rotate_operator(operator, view.generator, args.order)
    io.write_document(args.out, io.operator_document(rotated))
    return EXIT_OK


def cmd_oracle(args) -> int:
    spec, digest = io.load_problem(args.input)
    blocks = [int(s) for s in args.blocks.split(",")] if args.blocks else spec.block_sizes
    if blocks is None:
        raise io.ProblemFormatError("oracle needs --blocks or block_sizes in the problem")
    h = spec.to_graded()
    numeric = evaluate_at(h, args.lam, t=args.time)
    u_dagger, h_block = exact_block_diagonalize(numeric, BlockStructure(tuple(blocks)))
    io.write_document(
        args.out,
        {
            "problem_sha256": digest,
            "blocks": list(blocks),
            "lambda": args.lam,
            "u_dagger": io.matrix_to_json(u_dagger),
            "h_block": io.matrix_to_json(h_block),
        },
    )
    return EXIT_OK


def cmd_experiment(args) -> int:
    with open(args.spec, "rb") as fh:
        try:
            doc = json.loads(fh.read())
        except json.JSONDecodeError as err:
            raise io.ProblemFormatError(f"invalid JSON: {err}") from err
    kind = doc.get("kind", "fig3")
    threads = _thread_count()
    if kind == "fig3":
        spec = EnsembleSpec(
            count=int(args.instances or doc.get("count", 50)),
            dim_min=int(doc.get("dim_min", 6)),
            dim_max=int(doc.get("dim_max", 14)),
            blocks_min=int(doc.get("blocks_min", 2)),
            blocks_max=int(doc.get("blocks_max", 4)),
            coupling=float(doc.get("coupling", 0.05)),
            seed=int(args.seed if args.seed is not None else doc.get("seed", 7)),
        )
        rows, skipped = run_fig3_experiment(
            spec, max_order=int(doc.get("max_order", 8)), threads=threads
        )
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(eta_rows_to_csv(rows))
        for index, reason in skipped:
            print(f"skipped instance {index}: {reason}", file=sys.stderr)
        return EXIT_OK
    if kind == "ace":
        demo = ace_demo(
            d=int(doc.get("dim", 12)),
            seed=int(args.seed if args.seed is not None else doc.get("seed", 11)),
            max_order=int(doc.get("max_order", 3)),
            coupling=float(doc.get("coupling", 0.05)),
        )
        io.write_document(
            args.out,
            {
                "before": io.matrix_to_json(demo["before"]),
                "mask": [[bool(x) for x in row] for row in demo["mask"]],
                "after": io.matrix_to_json(demo["after"]),
                "max_order": demo["max_order"],
                "seed": demo["seed"],
            },
        )
        return EXIT_OK
    raise io.ProblemFormatError(f"unknown experiment kind {kind!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pertkit",
        description="Order-by-order effective Hamiltonians with exact oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tr = sub.add_parser("transform", help="run a transformation on a problem file")
    p_tr.add_argument("input")
    p_tr.add_argument("--out", required=True)
    p_tr.add_argument("--max-order", type=int, default=None)
    p_tr.add_argument("--method", choices=io.METHODS, default=None)
    p_tr.add_argument("--tol-degeneracy", type=float, default=None)
    p_tr.add_argument("--tol-resonance", type=float, default=None)
    p_tr.set_defaults(func=cmd_transform)

    p_ro = sub.add_parser("rotate", help="rotate an operator into a solved frame")
    p_ro.add_argument("problem")
    p_ro.add_argument("result")
    p_ro.add_argument("operator")
    p_ro.add_argument("--order", type=int, required=True)
    p_ro.add_argument("--out", required=True)
    p_ro.set_defaults(func=cmd_rotate)

    p_or = sub.add_parser("oracle", help="exact block diagonalization of a problem")
    p_or.add_argument("input")
    p_or.add_argument("--blocks", default=None, help="comma-separated block sizes")
    p_or.add_argument("--lam", type=float, default=1.0)
    p_or.add_argument("--time", type=float, default=None)
    p_or.add_argument("--out", required=True)
    p_or.set_defaults(func=cmd_oracle)

    p_ex = sub.add_parser("experiment", help="run a benchmark experiment")
    p_ex.add_argument("spec")
    p_ex.add_argument("--out", required=True)
    p_ex.add_argument("--seed", type=int, default=None)
    p_ex.add_argument("--instances", type=int, default=None)
    p_ex.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (io.ProblemFormatError, FileNotFoundError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except (ResonantDenominator, DegenerateSpectrum) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RESONANCE
    except IllConditionedBlocks as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ILL_CONDITIONED
    except (PertError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    raise SystemExit(main())

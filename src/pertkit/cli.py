"""Command-line front end: transform, rotate, oracle, experiment.

Exit codes: 0 success, 2 parse error (a document ``io`` cannot read or
convert), 3 precondition violation (a converted value that breaks a rule),
4 resonance or degeneracy, 5 ill-conditioned oracle.
"""

from __future__ import annotations

import argparse
import functools
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


def _run_problem(spec: io.ProblemSpec, deg_tol, res_tol):
    h = spec.to_graded()
    if spec.method in ("swt", "la") and spec.block_sizes is None:
        raise io.ProblemFormatError(f"the {spec.method} method requires block_sizes")
    if spec.method == "swt":
        # the off-block content of the terms is the perturbation to eliminate;
        # relabeling in-block content as part of H leaves the result unchanged
        mask = Mask.block_off_diagonal(spec.block_sizes)
        h_blocks = mask.complement_project(h)
        v = mask.project(h)
        return run_swt(h_blocks, v, spec.block_sizes, spec.max_order,
                       hbar=spec.hbar, res_tol=res_tol)
    if spec.method == "fd":
        # the degeneracy tolerance is fd's alone: no other routine reads it
        return run_fd(h, spec.max_order, hbar=spec.hbar, deg_tol=deg_tol, res_tol=res_tol)
    if spec.method == "ace":
        return run_ace(h, spec.build_mask(), spec.max_order, hbar=spec.hbar, res_tol=res_tol)
    if spec.method == "la":
        return run_la(h, BlockStructure(spec.block_sizes), spec.max_order,
                      hbar=spec.hbar, res_tol=res_tol)
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


def _given(doc: dict, overrides: dict, **casts) -> dict:
    """``doc``'s keys among ``casts``, converted, then the non-None ``overrides``."""
    with io.converting("experiment spec"):
        out = {key: cast(doc[key]) for key, cast in casts.items() if key in doc}
    out.update((key, value) for key, value in overrides.items() if value is not None)
    return out


def cmd_experiment(args) -> int:
    doc, _ = io.read_document(args.spec)
    kind = doc.get("kind", "fig3")
    if kind == "fig3":
        spec = EnsembleSpec(**_given(
            doc, {"count": args.instances, "seed": args.seed}, count=io.as_int,
            dim_min=io.as_int, dim_max=io.as_int, blocks_min=io.as_int, blocks_max=io.as_int,
            coupling=float, seed=io.as_int))
        rows, skipped = run_fig3_experiment(spec, **_given(doc, {}, max_order=io.as_int))
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(eta_rows_to_csv(rows))
        for index, reason in skipped:
            print(f"skipped instance {index}: {reason}", file=sys.stderr)
        return EXIT_OK
    if kind == "ace":
        params = _given(doc, {"seed": args.seed}, dim=io.as_int, seed=io.as_int,
                        max_order=io.as_int, coupling=float)
        if "dim" in params:
            params["d"] = params.pop("dim")
        demo = ace_demo(**params)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; ``parse_args`` leaves it unchanged."""
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (io.ProblemFormatError, FileNotFoundError) as err:
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

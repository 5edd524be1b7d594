"""Command-line front end: transform, rotate, oracle, experiment.

Exit codes: 0 success, 2 parse error (a document ``io`` cannot read or
convert, or a path that cannot be opened; an ``--out`` that is a directory
or lies in a missing directory is reported before any work), 3
precondition violation (a converted value that breaks a rule), 4 resonance
(a static one is a coupling between degenerate levels), 5 ill-conditioned
oracle.  Each error is reported as one ``error:`` line of at most
``MAX_MESSAGE`` characters of message.
"""

from __future__ import annotations

import argparse
import errno
import functools
import os
import sys

from . import io
from .engine import _transform, rotate_operator
from .errors import IllConditionedBlocks, PertError, ResonantDenominator
from .experiments import EnsembleSpec, ace_demo, eta_rows_to_csv, run_fig3_experiment
from .least_action import BlockStructure, run_la
from .oracle import exact_block_diagonalize, evaluate_at

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_RESONANCE = 4
EXIT_ILL_CONDITIONED = 5

#: Exit code of each error type; the first match wins, since a
#: ``ProblemFormatError`` is a ``ValueError``.
EXIT_CODES = (
    ((io.ProblemFormatError, OSError), EXIT_PARSE),
    (ResonantDenominator, EXIT_RESONANCE),
    (IllConditionedBlocks, EXIT_ILL_CONDITIONED),
    ((PertError, ValueError), EXIT_PRECONDITION),
)

#: Longest error message printed, in characters; a longer one is cut.
MAX_MESSAGE = 500

#: The keys an experiment spec of each kind admits.
FIG3_KEYS = ("kind", "count", "dim_min", "dim_max", "blocks_min", "blocks_max", "coupling",
             "seed", "max_order")
ACE_KEYS = ("kind", "dim", "seed", "max_order", "coupling")


def _run_problem(spec: io.ProblemSpec, res_tol):
    """The document's whole Hamiltonian through its method's one routine."""
    h, structure = spec.to_graded(), spec.structure()
    if spec.method == "la":
        return run_la(h, structure, spec.max_order, hbar=spec.hbar, res_tol=res_tol)
    return _transform(spec.method, h, structure, spec.max_order, spec.hbar, res_tol)


def cmd_transform(args) -> int:
    spec, digest = io.load_problem(args.input)
    if args.max_order is not None:
        spec.max_order = args.max_order
    result = _run_problem(spec, spec.resolved_tolerance(args.tol_resonance))
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
    blocks = spec.block_sizes
    if args.blocks is not None:
        with io.converting("--blocks"):
            blocks = [io.as_int(float(s)) for s in args.blocks.split(",")]
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
            "u_dagger": u_dagger,
            "h_block": h_block,
        },
    )
    return EXIT_OK


def _given(doc: dict, overrides: dict, **casts) -> dict:
    """``doc``'s keys among ``casts``, converted, then the non-None ``overrides``."""
    with io.converting("experiment spec"):
        out = {key: cast(doc[key]) for key, cast in casts.items() if key in doc}
    out.update((key, value) for key, value in overrides.items() if value is not None)
    return out


def _experiment_call(args, doc: dict, raw: bytes):
    """The experiment a spec document asks for: its kind and converted arguments."""
    kind = doc.get("kind", "fig3")
    if kind == "fig3":
        io._reject_unknown(doc, FIG3_KEYS, "fig3 spec")
        fields = _given(
            doc, {"count": args.instances, "seed": args.seed}, count=io.as_int,
            dim_min=io.as_int, dim_max=io.as_int, blocks_min=io.as_int, blocks_max=io.as_int,
            coupling=io.as_float, seed=io.as_int)
        # every field converts (exit 2) before the ensemble's rules are judged (exit 3)
        order = _given(doc, {}, max_order=io.as_int)
        return kind, {"spec": EnsembleSpec(**fields), **order}
    if kind == "ace":
        io._reject_unknown(doc, ACE_KEYS, "ace spec")
        params = _given(doc, {"seed": args.seed}, dim=io.as_int, seed=io.as_int,
                        max_order=io.as_int, coupling=io.as_float)
        if "dim" in params:
            io.check_matrix_size(params["dim"])  # judged before the instance is drawn
            params["d"] = params.pop("dim")
        return kind, params
    raise io.ProblemFormatError(f"unknown experiment kind {kind!r}")


def cmd_experiment(args) -> int:
    # the run stays outside the read: the collector is back on while it runs
    kind, params = io.read_document(args.spec, functools.partial(_experiment_call, args))
    if kind == "fig3":
        rows, skipped = run_fig3_experiment(**params)
        io.write_output(args.out, eta_rows_to_csv(rows))
        for index, reason in skipped:
            print(f"skipped instance {index}: {reason}", file=sys.stderr)
        return EXIT_OK
    demo = ace_demo(**params)
    io.write_document(
        args.out,
        {
            "before": demo["before"],
            "mask": [[bool(x) for x in row] for row in demo["mask"]],
            "after": demo["after"],
            "max_order": demo["max_order"],
            "seed": demo["seed"],
        },
    )
    return EXIT_OK


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


def _check_out(path: str) -> None:
    """Raise the ``OSError`` that writing ``path`` would, before any work is done.

    Nothing is created or truncated here.  ``io.write_output`` writes the
    file only once its command has succeeded, so a failing command leaves
    an existing ``--out`` as it was.  A successful one overwrites it in
    place and truncates it to the new length, unless it is not a regular
    file (such as /dev/null); nothing is synced, so a kill during the
    write leaves a corrupt file.
    """
    if not path:
        raise FileNotFoundError(errno.ENOENT, "the output path is empty", path)
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise FileNotFoundError(errno.ENOENT, "no such directory for the output", path)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_out(args.out)
        return args.func(args)
    except (PertError, ValueError, OSError) as err:
        code = next(code for kinds, code in EXIT_CODES if isinstance(err, kinds))
        message = str(err)
        if len(message) > MAX_MESSAGE:
            message = message[:MAX_MESSAGE] + "..."
        print(f"error: {message}", file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())

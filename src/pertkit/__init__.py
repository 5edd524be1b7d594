"""Order-by-order effective Hamiltonians for perturbed quantum systems.

Routines: standard Schrieffer-Wolff (``run_swt``), full diagonalization
(``run_fd``), arbitrary-coupling elimination (``run_ace``) and least-action
multi-block diagonalization (``run_la``), all over a shared graded-operator
algebra whose series are summed per (order, nestedness), plus exact numeric
oracles for verification.
"""

from .engine import (
    EigenFrame,
    Mask,
    TransformResult,
    rotate_operator,
    run_ace,
    run_fd,
    run_swt,
    solve_generator_order,
)
from .errors import (
    DegenerateSpectrum,
    IllConditionedBlocks,
    PertError,
    ResonantDenominator,
)
from .graded import (
    GradedOperator,
    commutator,
    identity_operator,
    zero_operator,
)
from .least_action import (
    BlockStructure,
    LASeries,
    block_project,
    compute_epsilon,
    compute_la_generator,
    run_la,
)
from .oracle import (
    NumericHamiltonian,
    OrderedEigensystem,
    convergence_scan,
    evaluate_at,
    exact_block_diagonalize,
    ordered_eigensystem,
    spectral_distance,
)

__all__ = [
    "BlockStructure",
    "DegenerateSpectrum",
    "EigenFrame",
    "GradedOperator",
    "IllConditionedBlocks",
    "LASeries",
    "Mask",
    "NumericHamiltonian",
    "OrderedEigensystem",
    "PertError",
    "ResonantDenominator",
    "TransformResult",
    "block_project",
    "commutator",
    "compute_epsilon",
    "compute_la_generator",
    "convergence_scan",
    "evaluate_at",
    "exact_block_diagonalize",
    "identity_operator",
    "ordered_eigensystem",
    "rotate_operator",
    "run_ace",
    "run_fd",
    "run_la",
    "run_swt",
    "solve_generator_order",
    "spectral_distance",
    "zero_operator",
]

__version__ = "0.1.0"

"""Exact integer-lattice machinery and elliptic-K3 fibration bookkeeping."""

__version__ = "0.1.0"

from .intmat import (
    IntMatrix,
    det_exact,
    hermite_normal_form,
    integer_kernel,
    smith_normal_form,
    solve_rational,
)
from .lattices import (
    DiscriminantGroup,
    Lattice,
    Signature,
    direct_sum,
    discriminant_group,
    make_named,
    signature,
)
from .sublattices import (
    GlueSolution,
    Overlattice,
    Sublattice,
    enumerate_even_overlattices,
    is_primitive,
    orthogonal_complement,
    solve_glue,
)
from .polynomials import (
    Poly,
    extract_rational_roots,
    squarefree_parts,
    uniform_valuations,
)
from .fibration import (
    FibrationAnalysis,
    FibrationModel,
    FiberSpec,
    NeronSeveri,
    NonMinimalModelError,
    WeierstrassModel,
    analyze_k3,
    build_neron_severi,
    extract_chain,
    kodaira_data,
)
from .fixedlocus import (
    fixed_locus_table,
    fixed_pair_search,
    lefschetz_check,
    walk_chain,
)
from .verify import VerificationReport, run_verification

__all__ = [
    "DiscriminantGroup",
    "FibrationAnalysis",
    "FibrationModel",
    "FiberSpec",
    "GlueSolution",
    "IntMatrix",
    "Lattice",
    "NeronSeveri",
    "NonMinimalModelError",
    "Overlattice",
    "Poly",
    "Signature",
    "Sublattice",
    "VerificationReport",
    "WeierstrassModel",
    "analyze_k3",
    "build_neron_severi",
    "det_exact",
    "direct_sum",
    "discriminant_group",
    "enumerate_even_overlattices",
    "extract_chain",
    "extract_rational_roots",
    "fixed_locus_table",
    "fixed_pair_search",
    "hermite_normal_form",
    "integer_kernel",
    "is_primitive",
    "kodaira_data",
    "lefschetz_check",
    "make_named",
    "orthogonal_complement",
    "run_verification",
    "signature",
    "smith_normal_form",
    "solve_glue",
    "solve_rational",
    "squarefree_parts",
    "uniform_valuations",
    "walk_chain",
    "__version__",
]

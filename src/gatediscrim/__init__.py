"""Single-query discrimination of two-qubit entangling gates.

The pipeline: put both gates in magic-basis diagonal form, read off the
relative phase vector omega, and reduce every distinguishability question
to the convex hull of the four points e^{-i omega_k} on the unit circle.
The distance from the origin to that hull is the worst-case overlap, an
optimal probe is always a product state, and local strategies match global
ones for this task.
"""

__version__ = "0.1.0"

from . import canonical, discrimination, files, geometry, numerics, oracle, svg
from .canonical import (
    GateClass,
    InteractionDecomposition,
    MAGIC_BASIS,
    build_ud,
    classify,
    extract_interaction,
    from_magic_phases,
    lambda_phases,
    relative_phases,
)
from .discrimination import (
    CaseTag,
    DiscriminationReport,
    ProbeState,
    concurrence,
    construct_probe,
    discriminate,
    error_probability,
    fidelity,
    perfectly_distinguishable,
)
from .geometry import (
    HullResult,
    PhaseGroup,
    arc_spread,
    hull_of_phases,
)
from .numerics import (
    is_unitary,
    unitary_eigenphases,
)
from .oracle import (
    SearchConfig,
    ShotOutcome,
    helstrom_simulate,
    min_over_all_states,
    min_over_product_states,
)

__all__ = [
    "__version__",
    "GateClass",
    "InteractionDecomposition",
    "MAGIC_BASIS",
    "build_ud",
    "classify",
    "extract_interaction",
    "from_magic_phases",
    "lambda_phases",
    "relative_phases",
    "CaseTag",
    "DiscriminationReport",
    "ProbeState",
    "concurrence",
    "construct_probe",
    "discriminate",
    "error_probability",
    "fidelity",
    "perfectly_distinguishable",
    "HullResult",
    "PhaseGroup",
    "arc_spread",
    "hull_of_phases",
    "is_unitary",
    "unitary_eigenphases",
    "SearchConfig",
    "ShotOutcome",
    "helstrom_simulate",
    "min_over_all_states",
    "min_over_product_states",
]

"""Single-query discrimination of two-qubit entangling gates.

The pipeline: put both gates in magic-basis diagonal form, read off the
relative phase vector omega, and reduce every distinguishability question
to the convex hull of the four points e^{-i omega_k} on the unit circle.
The distance from the origin to that hull is the worst-case overlap, an
optimal probe is always a product state, and local strategies match global
ones for this task.

`import gatediscrim` runs no submodule: each export, and each submodule
named in `_EXPORTS`, is imported on first access (PEP 562).
"""

import importlib

# set at import: the submodules that stamp it on their output import it
__version__ = "0.1.0"

# each submodule and the names the package exports from it
_EXPORTS = {
    "canonical": (
        "GateClass",
        "InteractionDecomposition",
        "MAGIC_BASIS",
        "build_ud",
        "classify",
        "extract_interaction",
        "from_magic_phases",
        "lambda_phases",
        "relative_phases",
    ),
    "discrimination": (
        "CaseTag",
        "DiscriminationReport",
        "ProbeState",
        "concurrence",
        "construct_probe",
        "discriminate",
        "error_probability",
    ),
    "files": (),
    "geometry": ("HullResult", "arc_spread", "hull_of_phases"),
    "numerics": ("unitary_eigenphases",),
    "oracle": (
        "SearchConfig",
        "ShotOutcome",
        "helstrom_simulate",
        "min_over_all_states",
        "min_over_product_states",
    ),
    "svg": (),
}
# name -> the submodule that holds it, a submodule's name -> itself
_HOME = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = ["__version__", *(name for names in _EXPORTS.values() for name in names)]


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value

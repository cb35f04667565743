"""Discrete potential theory on level-graded electrical networks.

Each public name is imported from its module on first access (PEP 562), so
`import bharm.cli` loads only the modules that every subcommand needs, and a
subcommand loads its solver module when it runs.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it exports
_EXPORTS = {
    "diagram": (
        "Diagram", "ExtensionRule", "GeneralGraph", "VertexId", "Violation",
        "check_bratteli_structure", "diagram_from_graph", "extract_maximal_bratteli",
        "gen_binary_tree", "gen_binary_tree_radial", "gen_bottleneck", "gen_ladder",
        "gen_pascal", "gen_stationary", "make_diagram", "validate",
    ),
    "energy": (
        "CurrentBalanceReport", "DissipationReport", "EnergyReport", "current_balance",
        "dissipation_check", "energy_lower_bound", "energy_norm", "resistance_distance",
        "stationary_energy_criterion",
    ),
    "harmonic": (
        "DimensionResult", "SolveReport", "harm_dimension", "harmonicity_check",
        "solve_chain", "solve_dipole", "solve_monopole",
    ),
    "operators": (
        "LevelFunction", "SpectralBoundReport", "build_level_operators",
        "laplacian_apply", "markov_apply", "spectral_bound_check",
    ),
    "pathspace": (
        "DipoleMatrixResult", "DirichletSystem", "GreenSolve", "PoissonResult",
        "TransienceReport", "WalkConfig", "WalkEstimates", "dipole_green",
        "dipole_matrix_M", "green_exact", "green_identity_report", "monopole_green",
        "poisson_kernel", "simulate_walks", "transience_report",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:  # a submodule: `import bharm` then `bharm.harmonic` works
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))

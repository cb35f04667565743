import ast
import importlib
import importlib.metadata
import importlib.util
import pathlib
import tomllib

import pytest

import bharm

# the public names of `bharm`
PUBLIC = [
    "CurrentBalanceReport", "Diagram", "DimensionResult", "DipoleMatrixResult",
    "DirichletSystem", "DissipationReport", "EnergyReport", "ExtensionRule", "GeneralGraph",
    "GreenSolve", "LevelFunction", "PoissonResult", "SolveReport", "SpectralBoundReport",
    "TransienceReport", "VertexId", "Violation", "WalkConfig", "WalkEstimates",
    "build_level_operators", "check_bratteli_structure", "current_balance",
    "diagram_from_graph", "dipole_green", "dipole_matrix_M", "dissipation_check",
    "energy_lower_bound", "energy_norm", "extract_maximal_bratteli", "gen_binary_tree",
    "gen_binary_tree_radial", "gen_bottleneck", "gen_ladder", "gen_pascal", "gen_stationary",
    "green_exact", "green_identity_report", "harm_dimension", "harmonicity_check",
    "laplacian_apply", "make_diagram", "markov_apply", "monopole_green", "poisson_kernel",
    "resistance_distance", "simulate_walks", "solve_chain", "solve_dipole", "solve_monopole",
    "spectral_bound_check", "stationary_energy_criterion", "transience_report", "validate",
]


def test_all_lists_the_public_names():
    assert len(PUBLIC) == 53
    assert sorted(bharm.__all__) == PUBLIC


@pytest.mark.parametrize("name", PUBLIC)
def test_each_public_name_is_its_modules_object(name):
    obj = getattr(bharm, name)
    home = importlib.import_module(obj.__module__)
    assert home.__name__.startswith("bharm.") and getattr(home, name) is obj
    namespace = {}
    exec(f"from bharm import {name}", namespace)
    assert namespace[name] is obj


def test_star_import_and_dir_give_every_public_name():
    namespace = {}
    exec("from bharm import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC
    assert set(PUBLIC) <= set(dir(bharm))
    assert {"__version__", "__all__"} <= set(dir(bharm))


def test_every_function_the_benchmark_tracer_patches_exists():
    # perfbench/layertrace.py patches these by name; a missing one fails
    # `perfbench/run.py --trace 1` and the perfbench tests with AttributeError
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "layertrace.py"
    spec = importlib.util.spec_from_file_location("layertrace", path)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    for _, module, attribute in layertrace.TARGETS:
        obj = importlib.import_module(module)
        for part in attribute.split("."):
            obj = getattr(obj, part)
        assert callable(obj)


def _referenced_names(path: pathlib.Path) -> set:
    """The names that the code of one source file references: each
    ast.Name, the attribute of each ast.Attribute and each imported name.
    A definition is not a reference, and docstrings and other strings do
    not count."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
    return names


def test_every_public_name_is_reached_by_the_library_or_a_paper_criterion():
    # a name that only its own unit tests reach is either exposed by a
    # command or a criterion, or deleted
    root = pathlib.Path(__file__).parents[1]
    files = [p for p in sorted((root / "src" / "bharm").glob("*.py")) if p.name != "__init__.py"]
    used = set().union(*map(_referenced_names, files + [root / "tests" / "test_acceptance.py"]))
    assert sorted(set(bharm.__all__) - used) == []


def test_submodules_are_attributes_of_the_package():
    for name in ("diagram", "energy", "harmonic", "operators", "pathspace"):
        assert getattr(bharm, name) is importlib.import_module(f"bharm.{name}")


def test_an_unknown_name_is_an_attribute_error_that_names_it():
    with pytest.raises(AttributeError, match="module 'bharm' has no attribute 'no_such_name'"):
        bharm.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from bharm import no_such_name", {})
    assert not hasattr(bharm, "no_such_name")


def _floor(spec: str) -> tuple:
    """The version of a '>=X.Y' requirement, as a tuple of ints."""
    spec = spec.replace(" ", "")
    assert spec.startswith(">=") and "," not in spec, spec
    return tuple(int(part) for part in spec[2:].split("."))


def test_the_python_floor_is_one_the_dependencies_install_on():
    # pip installs neither numpy nor scipy below their own Requires-Python,
    # so a lower floor of bharm's names a Python it cannot run on
    path = pathlib.Path(__file__).parents[1] / "pyproject.toml"
    ours = _floor(tomllib.loads(path.read_text())["project"]["requires-python"])
    for dist in ("numpy", "scipy"):
        theirs = _floor(importlib.metadata.metadata(dist)["Requires-Python"])
        assert ours >= theirs, f"requires-python {ours} is below {dist}'s {theirs}"

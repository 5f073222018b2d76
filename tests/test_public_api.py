"""The package's public name list and the modules' imports."""

import ast
import importlib
import inspect
import pathlib

import latgauss
from latgauss import reductions

SRC = pathlib.Path(latgauss.__file__).parent

# importable from their modules only: result types, the experiment config,
# the generator spec, the basis text format and decoder or sparsify internals
MODULE_ONLY = {
    "advice": ("default_denom_floor",),
    "decoder": ("DecodeResult", "iteration_count"),
    "enumeration": ("BallPoints",),
    "experiments": ("EXPERIMENTS", "ExperimentConfig", "ExperimentReport", "parse_config"),
    "gaussian": ("CertifiedSum",),
    "generators": ("LatticeGeneratorSpec",),
    "lattice": ("format_basis", "parse_basis"),
    "reductions": ("SparseCoset", "sparse_coset_sample"),
}

# not public: each duplicated a public path, is an internal helper, or is
# one of the module-only names above
REMOVED = (
    "DenominatorTooSmall",
    "config",
    "config_hash",
    "generate_advice",
    "is_prime",
    "master_indices",
    "periodic_gaussian",
    "preprocess",
    "span_coefficients",
    "sparsify_reduce",
) + tuple(name for names in MODULE_ONLY.values() for name in names)

# decoder.py keeps lattice_coefficients importable without calling it: the
# benchmark's tracer self-test looks the function up in that module
UNUSED_ALLOWED = {("decoder.py", "lattice_coefficients")}


def test_all_is_sorted_unique_and_resolvable():
    names = latgauss.__all__
    assert len(set(names)) == len(names) <= 43
    assert names == sorted(names)
    for name in names:
        assert hasattr(latgauss, name), name


def test_removed_names_are_gone():
    for name in REMOVED:
        assert not hasattr(latgauss, name), name
        assert name not in latgauss.__all__


# settable values that only their defaults ever reached; each is a constant now
RETIRED_KEYWORDS = {"budget", "rel_tol", "advice_factor", "denom_floor", "factor"}


def keywords(fn):
    """Parameter names of a callable; a class is read through its __init__."""
    return set(inspect.signature(fn.__init__ if inspect.isclass(fn) else fn).parameters)


def test_retired_keywords_are_gone():
    entry_points = [getattr(latgauss, name) for name in latgauss.__all__]
    entry_points += [
        getattr(importlib.import_module(f"latgauss.{module}"), name)
        for module, names in MODULE_ONLY.items() for name in names
    ]
    entry_points += [reductions.oracle_inner, reductions.bdd_inner]
    for fn in entry_points:
        # BudgetExceeded reports the budget it ran past; that is not a setting
        if callable(fn) and fn is not latgauss.BudgetExceeded:
            assert not keywords(fn) & RETIRED_KEYWORDS, fn
    assert "radius" not in keywords(latgauss.closest_vector)
    assert "seed" not in keywords(latgauss.sample_lattice_gaussian)


def unused_imports(path):
    """Module-level imported names that nothing else in the module mentions."""
    tree = ast.parse(path.read_text())
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    } - {"annotations"}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        # names re-exported through __all__ count as used
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts}
    return sorted(name for name in imported if name not in used)


def test_no_module_has_an_unused_import():
    found = [
        (path.name, name)
        for path in sorted(SRC.glob("*.py"))
        for name in unused_imports(path)
        if (path.name, name) not in UNUSED_ALLOWED
    ]
    assert not found, found

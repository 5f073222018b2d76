"""The package's public name list and the modules' imports."""

import ast
import inspect
import pathlib

import latgauss
from latgauss import reductions

SRC = pathlib.Path(latgauss.__file__).parent

# not public: each duplicated a public path or is an internal helper
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
)

# decoder.py keeps lattice_coefficients importable without calling it: the
# benchmark's tracer self-test looks the function up in that module
UNUSED_ALLOWED = {("decoder.py", "lattice_coefficients")}


def test_all_is_sorted_unique_and_resolvable():
    names = latgauss.__all__
    assert len(set(names)) == len(names)
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

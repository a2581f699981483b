"""The package's layout: modules import each other at the top only, the
public names are declared once, by the package's imports, and resolve,
the integer- and real-argument rules, the name check, the way a refusal
shows a value and the float model's constants each have one home, the
CLI runs no solver itself, and the run records store only what they cannot
derive."""

import ast
import dataclasses
from pathlib import Path

import tsphnn as T

PACKAGE = Path(T.__file__).parent


def _imports_tsphnn(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "tsphnn"
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "tsphnn" for alias in node.names)
    return False


def test_no_function_imports_a_package_module():
    """A function-level import of a package module hides an import cycle;
    each module's dependencies are its top-level imports."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found |= {
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(func)
                    if _imports_tsphnn(node)
                }
    assert sorted(found) == []


def test_public_names_resolve_and_are_listed_once():
    missing = [name for name in T.__all__ if not hasattr(T, name)]
    repeated = sorted({name for name in T.__all__ if T.__all__.count(name) > 1})
    assert missing == [] and repeated == []


def test_public_names_are_the_package_imports():
    """``__all__`` is exactly the names that ``__init__.py``'s relative
    imports bind, so a stray top-level name cannot become public unnoticed
    and no imported name can drop out."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
    }
    assert imported == set(T.__all__)


RANGE_WORDS = ("must be >=", "must be <=", "must be an integer", "out of range")


def test_integer_rule_is_worded_only_by_check_int():
    """Outside ``errors.py``, no raise words an integer argument's type or
    range refusal itself: every such check calls ``errors.check_int``."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "errors.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                texts = [
                    part.value
                    for part in ast.walk(node.exc)
                    if isinstance(part, ast.Constant) and isinstance(part.value, str)
                ]
                if any(word in text for text in texts for word in RANGE_WORDS):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


# The words of a real argument's type, range or finiteness refusal; a
# refusal of computed data, such as a distance matrix's "non-finite
# entries" or an overflow, words none of them.
REAL_WORDS = (
    "a real number",
    "must be finite",
    "and finite",
    "positive",
    "nonnegative",
    "must be in (",
    "non-finite coordinates",
)


def test_real_rule_is_worded_only_by_check_real():
    """Outside ``errors.py``, no raise words a real argument's type, range
    or finiteness refusal itself: every such check calls
    ``errors.check_real``."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "errors.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                texts = [
                    part.value
                    for part in ast.walk(node.exc)
                    if isinstance(part, ast.Constant) and isinstance(part.value, str)
                ]
                if any(word in text for text in texts for word in REAL_WORDS):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


SOLVERS = {
    "anneal",
    "run",
    "run_lockstep",
    "brute_force_optimum",
    "greedy_nearest_neighbor",
    "two_opt",
    "three_opt",
    "solve_hybrid",
    "distance_matrix",
}


def test_cli_imports_no_solver():
    """Each method's start rule lives in ``pipeline.solve``: a CLI that
    imports a solver could fork one again."""
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    imported = {
        alias.name.split(".")[-1]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert sorted(imported & SOLVERS) == []


def _raises_outside_errors():
    """Each ``raise`` with an exception outside ``errors.py``, by place."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "errors.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                yield f"{path.name}:{node.lineno}", node.exc


def test_refusals_show_values_only_through_quote():
    """No raise outside ``errors.py`` pastes a value's ``repr`` into its
    message, which can be unbounded or fail: ``errors.quote`` shows it."""
    found = [
        place
        for place, exc in _raises_outside_errors()
        if any(
            isinstance(part, ast.FormattedValue) and part.conversion == ord("r")
            for part in ast.walk(exc)
        )
    ]
    assert found == []


def test_names_are_refused_only_by_check_choice():
    """Outside ``errors.py``, no raise words an unknown name itself: each
    name from a fixed set passes ``errors.check_choice``.  ``get_builtin``'s
    ``KeyError`` is the one exception."""
    found = [
        place
        for place, exc in _raises_outside_errors()
        if not (isinstance(exc, ast.Call) and getattr(exc.func, "id", None) == "KeyError")
        and any(
            isinstance(part, ast.Constant) and "unknown " in str(part.value)
            for part in ast.walk(exc)
        )
    ]
    assert found == []


def _is_float_model_constant(node) -> bool:
    """A power 2**-k or 2.0**-k of literals, or an ``np.finfo(...).eps``."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        return (
            isinstance(node.left, ast.Constant)
            and node.left.value == 2
            and isinstance(node.right, ast.UnaryOp)
            and isinstance(node.right.op, ast.USub)
        )
    if isinstance(node, ast.Attribute) and node.attr == "eps" and isinstance(node.value, ast.Call):
        func = node.value.func
        return getattr(func, "attr", getattr(func, "id", None)) == "finfo"
    return False


def test_float_model_constants_live_only_in_rounding():
    """Outside ``_rounding.py``, no module writes a unit roundoff, margin or
    underflow term as a ``2.0**-k`` literal or an ``np.finfo(...).eps``:
    every written rounding bound takes its constants from
    ``tsphnn._rounding``, whose float model its proof cites."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "_rounding.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if _is_float_model_constant(node)
        ]
    assert found == []


def test_run_records_store_only_their_underivable_facts():
    """Each run record's fields are exactly the facts it cannot derive;
    every other fact it offers is a read-only property, so a derivable
    field cannot come back unnoticed."""
    stored = {
        T.SaTrace: ["current_length", "start_length", "final_tour", "config"],
        T.HopfieldResult: ["tour", "max_update_delta_e", "m", "p", "rows"],
        T.HybridReport: ["instance_id", "sa_tour", "sa_trace", "hnn_result", "hnn_length"],
    }
    for record, names in stored.items():
        assert [f.name for f in dataclasses.fields(record)] == names, record.__name__

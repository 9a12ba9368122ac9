"""Every module under ``src/`` uses what it imports and holds no
``assert``, every budget is read somewhere, and so is every private
module-level name.

No linter ships with the project, so this reads each module's syntax tree
with the standard library: a name bound by an import must be read at least
once, in code or as a string annotation.  Package ``__init__`` modules
import to re-export and are skipped.  Every public name in
`tpratio.budgets`, the one home for budgets, must be read by some other
module under ``src/``, so no budget outlives the check it names.  An
``assert`` is stripped under ``python -O``, so a check the library relies
on raises instead.  A private (``_``-prefixed) function, class or
constant defined at module level must be read somewhere under ``src/``, so
a helper a refactor leaves behind fails here.  So must a public function or
class, unless a package ``__init__`` re-exports it: one that only the tests
call belongs in the tests.  Inside a function, likewise, every local name
bound by an assignment, a loop, a ``with``, an ``except`` or a ``:=`` must
be read, by the function or by a function nested in it; ``_`` is exempt.
Each public name of `tpratio.tpcore` has two import paths, its module and
`tpratio`: the package imports nothing and lists nothing in ``__all__``,
binds no public name but its four modules, and a star import of either
package succeeds, binding the re-exported names from `tpratio` only.
Each screen's violation
(`St0Violation`, `ConditionMViolation`) is constructed at one site under
``src/``, so a failing verdict's fields are copied into it once.
Numbers and polynomials keep one minor kernel each: no module under
`tpratio.tpcore` imports `tpratio.polycheck`, and `tpratio.polycheck`
imports from `tpratio.tpcore` only `network`, the ring-generic product.
The cone checker `verify_certificate`, and every module-level name it
reaches, reaches none of the private names the solver `cone_membership`
reaches, past the rank check both make: the checker shares no code with
the solver it re-checks.
"""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
BUDGETS = SRC / "tpratio" / "budgets.py"
TPCORE_INIT = SRC / "tpratio" / "tpcore" / "__init__.py"


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line that binds it."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _identifier_strings(tree: ast.Module) -> set[str]:
    """Every string that is an identifier (a string annotation such as
    ``-> "TPMatrix"``)."""
    return {
        n.value
        for n in ast.walk(tree)
        if isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier()
    }


def _read(tree: ast.Module) -> set[str]:
    """Every name the module reads, and every identifier string."""
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _identifier_strings(tree)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = _read(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in read}
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: str(p.relative_to(SRC)))
def test_no_assert(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert not lines, f"{path.name}: assert on lines {lines}"


# the names `tpratio.tpcore` re-exported until it became a plain package,
# by defining module
TPCORE_NAMES = {
    "grassmann": ["eval_ratio", "plucker_eval", "reverse_matrix", "shift_matrix"],
    "matrices": [
        "TPMatrix",
        "det",
        "network_matrix",
        "random_network",
        "random_tp",
        "verify_tp",
    ],
    "network": ["NetworkParams", "staircase_word", "variable_names"],
    "witnesses": [
        "THRESHOLD",
        "T_LADDER",
        "Evidence",
        "Inconclusive",
        "counterexample_matrix",
        "falsify",
        "witness_family",
        "witness_matrix",
    ],
}


def test_tpcore_names_import_from_their_module_and_the_root():
    import tpratio
    import tpratio.tpcore

    for module, names in TPCORE_NAMES.items():
        home = importlib.import_module(f"tpratio.tpcore.{module}")
        for name in names:
            assert getattr(tpratio, name) is getattr(home, name), name
    public = {name for name in vars(tpratio.tpcore) if not name.startswith("_")}
    assert public == set(TPCORE_NAMES)


def test_tpcore_exports_what_it_imports():
    import tpratio.tpcore

    # a plain package: no import to re-export and no `__all__` to keep in step
    imported = set(_imported(ast.parse(TPCORE_INIT.read_text(encoding="utf-8"))))
    assert set(getattr(tpratio.tpcore, "__all__", ())) == imported == set()


@pytest.mark.parametrize("package", ["tpratio", "tpratio.tpcore"])
def test_star_import(package):
    namespace = {}
    exec(f"from {package} import *", namespace)
    # the root re-exports the `tpcore` names; `tpratio.tpcore` binds none
    assert ("plucker_eval" in namespace) == (package == "tpratio")


def test_modules_found():
    assert len(MODULES) >= 10


def _budgets_read(tree: ast.Module) -> set[str]:
    """The budgets a module reads: imported from `budgets` and read, or
    read as an attribute of a module bound to the name ``budgets``."""
    imported = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "budgets"
        for alias in node.names
    }
    read = _read(tree)
    return {name for bound, name in imported.items() if bound in read} | {
        n.attr
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "budgets"
    }


def test_every_budget_is_read():
    tree = ast.parse(BUDGETS.read_text(encoding="utf-8"))
    budgets = {
        target.id
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and not target.id.startswith("_")
    }
    assert budgets
    read = set()
    for path in MODULES:
        if path != BUDGETS:
            read |= _budgets_read(ast.parse(path.read_text(encoding="utf-8")))
    assert not budgets - read, f"budgets no module under src/ reads: {sorted(budgets - read)}"


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Each private name the module defines at its top level, with its line;
    dunders such as ``__all__`` are left out."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [ast.Name(node.name)]
        elif isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id.startswith("_") and not target.id.endswith("__"):
                defined[target.id] = node.lineno
    return defined


def _loaded(tree: ast.Module) -> set[str]:
    """Every name the module loads, as a name, an attribute or an identifier
    string; a name only assigned to is not loaded."""
    return {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    } | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)} | _identifier_strings(tree)


def test_every_private_name_is_read():
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.rglob("*.py"))}
    read = set().union(*map(_loaded, trees.values()))
    dead = [
        f"{path.relative_to(SRC)}:{line} {name}"
        for path, tree in trees.items()
        for name, line in _private_definitions(tree).items()
        if name not in read
    ]
    assert not dead, f"private names nothing under src/ reads: {dead}"


def test_every_public_definition_is_read_or_exported():
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.rglob("*.py"))}
    read = set().union(*map(_loaded, trees.values()))
    exported = {
        alias.name
        for path, tree in trees.items()
        if path.name == "__init__.py"
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    unused = [
        f"{path.relative_to(SRC)}:{node.lineno} {node.name}"
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in read | exported
    ]
    assert not unused, f"public definitions nothing under src/ reads or re-exports: {unused}"


def _unused_locals(func: ast.FunctionDef | ast.AsyncFunctionDef) -> dict[str, int]:
    """Each name ``func`` binds but never reads, with its first binding line.
    Reads in nested functions count; ``global``/``nonlocal`` names and
    parameters are not locals bound here."""
    bound, read, declared = {}, set(), set()
    for node in ast.walk(func):
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Store):
                bound.setdefault(node.id, node.lineno)
            else:
                read.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.setdefault(node.name, node.lineno)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
    return {
        name: line
        for name, line in bound.items()
        if name != "_" and name not in read and name not in declared
    }


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_local(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = [
        f"{func.name}:{line} {name}"
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for name, line in _unused_locals(func).items()
    ]
    assert not unused, f"{path.name}: locals bound but never read {unused}"


@pytest.mark.parametrize("error", ["St0Violation", "ConditionMViolation"])
def test_screen_violation_built_at_one_site(error):
    sites = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and error in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert len(sites) == 1, f"{error} constructed at {sites}"


def _import_targets(path: Path) -> set[str]:
    """The dotted names of the modules ``path`` imports, relative imports
    resolved; ``from package import module`` names the module."""
    package = path.relative_to(SRC).parent.parts
    targets = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            targets |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) + 1 - node.level] if node.level else ()
            module = ".".join([*base, *([node.module] if node.module else [])])
            for alias in node.names:
                sub = f"{module}.{alias.name}"
                found = (SRC / sub.replace(".", "/")).with_suffix(".py").exists()
                targets.add(sub if found else module)
    return targets


def test_numbers_and_polynomials_keep_one_minor_kernel_each():
    tpcore = sorted((SRC / "tpratio" / "tpcore").glob("*.py"))
    assert {p.name for p in tpcore} >= {"grassmann.py", "matrices.py", "network.py", "witnesses.py"}
    for path in tpcore:
        assert "tpratio.polycheck" not in _import_targets(path), path.name
    polycheck = _import_targets(SRC / "tpratio" / "polycheck.py")
    assert "tpratio.combinatorics" in polycheck  # relative imports resolve
    assert {t for t in polycheck if t.startswith("tpratio.tpcore")} == {"tpratio.tpcore.network"}


CONELAB = SRC / "tpratio" / "conelab.py"


def _reachable(tree: ast.Module, root: str) -> set[str]:
    """The module-level names reached from the definition of ``root``: the
    names it loads, then the names the module-level definitions of those
    load, and so on."""
    definitions = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            definitions[node.name] = node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    definitions[target.id] = node
    reached, todo = set(), [root]
    while todo:
        name = todo.pop()
        if name in reached or name not in definitions:
            continue
        reached.add(name)
        todo += _loaded(definitions[name])
    return reached


def _solver_names_the_checker_reaches(tree: ast.Module) -> set[str]:
    """The private names reached from both `cone_membership` and
    `verify_certificate`, past the rank check they share."""
    solver = {n for n in _reachable(tree, "cone_membership") if n.startswith("_")}
    assert {"_generator_basis", "_pivot", "_reduce", "_functional"} <= solver
    return solver & _reachable(tree, "verify_certificate") - {"_check_rank"}


def test_checker_shares_nothing_with_the_solver():
    # the trust model: `verify_certificate` and its cache re-check a verdict
    # without reading the solver's cached basis or its pivoting helpers
    tree = ast.parse(CONELAB.read_text(encoding="utf-8"))
    assert "_generator_vectors" in _reachable(tree, "verify_certificate")
    shared = _solver_names_the_checker_reaches(tree)
    assert not shared, f"verify_certificate reaches the solver's {sorted(shared)}"


def test_checker_independence_rule_bites():
    # the same rule on a copy of the module whose checker reads the solver's basis
    tree = ast.parse(CONELAB.read_text(encoding="utf-8"))
    checker = next(
        n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "verify_certificate"
    )
    checker.body.insert(0, ast.parse("_generator_basis(rank)").body[0])
    # reached through the basis: the pivots that build it
    assert _solver_names_the_checker_reaches(tree) == {"_generator_basis", "_pivot", "_reduce"}

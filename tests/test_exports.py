"""Every exported name resolves: a deletion may not leave an __all__ entry
behind.  Every name a submodule exports, and every public method or property
of a package class, is also used by the package itself, unless it is listed
below with the test that uses it, and every defaulted parameter is set by
some package call.  Phi's integer row form stays in presentations.  The
package imports nothing outside the standard library.
The tests' oracles (tests/oracles.py) stay outside the package and reach it
through twistalex.__all__ alone."""

from __future__ import annotations

import ast
import importlib
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import twistalex

MODULES = ["twistalex"] + [f"twistalex.{m.name}" for m in pkgutil.iter_modules(twistalex.__path__)]

# Exported for the tests alone: each name and the test file that calls it.
USED_ONLY_BY_TESTS = {
    # Jobs read the germ complexes parse_job built (JobSpec.chain_complex);
    # kept for the local divisibility check of ROADMAP item 5.
    "local_polynomial": "test_obstructions.py",
}

# Public methods and properties that the tests alone call, by name, each
# with a test file that calls it.
METHODS_USED_ONLY_BY_TESTS = {
    # bench/spans.py wraps these three by name (its METHODS); they leave
    # with the mend of the bench tracer (ROADMAP item 1).  No job calls
    # word_image or element_image, and the Wada minor is one determinant.
    "word_image": "test_fox_pass.py",
    "element_image": "test_presentations.py",
    "minors_gcd": "test_acceptance.py",
    # bench/spans.py complex_sizes reads it for homology.max_span.
    "span": "test_cyclotomic_oracle.py",
    # The involution: test_the_ratio_of_a_unitary_representation_is_reciprocal
    # checks reciprocity with it, ahead of a job check (ROADMAP item 7).
    "bar": "test_reciprocity_oracle.py",
    # Read by bar alone.
    "high": "test_cyclotomic_oracle.py",
    "conj": "test_cyclotomic_oracle.py",
}


def _package_trees():
    package = Path(twistalex.__file__).parent
    return [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))]


def _names_used(trees, attributes_only=False) -> set:
    """Names read as obj.name, or as a bare name unless attributes_only,
    except inside a function of the same name: a method that only calls its
    namesake on its parts (as RationalFunction.bar does on its numerator and
    denominator) is not a use.  A read inside a function named on
    USED_ONLY_BY_TESTS or METHODS_USED_ONLY_BY_TESTS is not a use either:
    what only test-only code reads is test-only too.  A method is only ever
    read as obj.name, so a local variable or parameter of its name is not a
    use of it."""
    used = set()
    test_only = USED_ONLY_BY_TESTS.keys() | METHODS_USED_ONLY_BY_TESTS.keys()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name in test_only:
                return
            enclosing = enclosing | {node.name}
        name = node.attr if isinstance(node, ast.Attribute) else None
        if isinstance(node, ast.Name) and not attributes_only:
            name = node.id
        if name is not None and name not in enclosing:
            used.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for tree in trees:
        visit(tree, frozenset())
    return used


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names missing attributes: {missing}"
    assert len(set(exported)) == len(exported)


def test_package_exports_resolve_to_objects():
    assert twistalex.__all__
    for name in twistalex.__all__:
        assert getattr(twistalex, name) is not None


def test_every_submodule_export_has_a_use():
    used = _names_used(_package_trees())
    unused = [
        f"{module_name}.{name}"
        for module_name in MODULES[1:]
        for name in getattr(importlib.import_module(module_name), "__all__", [])
        if name not in used and name not in USED_ONLY_BY_TESTS
    ]
    assert not unused, f"exported, but nothing in the package uses: {unused}"
    tests = Path(__file__).parent
    for name, test_file in USED_ONLY_BY_TESTS.items():
        assert name not in used, f"{name} has a use in the package; drop it from the list"
        assert name in (tests / test_file).read_text(encoding="utf-8"), (name, test_file)


def test_every_public_method_has_a_use():
    # A method or property counts as used when it is read as obj.name
    # somewhere in the package; its own definition does not count.
    trees = _package_trees()
    used = _names_used(trees, attributes_only=True)
    methods = {
        f"{cls.name}.{node.name}"
        for tree in trees
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_")
    }
    unused = sorted(m for m in methods if m.split(".")[1] not in used | METHODS_USED_ONLY_BY_TESTS.keys())
    assert not unused, f"public methods that nothing in the package uses: {unused}"
    tests = Path(__file__).parent
    for name, test_file in METHODS_USED_ONLY_BY_TESTS.items():
        assert name not in used, f"{name} has a use in the package; drop it from the list"
        assert re.search(rf"\.{name}\b", (tests / test_file).read_text(encoding="utf-8")), (name, test_file)


# Defaulted parameters that no package call sets, each with its reason.
OPTIONS_SET_BY_NO_PACKAGE_CALL = {
    # The console-script entry point reads sys.argv when called bare.
    ("main", "argv"),
}


def _options(tree):
    """(function, parameter, positional index) for every parameter with a
    default of a function or non-dunder method, the index counted among the
    arguments a call passes (None for a keyword-only one)."""
    methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for node in cls.body}
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or fn.name.startswith("__"):
            continue
        args = fn.args
        positional = args.posonlyargs + args.args
        static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
        skip = 1 if id(fn) in methods and not static else 0
        for k in range(len(positional) - len(args.defaults), len(positional)):
            yield fn.name, positional[k].arg, k - skip
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield fn.name, arg.arg, None


def _sets(call, parameter, index) -> bool:
    # By keyword, by position, or through ** or *.
    if any(kw.arg in (parameter, None) for kw in call.keywords):
        return True
    if index is None:
        return False
    return len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args)


def test_every_option_is_set_by_some_package_call():
    # A default that every package call keeps is the only behaviour the
    # package has, so the parameter is dead weight.  Calls are matched by
    # the bare name of the function, as methods are above.
    trees = _package_trees()
    calls: dict = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
                calls.setdefault(name, []).append(node)
    unset = sorted(
        f"{name}.{parameter}"
        for tree in trees
        for name, parameter, index in _options(tree)
        if name not in USED_ONLY_BY_TESTS
        and (name, parameter) not in OPTIONS_SET_BY_NO_PACKAGE_CALL
        and not any(_sets(call, parameter, index) for call in calls.get(name, ()))
    )
    assert not unset, f"options that no package call sets: {unset}"


# Phi's integer row form: the one Fox pass, the letter table and identity
# rows of Representation, and the row arithmetic of FieldContext.  Only
# presentations, which evaluates Phi, and scalars, which defines the
# arithmetic, name them; the rest reads fox_row and fox_identity.
ROW_FORM_INTERNALS = {"_fox_pass", "_letter_rows", "_identity", "_matrix_product"}
ROW_FORM_OWNERS = {"presentations.py", "scalars.py"}


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(Path(twistalex.__file__).parent.glob("*.py")) if p.name not in ROW_FORM_OWNERS],
    ids=lambda p: p.name,
)
def test_phi_row_form_stays_in_presentations(path):
    named = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            named.update(alias.name for alias in node.names)
    assert not named & ROW_FORM_INTERNALS, f"{path.name} names {sorted(named & ROW_FORM_INTERNALS)}"


def test_every_method_the_bench_tracer_wraps_exists():
    # bench/spans.py wraps each METHODS entry through vars(cls)[name], so a
    # deleted or renamed method would end every traced run in a KeyError.
    # The file is parsed, not run.
    spans = Path(__file__).parent.parent / "bench" / "spans.py"
    tree = ast.parse(spans.read_text(encoding="utf-8"))
    methods = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["METHODS"]
    )
    assert methods
    for module, cls, name, _ in methods:
        owner = getattr(importlib.import_module(f"twistalex.{module}"), cls)
        assert name in vars(owner), f"bench/spans.py wraps {cls}.{name}, which {module} does not define"


def test_the_runtime_imports_only_the_standard_library():
    # Every absolute import of a package module names a standard library
    # module; relative imports stay inside the package.
    imported = {}
    for path in sorted(Path(twistalex.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                imported.setdefault(name.split(".")[0], path.name)
    assert "fractions" in imported
    assert {name: where for name, where in imported.items() if name not in sys.stdlib_module_names} == {}


ORACLES = Path(__file__).parent / "oracles.py"


def test_the_oracles_reach_the_package_through_its_exports_alone():
    # tests/oracles.py checks the engine from outside: it imports the
    # standard library and names of twistalex.__all__, from twistalex itself
    # (no submodule, no _ name), and reads no private attribute.  So the
    # symbolic Fox derivative and the samplers share no code path with the
    # engine's internals.
    for node in ast.walk(ast.parse(ORACLES.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name.split(".")[0] in sys.stdlib_module_names, alias.name
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, ast.unparse(node)
            if node.module == "twistalex":
                for alias in node.names:
                    assert alias.name in twistalex.__all__ and not alias.name.startswith("_"), alias.name
            else:
                assert node.module.split(".")[0] in sys.stdlib_module_names, node.module
        elif isinstance(node, ast.Attribute):
            private = node.attr.startswith("_") and not node.attr.endswith("__")
            assert not private, ast.unparse(node)


def test_the_package_defines_no_test_oracle():
    oracles = {
        node.name for node in ast.parse(ORACLES.read_text(encoding="utf-8")).body if isinstance(node, ast.FunctionDef)
    }
    defined = {
        node.name
        for tree in _package_trees()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert oracles and not oracles & defined, sorted(oracles & defined)

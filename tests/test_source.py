"""Rules on the package source itself."""

import ast
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "maltsev"


def test_no_assert_statements():
    # Correctness checks must raise, not assert: python -O strips asserts.
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_per_assignment_evaluation():
    # Terms are evaluated over all assignments at once (evaluate_columns);
    # evaluate stays public and is the tests' oracle.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "evaluate"
    ]
    assert found == []


def _calls(node, scope):
    """(qualified name of the innermost enclosing def or class, call node)
    for every call under node."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}"
        elif isinstance(child, ast.Call):
            yield scope, child
        yield from _calls(child, inner)


def test_no_per_entry_table_reads():
    # Whole-table code reads OperationTable.columns and .translations;
    # OperationTable.apply stays public as the per-assignment oracle, and
    # only FiniteAlgebra.apply, which evaluate passes along, calls it.
    found = [
        scope
        for path in sorted(PACKAGE.glob("*.py"))
        for scope, call in _calls(ast.parse(path.read_text(encoding="utf-8"), str(path)), path.stem)
        if getattr(call.func, "attr", None) == "apply"
    ]
    assert found == ["algebras.FiniteAlgebra.apply"]


MUTABLE_BUILDERS = {"dict", "set", "defaultdict", "OrderedDict", "Counter"}


def _module_level_mutables(tree):
    """Names bound at module level to a dict or set display, comprehension or
    constructor call."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        mutable = isinstance(value, (ast.Dict, ast.Set, ast.DictComp, ast.SetComp)) or (
            isinstance(value, ast.Call)
            and getattr(value.func, "id", getattr(value.func, "attr", None)) in MUTABLE_BUILDERS
        )
        if mutable:
            yield from (ast.unparse(target) for target in targets)


def test_no_global_intern_tables():
    # parse_term's intern table and the normalizer's cons table live for one
    # call (or one enumeration); a module-level table would grow for the
    # life of the process and couple unrelated callers.
    found = {
        name: sorted(_module_level_mutables(ast.parse((PACKAGE / name).read_text(encoding="utf-8"))))
        for name in ("terms.py", "rewriting.py")
    }
    assert found == {"terms.py": [], "rewriting.py": []}


def test_module_level_mutables_are_found():
    tree = ast.parse("a = {}\nb: dict = dict()\nc = {x for x in y}\nd = (1,)\ne = set()\n")
    assert sorted(_module_level_mutables(tree)) == ["a", "b", "c", "e"]


# Recursion is allowed only where a parameter bounds its depth: the
# operation's arity and max_depth.  Terms can be of any depth, so every walk
# over a term must be a loop.
BOUNDED_RECURSION = {"sampling.random_term"}


def _calls_itself(fn):
    """Whether fn calls its own name, or self.<name> / cls.<name>."""
    for call in ast.walk(fn):
        if not isinstance(call, ast.Call):
            continue
        f = call.func
        if isinstance(f, ast.Name) and f.id == fn.name:
            return True
        if (
            isinstance(f, ast.Attribute)
            and f.attr == fn.name
            and isinstance(f.value, ast.Name)
            and f.value.id in ("self", "cls")
        ):
            return True
    return False


def _recursive_functions(node, prefix):
    """Qualified names (module.outer.inner) of the self-calling functions under node."""
    for child in ast.iter_child_nodes(node):
        name = prefix
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}.{child.name}"
            if not isinstance(child, ast.ClassDef) and _calls_itself(child):
                yield name
        yield from _recursive_functions(child, name)


def test_no_recursive_functions():
    found = {
        name
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _recursive_functions(
            ast.parse(path.read_text(encoding="utf-8"), str(path)), path.stem
        )
    }
    assert found == BOUNDED_RECURSION


def test_no_recursion_limit_changes():
    root = PACKAGE.parents[1]
    assert [
        str(path.relative_to(root))
        for path in sorted(root.rglob("*.py"))
        if path != Path(__file__).resolve()
        and "setrecursionlimit" in path.read_text(encoding="utf-8")
    ] == []


# Documents and user input are checked where they enter; the engine does
# not re-check what it builds, so only these functions make a SchemaError.
SCHEMA_CHECKS = {
    "algebras.load_algebra",
    "algebras.parse_identity",
    "congruences.parse_partition",
}


def test_schema_errors_are_raised_only_at_the_boundary():
    found = {
        scope
        for path in sorted(PACKAGE.glob("*.py"))
        for scope, call in _calls(ast.parse(path.read_text(encoding="utf-8")), path.stem)
        if getattr(call.func, "id", None) == "SchemaError"
    }
    assert found == SCHEMA_CHECKS


def test_calls_are_found_in_their_scope():
    tree = ast.parse(
        "def f():\n    raise E('a')\n"
        "class C:\n    def g(self):\n        if x:\n            raise E(h('b'))\n"
    )
    found = [(scope, call.func.id) for scope, call in _calls(tree, "m")]
    assert found == [("m.f", "E"), ("m.C.g", "E"), ("m.C.g", "h")]


# Private names imported across modules.  Each is a deliberate coupling: a
# new one fails here until it is added on purpose.
PRIVATE_IMPORTS = {
    ("congruences", "words._trusted"),
    ("homomorphisms", "words._trusted"),
    ("sampling", "rewriting._root_step"),
}


def _private_imports(tree, importer):
    """(importer, module.name) for every `from .module import _name` under tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield importer, f"{node.module}.{alias.name}" if node.module else alias.name


def test_private_imports_are_the_allowed_ones():
    found = {
        pair
        for path in sorted(PACKAGE.glob("*.py"))
        for pair in _private_imports(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    }
    assert found == PRIVATE_IMPORTS


def test_private_imports_are_found():
    tree = ast.parse("from .a import _b, c\nfrom .d import e\ndef f():\n    from . import _g\n")
    assert sorted(_private_imports(tree, "m")) == [("m", "_g"), ("m", "a._b")]


# ---------------------------------------------------------------------------
# The public surface of the package.

PUBLIC_NAMES = [
    "App", "Congruence", "FiniteAlgebra", "HeapWord", "Identity", "Letter",
    "MALTSEV_SIGNATURE", "MALTSEV_SYSTEM", "OperationTable", "Partition",
    "ReducedWord", "Signature", "Term", "Var", "algebras", "all_congruences",
    "check_confluence", "check_identity", "check_injectivity_on_M1",
    "congruences", "count_M", "count_W", "equal_in_free", "errors", "eval_term",
    "fg_inv", "fg_mul", "find_maltsev_term", "first_iso_check", "format_term",
    "heap_group_ops", "heap_mu", "hom_to_group", "homomorphisms",
    "is_congruence", "is_heap_word", "is_maltsev_operation", "kernel", "level",
    "load_algebra", "maltsev_from_group", "maltsev_from_left_loop",
    "maltsev_from_quasigroup", "maltsev_from_retraction", "mu", "normalize",
    "parse_term", "permute", "principal_congruence", "quotient", "reduce",
    "rewrite_once", "rewriting", "separating_hom", "substitute", "term_depth",
    "terms", "termsearch", "verify_maltsev_term", "words",
]


def test_public_names_are_pinned():
    import maltsev

    assert maltsev.__all__ == PUBLIC_NAMES


def test_each_public_name_is_the_object_of_its_defining_module():
    import maltsev

    for name in PUBLIC_NAMES:
        value = getattr(maltsev, name)
        if isinstance(value, types.ModuleType):
            assert value is importlib.import_module(f"maltsev.{name}")
        else:
            assert value.__module__.startswith("maltsev.")
            assert value is getattr(importlib.import_module(value.__module__), name)


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from maltsev import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES


def test_unknown_attribute_raises():
    import maltsev

    with pytest.raises(AttributeError, match="no attribute 'in_F_k'"):
        maltsev.in_F_k
    assert not hasattr(maltsev, "nosuch")


def _loaded_after(statement: str) -> list[str]:
    """The maltsev modules in sys.modules after statement, in a fresh interpreter."""
    script = f"import sys\n{statement}\nprint(sorted(m for m in sys.modules if m.startswith('maltsev')))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    return ast.literal_eval(done.stdout)


def test_package_import_loads_no_submodule():
    assert _loaded_after("import maltsev") == ["maltsev"]


def test_words_import_loads_no_engine_above_it():
    loaded = _loaded_after("import maltsev.words")
    assert "maltsev.words" in loaded
    engines = ("rewriting", "algebras", "congruences", "homomorphisms", "termsearch")
    assert [m for m in loaded if m.removeprefix("maltsev.") in engines] == []

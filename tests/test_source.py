"""Rules on the package source itself."""

import ast
import functools
import importlib
import os
import re
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "maltsev"


@functools.cache
def _package():
    """Module name -> syntax tree, for every module of the package."""
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }


def test_no_assert_statements():
    # Correctness checks must raise, not assert: python -O strips asserts.
    assert _package()
    found = [
        f"{module}.py:{node.lineno}"
        for module, tree in _package().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_per_assignment_evaluation():
    # Terms are evaluated over all assignments at once (evaluate_columns);
    # the per-assignment evaluate is a test oracle, in tests/conftest.py.
    found = [
        f"{module}.py:{node.lineno}"
        for module, tree in _package().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "evaluate"
    ]
    assert found == []


def _scoped(node, scope):
    """(qualified name of the innermost enclosing def or class, node) for
    every node under node."""
    for child in ast.iter_child_nodes(node):
        yield scope, child
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}"
        yield from _scoped(child, inner)


def _calls(node, scope):
    """(qualified name of the innermost enclosing def or class, call node)
    for every call under node."""
    return ((scope, child) for scope, child in _scoped(node, scope) if isinstance(child, ast.Call))


def test_no_per_entry_table_reads():
    # Tables are read through OperationTable.columns and .translations; the
    # per-entry apply is a test oracle, in tests/conftest.py.
    found = [
        scope
        for module, tree in _package().items()
        for scope, call in _calls(tree, module)
        if getattr(call.func, "attr", None) == "apply"
    ]
    assert found == []


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
    found = {name: sorted(_module_level_mutables(_package()[name])) for name in ("terms", "rewriting")}
    assert found == {"terms": [], "rewriting": []}


def test_module_level_mutables_are_found():
    tree = ast.parse("a = {}\nb: dict = dict()\nc = {x for x in y}\nd = (1,)\ne = set()\n")
    assert sorted(_module_level_mutables(tree)) == ["a", "b", "c", "e"]


# Python 3.11 lets int.to_bytes and int.from_bytes default the byteorder,
# but the package supports 3.10 (requires-python in pyproject.toml), so
# every use passes one: in the call, or to the map or partial that calls it.
BYTE_CONVERSIONS = {"to_bytes", "from_bytes"}


def _byteorder_omissions(modules):
    """module.py:line of each to_bytes or from_bytes, under modules (module
    name -> tree), that is called, mapped or bound by partial without a
    byteorder, or used in any other way."""
    found = []
    for module, tree in modules.items():
        uses = [n for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr in BYTE_CONVERSIONS]
        passed = set()
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func, args = call.func, call.args
            if getattr(func, "id", getattr(func, "attr", None)) in ("map", "partial") and args:
                func, args = args[0], args[1:]
            if func not in uses or any(isinstance(a, ast.Starred) for a in args):
                continue
            # self, length and byteorder for an unbound int.to_bytes; else
            # length or bytes, then byteorder
            unbound = func.attr == "to_bytes" and getattr(func.value, "id", None) == "int"
            if len(args) >= 2 + unbound or any(k.arg == "byteorder" for k in call.keywords):
                passed.add(func)
        found += [(module, n.lineno) for n in uses if n not in passed]
    return [f"{module}.py:{line}" for module, line in sorted(found)]


def test_byte_conversions_pass_a_byteorder():
    assert _byteorder_omissions(_package()) == []


def test_byteorder_omissions_are_found():
    tree = ast.parse(
        "a = n.to_bytes(2, 'big')\n"
        "b = n.to_bytes(2)\n"
        "c = int.from_bytes(data, byteorder='little')\n"
        "d = int.from_bytes(data)\n"
        "e = map(int.to_bytes, xs, repeat(2), repeat('big'))\n"
        "f = map(int.to_bytes, xs, repeat(2))\n"
        "g = partial(int.from_bytes, byteorder='big')\n"
        "h = functools.partial(int.from_bytes)\n"
        "i = int.to_bytes\n"
        "j = int.to_bytes(n, 2, 'big')\n"
        "k = int.to_bytes(n, 2)\n"
        "m = n.to_bytes(*args)\n"
    )
    assert _byteorder_omissions({"m": tree}) == [f"m.py:{line}" for line in (2, 4, 6, 8, 9, 11, 12)]


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


def _functions(node, prefix):
    """(qualified name, node) of every function and method under node, the
    name being prefix.outer.inner."""
    for child in ast.iter_child_nodes(node):
        name = prefix
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}.{child.name}"
            if not isinstance(child, ast.ClassDef):
                yield name, child
        yield from _functions(child, name)


def test_no_recursive_functions():
    found = {
        name
        for module, tree in _package().items()
        for name, fn in _functions(tree, module)
        if _calls_itself(fn)
    }
    assert found == BOUNDED_RECURSION


# The package keeps only what its callers run: every function and non-dunder
# method is named somewhere outside its own body, in the package, scripts/,
# perfbench/ or maltsev.__all__, unless a registering decorator (the CLI's
# @command) names it.  Code whose only callers are tests lives in the tests.
# The match is by name, so a method that shares its name with an unrelated
# variable or attribute escapes the rule: a method join would match str.join.
REGISTERING_DECORATORS = {"command"}
CALLER_DIRS = ("scripts", "perfbench")


def _names(node):
    """The identifier of every name and attribute under node."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr


def _unnamed_functions(modules, outside, exported):
    """module.qualified.name of each function and non-dunder method in
    modules (module name -> tree) that no registering decorator registers and
    whose name occurs nowhere in modules, outside (more trees) or exported but
    in its own body."""
    named = Counter(exported)
    for tree in [*modules.values(), *outside]:
        named.update(_names(tree))
    for module, tree in modules.items():
        for name, fn in _functions(tree, module):
            dunder = fn.name.startswith("__") and fn.name.endswith("__")
            registered = any(
                getattr(getattr(d, "func", None), "id", None) in REGISTERING_DECORATORS
                for d in fn.decorator_list
            )
            own = sum(n == fn.name for stmt in fn.body for n in _names(stmt))
            if not dunder and not registered and named[fn.name] == own:
                yield name


def _outside_trees():
    """The syntax trees of the modules in CALLER_DIRS."""
    return [
        ast.parse(path.read_text(encoding="utf-8"))
        for folder in CALLER_DIRS
        for path in sorted((PACKAGE.parents[1] / folder).glob("*.py"))
    ]


def test_every_function_has_a_caller_outside_the_tests():
    import maltsev

    outside = _outside_trees()
    assert outside
    assert list(_unnamed_functions(_package(), outside, maltsev.__all__)) == []


def test_unnamed_functions_are_found():
    modules = {
        "m": ast.parse(
            "def used():\n    pass\n"
            "def recursive(n):\n    return recursive(n - 1)\n"
            "def exported():\n    pass\n"
            "@command('x')\ndef registered():\n    pass\n"
            "@wraps(used)\ndef wrapped():\n    pass\n"
            "class C:\n    def __eq__(self, other):\n        return used()\n"
            "    def method(self):\n        def inner():\n            pass\n"
            "        return inner\n"
            "    def attribute(self):\n        pass\n"
        )
    }
    outside = [ast.parse("c.attribute()\n")]
    found = list(_unnamed_functions(modules, outside, ["exported"]))
    assert found == ["m.recursive", "m.wrapped", "m.C.method"]


def _module_names(tree):
    """Each name not starting with __ that an assignment in the body of a
    module binds."""
    for stmt in tree.body:
        targets = stmt.targets if isinstance(stmt, ast.Assign) else []
        if isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        for node in (n for target in targets for n in ast.walk(target)):
            if isinstance(node, ast.Name) and not node.id.startswith("__"):
                yield node.id


def _unread_module_names(modules, outside, exported):
    """module.name of each module-level name in modules (module name -> tree)
    that nothing in modules or outside (more trees) reads, as a name or an
    attribute, and that is not exported."""
    read = set(exported)
    for tree in [*modules.values(), *outside]:
        for node in ast.walk(tree):
            if isinstance(getattr(node, "ctx", None), ast.Load):
                read.add(node.id if isinstance(node, ast.Name) else getattr(node, "attr", None))
    for module, tree in modules.items():
        yield from (f"{module}.{name}" for name in _module_names(tree) if name not in read)


def test_every_module_level_name_is_read_outside_the_tests():
    import maltsev

    assert list(_unread_module_names(_package(), _outside_trees(), maltsev.__all__)) == []


def test_unread_module_names_are_found():
    modules = {
        "m": ast.parse(
            "READ = 1\nUNREAD = 2\nA, (B, C) = 3, (4, 5)\nTYPED: int = 6\n__all__ = []\n"
            "EXPORTED = ATTR = 7\n"
            "def f():\n    STORED = READ + B\n    return STORED\n"
            "class K:\n    INSIDE = 8\n"
        )
    }
    outside = [ast.parse("import m\nm.ATTR\nm.UNREAD = 9\n")]
    found = list(_unread_module_names(modules, outside, ["EXPORTED"]))
    assert found == ["m.UNREAD", "m.A", "m.C", "m.TYPED"]


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
        for module, tree in _package().items()
        for scope, call in _calls(tree, module)
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


def _callers(name, tree, module):
    """The scope of every call of name or <anything>.name under tree."""
    for scope, call in _calls(tree, module):
        if getattr(call.func, "id", getattr(call.func, "attr", None)) == name:
            yield scope


def _package_callers(name):
    return [scope for module, tree in _package().items() for scope in _callers(name, tree, module)]


# Permutability is searched in one place: the CLI and the audit both ask
# congruences.non_permuting_pair, the only caller of permute.
PERMUTE_CALLERS = ["congruences.non_permuting_pair"]


def test_permutability_is_searched_once():
    assert _package_callers("permute") == PERMUTE_CALLERS


def test_permute_callers_are_found():
    tree = ast.parse(
        "def f(a):\n    return permute(a, 1, 2)\n"
        "class C:\n    def g(self):\n        return [cong.permute(*p) for p in ps]\n"
        "def h():\n    permuted(1)\n    x.permute_all()\n    return permute\n"
    )
    assert list(_callers("permute", tree, "m")) == ["m.f", "m.C.g"]


# A witness is checked where it is reported: the search returns the term it
# built, and only the CLI, which prints "verified: true", evaluates it again.
VERIFY_CALLERS = ["cli.cmd_maltsev_term"]


def test_witnesses_are_verified_where_they_are_reported():
    assert _package_callers("verify_maltsev_term") == VERIFY_CALLERS


def test_verify_callers_are_found():
    tree = ast.parse(
        "def find_maltsev_term(alg):\n    t = rebuild_term(p, 0)\n"
        "    if not verify_maltsev_term(alg, t):\n        raise E('unverified')\n"
        "def _found(alg, t):\n    return termsearch.verify_maltsev_term(alg, t) and t\n"
        "def verify_maltsev_term(alg, t):\n    return verify_maltsev_terms\n"
    )
    assert list(_callers("verify_maltsev_term", tree, "termsearch")) == [
        "termsearch.find_maltsev_term",
        "termsearch._found",
    ]


# The word problem is decided in one place: the CLI's equal asks
# rewriting.equal_in_free, as the selftest's axiom walk does.
EQUAL_CALLERS = ["cli.cmd_equal", "sampling.selftest.axiom_walk_equivalence"]


def test_the_word_problem_is_decided_once():
    assert _package_callers("equal_in_free") == EQUAL_CALLERS


def test_equal_callers_are_found():
    tree = ast.parse(
        "def cmd_equal(args, rep):\n    same = rewriting.equal_in_free(l, r)\n"
        "    return format_term(normalize(l)) == format_term(normalize(r))\n"
        "def selftest(rng):\n    def walk():\n        return equal_in_free(t, s)\n"
        "def equal_in_free(t, s):\n    return t is s\n"
    )
    assert list(_callers("equal_in_free", tree, "cli")) == [
        "cli.cmd_equal",
        "cli.selftest.walk",
    ]


def _imported_names(tree):
    """The name of everything a `from ... import` under tree binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            yield from (alias.asname or alias.name for alias in node.names)


# The term search keeps its witness as a table of parent links and leaves
# building terms to terms.rebuild_term, so it imports no term class.
def test_the_search_builds_no_term_itself():
    assert {"App", "Var"}.isdisjoint(_imported_names(_package()["termsearch"]))


def test_imported_names_are_found():
    tree = ast.parse(
        "import terms\nfrom .terms import App, Record as R\n"
        "def f():\n    from . import terms\n    from .terms import Var\n    return terms.App\n"
    )
    assert list(_imported_names(tree)) == ["App", "R", "terms", "Var"]


# Labels are relabelled to canonical form only where they enter (the checking
# Partition constructor and Partition.from_labels) and where the closure has
# merged blocks under arbitrary ids; _join ranks its roots and needs no pass.
CANONICAL_CALLERS = [
    "congruences.Partition.__init__",
    "congruences.Partition.from_labels",
    "congruences._closure",
]


def test_canonical_relabelling_only_where_labels_enter_or_close():
    assert _package_callers("_canonical") == CANONICAL_CALLERS


def test_canonical_callers_are_found():
    tree = ast.parse(
        "def _join(p, q):\n    parent = list(p)\n    return _canonical(tuple(parent))\n"
        "class P:\n    def __init__(self, b):\n        congruences._canonical(b)\n"
        "def g():\n    return _canonical\n"
    )
    assert list(_callers("_canonical", tree, "m")) == ["m._join", "m.P.__init__"]


# A term's remembered values have one owner each: only terms.py reads or
# writes an application's hash, and only normalize reads the normal form
# that _remember keeps.  _normalize and _root_form must never read it: their
# `is` rules hold only among the normal forms of one table.
NF_USERS = ["rewriting._remember", "rewriting.normalize", "terms.App"]


def _attribute_users(name, modules):
    """The scope of each use, under modules (module name -> tree), of the
    attribute name or of the string name, as in getattr(t, name)."""
    return sorted(
        {
            scope
            for module, tree in modules.items()
            for scope, node in _scoped(tree, module)
            if isinstance(node, ast.Attribute) and node.attr == name
            or isinstance(node, ast.Constant) and node.value == name
        }
    )


def test_remembered_values_have_one_owner():
    assert {scope.split(".")[0] for scope in _attribute_users("_hash", _package())} == {"terms"}
    assert _attribute_users("_nf", _package()) == NF_USERS


def test_attribute_users_are_found():
    modules = {
        "rewriting": ast.parse(
            "def normalize(t):\n    return t._nf\n"
            "def _normalize(t, forms):\n    r = forms.get(id(t))\n"
            "    if r is None:\n        r = t._nf\n    return r\n"
            "def _root_form(a, b, c, forms, s=None):\n    return getattr(s, '_nf', None)\n"
        ),
        "m": ast.parse("class K:\n    __slots__ = ('_nf',)\n    def f(self):\n        self._nf = 1\n"),
    }
    found = _attribute_users("_nf", modules)
    assert found == ["m.K", "m.K.f", "rewriting._normalize", "rewriting._root_form", "rewriting.normalize"]


# Private names imported across modules.  Each is a deliberate coupling: a
# new one fails here until it is added on purpose.
PRIVATE_IMPORTS = {
    ("congruences", "terms._trusted"),
    ("homomorphisms", "terms._trusted"),
    ("homomorphisms", "words._splice"),
    ("sampling", "rewriting._root_step"),
    ("words", "terms._trusted"),
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
        for module, tree in _package().items()
        for pair in _private_imports(tree, module)
    }
    assert found == PRIVATE_IMPORTS


def test_private_imports_are_found():
    tree = ast.parse("from .a import _b, c\nfrom .d import e\ndef f():\n    from . import _g\n")
    assert sorted(_private_imports(tree, "m")) == [("m", "_g"), ("m", "a._b")]


# A record is its __slots__: terms.Record alone sets, compares, hashes,
# copies and freezes the fields, so no subclass writes one of these and only
# terms.py calls object.__setattr__.  The one exception: a ReducedWord's
# codes hold only in its own process, so it pickles and copies by its names.
RECORD_METHODS = {"__eq__", "__hash__", "__reduce__", "__setattr__", "__delattr__"}
RECORD_LAYOUT_EXCEPTIONS = ["words.ReducedWord.__reduce__"]


def _record_layout_breaches(modules):
    """For modules mapping a module name to its tree: module:line for each
    object.__setattr__ outside terms, and module.Class.method for each of
    RECORD_METHODS that a subclass of Record, however indirect, defines."""
    classes = [
        (module, node)
        for module, tree in modules.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    ]
    records: set[str] = set()
    for _ in classes:  # each pass reaches one more level of subclassing
        records |= {
            node.name
            for _, node in classes
            if {ast.unparse(base).split(".")[-1] for base in node.bases} & (records | {"Record"})
        }
    for module, node in classes:
        if node.name in records:
            yield from (
                f"{module}.{node.name}.{item.name}"
                for item in node.body
                if isinstance(item, ast.FunctionDef) and item.name in RECORD_METHODS
            )
    for module, tree in modules.items():
        if module != "terms":
            yield from (
                f"{module}:{node.lineno}"
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and node.attr == "__setattr__"
                and ast.unparse(node.value) == "object"
            )


def test_records_leave_their_layout_to_record():
    defined = {node.name for node in ast.walk(_package()["terms"]) if isinstance(node, ast.ClassDef)}
    assert "Record" in defined
    assert list(_record_layout_breaches(_package())) == RECORD_LAYOUT_EXCEPTIONS


def test_record_layout_breaches_are_found():
    modules = {
        "terms": ast.parse(
            "class Record:\n    def __eq__(self, o): object.__setattr__(self, 'a', 1)\n"
            "class Sig(Record):\n    def __hash__(self): return 0\n"
        ),
        "m": ast.parse(
            "class A(terms.Record):\n    def __init__(self, a):\n"
            "        object.__setattr__(self, 'a', a)\n"
            "class B(A):\n    def __reduce__(self): pass\n    def f(self): pass\n"
            "class C:\n    def __eq__(self, o): return True\n"
            "class D(C):\n    def __setattr__(self, n, v): pass\n"
        ),
    }
    found = sorted(_record_layout_breaches(modules))
    assert found == ["m.B.__reduce__", "m:3", "terms.Sig.__hash__"]


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


def _modules_after(statement: str) -> list[str]:
    """The modules in sys.modules after statement, in a fresh interpreter."""
    script = f"import sys\n{statement}\nprint(sorted(sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    return ast.literal_eval(done.stdout.splitlines()[-1])


def _loaded_after(statement: str) -> list[str]:
    """The maltsev modules in sys.modules after statement, in a fresh interpreter."""
    return [m for m in _modules_after(statement) if m.startswith("maltsev")]


def test_package_import_loads_no_submodule():
    assert _loaded_after("import maltsev") == ["maltsev"]


def test_words_import_loads_no_engine_above_it():
    loaded = _loaded_after("import maltsev.words")
    assert "maltsev.words" in loaded
    engines = ("rewriting", "algebras", "congruences", "homomorphisms", "termsearch")
    assert [m for m in loaded if m.removeprefix("maltsev.") in engines] == []


# A command imports the engines it runs and nothing else: the word problem,
# the free group and the homomorphisms never load the finite-algebra layers.
FINITE_ALGEBRA_MODULES = [
    "dataclasses",
    "maltsev.algebras",
    "maltsev.congruences",
    "maltsev.sampling",
    "maltsev.termsearch",
]


@pytest.mark.parametrize(
    "argv",
    [
        ["normalize", "--term", "mu(x,y,y)"],
        ["fg", "reduce", "--word", "x y y^-1"],
        ["hom", "group", "--term", "mu(x,y,z)"],
    ],
    ids=" ".join,
)
def test_command_loads_only_its_engine(argv):
    run_cli = (
        f"import runpy\nsys.argv = ['maltsev', *{argv!r}]\n"
        "try:\n    runpy.run_module('maltsev.cli', run_name='__main__')\n"
        "except SystemExit as stop:\n    assert stop.code == 0, stop.code\n"
    )
    loaded = set(_modules_after(run_cli)) - set(_modules_after("pass"))
    assert "maltsev.terms" in loaded  # the command ran
    assert sorted(loaded.intersection(FINITE_ALGEBRA_MODULES)) == []


def _module_level_imports(node):
    """The import statements under node outside any function or class body."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _module_level_imports(child)


def test_no_module_imports_dataclasses():
    # Records are __slots__ classes (terms.Record): defining a dataclass
    # costs the import of dataclasses and inspect, and a class body per field.
    found = [
        f"{module}.py:{node.lineno}"
        for module, tree in _package().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        and any(a.name.split(".")[0] == "dataclasses" for a in node.names)
        or isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[0] == "dataclasses"
    ]
    assert found == []


def test_cli_imports_only_the_standard_library_and_errors_at_module_level():
    found = []
    for node in _module_level_imports(_package()["cli"]):
        if isinstance(node, ast.ImportFrom) and node.level:
            found += [] if node.module == "errors" else [f".{node.module or ''}"]
        else:
            if isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                names = [alias.name for alias in node.names]
            found += [n for n in names if n.split(".")[0] not in sys.stdlib_module_names]
    assert found == []


def test_module_level_imports_are_found():
    tree = ast.parse(
        "import a\nif x:\n    from .b import c\ndef f():\n    import d\n"
        "class C:\n    import e\ntry:\n    import g\nexcept E:\n    pass\n"
    )
    found = [ast.unparse(node) for node in _module_level_imports(tree)]
    assert found == ["import a", "from .b import c", "import g"]


def _readme_modules(text):
    """The module of each row of the README's module table, in order."""
    table = text.split("## What is inside")[1].split("\n## ")[0]
    return re.findall(r"^\| `maltsev\.(\w+)` \|", table, re.M)


def test_readme_module_table_names_each_module_once():
    readme = (PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8")
    rows = _readme_modules(readme)
    assert len(rows) == len(set(rows))
    assert set(rows) == set(_package()) - {"__init__"}


def test_readme_modules_are_found():
    text = (
        "## What is inside\n\n| module | contents |\n| --- | --- |\n"
        "| `maltsev.terms` | terms, see `maltsev.words` |\n| `maltsev.cli` | the tool |\n"
        "\n`maltsev.words` in prose\n\n## Install\n\n| `maltsev.later` | another table |\n"
    )
    assert _readme_modules(text) == ["terms", "cli"]

"""The per-file node index and import table (``repro.lint.index``).

Every rule and the fact extractor read one :class:`FileIndex` and one
:class:`ImportTable` per file instead of walking the tree themselves, so
these pin the index's answers to what a plain ``ast`` walk would give.
"""

import ast
import textwrap
import tokenize

from repro.lint.findings import SourceFile
from repro.lint.index import FileIndex, ImportTable, dotted_name
from repro.lint.suppress import comment_directives

SAMPLE = textwrap.dedent(
    """\
    import time as t

    def outer(x, y=t.time()):
        total = sum(x) + 1
        def inner(z):
            return [w * 2 for w in z] + list(map(lambda v: v.real, z))
        return inner(total) == y

    @staticmethod
    def decorated():
        return print("hi")

    class Box:
        size = len("abc")

        def get(self):
            return self.size.bit_length()
    """
)


LEAVES = (ast.expr_context, ast.operator, ast.cmpop, ast.boolop, ast.unaryop)


def preorder(node):
    """Reference walk: source preorder, context/operator leaves dropped."""
    out = [node]
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, LEAVES):
            out.extend(preorder(child))
    return out


def first(tree, cls, **attrs):
    for node in ast.walk(tree):
        if isinstance(node, cls) and all(
            getattr(node, key) == value for key, value in attrs.items()
        ):
            return node
    raise LookupError(cls)


class TestFileIndexWalk:
    def test_nodes_follow_source_preorder(self):
        tree = ast.parse(SAMPLE)
        assert FileIndex(tree).nodes == preorder(tree)

    def test_context_and_operator_singletons_are_skipped(self):
        index = FileIndex(ast.parse(SAMPLE))
        assert not [n for n in index.nodes if isinstance(n, LEAVES)]

    def test_empty_module_indexes_only_itself(self):
        tree = ast.parse("")
        index = FileIndex(tree)
        assert index.nodes == [tree]
        assert index.of(ast.Call) == []
        assert index.within(tree, ast.Module) == [tree]


class TestFileIndexLookups:
    def test_of_matches_exact_types_in_source_order(self):
        tree = ast.parse(SAMPLE)
        index = FileIndex(tree)
        walk = preorder(tree)
        assert index.of(ast.Call) == [n for n in walk if type(n) is ast.Call]
        mixed = index.of(ast.Lambda, ast.Call, ast.ListComp)
        assert mixed == [
            n for n in walk if type(n) in (ast.Lambda, ast.Call, ast.ListComp)
        ]
        # Exact types only: an abstract base matches nothing.
        assert index.of(ast.stmt) == []

    def test_within_equals_a_nested_walk_of_each_subtree(self):
        tree = ast.parse(SAMPLE)
        index = FileIndex(tree)
        for node in index.of(ast.FunctionDef, ast.ClassDef, ast.Return):
            expected = [
                n for n in preorder(node) if type(n) in (ast.Call, ast.Name)
            ]
            assert index.within(node, ast.Call, ast.Name) == expected

    def test_within_includes_the_node_and_stops_at_its_subtree(self):
        tree = ast.parse(SAMPLE)
        index = FileIndex(tree)
        inner = first(tree, ast.FunctionDef, name="inner")
        assert index.within(inner, ast.FunctionDef) == [inner]
        called = {dotted_name(c.func) for c in index.within(inner, ast.Call)}
        # outer's sum()/t.time() and decorated()'s print() are siblings.
        assert called == {"list", "map"}


class TestScopeOf:
    def test_module_class_and_function_bodies(self):
        tree = ast.parse(SAMPLE)
        index = FileIndex(tree)
        outer = first(tree, ast.FunctionDef, name="outer")
        box = first(tree, ast.ClassDef, name="Box")
        get = first(tree, ast.FunctionDef, name="get")
        assert index.scope_of(outer) is tree
        assert index.scope_of(first(tree, ast.Assign)) is outer  # total = ...
        assert index.scope_of(get) is box
        assert index.scope_of(first(box, ast.Call)) is box  # len("abc")
        assert index.scope_of(first(get, ast.Attribute, attr="bit_length")) is get

    def test_decorators_and_defaults_belong_to_the_def(self):
        tree = ast.parse(SAMPLE)
        index = FileIndex(tree)
        outer = first(tree, ast.FunctionDef, name="outer")
        decorated = first(tree, ast.FunctionDef, name="decorated")
        default = outer.args.defaults[0]
        assert index.scope_of(default) is outer
        assert index.scope_of(decorated.decorator_list[0]) is decorated

    def test_lambdas_and_comprehensions_run_in_the_enclosing_def(self):
        tree = ast.parse(SAMPLE)
        index = FileIndex(tree)
        inner = first(tree, ast.FunctionDef, name="inner")
        assert index.scope_of(first(tree, ast.Attribute, attr="real")) is inner
        assert index.scope_of(first(tree, ast.comprehension)) is inner


class TestDottedName:
    def test_name_and_attribute_chains(self):
        assert dotted_name(ast.parse("a.b.c", mode="eval").body) == "a.b.c"
        assert dotted_name(ast.parse("x", mode="eval").body) == "x"

    def test_anything_else_is_dynamic(self):
        assert dotted_name(ast.parse("f().attr", mode="eval").body) is None
        assert dotted_name(ast.parse("xs[0].attr", mode="eval").body) is None


def table(source, module="pkg.mod"):
    tree = ast.parse(textwrap.dedent(source))
    return ImportTable(FileIndex(tree).of(ast.Import, ast.ImportFrom), module)


class TestImportTable:
    def test_plain_and_aliased_imports(self):
        imports = table(
            """\
            import time as t
            import os.path
            import a.b as c
            from time import time as now, sleep
            """
        )
        assert imports.aliases == {
            "t": "time",
            "os": "os",
            "c": "a.b",
            "now": "time.time",
            "sleep": "time.sleep",
        }
        assert imports.imported == [
            {"module": "time", "names": []},
            {"module": "os.path", "names": []},
            {"module": "a.b", "names": []},
            {"module": "time", "names": ["time", "sleep"]},
        ]

    def test_relative_imports_resolve_against_the_module(self):
        imports = table(
            """\
            from ..obs import inc
            from . import shm
            from .... import lost
            """,
            module="repro.core.engine",
        )
        assert imports.aliases == {
            "inc": "repro.obs.inc",
            "shm": "repro.core.shm",
        }
        # Climbing past the top with no module name resolves to nothing.
        assert [entry["module"] for entry in imports.imported] == [
            "repro.obs",
            "repro.core",
        ]

    def test_later_import_of_a_name_wins(self):
        imports = table("from time import time\nfrom random import random as time\n")
        assert imports.aliases["time"] == "random.random"

    def test_resolve_canonicalizes_the_leading_component(self):
        imports = table("import numpy as np\nfrom time import perf_counter as pc\n")
        assert imports.resolve("np.random.default_rng") == "numpy.random.default_rng"
        assert imports.resolve("pc") == "time.perf_counter"
        assert imports.resolve("unknown.thing") == "unknown.thing"
        assert imports.resolve(None) is None
        call = ast.parse("np.random.seed(0)", mode="eval").body
        assert imports.resolve_call(call) == "numpy.random.seed"
        dynamic = ast.parse("factory()()", mode="eval").body
        assert imports.resolve_call(dynamic) is None


class TestSourceFile:
    def test_index_and_imports_are_built_once(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        path = pkg / "mod.py"
        source = "from . import sibling\n"
        path.write_text(source)
        file = SourceFile(str(path), source, ast.parse(source))
        assert file.index is file.index
        assert file.imports is file.imports
        assert file.module == "pkg.mod"
        assert file.imports.aliases == {"sibling": "pkg.sibling"}

    def test_relative_imports_in_init_anchor_at_the_package(self, tmp_path):
        # In pkg/io/__init__.py the module is pkg.io itself, so "." is
        # pkg.io and ".." is pkg — not one package higher.
        pkg = tmp_path / "pkg" / "io"
        pkg.mkdir(parents=True)
        (tmp_path / "pkg" / "__init__.py").write_text("")
        path = pkg / "__init__.py"
        source = "from .eia_csv import load\nfrom .. import core\n"
        path.write_text(source)
        file = SourceFile(str(path), source, ast.parse(source))
        assert file.module == "pkg.io"
        assert file.imports.aliases == {
            "load": "pkg.io.eia_csv.load",
            "core": "pkg.core",
        }

    def test_directive_free_source_is_never_tokenized(self, monkeypatch):
        def refuse(readline):
            raise AssertionError("tokenized a file with no directive")

        monkeypatch.setattr(tokenize, "generate_tokens", refuse)
        source = "x = 1.0 == y\n"
        assert comment_directives(source) == {}
        assert SourceFile("m.py", source, ast.parse(source)).suppressions == {}

    def test_suppressions_widen_over_the_statement(self):
        source = textwrap.dedent(
            """\
            value = compute(
                1.0 == x,  # repro-lint: disable=RL005 — test subject
            )
            other = 2
            """
        )
        file = SourceFile("m.py", source, ast.parse(source))
        codes = frozenset({"RL005"})
        assert file.suppressions == {1: codes, 2: codes, 3: codes}

"""Unit tests for the whole-program model (``repro.lint.graph``).

These pin down the project model the reachability rules stand on:
module naming, import edges, the obs barrier, and the two universes
(worker, kernel).  The packaged tree
under ``fixtures/graph/wproj`` is the shared subject — it has worker
roots, a reachable helper, an orphan module, and a kernel module.
"""

import pathlib

import pytest

from repro.lint import Project, extract_facts, module_name_for_path
from repro.lint.engine import load_source_file


def build_project(root):
    facts = {}
    for path in sorted(pathlib.Path(root).rglob("*.py")):
        facts[str(path)] = extract_facts(load_source_file(path))
    return Project(facts)


@pytest.fixture
def wproj(fixtures):
    return build_project(fixtures / "graph" / "wproj")


class TestModuleNaming:
    def test_packaged_paths_walk_the_init_chain(self, fixtures):
        path = fixtures / "graph" / "wproj" / "core" / "engine.py"
        assert module_name_for_path(str(path)) == "wproj.core.engine"

    def test_unpackaged_fallback_is_parent_plus_stem(self):
        # No __init__.py chain: the best available name is directory
        # plus stem — which deliberately makes tests/kernels/ reference
        # implementations part of the kernel universe.
        assert module_name_for_path("tests/kernels/test_batch.py") == (
            "kernels.test_batch"
        )

    def test_init_file_names_the_package_itself(self, fixtures):
        path = fixtures / "graph" / "wproj" / "core" / "__init__.py"
        assert module_name_for_path(str(path)) == "wproj.core"


class TestImportGraph:
    def test_from_import_of_a_submodule_is_an_edge(self, wproj):
        assert "wproj.core.helpers" in wproj.imports_of("wproj.core.engine")

    def test_import_closure_stops_at_the_obs_barrier(self, tmp_path):
        # core/engine.py imports both a helper and the obs plane; the
        # worker-side closure must not leak into obs (nondeterminism in
        # telemetry timestamps is legal).
        pkg = tmp_path / "bproj"
        (pkg / "core").mkdir(parents=True)
        (pkg / "obs").mkdir()
        (pkg / "__init__.py").write_text("")
        (pkg / "core" / "__init__.py").write_text("")
        (pkg / "obs" / "__init__.py").write_text("")
        (pkg / "core" / "engine.py").write_text(
            "from bproj.core import util\nfrom bproj.obs import metrics\n"
        )
        (pkg / "core" / "util.py").write_text("")
        (pkg / "obs" / "metrics.py").write_text("")
        project = build_project(tmp_path)
        closure = project.import_closure(["bproj.core.engine"])
        assert "bproj.core.util" in closure
        assert not any("obs" in module.split(".") for module in closure)


class TestWorkerUniverse:
    def test_modules_are_the_barriered_import_closure(self, wproj):
        modules, _ = wproj.worker_universe()
        assert "wproj.core.engine" in modules
        assert "wproj.core.helpers" in modules
        assert "wproj.core.orphan" not in modules

    def test_functions_are_reachable_from_the_roots_only(self, wproj):
        _, functions = wproj.worker_universe()
        assert ("wproj.core.engine", "_init_worker") in functions
        assert ("wproj.core.engine", "_evaluate_chunk") in functions
        assert ("wproj.core.helpers", "stamp") in functions
        assert ("wproj.core.helpers", "fold") in functions
        # Defined in a worker module but never called from a root.
        assert ("wproj.core.helpers", "helper_never_called") not in functions


class TestKernelUniverse:
    def test_every_kernel_function_is_a_seed(self, wproj):
        modules, functions = wproj.kernel_universe()
        assert "wproj.kernels.ops" in modules
        assert ("wproj.kernels.ops", "scale") in functions
        assert ("wproj.kernels.ops", "_fold") in functions
        assert ("wproj.kernels.ops", "fold_all") in functions


class TestNameResolution:
    def test_dotted_target_resolves_through_module_prefix(self, wproj):
        assert wproj.resolve_function(
            "wproj.core.engine", "wproj.core.helpers.stamp"
        ) == ("wproj.core.helpers", "stamp")

    def test_bare_target_resolves_in_its_own_module(self, wproj):
        assert wproj.resolve_function("wproj.core.helpers", "fold") == (
            "wproj.core.helpers",
            "fold",
        )

    def test_external_names_resolve_to_nothing(self, wproj):
        assert wproj.resolve_function("wproj.core.engine", "os.path.join") is None


class TestOwnedParams:
    def test_fresh_array_at_every_call_site_proves_ownership(self, wproj):
        owned = wproj.owned_params()
        assert ("wproj.kernels.ops", "_fold", "scratch") in owned

    def test_public_function_params_are_never_owned(self, wproj):
        owned = wproj.owned_params()
        assert ("wproj.kernels.ops", "scale", "values") not in owned

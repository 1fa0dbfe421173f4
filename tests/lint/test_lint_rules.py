"""Per-rule behavior over the checked-in fixture trees.

Each file rule gets one bad-fixture test asserting the exact
``(line, rule)`` pairs it reports and one good-fixture test asserting
silence.  Project rules (RL001/RL003/RL009/RL010) are exercised over
the packaged trees under ``fixtures/graph/`` — ``wproj`` defines worker
roots and a kernel module, ``mproj`` a metric registry plus emitters,
``sproj`` an owner-module pair of shm creation shapes — so reachability
and cross-file census behavior is pinned down with exact locations.
"""

import pathlib

from repro.lint import run_lint


def findings_for(path, rule):
    return [(f.line, f.rule) for f in run_lint([str(path)], select=[rule])]


def tree_findings(root, rule):
    """``(basename, line, rule)`` triples for a whole fixture tree."""
    return [
        (pathlib.Path(f.path).name, f.line, f.rule)
        for f in run_lint([str(root)], select=[rule])
    ]


class TestDeterminismRL001:
    def test_flags_worker_reachable_functions_only(self, fixtures):
        # wproj.core.engine defines the worker roots; helpers.py is in
        # their import+call closure, while orphan.py and the
        # never-called helper carry the same violations and stay clean.
        assert tree_findings(fixtures / "graph" / "wproj", "RL001") == [
            ("helpers.py", 8, "RL001"),   # time.time() in stamp()
            ("helpers.py", 12, "RL001"),  # random.shuffle() in fold()
        ]

    def test_kernel_modules_are_roots_too(self, fixtures, tmp_path):
        # Every function in a kernels module is a seed: the same bad
        # file fires wholesale once it lives under kernels/.
        copy = tmp_path / "kernels" / "bad_determinism.py"
        copy.parent.mkdir()
        copy.write_text((fixtures / "core" / "bad_determinism.py").read_text())
        assert findings_for(copy, "RL001") == [
            (12, "RL001"),  # time.time()
            (13, "RL001"),  # now() aliased from time.time
            (14, "RL001"),  # datetime.now()
            (15, "RL001"),  # date.today()
            (20, "RL001"),  # random.random()
            (21, "RL001"),  # np.random.rand()
            (22, "RL001"),  # np.random.seed()
            (23, "RL001"),  # random.shuffle()
        ]

    def test_seeded_and_sleep_are_legal(self, fixtures):
        assert findings_for(fixtures / "core" / "good_determinism.py", "RL001") == []

    def test_unreachable_code_is_out_of_scope(self, fixtures, tmp_path):
        # Linted alone there is no worker universe to reach this file.
        copy = tmp_path / "elsewhere" / "bad_determinism.py"
        copy.parent.mkdir()
        copy.write_text((fixtures / "core" / "bad_determinism.py").read_text())
        assert run_lint([str(copy)], select=["RL001"]) == []


class TestKernelPurityRL003:
    def test_flags_mutation_multiprocessing_and_io(self, fixtures):
        assert findings_for(fixtures / "kernels" / "bad_kernel.py", "RL003") == [
            (3, "RL003"),   # import multiprocessing
            (9, "RL003"),   # supply[0] = ...
            (10, "RL003"),  # demand += ...
            (12, "RL003"),  # print(...)
            (17, "RL003"),  # open(...)
        ]

    def test_rebinding_and_local_mutation_pass(self, fixtures):
        assert findings_for(fixtures / "kernels" / "good_kernel.py", "RL003") == []

    def test_scoped_to_kernels_directories(self, fixtures, tmp_path):
        copy = tmp_path / "helpers" / "bad_kernel.py"
        copy.parent.mkdir()
        copy.write_text((fixtures / "kernels" / "bad_kernel.py").read_text())
        assert run_lint([str(copy)], select=["RL003"]) == []

    def test_owned_scratch_exemption_is_call_graph_proven(self, fixtures):
        # _fold mutates its scratch parameter, but its only call site
        # passes a freshly allocated array, so the ownership fixpoint
        # exempts it; scale() mutates a caller-owned argument and fires.
        assert tree_findings(fixtures / "graph" / "wproj", "RL003") == [
            ("ops.py", 7, "RL003"),  # values *= factor in public scale()
        ]


class TestMetricNamesRL004:
    def test_flags_unregistered_literal_names(self, fixtures):
        assert findings_for(fixtures / "bad_metrics.py", "RL004") == [
            (5, "RL004"),  # inc typo
            (6, "RL004"),  # set_gauge unknown
            (7, "RL004"),  # observe non-span name
            (8, "RL004"),  # counter_value unknown
        ]

    def test_registered_dynamic_and_unrelated_calls_pass(self, fixtures):
        assert findings_for(fixtures / "good_metrics.py", "RL004") == []


class TestFloatEqualityRL005:
    def test_flags_float_shaped_comparisons(self, fixtures):
        assert findings_for(fixtures / "bad_floats.py", "RL005") == [
            (5, "RL005"),   # == 0.0
            (7, "RL005"),   # != float("inf")
            (9, "RL005"),   # == -1.5
            (11, "RL005"),  # literal on the left
        ]

    def test_blessed_helpers_ints_and_orderings_pass(self, fixtures):
        assert findings_for(fixtures / "good_floats.py", "RL005") == []


class TestExceptionHygieneRL006:
    def test_flags_swallowed_interrupts(self, fixtures):
        assert findings_for(fixtures / "bad_excepts.py", "RL006") == [
            (7, "RL006"),   # bare except
            (14, "RL006"),  # except KeyboardInterrupt: return
            (21, "RL006"),  # BaseException inside a tuple
        ]

    def test_reraise_wrap_and_ordinary_handlers_pass(self, fixtures):
        assert findings_for(fixtures / "good_excepts.py", "RL006") == []


class TestEventNamesRL007:
    def test_flags_unregistered_literal_kinds(self, fixtures):
        assert findings_for(fixtures / "bad_events.py", "RL007") == [
            (5, "RL007"),  # events.emit typo
            (6, "RL007"),  # bus.emit unknown
            (7, "RL007"),  # nested events_bus receiver
            (8, "RL007"),  # bare emit_event
        ]

    def test_registered_dynamic_and_unrelated_emits_pass(self, fixtures):
        assert findings_for(fixtures / "good_events.py", "RL007") == []

    def test_source_tree_is_clean(self, repo_root):
        src = repo_root / "src" / "repro"
        assert run_lint([str(src)], select=["RL007"]) == []


class TestPoolConfinementRL008:
    def test_flags_constructions_outside_owner_files(self, fixtures):
        assert findings_for(fixtures / "core" / "bad_pools.py", "RL008") == [
            (10, "RL008"),  # ProcessPoolExecutor(...)
            (15, "RL008"),  # Pool(...) aliased from ProcessPoolExecutor
            (19, "RL008"),  # SharedMemory(name=...) attach
            (27, "RL008"),  # shared_memory.SharedMemory(create=True)
        ]

    def test_every_segment_outside_owner_files_is_flagged(self, fixtures):
        # The retired RL002's leak shapes land at the same line:col; so
        # do the with-managed and finally-unlinked ones, because outside
        # core/engine.py and core/shm.py no segment is built at all.
        assert findings_for(fixtures / "core" / "bad_shm.py", "RL008") == [
            (8, "RL008"),   # SharedMemory(create=True) never unlinked
            (13, "RL008"),  # shared_memory.SharedMemory(create=True)
        ]
        assert findings_for(fixtures / "core" / "good_shm.py", "RL008") == [
            (7, "RL008"),   # finally-unlinked
            (16, "RL008"),  # with-managed
            (21, "RL008"),  # attach-only
        ]

    def test_owner_files_under_core_are_exempt(self, fixtures):
        assert findings_for(fixtures / "core" / "engine.py", "RL008") == []
        assert findings_for(fixtures / "core" / "shm.py", "RL008") == []

    def test_owner_basename_outside_core_is_not_exempt(self, fixtures, tmp_path):
        # The exemption is the (basename, core/ directory) pair — a
        # stray engine.py elsewhere gets no pool-building license.
        copy = tmp_path / "helpers" / "engine.py"
        copy.parent.mkdir()
        copy.write_text((fixtures / "core" / "engine.py").read_text())
        assert findings_for(copy, "RL008") == [(7, "RL008")]

    def test_source_tree_is_clean(self, repo_root):
        src = repo_root / "src" / "repro"
        assert run_lint([str(src)], select=["RL008"]) == []


class TestMetricCensusRL009:
    def test_dead_declarations_and_undeclared_uses(self, fixtures):
        assert tree_findings(fixtures / "graph" / "mproj", "RL009") == [
            ("app.py", 8, "RL009"),            # emitted but never declared
            ("metric_names.py", 6, "RL009"),   # counter declared, never emitted
            ("metric_names.py", 15, "RL009"),  # event declared, never emitted
        ]

    def test_census_inactive_without_the_registry(self, fixtures):
        # Linting a subtree that lacks obs/metric_names.py must not
        # report registry names as dead — or uses as undeclared.
        app = fixtures / "graph" / "mproj" / "app.py"
        assert run_lint([str(app)], select=["RL009"]) == []


class TestShmOwnershipRL010:
    def test_escape_shapes_are_flagged(self, fixtures):
        # sproj/core/engine.py in the same tree holds the passing
        # shapes (with-managed, finally-unlinked, error-guarded
        # transfer to Holder) — only shm.py's escapes appear.
        assert tree_findings(fixtures / "graph" / "sproj", "RL010") == [
            ("shm.py", 9, "RL010"),   # result never bound to a name
            ("shm.py", 13, "RL010"),  # returned bare
            ("shm.py", 18, "RL010"),  # no error-path unlink
            ("shm.py", 24, "RL010"),  # transferred to a non-unlinking class
        ]


class TestDispatchHygieneRL011:
    def test_flags_dispatch_reachable_stalls(self, fixtures):
        # shutdown()'s unbounded sleep is exempt: dispatch never
        # reaches it through self.* calls.
        assert findings_for(fixtures / "core" / "bad_dispatch.py", "RL011") == [
            (9, "RL011"),   # wait() without timeout
            (11, "RL011"),  # .result() without timeout
            (15, "RL011"),  # unclamped time.sleep(delay)
            (16, "RL011"),  # print()
        ]

    def test_bounded_loop_passes(self, fixtures):
        assert findings_for(fixtures / "core" / "good_dispatch.py", "RL011") == []

"""Tests for the hierarchical span tracer."""

import json
import threading
import time

import pytest

from repro.obs import (
    Tracer,
    enable_tracing,
    get_tracer,
    render_trace,
    reset_tracing,
    save_trace,
    span,
    trace_roots,
    tracing_enabled,
)
from repro.obs.trace import TREE_FORMAT


class TestSpanNesting:
    def test_nested_spans_produce_parent_child_tree(self):
        tracer = Tracer()
        with tracer.span("parent", site="UT"):
            with tracer.span("child"):
                time.sleep(0.002)
            with tracer.span("sibling"):
                pass
        roots = tracer.roots()
        assert [root.name for root in roots] == ["parent"]
        parent = roots[0]
        assert [child.name for child in parent.children] == ["child", "sibling"]
        assert parent.attrs == {"site": "UT"}

    def test_child_durations_bounded_by_parent(self):
        tracer = Tracer()
        with tracer.span("parent"):
            with tracer.span("child"):
                time.sleep(0.002)
        parent = tracer.roots()[0]
        child = parent.children[0]
        assert child.wall_s > 0.0
        assert child.wall_s <= parent.wall_s
        assert parent.cpu_s >= 0.0

    def test_sequential_roots_are_separate_trees(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [root.name for root in tracer.roots()] == ["first", "second"]
        assert all(not root.children for root in tracer.roots())

    def test_exception_inside_span_still_closes_it(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise RuntimeError("boom")
        (outer,) = tracer.roots()
        assert outer.name == "outer"
        assert outer.end_wall >= outer.start_wall
        assert outer.children[0].name == "inner"

    def test_find_searches_depth_first(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
        assert tracer.find("c") is not None
        assert tracer.find("missing") is None


class TestDisabledTracing:
    def test_disabled_tracer_records_no_spans(self):
        tracer = Tracer(enabled=False)
        with tracer.span("ignored") as recorded:
            assert recorded is None
        assert tracer.roots() == ()

    def test_global_span_is_noop_by_default(self):
        reset_tracing()
        assert not tracing_enabled()
        with span("ignored", key="value") as recorded:
            assert recorded is None
        assert trace_roots() == ()

    def test_disabled_span_returns_shared_context(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("a") is tracer.span("b")


class TestGlobalTracer:
    def test_enable_reset_roundtrip(self):
        enable_tracing()
        with span("outer"):
            with span("inner"):
                pass
        assert get_tracer().find("inner") is not None
        reset_tracing()
        assert trace_roots() == ()


class TestExport:
    def test_tree_export_is_json_serializable_and_nested(self):
        tracer = Tracer()
        with tracer.span("root", n=1):
            with tracer.span("leaf"):
                pass
        document = json.loads(json.dumps(tracer.to_tree()))
        assert document["format"] == TREE_FORMAT
        (root,) = document["spans"]
        assert root["name"] == "root"
        assert root["attrs"] == {"n": 1}
        assert root["children"][0]["name"] == "leaf"
        assert root["wall_s"] >= root["children"][0]["wall_s"]

    def test_chrome_export_has_trace_events(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("leaf"):
                pass
        document = tracer.to_chrome_trace()
        events = document["traceEvents"]
        assert {event["name"] for event in events} == {"root", "leaf"}
        for event in events:
            assert event["ph"] == "X"
            assert event["dur"] >= 0.0
            assert isinstance(event["ts"], float)

    def test_save_selects_format_from_filename(self, tmp_path):
        enable_tracing()
        with span("root"):
            pass
        tree_path = tmp_path / "trace.json"
        chrome_path = tmp_path / "trace.chrome.json"
        save_trace(tree_path)
        save_trace(chrome_path)
        assert json.loads(tree_path.read_text())["format"] == TREE_FORMAT
        assert "traceEvents" in json.loads(chrome_path.read_text())

    def test_save_rejects_unknown_format(self, tmp_path):
        tracer = Tracer()
        with pytest.raises(ValueError):
            tracer.save(tmp_path / "x.json", fmt="protobuf")

    def test_render_text_lists_spans_and_truncates_depth(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("leaf"):
                pass
        full = tracer.render_text()
        assert "root" in full and "leaf" in full
        shallow = tracer.render_text(max_depth=1)
        assert "leaf" not in shallow
        assert "1 child span(s)" in shallow

    def test_render_empty_tracer(self):
        reset_tracing()
        assert "no spans recorded" in render_trace()


class TestThreadSafety:
    def test_threads_get_independent_span_stacks(self):
        tracer = Tracer()
        barrier = threading.Barrier(2)

        def work(label):
            with tracer.span(label):
                barrier.wait(timeout=5)
                with tracer.span(f"{label}-child"):
                    pass

        threads = [
            threading.Thread(target=work, args=(name,)) for name in ("t1", "t2")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        roots = {root.name: root for root in tracer.roots()}
        assert set(roots) == {"t1", "t2"}
        for name, root in roots.items():
            assert [child.name for child in root.children] == [f"{name}-child"]

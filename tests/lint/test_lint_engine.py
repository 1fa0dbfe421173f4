"""Engine behavior: discovery, selection, parse errors, rendering."""

import ast
import json
import pathlib
import tokenize

import pytest

from repro.lint import (
    JSON_FORMAT_VERSION,
    PARSE_ERROR_RULE,
    LintPathError,
    UnknownRuleError,
    get_rules,
    iter_python_files,
    render_json,
    render_text,
    run_lint,
)


class TestFileDiscovery:
    def test_recurses_sorts_and_dedupes(self, tmp_path):
        (tmp_path / "b.py").write_text("x = 1\n")
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "a.py").write_text("y = 2\n")
        (tmp_path / "notes.txt").write_text("not python\n")
        found = list(iter_python_files([str(tmp_path), str(tmp_path / "b.py")]))
        assert [p.name for p in found] == ["b.py", "a.py"]

    def test_skips_pycache_and_hidden_directories(self, tmp_path):
        for hidden in ("__pycache__", ".venv"):
            d = tmp_path / hidden
            d.mkdir()
            (d / "junk.py").write_text("import time\ntime.time()\n")
        assert list(iter_python_files([str(tmp_path)])) == []

    def test_missing_path_or_no_python_file_raises(self, tmp_path):
        with pytest.raises(LintPathError, match="no such file"):
            run_lint([str(tmp_path / "missing")])
        (tmp_path / "notes.txt").write_text("not python\n")
        with pytest.raises(LintPathError, match="nothing would be checked"):
            run_lint([str(tmp_path)])


class TestOnePass:
    def test_one_parse_per_file_and_tokenize_only_with_directives(
        self, tmp_path, monkeypatch
    ):
        (tmp_path / "plain.py").write_text("def f(x):\n    return x + 1\n")
        (tmp_path / "flagged.py").write_text("ok = 1.0 == x\n")
        (tmp_path / "quiet.py").write_text(
            "ok = 1.0 == x  # repro-lint: disable=RL005 — test subject\n"
        )
        parsed, tokenized = [], []
        real_parse, real_tokens = ast.parse, tokenize.generate_tokens

        def counting_parse(source, filename="<unknown>", *args, **kwargs):
            parsed.append(pathlib.Path(filename).name)
            return real_parse(source, filename, *args, **kwargs)

        def counting_tokens(readline):
            tokenized.append(readline)
            return real_tokens(readline)

        monkeypatch.setattr(ast, "parse", counting_parse)
        monkeypatch.setattr(tokenize, "generate_tokens", counting_tokens)
        findings = run_lint([str(tmp_path)])  # every rule, both phases
        assert sorted(parsed) == ["flagged.py", "plain.py", "quiet.py"]
        assert len(tokenized) == 1  # quiet.py, the one carrying a directive
        assert [(pathlib.Path(f.path).name, f.rule) for f in findings] == [
            ("flagged.py", "RL005")
        ]


class TestRuleSelection:
    def test_select_restricts_and_ignore_removes(self):
        assert [r.code for r in get_rules(select=["RL001", "RL005"])] == [
            "RL001",
            "RL005",
        ]
        codes = [r.code for r in get_rules(ignore=["RL005"])]
        assert "RL005" not in codes and "RL001" in codes

    def test_codes_are_case_normalized(self):
        assert [r.code for r in get_rules(select=["rl003"])] == ["RL003"]

    def test_unknown_code_raises(self):
        with pytest.raises(UnknownRuleError, match="RL999"):
            get_rules(select=["RL999"])
        with pytest.raises(UnknownRuleError):
            get_rules(ignore=["bogus"])


class TestParseErrors:
    def test_broken_file_reports_rl000_not_crash(self, fixtures):
        findings = run_lint([str(fixtures / "broken_syntax.py")])
        assert [(f.line, f.rule) for f in findings] == [(3, PARSE_ERROR_RULE)]
        assert "cannot parse" in findings[0].message

    def test_broken_file_does_not_hide_sibling_findings(self, fixtures, tmp_path):
        (tmp_path / "broken.py").write_text("def broken(:\n")
        (tmp_path / "floats.py").write_text("ok = 1.0 == x\n")
        rules = {f.rule for f in run_lint([str(tmp_path)])}
        assert rules == {PARSE_ERROR_RULE, "RL005"}


class TestRendering:
    def test_text_report_lines_and_count(self, fixtures):
        findings = run_lint([str(fixtures / "bad_floats.py")], select=["RL005"])
        text = render_text(findings)
        lines = text.splitlines()
        assert lines[0].startswith(str(fixtures / "bad_floats.py") + ":5:")
        assert " RL005 " in lines[0]
        assert lines[-1] == "4 findings"
        assert render_text([]) == "0 findings"

    def test_json_document_schema(self, fixtures):
        findings = run_lint([str(fixtures / "bad_metrics.py")], select=["RL004"])
        document = json.loads(render_json(findings))
        assert set(document) == {"version", "count", "findings", "stats"}
        assert document["version"] == JSON_FORMAT_VERSION
        assert document["count"] == len(document["findings"]) == 4
        for entry in document["findings"]:
            assert set(entry) == {
                "path",
                "line",
                "col",
                "rule",
                "severity",
                "message",
            }
            assert entry["rule"] == "RL004"
            assert entry["severity"] == "error"

    def test_findings_are_sorted_by_location(self, fixtures):
        findings = run_lint([str(fixtures)])
        keys = [(f.path, f.line, f.col, f.rule) for f in findings]
        assert keys == sorted(keys)

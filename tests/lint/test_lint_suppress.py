"""Inline ``# repro-lint: disable=...`` directive handling."""

import ast

from repro.lint import PARSE_ERROR_RULE, SourceFile, lint_project
from repro.lint.suppress import comment_directives, is_suppressed, parse_directive


def suppressions(source):
    """Directives widened over the statements of ``source``."""
    return SourceFile("m.py", source, ast.parse(source)).suppressions


class TestParseDirective:
    def test_single_rule(self):
        assert parse_directive("# repro-lint: disable=RL005 — why") == {"RL005"}

    def test_comma_separated_list(self):
        assert parse_directive("# repro-lint: disable=RL001, RL005") == {
            "RL001",
            "RL005",
        }

    def test_all_sentinel(self):
        assert parse_directive("# repro-lint: disable=all") == {"all"}

    def test_ordinary_comment_is_not_a_directive(self):
        assert parse_directive("# disable the frobnicator") == frozenset()

    def test_spacing_variants(self):
        assert parse_directive("#repro-lint:disable=RL002") == {"RL002"}


class TestSuppressedLines:
    def test_maps_line_numbers_to_codes(self):
        source = "x = 1\ny = 2  # repro-lint: disable=RL005 — reason\n"
        assert comment_directives(source) == {2: frozenset({"RL005"})}

    def test_directive_inside_string_literal_is_ignored(self):
        source = 's = "# repro-lint: disable=RL005"\n'
        assert comment_directives(source) == {}

    def test_unparseable_source_degrades_to_no_suppressions(self):
        assert comment_directives("def broken(:\n") == {}

    def test_is_suppressed_matches_rule_or_all(self):
        lines = {3: frozenset({"RL001"}), 7: frozenset({"all"})}
        assert is_suppressed(lines, 3, "RL001")
        assert not is_suppressed(lines, 3, "RL002")
        assert is_suppressed(lines, 7, "RL999")
        assert not is_suppressed(lines, 4, "RL001")


class TestStatementSpans:
    def test_multiline_statement_is_covered_from_any_line(self):
        source = (
            "check = (\n"
            "    reading\n"
            "    == 0.5\n"
            ")  # repro-lint: disable=RL005 — one directive, whole span\n"
        )
        lines = suppressions(source)
        # The comparison anchors on line 3; the directive sits on line 4
        # — the statement's full 1..4 span carries the code.
        for line in (1, 2, 3, 4):
            assert is_suppressed(lines, line, "RL005"), line

    def test_decorated_def_header_is_covered_but_not_the_body(self):
        source = (
            "@decorate(\n"
            "    level=1,\n"
            ")  # repro-lint: disable=RL005\n"
            "def f(x):\n"
            "    return x == 0.5\n"
        )
        lines = suppressions(source)
        for line in (1, 2, 3, 4):
            assert is_suppressed(lines, line, "RL005"), line
        # A header directive must not blanket the function body.
        assert not is_suppressed(lines, 5, "RL005")

    def test_raw_directives_cover_only_their_physical_line(self):
        source = "check = (\n    reading\n    == 0.5\n)  # repro-lint: disable=RL005\n"
        lines = comment_directives(source)
        assert not is_suppressed(lines, 3, "RL005")
        assert is_suppressed(lines, 4, "RL005")

    def test_end_to_end_multiline_violation_is_silenced(self, tmp_path):
        target = tmp_path / "spanned.py"
        target.write_text(
            "reading = 1.0\n"
            "check = (\n"
            "    reading\n"
            "    == 0.5\n"
            ")  # repro-lint: disable=RL005 — regression: span, not line\n"
        )
        assert lint_project([str(target)], select=["RL005"]).findings == []


class TestSuppressionFixture:
    def test_directives_silence_only_their_rules(self, fixtures):
        findings = lint_project([str(fixtures / "suppressed.py")]).findings
        # Lines 5 (RL005), 7 (RL004 via list), 8 (all) are suppressed;
        # line 10 disables the wrong rule and must still be reported.
        assert [(f.line, f.rule) for f in findings] == [(10, "RL005")]


class TestUnknownCodes:
    def test_unknown_and_retired_codes_are_rl000_at_the_directive(self, tmp_path):
        target = tmp_path / "stale.py"
        target.write_text(
            "x = 1  # repro-lint: disable=RL009 — retired code\n"
            "y = 2  # repro-lint: disable=RL004, RL0O5 — one typo\n"
            "z = 3  # repro-lint: disable=all — sledgehammer\n"
        )
        findings = lint_project([str(target)], select=["RL005"]).findings
        assert [(f.line, f.rule) for f in findings] == [
            (1, PARSE_ERROR_RULE),
            (2, PARSE_ERROR_RULE),
        ]
        assert "unknown rule code RL009," in findings[0].message
        assert "unknown rule code RL0O5," in findings[1].message

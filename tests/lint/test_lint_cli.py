"""The ``repro lint`` subcommand: exit codes, formats, acceptance checks."""

import json
import re

from repro.cli import main as repro_main


def lint_main(argv):
    return repro_main(["lint", *argv])


class TestExitCodes:
    def test_clean_tree_exits_zero(self, fixtures, capsys):
        assert lint_main([str(fixtures / "good_floats.py")]) == 0
        assert capsys.readouterr().out.strip() == "0 findings"

    def test_findings_exit_one(self, fixtures, capsys):
        assert lint_main([str(fixtures / "bad_floats.py")]) == 1
        out = capsys.readouterr().out
        assert "RL005" in out and out.strip().endswith("4 findings")

    def test_unknown_rule_exits_two(self, fixtures, capsys):
        assert lint_main(["--select", "RL999", str(fixtures)]) == 2
        assert "unknown rule 'RL999'" in capsys.readouterr().err

    def test_comma_separated_select(self, fixtures, capsys):
        code = lint_main(["--select", "RL004,RL005", str(fixtures)])
        assert code == 1
        rules = set(re.findall(r":\d+:\d+ (RL\d+) ", capsys.readouterr().out))
        # Parse errors (RL000) are reported regardless of selection —
        # the broken-syntax fixture must never be silently skipped.
        assert rules == {"RL000", "RL004", "RL005"}

    def test_ignore_drops_a_rule(self, fixtures, capsys):
        assert lint_main(["--ignore", "RL005", str(fixtures / "bad_floats.py")]) == 0
        capsys.readouterr()

    def test_empty_select_exits_two(self, fixtures, capsys):
        # ``--select ,`` names zero rules: running "nothing" would make
        # any tree look clean, so it is a usage error like RL999.
        assert lint_main(["--select", ",", str(fixtures / "bad_floats.py")]) == 2
        assert "selection is empty" in capsys.readouterr().err

    def test_ignoring_every_rule_exits_two(self, fixtures, capsys):
        from repro.lint.rules import ALL_RULES

        everything = ",".join(cls.code for cls in ALL_RULES)
        code = lint_main(
            ["--ignore", everything, str(fixtures / "bad_floats.py")]
        )
        assert code == 2
        assert "selection is empty" in capsys.readouterr().err

    def test_missing_path_exits_two(self, fixtures, tmp_path, capsys):
        # A typo'd CI path must not pass as a clean tree.
        missing = str(tmp_path / "nonexistent")
        assert lint_main([missing]) == 2
        assert "no such file or directory" in capsys.readouterr().err
        assert lint_main([str(fixtures / "good_floats.py"), missing]) == 2
        assert missing in capsys.readouterr().err

    def test_no_python_file_exits_two(self, repo_root, tmp_path, capsys):
        assert lint_main([str(repo_root / "README.md")]) == 2
        assert "nothing would be checked" in capsys.readouterr().err
        assert lint_main([str(tmp_path)]) == 2
        assert "nothing would be checked" in capsys.readouterr().err

    def test_sarif_format(self, fixtures, capsys):
        code = lint_main(
            [
                "--format",
                "sarif",
                "--select",
                "RL005",
                str(fixtures / "bad_floats.py"),
            ]
        )
        assert code == 1
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == "2.1.0"
        run = document["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        assert len(run["results"]) == 4


class TestReproSubcommand:
    def test_repro_lint_routes_and_propagates_exit_code(self, fixtures, capsys):
        assert lint_main([str(fixtures / "good_excepts.py")]) == 0
        assert lint_main([str(fixtures / "bad_excepts.py")]) == 1
        out = capsys.readouterr().out
        assert "RL006" in out


class TestAcceptance:
    def test_full_tree_is_clean(self, repo_root, capsys):
        """The merged tree must lint clean — the CI gate in local form.

        tests/ and examples/ are held to the same bar as src/: every
        intentional violation in them carries a justified suppression,
        and the fixture trees are pruned by their ``.repro-lint-ignore``
        marker.
        """
        code = lint_main(
            [
                str(repo_root / "src"),
                str(repo_root / "benchmarks"),
                str(repo_root / "tests"),
                str(repo_root / "examples"),
            ]
        )
        assert code == 0, capsys.readouterr().out

    def test_seeded_violation_fails_with_rl001_at_the_right_line(
        self, repo_root, tmp_path, capsys
    ):
        """Planting time.time() in the battery kernel must trip the linter."""
        kernel = (repo_root / "src" / "repro" / "kernels" / "battery.py").read_text()
        base_lines = kernel.count("\n")
        poisoned = kernel + (
            "\n\ndef _poisoned():\n    import time\n    return time.time()\n"
        )
        target = tmp_path / "kernels" / "battery.py"
        target.parent.mkdir()
        target.write_text(poisoned)
        assert lint_main([str(target)]) == 1
        document = capsys.readouterr()
        findings = [
            line for line in document.out.splitlines() if " RL001 " in line
        ]
        assert len(findings) == 1
        assert findings[0].startswith(f"{target}:{base_lines + 5}:")

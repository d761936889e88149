"""Tests for the mutant list and the survivor report (no build needed):

    python3 -m unittest discover -s tools/tests
"""

import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
import mutation_check  # noqa: E402

LINE = "src/a.cpp\tint x = 4;\tint x = 3;\tSuite.Test"


class ParseTest(unittest.TestCase):
    def test_fields_comments_and_blank_lines(self):
        text = "# a comment\n\n" + LINE + "\n" + "src/b.cpp\tf();\t\tB.*\n"
        a, b = mutation_check.parse_mutants(text)
        self.assertEqual(a, mutation_check.Mutant(
            3, "src/a.cpp", "int x = 4;", "int x = 3;", "Suite.Test"))
        self.assertEqual((b.line, b.replacement, b.filter), (4, "", "B.*"))

    def test_wrong_field_count_names_the_line(self):
        for bad in ("src/a.cpp\tint x = 4;\tSuite.Test",
                    LINE + "\textra",
                    LINE.replace("\t", "    ")):
            with self.assertRaisesRegex(ValueError, r"^list:2: \d+ tab"):
                mutation_check.parse_mutants("# header\n" + bad, "list")

    def test_empty_original_or_filter_is_rejected(self):
        for bad, field in (("src/a.cpp\t\tx\tT.*", "original"),
                           ("src/a.cpp\tx\ty\t ", "gtest filter"),
                           ("\tx\ty\tT.*", "file")):
            with self.assertRaisesRegex(ValueError, f"list:1: empty {field}"):
                mutation_check.parse_mutants(bad, "list")

    def test_committed_list_applies_to_the_tree(self):
        mutants = mutation_check.parse_mutants(
            mutation_check.MUTANTS.read_text())
        self.assertGreaterEqual(len(mutants), 5)
        for m in mutants:
            with self.subTest(line=m.line):
                source = (mutation_check.ROOT / m.path).read_text()
                self.assertNotEqual(mutation_check.mutate(source, m), source)


class MutateTest(unittest.TestCase):
    def test_replaces_the_one_occurrence(self):
        (m,) = mutation_check.parse_mutants(LINE)
        self.assertEqual(mutation_check.mutate("a;\nint x = 4;\nb;\n", m),
                         "a;\nint x = 3;\nb;\n")

    def test_original_must_occur_exactly_once(self):
        (m,) = mutation_check.parse_mutants(LINE)
        for source, count in (("int y = 4;", 0),
                              ("int x = 4; int x = 4;", 2)):
            with self.assertRaisesRegex(ValueError,
                                        f"line 1: .* occurs {count} times"
                                        " in src/a.cpp"):
                mutation_check.mutate(source, m)


class ReportTest(unittest.TestCase):
    def test_names_every_survivor(self):
        a, b, c = mutation_check.parse_mutants(
            "\n".join([LINE,
                       "src/b.cpp\tf();\t\tB.*",
                       "src/c.cpp\tk = 1;\tk = 2;\tC.Pin"]))
        status, lines = mutation_check.report(
            [(a, True), (b, False), (c, False)])
        self.assertEqual(status, 1)
        self.assertIn("2 of 3 mutants survived", lines[0])
        text = "\n".join(lines)
        self.assertIn("line 2: src/b.cpp: 'f();' -> '' (B.*)", text)
        self.assertIn("line 3: src/c.cpp: 'k = 1;' -> 'k = 2;' (C.Pin)", text)
        self.assertNotIn("src/a.cpp", text)

    def test_all_killed_passes(self):
        (a,) = mutation_check.parse_mutants(LINE)
        self.assertEqual(mutation_check.report([(a, True)]),
                         (0, ["mutation_check: all 1 mutants killed"]))


if __name__ == "__main__":
    unittest.main()

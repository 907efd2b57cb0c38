"""Grammar file parsing and validation."""
import pytest

from structran.grammar import Grammar, GrammarError, load_grammar, parse_grammar

WELL_FORMED = """\
# mirror-ish toy grammar
%start S
S -> A B
S -> 'a'   # unary fallback
A -> 'a'
B -> 'b'
"""


class TestParsing:
    def test_round_trip_of_a_small_file(self):
        g = parse_grammar(WELL_FORMED)
        assert g.start == "S"
        assert g.binary == (("S", "A", "B"),)
        assert g.lexical == (("A", "a"), ("B", "b"), ("S", "a"))
        assert g.nonterminals == {"S", "A", "B"}

    def test_comments_and_blank_lines_are_ignored(self):
        g = parse_grammar("\n# only noise\n%start S\n\nS -> 'x'  # tail\n")
        assert g.lexical == (("S", "x"),)

    def test_duplicate_rules_collapse(self):
        g = parse_grammar("%start S\nS -> 'a'\nS -> 'a'\nS -> S S\nS -> S S\n")
        assert g.binary == (("S", "S", "S"),)
        assert g.lexical == (("S", "a"),)

    def test_rules_are_sorted_for_reproducible_ties(self):
        g = parse_grammar("%start S\nS -> 'z'\nS -> 'a'\nB -> 'b'\nS -> S B\nS -> B S\n")
        assert g.lexical == (("B", "b"), ("S", "a"), ("S", "z"))
        assert g.binary == (("S", "B", "S"), ("S", "S", "B"))

    def test_load_from_disk(self, tmp_path):
        path = tmp_path / "toy.cfg"
        path.write_text(WELL_FORMED, encoding="utf-8")
        assert load_grammar(path) == parse_grammar(WELL_FORMED)


class TestRejection:
    @pytest.mark.parametrize("text,fragment", [
        ("S -> 'a'\n", "missing %start"),
        ("%start\nS -> 'a'\n", "line 1: malformed %start"),
        ("%start S T\nS -> 'a'\n", "line 1: malformed %start"),
        ("%start S\n%start S\nS -> 'a'\n", "line 2: duplicate %start"),
        ("%start S\njust words\n", "line 2: expected a production"),
        ("%start S\n'a' -> S\n", "bad left-hand side"),
        ("%start S\nA B -> S\n", "bad left-hand side"),
        ("%start S\nS -> A 'a'\n", "line 2: productions must be"),
        ("%start S\nS -> A B C\n", "line 2: productions must be"),
        ("%start S\nS -> ''\n", "line 2: productions must be"),
    ])
    def test_malformed_text(self, text, fragment):
        with pytest.raises(GrammarError, match=fragment):
            parse_grammar(text)

    def test_undefined_nonterminal(self):
        with pytest.raises(GrammarError, match="undefined nonterminal 'B'"):
            parse_grammar("%start S\nS -> A B\nA -> 'a'\n")

    def test_lexical_rules_are_required(self):
        with pytest.raises(GrammarError, match="lexical"):
            Grammar("S", (("S", "S", "S"),), ())

    def test_start_symbol_must_have_rules(self):
        with pytest.raises(GrammarError, match="start symbol 'T' has no rules"):
            parse_grammar("%start T\nS -> 'a'\n")

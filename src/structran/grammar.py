"""Context-free grammars in Chomsky normal form, read from text files.

File format, one item per line:

    %start S
    # comments run to end of line
    S -> A B
    A -> 'a'

Binary productions name two nonterminals; lexical productions carry one
single-quoted terminal.  Binarization of general grammars is the
caller's job.
"""

from __future__ import annotations

from dataclasses import dataclass


class GrammarError(ValueError):
    """Malformed grammar text; rule is the production at fault (a rule
    tuple, or "%start") when a check of the whole grammar fails."""

    def __init__(self, message: str, rule=None):
        super().__init__(message)
        self.rule = rule


@dataclass(frozen=True)
class Grammar:
    start: str
    binary: tuple[tuple[str, str, str], ...]
    lexical: tuple[tuple[str, str], ...]

    def __post_init__(self):
        # normalized rule order keeps tie-breaking reproducible
        object.__setattr__(self, "binary", tuple(sorted(set(self.binary))))
        object.__setattr__(self, "lexical", tuple(sorted(set(self.lexical))))
        if not self.lexical:
            raise GrammarError("grammar needs at least one lexical rule")
        lhs = {a for a, _, _ in self.binary} | {a for a, _ in self.lexical}
        if self.start not in lhs:
            raise GrammarError(f"start symbol {self.start!r} has no rules", "%start")
        for rule in self.binary:
            a, b, c = rule
            for sym in (b, c):
                if sym not in lhs:
                    raise GrammarError(f"rule {a} -> {b} {c}: "
                                       f"undefined nonterminal {sym!r}", rule)

    @property
    def nonterminals(self) -> frozenset:
        return frozenset({a for a, _, _ in self.binary}
                         | {a for a, _ in self.lexical})


def parse_grammar(text: str, terminals=None) -> Grammar:
    """Parse grammar text; errors name the line at fault.  With terminals
    (a container of tokens), a terminal not among them is an error."""
    start = None
    binary = []
    lexical = []
    first_line = {}  # rule, or "%start", -> the line that declares it first
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("%start"):
            parts = line.split()
            if len(parts) != 2:
                raise GrammarError(f"line {lineno}: malformed %start")
            if start is not None:
                raise GrammarError(f"line {lineno}: duplicate %start")
            start = parts[1]
            first_line["%start"] = lineno
            continue
        if "->" not in line:
            raise GrammarError(f"line {lineno}: expected a production")
        lhs, rhs = (side.strip() for side in line.split("->", 1))
        if not lhs or " " in lhs or lhs.startswith("'"):
            raise GrammarError(f"line {lineno}: bad left-hand side {lhs!r}")
        symbols = rhs.split()
        if len(symbols) == 1 and len(symbols[0]) >= 3 \
                and symbols[0][0] == symbols[0][-1] == "'":
            term = symbols[0][1:-1]
            if terminals is not None and term not in terminals:
                raise GrammarError(
                    f"line {lineno}: terminal {term!r} is not in the target vocabulary")
            rule = (lhs, term)
            lexical.append(rule)
        elif len(symbols) == 2 and not any(s.startswith("'") for s in symbols):
            rule = (lhs, symbols[0], symbols[1])
            binary.append(rule)
        else:
            raise GrammarError(
                f"line {lineno}: productions must be A -> B C or A -> 'a'")
        first_line.setdefault(rule, lineno)
    if start is None:
        raise GrammarError("missing %start declaration")
    try:
        return Grammar(start, tuple(binary), tuple(lexical))
    except GrammarError as exc:
        if exc.rule is None:
            raise
        raise GrammarError(f"line {first_line[exc.rule]}: {exc}") from exc


def load_grammar(path, terminals=None) -> Grammar:
    """parse_grammar on a file; every error starts with the path."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return parse_grammar(text, terminals)
    except GrammarError as exc:
        raise GrammarError(f"{path}: {exc}") from exc

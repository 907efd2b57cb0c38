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
    """Malformed grammar text."""


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
            raise GrammarError(f"start symbol {self.start!r} has no rules")
        for a, b, c in self.binary:
            for sym in (b, c):
                if sym not in lhs:
                    raise GrammarError(f"rule {a} -> {b} {c}: "
                                       f"undefined nonterminal {sym!r}")

    @property
    def nonterminals(self) -> frozenset:
        return frozenset({a for a, _, _ in self.binary}
                         | {a for a, _ in self.lexical})


def parse_grammar(text: str) -> Grammar:
    start = None
    binary = []
    lexical = []
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
            continue
        if "->" not in line:
            raise GrammarError(f"line {lineno}: expected a production")
        lhs, rhs = (side.strip() for side in line.split("->", 1))
        if not lhs or " " in lhs or lhs.startswith("'"):
            raise GrammarError(f"line {lineno}: bad left-hand side {lhs!r}")
        symbols = rhs.split()
        if len(symbols) == 1 and len(symbols[0]) >= 3 \
                and symbols[0][0] == symbols[0][-1] == "'":
            lexical.append((lhs, symbols[0][1:-1]))
        elif len(symbols) == 2 and not any(s.startswith("'") for s in symbols):
            binary.append((lhs, symbols[0], symbols[1]))
        else:
            raise GrammarError(
                f"line {lineno}: productions must be A -> B C or A -> 'a'")
    if start is None:
        raise GrammarError("missing %start declaration")
    return Grammar(start, tuple(binary), tuple(lexical))


def load_grammar(path) -> Grammar:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_grammar(fh.read())

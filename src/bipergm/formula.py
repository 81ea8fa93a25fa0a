"""Textual model formulas: `edges + b2nodematch("gender", beta = 0.1, diff = TRUE)`.

A formula is a `+`-separated list of term calls.  The attribute name comes
first as a quoted string (an integer for b2star/b2degree), followed by the
named arguments alpha, beta, diff and keep.  Booleans are TRUE/FALSE or
true/false; keep accepts one quoted level or c("A", "B").  The network
itself is supplied separately, so there is no response side or tilde.
"""

from __future__ import annotations

from dataclasses import dataclass

from .terms import ATTRIBUTE, KINDS, ModelSpec, ModelTerm


class FormulaSyntaxError(ValueError):
    """Malformed formula text, with the character position of the fault."""

    def __init__(self, message: str, position: int):
        super().__init__(f"at position {position}: {message}")
        self.position = position


@dataclass(frozen=True)
class _Token:
    kind: str  # ident, number, string, symbol, end
    value: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+(),=":
            tokens.append(_Token("symbol", ch, i))
            i += 1
            continue
        if ch == '"' or ch == "'":
            quote = ch
            j = i + 1
            while j < n and text[j] != quote:
                j += 1
            if j >= n:
                raise FormulaSyntaxError("unterminated string", i)
            tokens.append(_Token("string", text[i + 1 : j], i))
            i = j + 1
            continue
        if ch.isdigit() or ch == "." or (ch == "-" and i + 1 < n and (text[i + 1].isdigit() or text[i + 1] == ".")):
            j = i + 1
            while j < n and (text[j].isdigit() or text[j] in ".eE" or (text[j] in "+-" and text[j - 1] in "eE")):
                j += 1
            tokens.append(_Token("number", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] in "._"):
                j += 1
            tokens.append(_Token("ident", text[i:j], i))
            i = j
            continue
        raise FormulaSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


_BOOL_WORDS = {"TRUE": True, "true": True, "FALSE": False, "false": False}

# formula spelling -> term kind
_KIND_OF = {entry.spelling: kind for kind, entry in KINDS.items()}
_NAMED_ARGS = ("alpha", "beta", "diff", "keep")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, value: str | None = None) -> _Token:
        tok = self.take()
        if tok.kind != kind or (value is not None and tok.value != value):
            want = value if value is not None else kind
            raise FormulaSyntaxError(f"expected {want!r}, got {tok.value!r}", tok.pos)
        return tok

    def parse(self) -> ModelSpec:
        terms = [self.term()]
        while self.peek().kind == "symbol" and self.peek().value == "+":
            self.take()
            terms.append(self.term())
        tok = self.peek()
        if tok.kind != "end":
            raise FormulaSyntaxError(f"expected '+' or end of formula, got {tok.value!r}", tok.pos)
        return ModelSpec(tuple(terms))

    def term(self) -> ModelTerm:
        tok = self.expect("ident")
        name, pos = tok.value, tok.pos
        has_parens = self.peek().kind == "symbol" and self.peek().value == "("
        if name not in _KIND_OF:
            raise FormulaSyntaxError(f"unknown term kind {name!r}", pos)
        kind = _KIND_OF[name]
        takes = KINDS[kind].takes
        if takes is None:
            if has_parens:
                self.take()
                self.expect("symbol", ")")
            return ModelTerm(kind=kind)
        if takes != ATTRIBUTE:
            if not has_parens:
                raise FormulaSyntaxError(f"{name} needs an integer argument, e.g. {name}({takes})", pos)
            self.take()
            arg = self.expect("number")
            try:
                value = int(arg.value)
            except ValueError:
                raise FormulaSyntaxError(f"{name} takes an integer, got {arg.value!r}", arg.pos) from None
            if value != takes:
                raise FormulaSyntaxError(f"only {name}({takes}) is supported, got {name}({value})", arg.pos)
            self.expect("symbol", ")")
            return ModelTerm(kind=kind)
        if not has_parens:
            raise FormulaSyntaxError(f'{name} needs a quoted attribute, e.g. {name}("attr")', pos)
        self.take()
        attr_tok = self.expect("string")
        kwargs = self.named_args(name, pos)
        self.expect("symbol", ")")
        try:
            return ModelTerm(kind=kind, attribute=attr_tok.value, **kwargs)
        except ValueError as exc:
            raise FormulaSyntaxError(str(exc), pos) from None

    def named_args(self, term_name: str, term_pos: int) -> dict:
        kwargs: dict = {}
        while self.peek().kind == "symbol" and self.peek().value == ",":
            self.take()
            key_tok = self.expect("ident")
            key = key_tok.value
            if key not in _NAMED_ARGS:
                raise FormulaSyntaxError(
                    f"unknown argument {key!r} for {term_name} (expected one of {list(_NAMED_ARGS)})",
                    key_tok.pos,
                )
            if key in kwargs:
                raise FormulaSyntaxError(f"argument {key!r} given twice", key_tok.pos)
            self.expect("symbol", "=")
            if key in ("alpha", "beta"):
                num = self.expect("number")
                try:
                    kwargs[key] = float(num.value)
                except ValueError:
                    raise FormulaSyntaxError(f"bad number {num.value!r}", num.pos) from None
            elif key == "diff":
                word = self.expect("ident")
                if word.value not in _BOOL_WORDS:
                    raise FormulaSyntaxError(
                        f"diff must be TRUE or FALSE, got {word.value!r}", word.pos
                    )
                kwargs["diff"] = _BOOL_WORDS[word.value]
            else:  # keep
                kwargs["keep_levels"] = tuple(self.level_list())
        return kwargs

    def level_list(self) -> list[str]:
        tok = self.peek()
        if tok.kind == "string":
            self.take()
            return [tok.value]
        if tok.kind == "ident" and tok.value == "c":
            self.take()
            self.expect("symbol", "(")
            levels = [self.expect("string").value]
            while self.peek().kind == "symbol" and self.peek().value == ",":
                self.take()
                levels.append(self.expect("string").value)
            self.expect("symbol", ")")
            return levels
        raise FormulaSyntaxError(
            f'keep expects a quoted level or c("A", "B"), got {tok.value!r}', tok.pos
        )


def parse(text: str) -> ModelSpec:
    """Parse formula text into a ModelSpec, preserving term order."""
    return _Parser(text).parse()


def _fmt_num(value: float) -> str:
    return f"{value:g}"


def format_term(term: ModelTerm) -> str:
    spelling, takes, _ = KINDS[term.kind]
    if takes is None:
        return spelling
    if takes != ATTRIBUTE:
        return f"{spelling}({takes})"
    parts = [f'"{term.attribute}"']
    if term.alpha is not None:
        parts.append(f"alpha = {_fmt_num(term.alpha)}")
    if term.beta is not None:
        parts.append(f"beta = {_fmt_num(term.beta)}")
    if term.diff:
        parts.append("diff = TRUE")
    if term.keep_levels is not None:
        quoted = ", ".join(f'"{v}"' for v in term.keep_levels)
        keep = quoted if len(term.keep_levels) == 1 else f"c({quoted})"
        parts.append(f"keep = {keep}")
    return f"{spelling}({', '.join(parts)})"


def format_spec(spec: ModelSpec) -> str:
    """Canonical text form; parsing it back yields an identical spec."""
    return " + ".join(format_term(t) for t in spec.terms)

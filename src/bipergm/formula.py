"""Textual model formulas: `edges + b2nodematch("gender", beta = 0.1, diff = TRUE)`.

A formula is a `+`-separated list of terms, each a kind name, bare or
called: `b2star(2)` and `b2degree(1)` take their integer, the other kinds
with arguments a quoted attribute name, and the nodematch kinds then the
named arguments alpha and beta (numbers), diff (TRUE/FALSE or true/false)
and keep (one quoted level or c("A", "B")).  There is no response side.

Python's expression parser reads the text, with three rules of its own.  A
string is the raw text between two equal quotes: no escapes, prefixes,
triple quotes or adjacent literals, and a line break may stand inside.  A
number is an optional `-`, digits 0-9 with at most one point, and an
optional exponent.  Any whitespace may stand between tokens; every other
character outside a string must be printable ASCII other than `#`.
Parentheses around a part and a trailing comma in a call change nothing.
"""

from __future__ import annotations

import ast
import re
import warnings

from .terms import ATTRIBUTE, KINDS, ModelSpec, ModelTerm, format_exponent


class FormulaSyntaxError(ValueError):
    """Malformed formula text, with the character position of the fault."""

    def __init__(self, message: str, position: int):
        super().__init__(f"at position {position}: {message}")
        self.position = position


_STRING = re.compile(r"\"[^\"]*\"|'[^']*'")
_LEXEME = re.compile(_STRING.pattern + r'|\s|[^ -"$-~]')  # or whitespace, or a refused character
_NUMBER = re.compile(r"-?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][-+]?[0-9]+)?")
_INTEGER = re.compile(r"-?[0-9]+")
_BOOLEAN = re.compile("TRUE|true|FALSE|false")

# formula spelling -> term kind
_KIND_OF = {entry.spelling: kind for kind, entry in KINDS.items()}
_NAMED_ARGS = ("alpha", "beta", "diff", "keep")


def _blank(match: re.Match) -> str:
    """What Python reads for one lexeme, at its length: a string keeps its
    quotes around `_`s, and whitespace becomes a form feed, which Python
    skips even before the first token.  Any other character is refused."""
    lexeme = match.group()
    if len(lexeme) > 1:
        return lexeme[0] + "_" * (len(lexeme) - 2) + lexeme[0]
    if not lexeme.isspace():
        raise FormulaSyntaxError(f"unexpected character {lexeme!r}", match.start())
    return "\f"


def _source(text: str, node: ast.AST) -> tuple[int, str]:
    """A node's position and text; Python read one ASCII line, so columns count characters."""
    return node.col_offset, text[node.col_offset : node.end_col_offset]


def _read(text: str, node: ast.AST, pattern: re.Pattern, message: str) -> str:
    at, value = _source(text, node)
    if not pattern.fullmatch(value):
        raise FormulaSyntaxError(f"{message}, got {value!r}", at)
    return value


def _term(text: str, node: ast.expr) -> ModelTerm:
    if not isinstance(node, ast.Call):
        node = ast.Call(node, [], [])  # a bare name reads as a call without arguments
    pos, name = _source(text, node.func)
    if not isinstance(node.func, ast.Name):
        raise FormulaSyntaxError(f"expected a term, got {name!r}", pos)
    if name not in _KIND_OF:
        raise FormulaSyntaxError(f"unknown term kind {name!r}", pos)
    kind = _KIND_OF[name]
    takes, args = KINDS[kind].takes, node.args
    if takes == ATTRIBUTE and not args:
        raise FormulaSyntaxError(f'{name} needs a quoted attribute, e.g. {name}("attr")', pos)
    if takes not in (None, ATTRIBUTE) and not args:
        raise FormulaSyntaxError(f"{name} needs an integer argument, e.g. {name}({takes})", pos)
    extra = args[0 if takes is None else 1 :]
    if extra:
        at, got = _source(text, extra[0])
        raise FormulaSyntaxError(f"expected ')', got {got!r}", at)
    attribute = None
    if takes == ATTRIBUTE:
        attribute = _read(text, args[0], _STRING, "expected a quoted string")[1:-1]
    elif takes is not None:
        value = int(_read(text, args[0], _INTEGER, f"{name} takes an integer"))
        if value != takes:
            message = f"only {name}({takes}) is supported, got {name}({value})"
            raise FormulaSyntaxError(message, args[0].col_offset)
    kwargs = _named_args(text, node.keywords)
    try:
        return ModelTerm(kind, attribute, keep_levels=kwargs.pop("keep", None), **kwargs)
    except ValueError as exc:
        raise FormulaSyntaxError(str(exc), pos) from None


def _named_args(text: str, keywords: list[ast.keyword]) -> dict:
    kwargs: dict = {}
    for keyword in keywords:
        at, source = _source(text, keyword)
        key = source.partition("=")[0].rstrip()
        if key not in _NAMED_ARGS:
            raise FormulaSyntaxError(f"unknown argument {key!r}, expected one of {_NAMED_ARGS}", at)
        if key in kwargs:
            raise FormulaSyntaxError(f"argument {key!r} given twice", at)
        value = keyword.value
        if key in ("alpha", "beta"):
            kwargs[key] = float(_read(text, value, _NUMBER, "expected a number"))
        elif key == "diff":
            word = _read(text, value, _BOOLEAN, "diff must be TRUE or FALSE")
            kwargs[key] = word in ("TRUE", "true")
        else:
            is_c = isinstance(value, ast.Call) and _source(text, value.func)[1] == "c"
            levels = value.args if is_c and value.args and not value.keywords else [value]
            kwargs[key] = tuple(
                _read(text, level, _STRING, "expected a quoted level")[1:-1] for level in levels
            )
    return kwargs


def parse(text: str) -> ModelSpec:
    """Parse formula text into a ModelSpec, preserving term order."""
    blanked = _LEXEME.sub(_blank, text)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # hints such as "invalid decimal literal"
            body = ast.parse(blanked, mode="eval").body
    except SyntaxError as exc:
        raise FormulaSyntaxError(exc.msg, max((exc.offset or 1) - 1, 0)) from None
    except (RecursionError, MemoryError):
        raise FormulaSyntaxError("too many terms or nested parts", 0) from None
    terms, stack = [], [body]
    while stack:  # a + b + c is (a + b) + c: walk it without recursion
        node = stack.pop()
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            stack += (node.right, node.left)
        else:
            terms.append(_term(text, node))
    return ModelSpec(tuple(terms))


def _quoted(text: str) -> str:
    # a string is the raw text between two equal quotes: one holding `"` takes `'`
    return f"'{text}'" if '"' in text else f'"{text}"'


def format_term(term: ModelTerm) -> str:
    spelling, takes, _ = KINDS[term.kind]
    if takes != ATTRIBUTE:
        return spelling if takes is None else f"{spelling}({takes})"
    parts = [_quoted(term.attribute)]
    if term.exponent is not None:
        which = "alpha" if term.alpha is not None else "beta"
        parts.append(f"{which} = {format_exponent(term.exponent)}")
    if term.diff:
        parts.append("diff = TRUE")
    if term.keep_levels is not None:
        quoted = ", ".join(_quoted(v) for v in term.keep_levels)
        parts.append(f"keep = {quoted}" if len(term.keep_levels) == 1 else f"keep = c({quoted})")
    return f"{spelling}({', '.join(parts)})"


def format_spec(spec: ModelSpec) -> str:
    """Canonical text form; parsing it back yields an identical spec."""
    return " + ".join(format_term(t) for t in spec.terms)

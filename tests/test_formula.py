from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipergm import FormulaSyntaxError, ModelSpec, ModelTerm, format_spec, parse
from bipergm.formula import format_exponent
from bipergm.terms import ATTRIBUTE, KINDS


def test_single_edges():
    spec = parse("edges")
    assert spec == ModelSpec((ModelTerm(kind="edges"),))


def test_differential_beta_listing():
    spec = parse('edges + b2nodematch("gender", beta = 0.1, diff = TRUE)')
    assert spec.terms[1] == ModelTerm(
        kind="b2nodematch", attribute="gender", beta=0.1, diff=True
    )


def test_full_table_style_listing():
    text = (
        'edges + b2star(2) + b2degree(1) + b1cov("log10_total_assets") '
        '+ b1factor("industry_sector") + b2nodematch("gender", beta = 0.1, diff = TRUE) '
        '+ b2factor("gender") + b2cov("age")'
    )
    spec = parse(text)
    kinds = [t.kind for t in spec.terms]
    assert kinds == [
        "edges",
        "b2star2",
        "b2degree1",
        "b1cov",
        "b1factor",
        "b2nodematch",
        "b2factor",
        "b2cov",
    ]
    assert format_spec(spec) == text


def test_exponent_conflict_is_an_error():
    with pytest.raises(FormulaSyntaxError, match="conflict"):
        parse('b2nodematch("x", alpha = 0.5, beta = 0.5)')


def test_exponent_out_of_range():
    with pytest.raises(FormulaSyntaxError, match=r"\[0, 1\]"):
        parse('b2nodematch("x", alpha = 1.5)')


def test_unknown_term():
    # b2star2 and b2degree1 are kinds, but a formula spells them b2star and b2degree
    for text in ('triangles("x")', "b2star2(2)", "b2degree1(1)"):
        with pytest.raises(FormulaSyntaxError, match="unknown term kind"):
            parse(text)


def test_syntax_error_reports_position():
    with pytest.raises(FormulaSyntaxError, match="position"):
        parse("edges + + edges")
    try:
        parse('edges + b1cov("x"')
    except FormulaSyntaxError as exc:
        assert exc.position >= 8


def test_b2star_argument_checks():
    assert parse("b2star(2)").terms[0].kind == "b2star2"
    assert parse("b2degree(1)").terms[0].kind == "b2degree1"
    with pytest.raises(FormulaSyntaxError, match="only b2star"):
        parse("b2star(3)")
    with pytest.raises(FormulaSyntaxError, match="integer"):
        parse("b2star")


def test_whitespace_insensitive():
    a = parse('edges+b1nodematch("g",alpha=0.5,diff=TRUE)')
    b = parse('  edges  +  b1nodematch( "g" , alpha = 0.5 , diff = TRUE )  ')
    assert a == b


def test_boolean_spellings():
    assert parse('b1nodematch("g", beta = 0, diff = true)').terms[0].diff
    assert not parse('b1nodematch("g", beta = 0, diff = FALSE)').terms[0].diff
    with pytest.raises(FormulaSyntaxError, match="TRUE or FALSE"):
        parse('b1nodematch("g", beta = 0, diff = yes)')


def test_keep_levels():
    one = parse('b1nodematch("g", alpha = 0, keep = "A")')
    assert one.terms[0].keep_levels == ("A",)
    many = parse('b1nodematch("g", alpha = 0, keep = c("B", "A"))')
    assert many.terms[0].keep_levels == ("A", "B")  # stored sorted
    assert 'keep = c("A", "B")' in format_spec(many)


def test_unbound_nodematch_allowed_for_templates():
    spec = parse('edges + b2nodematch("hardskill")')
    assert spec.unbound_index() == 1
    assert format_spec(spec) == 'edges + b2nodematch("hardskill")'


def test_duplicate_argument():
    with pytest.raises(FormulaSyntaxError, match="twice"):
        parse('b1nodematch("g", alpha = 0, alpha = 1)')


def test_format_canonical_examples():
    spec = ModelSpec(
        (
            ModelTerm(kind="edges"),
            ModelTerm(kind="b1cov", attribute="tenure"),
            ModelTerm(kind="b1factor", attribute="gender"),
            ModelTerm(kind="b2nodematch", attribute="hardskill", alpha=0.0),
        )
    )
    assert (
        format_spec(spec)
        == 'edges + b1cov("tenure") + b1factor("gender") + b2nodematch("hardskill", alpha = 0)'
    )


# ---------------------------------------------------------------------------
# round-trip properties
# ---------------------------------------------------------------------------

_names = st.sampled_from(["gender", "hardskill", "industry_sector", "tenure", "g1"])
_expos = st.floats(min_value=0.0, max_value=1.0)


def _nodematch(kind):
    return st.builds(
        lambda attr, which, expo, diff, keep: ModelTerm(
            kind=kind,
            attribute=attr,
            alpha=expo if which == "alpha" else None,
            beta=expo if which == "beta" else None,
            diff=diff,
            keep_levels=keep,
        ),
        _names,
        st.sampled_from(["alpha", "beta", "none"]),
        _expos,
        st.booleans(),
        st.one_of(st.none(), st.sets(st.sampled_from(["A", "B", "C"]), min_size=1).map(tuple)),
    )


def _kind_terms(kind, entry):
    """The terms of one catalogued kind, one strategy per argument form."""
    if entry.nodematch:
        return _nodematch(kind)
    if entry.takes == ATTRIBUTE:
        return st.builds(lambda a: ModelTerm(kind=kind, attribute=a), _names)
    return st.just(ModelTerm(kind=kind))


_terms = st.one_of([_kind_terms(kind, entry) for kind, entry in KINDS.items()])


@settings(max_examples=100, deadline=None)
@given(st.lists(_terms, min_size=1, max_size=6))
def test_parse_format_round_trip(terms):
    spec = ModelSpec(tuple(terms))
    text = format_spec(spec)
    assert parse(text) == spec
    assert format_spec(parse(text)) == text  # idempotent canonical form


def test_an_exponent_keeps_every_bit_through_its_text():
    text = 'edges + b1nodematch("g", alpha = 0.123456789)'
    assert format_spec(parse(text)) == text  # `:g` alone writes 0.123457
    # a value that `:g` writes exactly keeps that short form
    short = [format_exponent(v) for v in (0.0, 0.1, 0.25, 1.0, 1e-05)]
    assert short == ["0", "0.1", "0.25", "1", "1e-05"]
    assert format_exponent(1 / 3) == "0.3333333333333333"


# ---------------------------------------------------------------------------
# the formula language, pinned row by row
# ---------------------------------------------------------------------------


def _nodematch_term(kind="b1nodematch", attribute="g", **fields):
    return ModelTerm(kind=kind, attribute=attribute, **fields)


class _Refused(NamedTuple):
    fragment: str  # a piece of the message
    position: int  # where the fault lies


_ACCEPTED = [
    pytest.param(
        'edges + b1nodematch("group")',
        (ModelTerm(kind="edges"), ModelTerm(kind="b1nodematch", attribute="group")),
        id="benchmark-model",
    ),
    pytest.param("edges()", (ModelTerm(kind="edges"),), id="empty-call"),
    pytest.param(
        "b2star(2) + b2degree(1) + b2sociality",
        (ModelTerm(kind="b2star2"), ModelTerm(kind="b2degree1"), ModelTerm(kind="b2sociality")),
        id="integer-kinds",
    ),
    pytest.param(
        'b1nodematch("g", alpha = 0, keep = "A")',
        (_nodematch_term(alpha=0.0, keep_levels=("A",)),),
        id="keep-one",
    ),
    pytest.param(
        'b1nodematch("g", alpha = 0, keep = c("B", "A"))',
        (_nodematch_term(alpha=0.0, keep_levels=("A", "B")),),
        id="keep-many",
    ),
    pytest.param(
        '  edges +\n\tb2nodematch(\n    "gender",\n    beta = 0.1,\n    diff = TRUE\n  )\n  ',
        (ModelTerm(kind="edges"), _nodematch_term("b2nodematch", "gender", beta=0.1, diff=True)),
        id="multi-line",
    ),
    pytest.param(
        'b1nodematch("g", alpha = .5) + b2nodematch("h", beta = 5e-1)',
        (_nodematch_term(alpha=0.5), _nodematch_term("b2nodematch", "h", beta=0.5)),
        id="number-forms",
    ),
    pytest.param(
        'b1cov("género")', (ModelTerm(kind="b1cov", attribute="género"),), id="non-ascii"
    ),
    pytest.param(
        'b1cov("a\\b") + b2cov("x\\")',
        (ModelTerm(kind="b1cov", attribute="a\\b"), ModelTerm(kind="b2cov", attribute="x\\")),
        id="backslash",
    ),
    pytest.param(
        "b1cov('say \"hi\"') + b2cov(\"a\nb\")",
        (
            ModelTerm(kind="b1cov", attribute='say "hi"'),
            ModelTerm(kind="b2cov", attribute="a\nb"),
        ),
        id="quote-and-line-break",
    ),
    # a name that holds `"` is written back between `'`
    pytest.param(
        "b2nodematch('say \"hi\"', beta = 0.5)",
        (_nodematch_term("b2nodematch", 'say "hi"', beta=0.5),),
        id="quote-in-nodematch-attribute",
    ),
    pytest.param(
        'b1nodematch("g", alpha = 0, keep = c(\'a "b"\', "c"))',
        (_nodematch_term(alpha=0.0, keep_levels=('a "b"', "c")),),
        id="quote-in-keep",
    ),
    # Python's parser reads the formula, and the tree shows neither grouping
    # parentheses nor a trailing comma; neither changes the model
    pytest.param("(edges)", (ModelTerm(kind="edges"),), id="parenthesised-term"),
    pytest.param('b1cov("x",)', (ModelTerm(kind="b1cov", attribute="x"),), id="trailing-comma"),
]

_REFUSED = [
    pytest.param("edges + + edges", _Refused("got '+", 8), id="double-plus"),
    # a syntax error carries Python's own message
    pytest.param("edges edges", _Refused("invalid syntax", 6), id="missing-plus"),
    pytest.param("edges # note", _Refused("unexpected character '#'", 6), id="comment"),
    # adjacent literals are one literal to Python, refused at its start
    pytest.param('b1cov("x" "y")', _Refused("expected a quoted string", 6), id="adjacent-strings"),
    pytest.param('b1cov(r"x")', _Refused("string", 6), id="raw-prefix"),
    pytest.param('b1cov(f"x")', _Refused("string", 6), id="f-prefix"),
    pytest.param('b1cov(b"x")', _Refused("string", 6), id="bytes-prefix"),
    pytest.param(
        'b1nodematch("g", beta = 0, diff = True)', _Refused("TRUE or FALSE", 34), id="python-true"
    ),
    pytest.param('b1nodematch("g", alpha = +0.5)', _Refused("number", 25), id="plus-sign"),
    # Python reads 0x1 and 0.2_5 as one number each, refused at its start
    pytest.param('b1nodematch("g", alpha = 0x1)', _Refused("got '0x1'", 25), id="hex"),
    pytest.param('b1nodematch("g", alpha = 0.2_5)', _Refused("got '0.2_5'", 25), id="underscore"),
    pytest.param("b2star(2.0)", _Refused("takes an integer", 7), id="float-for-integer"),
    pytest.param("edges(1)", _Refused("got '1'", 6), id="argument-to-edges"),
    pytest.param("edges\x00", _Refused("unexpected character", 5), id="null-byte"),
    # Python's parser allows 200 nested parentheses, and says so at the next one
    pytest.param(
        "(" * 300 + "edges" + ")" * 300,
        _Refused("too many nested parentheses", 200),
        id="deep-parentheses",
    ),
    pytest.param('b1cov("género") + "foo"', _Refused("foo", 18), id="position-counts-characters"),
    # Python refuses an integer with a leading zero
    pytest.param("b2star(02)", _Refused("leading zeros", 7), id="leading-zero"),
    # the parser's tree nests one level per term, and Python limits its depth
    pytest.param(" + ".join(["edges"] * 10_000), _Refused("too many terms", 0), id="10000-terms"),
    pytest.param(
        'b1nodematch("g", alpha = 0, keep = "A", keep = "B")',
        _Refused("argument 'keep' given twice", 40),
        id="keep-twice",
    ),
]


@pytest.mark.parametrize("text,expected", _ACCEPTED + _REFUSED)
def test_formula_language(text, expected):
    if isinstance(expected, _Refused):
        with pytest.raises(FormulaSyntaxError) as caught:
            parse(text)
        assert expected.fragment in str(caught.value)
        assert caught.value.position == expected.position
    else:
        spec = parse(text)
        assert spec == ModelSpec(expected)
        assert parse(format_spec(spec)) == spec

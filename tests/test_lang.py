"""Front-end tests: lexer, parser, printer, tokenize, static validation."""
from __future__ import annotations

import pytest

from zigzag.lang import (
    SyntaxErrorML,
    UndeclaredIdentifierError,
    ValidationErrorML,
    parse,
    pretty_print,
    tokenize,
)
from zigzag.corpus import function_labels
from zigzag.lang.nodes import (
    Assign,
    For,
    If,
    flagged_lines,
    program_signature,
    walk_program,
)


def test_parse_minimal_function() -> None:
    p = parse("func main() { output(1); }")
    assert p.function_names() == ["main"]
    assert len(p.function("main").body) == 1


def test_parse_error_reports_line_and_col() -> None:
    with pytest.raises(SyntaxErrorML) as exc:
        parse("func f(a) {\n    return a +;\n}")
    assert exc.value.line == 2
    assert exc.value.col == 15


def test_undeclared_identifier_rejected() -> None:
    with pytest.raises(UndeclaredIdentifierError):
        parse("func main() { x = 1; }")


def test_use_before_declaration_rejected() -> None:
    with pytest.raises(UndeclaredIdentifierError):
        parse("func main() { output(x); var x = 1; }")


def test_shadowing_rejected() -> None:
    with pytest.raises(ValidationErrorML):
        parse("func main() { var x = 1; if (x) { var x = 2; } }")


def test_duplicate_function_rejected() -> None:
    with pytest.raises(ValidationErrorML):
        parse("func f() { return; }\nfunc f() { return; }")


def test_call_arity_checked() -> None:
    with pytest.raises(ValidationErrorML):
        parse("func f(a) { return a; }\nfunc main() { output(f(1, 2)); }")
    with pytest.raises(ValidationErrorML):
        parse("func main() { output(input(3)); }")


def test_unknown_callee_rejected() -> None:
    with pytest.raises(UndeclaredIdentifierError):
        parse("func main() { output(g(1)); }")


def test_line_ids_unique_and_monotone(demo_program) -> None:
    ids = [st.line_id for st in walk_program(demo_program)]
    assert ids == sorted(ids)
    assert len(ids) == len(set(ids))


def test_vuln_marker_attaches_to_statement(demo_program) -> None:
    assert flagged_lines(demo_program) == {6}
    assert {name for name, flag in function_labels(demo_program).items() if flag} == {"scale_rows"}


def test_vuln_marker_on_compound_statement() -> None:
    p = parse("func main() { var x = 1;\n    if (x) { //@vuln\n        output(x);\n    }\n}")
    flagged = [st for st in walk_program(p) if st.vuln]
    assert len(flagged) == 1
    assert isinstance(flagged[0], If)


def test_dangling_vuln_marker_rejected() -> None:
    with pytest.raises(SyntaxErrorML):
        parse("func main() { output(1); }\n//@vuln\n")


def test_print_parse_round_trip(demo_program) -> None:
    text = pretty_print(demo_program)
    again = parse(text)
    assert program_signature(again) == program_signature(demo_program)
    assert pretty_print(again) == text


def test_round_trip_preserves_flags(demo_source) -> None:
    p = parse(demo_source)
    text = pretty_print(p)
    assert " //@vuln" in text
    assert flagged_lines(parse(text)) == flagged_lines(p)


def test_parens_minimal_but_sufficient() -> None:
    src = "func main() { var x = (1 + 2) * 3 - 4 % (5 - 3); output(x - (6 - 2)); }"
    p = parse(src)
    text = pretty_print(p)
    assert "(1 + 2) * 3" in text
    assert "(5 - 3)" in text
    assert program_signature(parse(text), with_flags=False) == program_signature(p, with_flags=False)


def test_negative_literals_round_trip() -> None:
    p = parse("func main() { var x = -5; output(x * -1); }")
    text = pretty_print(p)
    assert "-5" in text
    assert program_signature(parse(text)) == program_signature(p)


def test_for_header_sub_statements_get_ids() -> None:
    p = parse("func main() { var n = 3; for (var i = 0; i < n; i = i + 1) { output(i); } }")
    fors = [st for st in walk_program(p) if isinstance(st, For)]
    assert len(fors) == 1
    st = fors[0]
    assert st.init is not None and st.init.line_id > st.line_id
    assert isinstance(st.step, Assign) and st.step.line_id > st.line_id


def test_tokenize_categories() -> None:
    cats = [(t.category, t.text) for t in tokenize("a = b + 1;")]
    assert cats == [
        ("identifier", "a"),
        ("operator", "="),
        ("identifier", "b"),
        ("operator", "+"),
        ("literal", "1"),
        ("punctuation", ";"),
    ]


def test_tokenize_keywords_and_strings() -> None:
    toks = tokenize('func main() { while (1) { output("hi, there"); } }')
    kinds = {t.text: t.category for t in toks}
    assert kinds["while"] == "keyword"
    assert kinds["func"] == "keyword"
    assert kinds["hi, there"] == "literal"


def test_tokenize_excludes_vuln_markers(demo_source) -> None:
    assert all("@vuln" not in t.text for t in tokenize(demo_source))


def test_tokenize_of_ast_matches_text(demo_program) -> None:
    via_ast = [(t.category, t.text) for t in tokenize(demo_program)]
    via_text = [(t.category, t.text) for t in tokenize(pretty_print(demo_program))]
    assert via_ast == via_text
    # token count of the fixture, pinned
    assert len(via_ast) == 124


def test_string_escapes_round_trip() -> None:
    p = parse('func main() { output("a\\"b\\\\c\\nd"); }')
    assert program_signature(parse(pretty_print(p))) == program_signature(p)

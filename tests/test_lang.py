"""Front-end tests: lexer, parser, printer, static validation."""
from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import pathlib
import random
import time
import typing

import pytest
from hypothesis import example, given, settings, strategies as st

from zigzag.lang import (
    COMPLETED,
    FUEL_EXHAUSTED,
    RUNTIME_ERROR,
    ExecResult,
    MiniLangError,
    Program,
    SyntaxErrorML,
    UndeclaredIdentifierError,
    ValidationErrorML,
    interpret,
    parse,
    pretty_print,
    validate_program,
)
from zigzag.lang import lexer
from zigzag.lang.lexer import lex
from zigzag.lang.parser import MAX_ARRAY_SIZE, MAX_DEPTH, Parser
from zigzag.lang.printer import function_tokens, statement_tokens
from zigzag.corpus import function_labels, generate_synthetic, transform_variant
from zigzag.encoding import normalize_tokens
from zigzag.fragments import Fragment
from zigzag.transforms import ALL_KINDS
from zigzag.lang.nodes import (
    BINARY_PREC,
    BLOCK_SLOTS,
    EXPR_SLOTS,
    Assign,
    BinOp,
    Call,
    Expr,
    For,
    If,
    Index,
    IntLit,
    Stmt,
    StrLit,
    Var,
    flagged_lines,
    map_expr,
    signature,
    stmt_expressions,
    walk_expr,
    walk_program,
)


def test_parse_minimal_function() -> None:
    p = parse("func main() { output(1); }")
    assert [f.name for f in p.functions] == ["main"]
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


@pytest.mark.parametrize(
    "source, name, line, col",
    [
        ("func main() {\n  var i = 0;\n    for (; q; i = i + 1) { output(i); }\n}\n", "q", 3, 5),
        ("func main() {\n    for (var i = 0; i < 3; i = k) { output(i); }\n}\n", "k", 2, 28),
        ("func main() {\n    for (var i = z; i < 3; i = i + 1) { output(i); }\n}\n", "z", 2, 10),
    ],
    ids=["condition", "step", "init"],
)
def test_for_header_errors_report_their_source_position(source, name, line, col) -> None:
    # a condition error is the for's position; an init or step error, its own
    with pytest.raises(UndeclaredIdentifierError, match=f"'{name}'") as exc:
        parse(source)
    assert (exc.value.line, exc.value.col) == (line, col)


def test_for_step_may_read_a_name_its_body_declares() -> None:
    # the step runs at the end of the body, as in the while form
    for_run = interpret(parse("func main() { var i; for (i = 0; i < 3; i = j) { var j = i + 1; } output(i); }"),
                        "main", [], 1000)
    while_run = interpret(parse("func main() { var i; i = 0; while (i < 3) { var j = i + 1; i = j; } output(i); }"),
                          "main", [], 1000)
    assert for_run == while_run
    assert for_run.status == COMPLETED and for_run.outputs == [3]


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


# every static rule's error: (exception type, message, line, col); a
# statement's errors all report the statement's first token, and an
# expression's first failing node in pre-order names the error
_VALIDATION_ERRORS = [
    pytest.param("func main() {\n    output(x);\n}\n",
                 UndeclaredIdentifierError, "use of undeclared identifier 'x'", 2, 5, id="undeclared-use"),
    pytest.param("func main() {\n    var i = 0;\n    output(a[i]);\n}\n",
                 UndeclaredIdentifierError, "use of undeclared identifier 'a'", 3, 5, id="undeclared-index"),
    pytest.param("func main() {\n    output(x);\n    var x = 1;\n}\n",
                 UndeclaredIdentifierError, "use of undeclared identifier 'x'", 2, 5, id="use-before-declaration"),
    pytest.param("func main() {\n    var x = x + 1;\n}\n",
                 UndeclaredIdentifierError, "use of undeclared identifier 'x'", 2, 5, id="use-in-own-initializer"),
    pytest.param("func main() {\n    if (1) {\n        var x = 1;\n    }\n    output(x);\n}\n",
                 UndeclaredIdentifierError, "use of undeclared identifier 'x'", 5, 5, id="use-after-its-block"),
    pytest.param("func f() {\n    var x = 1;\n    return x;\n}\nfunc main() {\n    output(x);\n}\n",
                 UndeclaredIdentifierError, "use of undeclared identifier 'x'", 6, 5, id="declared-in-another-function"),
    pytest.param("func main() {\n    output(x + y);\n}\n",
                 UndeclaredIdentifierError, "use of undeclared identifier 'x'", 2, 5, id="left-operand-first"),
    pytest.param("func main() {\n    var a = 1;\n      b = a;\n}\n",
                 UndeclaredIdentifierError, "assignment to undeclared identifier 'b'", 3, 7, id="assign-undeclared"),
    pytest.param("func main() {\n    var i = 0;\n    arr[i] = 1;\n}\n",
                 UndeclaredIdentifierError, "assignment to undeclared identifier 'arr'", 3, 5,
                 id="array-assign-undeclared"),
    pytest.param("func main() {\n    var a = 1;\n    output(a + g(a));\n}\n",
                 UndeclaredIdentifierError, "call to undeclared function 'g'", 3, 5, id="undeclared-callee"),
    pytest.param("func main() {\n    g();\n}\n",
                 UndeclaredIdentifierError, "call to undeclared function 'g'", 2, 5, id="undeclared-callee-statement"),
    pytest.param("func main() {\n    output(g(x));\n}\n",
                 UndeclaredIdentifierError, "call to undeclared function 'g'", 2, 5, id="callee-before-its-argument"),
    pytest.param("func main() {\n    output(input(3));\n}\n",
                 ValidationErrorML, "builtin 'input' takes 0 argument(s)", 2, 5, id="builtin-arity-input"),
    pytest.param("func main() {\n    var a = 1;\n    output(a, a);\n}\n",
                 ValidationErrorML, "builtin 'output' takes 1 argument(s)", 3, 5, id="builtin-arity-output"),
    pytest.param("func f(a) {\n    return a;\n}\nfunc main() {\n    output(f(1, 2));\n}\n",
                 ValidationErrorML, "call to 'f' with 2 args, expected 1", 5, 5, id="user-arity"),
    pytest.param("func f(a, b) {\n    return a;\n}\nfunc main() {\n    f(1);\n}\n",
                 ValidationErrorML, "call to 'f' with 1 args, expected 2", 5, 5, id="user-arity-statement"),
    pytest.param("func main() {\n    var x = 1;\n    var x = 2;\n}\n",
                 ValidationErrorML, "redeclaration of 'x'", 3, 5, id="redeclaration"),
    pytest.param("func main() {\n    var x[3];\n    var x = 2;\n}\n",
                 ValidationErrorML, "redeclaration of 'x'", 3, 5, id="redeclaration-of-an-array"),
    pytest.param("func main() {\n    var x = 1;\n    if (x) {\n        var x = 2;\n    }\n}\n",
                 ValidationErrorML, "redeclaration of 'x'", 4, 9, id="shadowing"),
    pytest.param("func main() {\n    var x = 1;\n    if (x) {\n        x = 2;\n    } else {\n"
                 "        while (x) {\n            var x = 3;\n        }\n    }\n}\n",
                 ValidationErrorML, "redeclaration of 'x'", 7, 13, id="shadowing-in-else"),
    pytest.param("func f(p) {\n    var p = 1;\n    return p;\n}\n",
                 ValidationErrorML, "redeclaration of 'p'", 2, 5, id="shadowing-a-parameter"),
    pytest.param("func main() {\n    var i = 0;\n    for (var i = 1; i < 3; i = i + 1) {\n        output(i);\n    }\n}\n",
                 ValidationErrorML, "redeclaration of 'i'", 3, 10, id="for-init-redeclares"),
    pytest.param("func f() {\n    return 1;\n}\nfunc main() {\n    var f = 1;\n}\n",
                 ValidationErrorML, "variable 'f' collides with a function name", 5, 5, id="variable-named-as-function"),
    pytest.param("func main() {\n    var input = 1;\n}\n",
                 ValidationErrorML, "variable 'input' collides with a function name", 2, 5,
                 id="variable-named-as-builtin"),
    pytest.param("func main() {\n    var g[2];\n}\nfunc g() {\n    return;\n}\n",
                 ValidationErrorML, "variable 'g' collides with a function name", 2, 5,
                 id="variable-named-as-later-function"),
    pytest.param("func f(main) {\n    return main;\n}\nfunc main() {\n    output(f(1));\n}\n",
                 ValidationErrorML, "parameter 'main' collides with a function name", 1, 8,
                 id="parameter-named-as-function"),
    pytest.param("func f(output) {\n    return output;\n}\n",
                 ValidationErrorML, "parameter 'output' collides with a function name", 1, 8,
                 id="parameter-named-as-builtin"),
    pytest.param("func f(a, b, a) {\n    return a;\n}\n",
                 ValidationErrorML, "duplicate parameter in 'f'", 1, 14, id="duplicate-parameter"),
    pytest.param("func f() {\n    return;\n}\n\nfunc f() {\n    return;\n}\n",
                 ValidationErrorML, "duplicate function name 'f'", 5, 1, id="duplicate-function"),
    pytest.param("func main() {\n    return;\n}\nfunc input() {\n    return 1;\n}\n",
                 ValidationErrorML, "function name shadows builtin 'input'", 4, 1, id="function-shadows-builtin"),
]


@pytest.mark.parametrize("source, error, message, line, col", _VALIDATION_ERRORS)
def test_validation_error_type_message_and_position(source, error, message, line, col) -> None:
    with pytest.raises(MiniLangError) as exc:
        parse(source)
    assert (type(exc.value), exc.value.message, exc.value.line, exc.value.col) == (error, message, line, col)


def test_validation_without_positions_reports_the_statement_line_id() -> None:
    # a transform's output never existed as text: its errors carry the LineId and col 0
    program = parse("func main() {\n    var a = 1;\n    output(a);\n}\n")
    stmt = program.function("main").body[1]
    stmt.call.args[0] = Var("b")
    with pytest.raises(UndeclaredIdentifierError) as exc:
        validate_program(program)
    assert (exc.value.message, exc.value.line, exc.value.col) == ("use of undeclared identifier 'b'", stmt.line_id, 0)


def test_line_ids_are_one_to_n_in_walk_order(demo_source) -> None:
    # the parser numbers a statement at its first token, which is the walk's pre-order
    for src in [demo_source] + [p.source for p in generate_synthetic(12, seed=1)]:
        ids = [st.line_id for st in walk_program(parse(src))]
        assert ids == list(range(1, len(ids) + 1))


def test_validate_program_leaves_the_positions_it_is_given_unchanged() -> None:
    # a for is checked as its while form, which reports at the for's position
    src = (
        "func f(a) {\n    return a;\n}\n"
        "func main() {\n    var n = 2;\n    for (var i = 0; i < n; i = i + 1) {\n        output(i);\n    }\n}\n"
    )
    parser = Parser(src)
    program = parser.parse_program()
    starts, heads = list(parser.starts), [list(h) for h in parser.heads]
    validate_program(program, parser)
    assert (parser.starts, parser.heads) == (starts, heads)
    assert len(starts) == 1 + len(list(walk_program(program)))
    assert [[parser.stream.position(i) for i in h] for h in heads] == [[(1, 1), (1, 8)], [(4, 1)]]


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
    assert signature(again) == signature(demo_program)
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
    assert signature(parse(text), with_flags=False) == signature(p, with_flags=False)


def test_negative_literals_round_trip() -> None:
    p = parse("func main() { var x = -5; output(x * -1); }")
    text = pretty_print(p)
    assert "-5" in text
    assert signature(parse(text)) == signature(p)


def test_for_header_sub_statements_get_ids() -> None:
    p = parse("func main() { var n = 3; for (var i = 0; i < n; i = i + 1) { output(i); } }")
    fors = [st for st in walk_program(p) if isinstance(st, For)]
    assert len(fors) == 1
    st = fors[0]
    assert st.init is not None and st.init.line_id > st.line_id
    assert isinstance(st.step, Assign) and st.step.line_id > st.line_id


def test_tokenize_categories() -> None:
    kinds = [(t.kind, t.text) for t in lex("a = b + 1;")[0]]
    assert kinds == [
        ("ident", "a"),
        ("op", "="),
        ("ident", "b"),
        ("op", "+"),
        ("int", "1"),
        ("punct", ";"),
        ("eof", ""),
    ]


def test_tokenize_keywords_and_strings() -> None:
    toks, _ = lex('func main() { while (1) { output("hi, there"); } }')
    kinds = {t.text: t.kind for t in toks}
    assert kinds["while"] == "keyword"
    assert kinds["func"] == "keyword"
    assert kinds["output"] == "ident"
    assert kinds["hi, there"] == "str"


def test_tokenize_excludes_vuln_markers(demo_source) -> None:
    assert all("@vuln" not in t.text for t in lex(demo_source)[0])


def test_tokenize_of_ast_matches_text(demo_source, demo_program) -> None:
    via_ast = [(t.kind, t.text) for t in lex(pretty_print(demo_program))[0][:-1]]
    via_text = [(t.kind, t.text) for t in lex(demo_source)[0][:-1]]
    assert via_ast == via_text
    # token count of the fixture without its eof token, pinned
    assert len(via_ast) == 124


def test_string_escapes_round_trip() -> None:
    p = parse('func main() { output("a\\"b\\\\c\\nd"); }')
    assert signature(parse(pretty_print(p))) == signature(p)


# ---- lexer -------------------------------------------------------------------


def test_lex_golden_stream(demo_source) -> None:
    """Every token of the fixture with its position, and the marker line."""
    tokens, vuln_lines = lex(demo_source)
    golden = (pathlib.Path(__file__).parent / "fixtures" / "scale_rows.tokens").read_text().splitlines()
    assert [f"{t.line} {t.col} {t.kind} {t.text}".rstrip() for t in tokens] == golden
    assert vuln_lines == {5}


def test_lex_decodes_string_escapes() -> None:
    tokens, _ = lex('x = "a\\"b\\\\c\\nd\\t";')
    assert [(t.kind, t.text, t.col) for t in tokens[2:4]] == [("str", 'a"b\\c\nd\t', 5), ("punct", ";", 19)]


def test_lex_vuln_marker_tolerates_spacing_but_not_extra_text() -> None:
    _, vuln_lines = lex("a = 1; //  @vuln \nb = 2; //@vuln!\n//@vuln")
    assert vuln_lines == {1, 3}


# sources whose line ends, tabs, comments and trailing lines a line-wise
# scan must treat as the whole-source scan did; tests/fixtures/lex_edges.json
# holds each one's tokens, marker lines and eof position, or its error
_LEX_EDGES = {
    "crlf": "func main() {\r\n    var a = 1;\r\n\r\n    output(a); //@vuln\r\n}\r\n",
    "lone-cr": "var a\r= 1;\r\routput(a);\r",
    "tabs": "func main() {\n\tvar s = \"a\tb\";\t\tvar t = 2;\n\t\toutput(\t-t\t);\n}",
    "trailing-comment": "func main() {\n    output(1);\n} // the end",
    "blank-trailing-lines": "func main() {\n    output(1);\n}\n\n   \n\t\n\r\n",
    "vuln-on-a-last-line-without-newline": "func main() {\n    output(1);\n}\n//@vuln",
    "vuln-crlf-on-a-last-line": "output(1);\r\n   //@vuln\r",
    "empty": "",
    "only-newlines": "\n\n\n",
    "comment-holding-quotes-and-slashes": "a = 1; // \"x\\ // @vuln\n//@vuln\t\nb /c;",
    "unterminated-string-before-crlf": "func main() {\r\n    output(\"ab);\r\n}",
    "bad-escape-before-crlf": "x = \"a\\\r\ny\";",
    "escape-at-the-end": "\n\tx = \"a\\",
    "character-after-tabs": "\n\t\tx = 1 @ 2;",
    "form-feed": "a = 1;\x0cb = 2;",
}


def _lex_record(source: str) -> dict:
    try:
        tokens, vuln_lines = lex(source)
    except SyntaxErrorML as exc:
        return {"error": [exc.message, exc.line, exc.col]}
    return {
        "tokens": [[t.line, t.col, t.kind, t.text] for t in tokens[:-1]],
        "vuln_lines": sorted(vuln_lines),
        "eof": [tokens[-1].line, tokens[-1].col],
    }


def _front_end_sources() -> list[str]:
    """gen's programs at seed 1, their printed ct1-ct8 variants, then one
    seeded deletion, duplication and swap of a character in each of those."""
    sources = []
    for item in generate_synthetic(40, seed=1):
        program = item.program()
        sources.append(item.source)
        for kind in ALL_KINDS:
            variant = transform_variant(item, program, kind, 1)
            if variant is not None:
                sources.append(variant.source)
    rng = random.Random(1)
    mutated = []
    for s in sources:
        i, j, k = rng.randrange(len(s)), rng.randrange(len(s)), rng.randrange(len(s) - 1)
        mutated += [s[:i] + s[i + 1:], s[:j] + s[j] + s[j:], s[:k] + s[k + 1] + s[k] + s[k + 2:]]
    return sources + mutated


def _parse_record(source: str) -> dict:
    try:
        parser = Parser(source)
        program = parser.parse_program()
    except MiniLangError as exc:
        return {"error": [type(exc).__name__, exc.message, exc.line, exc.col]}
    return {"signature": signature(program),
            "positions": [parser.stream.position(i) for i in parser.starts[1:]]}


def test_lex_and_parse_outcomes_are_pinned() -> None:
    """Every token, marker line and error of the lexer, and every tree,
    flag, statement position and error of the parser, on valid programs
    and their single-character mutations, against the digest the front
    end gave before the lexer kept flat token texts."""
    digest = hashlib.sha256()
    for source in _front_end_sources():
        record = {"lex": _lex_record(source), "parse": _parse_record(source)}
        digest.update((json.dumps(record, sort_keys=True) + "\n").encode("utf-8"))
    assert digest.hexdigest() == "6ef2d3fef21ebd8cec43c1ea26094e13b24edea08bfa387b0f2d9e3be31e28fb"


@pytest.mark.parametrize("name", list(_LEX_EDGES))
def test_lex_edge_cases_match_the_golden_streams(name) -> None:
    golden = json.loads((pathlib.Path(__file__).parent / "fixtures" / "lex_edges.json").read_text())
    assert _lex_record(_LEX_EDGES[name]) == golden[name]


@pytest.mark.parametrize(
    "source, message, line, col",
    [
        ('output("abc);\n', "unterminated string literal", 1, 8),
        ('func f() {\n    output("abc);\n}', "unterminated string literal", 2, 12),
        ('x = "a\\qb";', "bad escape sequence", 1, 8),
        ('x = "a\\\ny";', "bad escape sequence", 1, 8),
        ('x = "a\\', "bad escape sequence", 1, 8),
        ("if (a & b) {", "unexpected character '&'", 1, 7),
        ("a = b | c;", "unexpected character '|'", 1, 7),
        ("var café = 1;", "unexpected character 'é'", 1, 8),
        ("x = 2²;", "unexpected character '²'", 1, 6),
    ],
    ids=[
        "unterminated", "unterminated-line-2", "bad-escape", "escaped-newline",
        "escape-at-end", "lone-ampersand", "lone-bar", "non-ascii-identifier",
        "non-ascii-digit",
    ],
)
def test_lex_error_message_and_position(source, message, line, col) -> None:
    with pytest.raises(SyntaxErrorML) as exc:
        lex(source)
    assert (exc.value.message, exc.value.line, exc.value.col) == (message, line, col)


@pytest.mark.parametrize(
    "first_line",
    ["x = 1;", "x = 1; //@vuln", "x = 1; // note", 'x = "ab', 'x = "a\\', "y = a & b;", ""],
    ids=["tokens", "vuln-marker", "comment", "unterminated", "bad-escape", "lone-ampersand", "blank-only"],
)
def test_a_long_blank_tail_lexes_in_linear_time_as_the_stripped_line(first_line) -> None:
    blanks = (" \t \r" * 50_000)[:200_000]
    padded = first_line + blanks + "\nb = 2;"
    start = time.perf_counter()
    record = _lex_record(padded)
    assert time.perf_counter() - start < 2.0
    assert record == _lex_record(first_line + "\nb = 2;")


@settings(derandomize=True, database=None, max_examples=300)
@given(st.one_of(st.text(), st.text(alphabet='"\\/@vuln \t\r\n&|!=<>+-*%(){}[],;_aZ09')))
def test_lex_returns_tokens_or_raises_syntax_error(text) -> None:
    try:
        tokens, _ = lex(text)
    except SyntaxErrorML:
        return
    assert tokens[-1].kind == "eof"
    positions = [(t.line, t.col) for t in tokens]
    assert positions == sorted(set(positions))


def test_a_line_cached_at_one_indent_lexes_alike_at_another() -> None:
    """Both sources scan `a[i] = 1; //@vuln` from one cache entry: each
    drops the marker from its own copy of the texts and keeps its own
    marker line, and a third source lexed after them is unchanged."""
    flagged = "func f(a, i) {\n    a[i] = 1; //@vuln\n}"
    plain = "a[i] = 1; //@vuln\nfunc f(a, i) {\n        a[i] = 1;\n}"
    before = lex(flagged)
    tokens, vuln_lines = lex(plain)
    assert vuln_lines == {1}
    line = ["a", "[", "i", "]", "=", "1", ";"]
    assert before[0].texts[8:15] == tokens.texts[:7] == tokens.texts[15:22] == line
    after = lex(flagged)
    assert (after[0].texts, after[0].firsts, after[1]) == (before[0].texts, before[0].firsts, {2})
    assert [(t.line, t.col) for t in after[0]] == [(t.line, t.col) for t in before[0]]


def test_a_bad_character_after_a_cached_line_is_named_at_its_position() -> None:
    lex("x = 1;")
    with pytest.raises(SyntaxErrorML) as exc:
        lex("y = 2;\n\t  x = 1; @")
    assert (exc.value.message, exc.value.line, exc.value.col) == ("unexpected character '@'", 2, 11)


def test_the_line_cache_stays_within_its_bound() -> None:
    bound = lexer._scan.cache_info().maxsize
    assert bound == lexer._SCAN_CACHE_LINES
    lex("\n".join(f"v{n} = {n};" for n in range(bound + 100)))
    assert lexer._scan.cache_info().currsize == bound


def _main(body: str) -> str:
    return "func main() { var a = 1; " + body + " }"


@pytest.mark.parametrize(
    "source",
    [
        _main("output(" + "(" * 100 + "a" + ")" * 100 + ");"),
        _main("output(" + "-" * 1200 + "a);"),
        _main("if (a) { " * 400 + "}" * 400),
        _main("output(" + " + ".join(["a"] * 2000) + ");"),
    ],
    ids=["100-parentheses", "1200-unary-minuses", "400-nested-ifs", "2000-term-sum"],
)
def test_nesting_past_the_depth_limit_raises_syntax_error(source) -> None:
    with pytest.raises(SyntaxErrorML, match=f"nesting deeper than {MAX_DEPTH} levels"):
        parse(source)


@pytest.mark.parametrize("source", [_main("output(" + "7" * 5000 + ");"), _main("var b[" + "7" * 5000 + "];")])
def test_overlong_integer_literal_raises_syntax_error(source) -> None:
    with pytest.raises(SyntaxErrorML, match="integer literal of 5000 digits is too long"):
        parse(source)


def test_depth_limit_counts_each_level_once() -> None:
    # the body block and output's argument are two levels, each parenthesis one more
    def nested(parens: int) -> str:
        return "func main() { output(" + "(" * parens + "1" + ")" * parens + "); }"

    assert len(parse(nested(MAX_DEPTH - 2)).functions) == 1
    with pytest.raises(SyntaxErrorML):
        parse(nested(MAX_DEPTH - 1))


def _output(expr: str) -> str:
    return _main(f"output({expr});")


# each form's deepest accepted size, counted in terms or factors, and the
# column of the error one past it: an operator is one level, and a looser
# operator drops the levels of the tighter ones before it
_CHAIN_LIMITS = [
    pytest.param(lambda n: " + ".join(["a * a"] * n), 38, 341, id="products-summed"),
    pytest.param(lambda n: " * ".join(["a"] * n) + " + a", 39, 189, id="product-plus-one"),
    pytest.param(lambda n: "a + " + " * ".join(["a"] * n), 38, 189, id="one-plus-product"),
    pytest.param(lambda n: "a < " + " + ".join(["a"] * n), 38, 189, id="compared-sum"),
]


@pytest.mark.parametrize("chain, deepest, col", _CHAIN_LIMITS)
def test_mixed_precedence_chain_depth_limit(chain, deepest, col) -> None:
    assert len(parse(_output(chain(deepest))).functions) == 1
    with pytest.raises(SyntaxErrorML) as exc:
        parse(_output(chain(deepest + 1)))
    assert (exc.value.message, exc.value.line, exc.value.col) == (f"nesting deeper than {MAX_DEPTH} levels", 1, col)


# the deepest accepted program of each nesting form; the printer writes a
# unary minus on anything but an integer literal as 0 - (e), so it is
# charged two levels
_DEEPEST = [
    pytest.param(lambda n: _output("(" * n + "a" + ")" * n), 38, id="parentheses"),
    pytest.param(lambda n: _output("-" * n + "a"), 19, id="unary-minus"),
    pytest.param(lambda n: _output(" + ".join(["-5"] * n)), 38, id="negative-literals-summed"),
    pytest.param(lambda n: _output("a * -(" * n + "a" + ")" * n), 9, id="times-minus"),
    pytest.param(lambda n: _main("if (a) { " * n + "}" * n), 39, id="nested-if"),
    pytest.param(lambda n: _main("while (a) { " * n + "}" * n), 39, id="nested-while"),
    pytest.param(lambda n: _output(" + ".join(["a"] * n)), 39, id="sum"),
    *(pytest.param(lambda n, chain=p.values[0]: _output(chain(n)), p.values[1], id=p.id) for p in _CHAIN_LIMITS),
]


@pytest.mark.parametrize("source, deepest", _DEEPEST)
def test_the_deepest_program_of_each_form_prints_to_one_that_parses(source, deepest) -> None:
    program = parse(source(deepest))
    with pytest.raises(SyntaxErrorML, match=f"nesting deeper than {MAX_DEPTH} levels"):
        parse(source(deepest + 1))
    assert signature(parse(pretty_print(program))) == signature(program)


@settings(derandomize=True, database=None, max_examples=300)
@given(st.one_of(st.text(), st.text(alphabet="func main(){}var=;+-*()[]if else while return a1 \n")))
def test_parse_returns_a_program_or_raises_minilang_error(text) -> None:
    try:
        program = parse(text)
    except MiniLangError:
        return
    assert isinstance(program, Program)


def _fields_of(cls: type, wanted) -> tuple[str, ...]:
    hints = typing.get_type_hints(cls)
    names = []
    for f in dataclasses.fields(cls):
        hint = hints[f.name]
        args = typing.get_args(hint)
        if typing.get_origin(hint) is typing.Union:
            (hint,) = [a for a in args if a is not type(None)]
        if wanted(hint):
            names.append(f.name)
    return tuple(names)


def _kinds(base: type) -> list[type]:
    """The node classes derived from `base`.  dataclass(slots=True) replaces
    each class it decorates, and the replaced one stays in __subclasses__()
    until the garbage collector frees it, so collect first."""
    gc.collect()
    return base.__subclasses__()


@pytest.mark.parametrize("cls", _kinds(Stmt), ids=lambda cls: cls.__name__)
def test_slot_tables_list_every_expression_and_block_field(cls) -> None:
    exprs = _fields_of(cls, lambda t: isinstance(t, type) and issubclass(t, Expr))
    blocks = _fields_of(cls, lambda t: typing.get_origin(t) is list and typing.get_args(t) == (Stmt,))
    assert EXPR_SLOTS[cls] == exprs
    assert BLOCK_SLOTS.get(cls, ()) == blocks


def test_slot_tables_cover_exactly_the_statement_kinds() -> None:
    kinds = set(_kinds(Stmt))
    assert set(EXPR_SLOTS) == kinds
    assert set(BLOCK_SLOTS) <= kinds


def test_map_expr_visits_children_before_the_parent_left_to_right() -> None:
    index = Index("b", Var("i"))
    call = Call("f", [Var("a"), index])
    one = IntLit(1)
    root = BinOp("+", call, one)
    seen: list[Expr] = []

    def visit(e: Expr) -> Expr:
        seen.append(e)
        return e

    assert map_expr(root, visit) is root
    assert seen == [call.args[0], index.index, index, call, one, root]


@pytest.mark.parametrize("size", ["9999999999", "99999999999999999999", str(MAX_ARRAY_SIZE + 1)])
def test_array_size_past_the_bound_raises_syntax_error(size) -> None:
    with pytest.raises(SyntaxErrorML, match=f"array size must be at most {MAX_ARRAY_SIZE}"):
        parse(f"func main() {{ var a[{size}]; output(1); }}")


# the programs below declare integers a and b and an array c of 3; a
# string or an array where an integer is due traps as a type error
_LEAVES = st.one_of(
    st.integers(-9, 9).map(IntLit),
    st.sampled_from(["a", "b", "c"]).map(Var),
    st.sampled_from(["", "s", 'q"\\']).map(StrLit),
    st.builds(lambda: Call("input", [])),
)
_OPERATOR_TREES = st.recursive(
    _LEAVES,
    lambda kids: st.one_of(
        st.builds(BinOp, st.sampled_from(sorted(BINARY_PREC)), kids, kids),
        st.builds(Index, st.sampled_from(["c", "a"]), kids),
    ),
    max_leaves=12,
)


@settings(derandomize=True, database=None, max_examples=300)
@given(_OPERATOR_TREES)
def test_printed_operator_trees_parse_back_to_the_same_tree(tree) -> None:
    program = parse("func main() { var a = 1; var b = 2; var c[3]; output(0); }")
    program.function("main").body[-1].call.args = [tree]
    assert signature(parse(pretty_print(program))) == signature(program)


@settings(derandomize=True, database=None, max_examples=300)
@given(_OPERATOR_TREES)
@example(BinOp("*", IntLit(-3), BinOp("-", IntLit(-2), Var("a"))))
@example(BinOp("-", Var("a"), BinOp("-", IntLit(-1), IntLit(-9))))
@example(BinOp("+", StrLit('q"\\'), StrLit("tab\there\nline")))
@example(BinOp("*", BinOp("||", Var("a"), BinOp("&&", Var("b"), IntLit(0))),
               Index("c", BinOp("%", BinOp("-", IntLit(-4), Var("b")), IntLit(3)))))
def test_token_walk_is_the_printed_text_lexed_and_normalized(tree) -> None:
    program = parse("func main() { var a = 1; var b = 2; var c[3]; output(0); }")
    main = program.function("main")
    main.body[-1].call.args = [tree]
    text = pretty_print(program)
    tokens = function_tokens(main)
    assert list(tokens) == normalize_tokens(text)
    assert list(statement_tokens(main.body[-1:])) == normalize_tokens(text.splitlines()[-2])
    fragment = Fragment("p/main", "main", tokens, 0, "train")
    assert normalize_tokens(fragment.text) == list(tokens)


FUZZ_SRC = """func main() {
    var a = 1;
    var b = 2;
    var c[3];
    output(0);
    c[0] = 0;
    if (0) { b = 1; } else { b = 3; }
    while (0) { b = b - 1; output(b); }
    for (var i = 0; 0; i = i + 1) { a = a + i; }
    output(a);
}"""
# where a fuzzed tree goes in FUZZ_SRC: statement index and attribute
FUZZ_PLACES = {
    "output": (3, "call"),
    "write-index": (4, "index"),
    "write-value": (4, "value"),
    "if": (5, "cond"),
    "while": (6, "cond"),
    "for": (7, "cond"),
}


@settings(derandomize=True, database=None, max_examples=300)
@given(
    _OPERATOR_TREES,
    st.sampled_from(sorted(FUZZ_PLACES)),
    st.integers(1, 200),
    st.lists(st.integers(-4, 4), max_size=4),
)
def test_interpret_is_total_and_deterministic(tree, place, fuel, inputs) -> None:
    program = parse(FUZZ_SRC)
    index, attr = FUZZ_PLACES[place]
    statement = program.function("main").body[index]
    if attr == "call":
        statement.call.args = [tree]
    else:
        setattr(statement, attr, tree)
    result = interpret(program, "main", inputs, fuel)
    assert isinstance(result, ExecResult)
    assert result.status in (COMPLETED, RUNTIME_ERROR, FUEL_EXHAUSTED)
    assert result.steps_used <= fuel
    assert interpret(program, "main", inputs, fuel) == result


SIGNATURE_SRC = """
func f(p) {
    var a = p;
    var b[3];
    a = a + 2;
    b[0] = a;
    if (a < 2) {
        a = 3;
    } else {
        a = 4;
    }
    while (a > 0) {
        a = a - 1;
    }
    for (var i = 0; i < 2; i = i + 1) {
        a = b[i];
    }
    output("s");
    return f(a);
}
"""


def _changed(value):
    """A value of the same field that differs from ``value``."""
    if isinstance(value, str):
        return value + "x"
    if isinstance(value, int):
        return value + 1
    if isinstance(value, list):
        return value[:-1]
    return None if value is not None else IntLit(0)


def _all_nodes(program) -> list:
    nodes = []
    for stmt in walk_program(program):
        nodes.append(stmt)
        for e in stmt_expressions(stmt):
            nodes.extend(walk_expr(e))
    return nodes


def test_every_field_of_every_node_kind_is_in_the_signature() -> None:
    program = parse(SIGNATURE_SRC)
    nodes = _all_nodes(program)
    assert {type(n) for n in nodes} == set(_kinds(Stmt)) | set(_kinds(Expr))
    base = signature(program)
    for node in nodes:
        for f in dataclasses.fields(node):
            old = getattr(node, f.name)
            setattr(node, f.name, _changed(old))
            assert signature(program) != base, (type(node).__name__, f.name)
            setattr(node, f.name, old)
    assert signature(program) == base


def test_a_flag_is_in_the_signature_only_with_flags() -> None:
    program = parse(SIGNATURE_SRC)
    with_flags, without = signature(program), signature(program, with_flags=False)
    for stmt in walk_program(program):
        stmt.vuln = True
        assert signature(program) != with_flags, type(stmt).__name__
        assert signature(program, with_flags=False) == without
        stmt.vuln = False
        stmt.line_id += 100
        stmt.origin = 7
        assert signature(program) == with_flags

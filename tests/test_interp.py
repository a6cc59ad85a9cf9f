"""Interpreter semantics: outputs, traps, fuel accounting, determinism."""
from __future__ import annotations

import pytest

from zigzag.lang import (
    COMPLETED,
    DIVISION_BY_ZERO,
    FUEL_EXHAUSTED,
    INPUT_EXHAUSTED,
    OUT_OF_BOUNDS,
    RUNTIME_ERROR,
    UnknownEntryError,
    interpret,
    parse,
    validate_program,
)
from zigzag.lang.nodes import BinOp, Expr, Program, Var
from zigzag.lang.parser import MAX_ARRAY_SIZE


def run(src: str, inputs=None, fuel: int = 10_000):
    return interpret(parse(src), "main", inputs or [], fuel)


def test_output_sequence() -> None:
    r = run("func main() { output(1); output(2 + 3); }")
    assert r.status == COMPLETED
    assert r.outputs == [1, 5]


def test_unknown_entry_raises() -> None:
    with pytest.raises(UnknownEntryError):
        interpret(parse("func f() { return; }"), "main", [], 100)


def test_out_of_bounds_read() -> None:
    r = run("func main() { var a[3]; output(a[3]); }")
    assert r.status == RUNTIME_ERROR
    assert r.error_kind == OUT_OF_BOUNDS


def test_negative_index_traps() -> None:
    r = run("func main() { var a[3]; a[-1] = 5; }")
    assert r.status_key == (RUNTIME_ERROR, OUT_OF_BOUNDS)


def test_trap_reports_flagged_line() -> None:
    p = parse("func main() {\n    var a[2];\n    a[9] = 1; //@vuln\n}")
    r = interpret(p, "main", [], 100)
    flagged = [st.line_id for fn in p.functions for st in fn.body if st.vuln]
    assert flagged and r.error_line == flagged[0]


def test_division_and_modulo_by_zero() -> None:
    assert run("func main() { output(1 / 0); }").error_kind == DIVISION_BY_ZERO
    assert run("func main() { output(1 % 0); }").error_kind == DIVISION_BY_ZERO


def test_division_truncates_toward_zero() -> None:
    r = run("func main() { output(-7 / 2); output(7 / -2); output(-7 % 2); output(7 % -2); }")
    assert r.outputs == [-3, -3, -1, 1]


def test_input_consumed_in_order_and_exhaustion() -> None:
    r = run("func main() { output(input() + input()); }", inputs=[4, 5])
    assert r.outputs == [9]
    r2 = run("func main() { output(input() + input()); }", inputs=[4])
    assert r2.status_key == (RUNTIME_ERROR, INPUT_EXHAUSTED)


def test_infinite_loop_exhausts_fuel_exactly() -> None:
    r = run("func main() { while (1) { } }", fuel=1000)
    assert r.status == FUEL_EXHAUSTED
    assert r.steps_used == 1000


def test_steps_within_fuel_on_completion() -> None:
    r = run("func main() { var i; for (i = 0; i < 5; i = i + 1) { output(i); } }")
    assert r.status == COMPLETED
    assert 0 < r.steps_used <= 40


def test_for_desugars_to_while_semantics() -> None:
    for_src = "func main() { var i; for (i = 0; i < 4; i = i + 1) { output(i * i); } }"
    while_src = """func main() {
        var i;
        i = 0;
        while (i < 4) {
            output(i * i);
            i = i + 1;
        }
    }"""
    a, b = run(for_src), run(while_src)
    assert a.outputs == b.outputs
    assert a.status == b.status == COMPLETED
    assert a.steps_used == b.steps_used


def test_functions_return_zero_on_fall_through() -> None:
    r = run("func f() { output(7); }\nfunc main() { output(f()); }")
    assert r.outputs == [7, 0]


def test_arrays_pass_by_reference() -> None:
    src = """func fill(a, v) {
        a[0] = v;
        return 0;
    }
    func main() {
        var a[2];
        fill(a, 9);
        output(a[0]);
    }"""
    assert run(src).outputs == [9]


def test_string_concat_and_compare() -> None:
    r = run('func main() { output("ab" + "cd"); output("x" == "x"); output("x" != "y"); }')
    assert r.outputs == ["abcd", 1, 1]


def test_short_circuit_evaluation() -> None:
    # the right operand would trap; short circuit must skip it
    src = "func main() { var a[1]; if (0 && a[5]) { output(1); } else { output(2); } }"
    r = run(src)
    assert r.status == COMPLETED
    assert r.outputs == [2]
    src2 = "func main() { var a[1]; if (1 || a[5]) { output(1); } }"
    assert run(src2).outputs == [1]


def test_recursion_within_limit() -> None:
    src = """func fact(n) {
        if (n < 2) { return 1; }
        return n * fact(n - 1);
    }
    func main() { output(fact(6)); }"""
    assert run(src).outputs == [720]


def test_runaway_recursion_reports_fuel_exhausted() -> None:
    src = "func f(n) { return f(n + 1); }\nfunc main() { output(f(0)); }"
    r = run(src, fuel=100_000)
    assert r.status == FUEL_EXHAUSTED


def _deep_sum(terms: int) -> Program:
    """main() outputs a + a + ... + a, built as a tree deeper than parse accepts."""
    program = parse("func main() { var a = 1; output(a); }")
    total: Expr = Var("a")
    for _ in range(terms - 1):
        total = BinOp("+", total, Var("a"))
    program.function("main").body[1].call.args = [total]
    validate_program(program)
    return program


@pytest.mark.parametrize(
    "build",
    [
        lambda: parse("func f(n) { return 1 + f(n); }\nfunc main() { output(f(0)); }"),
        lambda: _deep_sum(900),
    ],
    ids=["recursive-call-in-sum", "900-term-sum"],
)
def test_python_stack_exhaustion_reports_fuel_exhausted(build) -> None:
    r = interpret(build(), "main", [], 100_000)
    assert r.status == FUEL_EXHAUSTED
    assert r.steps_used == 100_000


def test_array_at_the_size_bound_runs() -> None:
    r = run(f"func main() {{ var a[{MAX_ARRAY_SIZE}]; a[{MAX_ARRAY_SIZE - 1}] = 7; output(a[{MAX_ARRAY_SIZE - 1}]); }}")
    assert r.status == COMPLETED and r.outputs == [7]


def test_deterministic_across_runs() -> None:
    src = "func main() { var i; var acc = 0; for (i = 0; i < 9; i = i + 1) { acc = acc + i * i; } output(acc); }"
    runs = [run(src) for _ in range(3)]
    assert all(r.outputs == runs[0].outputs and r.steps_used == runs[0].steps_used for r in runs)


def test_demo_fixture_behaviour(demo_program) -> None:
    benign = interpret(demo_program, "main", [4], 5000)
    assert benign.status == COMPLETED
    assert benign.outputs == [30]
    witness = interpret(demo_program, "main", [9], 5000)
    assert witness.status_key == (RUNTIME_ERROR, OUT_OF_BOUNDS)
    assert witness.error_line == 6

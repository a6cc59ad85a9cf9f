"""Behavior checks for the transform passes.

Each pass must keep observable behavior (outputs + termination status)
on the interpreter, keep the flagged statements reachable through the
LineMap, print/parse cleanly, and be byte-deterministic per seed.
"""
import hashlib
import json

import pytest

import zigzag.transforms
from zigzag.cli import main
from zigzag.corpus import CorpusProgram, function_labels, generate_synthetic, save_corpus
from zigzag.encoding import normalize_tokens
from zigzag.fragments import GRANULARITIES, extract_fragments, slice_statements
from zigzag.lang import COMPLETED, interpret, parse, pretty_print
from zigzag.lang.nodes import (
    For,
    FunctionDef,
    Program,
    collect_line_ids,
    flagged_lines,
    signature,
    stmt_expressions,
    walk_expr,
    walk_program,
)
from zigzag.transforms import (
    ALL_KINDS,
    CT_SETS,
    GENERATED_PREFIX,
    InapplicableTransform,
    TransformError,
    apply_transform,
    resolve_kinds,
)
from zigzag.transforms.base import clone_program

STRINGS_SRC = """
func tag(code) {
    var label = "st-";
    if (code == 0) {
        label = label + "ok";
    } else {
        label = label + "bad";
    }
    return label;
}

func main() {
    var n = input();
    output(tag(n));
    output("done");
    return 0;
}
"""

NUMERIC_SRC = """
func gcd(a, b) {
    while (b != 0) {
        var t = b;
        b = a - a / b * b;
        a = t;
    }
    return a;
}

func tri(n) {
    var s = 0;
    for (var i = 1; i <= n; i = i + 1) {
        s = s + i;
    }
    return s;
}

func pick(k, x, y) {
    if (k > 0) {
        return gcd(x, y);
    }
    return tri(x);
}

func main() {
    var k = input();
    var x = input();
    var y = input();
    output(pick(k, x, y));
    output(pick(0 - k, x, y));
    return 0;
}
"""

ARRAYS_SRC = """
func fill(buf, n, seed) {
    var i = 0;
    while (i < n) {
        buf[i] = seed + i * 3; //@vuln
        seed = seed - 1;
        i = i + 1;
    }
    return seed;
}

func total(buf, n) {
    var acc = 0;
    var j = 0;
    var bias = 2;
    acc = acc + bias;
    acc = acc - 2;
    while (j < n) {
        acc = acc + buf[j];
        j = j + 1;
    }
    return acc;
}

func main() {
    var buf[8];
    var n = input();
    var left = fill(buf, n, 4);
    var t = total(buf, 6);
    output(left);
    output(t);
    return 0;
}
"""

MUTUAL_SRC = """
func odd(n) {
    if (n == 0) {
        return 0;
    }
    return even(n - 1);
}

func even(n) {
    if (n == 0) {
        return 1;
    }
    return odd(n - 1);
}

func main() {
    var n = input();
    output(even(n));
    output(odd(n + 1));
    return 0;
}
"""

# for-loops without an init, without a condition, without a step, and with none
PARTIAL_FORS_SRC = """
func scan(n) {
    var i = 0;
    var s = 0;
    for (; i < n; i = i + 1) {
        s = s + i;
    }
    for (var k = 0; k < n; ) {
        s = s + k * 2;
        k = k + 1;
    }
    for (;;) {
        if (s > 40) {
            return s;
        }
        s = s + 7;
    }
}

func label(x) {
    var t = "v";
    for (var j = x; ; j = j - 1) {
        if (j < 1) {
            return t;
        }
        t = t + "x";
    }
}

func main() {
    var n = input();
    output(scan(n));
    output(label(n));
    return 0;
}
"""

CASES = [
    (STRINGS_SRC, [[0], [1], [5]]),
    (NUMERIC_SRC, [[1, 12, 18], [0, 5, 9], [2, 7, 7]]),
    (ARRAYS_SRC, [[4], [0], [6]]),
    (MUTUAL_SRC, [[0], [3], [6]]),
    (PARTIAL_FORS_SRC, [[0], [3], [6]]),
]

FUEL = 20_000


def _behavior(program, input_sets, fuel=FUEL):
    return [interpret(program, "main", list(iv), fuel=fuel) for iv in input_sets]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_pass_preserves_behavior(kind):
    checked = 0
    for src, input_sets in CASES:
        prog = parse(src)
        base = _behavior(prog, input_sets)
        for seed in range(4):
            try:
                out, _ = apply_transform(prog, kind, seed)
            except InapplicableTransform:
                break
            # output must survive a print/parse round trip
            reparsed = parse(pretty_print(out))
            # fuel multiplier 4: passes may add dispatch/call overhead
            got = _behavior(reparsed, input_sets, fuel=FUEL * 4)
            for r0, r1 in zip(base, got):
                assert r0.semantically_equal(r1), (kind, seed, r0, r1)
            checked += 1
    assert checked > 0, f"{kind} applied to no test program"


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_pass_is_deterministic_per_seed(kind):
    for src, _ in CASES:
        prog = parse(src)
        try:
            a, ma = apply_transform(prog, kind, 42)
            b, mb = apply_transform(prog, kind, 42)
        except InapplicableTransform:
            continue
        assert pretty_print(a) == pretty_print(b)
        assert ma == mb
        return
    pytest.skip(f"{kind} inapplicable to every case program")


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_line_map_covers_inputs_and_flags(kind):
    prog = parse(ARRAYS_SRC)
    orig_ids = set(collect_line_ids(prog))
    orig_flags = flagged_lines(prog)
    try:
        out, lmap = apply_transform(prog, kind, 9)
    except InapplicableTransform:
        pytest.skip(f"{kind} inapplicable")
    assert set(lmap) == orig_ids
    out_ids = set(collect_line_ids(out))
    for images in lmap.values():
        assert images and images <= out_ids
    # the flag rides with the statement: new flags live inside the image
    image = set().union(*(lmap[f] for f in orig_flags))
    new_flags = flagged_lines(out)
    assert new_flags and new_flags <= image


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_witness_trap_lands_in_flag_image(kind):
    """The out-of-bounds trap of a witness input moves with the LineMap."""
    prog = parse(ARRAYS_SRC)
    flags = flagged_lines(prog)
    witness = [12]  # writes past buf[7]
    r0 = interpret(prog, "main", list(witness), fuel=FUEL)
    assert r0.status == "runtime-error" and r0.error_line in flags
    for seed in range(3):
        try:
            out, lmap = apply_transform(prog, kind, seed)
        except InapplicableTransform:
            pytest.skip(f"{kind} inapplicable")
        r1 = interpret(parse(pretty_print(out)), "main", list(witness), fuel=FUEL * 4)
        assert r1.status == "runtime-error"
        assert r1.error_kind == r0.error_kind
        image = set().union(*(lmap[f] for f in flags))
        assert r1.error_line in image


def test_generated_names_carry_reserved_prefix():
    prog = parse(NUMERIC_SRC)
    before = {f.name for f in prog.functions}
    for kind in ALL_KINDS:
        try:
            out, _ = apply_transform(prog, kind, 3)
        except InapplicableTransform:
            continue
        for fn in out.functions:
            if fn.name not in before:
                assert fn.name.startswith(GENERATED_PREFIX), (kind, fn.name)


def test_bogus_argument_pass_keeps_call_value():
    src = """
func f(a, b) {
    return a - b;
}

func main() {
    output(f(5, 3));
    return 0;
}
"""
    prog = parse(src)
    for seed in range(6):
        out, _ = apply_transform(prog, "ct2", seed)
        r = interpret(parse(pretty_print(out)), "main", [], fuel=1000)
        assert r.outputs == [2]
        f = out.function("f")
        assert len(f.params) == 3  # two originals permuted plus one bogus


def test_string_builder_pass_removes_inline_literals():
    prog = parse(STRINGS_SRC)
    out, _ = apply_transform(prog, "ct1", 0)
    # every original string literal now lives behind a builder call
    text = pretty_print(out)
    main_body = text.split("func main")[1]
    assert '"done"' not in main_body
    r = interpret(out, "main", [0], fuel=4000)
    assert r.outputs == ["st-ok", "done"]


def test_string_builder_pass_rejects_programs_without_strings():
    prog = parse(NUMERIC_SRC)
    with pytest.raises(InapplicableTransform):
        apply_transform(prog, "ct1", 0)


def test_merge_requires_two_helpers():
    src = """
func main() {
    output(input());
    return 0;
}
"""
    for kind in ("ct4", "ct5"):
        with pytest.raises(InapplicableTransform):
            apply_transform(parse(src), kind, 0)


def test_merge_unifies_helper_pair_behind_selector():
    prog = parse(MUTUAL_SRC)
    out, _ = apply_transform(prog, "ct4", 1)
    names = [f.name for f in out.functions]
    assert "odd" not in names and "even" not in names
    merged = [n for n in names if n.startswith(GENERATED_PREFIX)]
    assert len(merged) == 1
    fn = out.function(merged[0])
    # selector plus one carrier per original parameter
    assert len(fn.params) == 2


def test_split_top_level_removes_for_loops_and_adds_functions():
    prog = parse(NUMERIC_SRC)
    out, _ = apply_transform(prog, "ct6", 2)
    assert not any(isinstance(st, For) for st in walk_program(out))
    assert len(out.functions) > len(prog.functions)
    # entry point keeps its name and arity
    assert out.function("main").params == []


@pytest.mark.parametrize("kind", ["ct3", "ct5"])
def test_flattening_a_long_flat_body_keeps_behavior(kind, flat_ifs_source):
    prog = parse(flat_ifs_source)
    out, _ = apply_transform(prog, kind, 0)
    reparsed = parse(pretty_print(out))
    input_sets = [[3], [900], [5000]]
    for r0, r1 in zip(_behavior(prog, input_sets), _behavior(reparsed, input_sets, FUEL * 4)):
        assert r0.status == COMPLETED and r0.semantically_equal(r1), (r0, r1)


def test_flatten_gives_single_top_level_loop():
    from zigzag.lang.nodes import While

    prog = parse(NUMERIC_SRC)
    out, _ = apply_transform(prog, "ct3", 0)
    gcd = out.function("gcd")
    loops = [st for st in gcd.body if isinstance(st, While)]
    assert len(loops) == 1


def test_block_split_reassigns_written_binding():
    prog = parse(ARRAYS_SRC)
    out, _ = apply_transform(prog, "ct7", 1)
    assert len(out.functions) > 3
    r0 = interpret(prog, "main", [5], fuel=FUEL)
    r1 = interpret(out, "main", [5], fuel=FUEL * 4)
    assert r0.semantically_equal(r1)


def test_recursive_split_outlines_the_outlined_calls():
    prog = parse(ARRAYS_SRC)
    out7, _ = apply_transform(prog, "ct7", 1)
    out8, _ = apply_transform(prog, "ct8", 1)
    assert len(out8.functions) > len(out7.functions)


def test_pipeline_composes_maps_and_preserves_behavior():
    """Passes compose by applying one to the output of the other: each
    stage maps every input LineId and keeps its flags inside the images
    of the flags before it, and the composition keeps behaviour."""
    prog = parse(ARRAYS_SRC)
    current = prog
    for kind in ("ct6", "ct3"):
        ids, flags = set(collect_line_ids(current)), flagged_lines(current)
        current, lmap = apply_transform(current, kind, 5)
        assert set(lmap) == ids
        image = set().union(*(lmap[f] for f in flags))
        assert flagged_lines(current) <= image and image
    r0 = interpret(prog, "main", [4], fuel=FUEL)
    r1 = interpret(parse(pretty_print(current)), "main", [4], fuel=FUEL * 16)
    assert r0.semantically_equal(r1)


def test_apply_rejects_unknown_kind():
    prog = parse("func main() {\n    return 0;\n}\n")
    with pytest.raises(TransformError):
        apply_transform(prog, "ct9", 0)


def test_resolve_kinds_accepts_lists_sets_and_all():
    assert resolve_kinds("ct3") == ("ct3",)
    assert resolve_kinds("CT1, ct6") == ("ct1", "ct6")
    assert resolve_kinds("ct6,ct1,ct6") == ("ct6", "ct1")
    assert resolve_kinds("all") == ALL_KINDS
    assert resolve_kinds("MD2") == CT_SETS["md2"]
    assert resolve_kinds("md0") == ()
    with pytest.raises(TransformError):
        resolve_kinds("ct0")
    with pytest.raises(TransformError):
        resolve_kinds("")


def _what_a_pass_reads(program):
    return (
        signature(program),
        [(st.line_id, st.vuln, st.origin) for st in walk_program(program)],
    )


def _sources(demo_source):
    """The case programs, the fixture and six generated programs."""
    return [src for src, _ in CASES] + [demo_source] + [
        p.source for p in generate_synthetic(6, 0.5, seed=3)
    ]


def test_transform_does_not_mutate_input(demo_source):
    """augment_corpus runs every kind on one parse of each original: a pass
    must leave its input's signature, LineIds, flags and origins as parsed,
    and give the same output as on a fresh parse."""
    for src in _sources(demo_source):
        shared = parse(src)
        for kind in ALL_KINDS:
            try:
                out, lmap = apply_transform(shared, kind, 5)
            except InapplicableTransform:
                continue
            assert _what_a_pass_reads(shared) == _what_a_pass_reads(parse(src)), kind
            fresh_out, fresh_lmap = apply_transform(parse(src), kind, 5)
            assert (pretty_print(out), lmap) == (pretty_print(fresh_out), fresh_lmap), kind


def _place_first_statement_twice(program, rng):
    draft = clone_program(program)
    body = draft.functions[0].body
    body.append(body[0])
    return draft


def _keep_first_input_statement(program, rng):
    draft = clone_program(program)
    draft.functions[0].body[0] = program.functions[0].body[0]
    return draft


@pytest.mark.parametrize("faulty_pass", [_place_first_statement_twice, _keep_first_input_statement])
def test_finalize_rejects_a_statement_placed_twice_or_kept_from_the_input(
    faulty_pass, demo_source, tmp_path, monkeypatch, capsys
):
    """finalize numbers the draft, whose statements all start unnumbered:
    one that is numbered already is a pass fault, raised before it is
    renumbered, so the input keeps its LineIds."""
    monkeypatch.setitem(zigzag.transforms._PASSES, "ct2", faulty_pass)
    prog = parse(demo_source)
    with pytest.raises(TransformError, match="ct2 placed a statement twice or kept one of its input") as exc:
        apply_transform(prog, "ct2", 0)
    assert exc.traceback[-1].name == "finalize"
    assert _what_a_pass_reads(prog) == _what_a_pass_reads(parse(demo_source))

    corpus = tmp_path / "corpus.jsonl"
    labels = function_labels(prog)
    save_corpus(corpus, [CorpusProgram(id="p0", source=demo_source, split="test", labels=labels, witness_inputs=None)])
    capsys.readouterr()
    assert main(["transform", str(corpus), "--ct", "ct2", "--out", str(tmp_path / "aug.jsonl")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ct2 placed a statement twice") and err.count("\n") == 1


def _nodes(program):
    """Every statement and expression object of a program."""
    for st in walk_program(program):
        yield st
        for e in stmt_expressions(st):
            yield from walk_expr(e)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_output_holds_each_node_once_and_none_of_the_input(kind, demo_source):
    """A pass copies its input once and moves the nodes of that copy: no
    statement or expression object sits at two places of the output, and
    none is shared with the input."""
    applied = 0
    for src in _sources(demo_source):
        prog = parse(src)
        try:
            out, _ = apply_transform(prog, kind, 5)
        except InapplicableTransform:
            continue
        applied += 1
        seen: set[int] = set()
        for node in _nodes(out):
            assert id(node) not in seen, (kind, node)
            seen.add(id(node))
        assert not seen & {id(node) for node in _nodes(prog)}, kind
    assert applied, f"{kind} applied to no program"


def _printed_fragment_tokens(program, granularity):
    """Each fragment's tokens the long way: print, lex, normalize_tokens."""
    if granularity == "function":
        texts = [pretty_print(Program([fn])) for fn in program.functions]
    else:
        # a slice prints as its simple statements, one line each
        texts = [
            "\n".join(pretty_print(Program([FunctionDef("f", [], stmts)])).splitlines()[1:-1])
            for fn in program.functions
            for stmts in slice_statements(fn)
        ]
    return [tuple(normalize_tokens(text)) for text in texts]


@pytest.mark.parametrize("granularity", GRANULARITIES)
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_fragment_tokens_are_the_printed_text_lexed_and_normalized(kind, granularity, demo_source):
    """Fragments take their tokens from the AST; they must equal what
    print -> lex -> normalize_tokens gives, and their text must read back
    to them, on the case programs, the fixture, six generated programs and
    each one's variants at seeds 0, 1 and 7."""
    checked = 0
    for src in _sources(demo_source):
        original = parse(src)
        programs = [original]
        for seed in (0, 1, 7):
            try:
                programs.append(apply_transform(original, kind, seed)[0])
            except InapplicableTransform:
                pass
        for program in programs:
            item = CorpusProgram(
                id="p", source=src, split="train", labels=function_labels(program), witness_inputs=None
            )
            fragments = extract_fragments(item, granularity, program)
            assert [f.tokens for f in fragments] == _printed_fragment_tokens(program, granularity)
            for f in fragments:
                assert normalize_tokens(f.text) == list(f.tokens), f.id
            checked += len(fragments)
    assert checked


def test_printed_outputs_and_line_maps_are_pinned():
    """Every pass over a generated corpus at two transform seeds, against
    the digests the passes gave before statements were built fresh by
    construction: one over the printed programs and one over the
    LineMaps, inapplicable outcomes recorded in both, so either can be
    kept alone."""
    printed = hashlib.sha256()
    maps = hashlib.sha256()
    for record in generate_synthetic(40, seed=1):
        program = parse(record.source)
        for kind in ALL_KINDS:
            for seed in (1, 2):
                try:
                    out, line_map = apply_transform(program, kind, seed)
                except InapplicableTransform as exc:
                    printed.update(f"inapplicable {exc}\n".encode("utf-8"))
                    maps.update(f"inapplicable {exc}\n".encode("utf-8"))
                    continue
                printed.update((pretty_print(out) + "\n").encode("utf-8"))
                pairs = sorted((k, sorted(v)) for k, v in line_map.items())
                maps.update((json.dumps(pairs) + "\n").encode("utf-8"))
    assert printed.hexdigest() == "ad3997b1aa8871e23837b865707f1bff20d69af1756020f913872403f2c6d199"
    assert maps.hexdigest() == "538bf335150bf04f9b83ef8b079fb2365876b8cd69130ee0c879eb12896a445f"

"""Fragment extraction and token encoding checks."""
import numpy as np
import pytest

from zigzag.corpus import generate_synthetic
from zigzag.encoding import (
    PAD_ID,
    UNK_ID,
    EncodingError,
    build_vocab,
    encode_fragments,
    normalize_tokens,
)
from zigzag.fragments import (
    Fragment,
    FragmentError,
    GRANULARITIES,
    extract_fragments,
    slice_statements,
)
from zigzag.lang import parse
from zigzag.lang.nodes import (
    ArrayAssign,
    ArrayDecl,
    Assign,
    CallStmt,
    Index,
    Return,
    VarDecl,
    expr_names,
    stmt_expressions,
    walk_expr,
    walk_statements,
)

GUARDED = """
func pick_slot(table, k) {
    var j = k - k / 7 * 7;
    if (j < 0) {
        j = j + 7;
    }
    return table[j];
}

func main() {
    var table[7];
    var f = 0;
    while (f < 7) {
        table[f] = 5 * f;
        f = f + 1;
    }
    var k = input();
    var d = input();
    output(pick_slot(table, k));
    output(d);
    return 0;
}
"""


def _fake(src, split="train", pid="t0"):
    from zigzag.corpus import CorpusProgram, function_labels

    prog = parse(src)
    return CorpusProgram(
        id=pid, source=src, split=split, labels=function_labels(prog), witness_inputs=None
    )


# brute-force closure with fixpoint-over-name-sets mechanics
def _oracle_slice(fn, crit):
    simple = [
        st
        for st in walk_statements(fn.body)
        if isinstance(st, (VarDecl, ArrayDecl, Assign, ArrayAssign, Return, CallStmt))
    ]

    def defined(st):
        return {st.name} if isinstance(st, (VarDecl, ArrayDecl, Assign, ArrayAssign)) else set()

    def used(st):
        names = set()
        for e in stmt_expressions(st):
            names |= expr_names(e)
        if isinstance(st, ArrayAssign):
            names.add(st.name)
        return names

    included = {id(crit): crit}
    while True:
        needed = set()
        for st in included.values():
            needed |= used(st)
        grew = False
        for st in simple:
            if id(st) not in included and defined(st) & needed:
                included[id(st)] = st
                grew = True
        if not grew:
            return sorted(included.values(), key=lambda s: s.line_id)


def test_slice_matches_fixpoint_oracle_on_corpus():
    for item in generate_synthetic(12, 0.5, seed=21):
        prog = item.program()
        for fn in prog.functions:
            got = slice_statements(fn)
            criteria = []
            for st in walk_statements(fn.body):
                if isinstance(st, ArrayAssign) or (
                    isinstance(st, (VarDecl, Assign, Return, CallStmt))
                    and any(
                        isinstance(sub, Index)
                        for e in stmt_expressions(st)
                        for sub in walk_expr(e)
                    )
                ):
                    criteria.append(st)
            expected = []
            seen = set()
            for crit in criteria:
                sl = _oracle_slice(fn, crit)
                key = frozenset(s.line_id for s in sl)
                if key not in seen:
                    seen.add(key)
                    expected.append([s.line_id for s in sl])
            assert [[s.line_id for s in sl] for sl in got] == expected


def test_guarded_lookup_slice_contains_sanitizer():
    prog = parse(GUARDED)
    fn = prog.function("pick_slot")
    slices = slice_statements(fn)
    assert len(slices) == 1
    texts = [type(st).__name__ for st in slices[0]]
    # decl of j, the fix-up assignment, and the indexed return, in order
    assert texts == ["VarDecl", "Assign", "Return"]


def test_unguarded_lookup_slice_is_bare():
    prog = parse("func pick(table, k) {\n    return table[k];\n}\n")
    slices = slice_statements(prog.function("pick"))
    assert len(slices) == 1 and len(slices[0]) == 1


def test_function_fragments_carry_labels_and_split():
    corpus = generate_synthetic(10, 0.5, seed=22)
    frags = [f for item in corpus for f in extract_fragments(item, "function")]
    by_prog = {}
    for f in frags:
        by_prog.setdefault(f.id.split("/", 1)[0], []).append(f)
    for item in corpus:
        mine = by_prog[item.id]
        assert {f.function for f in mine} == set(item.labels)
        assert all(f.split == item.split for f in mine)
        flagged = [f for f in mine if f.label == 1]
        assert len(flagged) == (1 if item.vulnerable else 0)


def test_slice_fragments_flag_vulnerable_programs():
    corpus = generate_synthetic(10, 0.5, seed=23)
    frags = [f for item in corpus for f in extract_fragments(item, "slice")]
    for item in corpus:
        mine = [f for f in frags if f.id.split("/", 1)[0] == item.id]
        assert mine, "every program has at least one array-indexing statement"
        assert any(f.label for f in mine) == item.vulnerable


@pytest.mark.parametrize("granularity", GRANULARITIES)
def test_fragments_of_a_given_parse_equal_those_of_the_source(granularity):
    for item in generate_synthetic(8, 0.5, seed=25):
        program = item.program()
        assert extract_fragments(item, granularity, program) == extract_fragments(item, granularity)


def test_fragment_text_round_trips_without_markers_in_tokens():
    item = _fake("func f(buf) {\n    buf[0] = 1; //@vuln\n    return buf[0];\n}\nfunc main() {\n    var buf[2];\n    output(f(buf));\n    return 0;\n}\n")
    frags = extract_fragments(item, "function")
    target = next(f for f in frags if f.function == "f")
    assert target.label == 1
    assert "vuln" not in " ".join(normalize_tokens(target.text))


def test_unknown_granularity_rejected():
    item = _fake("func main() {\n    return 0;\n}\n")
    with pytest.raises(FragmentError):
        extract_fragments(item, "statement")


def test_normalize_anonymizes_names_positionally():
    toks = normalize_tokens("func f(a) {\n    return a + g(a);\n}\n")
    assert toks == ["func", "FUN_0", "(", "VAR_0", ")", "{", "return", "VAR_0", "+", "FUN_1", "(", "VAR_0", ")", ";", "}"]


def test_normalize_is_name_invariant():
    a = normalize_tokens("func f(x, y) {\n    return x * y + 2;\n}\n")
    b = normalize_tokens("func total(alpha, beta) {\n    return alpha * beta + 2;\n}\n")
    assert a == b


def test_normalize_collapses_strings():
    toks = normalize_tokens('func main() {\n    output("abc" + "def");\n    return 0;\n}\n')
    assert toks.count("STR") == 2 and '"abc"' not in toks


def test_vocab_orders_by_frequency_then_text():
    frags = [
        Fragment("a", "f", tuple(normalize_tokens("func f() {\n    return 1 + 1 + 2;\n}\n")), 0, "train")
    ]
    vocab = build_vocab(frags)
    assert min(vocab.values()) == 2
    assert vocab["1"] < vocab["2"]
    # single-count ties resolve lexicographically; ASCII upper < lower
    assert vocab["FUN_0"] < vocab["func"]


def test_vocab_rejects_non_training_fragments():
    frag = Fragment("a", "f", tuple(normalize_tokens("func f() {\n    return 0;\n}\n")), 0, "test")
    with pytest.raises(EncodingError):
        build_vocab([frag])


def test_encode_pads_truncates_and_maps_unknowns():
    vocab = {"func": 2, "(": 3, ")": 4, "{": 5, "}": 6}
    frag = Fragment("a", "f", tuple(normalize_tokens("func f() {\n    return 0;\n}\n")), 0, "train")

    def encode(length):
        X, _ = encode_fragments([frag], vocab, length)
        return X[0]

    arr = encode(8)
    assert arr.dtype == np.int32 and arr.shape == (8,)
    assert arr[0] == 2 and UNK_ID in arr.tolist()
    assert encode(4).tolist() == [2, UNK_ID, 3, 4]
    assert encode(32)[-1] == PAD_ID


def test_encode_fragments_shapes():
    corpus = generate_synthetic(6, 0.5, seed=24)
    frags = [
        f for item in corpus for f in extract_fragments(item, "function") if f.split == "train"
    ]
    vocab = build_vocab(frags)
    X, y = encode_fragments(frags, vocab, 128)
    assert X.shape == (len(frags), 128) and X.dtype == np.int32
    assert y.shape == (len(frags),) and set(np.unique(y)) <= {0.0, 1.0}
    X0, y0 = encode_fragments([], vocab, 128)
    assert X0.shape == (0, 128) and y0.shape == (0,)

"""Generator invariants: counts, self-checks, persistence, variants."""
import dataclasses
import hashlib
import json
from collections import Counter

import pytest

from zigzag.corpus import (
    SELF_CHECK_FUEL,
    CorpusError,
    CorpusProgram,
    assign_split,
    augment_corpus,
    function_labels,
    generate_synthetic,
    load_corpus,
    read_corpus,
    save_corpus,
    transform_variant,
)
from zigzag.fragments import GRANULARITIES, extract_fragments
from zigzag.lang import MiniLangError, interpret, parse, pretty_print
from zigzag.lang.interp import COMPLETED, OUT_OF_BOUNDS, RUNTIME_ERROR
from zigzag.lang.nodes import Call, flagged_lines, signature, stmt_expressions, walk_expr, walk_program
from zigzag.lang.parser import MAX_DEPTH
from zigzag.transforms import ALL_KINDS, InapplicableTransform, apply_transform


def test_vulnerable_count_is_exact():
    for count, frac, expect in ((20, 0.4, 8), (10, 0.45, 4), (7, 0.5, 4)):
        corpus = generate_synthetic(count, frac, seed=1)
        assert sum(1 for p in corpus if p.vulnerable) == expect


def test_generation_is_deterministic():
    a = generate_synthetic(12, 0.5, seed=7)
    b = generate_synthetic(12, 0.5, seed=7)
    assert [p.source for p in a] == [p.source for p in b]
    assert [p.witness_inputs for p in a] == [p.witness_inputs for p in b]
    c = generate_synthetic(12, 0.5, seed=8)
    assert [p.source for p in a] != [p.source for p in c]


def test_generated_records_are_pinned():
    """Every field of every record of a small set, against the digest the
    generator gave before its templates were last rewritten; a moved rng
    draw or a changed character in any template shows here."""
    digest = hashlib.sha256()
    for p in generate_synthetic(40, seed=1):
        digest.update((json.dumps(dataclasses.asdict(p), sort_keys=True) + "\n").encode("utf-8"))
    assert digest.hexdigest() == "0cf160c1e1b39fe63c2bf8cc3f925956e0530e9cd90a882311b288d66a588c71"


def test_saved_corpus_bytes_are_pinned(tmp_path):
    """The file save_corpus writes for the set above, header included,
    against the digest it gave while it still named each key by hand."""
    path = tmp_path / "corpus.jsonl"
    save_corpus(path, generate_synthetic(40, seed=1))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "2f19cc1c8a3cfc8f92b3f2af7ee9ffdd8757f349f802c77eb09d41a8bbf5b69a"
    )


def test_split_depends_only_on_id():
    corpus = generate_synthetic(30, 0.4, seed=2)
    for p in corpus:
        assert p.split == assign_split(p.id)
    assert {p.split for p in corpus} == {"train", "test"}


def test_every_program_reads_two_inputs():
    for p in generate_synthetic(16, 0.5, seed=3):
        reads = [
            sub
            for st in walk_program(p.program())
            for e in stmt_expressions(st)
            for sub in walk_expr(e)
            if isinstance(sub, Call) and sub.name == "input"
        ]
        assert len(reads) == 2


def test_witness_traps_at_flagged_line():
    for p in generate_synthetic(16, 0.5, seed=4):
        prog = p.program()
        if p.vulnerable:
            w = interpret(prog, "main", list(p.witness_inputs), fuel=6000)
            assert w.status == RUNTIME_ERROR and w.error_kind == OUT_OF_BOUNDS
            assert w.error_line in flagged_lines(prog)
        else:
            assert p.witness_inputs is None
            assert not flagged_lines(prog)


def test_benign_inputs_complete():
    for p in generate_synthetic(16, 0.5, seed=5):
        r = interpret(p.program(), "main", list(p.provenance["benign_inputs"]), fuel=6000)
        assert r.status == COMPLETED


def test_vulnerable_programs_flag_exactly_one_helper():
    for p in generate_synthetic(20, 0.5, seed=6):
        flagged = [name for name, v in p.labels.items() if v]
        if p.vulnerable:
            assert len(flagged) == 1 and flagged[0] != "main"
        else:
            assert not flagged
        assert p.labels == function_labels(p.program())


def test_corpus_round_trip(tmp_path):
    corpus = generate_synthetic(10, 0.4, seed=7)
    path = tmp_path / "c.jsonl"
    save_corpus(path, corpus)
    back = load_corpus(path)
    assert len(back) == len(corpus)
    for a, b in zip(corpus, back):
        assert (a.id, a.split, a.source, a.labels, a.witness_inputs) == (
            b.id,
            b.split,
            b.source,
            b.labels,
            b.witness_inputs,
        )


def test_read_corpus_yields_each_record_with_its_parse(tmp_path):
    corpus = augment_corpus([(p, p.program()) for p in generate_synthetic(6, 0.5, seed=7)], ("ct2",), 0)
    path = tmp_path / "c.jsonl"
    save_corpus(path, corpus)
    pairs = list(read_corpus(path))
    assert [item for item, _ in pairs] == corpus == load_corpus(path)
    for item, program in pairs:
        assert pretty_print(program) == pretty_print(parse(item.source))
        assert function_labels(program) == item.labels


def test_read_corpus_checks_the_header_count_after_the_last_record(tmp_path):
    path = tmp_path / "c.jsonl"
    save_corpus(path, generate_synthetic(3, 0.5, seed=8))
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(CorpusError, match="header count 3 != 2 records"):
        list(read_corpus(path))


def test_read_corpus_yields_the_records_before_a_truncated_line(tmp_path):
    """Records are read and checked one at a time: those before a broken
    line are yielded, and of two faults the first in the file is named."""
    corpus = generate_synthetic(5, 0.4, seed=8)
    path = tmp_path / "c.jsonl"
    save_corpus(path, corpus)
    lines = path.read_text().splitlines()
    lines[4] = lines[4][:-9]  # line 5: the fourth record, truncated
    path.write_text("\n".join(lines) + "\n")
    reader = read_corpus(path)
    assert [next(reader)[0] for _ in range(3)] == corpus[:3]
    with pytest.raises(CorpusError, match=r"c\.jsonl:5: not valid JSON"):
        next(reader)
    rec = json.loads(lines[2])
    rec["split"] = 5  # line 3, a fault before the truncated line
    lines[2] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusError, match=f"record {rec['id']!r}: split must be of type str"):
        load_corpus(path)


def test_read_corpus_splits_lines_at_newlines_only(tmp_path):
    """U+2028 and U+0085 are line breaks to `str.splitlines` but may stand
    raw in a JSON string; a record holding them loads, and a broken line
    after it, or a line holding one such character alone, is reported at
    its own number.  A lone CR, a line break to universal-newline
    reading, joins two records into one line that is not JSON."""
    corpus = generate_synthetic(3, 0.5, seed=8)
    path = tmp_path / "c.jsonl"
    save_corpus(path, corpus)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[1])
    rec["provenance"]["note"] = "a\u2028b\u0085c"
    lines[1] = json.dumps(rec, ensure_ascii=False)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert load_corpus(path)[0].provenance["note"] == "a\u2028b\u0085c"
    raw_control = lines[2].replace('"id": "', '"id": "\x1c', 1)
    assert raw_control != lines[2]
    for broken in (lines[2][:-9], raw_control, "\u2028", "\x1c", lines[2] + "\r" + lines[2]):
        path.write_text("\n".join([*lines[:2], broken, *lines[3:]]) + "\n", encoding="utf-8")
        with pytest.raises(CorpusError, match=r"c\.jsonl:3: not valid JSON"):
            load_corpus(path)


def test_load_rejects_tampered_labels(tmp_path):
    corpus = generate_synthetic(3, 0.5, seed=8)
    path = tmp_path / "c.jsonl"
    save_corpus(path, corpus)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[1])
    name = next(iter(rec["labels"]))
    rec["labels"][name] = 1 - rec["labels"][name]
    lines[1] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusError):
        load_corpus(path)


@pytest.mark.parametrize("name", [field.name for field in dataclasses.fields(CorpusProgram)])
def test_each_wrongly_typed_record_field_raises_corpus_error_naming_it(name, tmp_path):
    """A field holding a list of its valid value fits no annotation but a
    list of that value's type, so every field, one added later too, is
    checked here with no edit to this test."""
    item = next(p for p in generate_synthetic(4, 0.5, seed=8) if p.witness_inputs)
    path = tmp_path / "c.jsonl"
    save_corpus(path, [dataclasses.replace(item, **{name: [getattr(item, name)]})])
    with pytest.raises(CorpusError, match=f": record .*: {name} must be of type "):
        load_corpus(path)


def test_load_rejects_foreign_files(tmp_path):
    path = tmp_path / "x.jsonl"
    path.write_text('{"version": 99}\n')
    with pytest.raises(CorpusError):
        load_corpus(path)


def test_augment_adds_variants_with_inherited_metadata():
    corpus = generate_synthetic(8, 0.5, seed=9)
    aug = augment_corpus([(p, p.program()) for p in corpus], ("ct2",), seed=0)
    originals = [p for p in aug if p.kind is None]
    variants = [p for p in aug if p.kind is not None]
    assert len(originals) == 8 and len(variants) == 8
    by_id = {p.id: p for p in corpus}
    for v in variants:
        base = by_id[v.provenance["base"]]
        assert v.split == base.split
        assert v.witness_inputs == base.witness_inputs
        assert v.vulnerable == base.vulnerable


def test_augment_never_stacks_variants():
    corpus = generate_synthetic(4, 0.5, seed=10)
    aug = augment_corpus([(p, p.program()) for p in corpus], ("ct2", "ct7"), seed=0)
    assert all(p.id.count("::") <= 1 for p in aug)
    assert len(aug) == 4 + 4 + 4
    again = augment_corpus([(p, p.program()) for p in aug], ("ct3",), seed=0)
    assert [p.id for p in again] == [p.id for p in aug] + [f"{p.id}::ct3" for p in corpus]


def test_attack_targets_keyed_by_kind():
    corpus = generate_synthetic(6, 0.5, seed=11)
    kinds = ("ct3", "ct6")
    aug = augment_corpus([(p, p.program()) for p in corpus], kinds, seed=1)
    ids = [p.id for p in corpus]
    # kind-major: every variant of one kind comes before the next kind's
    assert [p.id for p in aug] == ids + [f"{i}::{k}" for k in kinds for i in ids]
    assert aug[: len(corpus)] == corpus
    assert [p.kind for p in aug] == [None] * len(ids) + [k for k in kinds for _ in ids]


def test_inapplicable_variant_returns_none():
    src = "func main() {\n    output(input());\n    return 0;\n}\n"
    item = CorpusProgram(
        id="x", source=src, split="test", labels={"main": 0}, witness_inputs=None
    )
    assert transform_variant(item, item.program(), "ct1", 0) is None


def test_generation_rejects_bad_arguments():
    with pytest.raises(CorpusError):
        generate_synthetic(0, 0.5, seed=0)
    with pytest.raises(CorpusError):
        generate_synthetic(5, 1.5, seed=0)


# --------------------------------------------------------------------------
# the statement memo of read_corpus

def _statement_marks(program):
    return [(type(st).__name__, st.line_id, st.vuln) for st in walk_program(program)]


def _assert_parsed_as_plain(pairs) -> None:
    for item, program in pairs:
        plain = parse(item.source)
        assert signature(program) == signature(plain), item.id
        assert _statement_marks(program) == _statement_marks(plain), item.id


def _save_mains(path, **sources) -> None:
    """One-function records, unflagged, by id."""
    save_corpus(path, [CorpusProgram(id=rid, source=source, split="train", labels={"main": 0})
                       for rid, source in sources.items()])


@pytest.fixture(scope="module")
def augmented_path(tmp_path_factory):
    """Two generated corpora, each augmented with every ct kind, in one file."""
    corpus = []
    for seed in (1, 2):
        originals = [dataclasses.replace(p, id=f"s{seed}-{p.id}") for p in generate_synthetic(10, 0.5, seed=seed)]
        corpus += augment_corpus([(p, p.program()) for p in originals], ALL_KINDS, seed)
    path = tmp_path_factory.mktemp("memo") / "aug.jsonl"
    save_corpus(path, corpus)
    return path


def _shared_expressions(programs) -> int:
    """The expression nodes that more than one statement holds."""
    holders = Counter(id(e) for program in programs for st in walk_program(program) for e in stmt_expressions(st))
    return sum(1 for n in holders.values() if n > 1)


def test_read_corpus_parses_equal_the_plain_parse_of_each_source(augmented_path):
    pairs = list(read_corpus(augmented_path))
    assert {item.kind for item, _ in pairs} == {None, *ALL_KINDS}
    _assert_parsed_as_plain(pairs)
    # the memo was used: repeated lines share the first parse's expressions
    assert _shared_expressions(program for _, program in pairs) > 0


def test_a_line_holding_more_or_less_than_one_statement_parses_as_plain(tmp_path):
    """A line holding two statements, and the first line of a statement
    over two lines, recur in a later record, the second with another
    second line; neither is memoized."""
    first = "func main() {\n    var x = 0;\n    x = 1; x = 2;\n    x = x +\n        1;\n    return x;\n}\n"
    later = "func main() {\n    var x = 0;\n    x = 1; x = 2;\n    x = 1;\n    x = x +\n        2 * x;\n    return x;\n}\n"
    path = tmp_path / "c.jsonl"
    _save_mains(path, first=first, later=later)
    _assert_parsed_as_plain(read_corpus(path))


def test_consumers_leave_the_shared_parses_of_one_read_as_parsed(augmented_path):
    """Every ct pass on every original, fragments at both granularities and
    a run of each program on its benign inputs leave every parse of the
    read, and so every expression two parses share, as it was."""
    pairs = list(read_corpus(augmented_path))
    before = [signature(program) for _, program in pairs]
    by_id = {item.id: item for item, _ in pairs}
    for item, program in pairs:
        if item.kind is None:
            for kind in ALL_KINDS:
                try:
                    apply_transform(program, kind, 5)
                except InapplicableTransform:
                    pass
        for granularity in GRANULARITIES:
            extract_fragments(item, granularity, program)
        base = by_id[item.provenance.get("base", item.id)]
        run = interpret(program, "main", list(base.provenance["benign_inputs"]), fuel=SELF_CHECK_FUEL)
        assert run.status == COMPLETED, item.id
    assert [signature(program) for _, program in pairs] == before


def _parse_error(source: str) -> str:
    with pytest.raises(MiniLangError) as caught:
        parse(source)
    return str(caught.value)


def test_a_memoized_line_that_recurs_too_deep_raises_the_plain_parsers_error(tmp_path):
    """The deepest statement a function body holds, memoized there, then met
    one block deeper, where the plain parser refuses it."""
    # a body statement is at depth 1, its expression one more, each parenthesis one more
    line = "x = " + "(" * (MAX_DEPTH - 2) + "1" + ")" * (MAX_DEPTH - 2) + ";"
    shallow = f"func main() {{\n    var x = 0;\n    {line}\n    return x;\n}}\n"
    deep = f"func main() {{\n    var x = 0;\n    if (x) {{\n        {line}\n    }}\n    return x;\n}}\n"
    message = _parse_error(deep)
    assert f"nesting deeper than {MAX_DEPTH} levels" in message
    path = tmp_path / "c.jsonl"
    _save_mains(path, shallow=shallow, deep=deep)
    reader = read_corpus(path)
    assert next(reader)[0].id == "shallow"
    with pytest.raises(CorpusError) as caught:
        next(reader)
    assert str(caught.value) == f"{path}: record 'deep': source does not parse: {message}"


def _broken_copies(source: str) -> dict[str, str]:
    """Sources that fail to parse, each a small edit of `source`; the lines
    they keep were parsed, and memoized, in `source`."""
    lines = source.split("\n")
    decl = next(i for i, text in enumerate(lines) if text.strip().startswith("var ") and "[" not in text)
    simple = max(i for i, text in enumerate(lines) if text.strip().endswith(";"))
    return {
        "undeclared": "\n".join(lines[:decl] + lines[decl + 1:]),
        "truncated": "\n".join(lines[:simple] + [lines[simple][:-1]] + lines[simple + 1:]),
        "junk-after": "\n".join(lines[:simple] + [lines[simple] + " )"] + lines[simple + 1:]),
        "long-literal": source.replace("return 0;", "return " + "9" * 5000 + ";", 1),
        "unclosed": "\n".join(lines[:-2]),
        "stray-marker": source.replace("\n", "\n//@vuln\n", 1),
    }


@pytest.mark.parametrize("fault", ["undeclared", "truncated", "junk-after", "long-literal", "unclosed", "stray-marker"])
def test_a_bad_record_after_records_that_warmed_the_memo_raises_the_plain_error(fault, tmp_path):
    warm = generate_synthetic(6, 0.5, seed=3)
    source = _broken_copies(warm[0].source)[fault]
    message = _parse_error(source)
    path = tmp_path / "c.jsonl"
    save_corpus(path, warm + [CorpusProgram(id="bad", source=source, split="train", labels=warm[0].labels)])
    with pytest.raises(CorpusError) as caught:
        list(read_corpus(path))
    assert str(caught.value) == f"{path}: record 'bad': source does not parse: {message}"

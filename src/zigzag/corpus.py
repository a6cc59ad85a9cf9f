"""Synthetic corpus of small programs with known out-of-bounds defects.

Each program reads two integers, wires them through padding helpers and
one target helper, and prints a few values plus a tag string.  In the
vulnerable variant the target helper indexes an array with a raw
input-derived value and the offending statement carries a //@vuln flag;
the benign variant keeps the sanitizing arithmetic inside the indexing
expression itself (the double mod of `_wrap`; the copy loop's counter
needs only `i % size`), so the distinction travels with the sink
statement no matter how the surrounding code is split, merged, or
flattened.  `_wrap` is the class separator.  Around the sink, helpers
carry class-correlated but semantically inert `_texture` (guard-style
conditionals in benign code, raw arithmetic chains with stray `%` in
vulnerable code) that gives shortcut learners an easy separator on
untransformed programs.

Every generated program is self-checked: its benign inputs must run to
completion, and for vulnerable programs the witness inputs must trap
out of bounds exactly at a flagged statement.  Benign programs must
survive the same hostile vector untouched.
"""
from __future__ import annotations

import hashlib
import json
import types
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from functools import cache
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Optional, Union, get_args, get_origin, get_type_hints

from .lang import MiniLangError, interpret, parse, pretty_print
from .lang.interp import COMPLETED, OUT_OF_BOUNDS, RUNTIME_ERROR
from .lang.nodes import Program, flagged_lines, walk_statements
from .lang.parser import StatementMemo
from .seeds import derive_rng, derive_seed
from .transforms import InapplicableTransform, apply_transform

CORPUS_VERSION = 1
SELF_CHECK_FUEL = 6000
TRAIN_PER_MILLE = 800  # share of program ids that hash into the train split


class CorpusError(Exception):
    pass


@dataclass(slots=True)
class CorpusProgram:
    id: str
    source: str
    split: str
    labels: dict[str, int]
    witness_inputs: Optional[list[int]] = None
    provenance: dict = field(default_factory=dict)

    def program(self) -> Program:
        return parse(self.source)

    @property
    def kind(self) -> Optional[str]:
        """The transform kind of a variant (its id ends in ::kind); None
        for an original."""
        return self.id.rsplit("::", 1)[1] if "::" in self.id else None

    @property
    def vulnerable(self) -> bool:
        return any(self.labels.values())


@dataclass(slots=True)
class CorpusHeader:
    version: int
    kind: str
    count: int


def function_labels(program: Program) -> dict[str, int]:
    """1 for functions containing a flagged statement, else 0."""
    out: dict[str, int] = {}
    for fn in program.functions:
        flagged = any(st.vuln for st in walk_statements(fn.body))
        out[fn.name] = 1 if flagged else 0
    return out


def assign_split(pid: str) -> str:
    digest = hashlib.sha256(pid.encode("utf-8")).digest()
    bucket = int.from_bytes(digest[:8], "little") % 1000
    return "train" if bucket < TRAIN_PER_MILLE else "test"


# --------------------------------------------------------------------------
# padding helpers: benign, bounded for any int input

_PAD_POOL = (
    (
        "step_parity",
        "func step_parity(v) {\n"
        "    if (v % 2 == 0) {\n"
        "        return 1;\n"
        "    }\n"
        "    return 0;\n"
        "}\n",
    ),
    (
        "wrap_gap",
        "func wrap_gap(v) {\n"
        "    if (v < 0) {\n"
        "        return 0 - v;\n"
        "    }\n"
        "    return v;\n"
        "}\n",
    ),
    (
        "scale_mix",
        "func scale_mix(v) {{\n"
        "    return v * {m} + {c};\n"
        "}}\n",
    ),
    (
        "tri_small",
        "func tri_small(v) {\n"
        "    var r = v % 5;\n"
        "    if (r < 0) {\n"
        "        r = r + 5;\n"
        "    }\n"
        "    var s = 0;\n"
        "    var i = 0;\n"
        "    while (i < r) {\n"
        "        s = s + i;\n"
        "        i = i + 1;\n"
        "    }\n"
        "    return s;\n"
        "}\n",
    ),
)


def _padding(rng) -> list[tuple[str, str]]:
    count = int(rng.integers(1, 3))
    picks = rng.choice(len(_PAD_POOL), size=count, replace=False)
    out = []
    for idx in picks:
        name, text = _PAD_POOL[int(idx)]
        if "{m}" in text:
            text = text.format(m=int(rng.integers(2, 5)), c=int(rng.integers(0, 7)))
        out.append((name, text))
    return out


# --------------------------------------------------------------------------
# template families: each returns its helper source, its part of `main` as
# data (the arrays it declares, the fill expression for the first of them,
# its two input names and its tail lines), a witness vector, and a benign
# vector; a benign variant must also survive the witness vector


def _wrap(index: str, size: int) -> str:
    """A benign sink's index expression: `index` wrapped into [0, size)
    for any int value.  The vulnerable sink indexes with the raw value, so
    this double mod is the one dependable class separator."""
    if not index.isidentifier():
        index = f"({index})"
    return f"({index} % {size} + {size}) % {size}"


def _texture(rng, vulnerable: bool, v: str, size: int) -> list[str]:
    """Inert filler statements for a helper body, correlated with its class
    and indented for it.

    Benign helpers get guard-style conditionals that only touch scratch
    variables; vulnerable ones get arithmetic chains.  Vulnerable chains
    carry stray `%` so modulo counts overlap between classes and the only
    dependable separator is the `_wrap` inside the sink expression.
    """
    a = int(rng.integers(2, 6))
    b = int(rng.integers(1, 9))
    m = int(rng.integers(3, 12))
    if vulnerable:
        pools = (
            [f"var t = {v} * {a} + {b};", f"var r = t % {m};"],
            [
                f"var t = {v} * {a} + {b};",
                f"t = t % {m} + t;",
                f"var r = {v} % {m + 1};",
            ],
            [
                f"var t = {v} * {a} + {b};",
                f"t = t % {m} + t;",
                f"var w = t * {a} - {v};",
                f"var r = w % {m + 2};",
            ],
        )
    else:
        pools = (
            ["var ok = 1;", f"if ({v} < 0) {{", "    ok = 0;", "}"],
            [
                "var ok = 1;",
                f"if ({v} < 0) {{",
                "    ok = 0;",
                "}",
                f"if ({v} > {size}) {{",
                "    ok = ok - 1;",
                "}",
            ],
            [
                f"var lim = {size};",
                f"if ({v} >= lim) {{",
                "    lim = lim + 1;",
                "}",
                "var ok = 1;",
                f"if ({v} < 0) {{",
                "    ok = 0;",
                "}",
            ],
        )
    return [f"    {t}" for t in pools[int(rng.integers(0, len(pools)))]]


def _t_copy(rng, vulnerable: bool, size: int) -> dict:
    bias = int(rng.integers(0, 4))
    if vulnerable:
        sink = f"        dst[i] = src[i] + {bias}; //@vuln"
    else:
        sink = f"        dst[i % {size}] = src[i % {size}] + {bias};"
    seeded = rng.random() < 0.35  # loop counter arrives as a parameter
    lines = [] if seeded else ["    var i = 0;"]
    if rng.random() < 0.65:
        lines += _texture(rng, vulnerable, "n", size)
    lines += [
        "    while (i < n) {",
        sink,
        "        i = i + 1;",
        "    }",
        "    return i;",
    ]
    params = "dst, src, n, i" if seeded else "dst, src, n"
    helper = f"func copy_take({params}) {{\n" + "\n".join(lines) + "\n}\n"
    entry = "copy_take"
    if rng.random() < 0.3:  # route the call through a forwarding helper
        helper += f"\nfunc copy_go({params}) {{\n    return copy_take({params});\n}}\n"
        entry = "copy_go"
    args = "dst, src, n, 0" if seeded else "dst, src, n"
    probe = int(rng.integers(0, size))
    fill_m = int(rng.integers(1, 4))
    return {
        "name": "copy",
        "helper": helper,
        "arrays": ("src", "dst"),
        "fill": f"f * {fill_m} + 1",
        "inputs": ("n", "k"),
        "tail": [f"var moved = {entry}({args});", "output(moved);", f"output(dst[{probe} % {size}]);"],
        "witness": [size + 2, 1],
        "benign": [max(1, size - 2), 3],
    }


def _t_lookup(rng, vulnerable: bool, size: int) -> dict:
    if vulnerable:
        ret = "    return table[k]; //@vuln"
    else:
        ret = f"    return table[{_wrap('k', size)}];"
    body = _texture(rng, vulnerable, "k", size) + [ret]
    helper = "func pick_slot(table, k) {\n" + "\n".join(body) + "\n}\n"
    step = int(rng.integers(2, 6))
    return {
        "name": "lookup",
        "helper": helper,
        "arrays": ("table",),
        "fill": f"{step} * f",
        "inputs": ("k", "d"),
        "tail": ["output(pick_slot(table, k));"],
        "witness": [size + 1, 0],
        "benign": [2, 5],
    }


def _t_window(rng, vulnerable: bool, size: int) -> dict:
    if vulnerable:
        acc_line = "        acc = acc + buf[start + j]; //@vuln"
    else:
        acc_line = f"        acc = acc + buf[{_wrap('start + j', size)}];"
    body = _texture(rng, vulnerable, "start", size)
    body += [
        "    var acc = 0;",
        "    var j = 0;",
        "    while (j < width) {",
        acc_line,
        "        j = j + 1;",
        "    }",
        "    return acc;",
    ]
    helper = "func window_sum(buf, start, width) {\n" + "\n".join(body) + "\n}\n"
    fill_c = int(rng.integers(1, 5))
    return {
        "name": "window",
        "helper": helper,
        "arrays": ("buf",),
        "fill": f"f + {fill_c}",
        "inputs": ("start", "width"),
        "tail": ["output(window_sum(buf, start, width));"],
        "witness": [size, 2],
        "benign": [1, 3],
    }


def _t_store(rng, vulnerable: bool, size: int) -> dict:
    if vulnerable:
        sink = "    buf[pos] = v; //@vuln"
    else:
        sink = f"    buf[{_wrap('pos', size)}] = v;"
    lines = []
    if rng.random() < 0.5:
        lines += _texture(rng, vulnerable, "pos", size)
    lines += [sink, "    return pos;"]
    helper = "func put_slot(buf, pos, v) {\n" + "\n".join(lines) + "\n}\n"
    fill_c = int(rng.integers(2, 6))
    probe = int(rng.integers(0, size))
    return {
        "name": "store",
        "helper": helper,
        "arrays": ("buf",),
        "fill": f"f * {fill_c}",
        "inputs": ("pos", "v"),
        "tail": ["output(put_slot(buf, pos, v));", f"output(buf[{probe} % {size}]);"],
        "witness": [size + 3, 4],
        "benign": [3, 9],
    }


def _t_tagged(rng, vulnerable: bool, size: int) -> dict:
    thr = int(rng.integers(4, 9))
    pfx = ["lvl", "grade", "rank"][int(rng.integers(0, 3))]
    namer_fn = (
        f'func level_name(grade) {{\n'
        f'    var msg = "{pfx}-";\n'
        f"    if (grade >= {thr}) {{\n"
        f'        msg = msg + "high";\n'
        f"    }} else {{\n"
        f'        msg = msg + "low";\n'
        f"    }}\n"
        f"    return msg;\n"
        f"}}\n"
    )
    if vulnerable:
        ret = "    return marks[slot]; //@vuln"
    else:
        ret = f"    return marks[{_wrap('slot', size)}];"
    body = _texture(rng, vulnerable, "slot", size) + [ret]
    score_fn = "func score_of(marks, slot) {\n" + "\n".join(body) + "\n}\n"
    return {
        "name": "tagged",
        "helper": namer_fn + "\n" + score_fn,
        "arrays": ("marks",),
        "fill": "f * 2 + 1",
        "inputs": ("g", "s"),
        "tail": ["output(level_name(g));", "output(score_of(marks, s));"],
        "witness": [1, size + 4],
        "benign": [8, 2],
    }


_TEMPLATES = (_t_copy, _t_lookup, _t_window, _t_tagged, _t_store)


def _assemble(rng, vulnerable: bool) -> dict:
    size = int(rng.integers(5, 10))
    template = _TEMPLATES[int(rng.integers(0, len(_TEMPLATES)))]
    spec = template(rng, vulnerable, size)
    pads = _padding(rng)

    arrays = spec["arrays"]
    first, second = spec["inputs"]
    main = [f"var {name}[{size}];" for name in arrays] + [
        "var f = 0;",
        f"while (f < {size}) {{",
        f"    {arrays[0]}[f % {size}] = {spec['fill']};",
        "    f = f + 1;",
        "}",
        f"var {first} = input();",
        f"var {second} = input();",
    ]
    # padding helpers take the first input, chained when there are two
    if len(pads) == 1:
        main.append(f"output({pads[0][0]}({first}));")
    else:
        main += [f"var u = {pads[0][0]}({first});", f"output({pads[1][0]}(u));"]
    main += spec["tail"] + [f'output("{spec["name"]}");', "return 0;"]

    helper_blocks = [spec["helper"]] + [text for _, text in pads]
    order = rng.permutation(len(helper_blocks))
    body = "\n\n".join(helper_blocks[int(i)].rstrip() for i in order)
    main_src = "func main() {\n" + "\n".join(f"    {l}" for l in main) + "\n}\n"
    return {
        "source": body + "\n\n" + main_src,
        "template": spec["name"],
        "witness": spec["witness"],
        "benign": spec["benign"],
    }


def _self_check(program: Program, vulnerable: bool, witness, benign) -> None:
    r = interpret(program, "main", list(benign), fuel=SELF_CHECK_FUEL)
    if r.status != COMPLETED:
        raise CorpusError(f"benign inputs did not complete: {r.status}/{r.error_kind}")
    w = interpret(program, "main", list(witness), fuel=SELF_CHECK_FUEL)
    if vulnerable:
        flags = flagged_lines(program)
        if not flags:
            raise CorpusError("vulnerable program lost its flag")
        if w.status != RUNTIME_ERROR or w.error_kind != OUT_OF_BOUNDS:
            raise CorpusError(f"witness did not trap: {w.status}/{w.error_kind}")
        if w.error_line not in flags:
            raise CorpusError(f"witness trapped at {w.error_line}, flags at {sorted(flags)}")
    else:
        if w.status != COMPLETED:
            raise CorpusError(f"benign variant trapped on hostile vector: {w.status}/{w.error_kind}")
        if flagged_lines(program):
            raise CorpusError("benign program carries a flag")


def generate_synthetic(count: int, vulnerable_fraction: float = 0.4, seed: int = 0) -> list[CorpusProgram]:
    """Generate `count` self-checked programs, exactly
    round(count * vulnerable_fraction) of them vulnerable."""
    if count <= 0:
        raise CorpusError("count must be positive")
    if not 0.0 <= vulnerable_fraction <= 1.0:
        raise CorpusError("vulnerable_fraction must be within [0, 1]")
    n_vuln = int(round(count * vulnerable_fraction))
    order = derive_rng(seed, "corpus", "roles").permutation(count)
    vulnerable_idx = {int(i) for i in order[:n_vuln]}

    out: list[CorpusProgram] = []
    for i in range(count):
        rng = derive_rng(seed, "corpus", "program", i)
        vulnerable = i in vulnerable_idx
        made = _assemble(rng, vulnerable)
        program = parse(made["source"])
        _self_check(program, vulnerable, made["witness"], made["benign"])
        pid = f"p{i:04d}"
        out.append(
            CorpusProgram(
                id=pid,
                source=made["source"],
                split=assign_split(pid),
                labels=function_labels(program),
                witness_inputs=list(made["witness"]) if vulnerable else None,
                provenance={
                    "generator": "synthetic",
                    "template": made["template"],
                    "seed": int(seed),
                    "index": i,
                    "benign_inputs": list(made["benign"]),
                },
            )
        )
    return out


# --------------------------------------------------------------------------
# transformed variants

def transform_variant(item: CorpusProgram, program: Program, kind: str, seed: int) -> Optional[CorpusProgram]:
    """One transformed copy of a corpus program, or None if inapplicable.

    `program` is `item`'s parsed source; transforms never mutate their
    input, so one parse serves every kind.
    """
    stage_seed = derive_seed(seed, "variant", item.id, kind)
    try:
        out, _ = apply_transform(program, kind, stage_seed)
    except InapplicableTransform:
        return None
    source = pretty_print(out)
    return CorpusProgram(
        id=f"{item.id}::{kind}",
        source=source,
        split=item.split,
        labels=function_labels(out),
        witness_inputs=list(item.witness_inputs) if item.witness_inputs else None,
        provenance={"base": item.id, "transform": kind},
    )


def augment_corpus(pairs: Iterable[tuple[CorpusProgram, Program]], kinds: Iterable[str], seed: int) -> list[CorpusProgram]:
    """Originals plus one variant per (program, kind), kind-major; empty
    kinds is a no-op.  `pairs` holds each program with its parse, as
    `read_corpus` yields them; variants are built from originals only.
    An input that already holds `id::kind` for one of its originals and
    one of `kinds` raises CorpusError before any variant is built."""
    pairs = list(pairs)
    kinds = list(kinds)
    out = [item for item, _ in pairs]
    originals = [(item, program) for item, program in pairs if item.kind is None]
    ids = {item.id for item in out}
    for kind in kinds:
        for item, _ in originals:
            if f"{item.id}::{kind}" in ids:
                raise CorpusError(f"{item.id!r} already has a {kind} variant in the input")
    for kind in kinds:
        for item, program in originals:
            variant = transform_variant(item, program, kind, seed)
            if variant is not None:
                out.append(variant)
    return out


# --------------------------------------------------------------------------
# persistence

def save_corpus(path: str | Path, programs: Iterable[CorpusProgram]) -> None:
    items = list(programs)
    header = asdict(CorpusHeader(CORPUS_VERSION, "program-corpus", len(items)))
    keys = field_types(CorpusProgram)
    write_json_lines(path, [header] + [{key: getattr(item, key) for key in keys} for item in items])


def write_json_lines(path: str | Path, records: Iterable[dict]) -> None:
    """Each record as one JSON object with sorted keys on a line of its own."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


class _RepeatedKey(Exception):
    """The first key that one decoded JSON object holds twice."""


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """The dict of one decoded JSON object's pairs; a key it holds twice
    raises _RepeatedKey, where json.loads would keep the last value."""
    rec = dict(pairs)
    if len(rec) < len(pairs):
        raise _RepeatedKey(next(key for key, n in Counter(key for key, _ in pairs).items() if n > 1))
    return rec


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def decode_json(data: str | bytes, error: type[Exception], where: str) -> Any:
    """`data` (bytes read as UTF-8) decoded as JSON, or error("<where>:
    ...") when it is no JSON text or one of its objects, at any depth,
    holds a key twice."""
    try:
        return _DECODER.decode(data if isinstance(data, str) else data.decode("utf-8"))
    except _RepeatedKey as exc:
        raise error(f"{where}: repeated key {exc.args[0]!r}") from None
    except (ValueError, RecursionError) as exc:
        raise error(f"{where}: not valid JSON ({exc})") from None


def read_json_lines(path: str | Path, error: type[Exception]) -> Iterator[dict]:
    """The JSON objects on the non-blank lines of a file, read and
    yielded a line at a time, so no caller holds the file's text.

    A line that is not a JSON object (a truncated one, one nested too
    deep to decode or one that holds a key twice, say: decode_json)
    raises `error` naming the file and the line, once the objects of the
    lines before it are yielded; bytes that are not UTF-8 raise it
    naming the file when the read reaches them.  Lines
    end at "\n" alone and a blank line holds only JSON whitespace,
    because a JSON string may hold U+2028, U+0085 and other characters
    that `str.splitlines` breaks at and `str.strip` removes.
    """
    try:
        with open(path, encoding="utf-8", newline="\n") as fh:
            for number, line in enumerate(fh, 1):
                if not line.strip(" \t\r\n"):
                    continue
                rec = decode_json(line, error, f"{path}:{number}")
                if not isinstance(rec, dict):
                    raise error(f"{path}:{number}: not a JSON object")
                yield rec
    except UnicodeDecodeError as exc:  # from the file's decoder, as it reads on
        raise error(f"{path}: not UTF-8 text ({exc})") from None


@cache
def _field_tests(cls: type) -> tuple[tuple[str, Any, Callable[[Any], bool]], ...]:
    """Each field of dataclass `cls` with its resolved annotation and a test for it."""
    hints = get_type_hints(cls)
    return tuple((f.name, hints[f.name], _fits(hints[f.name])) for f in fields(cls))


def field_types(cls: type) -> dict[str, Any]:
    """Each field of dataclass `cls`, in order, with its resolved annotation."""
    return {name: annotation for name, annotation, _ in _field_tests(cls)}


def _fits(annotation: Any) -> Callable[[Any], bool]:
    """A test of whether a value fits `annotation`: int takes exactly an
    int (not a bool), a union any member's value, list[T] and dict[K, V]
    a list or dict whose every item fits, and any other class an
    instance (float a float)."""
    origin, tests = get_origin(annotation), tuple(map(_fits, get_args(annotation)))
    if origin is Union or origin is types.UnionType:
        return lambda value: any(test(value) for test in tests)
    if origin is list:
        return lambda value: isinstance(value, list) and all(map(tests[0], value))
    if origin is dict:
        key, item = tests
        return lambda value: isinstance(value, dict) and all(map(key, value)) and all(map(item, value.values()))
    if annotation is int:
        return lambda value: type(value) is int
    # isinstance itself, bound to the class: no Python frame per value
    return annotation.__instancecheck__


def type_fault(record: Any) -> Optional[str]:
    """The first field of dataclass instance `record` whose value does not
    fit its annotation, as "<field> must be of type <T>, got <value!r>",
    or None."""
    for name, annotation, fits in _field_tests(type(record)):
        value = getattr(record, name)
        if not fits(value):
            # as the annotation reads: int, dict[str, int], Optional[list[int]]
            shown = repr(annotation).replace("typing.", "") if get_args(annotation) else annotation.__name__
            return f"{name} must be of type {shown}, got {value!r}"
    return None


def typed_record(cls: type, rec: dict, error: type[Exception], where: str) -> Any:
    """Dataclass `cls` built from `rec`, a decoded record keyed by its
    fields' names, or `error("<where>: ...")` at the first of: a key that
    is no field ("unknown key 'k'"), a field with no default and no key
    ("missing key 'k'"), a value that does not fit its annotation (as
    type_fault words it).  The keys are diagnosed only when the
    constructor fails, so a valid record costs it and type_fault."""
    try:
        item = cls(**rec)
    except TypeError:  # a key that is no field, or a field with no default left out
        names = field_types(cls)
        unknown = [f"unknown key {key!r}" for key in rec if key not in names]
        # a dataclass puts its fields with no default first, so the first
        # one left out has none
        missing = [f"missing key {name!r}" for name in names if name not in rec]
        raise error(f"{where}: {(unknown + missing)[0]}") from None
    fault = type_fault(item)
    if fault:
        raise error(f"{where}: {fault}")
    return item


def read_corpus(path: str | Path) -> Iterator[tuple[CorpusProgram, Program]]:
    """Each record of a corpus file with the parse that checked it, read,
    checked and yielded one at a time.

    typed_record reads the header, of this version and kind, as a
    CorpusHeader, whose count is checked after the last record, and each
    record as a CorpusProgram.  A record's id must be one no earlier
    record has, its split "train" or "test", and its source must parse
    to functions whose flags match its labels; anything else raises
    CorpusError naming the file and the header or record, once the
    records before it are yielded, so of two faults the first in the
    file is the one named.  The file's text is not kept.  The records
    are parsed through one statement memo (``lang.parser``), so a line
    that recurs in the file is parsed once: the parses of one read share
    expression nodes, and the memo holds them until the read ends.  No
    caller changes a parse, and a pass copies its input first, so each
    parse is the one ``parse(item.source)`` gives.
    """
    records = read_json_lines(path, CorpusError)
    rec = next(records, None)
    if rec is None:
        raise CorpusError(f"{path}: empty corpus file")
    # what kind of file this is, before what its header holds
    if rec.get("kind") != "program-corpus" or rec.get("version") != CORPUS_VERSION:
        raise CorpusError(f"{path}: not a corpus file or unsupported version")
    header = typed_record(CorpusHeader, rec, CorpusError, f"{path}: header")
    seen: set[str] = set()
    lines: StatementMemo = {}
    for rec in records:
        where = f"{path}: record {rec.get('id')!r}"
        item = typed_record(CorpusProgram, rec, CorpusError, where)
        if item.id in seen:
            raise CorpusError(f"{where}: id repeats an earlier record's")
        seen.add(item.id)
        if item.split not in ("train", "test"):
            raise CorpusError(f"{where}: 'split' is {item.split!r}, neither 'train' nor 'test'")
        try:
            program = parse(item.source, lines)
        except MiniLangError as exc:
            raise CorpusError(f"{where}: source does not parse: {exc}") from None
        if function_labels(program) != item.labels:
            raise CorpusError(f"{where}: labels do not match source flags")
        yield item, program
    if len(seen) != header.count:
        raise CorpusError(f"{path}: header count {header.count} != {len(seen)} records")


def load_corpus(path: str | Path) -> list[CorpusProgram]:
    """Every record of a corpus file, checked as `read_corpus` checks it,
    without the parses.

    The commands read through `read_corpus`, which hands each record's
    parse on; no module under `src/` calls this. It stays because it is
    the corpus reader the benchmark calls: its corpus round-trip check
    and its `corpus.load` span name it, and the tests read written
    corpora through it."""
    return [item for item, _ in read_corpus(path)]

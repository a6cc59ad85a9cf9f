"""Synthetic corpus of small programs with known out-of-bounds defects.

Each program reads two integers, wires them through padding helpers and
one target helper, and prints a few values plus a tag string.  In the
vulnerable variant the target helper indexes an array with a raw
input-derived value and the offending statement carries a //@vuln flag;
the benign variant keeps the sanitizing arithmetic inside the indexing
expression itself, so the distinction travels with the sink statement
no matter how the surrounding code is split, merged, or flattened.
Around the sink, helpers carry class-correlated but semantically inert
texture (guard-style conditionals in benign code, raw arithmetic chains
with stray `%` in vulnerable code) that gives shortcut learners an easy
separator on untransformed programs.

Every generated program is self-checked: its benign inputs must run to
completion, and for vulnerable programs the witness inputs must trap
out of bounds exactly at a flagged statement.  Benign programs must
survive the same hostile vector untouched.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional

from .lang import MiniLangError, interpret, parse, pretty_print
from .lang.interp import COMPLETED, OUT_OF_BOUNDS, RUNTIME_ERROR
from .lang.nodes import Program, flagged_lines, walk_statements
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
    witness_inputs: Optional[list[int]]
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
# template families: each returns helper source, main body lines, witness
# vector, benign vector, and the hostile vector a benign variant must survive


def _texture(rng, vulnerable: bool, v: str, size: int) -> list[str]:
    """Inert filler statements for a helper body, correlated with its class.

    Benign helpers get guard-style conditionals that only touch scratch
    variables; vulnerable ones get arithmetic chains.  Vulnerable chains
    carry stray `%` so modulo counts overlap between classes and the only
    dependable separator is the wrap inside the sink expression.
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
    return list(pools[int(rng.integers(0, len(pools)))])


def _t_copy(rng, vulnerable: bool, size: int) -> dict:
    bias = int(rng.integers(0, 4))
    if vulnerable:
        sink = f"        dst[i] = src[i] + {bias}; //@vuln"
    else:
        sink = f"        dst[i % {size}] = src[i % {size}] + {bias};"
    seeded = rng.random() < 0.35  # loop counter arrives as a parameter
    lines = [] if seeded else ["    var i = 0;"]
    if rng.random() < 0.65:
        lines += [f"    {t}" for t in _texture(rng, vulnerable, "n", size)]
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
    call = f"{entry}(dst, src, n, 0)" if seeded else f"{entry}(dst, src, n)"
    probe = int(rng.integers(0, size))
    fill_m = int(rng.integers(1, 4))
    main = [
        f"var src[{size}];",
        f"var dst[{size}];",
        "var f = 0;",
        f"while (f < {size}) {{",
        f"    src[f % {size}] = f * {fill_m} + 1;",
        "    f = f + 1;",
        "}",
        "var n = input();",
        "var k = input();",
        "PAD",
        f"var moved = {call};",
        "output(moved);",
        f"output(dst[{probe} % {size}]);",
    ]
    return {
        "name": "copy",
        "helper": helper,
        "main": main,
        "witness": [size + 2, 1],
        "benign": [max(1, size - 2), 3],
    }


def _t_lookup(rng, vulnerable: bool, size: int) -> dict:
    if vulnerable:
        ret = "    return table[k]; //@vuln"
    else:
        ret = f"    return table[(k % {size} + {size}) % {size}];"
    body = [f"    {t}" for t in _texture(rng, vulnerable, "k", size)] + [ret]
    helper = "func pick_slot(table, k) {\n" + "\n".join(body) + "\n}\n"
    entry = "pick_slot"
    step = int(rng.integers(2, 6))
    main = [
        f"var table[{size}];",
        "var f = 0;",
        f"while (f < {size}) {{",
        f"    table[f % {size}] = {step} * f;",
        "    f = f + 1;",
        "}",
        "var k = input();",
        "var d = input();",
        "PAD",
        f"output({entry}(table, k));",
    ]
    return {
        "name": "lookup",
        "helper": helper,
        "main": main,
        "witness": [size + 1, 0],
        "benign": [2, 5],
    }


def _t_window(rng, vulnerable: bool, size: int) -> dict:
    if vulnerable:
        acc_line = "        acc = acc + buf[start + j]; //@vuln"
    else:
        acc_line = (
            f"        acc = acc + buf[((start + j) % {size} + {size}) % {size}];"
        )
    body = [f"    {t}" for t in _texture(rng, vulnerable, "start", size)]
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
    main = [
        f"var buf[{size}];",
        "var f = 0;",
        f"while (f < {size}) {{",
        f"    buf[f % {size}] = f + {fill_c};",
        "    f = f + 1;",
        "}",
        "var start = input();",
        "var width = input();",
        "PAD",
        "output(window_sum(buf, start, width));",
    ]
    return {
        "name": "window",
        "helper": helper,
        "main": main,
        "witness": [size, 2],
        "benign": [1, 3],
    }


def _t_store(rng, vulnerable: bool, size: int) -> dict:
    if vulnerable:
        sink = "    buf[pos] = v; //@vuln"
    else:
        sink = f"    buf[(pos % {size} + {size}) % {size}] = v;"
    lines = []
    if rng.random() < 0.5:
        lines += [f"    {t}" for t in _texture(rng, vulnerable, "pos", size)]
    lines += [sink, "    return pos;"]
    helper = "func put_slot(buf, pos, v) {\n" + "\n".join(lines) + "\n}\n"
    entry = "put_slot"
    fill_c = int(rng.integers(2, 6))
    probe = int(rng.integers(0, size))
    main = [
        f"var buf[{size}];",
        "var f = 0;",
        f"while (f < {size}) {{",
        f"    buf[f % {size}] = f * {fill_c};",
        "    f = f + 1;",
        "}",
        "var pos = input();",
        "var v = input();",
        "PAD",
        f"output({entry}(buf, pos, v));",
        f"output(buf[{probe} % {size}]);",
    ]
    return {
        "name": "store",
        "helper": helper,
        "main": main,
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
        ret = f"    return marks[(slot % {size} + {size}) % {size}];"
    body = [f"    {t}" for t in _texture(rng, vulnerable, "slot", size)] + [ret]
    score_fn = "func score_of(marks, slot) {\n" + "\n".join(body) + "\n}\n"
    main = [
        f"var marks[{size}];",
        "var f = 0;",
        f"while (f < {size}) {{",
        f"    marks[f % {size}] = f * 2 + 1;",
        "    f = f + 1;",
        "}",
        "var g = input();",
        "var s = input();",
        "PAD",
        "output(level_name(g));",
        "output(score_of(marks, s));",
    ]
    return {
        "name": "tagged",
        "helper": namer_fn + "\n" + score_fn,
        "main": main,
        "witness": [1, size + 4],
        "benign": [8, 2],
    }


_TEMPLATES = (_t_copy, _t_lookup, _t_window, _t_tagged, _t_store)


def _assemble(rng, vulnerable: bool) -> dict:
    size = int(rng.integers(5, 10))
    template = _TEMPLATES[int(rng.integers(0, len(_TEMPLATES)))]
    spec = template(rng, vulnerable, size)
    pads = _padding(rng)

    # wire padding helpers into main at the PAD slot, chaining when two
    seed_var = next(
        l.split()[1] for l in spec["main"] if l.startswith("var ") and l.endswith("= input();")
    )
    pad_lines: list[str] = []
    if len(pads) == 1:
        pad_lines.append(f"output({pads[0][0]}({seed_var}));")
    else:
        first, second = pads[0][0], pads[1][0]
        pad_lines.append(f"var u = {first}({seed_var});")
        pad_lines.append(f"output({second}(u));")

    main_lines: list[str] = []
    for line in spec["main"]:
        if line == "PAD":
            main_lines.extend(pad_lines)
        else:
            main_lines.append(line)
    main_lines.append(f'output("{spec["name"]}");')
    main_lines.append("return 0;")

    helper_blocks = [spec["helper"]] + [text for _, text in pads]
    order = rng.permutation(len(helper_blocks))
    body = "\n\n".join(helper_blocks[int(i)].rstrip() for i in order)
    main_src = "func main() {\n" + "\n".join(f"    {l}" for l in main_lines) + "\n}\n"
    source = body + "\n\n" + main_src
    return {
        "source": source,
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
    `read_corpus` yields them; variants are built from originals only."""
    pairs = list(pairs)
    out = [item for item, _ in pairs]
    originals = [(item, program) for item, program in pairs if item.kind is None]
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
    with open(path, "w", encoding="utf-8") as fh:
        header = {"version": CORPUS_VERSION, "kind": "program-corpus", "count": len(items)}
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for item in items:
            record = {
                "id": item.id,
                "split": item.split,
                "source": item.source,
                "labels": item.labels,
                "witness_inputs": item.witness_inputs,
                "provenance": item.provenance,
            }
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def read_json_lines(path: str | Path, error: type[Exception]) -> list[dict]:
    """The JSON objects on the non-blank lines of a file.

    Bytes that are not UTF-8, and a line that is not a JSON object (a
    truncated one, or one nested too deep to decode, say), raise `error`
    naming the file and the line.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc})") from None
    records = []
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise error(f"{path}:{number}: not valid JSON ({exc})") from None
        if not isinstance(rec, dict):
            raise error(f"{path}:{number}: not a JSON object")
        records.append(rec)
    return records


def read_corpus(path: str | Path) -> Iterator[tuple[CorpusProgram, Program]]:
    """Each record of a corpus file with the parse that checked it.

    A record must have string id, source and split, integer labels that
    match the flags in its source, witness_inputs null or a list of
    integers, a provenance object, and a source that parses; anything
    else raises CorpusError naming the file and the record.  Each parse
    is yielded once and kept nowhere, so a caller that drops it holds
    one program's tree at a time.
    """
    records = read_json_lines(path, CorpusError)
    if not records:
        raise CorpusError(f"{path}: empty corpus file")
    header = records[0]
    if header.get("version") != CORPUS_VERSION or header.get("kind") != "program-corpus":
        raise CorpusError(f"{path}: not a corpus file or unsupported version")
    for rec in records[1:]:
        try:
            item = CorpusProgram(
                id=rec["id"],
                source=rec["source"],
                split=rec["split"],
                labels=rec["labels"],
                witness_inputs=rec.get("witness_inputs"),
                provenance=rec.get("provenance", {}),
            )
        except KeyError as exc:
            raise CorpusError(f"{path}: record missing key {exc}") from None
        where = f"{path}: record {item.id!r}"
        for name in ("id", "source", "split"):
            if not isinstance(getattr(item, name), str):
                raise CorpusError(f"{where}: {name!r} is not a string")
        if not isinstance(item.labels, dict) or not all(type(v) is int for v in item.labels.values()):
            raise CorpusError(f"{where}: 'labels' is not an object of integers")
        witness = item.witness_inputs
        if witness is not None and not (isinstance(witness, list) and all(type(v) is int for v in witness)):
            raise CorpusError(f"{where}: 'witness_inputs' is neither null nor a list of integers")
        if not isinstance(item.provenance, dict):
            raise CorpusError(f"{where}: 'provenance' is not an object")
        try:
            program = item.program()
        except MiniLangError as exc:
            raise CorpusError(f"{where}: source does not parse: {exc}") from None
        if function_labels(program) != item.labels:
            raise CorpusError(f"{item.id}: labels do not match source flags")
        yield item, program
    if len(records) - 1 != header.get("count"):
        raise CorpusError(f"{path}: header count {header.get('count')} != {len(records) - 1} records")


def load_corpus(path: str | Path) -> list[CorpusProgram]:
    """Every record of a corpus file, checked as `read_corpus` checks it,
    without the parses.

    The commands read through `read_corpus`, which hands each record's
    parse on; no module under `src/` calls this. It stays because it is
    the corpus reader the benchmark calls: its corpus round-trip check
    and its `corpus.load` span name it, and the tests read written
    corpora through it."""
    return [item for item, _ in read_corpus(path)]

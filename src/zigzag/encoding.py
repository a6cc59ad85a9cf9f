"""Token normalization and integer encoding of fragments.

Identifiers are anonymized per fragment: function-position names become
FUN_k and the rest VAR_k, numbered by first appearance, so models never
see concrete names (the attacker controls those).  String literals
collapse to STR.  Keywords, operators, punctuation, and integer
literals pass through.

Ids 0 and 1 are reserved for padding and unknown tokens.  The
vocabulary is built from training fragments only; handing it anything
else is a leakage bug and raises.
"""
from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

import numpy as np

from .fragments import Fragment
from .lang import tokenize

PAD_ID = 0
UNK_ID = 1
FUNCTION_LENGTH = 128
SLICE_LENGTH = 64


class EncodingError(Exception):
    pass


def normalize_tokens(text: str) -> list[str]:
    tokens = tokenize(text)
    fun_map: dict[str, str] = {}
    var_map: dict[str, str] = {}
    out: list[str] = []
    for i, tok in enumerate(tokens):
        if tok.category == "identifier":
            prev = tokens[i - 1] if i > 0 else None
            nxt = tokens[i + 1] if i + 1 < len(tokens) else None
            is_function = (prev is not None and prev.text == "func") or (
                nxt is not None and nxt.text == "("
            )
            table = fun_map if is_function else var_map
            prefix = "FUN" if is_function else "VAR"
            if tok.text not in table:
                table[tok.text] = f"{prefix}_{len(table)}"
            out.append(table[tok.text])
        elif tok.category == "literal" and tok.kind == "str":
            out.append("STR")
        else:
            out.append(tok.text)
    return out


def build_vocab(fragments: Iterable[Fragment]) -> dict[str, int]:
    """Token -> id (ids start at 2), most frequent first, ties lexicographic."""
    counts: Counter[str] = Counter()
    for frag in fragments:
        if frag.split != "train":
            raise EncodingError(f"vocabulary fed non-training fragment {frag.id}")
        counts.update(normalize_tokens(frag.text))
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return {tok: i + 2 for i, (tok, _) in enumerate(ordered)}


def encode_text(text: str, vocab: dict[str, int], length: int) -> np.ndarray:
    ids = [vocab.get(tok, UNK_ID) for tok in normalize_tokens(text)][:length]
    arr = np.full(length, PAD_ID, dtype=np.int32)
    arr[: len(ids)] = ids
    return arr


def encode_fragments(
    fragments: Sequence[Fragment], vocab: dict[str, int], length: int
) -> tuple[np.ndarray, np.ndarray]:
    """(N, L) int32 token ids and (N,) float64 labels."""
    if not fragments:
        return np.zeros((0, length), dtype=np.int32), np.zeros(0, dtype=np.float64)
    X = np.stack([encode_text(f.text, vocab, length) for f in fragments])
    y = np.array([float(f.label) for f in fragments], dtype=np.float64)
    return X, y


def default_length(granularity: str) -> int:
    return FUNCTION_LENGTH if granularity == "function" else SLICE_LENGTH

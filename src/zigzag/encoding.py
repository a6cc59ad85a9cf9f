"""Token normalization and integer encoding of fragments.

Identifiers are anonymized per fragment: function-position names become
FUN_k and the rest VAR_k, numbered by first appearance, so models never
see concrete names (the attacker controls those).  String literals
collapse to STR.  Keywords, operators, punctuation, and integer
literals pass through.

A fragment arrives with these tokens (``Fragment.tokens``), emitted
from its AST at extraction, so the vocabulary and the encoder read them
and lex nothing.  ``normalize_tokens`` states the same rule over text:
it lexes, then anonymizes each identifier by the raw texts of its
neighbours in the flat token stream, and is the reference the token
walk is tested against.

Ids 0 and 1 are reserved for padding and unknown tokens.  The
vocabulary is built from training fragments only; handing it anything
else is a leakage bug and raises.
"""
from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

import numpy as np

from .fragments import Fragment
from .lang.lexer import kind_of, lex

PAD_ID = 0
UNK_ID = 1


class EncodingError(Exception):
    pass


def normalize_tokens(text: str) -> list[str]:
    texts = lex(text)[0].texts  # raw texts, ending with eof's empty one
    fun_map: dict[str, str] = {}
    var_map: dict[str, str] = {}
    out: list[str] = []
    for i in range(len(texts) - 1):
        tok = texts[i]
        kind = kind_of(tok)
        if kind == "ident":
            is_function = (i > 0 and texts[i - 1] == "func") or texts[i + 1] == "("
            table = fun_map if is_function else var_map
            prefix = "FUN" if is_function else "VAR"
            if tok not in table:
                table[tok] = f"{prefix}_{len(table)}"
            out.append(table[tok])
        elif kind == "str":
            out.append("STR")
        else:
            out.append(tok)
    return out


def build_vocab(fragments: Iterable[Fragment]) -> dict[str, int]:
    """Token -> id (ids start at 2), most frequent first, ties lexicographic."""
    counts: Counter[str] = Counter()
    for frag in fragments:
        if frag.split != "train":
            raise EncodingError(f"vocabulary fed non-training fragment {frag.id}")
        counts.update(frag.tokens)
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return {tok: i + 2 for i, (tok, _) in enumerate(ordered)}


def embedding_rows(vocab: dict[str, int]) -> int:
    """Rows of an embedding over vocab's ids: one per id up to the largest,
    PAD_ID and UNK_ID included, so 2 for an empty vocabulary."""
    return max(vocab.values(), default=1) + 1


def encode_fragments(
    fragments: Sequence[Fragment], vocab: dict[str, int], length: int
) -> tuple[np.ndarray, np.ndarray]:
    """(N, L) int32 token ids and (N,) float64 labels.

    Each row holds a fragment's first L token ids, unknown tokens as
    UNK_ID, padded with PAD_ID.
    """
    X = np.full((len(fragments), length), PAD_ID, dtype=np.int32)
    for row, frag in zip(X, fragments):
        ids = [vocab.get(tok, UNK_ID) for tok in frag.tokens[:length]]
        row[: len(ids)] = ids
    y = np.array([float(f.label) for f in fragments], dtype=np.float64)
    return X, y


def count_truncated(fragments: Iterable[Fragment], length: int) -> int:
    """How many fragments hold more tokens than an encoding of `length` keeps."""
    return sum(len(frag.tokens) > length for frag in fragments)

"""Semantics-preserving program transforms.

Eight passes, addressed as ct1..ct8:

    ct1  wrap string literals in builder functions
    ct2  permute parameters and add a bogus argument
    ct3  flatten control flow into a dispatch loop
    ct4  merge function pairs behind a selector parameter
    ct5  merge function pairs, then flatten the merged body
    ct6  split functions at top level with tail-call threading
    ct7  outline one straight-line block per function
    ct8  outline blocks, then outline the outlined call sites

``apply_transform`` runs one pass and returns the transformed program
plus a LineMap sending each input statement id to the set of statement
ids derived from it.  A pass copies its input once and then moves the
statements of that draft, so the output shares no node with the input.
Passes compose by applying them one after another.
"""
from __future__ import annotations

from ..lang.nodes import Program, collect_line_ids
from ..seeds import derive_rng
from .base import GENERATED_PREFIX, InapplicableTransform, LineMap, TransformError, finalize
from .flatten import pass_ct3
from .merge import pass_ct4, pass_ct5
from .split import pass_ct6, pass_ct7, pass_ct8
from .surface import pass_ct1, pass_ct2

_PASSES = {
    "ct1": pass_ct1,
    "ct2": pass_ct2,
    "ct3": pass_ct3,
    "ct4": pass_ct4,
    "ct5": pass_ct5,
    "ct6": pass_ct6,
    "ct7": pass_ct7,
    "ct8": pass_ct8,
}

ALL_KINDS = tuple(sorted(_PASSES))

# named transform sets used for training-side augmentation
CT_SETS: dict[str, tuple[str, ...]] = {
    "md0": (),
    "md1": ("ct2", "ct7", "ct8"),
    "md2": ("ct3", "ct4", "ct6"),
    "md3": ("ct2", "ct4", "ct5", "ct6"),
    "md4": ("ct1", "ct2", "ct3", "ct4", "ct6", "ct7"),
    "md5": ALL_KINDS,
}


def resolve_kinds(spec: str) -> tuple[str, ...]:
    """Resolve a user-facing transform selector to a kind tuple.

    Accepts a single kind ("ct3"), a comma list ("ct1,ct6"), "all", or a
    named set ("md2").  Case-insensitive; a kind listed twice is kept
    once, so each program gets at most one variant of each kind.
    """
    text = spec.strip().lower()
    if not text:
        raise TransformError("empty transform selector")
    if text == "all":
        return ALL_KINDS
    if text in CT_SETS:
        return CT_SETS[text]
    kinds = tuple(dict.fromkeys(part.strip() for part in text.split(",")))
    for kind in kinds:
        if kind not in _PASSES:
            raise TransformError(f"unknown transform kind {kind!r}")
    return kinds


def apply_transform(program: Program, kind: str, seed: int) -> tuple[Program, LineMap]:
    """Apply one pass under a seed derived from (seed, kind).

    Raises InapplicableTransform when the program has no site for the
    pass, TransformError for unknown kinds or internal invariant breaks.
    """
    key = kind.strip().lower()
    if key not in _PASSES:
        raise TransformError(f"unknown transform kind {kind!r}")
    rng = derive_rng(seed, "transform", key)
    input_ids = collect_line_ids(program)
    draft = _PASSES[key](program, rng)
    return finalize(draft, key, input_ids)


__all__ = [
    "ALL_KINDS",
    "CT_SETS",
    "GENERATED_PREFIX",
    "InapplicableTransform",
    "LineMap",
    "TransformError",
    "apply_transform",
    "resolve_kinds",
]

"""Command line surface.

Subcommands wire the library into reproducible batch runs:

    gen        synthesize a labeled corpus and write train/test files
    transform  apply semantics-preserving transforms to a corpus file
    train      fit a detector (original | conventional | zigzag)
    eval       score a model file against a corpus file, bucket by transform
    compare    check the robustness ordering across report files

Every run writes a resolved-config JSON next to its primary output so
any artifact can be regenerated from the file sitting beside it.  The
seed resolution order is: --seed, then a config-file `seed` entry,
then 0.

Exit codes: 0 success, 2 usage error, 3 data error, 4 training divergence.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from collections import Counter
from pathlib import Path

from . import __version__
from .corpus import CorpusError, augment_corpus, generate_synthetic, read_corpus, save_corpus
from .encoding import EncodingError, count_truncated
from .evaluation import ORIGINAL_ROW, EvaluationError, compare_reports, evaluate_detector, load_report
from .fragments import GRANULARITIES, extract_fragments
from .nn.model import ModelError, load_model, make_config, model_fingerprint, save_model
from .nn.optim import TrainingDiverged
from .training import TrainConfig, TrainingError, save_trace, train_original, train_zigzag
from .transforms import TransformError, resolve_kinds

log = logging.getLogger("zigzag")

_INT_KEYS = {
    "seed", "count", "beta", "e1", "e2", "e3", "batch_size",
    "emb_dim", "feature_dim", "head_hidden", "rnn_hidden", "length",
}
_FLOAT_KEYS = {"vuln", "delta", "lr", "tau_disc", "tau_loss"}
_STR_KEYS = {"ct", "granularity", "encoder"}
_CONFIG_KEYS = _INT_KEYS | _FLOAT_KEYS | _STR_KEYS

_TRAIN_KEYS = tuple(f.name for f in dataclasses.fields(TrainConfig) if f.name != "seed")
_MODEL_KEYS = ("encoder", "emb_dim", "feature_dim", "head_hidden", "rnn_hidden", "length")


class UsageError(Exception):
    pass


def _parse_config_file(path: str) -> dict:
    values: dict = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not UTF-8 text ({exc})") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            if key in _INT_KEYS:
                values[key] = int(value)
            elif key in _FLOAT_KEYS:
                values[key] = float(value)
            else:
                values[key] = value
        except ValueError:
            raise UsageError(f"{path}:{lineno}: bad value for {key}: {value!r}")
    return values


def _load_run_config(args) -> dict:
    if getattr(args, "config", None):
        return _parse_config_file(args.config)
    return {}


def _pick(args, config: dict, key: str, fallback):
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    return config.get(key, fallback)


def _write_resolved(primary_output, payload: dict) -> None:
    path = Path(str(primary_output) + ".config.json")
    payload = {"tool_version": __version__, **payload}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# ---- subcommands -------------------------------------------------------------


def cmd_gen(args) -> None:
    config = _load_run_config(args)
    seed = _pick(args, config, "seed", 0)
    count = _pick(args, config, "count", None)
    vuln = _pick(args, config, "vuln", 0.4)
    if count is None:
        raise UsageError("gen requires --count (or a config file with count=)")
    if count < 1:
        raise UsageError(f"--count must be >= 1, got {count}")
    if not 0.0 < vuln < 1.0:
        raise UsageError(f"--vuln must be strictly between 0 and 1, got {vuln}")
    corpus = generate_synthetic(count, vulnerable_fraction=vuln, seed=seed)
    train = [p for p in corpus if p.split == "train"]
    test = [p for p in corpus if p.split == "test"]
    save_corpus(args.out_train, train)
    save_corpus(args.out_test, test)
    _write_resolved(args.out_train, {
        "command": "gen",
        "count": count,
        "vuln": vuln,
        "seed": seed,
        "out_train": str(args.out_train),
        "out_test": str(args.out_test),
        "train_programs": len(train),
        "test_programs": len(test),
    })
    log.info("wrote %d train and %d test programs", len(train), len(test))


def cmd_transform(args) -> None:
    config = _load_run_config(args)
    seed = _pick(args, config, "seed", 0)
    selector = _pick(args, config, "ct", None)
    if selector is None:
        raise UsageError("transform requires --ct (or a config file with ct=)")
    try:
        kinds = resolve_kinds(selector)
    except TransformError as exc:
        raise UsageError(str(exc))
    pairs = list(read_corpus(args.input))
    augmented = augment_corpus(pairs, kinds, seed)
    originals = sum(1 for item, _ in pairs if item.kind is None)
    made = Counter(p.kind for p in augmented[len(pairs):])  # the variants follow the input
    if args.variants_only:
        augmented = [p for p in augmented if p.kind is not None]
    save_corpus(args.out, augmented)
    variants = sum(1 for p in augmented if p.kind is not None)
    _write_resolved(args.out, {
        "command": "transform",
        "input": str(args.input),
        "out": str(args.out),
        "ct": selector,
        "kinds": list(kinds),
        "seed": seed,
        "variants_only": bool(args.variants_only),
        "programs": len(augmented),
        "variants": variants,
        # per kind, the originals it made a variant of and those it did not apply to
        "per_kind": {kind: {"made": made[kind], "inapplicable": originals - made[kind]} for kind in kinds},
    })
    log.info("wrote %d programs (%d variants)", len(augmented), variants)


def _train_configs(args, config: dict, seed: int) -> tuple[TrainConfig, dict, int]:
    """The train config, the model config the command passes on, and the
    token length the model will keep."""
    tc = TrainConfig(seed=seed, **{k: config[k] for k in _TRAIN_KEYS if k in config})
    mc = {k: config[k] for k in _MODEL_KEYS if k in config}
    mc["granularity"] = _pick(args, config, "granularity", "function")
    try:
        tc.validate()
        length = make_config(**mc)["length"]
    except (TrainingError, ModelError) as exc:
        raise UsageError(str(exc))
    return tc, mc, length


def cmd_train(args) -> None:
    config = _load_run_config(args)
    seed = _pick(args, config, "seed", 0)
    tc, mc, length = _train_configs(args, config, seed)
    granularity = mc["granularity"]

    # originals' fragments, then variants' grouped by kind in first-seen
    # order; original mode counts the variant programs and cuts no
    # fragments from them. Fragments with equal tokens share one tuple:
    # many variants normalize to their original's tokens, and the tuples
    # are most of what is kept.
    buckets: dict = {None: []}
    sequences: dict = {}
    ignored = 0
    for item, program in read_corpus(args.data):
        bucket = buckets.setdefault(item.kind, [])
        if item.split != "train":
            continue
        if item.kind is not None and args.mode == "original":
            ignored += 1
            continue
        fragments = extract_fragments(item, granularity, program)
        for frag in fragments:
            frag.tokens = sequences.setdefault(frag.tokens, frag.tokens)
        bucket.extend(fragments)
    clean = buckets.pop(None)
    varied = [f for bucket in buckets.values() for f in bucket]
    val_fragments = None
    if args.val_data:
        val_fragments = [
            f for item, program in read_corpus(args.val_data)
            for f in extract_fragments(item, granularity, program)
        ]

    if args.mode == "original":
        if ignored:
            log.warning("original mode ignores %d transformed variant programs", ignored)
        outcome = train_original(clean, model_config=mc, train_config=tc, val_fragments=val_fragments)
    elif args.mode == "conventional":
        if not varied:
            log.warning("conventional mode without variants is identical to original mode")
        outcome = train_original(clean + varied, model_config=mc, train_config=tc, val_fragments=val_fragments)
    else:
        outcome = train_zigzag(clean, varied, model_config=mc, train_config=tc, val_fragments=val_fragments)

    save_model(outcome.model, args.out_model)
    save_trace(args.out_trace, outcome.trace)
    _write_resolved(args.out_model, {
        "command": "train",
        "mode": args.mode,
        "data": str(args.data),
        "val_data": str(args.val_data) if args.val_data else None,
        "out_model": str(args.out_model),
        "out_trace": str(args.out_trace),
        "seed": seed,
        "train_config": dataclasses.asdict(tc),
        "model_config": outcome.model.config,
        "clean_fragments": len(clean),
        # the fragments the model trained on: no variant's in original mode
        "variant_fragments": len(varied),
        "truncated_clean_fragments": count_truncated(clean, length),
        "truncated_variant_fragments": count_truncated(varied, length),
        "rounds_run": outcome.rounds_run,
        "stopped_early": outcome.stopped_early,
        "model_fingerprint": model_fingerprint(outcome.model),
    })
    log.info("trained %s model -> %s", args.mode, args.out_model)


def cmd_eval(args) -> None:
    model = load_model(args.model)
    report = evaluate_detector(model, read_corpus(args.corpus))
    if not report.row(ORIGINAL_ROW).programs:
        raise CorpusError(f"{args.corpus} holds no untransformed programs")
    report.save(args.out)
    _write_resolved(args.out, {
        "command": "eval",
        "model": str(args.model),
        "corpus": str(args.corpus),
        "out": str(args.out),
        "granularity": report.granularity,
        "corpus_digest": report.corpus_digest,
        "model_digest": report.model_digest,
        "buckets": report.buckets,
    })
    print(report.to_text())


def cmd_compare(args) -> None:
    if len(args.reports) < 2:
        raise UsageError("need at least two reports to compare")
    if args.names:
        names = [part.strip() for part in args.names.split(",")]
        if len(names) != len(args.reports):
            raise UsageError("one name per report required")
    else:
        names = [Path(p).stem for p in args.reports]
    reports = [load_report(path) for path in args.reports]
    result = compare_reports(reports, names)
    for name, f1 in zip(result["names"], result["f1"]):
        print(f"{name}: Total F1 = {f1}")
    print(f"ordered (weakest first): {'yes' if result['ordered'] else 'no'}")


# ---- wiring ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="zigzag", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="synthesize a labeled corpus")
    p.add_argument("--count", type=int)
    p.add_argument("--vuln", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--config")
    p.add_argument("--out-train", required=True)
    p.add_argument("--out-test", required=True)
    p.set_defaults(handler=cmd_gen)

    p = sub.add_parser("transform", help="apply transforms to a corpus file")
    p.add_argument("input")
    p.add_argument("--ct", help="ct name, comma list, 'all', or md0..md5")
    p.add_argument("--seed", type=int)
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.add_argument("--variants-only", action="store_true")
    p.set_defaults(handler=cmd_transform)

    p = sub.add_parser("train", help="fit a detector")
    p.add_argument("--mode", choices=("original", "conventional", "zigzag"), required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--val-data")
    p.add_argument("--granularity", choices=tuple(GRANULARITIES))
    p.add_argument("--seed", type=int)
    p.add_argument("--config")
    p.add_argument("--out-model", required=True)
    p.add_argument("--out-trace", required=True)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("eval", help="score a model against a corpus")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("compare", help="check the robustness ordering of reports")
    p.add_argument("reports", nargs="+")
    p.add_argument("--names", help="comma-separated labels, one per report")
    p.set_defaults(handler=cmd_compare)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.handler(args)
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 4
    except (
        CorpusError,
        EncodingError,
        EvaluationError,
        ModelError,
        TrainingError,
        TransformError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

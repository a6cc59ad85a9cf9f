"""One traced pass: the pipeline of pipeline.py with spans, then an nn sweep.

    python3 perfbench/traced.py WORKLOAD_JSON SEED WORKDIR SPANS_JSONL RESULT_JSON

The pass runs the same CLI commands on the same inputs as an untraced
pass, with a span around every call into a layer's public function
(see targets()).  After it, untimed by the pass, come

* a sweep of one epoch through features_forward, head_forward,
  head_backward, features_backward and Adam.step over the largest array
  a train command encoded, once per encoder (mean and rnn);
* a pass over the test corpus with the tracer paused, for token counts,
  truncation per bucket and the out-of-vocabulary rate.

RESULT_JSON holds the per-layer metrics, the traced wall time and the
sameness record; SPANS_JSONL holds every span.
"""
from __future__ import annotations

import json
import logging
import os
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import checks
import speed
import zigzag.nn.model as nnmodel
from pipeline import run_pipeline
from spans import ATTRS, NAME, PARENT, SpanTable, Tracer, instrument
from workloads import Workload, model_path
from zigzag.corpus import load_corpus
from zigzag.encoding import normalize_tokens
from zigzag.fragments import extract_fragments
from zigzag.lang.nodes import walk_program
from zigzag.nn.losses import bce_loss
from zigzag.nn.model import load_model, make_config
from zigzag.nn.optim import Adam
from zigzag.seeds import derive_rng
from zigzag.training import TrainConfig
from zigzag.transforms import ALL_KINDS

ENCODERS = ("mean", "rnn")


class SweepInput:
    """The largest array a train command encoded, kept by a span hook."""

    def __init__(self) -> None:
        self.encoded: tuple[np.ndarray, np.ndarray, int] | None = None

    def keep_encoded(self, args, kwargs, result):
        X, y = result
        if self.encoded is None or len(X) > len(self.encoded[0]):
            vocab = args[1]
            self.encoded = (X, y, max(vocab.values(), default=1) + 1)
        return len(X), None


def _statements(program) -> int:
    return sum(1 for _ in walk_program(program))


def _transformed(args, kwargs, result):
    return _statements(result[0]), {"before": _statements(args[0])}


def _trained(args, kwargs, outcome):
    trace = outcome.trace
    gammas = [r.gamma for r in trace if r.round > 0]
    return len(trace), {
        "rounds": outcome.rounds_run,
        "hard_ratio": sum(gammas) / len(gammas) if gammas else 0.0,
        "final_L_c": trace[-1].L_c if trace else 0.0,
        "final_mean_disc": trace[-1].mean_disc if trace else 0.0,
    }


def _length(args, kwargs, result):
    return len(result), None


def _evaluated(args, kwargs, report):
    return sum(r.programs for r in report.rows if r.name != "Total"), None


def targets(keep: SweepInput):
    """(module, function, span name, after) and (module, class, method, span
    name, after) for every call the traced pass records."""
    functions = (
        ("zigzag.lang.lexer", "lex", "lang.lex", lambda a, k, r: (len(r[0]), None)),
        ("zigzag.lang.parser", "parse", "lang.parse", lambda a, k, r: (1, None)),
        ("zigzag.lang.printer", "pretty_print", "lang.print", None),
        ("zigzag.lang.printer", "format_function", "lang.print", None),
        ("zigzag.lang.printer", "format_statements", "lang.print", None),
        ("zigzag.lang.interp", "interpret", "lang.interp", lambda a, k, r: (r.steps_used, None)),
        ("zigzag.transforms", "apply_transform", lambda a: f"transforms.{a[1]}", _transformed),
        ("zigzag.corpus", "generate_synthetic", "corpus.generate", _length),
        ("zigzag.corpus", "save_corpus", "corpus.save",
         lambda a, k, r: (len(a[1]), {"bytes": os.path.getsize(a[0])})),
        ("zigzag.corpus", "load_corpus", "corpus.load", _length),
        ("zigzag.corpus", "augment_corpus", "corpus.augment", _length),
        ("zigzag.fragments", "extract_fragments", "fragments.extract", _length),
        ("zigzag.encoding", "normalize_tokens", "encoding.normalize", _length),
        ("zigzag.encoding", "build_vocab", "encoding.vocab", _length),
        ("zigzag.encoding", "encode_fragments", "encoding.encode", keep.keep_encoded),
        ("zigzag.nn.model", "features_forward", "nn.features_forward",
         lambda a, k, r: (len(a[2]), None)),
        ("zigzag.nn.model", "features_backward", "nn.features_backward", None),
        ("zigzag.nn.model", "head_forward", "nn.heads", None),
        ("zigzag.nn.model", "head_backward", "nn.heads", None),
        ("zigzag.training", "train_original", "training.train", _trained),
        ("zigzag.training", "train_zigzag", "training.train", _trained),
        ("zigzag.evaluation", "evaluate_detector", "evaluation.evaluate", _evaluated),
    )
    methods = (
        ("zigzag.nn.model", "DetectorModel", "predict", "nn.predict", None),
        ("zigzag.nn.optim", "Adam", "step", "nn.optim", None),
        # trace-only measurement passes of the trainer (private helpers)
        ("zigzag.training", "_Trainer", "clean_loss", "training.measure", None),
        ("zigzag.training", "_Trainer", "discrepancy_on", "training.measure", None),
    )
    return functions, methods


# --------------------------------------------------------------------------


def sweep(encoder: str, encoded, seed: int) -> None:
    """One epoch of joint training steps through the nn layer's public calls."""
    X, y, vocab_size = encoded
    tc = TrainConfig()
    config = make_config(encoder=encoder, length=X.shape[1])
    params = nnmodel.init_params(config, vocab_size, seed)
    opt = Adam(tc.lr)
    order = derive_rng(seed, "perfbench", "sweep").permutation(len(X))
    for start in range(0, len(X), tc.batch_size):
        batch = order[start:start + tc.batch_size]
        F, fc = nnmodel.features_forward(params, config, X[batch])
        p1, h1 = nnmodel.head_forward(params, "c1", F)
        p2, h2 = nnmodel.head_forward(params, "c2", F)
        g1, dF1 = nnmodel.head_backward(params, "c1", h1, bce_loss(p1, y[batch])[1])
        g2, dF2 = nnmodel.head_backward(params, "c2", h2, bce_loss(p2, y[batch])[1])
        fg = nnmodel.features_backward(params, config, fc, dF1 + dF2)
        opt.step(params, {**g1, **g2, **fg})


def token_stats(w: Workload, workdir: Path) -> dict[str, float]:
    """Token statistics of the test fragments under the first model's vocab."""
    model = load_model(model_path(workdir, w.modes[0]))
    length = model.config["length"]
    fragments = Counter()
    truncated = Counter()
    tokens = oov = kept = 0
    for item in load_corpus(workdir / "test_aug.jsonl"):
        bucket = item.id.rsplit("::", 1)[1] if "::" in item.id else "original"
        for frag in extract_fragments(item, w.granularity):
            toks = normalize_tokens(frag.text)
            fragments[bucket] += 1
            truncated[bucket] += len(toks) > length
            tokens += len(toks)
            kept += min(len(toks), length)
            oov += sum(1 for t in toks[:length] if t not in model.vocab)
    out = {
        "encoding.vocab_size": float(len(model.vocab)),
        "encoding.tokens_per_fragment": tokens / max(1, sum(fragments.values())),
        "encoding.oov_ratio": oov / max(1, kept),
    }
    for bucket in ("original", *ALL_KINDS):
        out[f"encoding.truncated_ratio.{bucket}"] = truncated[bucket] / max(1, fragments[bucket])
    return out


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(t: SpanTable) -> dict[str, float]:
    """Per-layer metrics of the traced pass; `.s` is self time unless noted."""
    cli = {i for i, s in enumerate(t.spans) if s[PARENT] < 0 and s[NAME].startswith("cli.")}
    m: dict[str, float] = {}

    def pick(names, roots=cli):
        return t.select(names, roots)

    lex, parse = pick("lang.lex"), pick("lang.parse")
    m["lang.lex.s"] = t.self_s(lex)
    m["lang.lex.tokens_per_s"] = _ratio(t.count(lex), t.total_s(lex))
    m["lang.parse.s"] = t.self_s(parse)
    m["lang.parse.programs_per_s"] = _ratio(len(parse), t.total_s(parse))
    m["lang.print.s"] = t.self_s(pick("lang.print"))
    interp = pick("lang.interp")
    m["lang.interp.s"] = t.self_s(interp)
    m["lang.interp.steps"] = t.count(interp)

    for kind in ALL_KINDS:
        idx = pick(f"transforms.{kind}")
        applied = [i for i in idx if "error" not in (t.spans[i][ATTRS] or {})]
        m[f"transforms.{kind}.s"] = t.self_s(idx)
        m[f"transforms.{kind}.applied_ratio"] = _ratio(len(applied), len(idx))
        m[f"transforms.{kind}.size_ratio"] = _ratio(
            t.count(applied), sum(t.spans[i][ATTRS]["before"] for i in applied))

    saves = pick("corpus.save")
    m["corpus.generate.s"] = t.self_s(pick("corpus.generate"))
    m["corpus.save.s"] = t.self_s(saves)
    m["corpus.load.s"] = t.self_s(pick("corpus.load"))
    m["corpus.bytes"] = float(sum(t.spans[i][ATTRS]["bytes"] for i in saves))
    m["corpus.programs"] = t.count(saves)

    extract = pick("fragments.extract")
    m["fragments.extract.s"] = t.self_s(extract)
    m["fragments.count"] = t.count(extract)
    m["fragments.per_program"] = _ratio(t.count(extract), len(extract))

    m["encoding.normalize.s"] = t.self_s(pick("encoding.normalize"))
    m["encoding.vocab.s"] = t.self_s(pick("encoding.vocab"))
    m["encoding.encode.s"] = t.self_s(pick("encoding.encode"))

    for encoder in ENCODERS:
        roots = t.roots(f"sweep.{encoder}")
        p = f"nn.{encoder}."
        m[p + "features_forward.s"] = t.self_s(t.select("nn.features_forward", roots))
        m[p + "features_backward.s"] = t.self_s(t.select("nn.features_backward", roots))
        m[p + "heads.s"] = t.self_s(t.select("nn.heads", roots))
        m[p + "optim.s"] = t.self_s(t.select("nn.optim", roots))
        m[p + "rows_per_s"] = _ratio(t.count(t.select("nn.features_forward", roots)),
                                     t.total_s(list(roots)))

    # training and evaluation times are inclusive: the whole call
    train_cmds = t.roots("cli.train")
    fit = t.total_s(t.select("training.train", train_cmds)) - t.total_s(
        t.select(("encoding.vocab", "encoding.encode"), train_cmds))
    m["training.fit_share"] = _ratio(fit, t.total_s(list(train_cmds)))
    for mode in ("original", "conventional", "zigzag"):
        roots = t.roots("cli.train", mode=mode)
        idx = t.select("training.train", roots)
        m[f"training.{mode}.s"] = t.total_s(idx)
        m[f"training.{mode}.epochs"] = t.count(idx)
        if mode == "zigzag":
            m["training.zigzag.measure_s_per_record"] = _ratio(
                t.total_s(t.select("training.measure", roots)), t.count(idx))
            attrs = t.spans[idx[0]][ATTRS] if idx else {}
            for key in ("rounds", "hard_ratio", "final_L_c", "final_mean_disc"):
                m[f"training.zigzag.{key}"] = float(attrs.get(key, 0.0))

    evals = t.roots("cli.eval")
    evaluate = t.select("evaluation.evaluate", evals)
    m["evaluation.s"] = t.total_s(evaluate)
    m["evaluation.programs_per_s"] = _ratio(t.count(evaluate), m["evaluation.s"])
    m["evaluation.frontend.s"] = t.total_s(t.select(("fragments.extract", "encoding.encode"), evals))
    m["evaluation.forward.s"] = t.total_s(t.select("nn.predict", evals))
    return m


def quality_metrics(record: dict) -> dict[str, float]:
    """F1 per mode on transformed and on untransformed test programs, and
    the compare verdict; 0 for a mode the workload does not train."""
    m = {}
    for mode in ("original", "conventional", "zigzag"):
        entry = record["models"].get(mode, {})
        m[f"quality.f1_total.{mode}"] = entry.get("f1_total") or 0.0
        m[f"quality.f1_clean.{mode}"] = entry.get("f1_clean") or 0.0
    m["quality.ordered"] = 1.0 if record["ordered"] else 0.0
    return m


def main(argv: list[str]) -> int:
    spec, seed, workdir, spans_path, result_path = argv
    seed = int(seed)
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    w = Workload.from_json(spec)
    workdir = Path(workdir)
    tracer = Tracer()
    keep = SweepInput()
    missing = instrument(tracer, *targets(keep))

    speed.probe()  # first call pays numpy's one-off costs
    probes = [speed.probe() for _ in range(3)]
    start = time.perf_counter()
    commands, compare_out = run_pipeline(
        w, seed, workdir, around=lambda step: tracer.span(f"cli.{step.argv[0]}", mode=step.mode))
    wall = time.perf_counter() - start
    probes += [speed.probe() for _ in range(3)]

    for encoder in ENCODERS:
        if keep.encoded is not None:
            with tracer.span(f"sweep.{encoder}"):
                sweep(encoder, keep.encoded, seed)
    record = checks.sameness_record(w, workdir, compare_out)
    with tracer.paused():
        tokens = token_stats(w, workdir)
    table = SpanTable(tracer.spans)
    metrics = {**layer_metrics(table), **tokens, **quality_metrics(record)}
    metrics["trace.wall_s"] = wall
    metrics["trace.spans"] = float(len(tracer.spans))
    tracer.write(spans_path)
    # the pass cannot be sampled as it runs (a probe would land inside the
    # spans), so it is scaled by probes taken just before and after it
    result = {"wall_s": wall, "commands": commands, "missing": missing,
              "reference_wall_s": speed.to_reference(wall, statistics.median(probes)),
              "metrics": metrics, "sameness": record, "top_self": top_self(table)}
    Path(result_path).write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


def top_self(t: SpanTable, n: int = 12) -> list[tuple[str, float, int]]:
    """The span names with the most self time inside the pipeline's
    commands: (name, seconds, calls).  A command's own code outside every
    traced call counts under its cli.* span."""
    total: dict[str, float] = {}
    calls: Counter = Counter()
    for i, s in enumerate(t.spans):
        if t.spans[t.root[i]][NAME].startswith("cli."):
            total[s[NAME]] = total.get(s[NAME], 0.0) + t.self_time[i]
            calls[s[NAME]] += 1
    ranked = sorted(total.items(), key=lambda kv: -kv[1])[:n]
    return [(k, v, calls[k]) for k, v in ranked]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

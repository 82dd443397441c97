"""What the benchmark measures: workloads, metrics and the layer map.

This is the one record of which end-to-end metric each per-layer metric
should move, and on which workload; later performance changes cite it by
metric name. ``python3 bench/catalog.py`` prints the BENCHMARK.json this
catalog implies, so the two cannot drift apart silently.
"""

from __future__ import annotations

import json

WORKLOADS = (
    ("train_self_attn",
     "numerics-bound 100-essay training steps at paper defaults with all five gaze heads; "
     "no article, so article caching must show no change here"),
    ("train_coattn",
     "the same steps with co-attention over a 20x25 source article, which is re-encoded "
     "per essay (3.2x forward, 2.7x backward): where article caching acts"),
    ("cv_run",
     "preprocess, bin-gaze and a 5-fold essays_gaze run through the CLI: corpus, gaze, "
     "experiments and cli layers; 150-650 word essays expose padding waste"),
)
WORKLOAD_NAMES = tuple(name for name, _ in WORKLOADS)
TRAIN = ("train_self_attn", "train_coattn")
CV = ("cv_run",)

# name, unit, better, bound (share of the parent's median). The host the
# benchmark was built on drifts in speed by 10-20% between runs minutes
# apart (interquartile range over 5-10 seeds), so every timing gets the
# largest bound allowed; memory is steady to 0.5%.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("train_step_s", "s", "lower", 0.25),
    ("eval_essays_per_s", "essay/s", "higher", 0.25),
    ("preprocess_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

_TIME = ("s", "lower")
_COUNT = ("count", "lower")


def _per_layer():
    """(layer, [(metric, unit, better)], [(end-to-end metric, workloads)])."""
    from layertrace import OPS, STAGES

    numerics = []
    for op in OPS:
        numerics += [(f"numerics.{op}.fwd_s", *_TIME), (f"numerics.{op}.bwd_s", *_TIME),
                     (f"numerics.{op}.calls", *_COUNT)]
    numerics += [
        ("numerics.backward.engine_s", *_TIME),
        ("numerics.graph_nodes_per_essay", "count", "lower"),
        ("numerics.matmul.flops", "flop", "lower"),
        ("numerics.conv1d.flops", "flop", "lower"),
        ("numerics.gather_rows.bwd_bytes", "B", "lower"),
    ]
    model = []
    for stage in STAGES:
        model += [(f"model.{stage}.fwd_s", *_TIME), (f"model.{stage}.bwd_s", *_TIME)]
    model += [("model.forward.calls", *_COUNT), ("model.article.calls", *_COUNT),
              ("model.lstm.steps", *_COUNT)]
    eval_phase = [(f"eval.model.{stage}.fwd_s", *_TIME) for stage in STAGES]
    eval_phase.append(("eval.model.forward.calls", *_COUNT))
    train_moves = [("train_step_s", TRAIN), ("eval_essays_per_s", TRAIN)]
    return (
        ("numerics", numerics, train_moves),
        ("model", model, train_moves),
        ("training", [
            ("training.loss.fwd_s", *_TIME), ("training.loss.bwd_s", *_TIME),
            ("training.backward_s", *_TIME), ("training.initial_eval_s", *_TIME),
            ("training.dev_eval_s", *_TIME), ("training.steps", "count", "higher"),
        ], [("train_step_s", TRAIN), ("run_s", CV)]),
        ("optim", [
            ("optim.step_s", *_TIME), ("optim.clip_s", *_TIME),
            ("optim.clip.fired", *_COUNT), ("optim.bytes_updated", "B", "lower"),
        ], [("train_step_s", TRAIN)]),
        ("metrics", [("metrics.qwk_s", *_TIME), ("metrics.qwk.calls", *_COUNT)],
         [("run_s", CV)]),
        ("checkpoint", [
            ("checkpoint.save_s", *_TIME), ("checkpoint.load_s", *_TIME),
            ("checkpoint.bytes", "B", "lower"),
        ], []),
        ("corpus", [
            ("corpus.load_essays_s", *_TIME), ("corpus.build_vocab_s", *_TIME),
            ("corpus.build_vocab.calls", *_COUNT),
        ], [("preprocess_s", CV), ("run_s", CV)]),
        ("gaze", [
            ("gaze.load_gaze_records_s", *_TIME), ("gaze.records", "count", "higher"),
            ("gaze.reader_stats_s", *_TIME), ("gaze.bin_all_s", *_TIME),
            ("gaze.bin_all.calls", *_COUNT), ("gaze.placed_share", "share", "higher"),
        ], [("preprocess_s", CV), ("run_s", CV)]),
        ("experiments", [
            ("experiments.prepare_cell_s", *_TIME), ("experiments.examples_for_s", *_TIME),
            ("experiments.run_fold_s", *_TIME), ("experiments.test_eval_s", *_TIME),
            ("experiments.cells", "count", "higher"),
            ("experiments.cells_failed", *_COUNT),
        ], [("run_s", CV)]),
        ("cli", [
            ("cli.digest_inputs_s", *_TIME), ("cli.write_corpus_cache_s", *_TIME),
            ("cli.load_corpus_cache_s", *_TIME), ("cli.write_records_csv_s", *_TIME),
            ("cli.write_report_files_s", *_TIME),
        ], [("preprocess_s", CV), ("run_s", CV)]),
        ("eval", eval_phase, [("eval_essays_per_s", TRAIN)]),
    )


# Finer-grained expectations than the per-layer default above.
NOTES = {
    "numerics.gather_rows.bwd_s": "moves train_step_s only; about a third of backward "
                                  "on train_self_attn",
    "model.article.fwd_s": "train_coattn only; zero on train_self_attn",
    "model.article.bwd_s": "train_coattn only; zero on train_self_attn",
    "model.coattn.fwd_s": "train_coattn only; zero on train_self_attn",
    "model.coattn.bwd_s": "train_coattn only; zero on train_self_attn",
    "model.article.calls": "train_coattn only; zero on train_self_attn",
    "training.initial_eval_s": "moves run_s on cv_run",
    "training.dev_eval_s": "moves run_s on cv_run",
    "checkpoint.save_s": "moves no gated metric; recorded so a format change shows",
}

PER_LAYER = _per_layer()
PER_LAYER_METRICS = tuple(metric for _, metrics, _ in PER_LAYER for metric in metrics)


def benchmark_json():
    return {
        "command": ["python3", "bench/bench.py"],
        "paths": ["bench"],
        "run_seconds": 30,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER_METRICS],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))

"""Layer tracing from outside the program.

``Tracer.install`` replaces functions at each layer boundary with timing
wrappers: module attributes wherever callers look them up (several modules
bind names with ``from ... import``), methods of ``EssayScorer`` and
``RMSProp``, and every numerics op. Each op output's ``_grad_fn`` is
wrapped as well, so backward time is charged to the op and model stage
that created the node. Nothing under ``src/`` is edited; ``uninstall``
puts every original back.

Coarse calls (everything but ops and model methods) become spans
(id, name, start, end, parent id) kept in memory; ops and model methods,
which run hundreds of thousands of times, only feed running totals.
A target a later version of the program renamed or removed is recorded
as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import gc
import importlib
import math
import os
from collections import defaultdict
from time import perf_counter

OPS = ("matmul", "add", "mul", "concat", "conv1d", "sigmoid", "tanh", "softmax",
       "dropout", "mse", "gather_rows", "narrow", "transpose")
# ops wrapped for attribution but not reported as metrics of their own
EXTRA_OPS = ("neg", "masked_softmax", "tensor_sum")
STAGES = ("embed", "conv", "word_attn", "lstm", "sent_attn", "article", "coattn", "heads")

# phases a forward can run in; model.* metrics cover training steps only
TRAIN, INITIAL_EVAL, EVAL, TEST, OTHER = "train", "initial_eval", "eval", "test", "other"

# (span name, [(module, attribute), ...]): every binding found is wrapped,
# and the target is absent only when none is found
COARSE_TARGETS = (
    ("training.train", [("training", "train"), ("experiments", "train")]),
    ("training.evaluate_breakdown", [("training", "evaluate_breakdown")]),
    ("training.dev_qwk", [("training", "dev_qwk")]),
    ("training.loss", [("training", "multitask_loss")]),
    ("training.backward", [("training", "backward"), ("numerics", "backward")]),
    ("training.zero_grads", [("training", "zero_grads"), ("numerics", "zero_grads")]),
    ("training.prepare_example", [("training", "prepare_example"),
                                  ("experiments", "prepare_example")]),
    ("optim.clip", [("training", "clip_global_norm"), ("optim", "clip_global_norm")]),
    ("metrics.qwk", [("training", "qwk"), ("experiments", "qwk"), ("metrics", "qwk")]),
    ("checkpoint.save", [("checkpoint", "save_checkpoint"), ("cli", "save_checkpoint")]),
    ("checkpoint.load", [("checkpoint", "load_checkpoint")]),
    ("corpus.load_essays", [("cli", "load_essays"), ("corpus", "load_essays")]),
    ("corpus.build_vocab", [("experiments", "build_vocab"), ("cli", "build_vocab"),
                            ("corpus", "build_vocab")]),
    ("gaze.load_gaze_records", [("cli", "load_gaze_records"),
                                ("gaze", "load_gaze_records")]),
    ("gaze.reader_stats", [("experiments", "reader_stats"), ("cli", "reader_stats"),
                           ("gaze", "reader_stats")]),
    ("gaze.bin_all", [("experiments", "bin_all"), ("cli", "bin_all"), ("gaze", "bin_all")]),
    ("experiments.prepare_cell", [("experiments", "prepare_cell"), ("cli", "prepare_cell")]),
    ("experiments.examples_for", [("experiments", "_examples_for")]),
    ("experiments.run_fold", [("cli", "run_fold"), ("experiments", "run_fold")]),
    ("cli.main", [("cli", "main")]),
    ("cli.digest_inputs", [("cli", "digest_inputs")]),
    ("cli.write_corpus_cache", [("cli", "write_corpus_cache")]),
    ("cli.load_corpus_cache", [("cli", "load_corpus_cache")]),
    ("cli.write_records_csv", [("cli", "_write_records_csv")]),
    ("cli.write_report_files", [("cli", "_write_report_files")]),
)
METHOD_TARGETS = (
    ("optim.step", "optim", "RMSProp", "step"),
)
MODEL_METHODS = ("forward", "encode_essay", "encode_sentence", "_additive_attention",
                 "_lstm", "coattend")
PHASE_OF = {
    "training.train": TRAIN,
    "training.evaluate_breakdown": INITIAL_EVAL,
    "training.dev_qwk": EVAL,
    "experiments.run_fold": TEST,
}


def _module(name):
    try:
        return importlib.import_module(f"gazescore.{name}")
    except ImportError:
        return None


class Tracer:
    """In-memory spans and totals of one traced run."""

    def __init__(self):
        self.spans = []            # [id, name, start, end, parent id]
        self.stack = []            # open spans: [id, name, start, child_s, outer phase]
        self.totals = defaultdict(lambda: [0.0, 0.0, 0])  # name -> [incl, self, calls]
        self.counts = defaultdict(float)
        self.op_fwd = defaultdict(float)
        self.op_bwd = defaultdict(float)
        self.op_calls = defaultdict(int)
        self.stage_fwd = defaultdict(float)   # (phase, stage) -> seconds
        self.stage_bwd = defaultdict(float)
        self.grad_fn_s = 0.0
        self.phase = OTHER
        self.stage = None          # innermost model stage; None outside the model
        self.model_frames = []     # [stage, start, child_s]
        self.absent = []
        self._restore = []
        self._gc_start = 0.0

    # -- installation -------------------------------------------------------

    def install(self):
        gc.callbacks.append(self._gc_callback)
        for name, bindings in COARSE_TARGETS:
            found = False
            for module_name, attr in bindings:
                module = _module(module_name)
                original = getattr(module, attr, None) if module is not None else None
                if original is None:
                    continue
                found = True
                self._patch(module, attr, self._coarse(name, original))
            if not found:
                self.absent.append(name)
        for name, module_name, cls_name, attr in METHOD_TARGETS:
            cls = getattr(_module(module_name), cls_name, None)
            original = getattr(cls, attr, None) if cls is not None else None
            if original is None:
                self.absent.append(name)
                continue
            self._patch(cls, attr, self._coarse(name, original))
        numerics = _module("numerics")
        for op in OPS + EXTRA_OPS:
            original = getattr(numerics, op, None) if numerics is not None else None
            if original is None:
                if op in OPS:
                    self.absent.append(f"numerics.{op}")
                continue
            self._patch(numerics, op, self._op(op, original))
        scorer = getattr(_module("model"), "EssayScorer", None)
        for method in MODEL_METHODS:
            original = getattr(scorer, method, None) if scorer is not None else None
            if original is None:
                self.absent.append(f"model.EssayScorer.{method}")
                continue
            self._patch(scorer, method, self._model_method(method, original))

    def uninstall(self):
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # -- coarse spans -------------------------------------------------------

    def _begin(self, name):
        span_id = len(self.spans)
        parent = self.stack[-1][0] if self.stack else None
        frame = [span_id, name, perf_counter(), 0.0, self.phase]
        self.phase = PHASE_OF.get(name, self.phase)
        self.stack.append(frame)
        self.spans.append([span_id, name, frame[2], None, parent])
        return frame

    def _end(self, frame):
        end = perf_counter()
        self.stack.pop()
        self.phase = frame[4]
        elapsed = end - frame[2]
        self.spans[frame[0]][3] = end
        totals = self.totals[frame[1]]
        totals[0] += elapsed
        totals[1] += elapsed - frame[3]
        totals[2] += 1
        if self.stack:
            self.stack[-1][3] += elapsed

    def _coarse(self, name, fn):
        tracer = self
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._begin(name)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                tracer._end(frame)
                if observe is not None:
                    observe(tracer, args, kwargs, result if ok else None, ok)

        return wrapper

    def _gc_callback(self, phase, info):
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            generation = info["generation"]
            self.counts[f"gc.gen{generation}_s"] += perf_counter() - self._gc_start
            self.counts[f"gc.gen{generation}.collections"] += 1

    # -- model stages -------------------------------------------------------

    def _enter_stage(self, method, args):
        current = self.stage
        if current == "article":
            return "article"
        if method == "forward":
            return "heads"
        if method == "encode_essay":
            model, sentence_ids = args[0], args[1]
            article = getattr(model, "article_sentence_ids", None)
            return "article" if article is not None and sentence_ids is article else "lstm"
        if method == "encode_sentence":
            return "conv"
        if method == "_lstm":
            return "lstm"
        if method == "coattend":
            return "coattn"
        # additive attention pools words, sentences or co-attention mixtures
        return {"conv": "word_attn", "lstm": "sent_attn"}.get(current, "coattn")

    def _model_method(self, method, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stage = tracer._enter_stage(method, args)
            phase = tracer.phase
            if phase == TRAIN:
                if method == "forward":
                    tracer.counts["model.forward.calls"] += 1
                elif method == "encode_essay" and stage == "article" and tracer.stage != "article":
                    tracer.counts["model.article.calls"] += 1
                elif method == "_lstm":
                    tracer.counts["model.lstm.steps"] += len(args[1].data)
            elif phase == EVAL and method == "forward":
                tracer.counts["eval.model.forward.calls"] += 1
            outer = tracer.stage
            tracer.stage = stage
            frame = [stage, perf_counter(), 0.0]
            tracer.model_frames.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - frame[1]
                tracer.model_frames.pop()
                tracer.stage = outer
                tracer.stage_fwd[(phase, stage)] += elapsed - frame[2]
                if tracer.model_frames:
                    tracer.model_frames[-1][2] += elapsed

        return wrapper

    # -- numerics ops -------------------------------------------------------

    def _op(self, op, fn):
        tracer = self
        flops_of = _FLOPS.get(op)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            out = fn(*args, **kwargs)
            elapsed = perf_counter() - start
            tracer.op_fwd[op] += elapsed
            tracer.op_calls[op] += 1
            stage = tracer.stage
            if stage == "conv" and op in ("gather_rows", "dropout"):
                stage = "embed"
                tracer.stage_fwd[(tracer.phase, "embed")] += elapsed
                tracer.model_frames[-1][2] += elapsed
            elif stage is None:
                stage = "loss" if tracer.stack and tracer.stack[-1][1] == "training.loss" \
                    else "other"
            grad_fn = getattr(out, "_grad_fn", None)
            if grad_fn is None or (args and out is args[0]):  # dropout(p=0) returns x
                return out
            parents = out._parents
            if flops_of is not None:
                flops = flops_of(out, parents)
                tracer.counts[f"numerics.{op}.flops"] += flops
            if tracer.phase == TRAIN and tracer.model_frames:
                tracer.counts["graph_nodes"] += 1
            key = (tracer.phase, stage)

            def timed_grad_fn(g):
                t0 = perf_counter()
                grad_fn(g)
                dt = perf_counter() - t0
                tracer.grad_fn_s += dt
                tracer.op_bwd[op] += dt
                tracer.stage_bwd[key] += dt
                if flops_of is not None:
                    tracer.counts[f"numerics.{op}.flops"] += flops * sum(
                        1 for p in parents if p.requires_grad)
                if op == "gather_rows":
                    tracer.counts["numerics.gather_rows.bwd_bytes"] += parents[0].data.nbytes

            out._grad_fn = timed_grad_fn
            return out

        return wrapper


def _matmul_flops(out, parents):
    n, m = out.data.shape
    return 2 * n * m * parents[0].data.shape[1]


def _conv1d_flops(out, parents):
    t, cout = out.data.shape
    k, cin, _ = parents[1].data.shape
    return 2 * t * k * cin * cout


_FLOPS = {"matmul": _matmul_flops, "conv1d": _conv1d_flops}


# -- per-target observers: counters read off arguments and results ----------

def _observe_clip(tracer, args, kwargs, result, ok):
    max_norm = args[1] if len(args) > 1 else kwargs.get("max_norm")
    if ok and max_norm is not None and result > max_norm:
        tracer.counts["optim.clip.fired"] += 1


def _observe_step(tracer, args, kwargs, result, ok):
    # the optimizer step rewrites each parameter that has a gradient
    optimizer = args[0]
    tracer.counts["optim.bytes_updated"] += sum(
        p.data.nbytes for p in getattr(optimizer, "parameters", ()) if p.grad is not None)


def _observe_save(tracer, args, kwargs, result, ok):
    path = args[0] if args else kwargs.get("path")
    if ok and path is not None and os.path.exists(path):
        tracer.counts["checkpoint.bytes"] += os.path.getsize(path)


def _observe_records(tracer, args, kwargs, result, ok):
    if ok:
        tracer.counts["gaze.records"] += len(result[0])


def _observe_bin_all(tracer, args, kwargs, result, ok):
    records = args[0] if args else kwargs.get("records", ())
    tracer.counts["gaze.bin_all.attempted"] += len(records)
    if ok:
        tracer.counts["gaze.bin_all.placed"] += sum(
            1 for sequence in result[0].values() for binned in sequence if binned is not None)


def _observe_backward(tracer, args, kwargs, result, ok):
    if tracer.phase == TRAIN:
        tracer.counts["training.steps"] += 1


def _observe_run_fold(tracer, args, kwargs, result, ok):
    tracer.counts["experiments.cells"] += 1
    if not ok:
        tracer.counts["experiments.cells_failed"] += 1


_OBSERVERS = {
    "optim.clip": _observe_clip,
    "optim.step": _observe_step,
    "checkpoint.save": _observe_save,
    "gaze.load_gaze_records": _observe_records,
    "gaze.bin_all": _observe_bin_all,
    "training.backward": _observe_backward,
    "experiments.run_fold": _observe_run_fold,
}


# -- turning a trace into the per-layer metrics ------------------------------

def _incl(tracer, name, parent=None):
    """Summed duration of spans called ``name`` (optionally under ``parent``)."""
    names = {span[0]: span[1] for span in tracer.spans}
    return sum(span[3] - span[2] for span in tracer.spans
               if span[1] == name and span[3] is not None
               and (parent is None or names.get(span[4]) == parent))


def layer_metrics(tracer):
    """Every per-layer metric, by name, from one traced run."""
    m = {}
    c = tracer.counts
    for op in OPS:
        m[f"numerics.{op}.fwd_s"] = tracer.op_fwd[op]
        m[f"numerics.{op}.bwd_s"] = tracer.op_bwd[op]
        m[f"numerics.{op}.calls"] = tracer.op_calls[op]
    backward_s = tracer.totals["training.backward"][0]
    m["numerics.backward.engine_s"] = max(backward_s - tracer.grad_fn_s, 0.0)
    forwards = c["model.forward.calls"]
    m["numerics.graph_nodes_per_essay"] = c["graph_nodes"] / forwards if forwards else 0.0
    m["numerics.matmul.flops"] = c["numerics.matmul.flops"]
    m["numerics.conv1d.flops"] = c["numerics.conv1d.flops"]
    m["numerics.gather_rows.bwd_bytes"] = c["numerics.gather_rows.bwd_bytes"]

    for stage in STAGES:
        m[f"model.{stage}.fwd_s"] = tracer.stage_fwd[(TRAIN, stage)]
        m[f"model.{stage}.bwd_s"] = tracer.stage_bwd[(TRAIN, stage)]
    m["model.forward.calls"] = forwards
    m["model.article.calls"] = c["model.article.calls"]
    m["model.lstm.steps"] = c["model.lstm.steps"]

    m["training.loss.fwd_s"] = _incl(tracer, "training.loss", "training.train")
    m["training.loss.bwd_s"] = tracer.stage_bwd[(TRAIN, "loss")]
    m["training.backward_s"] = backward_s
    m["training.initial_eval_s"] = _incl(tracer, "training.evaluate_breakdown", "training.train")
    m["training.dev_eval_s"] = _incl(tracer, "training.dev_qwk", "training.train")
    m["training.steps"] = c["training.steps"]

    m["optim.step_s"] = tracer.totals["optim.step"][0]
    m["optim.clip_s"] = tracer.totals["optim.clip"][0]
    m["optim.clip.fired"] = c["optim.clip.fired"]
    m["optim.bytes_updated"] = c["optim.bytes_updated"]

    m["metrics.qwk_s"] = tracer.totals["metrics.qwk"][0]
    m["metrics.qwk.calls"] = tracer.totals["metrics.qwk"][2]

    m["checkpoint.save_s"] = tracer.totals["checkpoint.save"][0]
    m["checkpoint.load_s"] = tracer.totals["checkpoint.load"][0]
    m["checkpoint.bytes"] = c["checkpoint.bytes"]

    m["corpus.load_essays_s"] = tracer.totals["corpus.load_essays"][0]
    m["corpus.build_vocab_s"] = tracer.totals["corpus.build_vocab"][0]
    m["corpus.build_vocab.calls"] = tracer.totals["corpus.build_vocab"][2]

    m["gaze.load_gaze_records_s"] = tracer.totals["gaze.load_gaze_records"][0]
    m["gaze.records"] = c["gaze.records"]
    m["gaze.reader_stats_s"] = tracer.totals["gaze.reader_stats"][0]
    m["gaze.bin_all_s"] = tracer.totals["gaze.bin_all"][0]
    m["gaze.bin_all.calls"] = tracer.totals["gaze.bin_all"][2]
    attempted = c["gaze.bin_all.attempted"]
    m["gaze.placed_share"] = c["gaze.bin_all.placed"] / attempted if attempted else 0.0

    run_fold_s = tracer.totals["experiments.run_fold"][0]
    m["experiments.prepare_cell_s"] = tracer.totals["experiments.prepare_cell"][0]
    m["experiments.examples_for_s"] = tracer.totals["experiments.examples_for"][0]
    m["experiments.run_fold_s"] = run_fold_s
    # what run_fold spends outside cell preparation and training: loading
    # the best state, scoring the test partition and its QWK
    m["experiments.test_eval_s"] = max(
        run_fold_s - _incl(tracer, "experiments.prepare_cell", "experiments.run_fold")
        - _incl(tracer, "training.train", "experiments.run_fold"), 0.0) if run_fold_s else 0.0
    m["experiments.cells"] = c["experiments.cells"]
    m["experiments.cells_failed"] = c["experiments.cells_failed"]

    m["cli.digest_inputs_s"] = tracer.totals["cli.digest_inputs"][0]
    m["cli.write_corpus_cache_s"] = tracer.totals["cli.write_corpus_cache"][0]
    m["cli.load_corpus_cache_s"] = tracer.totals["cli.load_corpus_cache"][0]
    m["cli.write_records_csv_s"] = tracer.totals["cli.write_records_csv"][0]
    m["cli.write_report_files_s"] = tracer.totals["cli.write_report_files"][0]

    for stage in STAGES:
        m[f"eval.model.{stage}.fwd_s"] = tracer.stage_fwd[(EVAL, stage)]
    m["eval.model.forward.calls"] = c["eval.model.forward.calls"]
    return {name: float(value) for name, value in m.items()}


# metrics that need a trace target their name does not start with
_NEEDS = {
    "numerics.backward.engine_s": "training.backward",
    "training.steps": "training.backward",
    "training.initial_eval_s": "training.evaluate_breakdown",
    "training.dev_eval_s": "training.dev_qwk",
    "optim.bytes_updated": "optim.step",
    "checkpoint.bytes": "checkpoint.save",
    "gaze.records": "gaze.load_gaze_records",
    "gaze.placed_share": "gaze.bin_all",
    "experiments.test_eval_s": "experiments.run_fold",
    "experiments.cells": "experiments.run_fold",
    "experiments.cells_failed": "experiments.run_fold",
}


def absent_metrics(tracer, names):
    """Metric names left unmeasured because a trace target is absent."""
    absent = tuple(tracer.absent)
    stages_lost = any(a.startswith("model.EssayScorer.") for a in absent)
    return [name for name in names
            if name.startswith(absent) or _NEEDS.get(name) in absent
            or (stages_lost and name.startswith(("model.", "eval.model.",
                                                  "numerics.graph_nodes")))]


def span_tree(tracer):
    """Spans as dicts, with self time (duration minus child spans)."""
    child = defaultdict(float)
    for span_id, name, start, end, parent in tracer.spans:
        if parent is not None and end is not None:
            child[parent] += end - start
    return [
        {"id": span_id, "name": name, "start": start, "end": end, "parent": parent,
         "self_s": (end - start - child[span_id]) if end is not None else math.nan}
        for span_id, name, start, end, parent in tracer.spans
    ]

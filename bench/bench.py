"""gazescore benchmark: one workload, one seed, one run.

    python3 bench/bench.py --workload train_self_attn --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports
the end-to-end metrics of an untraced run; ``--trace 1`` wraps every layer
(see layertrace.py) and reports the per-layer metrics, the tracing overhead
against the last untraced run of the same workload in this checkout, and,
for the train_* workloads, the forward and backward cross-check against the
ROADMAP Baseline. Results, spans and failures are also written to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# ROADMAP Baseline, ms per 100 essays: (forward + loss, backward)
BASELINE_MS = {"train_self_attn": (767.0, 1527.0), "train_coattn": (2494.0, 4140.0)}


def blas_record():
    """BLAS library name and version as numpy was built, and its thread count."""
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    record = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libraries = {line.split()[-1] for line in fh if "blas" in line.lower()}
    except OSError:
        libraries = set()
    for path in sorted(libraries):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                record["threads"] = getter()
                record["library"] = os.path.basename(path)
                return record
    return record


def machine_record():
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_record(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def _result_path(workload, seed, trace):
    return OUT / f"{workload}-seed{seed}-trace{trace}.json"


def _latest_untraced(workload, seed):
    same_seed = _result_path(workload, seed, 0)
    if same_seed.is_file():
        return same_seed
    candidates = sorted(OUT.glob(f"{workload}-seed*-trace0.json"), key=os.path.getmtime)
    return candidates[-1] if candidates else None


def overhead_lines(workload, seed, traced):
    """Traced minus untraced end-to-end figures, against this checkout's last untraced run."""
    path = _latest_untraced(workload, seed)
    if path is None:
        return ["trace overhead: no untraced run of this workload in .bench_out/ to compare"]
    untraced = json.loads(path.read_text())["end_to_end"]
    # per-unit figures only: a traced run does less work, except cv_run's one `run`
    comparable = {"train_step_s", "eval_essays_per_s", "preprocess_s"}
    if workload == "cv_run":
        comparable.add("run_s")
    lines = [f"trace overhead (traced - untraced {path.name}):"]
    for name, value in traced.items():
        base = untraced.get(name)
        if name not in comparable or base in (None, 0) or math.isnan(value):
            continue
        lines.append(f"  {name}: {value:.4g} traced, {base:.4g} untraced, "
                     f"{value - base:+.4g} ({(value - base) / base:+.1%})")
    return lines


def baseline_lines(workload, per_layer):
    """Traced forward+loss and backward per 100 essays beside the ROADMAP Baseline."""
    if workload not in BASELINE_MS or not per_layer["training.steps"]:
        return []
    from layertrace import STAGES

    steps = per_layer["training.steps"]
    forward = sum(per_layer[f"model.{stage}.fwd_s"] for stage in STAGES)
    forward_ms = 1000.0 * (forward + per_layer["training.loss.fwd_s"]) / steps
    backward_ms = 1000.0 * per_layer["training.backward_s"] / steps
    base_fwd, base_bwd = BASELINE_MS[workload]
    return [
        "baseline cross-check, ms per 100 essays (traced here; Baseline: 2 cores, "
        "Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31, min of 3):",
        f"  forward + loss: {forward_ms:.0f} here, {base_fwd:.0f} Baseline",
        f"  backward:       {backward_ms:.0f} here, {base_bwd:.0f} Baseline",
    ]


def main(argv=None):
    import catalog

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=catalog.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (SRC / "gazescore" / "__init__.py").is_file():
        print(f"error: no gazescore sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gazescore

    if Path(gazescore.__file__).resolve().parent != SRC / "gazescore":
        print(f"error: imported gazescore from {gazescore.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import layertrace
    import workloads

    OUT.mkdir(exist_ok=True)
    machine = machine_record()
    tracer = None
    # a traced run does half the work, so it lasts about as long as an untraced one
    seconds = args.seconds / 2 if args.trace else args.seconds
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.trace:
            tracer = layertrace.Tracer()
            tracer.install()
        try:
            end_to_end, samples, ledger = workloads.WORKLOADS[args.workload](
                args.workload, args.seed, seconds, work_dir, SRC)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    unmeasured = [name for name, value in end_to_end.items() if math.isnan(value)]
    for name in unmeasured:
        ledger.record(name, "not measured: every operation behind it failed")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine, "end_to_end": end_to_end,
              "samples": samples,
              "attempted": ledger.attempted, "failed": ledger.failed,
              "failures": ledger.reasons}
    lines = [f"machine: {json.dumps(machine, sort_keys=True)}"]
    lines += [f"{name} = {value:.6g}" for name, value in end_to_end.items()]
    lines.append(f"ops_failed_share = {ledger.failed / max(ledger.attempted, 1):.6g} "
                 f"({ledger.failed} of {ledger.attempted})")
    lines += [f"failed: {reason}" for reason in ledger.reasons]

    if args.trace:
        per_layer = layertrace.layer_metrics(tracer)
        names = [name for name, _, _ in catalog.PER_LAYER_METRICS]
        absent = layertrace.absent_metrics(tracer, names)
        record.update(per_layer=per_layer, absent_targets=tracer.absent,
                      absent_metrics=absent,
                      span_totals={name: {"incl_s": incl, "self_s": own, "calls": calls}
                                   for name, (incl, own, calls) in tracer.totals.items()})
        spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.json"
        spans_path.write_text(json.dumps(layertrace.span_tree(tracer)))
        lines += [f"absent trace target: {name}" for name in tracer.absent]
        lines += [f"absent metric (reported as 0): {name}" for name in absent]
        gc_s = {name: value for name, value in tracer.counts.items() if name.startswith("gc.")}
        record["gc"] = gc_s
        lines.append("garbage collection (charged to whichever op allocated): " + ", ".join(
            f"{name[3:]} {value:.4g}" for name, value in sorted(gc_s.items())))
        lines += overhead_lines(args.workload, args.seed, end_to_end)
        lines += baseline_lines(args.workload, per_layer)
        lines.append(f"spans: {spans_path.relative_to(ROOT)} ({len(tracer.spans)} spans)")
        units = {name: unit for name, unit, _ in catalog.PER_LAYER_METRICS}
        metrics = {name: {"value": per_layer[name], "unit": units[name]} for name in names}
    else:
        units = {name: unit for name, unit, _, _ in catalog.END_TO_END}
        metrics = {name: {"value": end_to_end[name] if not math.isnan(end_to_end[name])
                          else 0.0, "unit": units[name]} for name in units}
    _result_path(args.workload, args.seed, args.trace).write_text(
        json.dumps(record, indent=1, sort_keys=True))

    print("\n".join(lines))
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

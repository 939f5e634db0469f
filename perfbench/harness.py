"""Runs one workload for ``run.py`` and reports its metrics.

The timed run (``--trace 0``) sets up the workload several times, then gives
each phase its share of ``--seconds`` and reports the end-to-end metrics.
The traced run (``--trace 1``) does the workload's fixed traced work
twice untraced and twice traced, and reports the per-layer metrics and the
tracing overhead. Both first run the reference check in ``workloads.py``.
"""

import argparse
import contextlib
import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np
import workloads as wl
from tracer import Tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_REPS = 5


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if unknown."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def input_sizes(s) -> dict:
    """Items, batch, sequence lengths and canvas of each input set."""
    sizes = {}
    for split, sketches in s.prepared.items():
        t = [sk.n for sk in sketches]
        sizes[split] = {"items": len(t), "batch": s.config.batch_size, "t_max": max(t),
                        "t_mean": sum(t) / len(t), "canvas": s.config.raster.width}
    raw = [sk.n for sk in s.inputs.raw]
    vector = s.workload.vector
    sizes["raster"] = {"items": len(raw), "raw_max": max(raw), "raw_mean": sum(raw) / len(raw),
                       "points_cap": vector.simplify.max_points, "canvas": vector.raster.width}
    return sizes


def _ms(samples, q):
    """Percentile q of samples in seconds, as milliseconds; 0 when empty."""
    return 1000.0 * float(np.percentile(samples, q)) if samples else 0.0


def _rate(res):
    return res.sketches / res.busy_s if res.busy_s > 0 else 0.0


def end_to_end(setup_times, phases) -> dict:
    tr, ev, pr, ra = (phases[p] for p in ("train", "eval", "predict", "raster"))
    return {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "train_sketches_per_s": (_rate(tr), "1/s", tr.sketches),
        "train_step_ms_p50": (_ms(tr.samples, 50), "ms", len(tr.samples)),
        "train_step_ms_p90": (_ms(tr.samples, 90), "ms", len(tr.samples)),
        "eval_sketches_per_s": (_rate(ev), "1/s", ev.sketches),
        "eval_batch_ms_p50": (_ms(ev.samples, 50), "ms", len(ev.samples)),
        "predict_ms_p50": (_ms(pr.samples, 50), "ms", len(pr.samples)),
        "predict_ms_p90": (_ms(pr.samples, 90), "ms", len(pr.samples)),
        "raster_sketches_per_s": (_rate(ra), "1/s", ra.sketches),
        "raster_ms_p50": (_ms(ra.samples, 50), "ms", len(ra.samples)),
        "raster_ms_p90": (_ms(ra.samples, 90), "ms", len(ra.samples)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }


def timed_run(w, seed, seconds, probes):
    setup_times = []
    for _ in range(SETUP_REPS):
        gc.collect()
        s = wl.set_up(w, seed)
        setup_times.append(s.seconds)
    gc.collect()
    phases = wl.run_for(s, probes, OUT_DIR, seconds)
    return s, phases, end_to_end(setup_times, phases), {}


def _merged(passes) -> dict:
    """The phase results of several passes, added together."""
    out = {}
    for name in wl.PHASES:
        m = out[name] = wl.PhaseResult()
        for phases in passes:
            p = phases[name]
            m.samples += p.samples
            m.sketches += p.sketches
            m.busy_s += p.busy_s
            m.attempted += p.attempted
            m.failed += p.failed
            m.errors += p.errors
    return out


def traced_run(w, seed, probes, trace_path):
    def one_pass(tracer):
        in_phase = tracer.in_phase if tracer else (lambda name: contextlib.nullcontext())
        t0 = time.perf_counter()
        with in_phase("setup"):
            s = wl.set_up(w, seed)
        phases = wl.run_counted(s, probes, OUT_DIR, w.traced_ops, in_phase)
        return s, phases, time.perf_counter() - t0

    # untraced, traced, traced, untraced: the order keeps a steady drift of
    # the machine's speed out of the overhead figure. The per-layer metrics
    # and the spans come from the first traced pass.
    tracers = []
    walls = {False: 0.0, True: 0.0}
    passes = {False: [], True: []}
    for with_trace in (False, True, True, False):
        if with_trace:
            tracers.append(Tracer())
            with tracers[-1]:
                s, phases, wall = one_pass(tracers[-1])
        else:
            s, phases, wall = one_pass(None)
        walls[with_trace] += wall
        passes[with_trace].append(phases)
    tracer = tracers[0]
    plain, traced = _merged(passes[False]), _merged(passes[True])
    metrics = {name: (value, unit, 1) for name, (value, unit) in tracer.per_layer().items()}
    metrics["trace.overhead_pct"] = (100.0 * (walls[True] / walls[False] - 1.0), "%", 2)
    extra = {
        "untraced_s": walls[False],
        "traced_s": walls[True],
        "phase_overhead": {
            name: {
                "untraced_sketches_per_s": _rate(plain[name]),
                "traced_sketches_per_s": _rate(traced[name]),
                "untraced_ms_p50": _ms(plain[name].samples, 50),
                "traced_ms_p50": _ms(traced[name].samples, 50),
            }
            for name in wl.PHASES
        },
        "phase_shares": tracer.phase_shares(),
        "trace_file": os.path.relpath(trace_path, ROOT),
    }
    tracer.write(trace_path, {"workload": w.name, "seed": seed})
    return s, _merged([plain, traced]), metrics, extra


def main(argv) -> int:
    ap = argparse.ArgumentParser(description="sketchattn benchmark: one workload, one seed")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    w = wl.WORKLOADS[args.workload]
    with open(os.path.join(BENCH_DIR, "reference.json")) as f:
        reference = json.load(f)
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{w.name}-seed{args.seed}-trace{args.trace}")

    with wl.Probes() as probes:
        ref = wl.reference_check(w, reference, probes, OUT_DIR)
        if args.trace:
            s, phases, metrics, extra = traced_run(w, args.seed, probes, stem + "-spans.json")
        else:
            s, phases, metrics, extra = timed_run(w, args.seed, args.seconds, probes)

    attempted = ref.attempted + sum(p.attempted for p in phases.values())
    failed = ref.failed + sum(p.failed for p in phases.values())
    errors = ref.errors + [e for p in phases.values() for e in p.errors]
    record = {
        "workload": w.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "inputs": input_sizes(s),
        "metrics": {name: {"value": v, "unit": u, "samples": n} for name, (v, u, n) in metrics.items()},
        "attempted": attempted,
        "failed": failed,
        "failed_op_share": failed / attempted,
        "reference_final_train_loss": ref.final_losses[:1],
        "errors": errors,
        **extra,
    }
    with open(stem + ".json", "w") as f:
        json.dump(record, f, indent=1)

    print(f"perfbench workload={w.name} seed={args.seed} trace={args.trace}")
    print("environment " + json.dumps(record["environment"]))
    print("inputs " + json.dumps(record["inputs"]))
    for name, (v, u, n) in metrics.items():
        print(f"  {name:24s} {v:14.6g} {u:6s} n={n}")
    if "phase_shares" in extra:
        for phase, info in extra["phase_shares"].items():
            shares = ", ".join(f"{k} {v:.1%}" for k, v in info["shares"].items() if v >= 0.005)
            print(f"  share {phase:8s} {info['seconds']:8.3f} s: {shares}")
    print(f"  failed_op_share {record['failed_op_share']:.6g} ({failed} of {attempted})")
    for e in errors:
        print("error: " + e.strip().replace("\n", " | "), file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u, n) in metrics.items()},
    }))
    return 0

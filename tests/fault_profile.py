"""Attribute minor page faults to each autodiff op of one ``pipeline.train`` call.

    python tests/fault_profile.py --src src --workload desk [--seed 1] [--warmup 1] [--json]

Sets up a benchmark workload (``perfbench/workloads.py``) with one BLAS
thread, runs ``--warmup`` untimed ``train`` calls as the benchmark's train
phase does (one epoch, checkpoints in a temporary directory), then profiles
one more. Every op that ``sketchattn.net.model`` and ``sketchattn.pipeline``
reach through the ``autodiff`` module (and the pipeline's rasterization
bridge and cross entropy) is wrapped so that ``getrusage`` is read around
its forward call, and ``Tape.record`` is wrapped so that the same is done
around the backward closure that op records. Each count is exclusive: an op
called inside another (``dropout`` calls ``mul_const``) is not counted
twice. ``other`` is whatever the call faulted outside every op, so
``total`` is at least the sum of the op counts. System CPU time is
attributed the same way. ``Workspace.take`` is wrapped too, to report the
training workspace's footprint: the bytes of its segments and the peak of
the bytes its live arrays occupy (segment bytes less free ranges, read
after each take), each the largest over the workspaces the call made.

Point ``--src`` at another tree's ``src`` to profile it; the workloads are
read from this tree's ``perfbench``. Not a test module: pytest does not
collect it.
"""

import argparse
import functools
import json
import os
import resource
import sys
import tempfile
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the autodiff ops the model and the pipeline call through the module
AUTODIFF_OPS = (
    "lstm", "dropout", "linear", "sigmoid", "reshape", "mul_const", "conv2d_support",
    "conv2d", "maxpool_relu", "global_avg_pool", "cross_entropy_logits",
)
# ops the pipeline calls by its own names: (attribute, op name)
PIPELINE_OPS = (("_rasterize_batch", "rasterize_batch"), ("cross_entropy_logits", "cross_entropy_logits"))


def _usage():
    u = resource.getrusage(resource.RUSAGE_SELF)
    return u.ru_minflt, u.ru_stime


class FaultProfile:
    """Wraps the ops on enter and restores them on exit; ``counts[name]``
    holds [forward faults, backward faults, forward system s, backward
    system s] for each op name, and ``workspace`` the largest segment bytes
    and peak live bytes over the workspaces."""

    def __init__(self):
        self.counts = defaultdict(lambda: [0, 0, 0.0, 0.0])
        self.workspace = {"segment_bytes": 0, "peak_live_bytes": 0}
        self._stack = []  # [op name, faults of nested ops, system s of nested ops]
        self._restore = []

    def __enter__(self) -> "FaultProfile":
        from sketchattn import pipeline
        from sketchattn.net import autodiff

        targets = [(autodiff, name, name) for name in AUTODIFF_OPS]
        targets += [(pipeline, attr, name) for attr, name in PIPELINE_OPS]
        for module, attr, name in targets:
            original = getattr(module, attr)
            self._restore.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, 0))
        record = autodiff.Tape.record
        self._restore.append((autodiff.Tape, "record", record))
        profile = self

        def counted_record(tape, backward_fn):
            name = profile._stack[-1][0] if profile._stack else "other"
            record(tape, profile._wrap(backward_fn, name, 1))

        autodiff.Tape.record = counted_record
        take = autodiff.Workspace.take
        self._restore.append((autodiff.Workspace, "take", take))

        def measured_take(ws, *args, **kwargs):
            a = take(ws, *args, **kwargs)
            segments = sum(seg.nbytes for seg in ws._segments)
            live = segments - sum(hi - lo for _k, lo, hi in ws._free)
            footprint = profile.workspace
            footprint["segment_bytes"] = max(footprint["segment_bytes"], segments)
            footprint["peak_live_bytes"] = max(footprint["peak_live_bytes"], live)
            return a

        autodiff.Workspace.take = measured_take
        return self

    def __exit__(self, *exc) -> None:
        for obj, attr, original in reversed(self._restore):
            setattr(obj, attr, original)
        self._restore.clear()

    def _wrap(self, fn, name: str, phase: int):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0, 0.0]
            self._stack.append(frame)
            faults, stime = _usage()
            try:
                return fn(*args, **kwargs)
            finally:
                faults_after, stime_after = _usage()
                self._stack.pop()
                df, ds = faults_after - faults, stime_after - stime
                self.counts[name][phase] += df - frame[1]
                self.counts[name][phase + 2] += ds - frame[2]
                if self._stack:
                    self._stack[-1][1] += df
                    self._stack[-1][2] += ds

        return wrapper

    def report(self, total_faults: int, total_stime: float) -> dict:
        ops = {
            name: {"forward_faults": c[0], "backward_faults": c[1],
                   "forward_system_s": round(c[2], 6), "backward_system_s": round(c[3], 6)}
            for name, c in sorted(self.counts.items(), key=lambda kv: -(kv[1][0] + kv[1][1]))
        }
        in_ops = sum(c[0] + c[1] for c in self.counts.values())
        return {"total_faults": total_faults, "total_system_s": round(total_stime, 6),
                "other_faults": total_faults - in_ops, "ops": ops, "workspace": dict(self.workspace)}


def profile_train(train_call) -> dict:
    """Run train_call() under a FaultProfile and report its counts."""
    with FaultProfile() as prof:
        faults, stime = _usage()
        train_call()
        faults_after, stime_after = _usage()
    return prof.report(faults_after - faults, stime_after - stime)


def table(report: dict) -> str:
    lines = ["| op | forward faults | backward faults |", "| --- | ---: | ---: |"]
    for name, c in report["ops"].items():
        lines.append(f"| `{name}` | {c['forward_faults']:,} | {c['backward_faults']:,} |")
    lines.append(f"| outside ops | {report['other_faults']:,} | |")
    lines.append(f"| **total** | {report['total_faults']:,} | system {report['total_system_s']:.3f} s |")
    ws = report["workspace"]
    lines.append(f"\nworkspace: {ws['segment_bytes']:,} B of segments, {ws['peak_live_bytes']:,} B live at peak")
    return "\n".join(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--src", default=os.path.join(ROOT, "src"), help="directory that holds the sketchattn package")
    p.add_argument("--workload", default="desk")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--warmup", type=int, default=1, help="untimed train calls before the profiled one")
    p.add_argument("--json", action="store_true", help="print JSON instead of a markdown table")
    args = p.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads, as in the benchmark
    sys.path[:0] = [os.path.abspath(args.src), os.path.join(ROOT, "perfbench")]

    import workloads as wl
    from sketchattn import pipeline

    s = wl.set_up(wl.WORKLOADS[args.workload], args.seed)

    def train_call():
        with tempfile.TemporaryDirectory() as tmp:
            pipeline.train(s.config, s.inputs.train, s.inputs.valid, out_dir=tmp)

    for _ in range(args.warmup):
        train_call()
    report = profile_train(train_call)
    report.update(workload=args.workload, seed=args.seed, warmup=args.warmup)
    print(json.dumps(report, indent=2) if args.json else table(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Wall time and peak RSS of one paper-profile training call.

    python tests/paper_rss.py --src src --batch 48

Runs one ``pipeline.train`` call, one epoch of one batch, on ``--batch``
seeded synthetic shapes at ``paper_scale_config`` (224x224 canvas, hidden
512) with that batch size and one BLAS thread, and prints one JSON line:
the batch, the call's wall time in seconds and the process's peak
resident set size (``ru_maxrss``) in MB. Run it on two source trees, in
separate processes, to compare their paper-profile footprint.

Not a test module: pytest does not collect it.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads, as in the benchmark

import argparse
import json
import resource
import sys
import time


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--src", required=True, help="directory that holds the sketchattn package")
    p.add_argument("--batch", type=int, required=True, help="sketches, all in one batch")
    args = p.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))

    from sketchattn.ingest import SYNTH_CATEGORIES, Dataset, synth_dataset
    from sketchattn.pipeline import paper_scale_config, train

    shapes = synth_dataset(-(-args.batch // len(SYNTH_CATEGORIES)), 0)
    ds = Dataset(shapes.categories, shapes.items[: args.batch])
    cfg = paper_scale_config(len(ds.categories), epochs=1, batch_size=args.batch)
    start = time.perf_counter()
    train(cfg, ds)
    wall = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(json.dumps({"batch": args.batch, "wall_s": round(wall, 3), "peak_rss_mb": round(peak_mb, 1)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 50 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``
and needs no install step. With ``--trace 0`` it measures the end-to-end
metrics for ``--seconds`` seconds. With ``--trace 1`` it runs a fixed amount
of the workload's work twice untraced and twice traced, and reports the
per-layer metrics and the tracing overhead; ``--seconds`` does not apply.
Detail lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The full record of the run goes to ``perfbench/out/``, and the
traced run writes its spans there as well.
"""

import os
import sys

# Fixed before numpy loads: one BLAS thread keeps the figures steady on a
# shared two-core machine, and at these sizes the layers spend their time
# in per-call overhead rather than in large matrix products.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "sketchattn", "__init__.py")):
        print(f"perfbench: no package sources at {SRC}; run it from a checkout of the repository", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import sketchattn

    if not os.path.abspath(sketchattn.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported sketchattn from {sketchattn.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    import harness

    sys.exit(harness.main(sys.argv[1:]))

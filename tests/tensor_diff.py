"""Print how far the tensors of two checkpoints lie apart.

    python tests/tensor_diff.py A.ckpt.json B.ckpt.json

For every parameter and both Adam moment buffers it prints one line: the
group (``param``, ``adam_m`` or ``adam_v``), the tensor's name, max |B - A|
and that maximum over max |A|. A tensor that only one file holds, or that
has another shape in each, gets a line saying so. Run ``artifact_digest.py
--keep DIR`` on two source trees and diff their checkpoints with this to
report which tensors a change moves and by how much.

Not a test module: pytest does not collect it.
"""

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from sketchattn.net.optim import load_checkpoint  # noqa: E402


def diff_lines(a, b) -> list[str]:
    """One line per tensor of either checkpoint (ModelState), by group and name."""
    lines = []
    groups = (
        ("param", {n: p.data for n, p in a.params.items()}, {n: p.data for n, p in b.params.items()}),
        ("adam_m", a.m, b.m),
        ("adam_v", a.v, b.v),
    )
    for group, ta, tb in groups:
        for name in sorted(ta.keys() | tb.keys()):
            if name not in tb or name not in ta:
                lines.append(f"{group:6s} {name:20s} only in {'A' if name in ta else 'B'}")
            elif ta[name].shape != tb[name].shape:
                lines.append(f"{group:6s} {name:20s} shape {ta[name].shape} in A, {tb[name].shape} in B")
            else:
                delta = np.abs(tb[name] - ta[name]).max(initial=0.0)
                scale = np.abs(ta[name]).max(initial=0.0)
                rel = delta / scale if scale else (0.0 if delta == 0 else np.inf)
                lines.append(f"{group:6s} {name:20s} max|d| {delta:.3e}  max|d|/max|A| {rel:.3e}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("a", help="checkpoint A, the reference")
    p.add_argument("b", help="checkpoint B")
    args = p.parse_args(argv)
    print("\n".join(diff_lines(load_checkpoint(args.a), load_checkpoint(args.b))))
    return 0


if __name__ == "__main__":
    sys.exit(main())

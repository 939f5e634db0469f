"""Print a sha256 for every file a short training run of each variant writes.

    python tests/artifact_digest.py --src src [--keep DIR]

Trains each of the four variants for 2 epochs at the desk profile, with one
BLAS thread, on seeded train, valid and test splits, and prints one line
per output file: its sha256 and its path as ``<variant>/<file>``. The train
split mixes the single-stroke synthetic shapes with multi-stroke random
walks, so stroke removal and the stroke-order shuffle both act. First it
prints one line per split, ``prepared/<split>``: a sha256 over the ``xy``
and ``s`` bytes of its items through ``prepare_split``, in item order, as
training prepares them. Run it on two source trees and diff the outputs to
check that a change keeps every prepared sketch, metrics file and
checkpoint byte-identical. Exits 1 if an item of ``prepare_split`` differs
from the same item through ``prepare_sketch``, so the diff covers the
one-item path too. With ``--keep DIR`` the run's files stay in
``DIR/<variant>/``, so ``tensor_diff.py`` can compare the checkpoints of
two trees.

Not a test module: pytest does not collect it.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads: GEMMs split across threads may round differently

import argparse
import hashlib
import shutil
import sys
import tempfile


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--src", required=True, help="directory that holds the sketchattn package")
    p.add_argument("--keep", help="directory to copy each variant's output files into")
    args = p.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))

    import numpy as np

    from sketchattn.ingest import Dataset, LabeledSketch, random_sketch, synth_dataset
    from sketchattn.pipeline import VARIANTS, desk_config, prepare_sketch, prepare_split, train

    shapes = synth_dataset(4, 0, "train")
    cats = shapes.categories
    rng = np.random.default_rng(5)
    walks = [
        LabeledSketch(random_sketch(rng, int(rng.integers(20, 40)), 255.0, 255.0, 0.2), k % len(cats), cats[k % len(cats)])
        for k in range(12)
    ]
    train_ds = Dataset(cats, shapes.items + walks, "train")
    valid_ds = synth_dataset(2, 0, "valid")
    test_ds = synth_dataset(2, 0, "test")
    prepare_cfg = desk_config(len(cats))
    differs = []
    for ds in (train_ds, valid_ds, test_ds):
        digest = hashlib.sha256()
        prepared = prepare_split([it.sketch for it in ds.items], prepare_cfg)
        for sk, it in zip(prepared, ds.items):
            digest.update(sk.xy.tobytes() + sk.s.tobytes())
            one = prepare_sketch(it.sketch, prepare_cfg)
            if sk.xy.tobytes() != one.xy.tobytes() or sk.s.tobytes() != one.s.tobytes():
                differs.append(ds.split)
        if len(prepared) != len(ds.items):
            differs.append(ds.split)
        print(f"{digest.hexdigest()}  prepared/{ds.split}")
    with tempfile.TemporaryDirectory() as tmp:
        for variant in VARIANTS:
            out = os.path.join(tmp, variant)
            cfg = desk_config(len(cats), variant=variant, epochs=2)
            train(cfg, train_ds, valid_ds, test_ds, out_dir=out)
            for name in sorted(os.listdir(out)):
                with open(os.path.join(out, name), "rb") as f:
                    print(f"{hashlib.sha256(f.read()).hexdigest()}  {variant}/{name}")
            if args.keep:
                shutil.copytree(out, os.path.join(args.keep, variant), dirs_exist_ok=True)
    if differs:
        print(f"prepare_split differs from prepare_sketch in split(s) {sorted(set(differs))}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

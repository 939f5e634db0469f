"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; plain `pytest` shows the same information as test outcomes.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from sketchattn.geometry import validate_and_normalize
from sketchattn.ingest import random_sketch, synth_dataset
from sketchattn.net.gradcheck import grad_check
from sketchattn.pipeline import desk_config, evaluate, init_model_state, train
from sketchattn.raster import RasterConfig, rasterize_backward, rasterize_forward
from sketchattn.simplify import SimplifyConfig, simplify_sketch

from raster_oracle import oracle_rasterize
from rdp_support import rdp_stroke

CFG64 = RasterConfig(width=64, height=64, epsilon=1.0)
REPO_ROOT = Path(__file__).resolve().parent.parent


def report(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:>2} ({name}): {status} {detail}".rstrip())
    assert passed, f"criterion {number} ({name}) failed: {detail}"


def _mixed_sketches(rng, count, lo=5, hi=50):
    out = []
    for _ in range(count):
        n = int(rng.integers(lo, hi + 1))
        out.append(random_sketch(rng, n, 64.0, 64.0, stroke_break_prob=0.2))
    return out


def test_criterion_01_nlr_adjoint_matches_finite_differences():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for sk in _mixed_sketches(rng, 100):
        a = rng.uniform(0.0, 1.0, sk.n)
        delta = rng.normal(size=(64, 64))
        amap = rasterize_forward(sk, a, CFG64)
        grad = rasterize_backward(amap, delta, sk.n)
        h = 1e-4
        for i in range(sk.n):
            ap, am = a.copy(), a.copy()
            ap[i] += h
            am[i] -= h
            fp = float((delta * rasterize_forward(sk, ap, CFG64).intensities).sum())
            fm = float((delta * rasterize_forward(sk, am, CFG64).intensities).sum())
            num = (fp - fm) / (2 * h)
            rel = abs(num - grad[i]) / max(abs(num), abs(grad[i]), 1.0)
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    report(
        1,
        "NLR adjoint vs central differences",
        worst <= 1e-6 and elapsed < 30.0,
        f"worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_oracle_equivalence():
    rng = np.random.default_rng(102)
    t0 = time.perf_counter()
    worst = 0.0
    coverage_ok = True
    for sk in _mixed_sketches(rng, 100, lo=5, hi=30):
        a = rng.uniform(0.0, 1.0, sk.n)
        fast = rasterize_forward(sk, a, CFG64)
        ref = oracle_rasterize(sk, a, CFG64)
        coverage_ok &= bool(np.array_equal(fast.owner, ref.owner))
        worst = max(worst, float(np.abs(fast.intensities - ref.intensities).max()))
    elapsed = time.perf_counter() - t0
    report(
        2,
        "oracle equivalence",
        coverage_ok and worst <= 1e-12 and elapsed < 30.0,
        f"max |dI| {worst:.1e}, coverage identical {coverage_ok}, {elapsed:.1f}s",
    )


def test_criterion_03_gradient_conservation():
    rng = np.random.default_rng(103)
    worst = 0.0
    for sk in _mixed_sketches(rng, 100):
        amap = rasterize_forward(sk, rng.uniform(0, 1, sk.n), CFG64)
        grad = rasterize_backward(amap, np.ones((64, 64)), sk.n)
        worst = max(worst, abs(float(grad.sum()) - amap.owned_pixel_count))
    report(3, "gradient conservation", worst <= 1e-9, f"worst |sum - count| {worst:.1e}")


def test_criterion_04_linearity():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(20):
        sk = random_sketch(rng, int(rng.integers(5, 40)), 64.0, 64.0)
        u = rng.normal(size=sk.n)
        v = rng.normal(size=sk.n)
        lam, mu = float(rng.normal()), float(rng.normal())
        lhs = rasterize_forward(sk, lam * u + mu * v, CFG64).intensities
        rhs = (
            lam * rasterize_forward(sk, u, CFG64).intensities
            + mu * rasterize_forward(sk, v, CFG64).intensities
        )
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    report(4, "linearity in attention", worst <= 1e-12, f"worst |diff| {worst:.1e}")


def _poly_dist(p, poly):
    best = np.inf
    for a, b in zip(poly[:-1], poly[1:]):
        v = b - a
        L2 = float(v @ v)
        t = 0.0 if L2 == 0 else float(np.clip((p - a) @ v / L2, 0.0, 1.0))
        q = a + t * v
        best = min(best, float(np.hypot(*(p - q))))
    return best if len(poly) > 1 else float(np.hypot(*(p - poly[0])))


def test_criterion_05_rdp_contract_and_caps():
    rng = np.random.default_rng(105)
    ok = True
    detail = ""
    for _ in range(100):
        n = int(rng.integers(3, 150))
        t = np.linspace(0, 1, n)
        pts = np.column_stack([t * 220.0, 120.0 + 50.0 * np.sin(2.5 * np.pi * t)])
        pts += rng.normal(0, 2.5, size=pts.shape)
        eps = float(rng.uniform(0.5, 5.0))
        out = rdp_stroke(pts, eps)
        rows = {tuple(r) for r in pts.tolist()}
        subsequence = all(tuple(r) in rows for r in out.tolist())
        endpoints = out[0].tolist() == pts[0].tolist() and out[-1].tolist() == pts[-1].tolist()
        bound = max(_poly_dist(p, out) for p in pts) <= eps + 1e-9
        if not (subsequence and endpoints and bound):
            ok = False
            detail = f"violated at eps={eps}"
            break
    for cap in (448, 321):
        dense = [
            (float(x), float(y), 0)
            for x, y in rng.uniform(0, 255, size=(1000, 2))
        ]
        sk = validate_and_normalize(dense)
        out_sk = simplify_sketch(sk, SimplifyConfig(epsilon=0.01, max_points=cap))
        if out_sk.n > cap:
            ok = False
            detail = f"cap {cap} violated ({out_sk.n})"
    report(5, "RDP contract and length caps", ok, detail)


def test_criterion_06_end_to_end_gradient_flow():
    from sketchattn.cli import _full_profile
    from sketchattn.net.autodiff import Tape, backward, cross_entropy_logits
    from sketchattn.pipeline import _forward_batch, prepare_sketch
    from sketchattn.ingest import synth_generate

    fn, params = _full_profile(0)
    rep = grad_check(
        fn, params, step=1e-5, tolerance=1e-4,
        max_entries_per_param=8, rng=np.random.default_rng(600),
    )

    # one training step moves gradients into the RNN stack
    from sketchattn.net.model import RnnConfig

    cfg = desk_config(
        2, seed=0, epochs=1,
        rnn=RnnConfig(hidden_size=8, num_layers=2, dropout_prob=0.0),
        raster=RasterConfig(width=16, height=16, epsilon=1.0),
    )
    state = init_model_state(cfg)
    sk = prepare_sketch(synth_generate("square_cw", 3).sketch, cfg)
    tape = Tape()
    logits, _, _ = _forward_batch(state, cfg, [sk], tape, np.random.default_rng(0))
    loss = cross_entropy_logits(tape, logits, np.array([0]))
    backward(tape, loss)
    rnn_nonzero = any(
        p.grad is not None and float(np.abs(p.grad).max()) > 0
        for name, p in state.params.items()
        if name.startswith(("rnn.", "head."))
    )
    report(
        6,
        "end-to-end gradient flow",
        rep.passed and rnn_nonzero,
        f"gradcheck worst {rep.worst.max_rel_err:.2e}, rnn grads nonzero {rnn_nonzero}",
    )


# --- desk-scale recognition runs -------------------------------------------


def _criterion7_config(seed=0):
    return desk_config(
        6,
        seed=seed,
        epochs=30,
        lr=3e-3,
        early_stop_train_acc=0.97,
        early_stop_valid_acc=0.92,
    )


@pytest.fixture(scope="module")
def criterion7_run(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("crit7") / "run1"
    train_ds = synth_dataset(200, seed=1, split="train")
    valid_ds = synth_dataset(50, seed=1, split="valid")
    test_ds = synth_dataset(50, seed=1, split="test")
    cfg = _criterion7_config()
    t0 = time.perf_counter()
    state, metrics = train(cfg, train_ds, valid_ds, out_dir=str(out_dir))
    test_acc = evaluate(state, cfg, test_ds)
    elapsed = time.perf_counter() - t0
    return {
        "cfg": cfg,
        "train_ds": train_ds,
        "valid_ds": valid_ds,
        "out_dir": out_dir,
        "metrics": metrics,
        "train_acc": metrics.final.train_acc,
        "test_acc": test_acc,
        "elapsed": elapsed,
    }


def test_criterion_07_toy_recognition(criterion7_run):
    r = criterion7_run
    report(
        7,
        "toy recognition 6 classes",
        r["train_acc"] >= 0.95 and r["test_acc"] >= 0.85 and r["elapsed"] < 900.0,
        f"train {r['train_acc']:.3f}, test {r['test_acc']:.3f}, {r['elapsed']:.0f}s",
    )


def test_criterion_08_order_information_thesis(tmp_path):
    cats = ("square_cw", "square_ccw")
    train_ds = synth_dataset(200, seed=5, split="train", categories=cats, matched_jitter=True)
    valid_ds = synth_dataset(50, seed=5, split="valid", categories=cats, matched_jitter=True)
    test_ds = synth_dataset(50, seed=5, split="test", categories=cats, matched_jitter=True)
    t0 = time.perf_counter()

    cfg_r2 = desk_config(
        2, variant="sketch_r2cnn", seed=0, epochs=30, lr=3e-3,
        early_stop_train_acc=0.97, early_stop_valid_acc=0.92,
    )
    state_r2, _ = train(cfg_r2, train_ds, valid_ds)
    acc_r2 = evaluate(state_r2, cfg_r2, test_ds)

    cfg_cnn = desk_config(
        2, variant="cnn_only_binary", seed=0, epochs=10, lr=3e-3,
    )
    state_cnn, _ = train(cfg_cnn, train_ds, valid_ds)
    acc_cnn = evaluate(state_cnn, cfg_cnn, test_ds)
    elapsed = time.perf_counter() - t0
    report(
        8,
        "order-information thesis",
        acc_r2 >= 0.90 and acc_cnn <= 0.60 and elapsed < 600.0,
        f"sketch_r2cnn {acc_r2:.3f} (>=0.90), cnn_only_binary {acc_cnn:.3f} (<=0.60), {elapsed:.0f}s",
    )


def test_criterion_09_training_determinism(criterion7_run, tmp_path):
    r = criterion7_run
    out2 = tmp_path / "run2"
    train(r["cfg"], r["train_ds"], r["valid_ds"], out_dir=str(out2))
    out1 = r["out_dir"]
    same_metrics = (out1 / "metrics.jsonl").read_bytes() == (out2 / "metrics.jsonl").read_bytes()
    ck_names = sorted(p.name for p in out1.glob("*.ckpt.json"))
    same_ckpts = all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes() for name in ck_names
    )
    report(
        9,
        "bitwise training determinism",
        same_metrics and same_ckpts,
        f"metrics identical {same_metrics}, {len(ck_names)} checkpoints identical {same_ckpts}",
    )


def test_criterion_10_benchmark_scale_documented():
    readme = " ".join((REPO_ROOT / "README.md").read_text().split())
    documented = "not reproducible at desk scale" in readme
    report(
        10,
        "benchmark-scale results documented as out of reach",
        documented,
        "README states the property-based substitution",
    )

"""tests/tensor_diff.py on two small checkpoints."""

import numpy as np

from sketchattn.net.autodiff import parameter
from sketchattn.net.optim import ModelState, load_checkpoint, save_checkpoint
from tensor_diff import diff_lines, main


def _state(w, v_b):
    params = {"w": parameter(w), "b": parameter(np.zeros(2))}
    m = {"w": np.zeros_like(w), "b": np.zeros(2)}
    v = {"w": np.zeros_like(w), "b": np.asarray(v_b, dtype=np.float64)}
    return ModelState(params, m, v, categories=["a", "b"])


def test_reports_each_tensor_by_group(tmp_path, capsys):
    a, b = tmp_path / "a.ckpt.json", tmp_path / "b.ckpt.json"
    save_checkpoint(_state(np.array([[1.0, -4.0]]), [0.5, 1.0]), a)
    save_checkpoint(_state(np.array([[1.0, -3.0]]), [0.5, 1.0]), b)
    assert main([str(a), str(b)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6
    assert lines[1].split() == ["param", "w", "max|d|", "1.000e+00", "max|d|/max|A|", "2.500e-01"]
    assert lines[-2].split()[-3:] == ["0.000e+00", "max|d|/max|A|", "0.000e+00"]


def test_names_missing_and_reshaped_tensors(tmp_path):
    a = _state(np.ones((1, 2)), [0.0, 0.0])
    b = _state(np.ones((2, 1)), [0.0, 0.0])
    del b.m["b"]
    lines = diff_lines(a, b)
    assert "param  w                    shape (1, 2) in A, (2, 1) in B" in lines
    assert "adam_m b                    only in A" in lines
    # a zero tensor that stays zero moves by 0, relative too
    assert lines[-2].split()[-1] == "0.000e+00"

import json

import numpy as np
import pytest

from sketchattn.cli import main
from sketchattn.ingest import load_internal, load_sketch, save_sketch, synth_generate


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def sketch_file(tmp_path):
    path = tmp_path / "sketch.json"
    save_sketch(synth_generate("circle", 3).sketch, path)
    return path


class TestSynthAndSimplify:
    def test_synth_counts(self, tmp_path, capsys):
        out = tmp_path / "ds.json"
        code, stdout, _ = run(capsys, "synth", "--out", str(out), "--per-class", "3", "--seed", "1")
        assert code == 0
        info = json.loads(stdout.strip().splitlines()[-1])
        assert info["items"] == 18
        assert len(load_internal(out)) == 18

    def test_synth_default_per_class_is_200(self, tmp_path, capsys):
        out = tmp_path / "ds.json"
        code, stdout, _ = run(capsys, "synth", "--out", str(out), "--per-class", "200", "--seed", "1",
                              "--categories", "line")
        info = json.loads(stdout.strip().splitlines()[-1])
        assert code == 0 and info["items"] == 200

    def test_simplify_collinear(self, tmp_path, capsys):
        src = tmp_path / "in.json"
        from sketchattn.geometry import validate_and_normalize

        save_sketch(validate_and_normalize([(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 1)]), src)
        out = tmp_path / "out.json"
        code, stdout, _ = run(capsys, "simplify", "--input", str(src), "--out", str(out))
        assert code == 0
        info = json.loads(stdout.strip().splitlines()[-1])
        assert info["points_before"] == 4
        assert info["points_after"] == 2
        assert load_sketch(out).n == 2

    def test_simplify_max_points_flags(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        from sketchattn.geometry import validate_and_normalize

        pts = [(float(x), float(y), 0) for x, y in rng.uniform(0, 255, size=(600, 2))]
        src = tmp_path / "dense.json"
        save_sketch(validate_and_normalize(pts), src)
        for cap in (448, 321):
            out = tmp_path / f"out{cap}.json"
            code, stdout, _ = run(
                capsys, "simplify", "--input", str(src), "--eps", "0.01", "--max-points", str(cap),
                "--out", str(out),
            )
            assert code == 0
            assert load_sketch(out).n <= cap


class TestRasterizeCommand:
    def test_uniform_attention_binary_pgm(self, sketch_file, tmp_path, capsys):
        out = tmp_path / "map.pgm"
        code, stdout, _ = run(
            capsys, "rasterize", "--input", str(sketch_file), "--out", str(out),
            "--width", "64", "--height", "64",
        )
        assert code == 0
        info = json.loads(stdout.strip().splitlines()[-1])
        assert info["owned_pixels"] > 0
        raw = out.read_bytes()
        assert raw.startswith(b"P5\n")
        pixels = raw.split(b"255\n", 1)[1]
        assert set(pixels) <= {0, 255}

    def test_defaults_224_eps_1(self, sketch_file, tmp_path, capsys):
        out = tmp_path / "map.pgm"
        code, stdout, _ = run(capsys, "rasterize", "--input", str(sketch_file), "--out", str(out))
        assert code == 0
        assert b"224 224" in out.read_bytes()[:64]

    def test_ramp_equals_attention_file(self, sketch_file, tmp_path, capsys):
        sk = load_sketch(sketch_file)
        ramp = (1.0 - np.arange(sk.n) / (sk.n - 1)).tolist()
        att_file = tmp_path / "att.json"
        att_file.write_text(json.dumps(ramp))
        out_ramp, out_file = tmp_path / "ramp.pgm", tmp_path / "file.pgm"
        code1, _, _ = run(
            capsys, "rasterize", "--input", str(sketch_file), "--attention", "ramp",
            "--out", str(out_ramp), "--width", "64", "--height", "64",
        )
        code2, _, _ = run(
            capsys, "rasterize", "--input", str(sketch_file), "--attention", "file",
            "--attention-file", str(att_file), "--out", str(out_file),
            "--width", "64", "--height", "64",
        )
        assert code1 == code2 == 0
        assert out_ramp.read_bytes() == out_file.read_bytes()

    def test_json_grid_and_provenance_exports(self, sketch_file, tmp_path, capsys):
        out = tmp_path / "map.pgm"
        grid = tmp_path / "grid.json"
        prov = tmp_path / "prov.json"
        code, _, _ = run(
            capsys, "rasterize", "--input", str(sketch_file), "--out", str(out),
            "--json-grid", str(grid), "--provenance", str(prov),
            "--width", "32", "--height", "32",
        )
        assert code == 0
        assert json.loads(grid.read_text())["format"] == "sketchattn-grid"
        assert json.loads(prov.read_text())["format"] == "sketchattn-provenance"

    def test_ndjson_input(self, tmp_path, capsys):
        line = json.dumps({"word": "cat", "drawing": [[[10, 100, 200], [10, 50, 10]]]})
        src = tmp_path / "cat.ndjson"
        src.write_text(line + "\n")
        out = tmp_path / "cat.pgm"
        code, stdout, _ = run(
            capsys, "rasterize", "--input", str(src), "--out", str(out),
            "--width", "64", "--height", "64",
        )
        assert code == 0
        assert json.loads(stdout.strip().splitlines()[-1])["owned_pixels"] > 0

    def test_missing_input_errors_with_json_line(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "rasterize", "--input", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x.pgm")
        )
        assert code == 1
        info = json.loads(err.strip().splitlines()[-1])
        assert "error" in info


class TestMalformedDocuments:
    # a malformed document ends the command with exit 1 and one JSON error
    # line, never a traceback

    @staticmethod
    def _one_error_line(err):
        lines = err.strip().splitlines()
        assert len(lines) == 1
        return json.loads(lines[0])["error"]

    def test_train_on_two_column_point_row(self, tmp_path, capsys):
        # the row [1, 2] used to raise a bare IndexError out of main
        path = tmp_path / "train.json"
        path.write_text(json.dumps({
            "format": "sketchattn-dataset", "version": 1, "split": "train", "categories": ["line"],
            "items": [{"label": 0, "category": "line", "points": [[1, 2]]}],
        }))
        code, _, err = run(capsys, "train", "--train", str(path), "--out", str(tmp_path / "run"), "--epochs", "1")
        assert code == 1
        assert self._one_error_line(err) == "MalformedPointsError"

    def test_simplify_fractional_state(self, tmp_path, capsys):
        # a 0.7 state used to be truncated to 0 and the command succeeded
        path = tmp_path / "sketch.json"
        path.write_text(json.dumps({
            "format": "sketchattn-sketch", "version": 1, "points": [[0, 0, 0], [5, 5, 0.7], [9, 0, 1]],
        }))
        code, _, err = run(capsys, "simplify", "--input", str(path), "--out", str(tmp_path / "out.json"))
        assert code == 1
        assert self._one_error_line(err) == "InvalidStrokeStateError"


class TestGradcheckCommand:
    def test_nlr_profile_passes(self, capsys):
        code, stdout, _ = run(capsys, "gradcheck", "--profile", "nlr", "--seed", "0")
        assert code == 0
        assert "PASS" in stdout

    def test_cnn_profile_passes(self, capsys):
        code, stdout, _ = run(capsys, "gradcheck", "--profile", "cnn", "--seed", "0")
        assert code == 0

    def test_rnn_profile_passes(self, capsys):
        code, stdout, _ = run(capsys, "gradcheck", "--profile", "rnn", "--seed", "0")
        assert code == 0

    def test_full_profile_passes(self, capsys):
        code, stdout, _ = run(capsys, "gradcheck", "--profile", "full", "--seed", "1")
        assert code == 0

    def test_corrupted_gradient_fails_with_name(self, capsys):
        code, stdout, _ = run(
            capsys, "gradcheck", "--profile", "nlr", "--seed", "0", "--corrupt", "attention"
        )
        assert code == 1
        assert "attention" in stdout and "FAIL" in stdout

    def test_same_seed_same_report(self, capsys):
        code1, out1, _ = run(capsys, "gradcheck", "--profile", "nlr", "--seed", "3")
        code2, out2, _ = run(capsys, "gradcheck", "--profile", "nlr", "--seed", "3")
        assert code1 == code2 == 0
        assert out1 == out2


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli_train")
    train_file = base / "train.json"
    valid_file = base / "valid.json"
    out_dir = base / "run"
    from sketchattn.ingest import save_internal, synth_dataset

    save_internal(
        synth_dataset(20, 5, "train", ("square_cw", "square_ccw"), matched_jitter=True),
        train_file,
    )
    save_internal(
        synth_dataset(5, 5, "valid", ("square_cw", "square_ccw"), matched_jitter=True),
        valid_file,
    )
    code = main([
        "train", "--train", str(train_file), "--valid", str(valid_file),
        "--out", str(out_dir), "--epochs", "4", "--seed", "0", "--lr", "0.003",
    ])
    assert code == 0
    return base, out_dir, valid_file


class TestTrainEvalPredict:
    def test_train_wrote_artifacts(self, trained):
        _, out_dir, _ = trained
        assert (out_dir / "metrics.jsonl").exists()
        assert (out_dir / "best.ckpt.json").exists()
        assert (out_dir / "config.json").exists()

    def test_eval_prints_accuracy(self, trained, capsys):
        _, out_dir, valid_file = trained
        code, stdout, _ = run(
            capsys, "eval", "--checkpoint", str(out_dir / "best.ckpt.json"), "--data", str(valid_file)
        )
        assert code == 0
        info = json.loads(stdout.strip().splitlines()[-1])
        assert 0.0 <= info["accuracy"] <= 1.0

    def test_train_with_config_file(self, trained, tmp_path, capsys):
        base, _, valid_file = trained
        from sketchattn.net.model import CnnConfig, RnnConfig
        from sketchattn.pipeline import desk_config
        from sketchattn.raster import RasterConfig

        cfg = desk_config(
            2, seed=3, epochs=1,
            rnn=RnnConfig(hidden_size=8, num_layers=1, bidirectional=True, dropout_prob=0.0),
            cnn=CnnConfig(stages=((3, 4, 2),), num_classes=2),
            raster=RasterConfig(width=16, height=16, epsilon=1.0),
        )
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(cfg.to_json_dict()))
        out_dir = tmp_path / "run2"
        code, stdout, _ = run(
            capsys, "train", "--train", str(base / "train.json"), "--out", str(out_dir),
            "--config", str(cfg_file),
        )
        assert code == 0
        written = json.loads((out_dir / "config.json").read_text())
        assert written["seed"] == 3
        assert written["rnn"]["hidden_size"] == 8

    def test_predict_emits_category_and_map(self, trained, tmp_path, capsys):
        base, out_dir, _ = trained
        sk_file = tmp_path / "item.json"
        save_sketch(synth_generate("square_cw", 12345).sketch, sk_file)
        map_file = tmp_path / "attn.pgm"
        code, stdout, _ = run(
            capsys, "predict", "--checkpoint", str(out_dir / "best.ckpt.json"),
            "--input", str(sk_file), "--out-map", str(map_file),
        )
        assert code == 0
        info = json.loads(stdout.strip().splitlines()[-1])
        assert info["category"] in ("square_cw", "square_ccw")
        assert map_file.read_bytes().startswith(b"P5\n")


class TestCheckpointBoundaries:
    def test_eval_rejects_reordered_categories(self, trained, tmp_path, capsys):
        # same items, category list reversed and labels remapped: the
        # checkpoint's label i no longer means the dataset's label i
        from sketchattn.ingest import Dataset, LabeledSketch, save_internal

        _, out_dir, valid_file = trained
        ds = load_internal(valid_file)
        cats = list(reversed(ds.categories))
        items = [LabeledSketch(it.sketch, cats.index(it.category_name), it.category_name) for it in ds.items]
        reordered = tmp_path / "reordered.json"
        save_internal(Dataset(cats, items, ds.split), reordered)
        code, _, err = run(
            capsys, "eval", "--checkpoint", str(out_dir / "best.ckpt.json"), "--data", str(reordered)
        )
        assert code == 1
        info = json.loads(err.strip().splitlines()[-1])
        assert info["error"] == "CategoryMismatchError"
        assert str(cats) in info["detail"] and str(ds.categories) in info["detail"]

    @staticmethod
    def _edited_checkpoint(out_dir, tmp_path, edit):
        payload = json.loads((out_dir / "best.ckpt.json").read_text())
        edit(payload["params"])
        path = tmp_path / "edited.ckpt.json"
        path.write_text(json.dumps(payload))
        return path

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_missing_parameter_named(self, trained, tmp_path, sketch_file, capsys, command):
        _, out_dir, valid_file = trained
        ckpt = self._edited_checkpoint(out_dir, tmp_path, lambda params: params.pop("cnn.fc.b"))
        data = ["--data", str(valid_file)] if command == "eval" else ["--input", str(sketch_file)]
        code, _, err = run(capsys, command, "--checkpoint", str(ckpt), *data)
        assert code == 1
        info = json.loads(err.strip().splitlines()[-1])
        assert info["error"] == "ShapeMismatchError"
        assert "cnn.fc.b" in info["detail"]

    def test_reshaped_parameter_named(self, trained, tmp_path, capsys):
        # (2,) stored as (1, 2) would broadcast through the bias add unnoticed
        _, out_dir, valid_file = trained

        def reshape(params):
            params["cnn.fc.b"]["shape"] = [1, 2]

        ckpt = self._edited_checkpoint(out_dir, tmp_path, reshape)
        code, _, err = run(capsys, "eval", "--checkpoint", str(ckpt), "--data", str(valid_file))
        assert code == 1
        info = json.loads(err.strip().splitlines()[-1])
        assert info["error"] == "ShapeMismatchError"
        assert "cnn.fc.b" in info["detail"] and "(1, 2)" in info["detail"]

    def test_unknown_nested_config_key_named(self, trained, tmp_path, capsys):
        # a nested section with an extra key used to escape as a TypeError traceback
        _, out_dir, valid_file = trained
        payload = json.loads((out_dir / "best.ckpt.json").read_text())
        payload["config"]["rnn"]["extra_field"] = 1
        ckpt = tmp_path / "extra.ckpt.json"
        ckpt.write_text(json.dumps(payload))
        code, _, err = run(capsys, "eval", "--checkpoint", str(ckpt), "--data", str(valid_file))
        assert code == 1
        lines = err.strip().splitlines()
        assert len(lines) == 1
        info = json.loads(lines[0])
        assert info["error"] == "InvalidConfigError"
        assert "rnn" in info["detail"] and "extra_field" in info["detail"]

import base64
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from sketchattn.cli import main
from sketchattn.ingest import load_internal, load_sketch, save_sketch, synth_generate

import tape_ops as ops


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _one_error(err):
    """The one JSON error line a failed command writes to stderr."""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


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

    @pytest.mark.parametrize("per_class", ["0", "-1"])
    def test_synth_needs_an_item_per_class(self, tmp_path, capsys, per_class):
        # used to write an empty dataset, exit 0, and fail later in load_dataset
        out = tmp_path / "ds.json"
        code, stdout, err = run(capsys, "synth", "--out", str(out), "--per-class", per_class)
        assert code == 1 and stdout == ""
        info = _one_error(err)
        assert info["error"] == "InvalidConfigError"
        assert "per_class" in info["detail"]
        assert not out.exists()

    @pytest.mark.parametrize("categories, named", [("line,nope", "'nope'"), ("line,line", "distinct")])
    def test_synth_bad_categories_named(self, tmp_path, capsys, categories, named):
        # an unknown category used to end in a bare KeyError, and a repeated
        # one wrote the same sketches under two labels with exit code 0
        out = tmp_path / "ds.json"
        code, stdout, err = run(capsys, "synth", "--out", str(out), "--per-class", "2", "--categories", categories)
        assert code == 1 and stdout == ""
        info = _one_error(err)
        assert info["error"] == "InvalidConfigError"
        assert named in info["detail"]
        assert not out.exists()

    def test_synth_negative_seed_rejected(self, tmp_path, capsys):
        # used to print numpy's untyped ValueError
        out = tmp_path / "ds.json"
        code, stdout, err = run(capsys, "synth", "--out", str(out), "--per-class", "2", "--seed", "-1")
        assert code == 1 and stdout == ""
        info = _one_error(err)
        assert info["error"] == "InvalidConfigError"
        assert "'seed'" in info["detail"]
        assert not out.exists()

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

    @pytest.mark.parametrize("flag", ["--eps", "--escalation"])
    def test_simplify_nan_flag_rejected(self, sketch_file, tmp_path, capsys, flag):
        # --eps nan used to collapse the sketch to its stroke ends and exit 0
        out = tmp_path / "out.json"
        code, stdout, err = run(capsys, "simplify", "--input", str(sketch_file), "--out", str(out), flag, "nan")
        assert code == 1 and stdout == ""
        info = _one_error(err)
        assert info["error"] == "InvalidConfigError"
        assert ("'epsilon'" if flag == "--eps" else "'escalation_factor'") in info["detail"]
        assert not out.exists()

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

    @pytest.mark.parametrize("command", ["rasterize", "simplify", "train"])
    def test_non_utf8_ndjson_named_by_file_and_line(self, tmp_path, capsys, command):
        # escaped as an untyped UnicodeDecodeError naming neither file nor line
        line = json.dumps({"word": "cat", "drawing": [[[10, 100], [10, 50]]]}).encode()
        src = tmp_path / "cat.ndjson"
        src.write_bytes(line + b"\n\xff\xfe\n")
        out = tmp_path / "out"
        source = ["--train", str(tmp_path)] if command == "train" else ["--input", str(src)]
        code, stdout, err = run(capsys, command, *source, "--out", str(out))
        assert code == 1 and stdout == ""
        info = _one_error(err)
        assert info["error"] == "MalformedLineError"
        assert info["detail"].startswith(f"{src}:2: not UTF-8")

    def test_infinite_eps_rejected(self, sketch_file, tmp_path, capsys):
        # used to end in an OverflowError traceback inside rasterize_forward
        out = tmp_path / "map.pgm"
        code, stdout, err = run(capsys, "rasterize", "--input", str(sketch_file), "--out", str(out), "--eps", "inf")
        assert code == 1 and stdout == ""
        info = _one_error(err)
        assert info["error"] == "InvalidConfigError"
        assert "'epsilon'" in info["detail"]
        assert not out.exists()

    @pytest.mark.parametrize("pad", ["nan", "-40"])
    def test_invalid_pad_rejected(self, sketch_file, tmp_path, capsys, pad):
        # --pad nan used to paint 1 owned pixel and --pad -40 to push the
        # sketch off the canvas, both with exit code 0
        out = tmp_path / "map.pgm"
        code, stdout, err = run(
            capsys, "rasterize", "--input", str(sketch_file), "--out", str(out), "--width", "64", "--height", "64",
            "--pad", pad,
        )
        assert code == 1 and stdout == ""
        info = _one_error(err)
        assert info["error"] == "InvalidCanvasError"
        assert "pad" in info["detail"]
        assert not out.exists()

    def test_attention_file_flag_required(self, sketch_file, tmp_path, capsys):
        # used to end in a TypeError traceback from open(None)
        code, stdout, err = run(
            capsys, "rasterize", "--input", str(sketch_file), "--attention", "file", "--out", str(tmp_path / "x.pgm")
        )
        assert code == 1 and stdout == ""
        info = _one_error(err)
        assert info["error"] == "InvalidConfigError"
        assert "--attention-file" in info["detail"]

    @pytest.mark.parametrize("attention", ["uniform", "ramp"])
    def test_attention_file_without_file_mode_rejected(self, sketch_file, tmp_path, capsys, attention):
        # the file used to be ignored: an all-zero one painted the uniform map
        att_file = tmp_path / "att.json"
        att_file.write_text(json.dumps([0.0] * load_sketch(sketch_file).n))
        out = tmp_path / "x.pgm"
        code, stdout, err = run(
            capsys, "rasterize", "--input", str(sketch_file), "--attention", attention,
            "--attention-file", str(att_file), "--out", str(out),
        )
        assert code == 1 and stdout == ""
        info = _one_error(err)
        assert info["error"] == "InvalidConfigError"
        assert "--attention-file" in info["detail"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "content",
        ['{"a": 1}', "not json", "NESTED", "BOOLS", '["0.5"]'],
        ids=["object", "not_json", "nested_list", "booleans", "string"],
    )
    def test_malformed_attention_file_rejected(self, sketch_file, tmp_path, capsys, content):
        # an object used to end in a TypeError traceback, non-JSON in an
        # untyped JSONDecodeError, and a nested list or booleans of the
        # sketch's length were read as attention
        n = load_sketch(sketch_file).n
        content = {"NESTED": json.dumps([[0.5] * n]), "BOOLS": json.dumps([True] * n)}.get(content, content)
        att_file = tmp_path / "att.json"
        att_file.write_text(content)
        code, stdout, err = run(
            capsys, "rasterize", "--input", str(sketch_file), "--attention", "file",
            "--attention-file", str(att_file), "--out", str(tmp_path / "x.pgm"),
        )
        assert code == 1 and stdout == ""
        info = _one_error(err)
        assert info["error"] == "MalformedDocumentError"
        assert str(att_file) in info["detail"]

    @pytest.mark.parametrize(
        "values, error",
        [([0.5, 0.5], "LengthMismatchError"), (None, "NonFiniteAttentionError")],
        ids=["short", "nan"],
    )
    def test_attention_file_values_checked(self, sketch_file, tmp_path, capsys, values, error):
        n = load_sketch(sketch_file).n
        att_file = tmp_path / "att.json"
        att_file.write_text(json.dumps(values if values is not None else [float("nan")] * n))
        code, _, err = run(
            capsys, "rasterize", "--input", str(sketch_file), "--attention", "file",
            "--attention-file", str(att_file), "--out", str(tmp_path / "x.pgm"),
        )
        assert code == 1
        assert _one_error(err)["error"] == error

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

    def test_train_on_two_column_point_row(self, tmp_path, capsys):
        # the row [1, 2] used to raise a bare IndexError out of main
        path = tmp_path / "train.json"
        path.write_text(json.dumps({
            "format": "sketchattn-dataset", "version": 1, "split": "train", "categories": ["line"],
            "items": [{"label": 0, "category": "line", "points": [[1, 2]]}],
        }))
        code, _, err = run(capsys, "train", "--train", str(path), "--out", str(tmp_path / "run"), "--epochs", "1")
        assert code == 1
        assert _one_error(err)["error"] == "MalformedPointsError"

    def test_simplify_fractional_state(self, tmp_path, capsys):
        # a 0.7 state used to be truncated to 0 and the command succeeded
        path = tmp_path / "sketch.json"
        path.write_text(json.dumps({
            "format": "sketchattn-sketch", "version": 1, "points": [[0, 0, 0], [5, 5, 0.7], [9, 0, 1]],
        }))
        code, _, err = run(capsys, "simplify", "--input", str(path), "--out", str(tmp_path / "out.json"))
        assert code == 1
        assert _one_error(err)["error"] == "InvalidStrokeStateError"


@pytest.fixture()
def broken_nlr(monkeypatch):
    """The nlr gradcheck profile with a deliberately wrong attention gradient."""
    from sketchattn import cli

    nlr = cli._PROFILES["nlr"]

    def profile(seed):
        fn, params = nlr(seed)
        return (lambda tape: ops.wrong_gradient(tape, fn(tape), params["attention"])), params

    monkeypatch.setitem(cli._PROFILES, "nlr", profile)


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

    def test_corrupted_gradient_fails_with_name(self, broken_nlr, capsys):
        code, stdout, _ = run(capsys, "gradcheck", "--profile", "nlr", "--seed", "0")
        assert code == 1
        assert "attention" in stdout and "FAIL" in stdout

    @pytest.mark.parametrize("entries", ["0", "-1"])
    def test_max_entries_must_probe_something(self, broken_nlr, capsys, entries):
        # 0 used to probe nothing and print PASS for a corrupted gradient
        code, stdout, err = run(capsys, "gradcheck", "--profile", "nlr", "--max-entries", entries)
        assert code == 1 and stdout == ""
        info = _one_error(err)
        assert info["error"] == "InvalidConfigError"
        assert "max_entries_per_param" in info["detail"]

    @pytest.mark.parametrize("profile", ["nlr", "rnn", "cnn", "full"])
    def test_negative_seed_rejected(self, capsys, profile):
        # every profile seeds numpy from (seed, k), which used to raise an untyped ValueError
        code, stdout, err = run(capsys, "gradcheck", "--profile", profile, "--seed", "-1")
        assert code == 1 and stdout == ""
        info = _one_error(err)
        assert info["error"] == "InvalidConfigError"
        assert "'seed'" in info["detail"]

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
            rnn=RnnConfig(hidden_size=8, num_layers=1, dropout_prob=0.0),
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
        assert written["version"] == 3

    def test_config_file_with_removed_key_named(self, trained, tmp_path, capsys):
        # a key the config no longer has used to be dropped without a word
        base, _, _ = trained
        from sketchattn.pipeline import desk_config

        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({**desk_config(2).to_json_dict(), "beta1": 0.5}))
        out_dir = tmp_path / "run3"
        code, _, err = run(
            capsys, "train", "--train", str(base / "train.json"), "--out", str(out_dir),
            "--config", str(cfg_file),
        )
        assert code == 1
        lines = err.strip().splitlines()
        assert len(lines) == 1
        info = json.loads(lines[0])
        assert info["error"] == "InvalidConfigError"
        assert "'beta1'" in info["detail"]
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "section, key, value",
        [
            (None, "lr", "fast"),
            (None, "seed", 0.5),
            (None, "batch_size", 4.0),
            (None, "epochs", 0),
            (None, "early_stop_train_acc", "x"),
            ("rnn", "hidden_size", 8.0),
            ("raster", "width", 64.5),
            ("cnn", "stages", [[3, 8.5, 2]]),
            ("simplify", "max_points", 100.5),
        ],
        ids=["lr_string", "seed_float", "batch_size_float", "epochs_zero", "early_stop_string",
             "hidden_size_float", "width_float", "stage_channels_float", "max_points_float"],
    )
    def test_config_file_with_ill_typed_value_named(self, trained, tmp_path, capsys, section, key, value):
        # each used to pass the config check, write config.json and then end
        # in an uncaught TypeError, UFuncNoLoopError or IndexError traceback
        base, _, _ = trained
        from sketchattn.pipeline import desk_config

        doc = desk_config(2).to_json_dict()
        (doc if section is None else doc[section])[key] = value
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(doc))
        out_dir = tmp_path / "run4"
        code, stdout, err = run(
            capsys, "train", "--train", str(base / "train.json"), "--out", str(out_dir), "--config", str(cfg_file),
        )
        assert code == 1 and stdout == ""
        info = _one_error(err)
        assert info["error"] == "InvalidConfigError"
        assert repr(key) in info["detail"]
        assert section is None or repr(section) in info["detail"]
        assert not out_dir.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_seed_rejected_before_writing(self, trained, tmp_path, capsys, source):
        # used to write config.json, then exit with numpy's untyped ValueError
        base, out_dir, _ = trained
        args = ["--seed", "-1"]
        if source == "config":
            doc = json.loads((out_dir / "config.json").read_text())
            doc["seed"] = -1
            cfg_file = tmp_path / "cfg.json"
            cfg_file.write_text(json.dumps(doc))
            args = ["--config", str(cfg_file)]
        run_dir = tmp_path / "run_neg"
        code, stdout, err = run(capsys, "train", "--train", str(base / "train.json"), "--out", str(run_dir), *args)
        assert code == 1 and stdout == ""
        info = _one_error(err)
        assert info["error"] == "InvalidConfigError"
        assert "'seed'" in info["detail"]
        assert not (run_dir / "config.json").exists()

    def test_zero_epochs_flag_rejected(self, trained, tmp_path, capsys):
        # used to write config.json, then die with an IndexError in metrics.final
        base, _, _ = trained
        out_dir = tmp_path / "run5"
        code, stdout, err = run(
            capsys, "train", "--train", str(base / "train.json"), "--out", str(out_dir), "--epochs", "0"
        )
        assert code == 1 and stdout == ""
        info = _one_error(err)
        assert info["error"] == "InvalidConfigError"
        assert "'epochs'" in info["detail"]
        assert not out_dir.exists()

    @pytest.mark.parametrize("lr", ["0", "-0.001", "nan", "inf"])
    def test_lr_flag_out_of_range_rejected(self, trained, tmp_path, capsys, lr):
        base, _, _ = trained
        out_dir = tmp_path / "run6"
        code, stdout, err = run(
            capsys, "train", "--train", str(base / "train.json"), "--out", str(out_dir), "--lr", lr
        )
        assert code == 1 and stdout == ""
        info = _one_error(err)
        assert info["error"] == "InvalidConfigError"
        assert "'lr'" in info["detail"]
        assert not out_dir.exists()

    def test_config_file_not_json(self, trained, tmp_path, capsys):
        # used to end in {"error": "JSONDecodeError", ...}
        base, _, _ = trained
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text("not json")
        out_dir = tmp_path / "run7"
        code, stdout, err = run(
            capsys, "train", "--train", str(base / "train.json"), "--out", str(out_dir), "--config", str(cfg_file)
        )
        assert code == 1 and stdout == ""
        info = _one_error(err)
        assert info["error"] == "MalformedDocumentError"
        assert str(cfg_file) in info["detail"]
        assert not out_dir.exists()

    def test_config_file_pooling_past_the_canvas_rejected(self, trained, tmp_path, capsys):
        # used to train on NaN logits until a NonFiniteLossError
        base, _, _ = trained
        from sketchattn.pipeline import desk_config

        doc = desk_config(2).to_json_dict()
        doc["raster"].update(width=16, height=16)
        doc["cnn"]["stages"] = [[3, 4, 2]] * 5
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(doc))
        out_dir = tmp_path / "run8"
        code, stdout, err = run(
            capsys, "train", "--train", str(base / "train.json"), "--out", str(out_dir), "--config", str(cfg_file)
        )
        assert code == 1 and stdout == ""
        info = _one_error(err)
        assert info["error"] == "InvalidConfigError"
        assert "cnn stage 4" in info["detail"]
        assert not out_dir.exists()

    def test_config_file_canvas_inside_the_margin_rejected(self, trained, tmp_path, capsys):
        # used to write config.json, then exit with an InvalidCanvasError
        # from the first prepare_sketch
        base, _, _ = trained
        from sketchattn.pipeline import desk_config

        doc = desk_config(2).to_json_dict()
        doc["raster"].update(width=8, height=8)
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(doc))
        out_dir = tmp_path / "run9"
        code, stdout, err = run(
            capsys, "train", "--train", str(base / "train.json"), "--out", str(out_dir), "--config", str(cfg_file)
        )
        assert code == 1 and stdout == ""
        info = _one_error(err)
        assert info["error"] == "InvalidConfigError"
        assert "raster 8x8" in info["detail"] and "'width' and 'height'" in info["detail"]
        assert not (out_dir / "config.json").exists()

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


def _set_first(record, value):
    """Overwrite the first entry of a checkpoint tensor record."""
    data = np.frombuffer(base64.b64decode(record["data"]), dtype="<f8").copy()
    data[0] = value
    record["data"] = base64.b64encode(data.tobytes()).decode("ascii")


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

    def test_train_rejects_reordered_valid_categories(self, trained, tmp_path, capsys):
        # train used to exit 0 with a valid_acc scored against the wrong
        # labels, and pick best.ckpt.json by it
        from sketchattn.ingest import save_internal, synth_dataset

        base, _, _ = trained
        valid = tmp_path / "valid.json"
        save_internal(synth_dataset(2, 5, "valid", ("square_ccw", "square_cw")), valid)
        out_dir = tmp_path / "run"
        code, stdout, err = run(
            capsys, "train", "--train", str(base / "train.json"), "--valid", str(valid),
            "--out", str(out_dir), "--epochs", "1",
        )
        assert code == 1 and stdout == ""
        info = _one_error(err)
        assert info["error"] == "CategoryMismatchError"
        assert "valid split categories ['square_ccw', 'square_cw']" in info["detail"]
        assert not list(out_dir.glob("*.ckpt.json"))

    @pytest.mark.parametrize("command", ["eval", "predict"])
    @pytest.mark.parametrize(
        "categories, named",
        [
            (5, "not a list"),
            (["square_cw", 7], "not a list of strings"),
            (["square_cw", "square_cw"], "'square_cw' more than once"),
            (["square_cw"], "names 1 categories"),
            (["square_cw", "square_ccw", "line"], "names 3 categories"),
        ],
        ids=["number", "non_string", "repeated", "too_few", "too_many"],
    )
    def test_checkpoint_categories_checked(self, trained, tmp_path, sketch_file, capsys, command, categories, named):
        # a number used to end in a TypeError traceback, and too few names
        # in a predicted label with no category
        _, out_dir, valid_file = trained
        payload = json.loads((out_dir / "best.ckpt.json").read_text())
        payload["categories"] = categories
        ckpt = tmp_path / "categories.ckpt.json"
        ckpt.write_text(json.dumps(payload))
        data = ["--data", str(valid_file)] if command == "eval" else ["--input", str(sketch_file)]
        code, stdout, err = run(capsys, command, "--checkpoint", str(ckpt), *data)
        assert code == 1 and stdout == ""
        info = _one_error(err)
        assert info["error"] == "MalformedDocumentError"
        assert "'categories'" in info["detail"] and named in info["detail"]

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

    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda p: p.update(params=[]), "'params'"),
            (lambda p: p["params"].update({"cnn.fc.b": 5}), "'cnn.fc.b'"),
            (lambda p: p["params"]["cnn.fc.b"].update(shape=[3]), "'cnn.fc.b'"),
            (lambda p: p.update(step="one"), "'step'"),
            (lambda p: p.update(step=1.5), "'step'"),
            (lambda p: p.pop("adam_m"), "'adam_m'"),
            (lambda p: _set_first(p["params"]["cnn.fc.b"], float("nan")), "params 'cnn.fc.b'"),
            (lambda p: _set_first(p["adam_v"]["cnn.fc.b"], float("inf")), "adam_v 'cnn.fc.b'"),
        ],
        ids=["params_list", "record_not_object", "shape_vs_data", "step_string", "step_float",
             "missing_adam_m", "nan_param", "inf_adam_v"],
    )
    def test_malformed_checkpoint_named(self, trained, tmp_path, sketch_file, capsys, edit, named):
        # these used to end in a traceback, a bare ValueError/KeyError, a
        # silently truncated step, or a label read off a NaN parameter
        _, out_dir, _ = trained
        payload = json.loads((out_dir / "best.ckpt.json").read_text())
        edit(payload)
        ckpt = tmp_path / "malformed.ckpt.json"
        ckpt.write_text(json.dumps(payload))
        code, _, err = run(capsys, "predict", "--checkpoint", str(ckpt), "--input", str(sketch_file))
        assert code == 1
        lines = err.strip().splitlines()
        assert len(lines) == 1
        info = json.loads(lines[0])
        assert info["error"] == "MalformedDocumentError"
        assert named in info["detail"]

    @pytest.mark.parametrize(
        "version, old_keys",
        [
            (1, dict(canvas_pad=4.0, beta1=0.9, beta2=0.999, eps_opt=1e-8, eval_test_each_epoch=True)),
            (2, dict(augment=dict(reflect=False, reflect_prob=0.5, stroke_removal=True, removal_prob=0.3,
                                  jitter=True, jitter_sigma=1.0))),
        ],
        ids=["1", "2"],
    )
    def test_old_config_version_rejected(self, trained, tmp_path, sketch_file, capsys, version, old_keys):
        # checkpoints written before config documents reached version 3
        _, out_dir, _ = trained
        payload = json.loads((out_dir / "best.ckpt.json").read_text())
        payload["config"]["version"] = version
        payload["config"].update(old_keys)
        ckpt = tmp_path / f"v{version}.ckpt.json"
        ckpt.write_text(json.dumps(payload))
        code, _, err = run(capsys, "predict", "--checkpoint", str(ckpt), "--input", str(sketch_file))
        assert code == 1
        lines = err.strip().splitlines()
        assert len(lines) == 1
        info = json.loads(lines[0])
        assert info["error"] == "VersionMismatchError"
        assert f"version {version}" in info["detail"]

    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda p: p["adam_m"].pop("head.b"), "adam_m head.b has shape none"),
            (lambda p: p["adam_v"]["cnn.fc.b"].update(shape=[1, 2]), "adam_v cnn.fc.b has shape (1, 2)"),
        ],
        ids=["missing_adam_m", "reshaped_adam_v"],
    )
    def test_adam_moments_match_parameters(self, trained, tmp_path, sketch_file, capsys, edit, named):
        # both used to load: a missing moment as zeros, and a (1, 2) moment
        # of a (2,) bias that adam_step would broadcast
        _, out_dir, _ = trained
        payload = json.loads((out_dir / "best.ckpt.json").read_text())
        edit(payload)
        ckpt = tmp_path / "moments.ckpt.json"
        ckpt.write_text(json.dumps(payload))
        code, _, err = run(capsys, "predict", "--checkpoint", str(ckpt), "--input", str(sketch_file))
        assert code == 1
        lines = err.strip().splitlines()
        assert len(lines) == 1
        info = json.loads(lines[0])
        assert info["error"] == "ShapeMismatchError"
        assert named in info["detail"]

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


class TestTrainAcrossProcesses:
    def test_two_processes_write_identical_files(self, tmp_path):
        # byte identity holds for one BLAS build at one thread count, so
        # both runs pin the thread count
        import sketchattn
        from sketchattn.ingest import save_internal, synth_dataset

        data = tmp_path / "train.json"
        save_internal(synth_dataset(4, 0, "train"), data)
        src = os.path.dirname(os.path.dirname(sketchattn.__file__))
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": src}
        runs = [tmp_path / "a", tmp_path / "b"]
        for out in runs:
            subprocess.run(
                [sys.executable, "-m", "sketchattn.cli", "train", "--train", str(data), "--out", str(out),
                 "--epochs", "1", "--seed", "0"],
                env=env, check=True, capture_output=True,
            )
        names = sorted(p.name for p in runs[0].iterdir())
        assert names == sorted(p.name for p in runs[1].iterdir())
        assert {"metrics.jsonl", "epoch_000.ckpt.json", "best.ckpt.json"} <= set(names)
        for name in names:
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name

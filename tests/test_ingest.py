import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sketchattn.errors import (
    EmptyDatasetError,
    EmptySketchError,
    InvalidStrokeStateError,
    LabelOutOfRangeError,
    MalformedDocumentError,
    MalformedLineError,
    MalformedPointsError,
    NonFiniteCoordinateError,
    RaggedStrokeError,
    SketchError,
    VersionMismatchError,
)
from sketchattn.geometry import normalize_to_canvas, stroke_slices
from sketchattn.ingest import (
    SYNTH_CATEGORIES,
    Dataset,
    LabeledSketch,
    load_dataset,
    load_internal,
    load_sketch,
    parse_quickdraw_line,
    random_sketch,
    save_internal,
    save_sketch,
    shape_control_points,
    synth_dataset,
    synth_generate,
)
from sketchattn.pipeline import desk_config, forward_classify, init_model_state, prepare_sketch
from sketchattn.raster import RasterConfig, rasterize_forward, segment_table


class TestParseQuickdraw:
    def test_one_two_point_stroke(self):
        item = parse_quickdraw_line('{"word": "cat", "drawing": [[[0, 10], [0, 0]]]}')
        assert item.category_name == "cat"
        assert item.sketch.xy.tolist() == [[0, 0], [10, 0]]
        assert item.sketch.s.tolist() == [0, 1]

    def test_second_stroke_single_point(self):
        item = parse_quickdraw_line('{"word": "x", "drawing": [[[0, 1], [0, 0]], [[5], [5]]]}')
        assert item.sketch.xy.tolist() == [[0, 0], [1, 0], [5, 5]]
        assert item.sketch.s.tolist() == [0, 1, 1]

    def test_missing_drawing_field(self):
        with pytest.raises(MalformedLineError):
            parse_quickdraw_line('{"word": "cat"}')

    def test_bad_json(self):
        with pytest.raises(MalformedLineError):
            parse_quickdraw_line("{not json")

    def test_ragged_stroke(self):
        with pytest.raises(RaggedStrokeError):
            parse_quickdraw_line('{"word": "cat", "drawing": [[[0, 1, 2], [0, 1]]]}')

    def test_category_key_alias(self):
        item = parse_quickdraw_line('{"category": "dog", "drawing": [[[0, 1], [0, 1]]]}')
        assert item.category_name == "dog"

    def test_empty_drawing(self):
        with pytest.raises(EmptySketchError):
            parse_quickdraw_line('{"word": "cat", "drawing": []}')

    @pytest.mark.parametrize(
        "drawing",
        [
            "[[1, 2]]",  # a stroke of two numbers, not two lists
            '[[["x"], [1]]]',  # a string coordinate
            "[[[1, null], [1, 2]]]",  # a null coordinate
        ],
        ids=["numbers_for_lists", "string_coordinate", "null_coordinate"],
    )
    def test_non_numeric_stroke_rejected(self, drawing):
        with pytest.raises(MalformedLineError):
            parse_quickdraw_line('{"word": "cat", "drawing": %s}' % drawing)

    def test_stroke_state_structure(self):
        # k-point stroke yields k-1 intra-stroke segments, states [0]*(k-1)+[1]
        item = parse_quickdraw_line(
            '{"word": "w", "drawing": [[[0, 1, 2, 3], [0, 1, 0, 1]], [[9, 8], [9, 8]]]}'
        )
        sk = item.sketch
        assert sk.s.tolist() == [0, 0, 0, 1, 0, 1]
        assert len(segment_table(sk, include_point_discs=False)) == 4


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=10,
)
# each well-formed stroke draws all its coordinates from one regime
_coordinate_regimes = st.sampled_from(
    [
        st.integers(0, 255),
        st.floats(-1e3, 1e3),
        st.floats(allow_nan=True, allow_infinity=True),
        st.integers(),
    ]
)
_strokes = _coordinate_regimes.flatmap(
    lambda number: st.integers(1, 12).flatmap(
        lambda n: st.lists(st.lists(number, min_size=n, max_size=n), min_size=2, max_size=2)
    )
)
# [xs, ys] pairs whose entries may be anything
_junk_strokes = st.lists(
    _json_values | st.lists(st.integers(0, 255) | _json_values, max_size=4), min_size=2, max_size=2
)
_lines = st.one_of(
    st.fixed_dictionaries({"word": st.text(max_size=4), "drawing": st.lists(_strokes, min_size=1, max_size=4)}),
    st.fixed_dictionaries({"word": st.text(max_size=4), "drawing": st.lists(_strokes | _junk_strokes, max_size=3)}),
    _json_values,
).map(json.dumps) | st.text(max_size=30)
_FUZZ_CONFIG = desk_config(2)
_FUZZ_STATE = init_model_state(_FUZZ_CONFIG)


class TestQuickdrawFuzz:
    @settings(max_examples=300, deadline=None)
    @given(line=_lines)
    def test_only_sketch_errors_escape(self, line):
        # parse -> prepare -> classify either succeeds or raises a typed error
        try:
            item = parse_quickdraw_line(line)
            forward_classify(_FUZZ_STATE, _FUZZ_CONFIG, prepare_sketch(item.sketch, _FUZZ_CONFIG))
        except SketchError:
            pass


class TestLoadDataset:
    def _write_dir(self, tmp_path):
        lines_a = [
            json.dumps({"word": "alpha", "drawing": [[[0, 10], [0, 0]]]}),
            json.dumps({"word": "alpha", "drawing": [[[0, 20], [5, 5]]]}),
            json.dumps({"word": "alpha", "drawing": [[[0, 30], [9, 9]]]}),
        ]
        lines_b = [
            json.dumps({"word": "beta", "drawing": [[[1, 11], [1, 1]]]}),
            json.dumps({"word": "beta", "drawing": [[[2, 22], [2, 2]]]}),
            json.dumps({"word": "beta", "drawing": [[[3, 33], [3, 3]]]}),
        ]
        (tmp_path / "beta.ndjson").write_text("\n".join(lines_b) + "\n")
        (tmp_path / "alpha.ndjson").write_text("\n".join(lines_a) + "\n")
        return tmp_path

    def test_cap_honored(self, tmp_path):
        ds = load_dataset(self._write_dir(tmp_path), "train", max_items_per_category=2)
        assert len(ds) == 4
        assert ds.categories == ["alpha", "beta"]

    def test_cap_zero_raises(self, tmp_path):
        with pytest.raises(EmptyDatasetError):
            load_dataset(self._write_dir(tmp_path), "train", max_items_per_category=0)

    def test_deterministic_order(self, tmp_path):
        d = self._write_dir(tmp_path)
        ds1 = load_dataset(d, "train")
        ds2 = load_dataset(d, "train")
        for a, b in zip(ds1.items, ds2.items):
            assert a.label == b.label
            assert a.sketch.xy.tolist() == b.sketch.xy.tolist()

    def test_labels_follow_sorted_categories(self, tmp_path):
        ds = load_dataset(self._write_dir(tmp_path), "train")
        by_cat = {it.category_name: it.label for it in ds.items}
        assert by_cat == {"alpha": 0, "beta": 1}

    def test_missing_dir(self, tmp_path):
        with pytest.raises((OSError, EmptyDatasetError)):
            load_dataset(tmp_path / "nothing", "train")

    def test_internal_file_roundtrip_through_load_dataset(self, tmp_path):
        ds = synth_dataset(3, seed=1, split="train")
        path = tmp_path / "ds.json"
        save_internal(ds, path)
        back = load_dataset(path, "train", max_items_per_category=2)
        assert len(back) == 12


class TestSynthetic:
    def test_line_has_two_control_points(self):
        assert shape_control_points("line").shape == (2, 2)

    def test_same_seed_same_sketch(self):
        a = synth_generate("spiral", 9)
        b = synth_generate("spiral", 9)
        assert a.sketch.xy.tolist() == b.sketch.xy.tolist()
        assert a.label == SYNTH_CATEGORIES.index("spiral")

    def test_different_seed_differs(self):
        a = synth_generate("circle", 1)
        b = synth_generate("circle", 2)
        assert a.sketch.xy.tolist() != b.sketch.xy.tolist()

    def test_matched_jitter_pair_raster_identical(self):
        cfg = RasterConfig(64, 64, 1.0)
        for seed in (7, 11, 23):
            cw = synth_generate("square_cw", seed, matched_jitter=True)
            ccw = synth_generate("square_ccw", seed, matched_jitter=True)
            np.testing.assert_array_equal(cw.sketch.xy, ccw.sketch.xy[::-1])
            ones = np.ones(cw.sketch.n)
            img_cw = rasterize_forward(normalize_to_canvas(cw.sketch, 64, 64, 4), ones, cfg).intensities
            img_ccw = rasterize_forward(normalize_to_canvas(ccw.sketch, 64, 64, 4), ones, cfg).intensities
            assert np.array_equal(img_cw, img_ccw)

    def test_unmatched_pair_differs_only_by_jitter(self):
        cw = synth_generate("square_cw", 7)
        ccw = synth_generate("square_ccw", 7)
        assert cw.sketch.n == ccw.sketch.n
        # same transform, different jitter assignment: close but not equal
        diff = np.abs(cw.sketch.xy - ccw.sketch.xy[::-1])
        assert diff.max() > 0
        assert diff.max() < 20.0

    def test_unknown_category(self):
        with pytest.raises(ValueError):
            synth_generate("triangle", 0)

    def test_dataset_counts_and_labels(self):
        ds = synth_dataset(4, seed=0, split="train")
        assert len(ds) == 24
        assert ds.categories == list(SYNTH_CATEGORIES)
        for it in ds.items:
            assert it.category_name == ds.categories[it.label]

    def test_dataset_reproducible(self):
        d1 = synth_dataset(5, seed=3, split="test")
        d2 = synth_dataset(5, seed=3, split="test")
        for a, b in zip(d1.items, d2.items):
            assert a.sketch.xy.tolist() == b.sketch.xy.tolist()

    def test_splits_disjoint_streams(self):
        tr = synth_dataset(3, seed=3, split="train")
        te = synth_dataset(3, seed=3, split="test")
        assert tr.items[0].sketch.xy.tolist() != te.items[0].sketch.xy.tolist()

    def test_category_subset(self):
        ds = synth_dataset(2, seed=0, split="train", categories=("square_cw", "square_ccw"))
        assert ds.categories == ["square_cw", "square_ccw"]
        assert {it.label for it in ds.items} == {0, 1}

    def test_single_stroke_shapes(self):
        for cat in SYNTH_CATEGORIES:
            item = synth_generate(cat, 0)
            assert len(stroke_slices(item.sketch)) == 1

    def test_random_sketch_valid(self):
        rng = np.random.default_rng(0)
        sk = random_sketch(rng, 25, 64, 64)
        assert sk.s[-1] == 1
        assert sk.n <= 25


class TestInternalFormat:
    def test_round_trip_bitwise(self, tmp_path):
        ds = synth_dataset(10, seed=4, split="valid")
        path = tmp_path / "ds.json"
        save_internal(ds, path)
        back = load_internal(path)
        assert back.split == "valid"
        assert back.categories == ds.categories
        assert len(back) == len(ds)
        for a, b in zip(ds.items, back.items):
            assert a.label == b.label
            assert a.category_name == b.category_name
            assert np.array_equal(a.sketch.xy, b.sketch.xy)
            assert np.array_equal(a.sketch.s, b.sketch.s)

    def _write_points(self, tmp_path, points):
        ds = synth_dataset(1, seed=0, split="train", categories=("line",))
        path = tmp_path / "ds.json"
        save_internal(ds, path)
        payload = json.loads(path.read_text())
        payload["items"][0]["points"] = points
        path.write_text(json.dumps(payload))
        return path

    def test_open_final_stroke_is_closed_on_load(self, tmp_path):
        path = self._write_points(tmp_path, [[5.0, 5.0, 0], [20.0, 5.0, 0], [20.0, 30.0, 0]])
        sk = load_internal(path).items[0].sketch
        assert sk.s.tolist() == [0, 0, 1]
        amap = rasterize_forward(sk, np.ones(sk.n), RasterConfig(64, 64, 1.0))
        assert amap.owned_pixel_count > 0

    def test_nan_coordinate_rejected(self, tmp_path):
        path = self._write_points(tmp_path, [[5.0, 5.0, 0], [float("nan"), 5.0, 1]])
        with pytest.raises(NonFiniteCoordinateError):
            load_internal(path)

    def test_version_mismatch(self, tmp_path):
        ds = synth_dataset(1, seed=0, split="train")
        path = tmp_path / "ds.json"
        save_internal(ds, path)
        payload = json.loads(path.read_text())
        payload["version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(VersionMismatchError):
            load_internal(path)

    def test_wrong_format_tag(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"format": "other", "version": 1}))
        with pytest.raises(VersionMismatchError):
            load_internal(path)

    def test_save_to_unwritable_path(self, tmp_path):
        ds = synth_dataset(1, seed=0, split="train")
        with pytest.raises(OSError):
            save_internal(ds, tmp_path)  # a directory, not a file

    def test_dataset_byte_stream_reproducible(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_internal(synth_dataset(5, seed=8, split="train"), a)
        save_internal(synth_dataset(5, seed=8, split="train"), b)
        assert a.read_bytes() == b.read_bytes()

    def test_single_sketch_round_trip(self, tmp_path):
        sk = synth_generate("zigzag", 5).sketch
        path = tmp_path / "sk.json"
        save_sketch(sk, path)
        back = load_sketch(path)
        assert np.array_equal(back.xy, sk.xy)
        assert np.array_equal(back.s, sk.s)

    def test_sketch_format_tag_checked(self, tmp_path):
        path = tmp_path / "sk.json"
        path.write_text(json.dumps({"format": "nope", "version": 1, "points": [[0, 0, 1]]}))
        with pytest.raises(VersionMismatchError):
            load_sketch(path)


class TestDatasetInvariants:
    def test_label_outside_categories_rejected(self):
        sk = synth_generate("line", 0).sketch
        with pytest.raises(LabelOutOfRangeError):
            Dataset(["only"], [LabeledSketch(sk, 3, "only")], "train")


def _dataset_document(**item_fields):
    item = {"label": 0, "category": "line", "points": [[0, 0, 0], [5, 5, 1]], **item_fields}
    return {"format": "sketchattn-dataset", "version": 1, "categories": ["line"], "items": [item]}


class TestDocumentErrors:
    # every malformed document fails with a typed error, never a bare
    # KeyError, IndexError, TypeError or ValueError

    @pytest.mark.parametrize(
        "document, error",
        [
            ({"format": "sketchattn-dataset", "version": 1, "categories": ["line"], "items": [{"label": 0, "category": "line"}]},
             MalformedDocumentError),
            (_dataset_document(points=[[1, 2]]), MalformedPointsError),
            (_dataset_document(points=[[0, 0, 2]]), InvalidStrokeStateError),
            (_dataset_document(points=[[0, 0, 0.7]]), InvalidStrokeStateError),
            (_dataset_document(label=5), LabelOutOfRangeError),
            (_dataset_document(label=-1), LabelOutOfRangeError),
            (_dataset_document(label="x"), MalformedDocumentError),
            (_dataset_document(label=True), MalformedDocumentError),
            (_dataset_document(category=7), MalformedDocumentError),
            (_dataset_document(points="abc"), MalformedDocumentError),
            (_dataset_document(points=[["abc", 0, 1]]), MalformedPointsError),
            (_dataset_document(points=[]), EmptySketchError),
            ({**_dataset_document(), "items": None}, MalformedDocumentError),
            ({**_dataset_document(), "items": [3]}, MalformedDocumentError),
            ({**_dataset_document(), "categories": "line"}, MalformedDocumentError),
            ({**_dataset_document(), "categories": [1]}, MalformedDocumentError),
        ],
        ids=["missing_points", "two_column_row", "state_2", "state_0.7", "label_5", "label_negative",
             "label_string", "label_boolean", "category_number", "points_string", "string_coordinate",
             "no_points", "items_null", "item_not_object", "categories_string", "category_not_string"],
    )
    def test_dataset_document(self, tmp_path, document, error):
        path = tmp_path / "ds.json"
        path.write_text(json.dumps(document))
        with pytest.raises(error):
            load_internal(path)

    def test_error_names_the_item(self, tmp_path):
        doc = _dataset_document()
        doc["items"].append({"label": 0, "category": "line", "points": [[0, 0, 3]]})
        path = tmp_path / "ds.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidStrokeStateError, match="item 1"):
            load_internal(path)

    def test_truncated_json(self, tmp_path):
        path = tmp_path / "ds.json"
        path.write_text(json.dumps(_dataset_document())[:-3])
        with pytest.raises(MalformedDocumentError):
            load_internal(path)

    @pytest.mark.parametrize(
        "points, error",
        [(None, MalformedDocumentError), ([[0, 0, 0.7]], InvalidStrokeStateError), ([[0, "y", 1]], MalformedPointsError)],
        ids=["missing", "state_0.7", "string_coordinate"],
    )
    def test_sketch_document(self, tmp_path, points, error):
        # a fractional state used to be truncated to 0 without a word
        doc = {"format": "sketchattn-sketch", "version": 1}
        if points is not None:
            doc["points"] = points
        path = tmp_path / "sk.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(error):
            load_sketch(path)


# well-formed point rows draw every coordinate from one regime of
# _coordinate_regimes; junk rows and values stand in for everything else
_point_rows = _coordinate_regimes.flatmap(
    lambda number: st.lists(st.tuples(number, number, st.sampled_from([0, 1])).map(list), min_size=1, max_size=8)
)
_points = st.one_of(
    _point_rows,
    _point_rows,
    st.lists(st.lists(st.integers(0, 3) | st.floats(0, 1) | _json_values, max_size=4), max_size=4),
    _json_values,
)
_item_records = st.fixed_dictionaries(
    {"label": st.integers(0, 1), "category": st.text(max_size=3), "points": _points}
)
_junk_records = st.fixed_dictionaries(
    {"label": st.integers(-1, 3) | _json_values, "category": st.text(max_size=3) | _json_values, "points": _points}
) | _json_values
_datasets = st.fixed_dictionaries(
    {
        "format": st.just("sketchattn-dataset"),
        "version": st.just(1),
        "categories": st.just(["a", "b"]),
        "items": st.lists(_item_records, min_size=1, max_size=3),
    }
) | st.fixed_dictionaries(
    {
        "format": st.just("sketchattn-dataset"),
        "version": st.just(1),
        "categories": st.lists(st.text(max_size=3), max_size=3) | _json_values,
        "items": st.lists(_item_records | _junk_records, max_size=3) | _json_values,
    }
)
_sketch_documents = st.fixed_dictionaries(
    {"format": st.just("sketchattn-sketch"), "version": st.just(1), "points": _points}
)


class TestDocumentFuzz:
    @staticmethod
    def _load_and_classify(tmp, document, load):
        path = os.path.join(tmp, "doc.json")
        with open(path, "w") as f:
            json.dump(document, f)
        loaded = load(path)
        sketches = [it.sketch for it in loaded.items] if isinstance(loaded, Dataset) else [loaded]
        for sk in sketches:
            forward_classify(_FUZZ_STATE, _FUZZ_CONFIG, prepare_sketch(sk, _FUZZ_CONFIG))

    @settings(max_examples=200, deadline=None)
    @given(document=_datasets)
    def test_dataset_documents_only_sketch_errors_escape(self, tmp_path_factory, document):
        try:
            self._load_and_classify(tmp_path_factory.getbasetemp(), document, load_internal)
        except SketchError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(document=_sketch_documents)
    def test_sketch_documents_only_sketch_errors_escape(self, tmp_path_factory, document):
        try:
            self._load_and_classify(tmp_path_factory.getbasetemp(), document, load_sketch)
        except SketchError:
            pass

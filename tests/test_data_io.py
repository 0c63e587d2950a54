import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from mrckit.core import AlphaLoss, Dataset, FeatureMap, MrcModel, ZeroOneLoss
from mrckit.data_io import (
    InputError,
    load_dataset,
    load_instances,
    load_model,
    save_dataset,
    save_model,
    save_feature_map,
    load_feature_map,
)
from mrckit.predictors import predict_probs


def toy_dataset():
    rng = np.random.default_rng(0)
    return Dataset(
        instances=rng.normal(size=(20, 3)),
        labels=rng.integers(1, 4, size=20),
        num_classes=3,
    )


def toy_model():
    from mrckit.solver import max_offset_alpha

    fm = FeatureMap(num_classes=2, thresholds=((1, 0.125), (3, -2.5)))
    rng = np.random.default_rng(1)
    weights = rng.normal(size=fm.dim)
    # feasible offset: the thresholds act on separate dims, so all four
    # indicator patterns are reachable
    patterns = np.array([[1, a, b] for a in (0, 1) for b in (0, 1)], dtype=float)
    W = weights.reshape(2, 3)
    offset = min(max_offset_alpha(p @ W.T, 2.0) for p in patterns)
    return MrcModel(
        loss=AlphaLoss(2.0),
        weights=weights,
        offset=offset,
        objective_value=0.123456789012345678,
        num_classes=2,
        feature_map=fm,
    )


def test_dataset_roundtrip(tmp_path):
    data = toy_dataset()
    path = tmp_path / "d.csv"
    save_dataset(data, path)
    back = load_dataset(path)
    np.testing.assert_array_equal(back.instances, data.instances)
    np.testing.assert_array_equal(back.labels, data.labels)
    assert back.num_classes == data.num_classes


def reference_save_dataset(data, path):
    """The row-at-a-time writer ``save_dataset`` replaced, kept as its oracle."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"f{j + 1}" for j in range(data.dim)] + ["label"])
        for i in range(data.n):
            writer.writerow(
                [repr(float(v)) for v in data.instances[i]] + [int(data.labels[i])]
            )


@pytest.mark.parametrize(
    "instances, labels",
    [
        ([[-0.0, 5e-324, 1.7976931348623157e308], [0.0, -5e-324, -1.7976931348623157e308]], [1, 2]),
        ([[1.0, -3.0, 1e16], [2.0**53, 1e22, 123456789.0]], [2, 1]),
        ([[0.1, 1e-300, 2.5]], [3]),  # one row
        ([[0.5], [-1.25], [1e-7]], [1, 3, 2]),  # one feature
        (np.empty((3, 0)), [1, 2, 2]),  # no features
        # more rows than one write block, with values of every magnitude
        (np.random.default_rng(0).normal(size=(9000, 2))
         * 10.0 ** np.random.default_rng(1).integers(-300, 300, size=(9000, 2)),
         np.random.default_rng(2).integers(1, 4, size=9000)),
    ],
    ids=["signed-zero-subnormal-max", "integer-valued", "one-row", "one-feature",
         "no-features", "many-blocks"],
)
def test_save_dataset_matches_row_at_a_time_writer(tmp_path, instances, labels):
    data = Dataset(instances=np.asarray(instances, dtype=float), labels=labels, num_classes=3)
    save_dataset(data, tmp_path / "new.csv")
    reference_save_dataset(data, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(
    arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 4)), elements=finite),
    st.integers(2, 5),
    st.randoms(use_true_random=False),
)
def test_dataset_roundtrip_is_bit_identical(tmp_path_factory, instances, k, rnd):
    labels = [rnd.randint(1, k) for _ in range(instances.shape[0])]
    data = Dataset(instances=instances, labels=labels, num_classes=k)
    path = tmp_path_factory.mktemp("roundtrip") / "d.csv"
    save_dataset(data, path)
    back = load_dataset(path, k)
    assert back.instances.tobytes() == data.instances.tobytes()  # -0.0 included
    assert back.labels.tobytes() == data.labels.tobytes()


def test_load_rejects_missing_label_column(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("f1,f2\n1.0,2.0\n")
    with pytest.raises(InputError):
        load_dataset(path)


def test_load_rejects_missing_values(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("f1,label\n1.0,1\n,2\n")
    with pytest.raises(InputError):
        load_dataset(path)


def test_load_rejects_non_numeric(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("f1,label\nok,1\n")
    with pytest.raises(InputError):
        load_dataset(path)


def test_load_rejects_fractional_labels(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("f1,label\n1.0,1.5\n")
    with pytest.raises(InputError):
        load_dataset(path)


def test_load_class_count_floor_applies_only_when_inferred(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("f1,label\n0.0,1\n1.0,1\n")
    assert load_dataset(path).num_classes == 2
    for k in (1, 0, -3):
        with pytest.raises(InputError):
            load_dataset(path, k)


def test_load_instances_ignores_label(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("f1,label,f2\n1.0,1,2.0\n3.0,2,4.0\n")
    X = load_instances(path)
    np.testing.assert_array_equal(X, [[1.0, 2.0], [3.0, 4.0]])


def test_model_roundtrip_bitwise(tmp_path):
    model = toy_model()
    path = tmp_path / "m.json"
    save_model(model, path, lambda_policy="0.25", n=77, bounds={"upper": 0.4, "lower": 0.1})
    back, meta = load_model(path)
    assert type(back.loss) is type(model.loss)
    assert back.loss.alpha == model.loss.alpha
    np.testing.assert_array_equal(back.weights, model.weights)  # bit-for-bit
    assert back.offset == model.offset
    assert back.feature_map.thresholds == model.feature_map.thresholds
    assert meta["lambda_policy"] == "0.25"
    assert meta["n"] == 77
    assert meta["bounds"]["upper"] == 0.4


def test_roundtrip_predictions_identical(tmp_path):
    model = toy_model()
    path = tmp_path / "m.json"
    save_model(model, path, lambda_policy="0.25", n=10)
    back, _ = load_model(path)
    rng = np.random.default_rng(2)
    X = rng.normal(size=(50, 3))
    a = predict_probs(model, X)
    b = predict_probs(back, X)
    assert np.array_equal(a, b)  # exact, not approximate


def test_model_json_keys_and_one_based_dims(tmp_path):
    model = toy_model()
    path = tmp_path / "m.json"
    save_model(model, path, lambda_policy="theorem3:0.05", n=5)
    obj = json.loads(path.read_text())
    assert obj["format_version"] == 1
    assert obj["loss"] == "alpha"
    assert obj["alpha"] == 2.0
    assert obj["variant"] == "expectation"
    assert obj["thresholds"] == [[1, 0.125], [3, -2.5]]  # dims stay 1-based
    assert "mu" in obj and "nu" in obj
    assert obj["lambda_policy"] == "theorem3:0.05"


def test_load_model_rejects_bad_version(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"format_version": 99}))
    with pytest.raises(InputError):
        load_model(path)


@pytest.mark.parametrize("key, index", [("mu", 0), ("mu", 3), ("nu", None), ("objective_value", None)])
@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_load_model_rejects_non_finite_parameters(tmp_path, key, index, value):
    path = tmp_path / "m.json"
    save_model(toy_model(), path, lambda_policy="0.25", n=10)
    obj = json.loads(path.read_text())
    if index is None:
        obj[key] = "@"
    else:
        obj[key][index] = "@"
    # json.dumps writes the non-finite constants Python's json reader accepts
    path.write_text(json.dumps(obj).replace('"@"', value))
    with pytest.raises(InputError):
        load_model(path)


@pytest.mark.parametrize(
    "edit",
    [
        lambda obj: [1, 2],
        lambda obj: "model",
        lambda obj: {**obj, "bounds": 0.5},
        lambda obj: {**obj, "bounds": {"upper": 0.9}},
        lambda obj: {**obj, "bounds": {"lower": 0.1, "upper": "x"}},
        lambda obj: {**obj, "bounds": {"lower": -np.inf, "upper": 0.9}},
        lambda obj: {k: v for k, v in obj.items() if k != "variant"},
        lambda obj: {**obj, "variant": "box"},
        lambda obj: {k: v for k, v in obj.items() if k != "nu"},
        lambda obj: {**obj, "variant": "instance-marginal"},
        lambda obj: {**obj, "converged": "false"},  # bool("false") is True
        lambda obj: {**obj, "converged": 0},
        lambda obj: {**obj, "converged": None},
        lambda obj: {**obj, "mu": [str(v) for v in obj["mu"]]},
        lambda obj: {**obj, "mu": [v > 0 for v in obj["mu"]]},
        lambda obj: {**obj, "mu": [10**400] + obj["mu"][1:]},  # too large for a float
        lambda obj: {**obj, "nu": str(obj["nu"])},
        lambda obj: {**obj, "nu": True},
        lambda obj: {**obj, "objective_value": "0.5"},
        lambda obj: {**obj, "alpha": "2.0"},
        lambda obj: {**obj, "num_classes": 2.9},
        lambda obj: {**obj, "num_classes": "2"},
        lambda obj: {**obj, "thresholds": [[d, str(t)] for d, t in obj["thresholds"]]},
        lambda obj: {**obj, "thresholds": [[d + 0.7, t] for d, t in obj["thresholds"]]},
        lambda obj: {**obj, "thresholds": [[str(d), t] for d, t in obj["thresholds"]]},
    ],
    ids=["list", "string", "bounds-number", "no-lower", "string-upper", "infinite-lower",
         "no-variant", "unknown-variant", "expectation-without-nu", "instance-marginal-with-nu",
         "string-converged", "number-converged", "null-converged", "string-mu", "boolean-mu", "huge-mu",
         "string-nu", "boolean-nu", "string-objective", "string-alpha", "fractional-num-classes",
         "string-num-classes", "string-threshold", "fractional-dimension", "string-dimension"],
)
def test_load_model_rejects_malformed_file(tmp_path, edit):
    path = tmp_path / "m.json"
    save_model(toy_model(), path, lambda_policy="0.25", n=10)
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    with pytest.raises(InputError):
        load_model(path)


@pytest.mark.parametrize("value", [True, False])
def test_load_model_reads_boolean_converged(tmp_path, value):
    path = tmp_path / "m.json"
    save_model(toy_model(), path, lambda_policy="0.25", n=10)
    path.write_text(json.dumps({**json.loads(path.read_text()), "converged": value}))
    assert load_model(path)[0].converged is value


def test_feature_map_roundtrip(tmp_path):
    fm = FeatureMap(num_classes=4, thresholds=((2, 1.5), (1, -0.25)))
    path = tmp_path / "fm.json"
    save_feature_map(fm, path)
    back = load_feature_map(path)
    assert back.num_classes == 4
    assert back.thresholds == fm.thresholds


@pytest.mark.parametrize(
    "edit",
    [
        lambda obj: {**obj, "num_classes": 2.9},
        lambda obj: {**obj, "num_classes": "2"},
        lambda obj: {**obj, "thresholds": [[1.7, 0.5]]},
        lambda obj: {**obj, "thresholds": [["1", 0.5]]},
        lambda obj: {**obj, "thresholds": [[1, "0.5"]]},
        lambda obj: {**obj, "thresholds": [[1, True]]},
    ],
    ids=["fractional-num-classes", "string-num-classes", "fractional-dimension",
         "string-dimension", "string-threshold", "boolean-threshold"],
)
def test_load_feature_map_rejects_wrongly_typed_fields(tmp_path, edit):
    path = tmp_path / "fm.json"
    save_feature_map(FeatureMap(num_classes=2, thresholds=((1, 0.5),)), path)
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    with pytest.raises(InputError):
        load_feature_map(path)


def test_load_skips_blank_rows_and_keeps_line_numbers(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("f1,label\n\n1.0,1\n2.0,2\n\n")
    data = load_dataset(path)
    np.testing.assert_array_equal(data.instances, [[1.0], [2.0]])
    np.testing.assert_array_equal(load_instances(path), [[1.0], [2.0]])
    path.write_text("f1,label\n\n1.0,1\nx,2\n")
    with pytest.raises(InputError, match=r"blank\.csv:4: non-numeric"):
        load_dataset(path)
    # a quoted cell spanning two lines: the next row is on line 5
    path.write_text('f1,label\n"1.0\n",1\n\nx,2\n')
    with pytest.raises(InputError, match=r"blank\.csv:5: non-numeric"):
        load_dataset(path)


@pytest.mark.parametrize(
    "text, message, in_features",
    [
        # widths and blank cells over all rows come before any number
        ("f1,label\nx,1\n1.0,2,3\n", ":3: expected 2 columns, got 3", True),
        ("f1,label\nx,1\n2.0, \n", ":3: missing values are not supported", True),
        ("f1,f2\nx,1\n\n2.0,\n", ":4: missing values are not supported", True),
        ("f1,label\n1.0,\n3.0,1,2\n", ":2: missing values are not supported", True),
        # then the feature columns, row by row
        ("f1,f2,label\n1,x,z\ny,2,1\n", ":2: non-numeric value 'x' in column 'f2'", True),
        ("f2,label,f1\n1,1,2\n3, 4 ,y\nz,1,1\n", ":3: non-numeric value 'y' in column 'f1'", True),
        # then non-finite features, before the label column
        ("f1,label\ninf,1\n1,z\n", ": non-finite values are not supported", True),
        ("f1,label\n1,1e999\n2,z\n", ":3: non-numeric value 'z' in column 'label'", False),
        ("f1,label\n1,1.5\n2,nan\n", ": non-finite values are not supported", False),
        ("f1,label\n1,1.5\n2,1\n", ": labels must be integers", False),
        ("f1,label\n1,1\n2,1e300\n", ": labels must be integers", False),
    ],
)
def test_load_reports_the_first_defect_in_file_order(tmp_path, text, message, in_features):
    path = tmp_path / "d.csv"
    path.write_text(text)
    for loader in (load_dataset, load_instances) if in_features else (load_dataset,):
        with pytest.raises(InputError) as info:
            loader(path)
        assert str(info.value) == f"{path}{message}"


@pytest.mark.parametrize("header", ["label,f1", "f1,label"])
def test_load_accepts_a_byte_order_mark(tmp_path, header):
    path = tmp_path / "bom.csv"
    row = {"label,f1": "2,0.5", "f1,label": "0.5,2"}[header]
    path.write_bytes(f"\ufeff{header}\n{row}\n".encode("utf-8"))
    data = load_dataset(path)
    np.testing.assert_array_equal(data.instances, [[0.5]])
    np.testing.assert_array_equal(data.labels, [2])
    np.testing.assert_array_equal(load_instances(path), [[0.5]])
    # written back as plain UTF-8, with no mark
    save_dataset(data, tmp_path / "out.csv")
    assert (tmp_path / "out.csv").read_bytes() == b"f1,label\n0.5,2\n"


def test_load_rejects_text_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes("f1,label\n0.5,1\ncaf\u00e9,2\n".encode("latin-1"))
    for loader in (load_dataset, load_instances):
        with pytest.raises(InputError, match=r"latin1\.csv: not UTF-8 text"):
            loader(path)


def test_load_rejects_a_field_over_the_csv_size_limit(tmp_path):
    path = tmp_path / "huge.csv"
    path.write_text('f1,label\n0.5,1\n"' + "1" * (csv.field_size_limit() + 1) + '",2\n')
    with pytest.raises(InputError, match=r"huge\.csv:3: field larger than field limit"):
        load_dataset(path)


@pytest.mark.parametrize("loader", [load_dataset, load_instances])
def test_load_rejects_repeated_column_names(tmp_path, loader):
    path = tmp_path / "d.csv"
    path.write_text("label,label,x\n1,2.0,3.0\n2,4.0,5.0\n")
    with pytest.raises(InputError, match="repeated column names"):
        loader(path)


def test_load_feature_map_rejects_bad_version(tmp_path):
    path = tmp_path / "fm.json"
    save_feature_map(FeatureMap(num_classes=2, thresholds=((1, 0.5),)), path)
    path.write_text(json.dumps({**json.loads(path.read_text()), "format_version": 99}))
    with pytest.raises(InputError, match="format_version"):
        load_feature_map(path)

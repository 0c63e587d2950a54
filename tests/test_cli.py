import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mrckit.cli import main
from mrckit.core import Dataset
from mrckit.data_io import load_model, save_dataset
from mrckit.datasets import lattice_joint, two_class_demo_joint

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def demo_csv(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    path = root / "train.csv"
    save_dataset(two_class_demo_joint().sample(400, seed=1), path)
    test_path = root / "test.csv"
    save_dataset(two_class_demo_joint().sample(200, seed=2), test_path)
    return str(path), str(test_path)


def run(argv):
    return main(argv)


def test_featurize(demo_csv, tmp_path, capsys):
    train, _ = demo_csv
    out = tmp_path / "fm.json"
    assert run(["featurize", "--data", train, "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["num_classes"] == 2
    assert len(obj["thresholds"]) >= 1


def test_train_eval_predict_cycle(demo_csv, tmp_path, capsys):
    train, test = demo_csv
    model_path = tmp_path / "m.json"
    code = run(
        ["train", "--data", train, "--loss", "zero-one", "--lambda", "0.25",
         "--out", str(model_path), "--lower"]
    )
    assert code == 0
    out = capsys.readouterr().out
    lines = dict(l.split(" ", 1) for l in out.strip().splitlines())
    assert float(lines["lower_bound"]) <= float(lines["upper_bound"]) + 1e-9

    model, meta = load_model(model_path)
    assert meta["bounds"] is not None

    assert run(["eval", "--model", str(model_path), "--data", test, "--bounds"]) == 0
    out = capsys.readouterr().out
    assert "zero_one_risk" in out and "sandwich" in out


def test_train_theorem3_policy(demo_csv, tmp_path):
    train, _ = demo_csv
    model_path = tmp_path / "m.json"
    assert run(
        ["train", "--data", train, "--loss", "log", "--lambda", "theorem3:0.05",
         "--out", str(model_path), "--max-iters", "1500"]
    ) == 0
    _, meta = load_model(model_path)
    assert meta["lambda_policy"] == "theorem3:0.05"


def test_train_widths_from_file(demo_csv, tmp_path):
    from mrckit.data_io import load_dataset
    from mrckit.features import StumpSpec, fit_thresholds

    train, _ = demo_csv
    fm = fit_thresholds(load_dataset(train), StumpSpec(20))
    widths_path = tmp_path / "w.txt"
    widths_path.write_text("\n".join(["0.25"] * fm.dim) + "\n")
    model_path = tmp_path / "m.json"
    assert run(["train", "--data", train, "--loss", "zero-one",
                "--lambda", f"file:{widths_path}", "--out", str(model_path)]) == 0
    _, meta = load_model(model_path)
    assert meta["lambda_policy"].startswith("file:")
    # wrong length must be an input error
    widths_path.write_text("0.25\n0.25\n")
    assert run(["train", "--data", train, "--loss", "zero-one",
                "--lambda", f"file:{widths_path}"]) == 2


def test_train_alpha_point_estimate(demo_csv, tmp_path, capsys):
    train, _ = demo_csv
    model_path = tmp_path / "m.json"
    assert run(
        ["train", "--data", train, "--loss", "alpha:2", "--lambda", "0",
         "--out", str(model_path), "--max-iters", "1500"]
    ) == 0
    model, _ = load_model(model_path)
    assert model.loss.alpha == 2.0


def test_uniform_alpha_eval_risk(tmp_path, capsys):
    # 3-class data, uniform model: expected 0-1 risk is exactly 2/3
    rng = np.random.default_rng(3)
    from mrckit.core import Dataset

    data = Dataset(
        instances=rng.normal(size=(90, 1)),
        labels=rng.integers(1, 4, size=90),
        num_classes=3,
    )
    path = tmp_path / "d.csv"
    save_dataset(data, path)
    model_path = tmp_path / "m.json"
    assert run(
        ["train", "--data", str(path), "--loss", "zero-one", "--lambda", "1e6",
         "--out", str(model_path), "--max-iters", "500"]
    ) == 0
    capsys.readouterr()
    assert run(["eval", "--model", str(model_path), "--data", str(path)]) == 0
    out = capsys.readouterr().out
    risks = dict(l.split(" ", 1) for l in out.strip().splitlines())
    assert float(risks["zero_one_risk"]) == pytest.approx(2.0 / 3.0, abs=1e-6)


def test_predict_deterministic_with_seed(demo_csv, tmp_path):
    train, test = demo_csv
    model_path = tmp_path / "m.json"
    run(["train", "--data", train, "--loss", "zero-one", "--out", str(model_path)])
    p1, p2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
    assert run(["predict", "--model", str(model_path), "--data", test,
                "--seed", "9", "--out", str(p1)]) == 0
    assert run(["predict", "--model", str(model_path), "--data", test,
                "--seed", "9", "--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == "label,prob_1,prob_2,sampled"


def test_predict_rejects_negative_seed(demo_csv, tmp_path, capsys):
    train, test = demo_csv
    model_path = tmp_path / "m.json"
    run(["train", "--data", train, "--loss", "zero-one", "--out", str(model_path)])
    out = tmp_path / "p.csv"
    assert run(["predict", "--model", str(model_path), "--data", test, "--seed", "-1",
                "--out", str(out)]) == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_prediction_csv_is_reingestible(demo_csv, tmp_path):
    from mrckit.data_io import load_dataset, load_instances

    train, test = demo_csv
    model_path = tmp_path / "m.json"
    run(["train", "--data", train, "--loss", "zero-one", "--out", str(model_path)])
    preds = tmp_path / "p.csv"
    run(["predict", "--model", str(model_path), "--data", test,
         "--seed", "3", "--out", str(preds)])
    back = load_dataset(preds)  # label + numeric columns round-trip
    assert back.n == 200
    assert load_instances(preds).shape == (200, 3)  # prob_1, prob_2, sampled


def reference_prediction_csv(probs, sampled):
    """The row-at-a-time prediction output ``predict`` replaced, kept as its oracle."""
    labels = np.argmax(probs, axis=1) + 1
    header = ["label"] + [f"prob_{y}" for y in range(1, probs.shape[1] + 1)]
    if sampled is not None:
        header.append("sampled")
    rows = []
    for i in range(probs.shape[0]):
        row = [int(labels[i])] + [repr(float(v)) for v in probs[i]]
        if sampled is not None:
            row.append(int(sampled[i]))
        rows.append(row)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue().encode()


@pytest.mark.parametrize("seed", [None, 7])
@pytest.mark.parametrize("num_classes", [2, 4])
def test_predict_output_matches_row_at_a_time_writer(tmp_path, num_classes, seed):
    from mrckit.data_io import load_instances
    from mrckit.predictors import predict_probs, sample_labels

    if num_classes == 2:
        joint = two_class_demo_joint()
    else:
        joint = lattice_joint(np.random.default_rng([1, 4]))
    train, batch = tmp_path / "train.csv", tmp_path / "batch.csv"
    save_dataset(joint.sample(400, seed=1), train)
    save_dataset(joint.sample(5000, seed=2), batch)  # more rows than one write block
    model_path, out = tmp_path / "m.json", tmp_path / "p.csv"
    assert run(["train", "--data", str(train), "--loss", "log", "--max-iters", "200",
                "--out", str(model_path)]) == 0
    argv = ["predict", "--model", str(model_path), "--data", str(batch), "--out", str(out)]
    assert run(argv + ([] if seed is None else ["--seed", str(seed)])) == 0
    probs = predict_probs(load_model(model_path)[0], load_instances(batch))
    assert probs.shape == (5000, num_classes)
    sampled = None if seed is None else sample_labels(probs, seed)
    assert out.read_bytes() == reference_prediction_csv(probs, sampled)


def test_each_cli_fit_builds_one_atom_table(demo_csv, tmp_path, monkeypatch):
    from mrckit import cli
    from mrckit.core import ConstraintAtoms
    from mrckit.data_io import load_dataset
    from mrckit.features import StumpSpec, estimate_expectations, fit_thresholds

    train, _ = demo_csv
    data = load_dataset(train)
    fm = fit_thresholds(data, StumpSpec(20))
    widths, box, atoms = cli._box_and_atoms(fm, data, "0.25")
    alone = estimate_expectations(fm, data, widths)  # builds its own table
    assert box.mean.tobytes() == alone.mean.tobytes()
    assert (box.widths.tobytes(), box.n) == (alone.widths.tobytes(), alone.n)
    half = Dataset(instances=data.instances[:200], labels=data.labels[:200], num_classes=2)
    with pytest.raises(ValueError, match="not a table"):
        estimate_expectations(fm, half, widths, atoms)

    build = ConstraintAtoms.from_instances
    calls = []

    def counted(cls, *args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(ConstraintAtoms, "from_instances", classmethod(counted))
    assert run(["train", "--data", train, "--loss", "zero-one", "--lower"]) == 0
    assert len(calls) == 1
    calls.clear()
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"dataset": train, "train_sizes": [100], "repetitions": 1,
                                    "test_size": 100, "methods": ["mrc-zero-one", "mrc-log"],
                                    "max_iters": 200}))
    rows = cli._run_cell((cli._experiment_config(cfg_path), data, 100, 0))
    assert len(rows) == 2
    assert len(calls) == 1
    # all four methods: the fixed-marginal trainers take the cell's table too
    calls.clear()
    cfg_path.write_text(json.dumps({"dataset": train, "train_sizes": [100], "repetitions": 1,
                                    "test_size": 100, "max_iters": 200}))
    rows = cli._run_cell((cli._experiment_config(cfg_path), data, 100, 0))
    assert len(rows) == 4
    assert len(calls) == 1


def test_bounds_subcommand(demo_csv, tmp_path, capsys):
    train, _ = demo_csv
    model_path = tmp_path / "m.json"
    run(["train", "--data", train, "--loss", "log", "--out", str(model_path),
         "--max-iters", "1500"])
    capsys.readouterr()
    assert run(["bounds", "--model", str(model_path), "--data", train,
                "--lambda", "0.25"]) == 0
    out = capsys.readouterr().out
    values = dict(l.split(" ", 1) for l in out.strip().splitlines())
    lo, up = float(values["lower_bound"]), float(values["upper_bound"])
    wc = float(values["worst_case_risk"])
    assert lo <= wc + 1e-8
    assert wc <= up + 1e-6
    assert "interval_slack" in values and "point_slack" in values


def test_missing_file_exits_2(capsys):
    assert run(["train", "--data", "/nonexistent.csv", "--loss", "log"]) == 2


def test_malformed_csv_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("f1,label\n1.0,\n")
    assert run(["train", "--data", str(path), "--loss", "log"]) == 2


@pytest.mark.parametrize(
    "content, message",
    [
        ("f1,label\n0.5,1\ncaf\u00e9,2\n".encode("latin-1"), "bad.csv: not UTF-8 text"),
        (b'f1,label\n0.5,1\n"' + b"1" * (csv.field_size_limit() + 1) + b'",2\n',
         "bad.csv:3: field larger than field limit"),
    ],
    ids=["not-utf8", "field-over-limit"],
)
def test_unreadable_csv_exits_2_naming_the_file(tmp_path, capsys, content, message):
    path = tmp_path / "bad.csv"
    path.write_bytes(content)
    assert run(["train", "--data", str(path), "--loss", "log"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path}")
    assert message in err


def test_csv_with_byte_order_mark_trains(tmp_path, capsys):
    path = tmp_path / "excel.csv"
    rows = "\n".join(f"{y},{x}" for x, y in [(0.0, 1), (1.0, 1), (2.0, 2), (3.0, 2)])
    path.write_bytes(("\ufefflabel,f1\n" + rows + "\n").encode("utf-8"))
    assert run(["train", "--data", str(path), "--loss", "zero-one"]) == 0
    assert capsys.readouterr().out.startswith("upper_bound ")


def test_bad_loss_exits_2(demo_csv):
    train, _ = demo_csv
    assert run(["train", "--data", train, "--loss", "hinge"]) == 2


def test_alpha_whose_beta_rounds_to_one_exits_2(demo_csv, capsys):
    train, _ = demo_csv
    assert run(["train", "--data", train, "--loss", "alpha:1e16", "--max-iters", "5"]) == 2
    assert "use zero-one" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["1.0000000000000002", "0.9999999999999999"])
def test_alpha_whose_beta_exceeds_1e10_exits_2(demo_csv, capsys, alpha):
    train, _ = demo_csv
    assert run(["train", "--data", train, "--loss", f"alpha:{alpha}", "--max-iters", "5"]) == 2
    err = capsys.readouterr().err
    assert "use log" in err and "zero-one" not in err


def test_schema_mismatch_exits_2(demo_csv, tmp_path):
    train, _ = demo_csv
    model_path = tmp_path / "m.json"
    run(["train", "--data", train, "--loss", "zero-one", "--out", str(model_path)])
    narrow = tmp_path / "narrow.csv"
    narrow.write_text("f1,label\n1.0,1\n")
    assert run(["predict", "--model", str(model_path), "--data", str(narrow),
                "--out", str(tmp_path / "p.csv")]) == 2


def test_strict_nonconvergence_exits_3(demo_csv, tmp_path):
    train, _ = demo_csv
    code = run(
        ["train", "--data", train, "--loss", "log", "--strict", "--max-iters", "40"]
    )
    assert code == 3


def test_experiment_rows_and_determinism(demo_csv, tmp_path):
    train, _ = demo_csv
    config = {
        "dataset": train,
        "train_sizes": [60, 120],
        "repetitions": 2,
        "test_size": 100,
        "lambda": "0.25",
        "seed": 0,
        "max_iters": 800,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert run(["experiment", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert run(["experiment", "--config", str(cfg_path), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().splitlines()
    assert lines[0] == "n,seed,method,risk,upper,lower"
    assert len(lines) == 1 + 2 * 2 * 4  # sizes x reps x methods


def test_experiment_rejects_bad_config(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"dataset": "x.csv"}))
    assert run(["experiment", "--config", str(cfg_path)]) == 2
    cfg_path.write_text(json.dumps({
        "dataset": "x.csv", "train_sizes": [10], "repetitions": 1,
        "test_size": 5, "methods": ["svm"],
    }))
    assert run(["experiment", "--config", str(cfg_path)]) == 2


@pytest.mark.parametrize(
    "key, value",
    [("lambda", 0.25), ("max_leaves", "20"), ("step_c", "x"), ("max_iters", 2.5), ("seed", True),
     ("methods", 5), ("train_sizes", [True]), ("step_c", 0), ("step_c", -1), ("step_c", 1e400),
     ("max_iter", 5), ("seed", -3)],
)
def test_experiment_rejects_mistyped_config(demo_csv, tmp_path, capsys, key, value):
    train, _ = demo_csv
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "dataset": train, "train_sizes": [60], "repetitions": 1, "test_size": 50, key: value,
    }))
    assert run(["experiment", "--config", str(cfg_path)]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value, named",
    [("methods", ["mrc-log", "mrc-zero-one", "mrc-log"], "'mrc-log'"),
     ("train_sizes", [60, 40, 60], "60")],
    ids=["methods", "train_sizes"],
)
def test_experiment_rejects_repeated_entries(demo_csv, tmp_path, capsys, key, value, named):
    # a repeat would train identical models and write duplicate CSV rows
    train, _ = demo_csv
    cfg_path = tmp_path / "cfg.json"
    out = tmp_path / "r.csv"
    cfg_path.write_text(json.dumps({
        "dataset": train, "train_sizes": [60], "repetitions": 1, "test_size": 50,
        "max_iters": 50, key: value,
    }))
    assert run(["experiment", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert key in err and named in err
    assert not out.exists()


@pytest.mark.parametrize("flag", [["--solver", "exact"], ["--step-c", "0.3"]])
@pytest.mark.parametrize("command", ["train", "oracle"])
def test_solver_choice_and_step_scale_are_not_options(demo_csv, capsys, command, flag):
    train, _ = demo_csv
    with pytest.raises(SystemExit) as exc:
        run([command, "--data", train, "--loss", "zero-one", *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("classes", ["1", "0", "-3"])
@pytest.mark.parametrize("command", ["featurize", "train"])
def test_class_count_below_two_exits_2(demo_csv, tmp_path, capsys, command, classes):
    train, _ = demo_csv
    out = tmp_path / "out.json"
    argv = [command, "--data", train, "--classes", classes, "--out", str(out)]
    if command == "train":
        argv += ["--loss", "zero-one"]
    assert run(argv) == 2
    assert "num_classes" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, text", [("predict --model {} --data {}", "[1, 2]"), ("experiment --config {}", '"x.csv"')]
)
def test_non_object_json_file_exits_2(demo_csv, tmp_path, capsys, command, text):
    _, test = demo_csv
    path = tmp_path / "file.json"
    path.write_text(text)
    assert run(command.format(path, test).split()) == 2
    assert "JSON object" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bounds", ["0.5", "[0.1, 0.9]", '{"upper": 0.9}', '{"lower": 0.1}',
               '{"lower": "0.1", "upper": 0.9}', '{"lower": 0.1, "upper": NaN}',
               '{"lower": true, "upper": 0.9}'],
)
def test_eval_bounds_rejects_malformed_stored_bounds(demo_csv, tmp_path, capsys, bounds):
    train, test = demo_csv
    model_path = tmp_path / "m.json"
    assert run(["train", "--data", train, "--loss", "zero-one", "--lower",
                "--out", str(model_path)]) == 0
    obj = json.loads(model_path.read_text())
    obj["bounds"] = "@"
    model_path.write_text(json.dumps(obj).replace('"@"', bounds))
    capsys.readouterr()
    assert run(["eval", "--model", str(model_path), "--data", test, "--bounds"]) == 2
    assert "bounds" in capsys.readouterr().err


def test_zero_lower_bound_is_positive_zero(tmp_path, capsys):
    # every row has label 1, so the model's own rule can reach zero risk
    path = tmp_path / "one_class.csv"
    path.write_text("\n".join(["f1,label"] + [f"{i % 4}.0,1" for i in range(20)]) + "\n")
    model_path = tmp_path / "m.json"
    assert run(["train", "--data", str(path), "--loss", "zero-one", "--lower",
                "--out", str(model_path)]) == 0
    lines = dict(l.split(" ", 1) for l in capsys.readouterr().out.strip().splitlines())
    assert lines["lower_bound"] == "0.0"
    lower = json.loads(model_path.read_text())["bounds"]["lower"]
    assert lower == 0.0 and math.copysign(1.0, lower) == 1.0


def test_bounds_on_fixed_marginal_model_exits_2(demo_csv, tmp_path, capsys):
    from mrckit.data_io import load_dataset, save_model
    from mrckit.features import StumpSpec, fit_thresholds
    from mrckit.marginals import train_logreg
    from mrckit.solver import SolverConfig

    train, _ = demo_csv
    data = load_dataset(train)
    fm = fit_thresholds(data, StumpSpec(20))
    model = train_logreg(data, fm, 0.25, SolverConfig(max_iters=50))
    model_path = tmp_path / "m.json"
    save_model(model, model_path, "0.25", data.n)
    assert run(["bounds", "--model", str(model_path), "--data", train]) == 2
    assert "instance_marginal" in capsys.readouterr().err


@pytest.mark.parametrize("policy", ["nan", "inf", "file"])
def test_non_finite_widths_exit_2(demo_csv, tmp_path, policy):
    train, _ = demo_csv
    model_path = tmp_path / "m.json"
    if policy == "file":
        from mrckit.data_io import load_dataset
        from mrckit.features import StumpSpec, fit_thresholds

        dim = fit_thresholds(load_dataset(train), StumpSpec(20)).dim
        widths_path = tmp_path / "w.txt"
        widths_path.write_text("\n".join(["0.25"] * (dim - 1) + ["nan"]) + "\n")
        policy = f"file:{widths_path}"
    assert run(["train", "--data", train, "--loss", "log", "--lambda", policy,
                "--max-iters", "50", "--out", str(model_path)]) == 2
    assert not model_path.exists()


def test_predict_rejects_nan_model_exits_2(demo_csv, tmp_path):
    train, test = demo_csv
    model_path = tmp_path / "m.json"
    assert run(["train", "--data", train, "--loss", "zero-one", "--out", str(model_path)]) == 0
    obj = json.loads(model_path.read_text())
    obj["mu"][0] = float("nan")
    model_path.write_text(json.dumps(obj))
    assert run(["predict", "--model", str(model_path), "--data", test,
                "--out", str(tmp_path / "p.csv")]) == 2


@pytest.mark.parametrize(
    "key, text",
    [("converged", '"false"'), ("objective_value", "NaN"), ("num_classes", "2.9")],
    ids=["converged", "objective", "num-classes"],
)
def test_hand_edited_model_file_exits_2(demo_csv, tmp_path, capsys, key, text):
    train, test = demo_csv
    model_path = tmp_path / "m.json"
    assert run(["train", "--data", train, "--loss", "log", "--max-iters", "50",
                "--out", str(model_path)]) == 0
    obj = {**json.loads(model_path.read_text()), key: "@"}
    model_path.write_text(json.dumps(obj).replace('"@"', text))
    assert run(["eval", "--model", str(model_path), "--data", test]) == 2
    assert key in capsys.readouterr().err


def test_alpha_model_with_infeasible_offset_predicts(demo_csv, tmp_path, capsys):
    # an offset above every pattern's feasible one: each row takes its own
    train, test = demo_csv
    model_path = tmp_path / "m.json"
    assert run(["train", "--data", train, "--loss", "alpha:2", "--max-iters", "50",
                "--out", str(model_path)]) == 0
    obj = json.loads(model_path.read_text())
    obj["nu"] = 5.0
    model_path.write_text(json.dumps(obj))
    preds = tmp_path / "p.csv"
    assert run(["predict", "--model", str(model_path), "--data", test, "--out", str(preds)]) == 0
    probs = np.loadtxt(preds, delimiter=",", skiprows=1, usecols=(1, 2))
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert run(["eval", "--model", str(model_path), "--data", test]) == 0


def test_experiment_train_size_beyond_rows_exits_2(tmp_path):
    # 6 rows, 3 classes: 7 training rows cannot be drawn, however they are split
    rows = ["f1,label"] + [f"{i}.0,{i % 3 + 1}" for i in range(6)]
    data_path = tmp_path / "six.csv"
    data_path.write_text("\n".join(rows) + "\n")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "dataset": str(data_path), "train_sizes": [7], "repetitions": 1, "test_size": 1,
    }))
    assert run(["experiment", "--config", str(cfg_path)]) == 2


def test_oracle_subcommand(tmp_path, capsys):
    # tiny dataset with 2 distinct instances so enumeration stays cheap
    rows = ["f1,label"] + ["0.0,1"] * 6 + ["1.0,2"] * 6 + ["0.0,2", "1.0,1"]
    path = tmp_path / "tiny.csv"
    path.write_text("\n".join(rows) + "\n")
    assert run(["oracle", "--data", str(path), "--loss", "zero-one",
                "--lambda", "0.3", "--grid-step", "0.02"]) == 0
    out = capsys.readouterr().out
    values = dict(l.split(" ", 1) for l in out.strip().splitlines())
    bf = float(values["brute_force_max_entropy"])
    dual = float(values["dual_objective"])
    assert abs(bf - dual) <= 0.08


# address-space cap of the oracle's child process: an enumeration the budget
# should have refused then fails in the child instead of exhausting memory
ORACLE_AS_CAP = 1 << 30


def _cli_in_child(argv, as_cap, timeout):
    """``mrckit argv`` in a child process whose address space is capped at ``as_cap``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["OPENBLAS_NUM_THREADS"] = "1"
    code = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({as_cap}, {as_cap}))\n"
        "from mrckit.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    try:
        return subprocess.run(
            [sys.executable, "-c", code, *argv], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise AssertionError(f"mrckit {' '.join(argv)} did not finish within {timeout} s") from None


def _oracle_in_child(path, step):
    argv = ["oracle", "--data", str(path), "--loss", "zero-one", "--lambda", "0.3"]
    if step is not None:
        argv += ["--grid-step", step]
    return _cli_in_child(argv, ORACLE_AS_CAP, 120)


@pytest.mark.parametrize(
    "instances, step, code",
    [(3, "0.1", 0), (3, "0", 2), (3, "3", 2), (3, "inf", 2), (3, "0.3", 2), (3, "1e-9", 2),
     (3, "1e-310", 2), (4, None, 2)],
)
def test_oracle_refuses_bad_steps_and_oversized_lattices(tmp_path, instances, step, code):
    # 3 instances x 2 labels = 6 cells at a valid step is the control; 8 cells
    # at the default step 0.02 would enumerate 2.6e8 compositions (8.5 GB)
    rows = ["f1,label"] + [f"{x}.0,{y}" for x in range(instances) for y in (1, 1, 2)]
    path = tmp_path / "tiny.csv"
    path.write_text("\n".join(rows) + "\n")
    done = _oracle_in_child(path, step)
    assert done.returncode == code, done.stderr
    assert "Traceback" not in done.stderr
    if code == 2:
        assert done.stderr.startswith("error: ")


def test_train_on_values_near_the_float_limit(tmp_path):
    # the midpoint 0.5 * (1e308 + 1.6e308) of these finite values overflows
    path = tmp_path / "huge.csv"
    path.write_text("f1,label\n1e308,1\n1e308,1\n1.6e308,2\n1.6e308,2\n")
    done = _cli_in_child(["train", "--data", str(path), "--loss", "zero-one"], ORACLE_AS_CAP, 120)
    assert done.returncode == 0, done.stderr
    assert "upper_bound" in done.stdout


def test_bounds_on_model_with_infeasible_offset_exits_2(demo_csv, tmp_path, capsys):
    # a raised offset breaks dual feasibility, so the dual value bounds nothing
    train, _ = demo_csv
    model_path = tmp_path / "m.json"
    assert run(["train", "--data", train, "--loss", "alpha:2", "--max-iters", "2000",
                "--out", str(model_path)]) == 0
    assert run(["bounds", "--model", str(model_path), "--data", train]) == 0
    obj = json.loads(model_path.read_text())
    obj["nu"] += 0.05
    model_path.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run(["bounds", "--model", str(model_path), "--data", train]) == 2
    assert "residual" in capsys.readouterr().err


def twelve_class_table():
    """1200 rows, one feature uniform on 0..11, label = feature + 1 with
    probability 0.8 (else uniform): 12 patterns, so a full 0-1 subset LP of
    12 * (2^12 - 1) = 49 140 rows."""
    rng = np.random.default_rng(0)
    x = rng.integers(0, 12, 1200)
    labels = np.where(rng.random(1200) < 0.8, x + 1, rng.integers(1, 13, 1200))
    return Dataset(instances=x[:, None].astype(np.float64), labels=labels, num_classes=12)


def test_zero_one_trains_exactly_at_twelve_classes(tmp_path):
    path = tmp_path / "twelve.csv"
    save_dataset(twelve_class_table(), path)
    argv = ["train", "--data", str(path), "--loss", "zero-one", "--lower", "--strict"]
    done = _cli_in_child(argv, 2 << 30, 60)
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    upper, lower = done.stdout.splitlines()
    assert upper.startswith("upper_bound ") and lower.startswith("lower_bound ")


def test_exact_lp_adds_at_most_one_row_per_pattern_per_round(monkeypatch):
    from mrckit import solver
    from mrckit.features import StumpSpec, constraint_atoms, estimate_expectations, fit_thresholds
    from mrckit.simplex import solve_lp

    data = twelve_class_table()
    fm = fit_thresholds(data, StumpSpec(20))
    atoms = constraint_atoms(fm, data)
    assert (atoms.count, fm.dim) == (12, 144)
    box = estimate_expectations(fm, data, np.full(fm.dim, 0.25))
    rows = []

    def counting(c, A, b, cuts):
        rows.append(len(A))

        def counted(x):
            found = cuts(x)
            if found is not None:
                rows.append(len(found[0]))
            return found

        return solve_lp(c, A, b, counted)

    monkeypatch.setattr(solver, "solve_lp", counting)
    model = solver.train_zero_one_exact(box, atoms)
    assert model.converged
    assert rows[0] == atoms.count * atoms.num_classes
    assert len(rows) > 1 and all(0 < k <= atoms.count for k in rows[1:])

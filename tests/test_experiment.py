"""``mrckit experiment``: the stratified split, the process pool and MRC_THREADS."""

import concurrent.futures
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mrckit import cli
from mrckit.core import Dataset
from mrckit.data_io import InputError, save_dataset
from mrckit.datasets import two_class_demo_joint


def reference_split(data, n_train, n_test, rng):
    """The dict-based stratified split that the array version must reproduce."""
    per_class = {}
    for y in range(1, data.num_classes + 1):
        per_class[y] = np.nonzero(data.labels == y)[0]
    counts = {y: idx.shape[0] for y, idx in per_class.items()}
    total = data.n
    if n_train + n_test > total:
        raise InputError("dataset too small")
    take = {y: int(round(n_train * counts[y] / total)) for y in per_class}
    drift = n_train - sum(take.values())
    order = sorted(per_class, key=lambda y: -counts[y])
    i = 0
    while drift != 0:
        y = order[i % len(order)]
        step = 1 if drift > 0 else -1
        if 0 <= take[y] + step <= counts[y]:
            take[y] += step
            drift -= step
        i += 1
    train_idx = []
    for y in sorted(per_class):
        train_idx.append(rng.choice(per_class[y], size=take[y], replace=False))
    train_idx = np.concatenate(train_idx)
    rest = np.setdiff1d(np.arange(total), train_idx)
    return train_idx, rng.choice(rest, size=n_test, replace=False)


@st.composite
def split_cases(draw):
    k = draw(st.integers(2, 6))
    # skewed mixes: some classes empty, some tiny, some large
    counts = draw(st.lists(st.integers(0, 120), min_size=k, max_size=k).filter(lambda c: sum(c) >= 2))
    labels = np.repeat(np.arange(1, k + 1), counts)
    np.random.default_rng(draw(st.integers(0, 2**16))).shuffle(labels)
    n = labels.shape[0]
    n_train = draw(st.integers(1, n))
    n_test = draw(st.integers(1, n))
    data = Dataset(instances=np.zeros((n, 1)), labels=labels, num_classes=k)
    return data, n_train, n_test, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(case=split_cases())
def test_stratified_split_matches_the_reference(case):
    data, n_train, n_test, seed = case
    if n_train + n_test > data.n:
        with pytest.raises(InputError):
            cli._stratified_split(data, n_train, n_test, np.random.default_rng(seed))
        return
    got = cli._stratified_split(data, n_train, n_test, np.random.default_rng(seed))
    want = reference_split(data, n_train, n_test, np.random.default_rng(seed))
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)


@pytest.fixture(scope="module")
def config(tmp_path_factory):
    root = tmp_path_factory.mktemp("experiment")
    data_path = root / "train.csv"
    save_dataset(two_class_demo_joint().sample(300, seed=1), data_path)
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps({
        "dataset": str(data_path), "train_sizes": [60, 120], "repetitions": 1,
        "test_size": 100, "max_iters": 300,
    }))
    return cfg_path


def test_pool_has_at_most_one_worker_per_cell(config, tmp_path, monkeypatch):
    seen = []

    class RecordingExecutor:
        """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setenv("MRC_THREADS", "64")
    assert cli.main(["experiment", "--config", str(config), "--out", str(tmp_path / "r.csv")]) == 0
    assert seen == [2]  # two cells


@pytest.mark.parametrize("value", ["abc", "-1", "2.5", ""])
def test_bad_thread_count_exits_2_naming_it(config, monkeypatch, capsys, value):
    monkeypatch.setenv("MRC_THREADS", value)
    assert cli.main(["experiment", "--config", str(config)]) == 2
    assert "MRC_THREADS" in capsys.readouterr().err


def test_pool_and_in_process_runs_write_identical_csvs(config, tmp_path, monkeypatch):
    outputs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("MRC_THREADS", threads)
        out = tmp_path / f"r{threads}.csv"
        assert cli.main(["experiment", "--config", str(config), "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert len(outputs[0].decode().splitlines()) == 1 + 2 * 4  # sizes x methods

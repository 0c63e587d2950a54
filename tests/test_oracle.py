import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mrckit.core import AlphaLoss, ConstraintAtoms, ExpectationBox, FeatureMap, LogLoss, ZeroOneLoss
from mrckit.oracle import (
    brute_force_max_entropy,
    cell_features,
    compositions,
    exhaustive_minimax,
)
from mrckit.solver import SolverConfig, train_mrc, train_zero_one_exact

ZO = ZeroOneLoss()
LG = LogLoss()


def label_frequency_setup():
    fm = FeatureMap(num_classes=2, thresholds=())
    instances = np.array([[0.0]])
    box = ExpectationBox([0.5, 0.5], [0.0, 0.0], 4)
    return fm, instances, box


def three_instance_setup(widths=0.0):
    fm = FeatureMap(num_classes=2, thresholds=((1, 0.5), (1, 1.5)))
    instances = np.array([[0.0], [1.0], [2.0]])
    joint = np.array([[0.25, 0.05], [0.10, 0.20], [0.05, 0.35]])
    mean = joint.ravel() @ cell_features(fm, instances)
    box = ExpectationBox(mean, np.full(6, widths), 100)
    return fm, instances, box


def test_compositions_counts_and_sums():
    comp = compositions(4, 3)
    assert comp.shape == (15, 3)  # C(6, 2)
    assert np.all(comp.sum(axis=1) == 4)
    assert len(np.unique(comp, axis=0)) == 15


def test_compositions_single_part():
    np.testing.assert_array_equal(compositions(7, 1), [[7]])


def reference_compositions(units, parts):
    """Level-by-level expansion of all prefixes, the enumeration ``compositions``
    replaced; the rows it must reproduce, in the same order."""
    prefix = np.zeros((1, 0), dtype=np.int32)
    remaining = np.array([units], dtype=np.int32)
    for _ in range(parts - 1):
        reps = remaining + 1
        row_of = np.repeat(np.arange(remaining.shape[0]), reps)
        offsets = np.concatenate([[0], np.cumsum(reps)[:-1]])
        first = np.arange(reps.sum(), dtype=np.int32) - np.repeat(offsets, reps)
        prefix = np.hstack([prefix[row_of], first[:, None]])
        remaining = remaining[row_of] - first
    return np.hstack([prefix, remaining[:, None]])


@settings(max_examples=100, deadline=None)
@given(units=st.integers(0, 25), parts=st.integers(1, 6))
def test_compositions_match_reference_rows_as_int32(units, parts):
    comp = compositions(units, parts)
    assert comp.dtype == np.int32
    np.testing.assert_array_equal(comp, reference_compositions(units, parts))


def test_compositions_peak_memory_within_twice_the_result():
    tracemalloc.start()
    try:
        comp = compositions(40, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert comp.shape == (math.comb(45, 5), 6)
    assert peak <= 2 * comp.nbytes, f"peak {peak} B for a {comp.nbytes} B table"


def test_oracle_peak_memory_holds_one_lattice_block():
    # three instances x two labels at step 0.02: the whole lattice is
    # comb(55, 5) x 6 int32 (83 MB); the largest block of completions after
    # one leading entry is comb(54, 4) x 5 int32 (6.3 MB)
    fm, instances, box = three_instance_setup(0.05)
    tracemalloc.start()
    try:
        value = brute_force_max_entropy(ZO, fm, instances, box, 0.02)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert math.isfinite(value)
    assert peak <= 64e6, f"peak {peak} B"


def test_label_frequency_pinch():
    fm, instances, box = label_frequency_setup()
    assert brute_force_max_entropy(ZO, fm, instances, box, 0.02) == pytest.approx(
        0.5, abs=0.1
    )
    assert brute_force_max_entropy(LG, fm, instances, box, 0.02) == pytest.approx(
        math.log(2.0), abs=0.1
    )


def test_unconstrained_box_reaches_uniform():
    fm, instances, _ = label_frequency_setup()
    box = ExpectationBox([0.5, 0.5], [1e6, 1e6], 4)
    assert brute_force_max_entropy(ZO, fm, instances, box, 0.01) == pytest.approx(
        0.5, abs=1e-9
    )
    assert brute_force_max_entropy(LG, fm, instances, box, 0.01) == pytest.approx(
        math.log(2.0), abs=1e-9
    )


def test_point_mass_box_gives_bayes_risk():
    fm, instances, _ = label_frequency_setup()
    box = ExpectationBox([0.8, 0.2], [0.0, 0.0], 4)
    v = brute_force_max_entropy(ZO, fm, instances, box, 0.02)
    assert v == pytest.approx(0.2, abs=0.05)
    mm = exhaustive_minimax(ZO, fm, instances, box, 0.02, 0.02)
    assert mm == pytest.approx(0.2, abs=0.06)


def test_empty_filtered_set_warns_and_returns_neg_inf():
    fm, instances, _ = label_frequency_setup()
    box = ExpectationBox([0.9, 0.9], [0.0, 0.0], 4)  # no distribution fits
    with pytest.warns(UserWarning):
        v = brute_force_max_entropy(ZO, fm, instances, box, 0.05)
    assert v == -math.inf


def test_oracle_monotone_in_widths():
    fm, instances, box0 = three_instance_setup(0.0)
    values = []
    for w in (0.0, 0.3, 0.8, 2.0):
        box = ExpectationBox(box0.mean, np.full(6, w), 100)
        values.append(brute_force_max_entropy(ZO, fm, instances, box, 0.05))
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("loss", [ZO, LG, AlphaLoss(2.0)])
def test_dual_within_grid_slack_of_oracle(loss):
    fm, instances, box = three_instance_setup(0.5)
    atoms = ConstraintAtoms.from_instances(fm, instances)
    oracle = brute_force_max_entropy(loss, fm, instances, box, 0.02)
    model = train_mrc(loss, box, atoms, SolverConfig(max_iters=40000, c=0.2))
    # the slack-padded grid overshoots, the dual never undershoots
    assert model.objective_value <= oracle + 1e-4
    assert model.objective_value >= oracle - 0.08


def test_minimax_equals_max_entropy_within_slack():
    fm, instances, box = three_instance_setup(0.5)
    bf = brute_force_max_entropy(ZO, fm, instances, box, 0.05)
    mm = exhaustive_minimax(ZO, fm, instances, box, 0.05, 0.05)
    assert abs(mm - bf) <= 2 * (0.05 + 0.05)


def test_minimax_with_exact_dual():
    fm, instances, box = three_instance_setup(0.0)
    atoms = ConstraintAtoms.from_instances(fm, instances)
    exact = train_zero_one_exact(box, atoms)
    mm = exhaustive_minimax(ZO, fm, instances, box, 0.05, 0.05)
    # the distribution grid slack inflates the box by one step at most
    assert exact.objective_value - 0.01 <= mm <= exact.objective_value + 0.2


def test_instance_marginal_filter():
    fm, instances, box0 = three_instance_setup(1.0)
    marginal = np.array([0.3, 0.3, 0.4])
    constrained = brute_force_max_entropy(
        ZO, fm, instances, box0, 0.05, instance_marginal=marginal
    )
    free = brute_force_max_entropy(ZO, fm, instances, box0, 0.05)
    assert constrained <= free + 1e-12


def test_gridded_subset_relation():
    # fixing the instances' marginal can only shrink the feasible set
    fm, instances, box = three_instance_setup(0.4)
    marg = np.array([0.30, 0.30, 0.40])
    for loss in (ZO, LG):
        constrained = brute_force_max_entropy(
            loss, fm, instances, box, 0.05, instance_marginal=marg
        )
        free = brute_force_max_entropy(loss, fm, instances, box, 0.05)
        assert constrained <= free + 1e-12

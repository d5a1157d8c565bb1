import numpy as np
import pytest

from cyclescreen.dataset import ingest_cycles, read_labels
from cyclescreen.errors import AnomalySpecError
from cyclescreen.synth import AnomalySpec, FadeModel, generate_cell, write_dataset


def test_same_seed_same_samples():
    a, truth_a = generate_cell(12, seed=9, cell_id="X")
    b, truth_b = generate_cell(12, seed=9, cell_id="X")
    assert truth_a == truth_b
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.samples, rb.samples)


def test_different_seeds_differ():
    a, _ = generate_cell(5, seed=1)
    b, _ = generate_cell(5, seed=2)
    assert not np.array_equal(a[0].samples, b[0].samples)


def test_truth_set_matches_requested_cycles():
    specs = (
        AnomalySpec("point", (3, 7), 0.2),
        AnomalySpec("global", (10,), 0.5, channel="capacity"),
    )
    _records, truth = generate_cell(12, anomalies=specs, seed=0)
    assert truth == {3, 7, 10}


def test_point_anomaly_disturbs_one_sample():
    clean, _ = generate_cell(4, samples_per_cycle=32, seed=5)
    spiked, _ = generate_cell(
        4, samples_per_cycle=32, seed=5,
        anomalies=(AnomalySpec("point", (2,), 0.3),),
    )
    diff = spiked[2].samples[:, 1] - clean[2].samples[:, 1]
    assert np.count_nonzero(diff) == 1
    assert diff[16] == pytest.approx(0.3)
    assert np.array_equal(spiked[1].samples, clean[1].samples)


def test_collective_anomaly_shifts_a_block():
    clean, _ = generate_cell(3, samples_per_cycle=30, seed=5)
    shifted, _ = generate_cell(
        3, samples_per_cycle=30, seed=5,
        anomalies=(AnomalySpec("collective", (1,), 0.2),),
    )
    diff = shifted[1].samples[:, 1] - clean[1].samples[:, 1]
    hits = np.nonzero(diff)[0]
    assert hits.size >= 2
    assert np.all(np.diff(hits) == 1)  # contiguous block


def test_level_shift_leaves_differences_untouched():
    clean, _ = generate_cell(3, samples_per_cycle=24, seed=3)
    bumped, _ = generate_cell(
        3, samples_per_cycle=24, seed=3,
        anomalies=(AnomalySpec("local", (0,), 0.1),),
    )
    assert np.allclose(
        np.diff(bumped[0].samples[:, 1]), np.diff(clean[0].samples[:, 1])
    )
    assert np.allclose(bumped[0].samples[:, 1] - clean[0].samples[:, 1], 0.1)


def test_channel_routing():
    clean, _ = generate_cell(2, seed=4)
    both, _ = generate_cell(
        2, seed=4, anomalies=(AnomalySpec("local", (1,), 0.2, channel="both"),)
    )
    assert not np.allclose(both[1].samples[:, 1], clean[1].samples[:, 1])
    assert not np.allclose(both[1].samples[:, 2], clean[1].samples[:, 2])
    cap_only, _ = generate_cell(
        2, seed=4, anomalies=(AnomalySpec("local", (1,), 0.2, channel="capacity"),)
    )
    assert np.allclose(cap_only[1].samples[:, 1], clean[1].samples[:, 1])


def test_spec_validation():
    with pytest.raises(AnomalySpecError):
        AnomalySpec("drift", (1,), 0.1)
    with pytest.raises(AnomalySpecError):
        AnomalySpec("point", (1,), -0.5)
    with pytest.raises(AnomalySpecError):
        AnomalySpec("point", (1,), 0.1, channel="temperature")
    with pytest.raises(AnomalySpecError):
        generate_cell(5, anomalies=(AnomalySpec("point", (9,), 0.1),))
    with pytest.raises(AnomalySpecError):
        generate_cell(0)
    with pytest.raises(AnomalySpecError):
        generate_cell(3, samples_per_cycle=2)


def test_clean_curve_shape():
    fade = FadeModel(voltage_noise=0.0, capacity_jitter=0.0)
    records, truth = generate_cell(3, samples_per_cycle=50, fade=fade, seed=0)
    assert truth == set()
    v = records[0].samples[:, 1]
    q = records[0].samples[:, 2]
    t = records[0].samples[:, 0]
    assert v[0] == pytest.approx(fade.plateau_voltage, abs=0.05)
    assert v[-1] < v[0] - 0.8  # rolled off through the knee
    assert np.all(np.diff(q) > 0)  # capacity accumulates monotonically
    assert t[0] == 0.0 and t[-1] == fade.duration_s
    # later cycles carry less capacity
    assert records[2].samples[-1, 2] < records[0].samples[-1, 2] + 3 * fade.initial_capacity * 1e-3


def test_write_dataset_round_trip(tmp_path):
    cells = {
        "S1": generate_cell(6, seed=1, cell_id="S1",
                            anomalies=(AnomalySpec("point", (2,), 0.3),)),
        "S2": generate_cell(4, seed=2, cell_id="S2"),
    }
    meas = tmp_path / "meas.csv"
    labels = tmp_path / "labels.csv"
    write_dataset(cells, str(meas), str(labels))
    store = ingest_cycles(str(meas))
    assert {r.cell_id for r in store.records} == {"S1", "S2"}
    assert sum(1 for r in store.records if r.cell_id == "S1") == 6
    got = read_labels(str(labels))
    assert got == {"S1": {2}}

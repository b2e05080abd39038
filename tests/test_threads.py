"""Threaded k-d queries give the bytes a serial run gives.

Every cKDTree query in the package runs with workers=-1. Each query row is
answered on its own, so the thread count must not change a result, even on
a lattice where most rows hold exact distance ties.
"""

import os
import sys
import threading

import numpy as np
import pytest

from pclabel import (
    KnnClassifier,
    LabelField,
    LogitNoiseSpec,
    PointCloud,
    SpatialIndex,
    StlpConfig,
    corrupt_logits,
)
from pclabel import pointcloud, stlp, synth

from conftest import assert_knn_rows, record_queries, shuffled_lattice


def lattice_cloud(seed):
    rng = np.random.default_rng(seed)
    pos = shuffled_lattice(rng, 6, 40)
    colors = (rng.integers(0, 3, (len(pos), 1)) * 100 * np.ones(3)).astype(np.uint8)
    labels = LabelField(rng.integers(-1, 4, len(pos)), 4)
    return PointCloud(pos, colors), labels


def run_sites(cloud, labels):
    """The outputs of the three query sites on one cloud."""
    index = SpatialIndex(cloud.positions)
    out = [*index.neighbors(cloud.positions, 16),
           *index.neighbors(cloud.positions, 11),
           # A fresh index: k=9 is queried, not read from a cached answer.
           *SpatialIndex(cloud.positions).neighbors(cloud.positions, 9)]
    pred, conf = KnnClassifier(StlpConfig(knn_k=9)).fit(cloud, labels).predict(cloud)
    out += [pred.values, conf]
    out.append(corrupt_logits(labels, cloud, LogitNoiseSpec(boundary_blur=1.0, seed=4)))
    return out


@pytest.mark.parametrize("seed", range(3))
def test_threaded_matches_serial(seed, monkeypatch):
    cloud, labels = lattice_cloud(seed)
    with monkeypatch.context() as m:
        threaded_calls = record_queries(m, pointcloud, stlp, synth)
        threaded = run_sites(cloud, labels)
    serial_calls = record_queries(monkeypatch, pointcloud, stlp, synth, workers=1)
    serial = run_sites(cloud, labels)
    assert {c["workers"] for c in threaded_calls} == {-1}
    assert len(serial_calls) == len(threaded_calls)
    for got, want in zip(threaded, serial):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    for i, d in zip(threaded[0:6:2], threaded[1:6:2]):
        assert_knn_rows(cloud.positions, i, d)


def test_concurrent_callers_of_one_fresh_index(monkeypatch):
    # More callers than cores (on up to 8 cores), all racing to fill one
    # index's cache at different k, with thread switches forced often.
    # Each query runs on 2 threads, so the test starts at most 20.
    cloud, _ = lattice_cloud(7)
    pos = cloud.positions
    ks = (16, 11, 4, 16, 27)
    want = {k: SpatialIndex(pos).neighbors(pos, k) for k in ks}
    record_queries(monkeypatch, pointcloud, workers=2)
    callers = min(os.cpu_count() or 1, 8) + 2
    index = SpatialIndex(pos)
    start = threading.Barrier(callers)
    results = [None] * callers

    def order(slot):
        return ks[slot % len(ks):] + ks[:slot % len(ks)]

    def ask(slot):
        start.wait(timeout=60)
        results[slot] = [index.neighbors(pos, k) for k in order(slot)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask, args=(slot,), daemon=True)
                   for slot in range(callers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    for slot, answers in enumerate(results):
        assert answers is not None
        for k, (i, d) in zip(order(slot), answers):
            assert np.array_equal(i, want[k][0]) and np.array_equal(d, want[k][1])

"""Threaded k-d queries and pooled row blocks give the bytes a serial run gives.

The row blocks of normal estimation, of the over-segmentation angle gate
and of k-NN predict run on a thread per core (`pclabel.domain.for_blocks`).
The k-d queries of predict run one per block on that block's thread
(workers=1); every other cKDTree query in the package runs with
workers=-1. Each query row, point and edge is computed on its own, so the
thread count must not change a result, even on a lattice where most rows
hold exact distance ties and most neighborhoods are degenerate.
"""

import os
import sys
import threading

import numpy as np
import pytest

from pclabel import (
    KnnClassifier,
    LogitNoiseSpec,
    SpatialIndex,
    StlpConfig,
    corrupt_logits,
    estimate_normals,
    oversegment,
)
from pclabel import domain, pointcloud, stlp, synth

from conftest import assert_knn_rows, force_blocks, lattice_cloud, record_queries


def run_sites(cloud, labels):
    """The outputs of the three query sites and the two pooled passes on one
    cloud."""
    index = SpatialIndex(cloud.positions)
    out = [*index.neighbors(cloud.positions, 16),
           *index.neighbors(cloud.positions, 11),
           # A fresh index: k=9 is queried, not read from a cached answer.
           *SpatialIndex(cloud.positions).neighbors(cloud.positions, 9)]
    pred, conf = KnnClassifier(StlpConfig(knn_k=9)).fit(cloud, labels).predict(cloud)
    out += [pred.values, conf]
    out.append(corrupt_logits(labels, cloud, LogitNoiseSpec(boundary_blur=1.0, seed=4)))
    normals = estimate_normals(cloud, index, 16)
    out += [normals, oversegment(cloud, normals, index, 15.0, 10, 4).assignment]
    return out


@pytest.mark.parametrize("seed", range(3))
def test_threaded_matches_serial(seed, monkeypatch):
    # 4 workers on any core count: 37 blocks of normals, 23 of the angle
    # gate, 8 of predict. Predict asks k + 1 = 10 neighbours a row, then
    # asks the rows whose 9th and 10th distances tie again, wider.
    cloud, labels = lattice_cloud(seed)
    with monkeypatch.context() as m:
        knn_calls = record_queries(m, stlp)
        other_calls = record_queries(m, pointcloud, synth)
        force_blocks(m, 4, 7, 48)
        threaded = run_sites(cloud, labels)
    serial_calls = record_queries(monkeypatch, pointcloud, stlp, synth, workers=1)
    force_blocks(monkeypatch, 1, 7, 48)
    serial = run_sites(cloud, labels)
    assert [c["k"] for c in knn_calls].count(10) == 8 < len(knn_calls)
    assert {c["workers"] for c in knn_calls} == {1}
    assert {c["workers"] for c in other_calls} == {-1}
    assert len(serial_calls) == len(knn_calls) + len(other_calls)
    for got, want in zip(threaded, serial):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    for i, d in zip(threaded[0:6:2], threaded[1:6:2]):
        assert_knn_rows(cloud.positions, i, d)


def test_predict_queries_one_thread_per_block(monkeypatch):
    # The pool supplies the cores: a block's k-d query starts no threads of
    # its own, however many workers run the blocks.
    cloud, labels = lattice_cloud(0)
    calls = record_queries(monkeypatch, stlp)
    force_blocks(monkeypatch, 8, 5, 10)
    KnnClassifier(StlpConfig(knn_k=9)).fit(cloud, labels).predict(cloud)
    assert {c["workers"] for c in calls} == {1}
    # Each block asks k + 1 = 10 neighbours a row; its tied rows ask again.
    first = [c["rows"] for c in calls if c["k"] == 10]
    assert first.count(5) == cloud.count // 5 and sum(first) == cloud.count


class TestForBlocks:
    @pytest.mark.parametrize("workers", [1, 2, 7])
    @pytest.mark.parametrize("n", [0, 1, 6, 7, 50])
    def test_blocks_cover_every_row_once(self, monkeypatch, workers, n):
        force_blocks(monkeypatch, workers, 3, 2)
        seen = []
        domain.for_blocks(n, 2, seen.append)
        rows = sorted(r for block in seen for r in range(n)[block])
        assert rows == list(range(n))
        assert all(len(range(n)[block]) <= 3 for block in seen)

    @pytest.mark.parametrize("workers, n, sizes", [
        (4, 10, [3, 3, 3, 1]), (4, 3, [1, 1, 1]), (4, 21, [5, 5, 5, 5, 1]), (1, 7, [5, 2])])
    def test_a_small_pass_is_shared_by_the_workers(self, monkeypatch, workers, n, sizes):
        # Blocks of at most ceil(n / workers) rows, within a budget of 5
        # rows a block.
        force_blocks(monkeypatch, workers, 5)
        seen = []
        domain.for_blocks(n, 1, seen.append)
        assert [len(range(n)[block]) for block in sorted(seen, key=lambda b: b.start)] == sizes

    def test_budget_is_shared_by_the_workers(self, monkeypatch):
        force_blocks(monkeypatch, 8)
        seen = []
        domain.for_blocks(10**6, 3, seen.append)
        assert {block.stop - block.start for block in seen} == {domain.BLOCK_ENTRIES // 24}

    @pytest.mark.parametrize("cores, workers", [(3, 3), (None, 1)])
    def test_cores_counted_where_affinity_is_unknown(self, monkeypatch, cores, workers):
        # Off Linux, os has no sched_getaffinity; the machine's cores count.
        monkeypatch.delattr(domain.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(domain.os, "cpu_count", lambda: cores)
        seen = []
        domain.for_blocks(10**6, 3, seen.append)
        want = domain.BLOCK_ENTRIES // (3 * workers)
        assert {block.stop - block.start for block in seen} == {want}

    def test_blocks_run_at_once_and_no_thread_outlives_the_call(self, monkeypatch):
        # Each block waits for the other: run one after the other, the
        # barrier times out.
        force_blocks(monkeypatch, 2, 1)
        before = threading.active_count()
        meet = threading.Barrier(2)
        domain.for_blocks(2, 1, lambda rows: meet.wait(timeout=10))
        assert threading.active_count() == before

    def test_shared_output_under_forced_switches(self, monkeypatch):
        # Blocks update their rows of one array in place, as the angle gate
        # does, on more workers than cores (up to 8), switching often.
        force_blocks(monkeypatch, min(os.cpu_count() or 1, 8) + 2, 3)
        want = np.arange(10_000) % 3 == 0
        got = np.ones(want.size, dtype=bool)

        def body(rows):
            got[rows] &= want[rows]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            domain.for_blocks(want.size, 1, body)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_error_in_a_block_is_raised(self, monkeypatch, workers):
        force_blocks(monkeypatch, workers, 1)

        def body(rows):
            if rows.start == 5:
                raise ValueError("block 5")

        with pytest.raises(ValueError, match="block 5"):
            domain.for_blocks(9, 1, body)


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

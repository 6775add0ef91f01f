"""§6 ablation — unstable-op buffer backends under Eunomia's access mix.

Two layers of benchmarks:

* ``bench_opbuffer_ingestion`` — the stabilization hot path end to end at
  the buffer level: per-partition monotone batches interleaved at random
  (exactly what Algorithm 3 feeds the buffer), periodic FIND_STABLE drains.
  Swept over backend × batch size; the run-aware backend's O(1) appends
  must beat the red–black tree's O(log n) inserts by ≥3× at batch ≥ 8 —
  the acceptance bar of the ``buffer_backend="runs"`` change, gated by
  ``scripts/bench_gate.py`` against the committed baseline.
* the red–black tree micro-benches (insert-heavy mix, random inserts,
  prefix extraction), kept as the tree-level ground truth.
"""

import random

import pytest

from repro.datastruct import OpBuffer, RedBlackTree

N_OPS = 20_000


# ----------------------------------------------------------------------
# Buffer-level ingestion: backend x batch size
# ----------------------------------------------------------------------
def monotone_batches(n_partitions, batch, n_ops, seed=17):
    """Randomly interleaved batches, monotone timestamps per partition."""
    rng = random.Random(seed)
    clocks = [0] * n_partitions
    seqs = [0] * n_partitions
    batches = []
    produced = 0
    while produced < n_ops:
        p = rng.randrange(n_partitions)
        ops = []
        for _ in range(batch):
            clocks[p] += rng.randrange(1, 10)
            seqs[p] += 1
            ops.append((clocks[p], p, seqs[p]))
        batches.append(ops)
        produced += batch
    return batches


def opbuffer_ingestion(backend, batches, stab_every):
    """Ingest every batch; drain the stable prefix every ``stab_every``."""
    buf = OpBuffer(backend=backend)
    add = buf.add
    floor = 0
    for i, ops in enumerate(batches):
        for ts, origin, seq in ops:
            add(ts, origin, seq, None)
        if i % stab_every == stab_every - 1:
            floor = max(floor, ops[-1][0] - 200)
            buf.pop_stable(floor)
    buf.pop_stable(float("inf"))
    return buf


@pytest.mark.parametrize("batch", [1, 8, 64],
                         ids=["b1", "b8", "b64"])
@pytest.mark.parametrize("backend", ["runs", "rbtree"])
def bench_opbuffer_ingestion(benchmark, backend, batch):
    batches = monotone_batches(n_partitions=16, batch=batch, n_ops=N_OPS)
    stab_every = max(1, 400 // batch)   # ~one drain per 400 ops, every size
    result = benchmark(opbuffer_ingestion, backend, batches, stab_every)
    assert result.total_added >= N_OPS
    assert len(result) == 0             # fully drained


# ----------------------------------------------------------------------
# Tree-level primitives (the paper's red-black tree)
# ----------------------------------------------------------------------


def eunomia_access_pattern(tree_cls, n_ops=N_OPS, stab_every=500):
    """Insert timestamps in arrival order; pop the stable prefix periodically.

    Timestamps are mostly increasing with bounded out-of-order arrivals —
    the shape Eunomia sees from loosely synchronized partitions.
    """
    rng = random.Random(7)
    tree = tree_cls()
    clock = 0
    stable = 0
    for i in range(n_ops):
        clock += rng.randrange(1, 10)
        tree.insert(clock - rng.randrange(0, 50), i)
        if i % stab_every == stab_every - 1:
            stable = clock - 100
            tree.pop_leq(stable)
    return tree


@pytest.mark.parametrize("tree_cls", [RedBlackTree], ids=["red-black"])
def bench_eunomia_buffer_pattern(benchmark, tree_cls):
    benchmark(eunomia_access_pattern, tree_cls)


@pytest.mark.parametrize("tree_cls", [RedBlackTree], ids=["red-black"])
def bench_random_inserts(benchmark, tree_cls):
    rng = random.Random(11)
    keys = [rng.randrange(10**9) for _ in range(N_OPS)]

    def insert_all():
        tree = tree_cls()
        for k in keys:
            tree.insert(k, k)
        return tree

    benchmark(insert_all)


@pytest.mark.parametrize("tree_cls", [RedBlackTree], ids=["red-black"])
def bench_ordered_prefix_extraction(benchmark, tree_cls):
    rng = random.Random(13)
    keys = [rng.randrange(10**9) for _ in range(N_OPS)]

    def build_and_drain():
        tree = tree_cls()
        for k in keys:
            tree.insert(k, k)
        while tree:
            tree.pop_leq(tree.min_item()[0] + 10**7)

    benchmark(build_and_drain)

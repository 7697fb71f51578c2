import random
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from graphtango.baseline import AdListChunked, AdListShared
from graphtango.core import Config, VertexRangeError
from graphtango.store import TangoStore


@pytest.mark.parametrize("cls", [AdListShared, AdListChunked])
def test_basic_roundtrip(cls):
    store = cls(Config(), 50)
    assert store.insert_edge(1, 2) is True
    assert store.insert_edge(1, 2) is False
    assert store.has_edge(2, 1)  # undirected mirror
    assert store.degree(1) == 1
    assert store.delete_edge(1, 2) is True
    assert store.delete_edge(1, 2) is False
    assert store.neighbors(1).tolist() == []


@pytest.mark.parametrize("cls", [AdListShared, AdListChunked])
def test_growth_doubles_from_four(cls):
    store = cls(Config(), 50)
    base = store.memory_bytes()
    store.insert_half(0, 1)
    assert store.memory_bytes() == base + 4 * 8  # first edge allocates 4 slots
    for k in range(2, 6):
        store.insert_half(0, k)
    assert store.memory_bytes() == base + 8 * 8  # 5th edge doubled to 8
    for k in range(6, 10):
        store.delete_half(0, k - 5)
        store.check_invariants(0, deep=True)
    assert store.memory_bytes() == base + 8 * 8  # capacity never shrinks


def test_shared_counts_lock_word():
    V = 10
    flat = AdListChunked(Config(), V).memory_bytes()
    locked = AdListShared(Config(), V).memory_bytes()
    assert locked - flat == V * 8


def test_directed_sides():
    store = AdListChunked(Config(directed=True), 20)
    store.insert_edge(3, 8)
    assert store.neighbors(3).tolist() == [8]
    assert store.neighbors(8).tolist() == []
    assert store.in_neighbors(8).tolist() == [3]
    base_overhead = 20 * 32  # two sides of (ptr + deg)
    # the edge allocated 4 slots on the out side and 4 on the in side
    assert store.memory_bytes() == base_overhead + 2 * 4 * 8


def test_weighted_props():
    store = AdListShared(Config(weighted=True), 20)
    store.insert_edge(1, 2, 7)
    store.insert_edge(1, 3, 9)
    assert store.get_edge_prop(1, 2) == 7
    store.insert_edge(1, 2, 70)
    assert store.get_edge_prop(1, 2) == 70
    assert store.get_edge_prop(2, 1) == 70
    props = dict(zip(store.neighbors(1).tolist(), store.neighbor_props(1).tolist()))
    assert props == {2: 70, 3: 9}
    with pytest.raises(ValueError):
        AdListShared(Config(), 5).insert_edge(0, 1, 3)


@pytest.mark.parametrize("cls", [AdListShared, AdListChunked])
def test_range_checks(cls):
    store = cls(Config(), 5)
    with pytest.raises(VertexRangeError):
        store.insert_half(5, 0)
    with pytest.raises(VertexRangeError):
        store.insert_half(0, -1)
    with pytest.raises(VertexRangeError):
        store.delete_half(7, 0)
    with pytest.raises(VertexRangeError):
        store.neighbors(5)


@pytest.mark.parametrize("cls", [TangoStore, AdListShared, AdListChunked])
@pytest.mark.parametrize("v", [-1, 5])
def test_vertex_reads_range_checked(cls, v):
    # -1 must not wrap to the last vertex, 5 must not surface a bare IndexError
    store = cls(Config(weighted=True), 5)
    store.insert_edge(4, 3, 9)
    with pytest.raises(VertexRangeError):
        store.degree(v)
    with pytest.raises(VertexRangeError):
        store.neighbor_props(v)
    with pytest.raises(VertexRangeError):
        store.in_neighbors(v)


def test_shared_locks_serialize_updates():
    # hammer one vertex from several threads; per-vertex locking must keep
    # the array consistent and every insert distinct
    store = AdListShared(Config(), 40000)
    nper, nthreads = 3000, 4

    def work(tid):
        for k in range(nper):
            store.insert_half(0, 1 + tid * nper + k)

    threads = [threading.Thread(target=work, args=(t,)) for t in range(nthreads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert store.degree(0) == nper * nthreads
    nbrs = store.neighbors(0)
    assert len(np.unique(nbrs)) == nper * nthreads
    store.check_invariants(0)
    assert store.memory_bytes() == scanned_memory_bytes(store)


def scanned_memory_bytes(store):
    """memory_bytes by its definition: fixed words per vertex plus the
    length of every edge array, summed by walking them all."""
    words = sum(len(a) for st in store._sides for a in st.arrs if a is not None)
    return store.num_vertices * store._per_vertex_overhead() + 8 * words


_V = 80
_HUBS = hs.integers(0, 2)  # few sources, so their arrays double several times
_ADJ_OPS = hs.lists(hs.one_of(
    hs.tuples(hs.just("insert"), _HUBS, hs.integers(0, _V - 1), hs.integers(0, 99)),
    hs.tuples(hs.just("delete"), _HUBS, hs.integers(0, _V - 1)),
    hs.tuples(hs.just("burst"), _HUBS, hs.integers(0, _V - 1), hs.integers(1, 40)),
), min_size=1, max_size=60)


@settings(max_examples=100, deadline=None)
@given(cls=hs.sampled_from([AdListShared, AdListChunked]), weighted=hs.booleans(),
       directed=hs.booleans(), ops=_ADJ_OPS)
def test_memory_bytes_matches_scan_of_arrays(cls, weighted, directed, ops):
    store = cls(Config(weighted=weighted, directed=directed), _V)
    sides = range(len(store._sides))
    for op, u, w, *rest in ops:
        if op == "insert":
            store.insert_edge(u, w, rest[0] if weighted else None)
        elif op == "delete":
            store.delete_edge(u, w)
        else:
            for k in range(rest[0]):
                store.insert_edge(u, (w + k) % _V, k if weighted else None)
        assert store.memory_bytes() == scanned_memory_bytes(store)
        for v in {u, w}:
            for side in sides:
                store.check_invariants(v, side, deep=True)
    assert all(st.caps.tolist() == [0 if a is None else len(a) for a in st.arrs]
               for st in store._sides)


def test_three_formats_agree():
    cfg = dict(weighted=True, directed=True)
    V = 90
    stores = [
        TangoStore(Config(**cfg), V, debug=True),
        AdListShared(Config(**cfg), V),
        AdListChunked(Config(**cfg), V),
    ]
    oracle = {v: {} for v in range(V)}
    rng = random.Random(99)
    for op in range(8000):
        src, dst = rng.randrange(V), rng.randrange(V)
        if rng.random() < 0.6:
            prop = rng.randrange(500)
            rets = {s.insert_edge(src, dst, prop) for s in stores}
            assert len(rets) == 1
            assert rets.pop() == (dst not in oracle[src])
            oracle[src][dst] = prop
        else:
            rets = {s.delete_edge(src, dst) for s in stores}
            assert len(rets) == 1
            assert rets.pop() == (dst in oracle[src])
            oracle[src].pop(dst, None)
    for v in range(V):
        want = sorted(oracle[v].keys())
        for s in stores:
            assert sorted(s.neighbors(v).tolist()) == want
            props = dict(zip(s.neighbors(v).tolist(), s.neighbor_props(v).tolist()))
            assert props == oracle[v]
        want_in = sorted(u for u in range(V) if v in oracle[u])
        for s in stores:
            assert sorted(s.in_neighbors(v).tolist()) == want_in

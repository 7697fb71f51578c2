import random
import statistics

import numpy as np
import pytest

from graphtango import core
from graphtango.baseline import AdListChunked, AdListShared
from graphtango.cfhash import CfhTable
from graphtango.core import LINE_WORDS, MAX_VERTICES, Config, VertexRangeError
from graphtango.store import IN, OUT, TYPE1, TYPE2, TYPE3, TangoStore


def make_store(V=200, num_threads=1, **cfg):
    return TangoStore(Config(**cfg), V, num_threads=num_threads, debug=True)


def pool_bytes(store):
    return sum(p.stats()["bytes_in_use"] for p in store.pools)


def probe_delta(store, op, *args):
    """op's return value and the probe distances it added, by kind."""
    before = store.probe_stats()
    ret = op(*args)
    after = store.probe_stats()
    return ret, {kind: {d: c - before[kind].get(d, 0) for d, c in after[kind].items()
                        if c != before[kind].get(d, 0)} for kind in after}


WEIGHTS = pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])


# -- layout transitions -------------------------------------------------------


def test_kind_thresholds_up():
    store = make_store()
    v = 5
    kinds = []
    for k in range(40):
        assert store.insert_half(v, 100 + k) is True
        kinds.append(store.vertex_kind(v))
        store.check_invariants(v, deep=True)
    assert kinds[:7] == [TYPE1] * 7
    assert kinds[7:32] == [TYPE2] * 25
    assert kinds[32:] == [TYPE3] * 8


def test_capacity_trajectory_up():
    for weighted, first in ((False, 16), (True, 8)):
        store = make_store(V=3000, weighted=weighted)
        v = 7
        caps = {}
        for k in range(200):
            store.insert_half(v, 1000 + k, k if weighted else 0)
            deg = store.degree(v)
            if deg > store.th0:
                caps[deg] = int(store._sides[OUT].meta.item(v * 8 + 1))
            store.check_invariants(v, deep=(k % 9 == 0))
        # a full line spills to two lines' worth, 2 x (th0 + 1) edges, then
        # strict doubling at each full append
        assert first == 2 * (store.th0 + 1)
        assert caps == {d: max(first, 1 << (d - 1).bit_length())
                        for d in range(store.th0 + 1, 201)}
        assert caps[store.th0 + 1] == caps[first] == first
        assert caps[17] == caps[32] == 32
        assert caps[33] == 64  # the TH1 crossing grows first, then builds the hash
        assert caps[64] == 64 and caps[65] == 128
        assert caps[200] == 256
        tbl = store._sides[OUT].tables[v]
        assert tbl.capacity_slots == 512  # hash stays at 2 x capacity
        assert store.vertex_kind(v) == TYPE3


def test_downgrade_points():
    store = make_store(V=3000)
    v = 3
    for k in range(200):
        store.insert_half(v, 1000 + k)
    for k in range(199, -1, -1):
        store.delete_half(v, 1000 + k)
        store.check_invariants(v, deep=(k % 7 == 0))
        deg = store.degree(v)
        if deg == 32:
            assert store.vertex_kind(v) == TYPE2
            assert store._sides[OUT].tables[v] is None
        if deg == 7:
            assert store.vertex_kind(v) == TYPE1
            assert store._sides[OUT].views[v] is None
    assert store.degree(v) == 0
    assert pool_bytes(store) == 0


def test_shrink_halves_at_quarter_load():
    store = make_store(V=3000)
    v = 2
    for k in range(128):
        store.insert_half(v, 500 + k)  # cap 128, hash 256
    side = store._sides[OUT]
    assert side.meta.item(v * 8 + 1) == 128
    for k in range(127, 32, -1):
        store.delete_half(v, 500 + k)
        cap = side.meta.item(v * 8 + 1)
        deg = store.degree(v)
        assert cap == 128 if deg > 32 else True
        store.check_invariants(v)
    # deg just hit 33 with cap still 128; one more delete lands on 32, which
    # is both the TH1 crossing and cap/4: the downgrade wins, cap halves once
    assert store.degree(v) == 33
    store.delete_half(v, 500 + 32)
    assert store.vertex_kind(v) == TYPE2
    assert side.meta.item(v * 8 + 1) == 64
    store.check_invariants(v, deep=True)
    # re-cross TH1 with that slack capacity: the hash comes back sized to
    # 2 x the existing array, and the array itself must not move or resize
    chunk_before = side.meta.item(v * 8 + 2)
    store.insert_half(v, 2999)
    assert store.vertex_kind(v) == TYPE3
    assert side.meta.item(v * 8 + 1) == 64
    assert side.meta.item(v * 8 + 2) == chunk_before
    assert side.tables[v].capacity_slots == 128
    store.check_invariants(v, deep=True)


def test_shrink_within_type3():
    store = make_store(V=3000)
    v = 9
    for k in range(256):
        store.insert_half(v, k + 1)
    side = store._sides[OUT]
    assert side.meta.item(v * 8 + 1) == 256
    # drop to a quarter: 64 edges left triggers the halving, still Type3
    victims = list(range(256, 64, -1))
    for k in victims:
        store.delete_half(v, k)
    assert store.degree(v) == 64
    assert side.meta.item(v * 8 + 1) == 128
    assert side.tables[v].capacity_slots == 256
    assert store.vertex_kind(v) == TYPE3
    store.check_invariants(v, deep=True)


@WEIGHTS
def test_full_line_spills_to_two_lines(weighted):
    store = make_store(weighted=weighted)
    th0, w = store.th0, int(weighted)
    for k in range(th0):
        store.insert_half(0, 10 + k, k * w)
    assert store.vertex_kind(0) == TYPE1 and pool_bytes(store) == 0
    store.insert_half(0, 10 + th0, th0 * w)  # the full line moves out
    side = store._sides[OUT]
    assert store.vertex_kind(0) == TYPE2
    assert side.meta.item(1) == (8 if weighted else 16)
    assert pool_bytes(store) == 2 * 64  # two lines
    assert store.resize_copies == th0
    store.check_invariants(0, deep=True)
    for k in range(th0 + 1, side.meta.item(1)):  # fills without another move
        store.insert_half(0, 10 + k, k * w)
    assert store.resize_copies == th0 and pool_bytes(store) == 2 * 64
    assert store.neighbors(0).tolist() == list(range(10, 10 + store.degree(0)))
    if weighted:
        assert store.neighbor_props(0).tolist() == list(range(store.degree(0)))


@WEIGHTS
def test_quarter_load_at_th0_plus_one_keeps_cap(weighted):
    # cap 32 (16 weighted) at th0 + 1 edges is a quarter full, but the next
    # delete moves the edges inline, so halving first would copy for nothing
    store = make_store(weighted=weighted)
    th0 = store.th0
    cap = 4 * (th0 + 1)
    for k in range(cap):
        store.insert_half(0, 10 + k)
    side = store._sides[OUT]
    assert side.meta.item(1) == cap
    for k in range(cap - 1, th0, -1):
        store.delete_half(0, 10 + k)
        store.check_invariants(0)
    copies = store.resize_copies
    assert store.degree(0) == th0 + 1 and side.meta.item(1) == cap
    assert pool_bytes(store) == 8 * cap * (2 if weighted else 1)
    store.delete_half(0, 10 + th0)  # the next delete moves the edges inline
    assert store.vertex_kind(0) == TYPE1 and side.views[0] is None
    assert store.resize_copies == copies + th0 and pool_bytes(store) == 0
    assert store.neighbors(0).tolist() == list(range(10, 10 + th0))
    store.check_invariants(0, deep=True)


def test_type2_record_clears_hash_words():
    # Falling from Type3 to Type2 releases the table; the record's hash
    # handle and slot count must not point at the freed chunk.
    store = make_store(th1=8)
    side = store._sides[OUT]
    for k in range(10):
        store.insert_half(0, 10 + k)
    assert store.vertex_kind(0) == TYPE3 and side.meta.item(3) != 0
    tbl = side.tables[0]
    tbl.capacity_slots *= 2  # the table no longer matches the array
    with pytest.raises(AssertionError, match="hash capacity"):
        store.check_invariants(0)
    tbl.capacity_slots //= 2
    store.delete_half(0, 19)
    store.delete_half(0, 18)
    assert store.vertex_kind(0) == TYPE2
    assert (side.meta.item(3), side.meta.item(4)) == (0, 0)
    store.check_invariants(0, deep=True)
    side.meta[3] = 1  # a stale hash word in a Type2 record
    with pytest.raises(AssertionError, match="Type2 record holds hash words"):
        store.check_invariants(0)


def test_th1_bounce():
    # oscillate across TH1: each downgrade frees the hash and halves the
    # array, each re-cross grows back and rebuilds it, state stays coherent
    store = make_store(V=3000)
    v = 4
    for k in range(33):
        store.insert_half(v, k + 1)
    side = store._sides[OUT]
    for _ in range(4):
        store.delete_half(v, 33)  # deg 32: hash dropped, cap halved to 32
        assert side.meta.item(v * 8 + 1) == 32
        assert side.tables[v] is None
        store.check_invariants(v, deep=True)
        store.insert_half(v, 33)  # deg 33: full array grows, hash rebuilt
        assert store.vertex_kind(v) == TYPE3
        assert side.meta.item(v * 8 + 1) == 64
        store.check_invariants(v, deep=True)


def test_weighted_thresholds():
    store = make_store(weighted=True, th1=4)
    v = 1
    for k in range(9):
        store.insert_half(v, 20 + k, prop=k * 3)
        store.check_invariants(v, deep=True)
    assert store.vertex_kind(v) == TYPE3
    assert store.degree(v) == 9
    props = store.neighbor_props(v)
    nbrs = store.neighbors(v)
    for j in range(9):
        assert int(props[j]) == (int(nbrs[j]) - 20) * 3
    for k in range(9):
        assert store.delete_half(v, 20 + k) is True
        store.check_invariants(v, deep=True)
    assert pool_bytes(store) == 0


# -- single-op semantics ------------------------------------------------------


# One vertex at each layout: (kind, degree, th1). Degree 3 fills a weighted
# line and sits inside an unweighted one; th1 8 makes degree 40 a Type3.
LAYOUTS = pytest.mark.parametrize("kind,deg,th1", [(TYPE1, 3, 32), (TYPE2, 20, 32),
                                                   (TYPE3, 40, 8)], ids=["type1", "type2", "type3"])


@LAYOUTS
@WEIGHTS
def test_duplicate_insert_updates_property(kind, deg, th1, weighted):
    store = make_store(weighted=weighted, th1=th1)
    for k in range(deg):
        assert store.insert_edge(1, 100 + k, 10 * k if weighted else None) is True
    assert store.vertex_kind(1) == kind
    dup = 100 + deg // 2
    assert store.insert_edge(1, dup, 99 if weighted else None) is False
    want = 99 if weighted else 0
    assert store.get_edge_prop(1, dup) == want
    assert store.get_edge_prop(dup, 1) == want  # undirected mirror updated too
    assert store.degree(1) == deg
    assert store.neighbors(1).tolist() == [100 + k for k in range(deg)]
    if weighted:
        assert store.neighbor_props(1).tolist() == [99 if 100 + k == dup else 10 * k
                                                    for k in range(deg)]
    store.check_invariants(1, deep=True)


def test_unweighted_rejects_property():
    store = make_store()
    with pytest.raises(ValueError):
        store.insert_edge(1, 2, 5)
    assert store.insert_edge(1, 2) is True
    assert store.get_edge_prop(1, 2) == 0
    assert store.get_edge_prop(1, 3) is None


def test_vertex_range_checked():
    store = make_store(V=10)
    with pytest.raises(VertexRangeError):
        store.insert_edge(0, 10)
    with pytest.raises(VertexRangeError):
        store.insert_half(-1, 3)
    with pytest.raises(VertexRangeError):
        store.delete_half(3, 11)
    with pytest.raises(VertexRangeError):
        store.neighbors(10)


@LAYOUTS
@WEIGHTS
def test_delete_moves_last_edge_into_hole(kind, deg, th1, weighted):
    store = make_store(weighted=weighted, th1=th1)
    w = 1 if weighted else 0
    for k in range(deg):
        store.insert_half(0, 10 + k, (k + 1) * w)
    assert store.delete_half(0, 11) is True
    assert store.vertex_kind(0) == kind
    want = [10, 10 + deg - 1] + [10 + k for k in range(2, deg - 1)]  # last slid into the hole
    assert store.neighbors(0).tolist() == want
    if weighted:
        assert store.neighbor_props(0).tolist() == [d - 9 for d in want]  # with its property
    assert store.delete_half(0, 11) is False
    store.check_invariants(0, deep=True)


def test_neighbors_view_is_readonly():
    # Type1, Type2 (degree 8-32) and Type3 vertices, unweighted and weighted,
    # in the hybrid store and both adjacency lists: each view reads the live
    # edges as plain uint64 and refuses writes.
    for cls in (TangoStore, AdListChunked, AdListShared):
        for weighted in (False, True):
            store = cls(Config(weighted=weighted), 200)
            for v, deg, kind in ((0, 1, TYPE1), (1, 20, TYPE2), (5, 50, TYPE3)):
                for k in range(deg):
                    store.insert_half(v, 100 + k, 7 * k if weighted else 0)
                if cls is TangoStore:
                    assert store.vertex_kind(v) == kind
                views = [store.neighbors(v)]
                if weighted:
                    views.append(store.neighbor_props(v))
                for view, want in zip(views, ([100 + k for k in range(deg)],
                                              [7 * k for k in range(deg)])):
                    assert view.dtype == np.uint64 and view.tolist() == want
                    with pytest.raises(ValueError):
                        view[0] = 99
                    assert view[0] == want[0]


def test_undirected_mirror():
    store = make_store()
    store.insert_edge(3, 8)
    assert store.has_edge(3, 8) and store.has_edge(8, 3)
    assert store.in_neighbors(8).tolist() == [3]
    store.delete_edge(8, 3)
    assert not store.has_edge(3, 8) and not store.has_edge(8, 3)


def test_directed_in_side():
    store = make_store(directed=True)
    store.insert_edge(3, 8)
    assert store.has_edge(3, 8)
    assert not store.has_edge(8, 3)
    assert store.neighbors(8).tolist() == []
    assert store.in_neighbors(8).tolist() == [3]
    assert store.degree(8, IN) == 1
    store.delete_edge(3, 8)
    assert store.in_neighbors(8).tolist() == []
    assert pool_bytes(store) == 0


def test_self_loop():
    store = make_store()
    assert store.insert_edge(4, 4) is True
    assert store.insert_edge(4, 4) is False
    assert store.degree(4) == 1
    assert store.has_edge(4, 4)
    assert store.delete_edge(4, 4) is True
    assert store.degree(4) == 0


# -- bookkeeping ---------------------------------------------------------------


def test_resize_copy_counter_exact():
    for weighted, th0, min_cap in ((False, 7, 16), (True, 3, 8)):
        n = 20000
        store = TangoStore(Config(weighted=weighted), n + 1)
        assert store.th0 == th0
        for k in range(n):
            store.insert_half(0, k + 1, k)
        # independent accounting of the documented copy costs: TH0 edges when
        # the inline record spills to two lines' worth, cap edges at every doubling
        sim, deg, cap = 0, 0, 0
        for _ in range(n):
            if deg == th0 and cap == 0:
                sim += th0
                cap = min_cap
            elif deg and deg == cap:
                sim += deg
                cap *= 2
            deg += 1
        assert store.resize_copies == sim
        assert store.resize_copies <= 4 * n
        # Deleting back to degree 0: deg edges at every halving (deg == cap/4
        # above TH0 + 1, or the TH1 crossing that drops the table), TH0 when
        # they come inline.
        th1 = store.th1
        for k in range(n):
            store.delete_half(0, k + 1)
            deg -= 1
            if deg == th0 and cap:
                sim += th0
                cap = 0
            elif cap and (deg == th1 or (deg == cap // 4 and deg > th0 + 1)):
                sim += deg
                cap //= 2
            assert store.resize_copies == sim, f"weighted={weighted}, after delete {k}"
        assert store.degree(0) == 0 and pool_bytes(store) == 0


def test_memory_accounting():
    V = 64
    store = make_store(V=V)
    assert store.memory_bytes() == V * 64
    store.insert_edge(0, 1)
    assert store.memory_bytes() == V * 64  # inline edges cost nothing
    for k in range(2, 12):
        store.insert_half(0, k)
    assert pool_bytes(store) == 16 * 8  # one chunk of cap 16
    assert store.memory_bytes() == V * 64 + 128
    d = make_store(V=V, directed=True)
    assert d.memory_bytes() == V * 128


def held_hash_bytes(store):
    return sum(t.chunk_bytes for side in store._sides for t in side.tables if t is not None)


@pytest.mark.parametrize("weighted,directed,num_threads", [
    (False, False, 1), (True, True, 2), (False, True, 3)])
def test_hash_bytes_tracks_every_table(weighted, directed, num_threads):
    # Hubs in several partitions climb through builds and doubling rebuilds,
    # then fall back through halving rebuilds and releases.
    store = make_store(V=2048, num_threads=num_threads, weighted=weighted,
                       directed=directed)
    hubs = (3, 700, 1500)
    meta = 2048 * 64 * (2 if directed else 1)
    seen = set()
    ops = [(True, k) for k in range(300)] + [(False, k) for k in reversed(range(300))]
    for insert, k in ops:
        for h in hubs:
            nbr = 1 + (h + 7 * k) % 2047
            if insert:
                store.insert_edge(h, nbr, 1 if weighted else None)
            else:
                store.delete_edge(h, nbr)
        held = held_hash_bytes(store)
        assert store.hash_bytes == held
        seen.add(held)
        # The rest of memory_bytes is the meta lines and the edge arrays.
        arrays = sum(8 * len(view) for side in store._sides for view in side.views
                     if view is not None)
        assert store.memory_bytes() - meta - store.hash_bytes == arrays
    assert len(seen) >= 4  # builds, doublings, halvings and releases all ran
    assert store.hash_bytes == 0
    for h in hubs:
        store.check_invariants(h, deep=True)


def test_vertex_count_bound(monkeypatch):
    assert MAX_VERTICES == 2**32 - 1
    with pytest.raises(ValueError, match="MAX_VERTICES"):
        TangoStore(Config(), MAX_VERTICES + 1)
    monkeypatch.setattr(core, "MAX_VERTICES", 16)
    assert TangoStore(Config(), 16).num_vertices == 16
    with pytest.raises(ValueError, match="MAX_VERTICES"):
        TangoStore(Config(), 17)


def test_line_touches_of_type3_insert():
    store = make_store(V=4000)
    v = 9
    for k in range(40):
        store.insert_half(v, 100 + k)
    sizes = []
    for k in range(200):
        _, walks = probe_delta(store, store.insert_half, v, 2000 + k)
        deg = store.degree(v)
        cap = int(store._sides[OUT].meta.item(v * 8 + 1))
        if deg != cap // 2 + 1:  # skip the op that resized
            (d, n), = walks["insert"].items()
            assert n == 1
            # the meta line, the edge line appended to, and the hash lines of
            # a walk of d slots, which reads a line's slots in order
            sizes.append(2 + (d - 1) // LINE_WORDS + 1)
    # steady-state Type3 insert: the meta line, one hash line, one edge line
    assert statistics.median(sizes) == 3
    assert max(sizes) <= 5
    found, walks = probe_delta(store, store.has_edge, v, 2005)
    assert found and walks["insert"] == {}
    assert sum(walks["find"].values()) == 1


def test_probe_stats_exposed():
    store = make_store(V=4000)
    for k in range(300):
        store.insert_half(1, k + 2)
    snap = store.probe_stats()
    assert sum(snap["insert"].values()) > 200  # hash-backed appends recorded
    mean = sum(d * c for d, c in snap["insert"].items()) / sum(snap["insert"].values())
    assert mean < 2.0


def test_type3_updates_log_one_walk_per_key(monkeypatch):
    # An append's lookup walk ends where the new key goes, so it logs one
    # distance under both find and insert; a delete tombstones the slot its
    # lookup found and logs that distance twice under find, plus the moved
    # edge's overwrite under insert. Only a full array, whose table is
    # rebuilt before the append, walks again.
    walks = []
    walk = CfhTable._walk

    def logged_walk(self, key, hist):
        out = walk(self, key, hist)
        if hist is not None:  # rebuild and bulk load walk without statistics
            walks.append(out[2])
        return out

    monkeypatch.setattr(CfhTable, "_walk", logged_walk)
    store = make_store(V=4000)
    v = 3
    for k in range(40):  # Type3 past th1 = 32, array cap 64, table 128 slots
        store.insert_half(v, 100 + k)
    tbl = store._sides[OUT].tables[v]

    def delta(op, *args):
        walks.clear()
        ret, hist = probe_delta(store, op, v, *args)
        return ret, list(walks), hist

    ret, w, hist = delta(store.insert_half, 500)
    assert ret is True and len(w) == 1
    assert hist == {"insert": {w[0]: 1}, "find": {w[0]: 1}}
    ret, w, hist = delta(store.insert_half, 500)  # duplicate: lookup only
    assert ret is False and hist == {"insert": {}, "find": {w[0]: 1}}
    ret, w, hist = delta(store.delete_half, 100)  # index 0: the last edge moves
    assert ret is True and len(w) == 2
    assert hist == {"insert": {w[1]: 1}, "find": {w[0]: 2}}
    ret, w, hist = delta(store.delete_half, int(store.neighbors(v)[-1]))  # nothing moves
    assert ret is True and len(w) == 1
    assert hist == {"insert": {}, "find": {w[0]: 2}}
    ret, w, hist = delta(store.delete_half, 100)  # absent
    assert ret is False and hist == {"insert": {}, "find": {w[0]: 1}}
    for k in range(store.degree(v), 64):
        store.insert_half(v, 1000 + k)
    assert tbl.capacity_slots == 128 and store.degree(v) == 64
    ret, w, hist = delta(store.insert_half, 600)  # full: rebuild, fresh walk
    assert ret is True and len(w) == 2 and tbl.capacity_slots == 256
    assert hist == {"insert": {w[1]: 1}, "find": {w[0]: 1}}
    store.check_invariants(v, deep=True)


def test_probe_stats_kept_per_partition_and_merged():
    store = make_store(V=4000, num_threads=2)  # 512-vertex partitions
    hubs = (1, 600)  # owned by workers 0 and 1
    for h in hubs:
        for k in range(40):
            store.insert_half(h, 1000 + k)
    t0, t1 = (store._sides[OUT].tables[h] for h in hubs)
    assert t0.stats is not t1.stats  # no dict shared between two workers
    total = {}
    for t in (t0, t1):
        for d, c in t.stats.insert.items():
            total[d] = total.get(d, 0) + c
    assert store.probe_stats()["insert"] == total
    assert store.stats.snapshot() == store.probe_stats()


# -- differential check against a dict model -----------------------------------


def run_mix(V, nops, weighted, directed, seed, num_threads=1, **cfg):
    rng = random.Random(seed)
    store = TangoStore(Config(weighted=weighted, directed=directed, **cfg),
                       V, num_threads=num_threads, debug=True)
    adj = {v: {} for v in range(V)}

    def check_all(deep):
        for v in range(V):
            assert sorted(store.neighbors(v).tolist()) == sorted(adj[v].keys())
            if weighted:
                nbrs = store.neighbors(v)
                props = store.neighbor_props(v)
                for j in range(len(nbrs)):
                    assert int(props[j]) == adj[v][int(nbrs[j])]
            store.check_invariants(v, OUT, deep=deep)
            if directed:
                store.check_invariants(v, IN, deep=deep)

    for op in range(nops):
        src = 0 if rng.random() < 0.15 else rng.randrange(V)
        dst = rng.randrange(V) if rng.random() < 0.8 else rng.randrange(min(30, V))
        if rng.random() < 0.65:
            prop = rng.randrange(1000) if weighted else None
            assert store.insert_edge(src, dst, prop) == (dst not in adj[src])
            p = prop if weighted else 0
            adj[src][dst] = p
            if not directed and src != dst:
                adj[dst][src] = p
        else:
            assert store.delete_edge(src, dst) == (dst in adj[src])
            adj[src].pop(dst, None)
            if not directed:
                adj[dst].pop(src, None)
        if op % 3000 == 2999:
            check_all(deep=True)
    check_all(deep=True)
    for _ in range(400):
        a, b = rng.randrange(V), rng.randrange(V)
        assert store.has_edge(a, b) == (b in adj[a])
    # drain and verify nothing leaks
    for u in range(V):
        for w in list(adj[u]):
            store.delete_edge(u, w)
            adj[u].pop(w, None)
            if not directed and u != w:
                adj[w].pop(u, None)
    assert pool_bytes(store) == 0
    assert all(store.degree(v) == 0 for v in range(V))


def test_mix_undirected_unweighted():
    run_mix(V=120, nops=12000, weighted=False, directed=False, seed=1)


def test_mix_undirected_weighted():
    run_mix(V=120, nops=12000, weighted=True, directed=False, seed=2)


def test_mix_directed_weighted():
    run_mix(V=120, nops=12000, weighted=True, directed=True, seed=3)


def test_mix_directed_multithread_pools():
    run_mix(V=60, nops=8000, weighted=False, directed=True, seed=4,
            num_threads=3)


def test_mix_small_th1():
    run_mix(V=80, nops=8000, weighted=False, directed=False, seed=5, th1=8)


def test_mix_weighted_tiny_th1():
    run_mix(V=80, nops=8000, weighted=True, directed=False, seed=6, th1=4)

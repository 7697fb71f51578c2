import random
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as hs
from scipy.sparse import csgraph

from graphtango import analytics, core
from graphtango.analytics import (
    UNREACHABLE,
    _relax_round,
    _seed_from_edges,
    build_snapshot,
    run_bfs,
    run_cc,
    run_pr,
    run_sssp,
)
from graphtango.baseline import AdListChunked, AdListShared
from graphtango.bench.data import gen_synthetic, shuffle
from graphtango.bench.harness import run_experiment
from graphtango.core import Config, VertexRangeError
from graphtango.store import IN, OUT, TYPE1, TangoStore


def random_graph(V, E, seed, weighted=False, directed=False):
    rng = random.Random(seed)
    edges = {}
    while len(edges) < E:
        u, v = rng.randrange(V), rng.randrange(V)
        if u == v:
            continue
        if not directed and (v, u) in edges:
            continue
        edges[(u, v)] = rng.randrange(1, 20) if weighted else None
    return list(edges.items())


def load(cls, V, edges, weighted, directed):
    store = cls(Config(weighted=weighted, directed=directed), V)
    for (u, v), w in edges:
        store.insert_edge(u, v, w)
    return store


def to_scipy(snap):
    data = snap.weights if snap.weights is not None else np.ones(snap.num_edges)
    return sp.csr_matrix((data, snap.indices, snap.indptr),
                         shape=(snap.num_vertices, snap.num_vertices))


def pr_oracle(V, arcs, d=0.85, tol=1e-7, iters=100):
    """Straight-line transcription of the rank recurrence, no numpy."""
    out = [0] * V
    for u, v in arcs:
        out[u] += 1
    rank = [1.0 / V] * V
    for _ in range(iters):
        new = [(1.0 - d) / V] * V
        for u, v in arcs:
            new[v] += d * rank[u] / out[u]
        delta = sum(abs(a - b) for a, b in zip(new, rank))
        rank = new
        if delta < tol:
            break
    return rank


def stored_arcs(store):
    arcs = []
    for v in range(store.num_vertices):
        for w in store.neighbors(v).tolist():
            arcs.append((v, int(w)))
    return arcs


def canon(labels):
    _, inv = np.unique(labels, return_inverse=True)
    return inv.tolist()


@pytest.mark.parametrize("directed", [False, True])
def test_bfs_against_scipy(directed):
    V, E = 300, 900
    edges = random_graph(V, E, seed=5, directed=directed)
    store = load(TangoStore, V, edges, False, directed)
    snap = build_snapshot(store)
    got = run_bfs(snap, 0)
    want = csgraph.shortest_path(to_scipy(snap), unweighted=True,
                                 directed=directed, indices=0)
    assert np.array_equal(got.values, want)
    assert got.mode == "full"


@pytest.mark.parametrize("directed", [False, True])
def test_sssp_against_scipy(directed):
    V, E = 300, 900
    edges = random_graph(V, E, seed=6, weighted=True, directed=directed)
    store = load(TangoStore, V, edges, True, directed)
    snap = build_snapshot(store)
    got = run_sssp(snap, 3)
    want = csgraph.shortest_path(to_scipy(snap), directed=directed, indices=3)
    assert np.array_equal(got.values, want)  # integer weights are exact in f64


@pytest.mark.parametrize("directed", [False, True])
def test_cc_against_scipy(directed):
    V = 400
    edges = random_graph(V, 500, seed=7, directed=directed)
    store = load(TangoStore, V, edges, False, directed)
    snap = build_snapshot(store, need_in=directed)
    got = run_cc(snap)
    n_want, labels_want = csgraph.connected_components(
        to_scipy(snap), directed=directed, connection="weak")
    assert canon(got.values) == canon(labels_want)
    assert len(np.unique(got.values)) == n_want
    # labels are the minimum vertex id of each component
    for comp in np.unique(got.values):
        members = np.nonzero(got.values == comp)[0]
        assert comp == members.min()


@pytest.mark.parametrize("directed", [False, True])
def test_pr_against_loop_oracle(directed):
    V, E = 120, 400
    edges = random_graph(V, E, seed=8, directed=directed)
    store = load(TangoStore, V, edges, False, directed)
    snap = build_snapshot(store)
    got = run_pr(snap)
    want = pr_oracle(V, stored_arcs(store))
    assert np.allclose(got.values, want, atol=1e-9)


def test_pr_single_vertex_and_empty():
    store = TangoStore(Config(), 1)
    snap = build_snapshot(store)
    r = run_pr(snap)
    assert r.values[0] == pytest.approx(0.15)  # (1 - d) with no edges
    store5 = TangoStore(Config(), 5)
    r5 = run_pr(build_snapshot(store5))
    assert np.allclose(r5.values, (1 - 0.85) / 5)


def test_pr_sink_mass_not_redistributed():
    # 0 -> 1 -> 2 where 2 is a sink: total rank stays below 1
    store = TangoStore(Config(directed=True), 3)
    store.insert_edge(0, 1)
    store.insert_edge(1, 2)
    r = run_pr(build_snapshot(store))
    assert r.values.sum() < 1.0
    want = pr_oracle(3, [(0, 1), (1, 2)])
    assert np.allclose(r.values, want, atol=1e-9)


def power_pr(snap, prev=None, d=0.85, tol=1e-7, max_iters=100):
    """Plain power iteration written with run_pr's numpy calls, so a
    directed run must match it bit for bit. Returns (ranks, rounds, the
    L1 change of every step)."""
    V = snap.num_vertices
    outdeg = snap.out_degrees()
    rank = np.full(V, 1.0 / V) if prev is None else prev.copy()
    base = (1.0 - d) / V
    contrib = np.zeros(V)
    deltas = []
    for it in range(1, max_iters + 1):
        np.divide(rank, outdeg, out=contrib, where=outdeg > 0)
        acc = np.bincount(snap.indices, weights=np.repeat(contrib, outdeg), minlength=V)
        new = base + d * acc
        deltas.append(float(np.abs(new - rank).sum()))
        rank = new
        if deltas[-1] < tol:
            break
    return rank, it, deltas


# Chebyshev's rate over [-d, d], the step ratio that switches an undirected run
PR_SWITCH = 0.85 / (1 + np.sqrt(1 - 0.85 ** 2))


@pytest.mark.parametrize("seed", [21, 22, 23])
def test_pr_directed_is_plain_power_iteration(seed):
    V = 300
    edges = random_graph(V, 420, seed=seed, directed=True)
    store = load(TangoStore, V, edges[:280], False, True)
    first = build_snapshot(store)
    for (u, v), _ in edges[280:]:
        store.insert_edge(u, v)
    snap = build_snapshot(store)
    for s, prev in ((first, None), (snap, None), (snap, run_pr(first).values)):
        want, rounds, deltas = power_pr(s, prev=prev)
        # a sparse stream stalls: an undirected run would have switched here
        assert any(b > PR_SWITCH * a for a, b in zip(deltas, deltas[1:]))
        got = run_pr(s, prev=prev)
        assert np.array_equal(got.values, want)
        assert got.rounds == rounds


def forest_with_odd_cycle():
    """Disjoint paths, stars, one 9-cycle and isolated vertices, undirected."""
    store = TangoStore(Config(), 260)
    v = 0
    for n in (2, 5, 11, 24, 47):          # paths on n vertices
        for i in range(n - 1):
            store.insert_edge(v + i, v + i + 1)
        v += n
    for leaves in (1, 3, 9, 40):          # stars
        for i in range(1, leaves + 1):
            store.insert_edge(v, v + i)
        v += leaves + 1
    for i in range(9):
        store.insert_edge(v + i, v + (i + 1) % 9)
    v += 9
    assert v < store.num_vertices       # the rest stay isolated
    return store


def test_pr_undirected_chebyshev_within_bound():
    snap = build_snapshot(forest_with_odd_cycle())
    exact, _, _ = power_pr(snap, tol=1e-14, max_iters=10_000)
    _, power_rounds, _ = power_pr(snap, max_iters=10_000)
    got = run_pr(snap)
    assert float(np.abs(got.values - exact).sum()) <= 1e-7 * 0.85 / 0.15
    assert 2 * got.rounds < power_rounds


def test_bfs_unreachable_and_sources():
    store = TangoStore(Config(), 6)
    store.insert_edge(0, 1)
    store.insert_edge(1, 2)
    snap = build_snapshot(store)
    r = run_bfs(snap, 0)
    assert r.values.tolist() == [0, 1, 2, UNREACHABLE, UNREACHABLE, UNREACHABLE]
    with pytest.raises(VertexRangeError):
        run_bfs(snap, 6)
    with pytest.raises(VertexRangeError):
        run_sssp(build_snapshot(load(TangoStore, 4, [((0, 1), 2)], True, False)), -1)


def test_snapshot_shapes_and_formats_agree():
    V, E = 200, 700
    edges = random_graph(V, E, seed=9, weighted=True, directed=True)
    a = load(TangoStore, V, edges, True, True)
    b = load(AdListChunked, V, edges, True, True)
    sa = build_snapshot(a, need_in=True)
    sb = build_snapshot(b, need_in=True)
    assert sa.num_edges == sb.num_edges == E
    assert np.array_equal(sa.indptr, sb.indptr)
    # per-row content matches as sets (storage order may differ)
    for v in range(V):
        ra = sorted(zip(sa.indices[sa.indptr[v]:sa.indptr[v + 1]].tolist(),
                        sa.weights[sa.indptr[v]:sa.indptr[v + 1]].tolist()))
        rb = sorted(zip(sb.indices[sb.indptr[v]:sb.indptr[v + 1]].tolist(),
                        sb.weights[sb.indptr[v]:sb.indptr[v + 1]].tolist()))
        assert ra == rb
    # and identical analytics either way
    ga, gb = run_sssp(sa, 0), run_sssp(sb, 0)
    assert np.array_equal(ga.values, gb.values)
    ca, cb = run_cc(sa), run_cc(sb)
    assert np.array_equal(ca.values, cb.values)


# -- csr export vs the per-vertex cursors -----------------------------------------


def walk_csr(store, side, with_weights):
    """The export rebuilt from one neighbors()/neighbor_props() call per vertex."""
    V = store.num_vertices
    rows = [store.neighbors(v, side) for v in range(V)]
    indptr = np.zeros(V + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=indptr[1:])
    none = [np.empty(0, dtype=np.uint64)]
    indices = np.concatenate(none + rows).astype(np.int64)
    weights = None
    if with_weights:
        props = [store.neighbor_props(v, side) for v in range(V)]
        weights = np.concatenate(none + props).astype(np.float64)
    return indptr, indices, weights


def assert_export_matches_walk(store):
    for side in ((OUT, IN) if store.directed else (OUT,)):
        for with_weights in {False, store.weighted}:
            got = store.csr(side, with_weights)
            want = walk_csr(store, side, with_weights)
            for g, w in zip(got, want):
                if w is None:
                    assert g is None
                else:
                    assert g.dtype == w.dtype and np.array_equal(g, w)


def small_config(weighted, directed):
    # th1 = 8 puts Type3 within reach of a 48-vertex graph.
    return Config(weighted=weighted, directed=directed, th1=8)


@contextmanager
def small_geometry():
    """4 KiB pool blocks make the pools carve several, and 8-vertex
    partitions spread a small graph over 2 threads. Holds for a store's
    whole life: the pool reads core.BLOCK_BYTES at every block it carves,
    partition_of and csr() read core.PARTITION_SIZE at every call."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "BLOCK_BYTES", 4096)
        mp.setattr(core, "PARTITION_SIZE", 8)
        yield


@settings(max_examples=60, deadline=None)
@given(cls=hs.sampled_from([TangoStore, AdListChunked, AdListShared]),
       weighted=hs.booleans(), directed=hs.booleans(),
       threads=hs.sampled_from([1, 2]),
       ops=hs.lists(hs.tuples(hs.integers(0, 3),
                              hs.one_of(hs.integers(0, 3), hs.integers(0, 44)),
                              hs.integers(0, 44), hs.integers(0, 99)),
                    max_size=500))
def test_csr_export_matches_neighbor_walk(cls, weighted, directed, threads, ops):
    with small_geometry():
        # 45 vertices: the last 8-vertex partition holds 5, so the owner map
        # is cut short of a whole partition.
        store = cls(small_config(weighted, directed), 45, threads)
        for kind, u, v, w in ops:  # three inserts to one delete, hubs 0..3 favored
            if kind:
                store.insert_edge(u, v, w if weighted else None)
            else:
                store.delete_edge(u, v)
        assert_export_matches_walk(store)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("weighted", [False, True])
def test_csr_export_through_every_layout_change(weighted, threads):
    with small_geometry():
        cfg = small_config(weighted, True)
        store = TangoStore(cfg, 64, threads)
        hubs = (1, 9)  # partitions 0 and 1: separate pools with two threads
        top = cfg.th1 + 2  # passes th0, th0 + 1, th1 and th1 + 1 both ways
        for d in range(top):
            for h in hubs:
                store.insert_edge(h, 30 + d, 5 * d + h if weighted else None)
            assert_export_matches_walk(store)
        assert all(p.stats()["num_blocks"] > 1 for p in store.pools)
        for d in range(top):  # delete oldest first: swaps reorder the rows
            for h in hubs:
                store.delete_edge(h, 30 + d)
            assert_export_matches_walk(store)
        assert store.stored_edges(OUT) == 0


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("weighted", [False, True])
def test_csr_export_over_many_blocks(weighted, threads):
    # Shuffled inserts spread each pool's chunks over many 4 KiB blocks, in
    # an order unrelated to vertex order.
    with small_geometry():
        el = shuffle(gen_synthetic("short", 300, 3000, seed=8, weighted=weighted), 8)
        store = TangoStore(small_config(weighted, False), 300, threads)
        wts = el.weights.tolist() if weighted else [None] * el.num_edges
        for u, v, w in zip(el.srcs.tolist(), el.dsts.tolist(), wts):
            store.insert_edge(u, v, w)
        assert min(p.stats()["num_blocks"] for p in store.pools) >= 4
        assert_export_matches_walk(store)
        for u, v in zip(el.srcs[::3].tolist(), el.dsts[::3].tolist()):
            store.delete_edge(u, v)
        assert_export_matches_walk(store)


@pytest.mark.parametrize("cls", [TangoStore, AdListChunked, AdListShared])
@pytest.mark.parametrize("V", [0, 5])
def test_csr_export_of_empty_store(cls, V):
    store = cls(Config(weighted=True, directed=True), V)
    assert_export_matches_walk(store)
    indptr, indices, weights = store.csr(IN, True)
    assert indptr.tolist() == [0] * (V + 1)
    assert indices.dtype == np.int64 and weights.dtype == np.float64


@pytest.mark.parametrize("threads", [1, 2])
def test_snapshot_is_a_copy(threads):
    # Later updates must leave a snapshot as it was: a delete that moves the
    # last edge into the hole, a Type2 -> Type1 downgrade that frees a chunk,
    # and new chunks that take the freed memory.
    with small_geometry():
        cfg = small_config(True, True)
        store = TangoStore(cfg, 64, threads)
        hubs = (1, 9)
        for d in range(cfg.th0 + 3):
            for h in hubs:
                store.insert_edge(h, 30 + d, d + 1)
        store.insert_edge(20, 21, 3)
        snap = build_snapshot(store, need_in=True)
        arrays = [snap.indptr, snap.indices, snap.weights, snap.in_indptr, snap.in_indices]
        kept = [a.copy() for a in arrays]
        for h in hubs:
            store.delete_edge(h, 30)
            assert store.neighbors(h)[0] == 30 + cfg.th0 + 2  # the last edge moved
            while store.degree(h) > cfg.th0:
                store.delete_edge(h, int(store.neighbors(h)[-1]))
            assert store.vertex_kind(h) == TYPE1
            for d in range(cfg.th0 + 3):
                store.insert_edge(h + 1, 40 + d, 50 + d)
        store.insert_edge(20, 21, 4)
        for a, k in zip(arrays, kept):
            assert a.dtype == k.dtype and np.array_equal(a, k)
        buffers = [s.meta for s in store._sides]
        buffers += [b.u64 for p in store.pools for b in p._blocks]
        assert not any(np.shares_memory(a, b) for a in arrays for b in buffers)


@pytest.mark.parametrize("directed", [False, True])
def test_incremental_bfs_matches_full(directed):
    V = 250
    all_edges = random_graph(V, 1000, seed=10, directed=directed)
    first, second = all_edges[:600], all_edges[600:]
    store = load(TangoStore, V, first, False, directed)
    prev = run_bfs(build_snapshot(store), 0).values
    srcs = np.array([e[0][0] for e in second])
    dsts = np.array([e[0][1] for e in second])
    for (u, v), _ in second:
        store.insert_edge(u, v)
    snap = build_snapshot(store)
    inc = run_bfs(snap, 0, prev=prev, new_edges=(srcs, dsts))
    full = run_bfs(snap, 0)
    assert inc.mode == "incremental"
    assert np.array_equal(inc.values, full.values)


@pytest.mark.parametrize("directed", [False, True])
def test_incremental_sssp_matches_full(directed):
    V = 250
    all_edges = random_graph(V, 1000, seed=11, weighted=True, directed=directed)
    first, second = all_edges[:600], all_edges[600:]
    store = load(TangoStore, V, first, True, directed)
    prev = run_sssp(build_snapshot(store), 5).values
    srcs = np.array([e[0][0] for e in second])
    dsts = np.array([e[0][1] for e in second])
    ws = np.array([e[1] for e in second], dtype=np.float64)
    for (u, v), w in second:
        store.insert_edge(u, v, w)
    snap = build_snapshot(store)
    inc = run_sssp(snap, 5, prev=prev, new_edges=(srcs, dsts, ws))
    full = run_sssp(snap, 5)
    assert np.array_equal(inc.values, full.values)


@pytest.mark.parametrize("directed", [False, True])
def test_incremental_cc_matches_full(directed):
    V = 300
    all_edges = random_graph(V, 500, seed=12, directed=directed)
    first, second = all_edges[:300], all_edges[300:]
    store = load(TangoStore, V, first, False, directed)
    prev = run_cc(build_snapshot(store, need_in=directed)).values
    srcs = np.array([e[0][0] for e in second])
    dsts = np.array([e[0][1] for e in second])
    for (u, v), _ in second:
        store.insert_edge(u, v)
    snap = build_snapshot(store, need_in=directed)
    inc = run_cc(snap, prev=prev, new_edges=(srcs, dsts))
    full = run_cc(snap)
    assert np.array_equal(inc.values, full.values)


def test_pr_warm_start_converges_same():
    V = 150
    for directed in (True, False):
        all_edges = random_graph(V, 600, seed=13, directed=directed)
        first, second = all_edges[:400], all_edges[400:]
        store = load(TangoStore, V, first, False, directed)
        prev = run_pr(build_snapshot(store)).values
        for (u, v), _ in second:
            store.insert_edge(u, v)
        snap = build_snapshot(store)
        warm = run_pr(snap, prev=prev)
        cold = run_pr(snap)
        assert warm.mode == "incremental"
        assert np.allclose(warm.values, cold.values, atol=1e-5)


def test_snapshot_never_touches_hash_tables():
    V = 500
    store = load(TangoStore, V, random_graph(V, 3000, seed=14), False, False)
    # drive a few vertices into hash-backed territory
    for k in range(80):
        store.insert_edge(0, 100 + k)
    before = store.probe_stats()
    snap = build_snapshot(store)
    run_bfs(snap, 0)
    run_pr(snap)
    run_cc(snap)
    assert store.probe_stats() == before


def test_deterministic_results():
    V = 200
    edges = random_graph(V, 800, seed=15, weighted=True)
    store = load(TangoStore, V, edges, True, False)
    snap = build_snapshot(store)
    a1, a2 = run_sssp(snap, 0), run_sssp(snap, 0)
    assert np.array_equal(a1.values, a2.values)
    p1, p2 = run_pr(snap), run_pr(snap)
    assert np.array_equal(p1.values, p2.values)  # bitwise equal must hold


# -- relaxation engine against the sort-based oracle ---------------------------
# The engine's former form: candidates concatenated over CSR parts, grouped
# per destination by a stable argsort, min-reduced with reduceat. The engine
# must match it bit for bit on values, frontiers and round counts.


def oracle_gather(indptr, frontier):
    starts = indptr[frontier]
    cnts = indptr[frontier + 1] - starts
    total = int(cnts.sum())
    if total == 0:
        return None, None
    offs = np.cumsum(cnts) - cnts
    flat = np.arange(total, dtype=np.int64) - np.repeat(offs, cnts) + np.repeat(starts, cnts)
    return flat, np.repeat(frontier, cnts)


def oracle_scatter_min(values, cand_dst, cand_val):
    order = np.argsort(cand_dst, kind="stable")
    sd = cand_dst[order]
    sv = cand_val[order]
    group_starts = np.r_[0, np.nonzero(np.diff(sd))[0] + 1]
    mins = np.minimum.reduceat(sv, group_starts)
    dsts = sd[group_starts]
    better = mins < values[dsts]
    improved = dsts[better]
    values[improved] = mins[better]
    return improved


def oracle_round(csrs, values, frontier):
    """One round of the former engine; None when the frontier has no edges."""
    parts_dst, parts_val = [], []
    for indptr, indices, cost in csrs:
        flat, src = oracle_gather(indptr, frontier)
        if flat is None:
            continue
        parts_dst.append(indices[flat])
        add = cost[flat] if isinstance(cost, np.ndarray) else cost
        parts_val.append(values[src] + add)
    if not parts_dst:
        return None
    return oracle_scatter_min(values, np.concatenate(parts_dst),
                              np.concatenate(parts_val))


def oracle_min_relax(csrs, values, frontier):
    rounds = 0
    frontier = np.unique(np.asarray(frontier, dtype=np.int64))
    while frontier.size:
        rounds += 1
        frontier = oracle_round(csrs, values, frontier)
        if frontier is None:
            break
    return rounds


def oracle_seed_from_edges(values, srcs, dsts, costs, symmetric):
    srcs = np.asarray(srcs, dtype=np.int64)
    dsts = np.asarray(dsts, dtype=np.int64)
    if srcs.size == 0:
        return np.empty(0, dtype=np.int64)
    if symmetric:
        srcs, dsts = np.concatenate([srcs, dsts]), np.concatenate([dsts, srcs])
        if isinstance(costs, np.ndarray):
            costs = np.concatenate([costs, costs])
    cand = values[srcs] + costs
    finite = cand < np.inf
    cand, dsts = cand[finite], dsts[finite]
    if dsts.size == 0:
        return np.empty(0, dtype=np.int64)
    return oracle_scatter_min(values, dsts, cand)


# Small values make candidates tie with the current value; inf marks
# unreached vertices.
engine_values = hs.lists(hs.one_of(hs.just(np.inf), hs.integers(0, 6).map(float)),
                         min_size=1, max_size=12)


@hs.composite
def csr_part(draw, V):
    """One CSR over V rows: empty rows and repeated destinations allowed,
    cost a scalar or one small integer per edge."""
    rows = draw(hs.lists(hs.lists(hs.integers(0, V - 1), max_size=6),
                         min_size=V, max_size=V))
    indptr = np.zeros(V + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=indptr[1:])
    indices = np.array([d for r in rows for d in r], dtype=np.int64)
    if draw(hs.booleans()):
        cost = draw(hs.sampled_from([0.0, 1.0]))
    else:
        cost = np.array(draw(hs.lists(hs.integers(0, 3), min_size=len(indices),
                                      max_size=len(indices))), dtype=np.float64)
    return indptr, indices, cost


@settings(max_examples=300, deadline=None)
@given(hs.data())
def test_relax_round_matches_sort_oracle(data):
    vals = np.array(data.draw(engine_values))
    V = len(vals)
    csrs = [data.draw(csr_part(V)) for _ in range(data.draw(hs.integers(1, 2)))]
    frontier = np.array(sorted(data.draw(hs.sets(hs.integers(0, V - 1), min_size=1))),
                        dtype=np.int64)
    expect_vals = vals.copy()
    expect = oracle_round(csrs, expect_vals, frontier)
    got_vals = vals.copy()
    got = _relax_round(csrs, got_vals, frontier, np.empty_like(vals))
    assert np.array_equal(got_vals, expect_vals)
    assert got.tolist() == ([] if expect is None else expect.tolist())


@settings(max_examples=300, deadline=None)
@given(hs.data())
def test_seed_from_edges_matches_sort_oracle(data):
    vals = np.array(data.draw(engine_values))
    V = len(vals)
    n = data.draw(hs.integers(0, 10))
    ends = hs.lists(hs.integers(0, V - 1), min_size=n, max_size=n)
    srcs, dsts = np.array(data.draw(ends)), np.array(data.draw(ends))
    if data.draw(hs.booleans()):
        costs = data.draw(hs.sampled_from([0.0, 1.0]))
    else:
        costs = np.array(data.draw(hs.lists(hs.integers(0, 3), min_size=n, max_size=n)),
                         dtype=np.float64)
    symmetric = data.draw(hs.booleans())
    expect_vals, got_vals = vals.copy(), vals.copy()
    expect = oracle_seed_from_edges(expect_vals, srcs, dsts, costs, symmetric)
    got = _seed_from_edges(got_vals, srcs, dsts, costs, symmetric)
    assert np.array_equal(got_vals, expect_vals)
    assert got.tolist() == expect.tolist()


@pytest.mark.parametrize("kind", ["short", "heavy"])
@pytest.mark.parametrize("directed", [False, True])
def test_kernels_match_sort_oracle_batch_by_batch(monkeypatch, kind, directed):
    el = shuffle(gen_synthetic(kind, 400, 4000, seed=21, weighted=True,
                               directed=directed), 21)

    def stream():
        return run_experiment(el, "tango", algorithms=("bfs", "pr", "sssp", "cc"),
                              batch_size=400, collect_values=True)

    new_reports, _, new_values = stream()
    monkeypatch.setattr(analytics, "_min_relax", oracle_min_relax)
    monkeypatch.setattr(analytics, "_seed_from_edges", oracle_seed_from_edges)
    old_reports, _, old_values = stream()
    assert len(new_reports) == len(old_reports) == 20
    modes = set()
    for new, old, nv, ov in zip(new_reports, old_reports, new_values, old_values):
        assert new.algo_rounds == old.algo_rounds
        assert new.algo_modes == old.algo_modes
        modes.update(new.algo_modes.values())
        for name in nv:
            assert np.array_equal(nv[name], ov[name]), (new.phase, new.index, name)
    assert modes == {"full", "incremental"}


# -- pagerank against its former body ---------------------------------------------
# run_pr as it was before its steps reused buffers: a fresh array for every
# intermediate. The kernel must match it bit for bit, rounds included.


def oracle_pr(snap, prev=None):
    V = snap.num_vertices
    if V == 0:
        return np.empty(0), 0
    d = analytics._PR_DAMPING
    outdeg = snap.out_degrees()
    rank = np.full(V, 1.0 / V) if prev is None else prev.copy()
    base = (1.0 - d) / V
    contrib = np.zeros(V)
    has_out = outdeg > 0
    d2 = d * d
    switch = np.inf if snap.directed else d / (1.0 + np.sqrt(1.0 - d2))
    last = np.inf
    older = None
    omega = 1.0
    for it in range(1, analytics._PR_MAX_ITERS + 1):
        np.divide(rank, outdeg, out=contrib, where=has_out)
        acc = np.bincount(snap.indices, weights=np.repeat(contrib, outdeg), minlength=V)
        new = base + d * acc
        delta = float(np.abs(new - rank).sum())
        if delta < analytics._PR_TOL:
            break
        if older is not None:
            omega = 2.0 / (2.0 - d2) if omega == 1.0 else 1.0 / (1.0 - d2 * omega / 4.0)
            rank, older = older + omega * (new - older), rank
        else:
            if delta > switch * last:
                older = rank
            last = delta
            rank = new
    return new, it


@pytest.mark.parametrize("directed", [False, True])
def test_pr_matches_former_body_bit_for_bit(directed):
    V = 300
    # Vertices 250.. get no edge at all.
    edges = [e for e in random_graph(V, 900, seed=31, directed=directed)
             if max(e[0]) < 250]
    store = load(TangoStore, V, edges[:500], False, directed)
    first = build_snapshot(store)
    for (u, v), _ in edges[500:]:
        store.insert_edge(u, v)
    snap = build_snapshot(store)
    empty = build_snapshot(TangoStore(Config(directed=directed), 7))
    assert empty.num_edges == 0
    cases = [(first, None), (snap, None), (snap, run_pr(first).values),
             (empty, None), (empty, np.full(7, 0.5))]
    if not directed:  # stalls early, so most of its steps are Chebyshev's
        cases.append((build_snapshot(forest_with_odd_cycle()), None))
    for s, prev in cases:
        want, rounds = oracle_pr(s, prev)
        got = run_pr(s, prev=prev)
        assert got.values.dtype == want.dtype
        assert got.values.tobytes() == want.tobytes()
        assert got.rounds == rounds

"""Dataset loading/generation, the batched harness, and report emission."""

import json
import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from graphtango import Config, ParseError, TangoStore
from graphtango.analytics import KERNELS
from graphtango.bench import cli, data, harness
from graphtango.bench.cli import main
from graphtango.bench.data import EdgeList, gen_synthetic, load_snap, shuffle
from graphtango.bench.harness import (
    FORMATS,
    MAX_THREADS,
    REPORT_COLUMNS,
    WorkerSet,
    emit_report,
    emit_sweep_report,
    geomean,
    parse_report,
    route_batch,
    run_experiment,
    run_th1_sweep,
)
from graphtango.core import MAX_VERTICES, partition_of


def write(tmp_path, text, name="g.snap"):
    p = tmp_path / name
    p.write_text(text)
    return p


# -- load_snap ---------------------------------------------------------------


def test_load_snap_dense_remap_first_seen(tmp_path):
    p = write(tmp_path, "# comment\n10 20 5\n20 30 7\n\n10 30 2\n30 999999 1\n10 20 9\n")
    el = load_snap(p, weighted=True)
    assert el.num_vertices == 4
    assert el.num_edges == 5  # duplicate (10,20) kept
    assert list(el.remap) == [10, 20, 30, 999999]
    assert list(el.srcs) == [0, 1, 0, 2, 0]
    assert list(el.dsts) == [1, 2, 2, 3, 1]
    assert list(el.weights) == [5, 7, 2, 1, 9]


def test_load_snap_unweighted_drops_third_column(tmp_path):
    p = write(tmp_path, "1 2 3\n2 3 4\n")
    el = load_snap(p)
    assert el.weights is None
    assert el.num_edges == 2


@pytest.mark.parametrize("text,lineno,frag", [
    ("1 2 3\n4 x 1\n", 2, "non-integer vertex id"),
    ("1 2 -3\n", 1, "negative weight"),
    ("1 2\n", 1, "no weight"),
    ("1 2 3 4\n", 1, "fields"),
    ("1\n", 1, "fields"),
    (f"1 {2**64} 1\n", 1, "out of range"),
    ("# fine\n\n5 6 1\n1 2 bad\n", 4, "non-integer weight"),
])
def test_load_snap_errors_carry_line_numbers(tmp_path, text, lineno, frag):
    p = write(tmp_path, text)
    with pytest.raises(ParseError) as exc:
        load_snap(p, weighted=True)
    assert exc.value.lineno == lineno
    assert frag in str(exc.value)


def test_load_snap_keeps_64_bit_original_ids(tmp_path):
    p = write(tmp_path, f"{2**64 - 1} 0\n0 {2**63}\n")
    el = load_snap(p)
    assert el.num_vertices == 3
    assert el.remap.tolist() == [2**64 - 1, 0, 2**63]


def test_load_snap_refuses_more_than_max_vertices(tmp_path, monkeypatch):
    monkeypatch.setattr(data, "MAX_VERTICES", 3)
    assert load_snap(write(tmp_path, "10 20\n20 30\n30 10\n")).num_vertices == 3
    p = write(tmp_path, "10 20\n20 30\n30 40\n", name="four.snap")
    with pytest.raises(ParseError, match="more than 3 distinct") as exc:
        load_snap(p)
    assert exc.value.lineno == 3


def test_load_snap_directed_flag_propagates(tmp_path):
    p = write(tmp_path, "1 2\n")
    assert load_snap(p, directed=True).directed
    assert not load_snap(p).directed


# -- shuffle -----------------------------------------------------------------


def test_shuffle_deterministic_permutation():
    el = gen_synthetic("short", 50, 400, seed=3, weighted=True)
    a = shuffle(el, 11)
    b = shuffle(el, 11)
    c = shuffle(el, 12)
    assert np.array_equal(a.srcs, b.srcs) and np.array_equal(a.weights, b.weights)
    assert not np.array_equal(a.srcs, c.srcs)
    # a permutation: the multiset of (src, dst, w) triples is unchanged
    trip = lambda e: sorted(zip(e.srcs.tolist(), e.dsts.tolist(), e.weights.tolist()))
    assert trip(a) == trip(el) == trip(c)


# -- gen_synthetic -----------------------------------------------------------


def test_synthetic_deterministic_and_in_range():
    a = gen_synthetic("heavy_tailed", 100, 1000, seed=9, weighted=True)
    b = gen_synthetic("heavy", 100, 1000, seed=9, weighted=True)  # alias
    assert np.array_equal(a.srcs, b.srcs) and np.array_equal(a.dsts, b.dsts)
    assert np.array_equal(a.weights, b.weights)
    assert a.srcs.min() >= 0 and a.srcs.max() < 100
    assert a.dsts.min() >= 0 and a.dsts.max() < 100
    assert a.weights.min() >= 1 and a.weights.max() <= 16
    c = gen_synthetic("heavy", 100, 1000, seed=10, weighted=True)
    assert not np.array_equal(a.dsts, c.dsts)


def test_synthetic_degree_shapes():
    short = gen_synthetic("short", 2000, 40000, seed=1)
    heavy = gen_synthetic("heavy", 2000, 40000, seed=1)
    s_max = np.bincount(short.dsts, minlength=2000).max()
    h_max = np.bincount(heavy.dsts, minlength=2000).max()
    # uniform: max near E/V; power law: one vertex soaks up a large share
    assert s_max < 100
    assert h_max > 10000


def test_synthetic_validation():
    with pytest.raises(ValueError):
        gen_synthetic("bimodal", 10, 100, seed=0)
    with pytest.raises(ValueError):
        gen_synthetic("short", 100, 99, seed=0)  # E < V
    with pytest.raises(ValueError):
        gen_synthetic("short", 0, 0, seed=0)


def test_synthetic_refuses_more_than_max_vertices(monkeypatch):
    def no_generation(*args, **kwargs):
        raise AssertionError("generation started")

    monkeypatch.setattr(data.np.random, "default_rng", no_generation)
    with pytest.raises(ValueError, match="MAX_VERTICES"):
        gen_synthetic("short", MAX_VERTICES + 1, MAX_VERTICES + 1, seed=0)


# -- geomean -----------------------------------------------------------------


def test_geomean_examples():
    assert geomean([7.5]) == 7.5
    assert geomean([1.0, 4.0]) == pytest.approx(2.0, abs=1e-12)
    assert geomean([]) == 0.0
    assert geomean([0.0, 3.0]) == 3.0  # non-positive entries are excluded
    assert geomean([2.0, 2.0, 2.0]) == pytest.approx(2.0)


# -- routing -----------------------------------------------------------------


def test_route_batch_owner_and_order():
    rng = np.random.default_rng(0)
    srcs = rng.integers(0, 4000, 500, dtype=np.int64)
    dsts = rng.integers(0, 4000, 500, dtype=np.int64)
    routed = route_batch(srcs, dsts, None, directed=True, num_threads=3)
    total = 0
    for w, (v, nbr, p, side) in enumerate(routed):
        total += len(v)
        assert p is None
        for x in v.tolist():
            assert partition_of(x, 3) == w
    assert total == 1000  # every op lands in exactly one slice: out + in halves


def test_route_batch_undirected_self_loop_mirror_skipped():
    srcs = np.array([5, 7, 5], dtype=np.int64)
    dsts = np.array([5, 8, 9], dtype=np.int64)
    routed = route_batch(srcs, dsts, None, directed=False, num_threads=1)
    v, nbr, p, side = routed[0]
    # 3 directs + 2 mirrors; the (5,5) loop contributes one half only
    assert len(v) == 5
    assert list(side) == [0] * 5
    pairs = list(zip(v.tolist(), nbr.tolist()))
    assert pairs.count((5, 5)) == 1


def test_route_batch_directed_sides():
    srcs = np.array([1, 2], dtype=np.int64)
    dsts = np.array([2, 1], dtype=np.int64)
    routed = route_batch(srcs, dsts, None, directed=True, num_threads=1)
    v, nbr, p, side = routed[0]
    out_pairs = {(a, b) for a, b, s in zip(v.tolist(), nbr.tolist(), side.tolist()) if s == 0}
    in_pairs = {(a, b) for a, b, s in zip(v.tolist(), nbr.tolist(), side.tolist()) if s == 1}
    assert out_pairs == {(1, 2), (2, 1)}
    assert in_pairs == {(2, 1), (1, 2)}


def test_routed_apply_keeps_mirror_props_consistent():
    # Both orientations of one undirected edge in a single weighted batch:
    # the later op must win on BOTH endpoints' halves.
    cfg = Config(weighted=True)
    store = TangoStore(cfg, 10, num_threads=2)
    srcs = np.array([3, 7], dtype=np.int64)
    dsts = np.array([7, 3], dtype=np.int64)
    props = np.array([111, 222], dtype=np.int64)
    ws = WorkerSet(store, 2)
    try:
        ws.apply(True, route_batch(srcs, dsts, props, directed=False, num_threads=2))
    finally:
        ws.close()
    assert store.get_edge_prop(3, 7) == 222
    assert store.get_edge_prop(7, 3) == 222
    assert store.live_edges() == 1


def test_worker_apply_counts_weighted_overwrites():
    # Vertex 600 sits in the second 512-vertex partition, so the repeated
    # edge's two halves are applied by different workers.
    store = TangoStore(Config(weighted=True), 1024, num_threads=2)
    ws = WorkerSet(store, 2)
    try:
        batch = (np.array([1, 1, 2]), np.array([600, 600, 3]), np.array([5, 7, 1]))
        routed = route_batch(*batch, directed=False, num_threads=2)
        assert [len(r[0]) for r in routed] == [4, 2]
        assert ws.apply(True, routed) == 2  # both halves of the repeated (1, 600)
        assert ws.apply(True, routed) == 6
        assert ws.apply(False, routed) == 0
    finally:
        ws.close()


def test_worker_errors_surface():
    store = TangoStore(Config(), 4, num_threads=1)
    ws = WorkerSet(store, 1)
    try:
        bad = [(np.array([99], dtype=np.int64), np.array([0], dtype=np.int64),
                None, np.array([0], dtype=np.uint8))]
        with pytest.raises(IndexError):
            ws.apply(True, bad)
        # the worker survives a failed batch
        good = route_batch(np.array([1]), np.array([2]), None, directed=False,
                           num_threads=1)
        ws.apply(True, good)
    finally:
        ws.close()
    assert store.has_edge(1, 2)


# -- run_experiment ----------------------------------------------------------


def reference_store(el, config):
    """Single-threaded ground truth built with the two-sided edge ops."""
    ref = TangoStore(config, el.num_vertices)
    for i in range(el.num_edges):
        ref.insert_edge(int(el.srcs[i]), int(el.dsts[i]),
                        int(el.weights[i]) if el.weighted else None)
    return ref


def arcs(store):
    out = {}
    for v in range(store.num_vertices):
        ns = store.neighbors(v).tolist()
        ps = store.neighbor_props(v)
        out[v] = sorted(zip(ns, ps.tolist())) if ps is not None else sorted(ns)
    return out


def test_experiment_phases_and_drain():
    el = shuffle(gen_synthetic("short", 300, 2400, seed=5), 5)
    reports, summary = run_experiment(el, "tango", algorithms=("bfs",),
                                      batch_size=500, num_threads=2)
    assert len(reports) == 2 * math.ceil(2400 / 500)
    phases = [r.phase for r in reports]
    assert phases == ["insert"] * 5 + ["delete"] * 5
    lives = [r.live_edges for r in reports]
    assert lives[:5] == sorted(lives[:5])          # grows while inserting
    assert lives[4] == max(lives)
    assert lives[-1] == 0                          # drained
    assert all(r.edges == 500 for r in reports[:4])
    assert reports[4].edges == 400                 # remainder batch
    assert summary.insert_geomean_eps > 0
    assert summary.delete_geomean_eps > 0
    assert summary.mean_bytes_per_edge > 0
    assert summary.num_edges == 2400


def test_experiment_matches_single_thread_reference():
    cfg = Config(weighted=True, th1=8)
    el = shuffle(gen_synthetic("heavy", 200, 3000, seed=13, weighted=True), 13)
    # stop after the insert phase by rebuilding the final state separately
    store = TangoStore(cfg, el.num_vertices, num_threads=3)
    ws = WorkerSet(store, 3)
    try:
        for lo in range(0, el.num_edges, 700):
            s, d, w = el.slice(lo, lo + 700)
            ws.apply(True, route_batch(s, d, w, directed=False, num_threads=3))
    finally:
        ws.close()
    ref = reference_store(el, cfg)
    assert arcs(store) == arcs(ref)
    assert store.live_edges() == ref.live_edges()


def test_experiment_cross_format_analytics_agree():
    el = shuffle(gen_synthetic("short", 400, 2000, seed=21, weighted=True), 21)
    algos = ("bfs", "pr", "sssp", "cc")
    out = {}
    for fmt in ("tango", "adlist-shared", "adlist-chunked"):
        _, _, vals = run_experiment(el, fmt, algorithms=algos, batch_size=400,
                                    num_threads=2, collect_values=True)
        out[fmt] = vals
    a, b, c = out["tango"], out["adlist-shared"], out["adlist-chunked"]
    assert len(a) == len(b) == len(c) == 10
    for x, y in ((b, a), (c, a)):
        for vx, va in zip(x, y):
            for k in ("bfs", "sssp", "cc"):
                assert np.array_equal(vx[k], va[k])
            assert np.allclose(vx["pr"], va["pr"], atol=1e-9)


def test_experiment_deterministic_across_runs():
    el = shuffle(gen_synthetic("heavy", 300, 2500, seed=2, weighted=True), 2)
    runs = []
    for _ in range(2):
        reports, summary, vals = run_experiment(
            el, "tango", algorithms=("bfs", "pr"), batch_size=600,
            num_threads=3, collect_values=True)
        runs.append((reports, vals))
    ra, va = runs[0]
    rb, vb = runs[1]
    assert [r.live_edges for r in ra] == [r.live_edges for r in rb]
    assert [r.memory_bytes for r in ra] == [r.memory_bytes for r in rb]
    assert [r.probe_insert for r in ra] == [r.probe_insert for r in rb]
    for x, y in zip(va, vb):
        for k in x:
            assert np.array_equal(x[k], y[k])


def test_experiment_probe_hists_independent_of_thread_count(monkeypatch):
    # Each vertex sees the same op order under any thread count, so every
    # batch's probe histograms, hash_bytes and resize_copies must match the
    # single-threaded run's. Three workers and a tiny switch interval
    # interleave the threads often enough for a lost histogram, hash_bytes
    # or copy count update to show within one run.
    copies = []

    class CopyLog(TangoStore):
        def probe_stats(self):  # the harness calls it once after each batch
            copies[-1].append(self.resize_copies)
            return super().probe_stats()

    def logged_store(fmt, config, num_vertices, num_threads=1):
        copies.append([])
        return CopyLog(config, num_vertices, num_threads)

    monkeypatch.setattr(harness, "make_store", logged_store)
    el = shuffle(gen_synthetic("heavy", 3000, 30000, seed=7), 7)
    hists = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for threads in (1, 3):
            reports, _ = run_experiment(el, "tango", algorithms=(), batch_size=1000,
                                        num_threads=threads)
            hists.append([(r.probe_insert, r.probe_find, r.hash_bytes) for r in reports])
    finally:
        sys.setswitchinterval(interval)
    assert hists[0] == hists[1]
    assert copies[0] == copies[1] and len(copies[0]) == len(hists[0])
    assert copies[0][-1] > copies[0][len(copies[0]) // 2] > 0  # deletes copy too
    assert sum(sum(ins.values()) for ins, _, _ in hists[0]) > 1000
    assert len({h for _, _, h in hists[0]}) > 10  # tables were built, resized and freed


@pytest.mark.parametrize("fmt", ["adlist-chunked", "adlist-shared"])
def test_experiment_adlist_memory_independent_of_thread_count(fmt):
    # Workers write the per-vertex capacities memory_bytes sums; with more
    # workers than cores and frequent switches every batch's figure must
    # still match the single-threaded run's.
    el = shuffle(gen_synthetic("heavy", 3000, 30000, seed=7, weighted=True,
                               directed=True), 7)
    mems = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for threads in (1, 3):
            reports, _ = run_experiment(el, fmt, algorithms=(), batch_size=1000,
                                        num_threads=threads)
            mems.append([r.memory_bytes for r in reports])
    finally:
        sys.setswitchinterval(interval)
    assert mems[0] == mems[1]
    assert len(set(mems[0])) > 10  # the footprint moved across batches


def sssp_reference(el, reports, batch_size):
    """Per-batch scipy distances on the live edge set, last writer wins."""
    live = {}
    out = []
    for r in reports:
        lo = r.index * batch_size
        srcs, dsts, wts = el.slice(lo, lo + r.edges)
        for u, v, w in zip(srcs.tolist(), dsts.tolist(), wts.tolist()):
            key = (u, v) if el.directed else (min(u, v), max(u, v))
            if r.phase == "insert":
                live[key] = w
            else:
                live.pop(key, None)
        rows = [(u, v, w) for (u, v), w in live.items()]
        if not el.directed:
            rows += [(v, u, w) for u, v, w in rows if u != v]
        u, v, w = (np.array(c, dtype=np.int64) for c in zip(*rows)) if rows else ([], [], [])
        m = csr_matrix((np.asarray(w, dtype=np.float64), (u, v)),
                       shape=(el.num_vertices, el.num_vertices))
        out.append(dijkstra(m, directed=True, indices=0))
    return out


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("directed", [False, True])
def test_experiment_sssp_exact_on_reweighted_stream(directed, threads):
    # 900 draws over 60 vertices repeat many edges with fresh weights.
    el = shuffle(gen_synthetic("short", 60, 900, seed=3, weighted=True,
                               directed=directed), 3)
    reports, _, vals = run_experiment(el, "tango", algorithms=("sssp",),
                                      batch_size=60, num_threads=threads,
                                      collect_values=True)
    for r, got, want in zip(reports, vals, sssp_reference(el, reports, 60)):
        assert np.array_equal(got["sssp"], want), (r.phase, r.index)


def test_experiment_directed_with_cc():
    el = shuffle(gen_synthetic("short", 150, 900, seed=4, directed=True), 4)
    reports, summary = run_experiment(el, "tango", algorithms=("bfs", "cc"),
                                      batch_size=300, num_threads=2)
    assert reports[-1].live_edges == 0
    assert {"bfs", "cc"} == set(reports[0].algo_seconds)


def test_experiment_probe_hist_only_for_hybrid():
    el = shuffle(gen_synthetic("heavy", 100, 2000, seed=6), 6)
    rt, _ = run_experiment(el, "tango", algorithms=(), batch_size=1000)
    rb, _ = run_experiment(el, "adlist-chunked", algorithms=(), batch_size=1000)
    assert any(r.probe_insert for r in rt)  # hub crosses th1, hash gets used
    assert all(not r.probe_insert and not r.probe_find for r in rb)
    # analytics skipped entirely when no algorithms are requested
    assert all(r.analytics_seconds == 0 for r in rt)


def test_experiment_empty_edge_list():
    el = EdgeList(srcs=np.empty(0, np.int64), dsts=np.empty(0, np.int64),
                  weights=None, num_vertices=3, directed=False)
    reports, summary = run_experiment(el, "tango", algorithms=("bfs",))
    assert reports == []
    assert summary.insert_geomean_eps == 0.0
    assert summary.delete_geomean_eps == 0.0
    assert summary.mean_bytes_per_edge == 0.0


def test_experiment_validation_errors():
    el = gen_synthetic("short", 10, 50, seed=0)
    with pytest.raises(ValueError):
        run_experiment(el, "btree")
    with pytest.raises(ValueError):
        run_experiment(el, "tango", algorithms=("dfs",))
    with pytest.raises(ValueError):
        run_experiment(el, "tango", algorithms=("sssp",))  # unweighted list
    with pytest.raises(ValueError):
        run_experiment(el, "tango", config=Config(weighted=True))
    with pytest.raises(ValueError):
        run_experiment(el, "tango", batch_size=0)


def test_repeated_algorithm_refused_before_any_work(monkeypatch, capsys):
    # A repeated kernel would run twice per batch, the second run
    # incremental from the first's result, and overwrite its timings.
    refuse_threads(monkeypatch)
    el = gen_synthetic("short", 10, 50, seed=0)
    with pytest.raises(ValueError, match="'bfs' given twice"):
        run_experiment(el, "tango", algorithms=("bfs", "pr", "bfs"))
    with pytest.raises(ValueError, match="'cc' given twice"):
        run_th1_sweep(el, algorithms=("cc", "cc"))
    rc = main(["--synthetic", "short", "--vertices", "10", "--edges", "100",
               "--algorithms", "bfs,bfs"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "'bfs' given twice" in err


def test_routing_and_pools_share_one_owner_map(monkeypatch):
    # A debug pool raises PoolError when any thread but its first user
    # allocates or frees, so a half-op routed to a worker other than the
    # one whose pool holds its vertex's chunks fails the run. V > 1024
    # gives each of the three workers a 512-vertex partition.
    stores = []

    def debug_store(fmt, config, num_vertices, num_threads=1):
        stores.append(TangoStore(config, num_vertices, num_threads, debug=True))
        return stores[-1]

    monkeypatch.setattr(harness, "make_store", debug_store)
    el = shuffle(gen_synthetic("heavy", 2000, 20000, seed=3), 3)
    reports, _ = run_experiment(el, "tango", config=Config(th1=8), algorithms=(),
                                batch_size=5000, num_threads=3)
    assert max(r.hash_bytes for r in reports) > 0  # Type3 hubs built tables
    assert all(p.stats()["num_blocks"] > 0 for p in stores[0].pools)
    assert reports[-1].live_edges == 0


# -- reports -----------------------------------------------------------------


def run_small(tmp_path):
    el = shuffle(gen_synthetic("short", 60, 300, seed=8, weighted=True), 8)
    reports, summary = run_experiment(el, "tango", algorithms=("bfs", "sssp"),
                                      batch_size=100)
    path = tmp_path / "r.csv"
    emit_report(reports, summary, path, extra_meta={"dataset": el.source_name})
    return reports, summary, path


def test_report_roundtrips_exactly(tmp_path):
    reports, summary, path = run_small(tmp_path)
    comments, header, rows = parse_report(path)
    assert len(rows) == len(reports) + 1
    assert rows[-1]["batch"] == "summary"
    assert any("pagerank" in c for c in comments)
    assert any("dataset:" in c for c in comments)
    for r, row in zip(reports, rows):
        assert row["batch"] == r.index
        assert row["phase"] == r.phase
        assert row["edges"] == r.edges
        assert row["seconds"] == r.seconds          # exact: repr round-trip
        assert row["edges_per_s"] == r.edges_per_s
        assert row["memory_bytes"] == r.memory_bytes
        assert row["bfs_s"] == r.algo_seconds["bfs"]
        assert row["pr_s"] is None                  # not requested
        assert row["analytics_s"] == r.analytics_seconds
        assert row["hash_bytes"] == r.hash_bytes
    assert header[-1] == "hash_bytes"
    s = rows[-1]
    assert s["insert_geomean_eps"] == summary.insert_geomean_eps
    assert s["delete_geomean_eps"] == summary.delete_geomean_eps
    assert s["mean_bytes_per_edge"] == summary.mean_bytes_per_edge
    assert s["total_seconds"] == summary.total_seconds
    assert s["hash_bytes"] is None


def test_report_carries_kernel_rounds_and_modes(tmp_path, monkeypatch):
    results = []
    for name in KERNELS:
        kernel = getattr(harness, f"run_{name}")

        def recorded(*args, _kernel=kernel, **kwargs):
            results.append(_kernel(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(harness, f"run_{name}", recorded)
    el = shuffle(gen_synthetic("short", 60, 300, seed=8, weighted=True), 8)
    reports, summary = run_experiment(el, "tango", algorithms=("cc", "sssp", "bfs", "pr"),
                                      batch_size=100)
    path = tmp_path / "r.csv"
    emit_report(reports, summary, path)
    _, header, rows = parse_report(path)
    assert tuple(header) == REPORT_COLUMNS
    # Columns that predate the rounds/mode columns keep their positions.
    assert header.index("total_seconds") == 21
    kernel_cols = [f"{k}_rounds" for k in KERNELS] + [f"{k}_mode" for k in KERNELS]
    assert len(results) == 4 * len(reports)
    for i, row in enumerate(rows[:-1]):
        for res in results[4 * i:4 * i + 4]:
            assert row[f"{res.name}_rounds"] == res.rounds
            assert row[f"{res.name}_mode"] == res.mode
    assert {r.mode for r in results} == {"full", "incremental"}
    assert all(rows[-1][c] is None for c in kernel_cols + ["hash_bytes"])


def test_hash_bytes_is_the_tables_share_of_memory(tmp_path):
    el = shuffle(gen_synthetic("heavy", 200, 3000, seed=13, weighted=True), 13)
    for fmt in FORMATS:
        reports, summary = run_experiment(el, fmt, algorithms=(), batch_size=500)
        if fmt == "tango":
            # Builds, doublings and releases all show; every table is gone
            # with the last edge.
            assert len({r.hash_bytes for r in reports}) > 2
            assert all(0 <= r.hash_bytes < r.memory_bytes for r in reports)
            assert reports[-1].hash_bytes == 0
        else:
            assert all(r.hash_bytes == 0 for r in reports)
        path = tmp_path / f"{fmt}.csv"
        emit_report(reports, summary, path)
        _, _, rows = parse_report(path)
        assert [row["hash_bytes"] for row in rows] == [r.hash_bytes for r in reports] + [None]


def test_probe_histograms_match_golden():
    # A probe sequence depends only on the key and the table size, never on
    # how a slot encodes its entry, so these recorded histograms must not
    # move under any change to the slot layout.
    golden = json.loads((Path(__file__).parent / "data" / "heavy_probe_golden.json").read_text())
    el = gen_synthetic("heavy", 2000, 20000, seed=5)
    reports, _ = run_experiment(el, "tango", config=Config(th1=8), algorithms=(),
                                batch_size=2000)
    got = [{"phase": r.phase, "live_edges": r.live_edges,
            "probe_insert": {str(d): c for d, c in sorted(r.probe_insert.items())},
            "probe_find": {str(d): c for d, c in sorted(r.probe_find.items())}}
           for r in reports]
    assert len(got) == len(golden) == 20
    for i, (g, want) in enumerate(zip(got, golden)):
        assert g == want, f"batch {i}"


def test_report_deterministic_bytes(tmp_path):
    el = shuffle(gen_synthetic("short", 40, 200, seed=1), 1)
    reports, summary = run_experiment(el, "tango", algorithms=(), batch_size=50)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_report(reports, summary, p1)
    emit_report(reports, summary, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_probe_hist_column_encoding(tmp_path):
    el = shuffle(gen_synthetic("heavy", 80, 1600, seed=3), 3)
    reports, summary = run_experiment(el, "tango", algorithms=(), batch_size=800)
    path = tmp_path / "h.csv"
    emit_report(reports, summary, path)
    _, _, rows = parse_report(path)
    cell = next(r["probe_insert_hist"] for r in rows
                if isinstance(r.get("probe_insert_hist"), str))
    parsed = {int(k): int(v) for k, v in (kv.split(":") for kv in cell.split(";"))}
    assert parsed and all(d >= 1 for d in parsed)


# -- th1 sweep ---------------------------------------------------------------


def test_th1_sweep_rows(tmp_path):
    el = shuffle(gen_synthetic("short", 120, 960, seed=17), 17)
    rows = run_th1_sweep(el, algorithms=(), batch_size=240,
                         th1_values=(8, 16, 32))
    assert [r["th1"] for r in rows] == [8, 16, 32]
    for r in rows:
        assert r["insert_geomean_eps"] > 0
        assert r["insert_mean_bytes_per_edge"] > 0
        assert r["peak_memory_bytes"] > 0
    path = tmp_path / "sweep.csv"
    emit_sweep_report(rows, path, extra_meta={"dataset": "x"})
    _, header, parsed = parse_report(path)
    assert header[0] == "th1"
    assert [r["th1"] for r in parsed] == [8, 16, 32]
    assert parsed[0]["peak_memory_bytes"] == rows[0]["peak_memory_bytes"]


# -- CLI ---------------------------------------------------------------------


def test_cli_synthetic_run_writes_report(tmp_path, capsys):
    path = tmp_path / "out.csv"
    rc = main(["--synthetic", "short", "--vertices", "80", "--edges", "400",
               "--batch-size", "100", "--threads", "2",
               "--report", str(path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "insert geomean" in out
    _, _, rows = parse_report(path)
    assert rows[-1]["batch"] == "summary"
    assert len(rows) == 9  # 4 insert + 4 delete + summary


def test_cli_file_input_weighted_sssp(tmp_path, capsys):
    snap = write(tmp_path, "0 1 4\n1 2 1\n2 3 2\n0 3 9\n3 4 1\n")
    rc = main(["--input", str(snap), "--weighted", "--algorithms", "sssp,bfs",
               "--batch-size", "2"])
    assert rc == 0
    assert "analytics geomean" in capsys.readouterr().out


def test_cli_sweep(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    rc = main(["--synthetic", "heavy", "--vertices", "60", "--edges", "360",
               "--sweep-th1", "--algorithms", "", "--batch-size", "120",
               "--report", str(path)])
    assert rc == 0
    assert "th1=8" in capsys.readouterr().out
    _, header, rows = parse_report(path)
    assert [r["th1"] for r in rows] == [8, 16, 32, 64, 128, 256, 512]


def test_cli_th1_flag_and_no_config_file(tmp_path, capsys):
    argv = ["--synthetic", "short", "--vertices", "30", "--edges", "90",
            "--weighted", "--th1", "16", "--algorithms", ""]
    assert main(argv) == 0
    assert "th1=16" in capsys.readouterr().out
    cfgf = tmp_path / "cfg.txt"
    cfgf.write_text("th1 = 64\n")
    with pytest.raises(SystemExit) as ei:
        main(argv + ["--config", str(cfgf)])
    assert ei.value.code == 2
    assert "--config" in capsys.readouterr().err
    with pytest.raises(SystemExit) as ei:  # reports are CSV only
        main(argv + ["--report-format", "tsv"])
    assert ei.value.code == 2
    assert "--report-format" in capsys.readouterr().err


def test_cli_weight_beyond_int64_exits_2(tmp_path, capsys):
    snap = write(tmp_path, "0 1 4\n1 2 99999999999999999999\n")
    rc = main(["--input", str(snap), "--weighted", "--algorithms", "sssp"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "int64" in err


@pytest.mark.parametrize("argv", [
    ["--input", "/nonexistent/file.snap"],
    ["--synthetic", "short", "--edges", "100"],
    ["--synthetic", "short", "--vertices", "10", "--edges", "100",
     "--algorithms", "sssp"],
    ["--synthetic", "short", "--vertices", "10", "--edges", "100",
     "--th1", "7"],
    ["--synthetic", "short", "--vertices", "10", "--edges", "100",
     "--format", "adlist-shared", "--sweep-th1"],
])
def test_cli_errors_exit_nonzero(argv, capsys):
    rc = main(argv)
    assert rc == 2
    assert "error" in capsys.readouterr().err


def refuse_threads(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a thread or store was built before the cap check")

    monkeypatch.setattr(threading, "Thread", refuse)
    monkeypatch.setattr(harness, "make_store", refuse)


def test_thread_cap_checked_before_any_thread_starts(monkeypatch):
    refuse_threads(monkeypatch)
    el = gen_synthetic("short", 10, 50, seed=0)
    with pytest.raises(ValueError, match="MAX_THREADS"):
        run_experiment(el, "tango", num_threads=MAX_THREADS + 1)
    with pytest.raises(ValueError, match="MAX_THREADS"):
        run_th1_sweep(el, algorithms=(), num_threads=MAX_THREADS + 1)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("threads", [0, -1])
def test_thread_count_below_one_refused_before_any_thread(monkeypatch, capsys, fmt, threads):
    # Routing takes owners modulo the thread count, so 0 would apply nothing.
    refuse_threads(monkeypatch)
    el = gen_synthetic("short", 10, 50, seed=0)
    with pytest.raises(ValueError, match=">= 1"):
        run_experiment(el, fmt, num_threads=threads)
    rc = main(["--synthetic", "short", "--vertices", "10", "--edges", "100",
               "--format", fmt, "--threads", str(threads)])
    assert rc == 2
    assert ">= 1" in capsys.readouterr().err


def test_cli_vertices_above_max_exit_2_before_generation(monkeypatch, capsys):
    def no_generation(*args, **kwargs):
        raise AssertionError("generation started")

    monkeypatch.setattr(data.np.random, "default_rng", no_generation)
    rc = main(["--synthetic", "short", "--vertices", "4294967296",
               "--edges", "4294967296"])
    assert rc == 2
    assert "MAX_VERTICES" in capsys.readouterr().err


def refuse_allocation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a dataset or store was built before the memory check")

    monkeypatch.setattr(data.np.random, "default_rng", refuse)
    monkeypatch.setattr(harness, "make_store", refuse)


def test_cli_oversized_synthetic_exits_2_before_allocation(monkeypatch, capsys):
    refuse_allocation(monkeypatch)
    monkeypatch.setattr(cli, "physical_memory_bytes", lambda: 8 * 2**30)
    rc = main(["--synthetic", "short", "--vertices", "10", "--edges", "1000000000000"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("graphtango-bench: error:") and err.count("\n") == 1
    assert "29802.3 GiB" in err and "8.0 GiB" in err
    # MAX_VERTICES meta lines alone are 256 GiB.
    rc = main(["--synthetic", "short", "--vertices", str(MAX_VERTICES),
               "--edges", str(MAX_VERTICES)])
    assert rc == 2
    assert "edge arrays and meta lines" in capsys.readouterr().err


@pytest.mark.parametrize("extra,need", [
    ([], 2 * 3000 * 16 + 1000 * 64),
    (["--weighted", "--directed"], 2 * 3000 * 24 + 2 * 1000 * 64),
])
def test_cli_refuses_what_exceeds_physical_memory(monkeypatch, capsys, extra, need):
    argv = ["--synthetic", "short", "--vertices", "1000", "--edges", "3000",
            "--algorithms", ""] + extra
    with monkeypatch.context() as m:
        refuse_allocation(m)
        m.setattr(cli, "physical_memory_bytes", lambda: need - 1)
        assert main(argv) == 2
    assert "edge arrays and meta lines" in capsys.readouterr().err
    monkeypatch.setattr(cli, "physical_memory_bytes", lambda: need)
    assert main(argv) == 0


def test_cli_refuses_oversized_input_before_the_store(tmp_path, monkeypatch, capsys):
    snap = write(tmp_path, "0 1\n1 2\n")
    refuse_allocation(monkeypatch)
    monkeypatch.setattr(cli, "physical_memory_bytes", lambda: 64)
    assert main(["--input", str(snap)]) == 2
    assert "3 vertices and 2 edges" in capsys.readouterr().err


def test_cli_memory_error_exits_2(monkeypatch, capsys):
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(cli, "gen_synthetic", no_memory)
    rc = main(["--synthetic", "short", "--vertices", "10", "--edges", "100"])
    assert rc == 2
    assert capsys.readouterr().err == \
        "graphtango-bench: error: Unable to allocate 7.28 TiB for an array\n"


def test_cli_threads_above_cap_exits_2(monkeypatch, capsys):
    refuse_threads(monkeypatch)
    for extra in ([], ["--sweep-th1"]):
        rc = main(["--synthetic", "short", "--vertices", "10", "--edges", "100",
                   "--threads", str(MAX_THREADS + 1)] + extra)
        assert rc == 2
        assert "MAX_THREADS" in capsys.readouterr().err


def test_cli_sssp_weight_above_2_53_exits_2(tmp_path, capsys):
    snap = write(tmp_path, "0 1 9007199254740993\n")
    rc = main(["--input", str(snap), "--weighted", "--algorithms", "sssp"])
    assert rc == 2
    assert "2^53" in capsys.readouterr().err
    # Only sssp reads weights as float64 distances; 2^53 itself is exact.
    assert main(["--input", str(snap), "--weighted", "--algorithms", "bfs"]) == 0
    exact = write(tmp_path, "0 1 9007199254740992\n", name="exact.snap")
    assert main(["--input", str(exact), "--weighted", "--algorithms", "sssp"]) == 0

"""Batched update + analytics experiment driver.

An experiment inserts the whole edge list in fixed-size batches, runs every
requested algorithm after each batch, then deletes in batches of the same
size until the store is empty, again with analytics per batch.  Updates are
applied by a set of worker threads spawned once per experiment; a barrier
separates each update phase from the analytics that reads the store.

Per-vertex routing keeps results reproducible: every half-operation for a
vertex goes to that vertex's owner worker, and each worker applies its
stream in batch order, so a fixed (seed, config, thread count) produces an
identical final graph and identical analytics values on every run.  The
shared-lock baseline accepts updates from any thread; the harness still
routes it by owner so its traces stay deterministic too, and its per-vertex
locks are paid on every operation either way.
"""

from __future__ import annotations

import csv
import math
import threading
from dataclasses import dataclass, field
from queue import SimpleQueue
from time import perf_counter

import numpy as np

from ..analytics import KERNELS, build_snapshot, run_bfs, run_cc, run_pr, run_sssp
from ..baseline import AdListChunked, AdListShared
from ..core import Config, partition_of
from ..store import TangoStore
from .data import EdgeList

FORMATS = ("tango", "adlist-shared", "adlist-chunked")

DEFAULT_BATCH_SIZE = 100_000
DEFAULT_SOURCE = 0

# Threshold values exercised by sweep mode.
TH1_SWEEP = (8, 16, 32, 64, 128, 256, 512)

# Upper bound on update worker threads, checked before any starts. Each is
# an OS thread, and under the GIL more of them add no update throughput.
MAX_THREADS = 64

# float64 holds every integer up to 2^53 exactly; sssp distances are float64.
MAX_EXACT_WEIGHT = 2**53


def make_store(fmt: str, config: Config, num_vertices: int, num_threads: int = 1):
    if fmt == "tango":
        return TangoStore(config, num_vertices, num_threads)
    if fmt == "adlist-shared":
        return AdListShared(config, num_vertices, num_threads)
    if fmt == "adlist-chunked":
        return AdListChunked(config, num_vertices, num_threads)
    raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def geomean(values) -> float:
    """Geometric mean of the positive entries; 0.0 when there are none."""
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    if len(vals) == 1:
        return float(vals[0])
    return math.exp(math.fsum(map(math.log, vals)) / len(vals))


# -- update routing ----------------------------------------------------------


def route_batch(srcs, dsts, props, *, directed: bool, num_threads: int):
    """Split one batch of logical edges into per-worker half-op arrays.

    A vertex's owner is partition_of(v, num_threads), the map the hybrid
    store picks its pools by.  Each logical edge contributes a direct half
    at owner(src) and a mirror half at owner(dst): the reverse edge for
    undirected graphs (skipped for self loops), the in-side entry for
    directed ones.  Halves are interleaved
    per edge before a stable sort by owner, so each worker's slice preserves
    global batch order; that pins every per-vertex mutation sequence even
    when both orientations of an edge occur in the same batch.

    Returns [(v, nbr, prop|None, side), ...], one tuple per worker.
    """
    n = len(srcs)
    v = np.empty(2 * n, dtype=np.int64)
    nbr = np.empty(2 * n, dtype=np.int64)
    v[0::2] = srcs
    v[1::2] = dsts
    nbr[0::2] = dsts
    nbr[1::2] = srcs
    side = np.zeros(2 * n, dtype=np.uint8)
    if directed:
        side[1::2] = 1
    p = None
    if props is not None:
        p = np.empty(2 * n, dtype=np.int64)
        p[0::2] = props
        p[1::2] = props
    if not directed:
        keep = np.ones(2 * n, dtype=bool)
        keep[1::2] = srcs != dsts
        v, nbr, side = v[keep], nbr[keep], side[keep]
        if p is not None:
            p = p[keep]
    owner = partition_of(v, num_threads)
    order = np.argsort(owner, kind="stable")
    v, nbr, side, owner = v[order], nbr[order], side[order], owner[order]
    if p is not None:
        p = p[order]
    bounds = np.searchsorted(owner, np.arange(num_threads + 1))
    out = []
    for w in range(num_threads):
        lo, hi = bounds[w], bounds[w + 1]
        out.append((v[lo:hi], nbr[lo:hi], p[lo:hi] if p is not None else None,
                    side[lo:hi]))
    return out


def apply_ops(store, insert: bool, vs, ns, ps, sides) -> int:
    """Apply one worker's half-op slice in order.

    Returns how many weighted inserts overwrote an existing edge's weight;
    unweighted slices and deletes return 0 without counting.
    """
    overwrites = 0
    if insert:
        ih = store.insert_half
        if ps is None:
            for a, b, s in zip(vs.tolist(), ns.tolist(), sides.tolist()):
                ih(a, b, 0, s)
        else:
            for a, b, pp, s in zip(vs.tolist(), ns.tolist(), ps.tolist(),
                                   sides.tolist()):
                if not ih(a, b, pp, s):
                    overwrites += 1
    else:
        dh = store.delete_half
        for a, b, s in zip(vs.tolist(), ns.tolist(), sides.tolist()):
            dh(a, b, s)
    return overwrites


class WorkerSet:
    """Long-lived update workers, one op queue each.

    Spawned once per experiment.  apply() submits a routed batch and blocks
    until every worker has drained its slice; that return is the barrier
    between the update phase and the analytics phase.
    """

    def __init__(self, store, num_threads: int):
        self.store = store
        self.num_threads = num_threads
        self._queues = [SimpleQueue() for _ in range(num_threads)]
        self._done: SimpleQueue = SimpleQueue()
        self._threads = [
            threading.Thread(target=self._loop, args=(q,), daemon=True,
                             name=f"bench-worker-{i}")
            for i, q in enumerate(self._queues)
        ]
        for t in self._threads:
            t.start()

    def _loop(self, q: SimpleQueue) -> None:
        store = self.store
        while True:
            item = q.get()
            if item is None:
                return
            try:
                self._done.put(apply_ops(store, *item))
            except BaseException as exc:  # surfaced by apply()
                self._done.put(exc)

    def apply(self, insert: bool, routed) -> int:
        """Run one routed batch; returns the workers' summed overwrite count."""
        pending = 0
        for w, (vs, ns, ps, sides) in enumerate(routed):
            if len(vs):
                self._queues[w].put((insert, vs, ns, ps, sides))
                pending += 1
        overwrites = 0
        failure = None
        for _ in range(pending):
            res = self._done.get()
            if isinstance(res, BaseException):
                failure = failure or res
            else:
                overwrites += res
        if failure is not None:
            raise failure
        return overwrites

    def close(self) -> None:
        for q in self._queues:
            q.put(None)
        for t in self._threads:
            t.join()


# -- per-batch and per-experiment records ------------------------------------


@dataclass
class BatchReport:
    """Everything measured for one update batch plus its analytics pass."""

    index: int
    phase: str                      # "insert" | "delete"
    edges: int                      # logical edge ops in the batch
    seconds: float                  # routing + apply + barrier, monotonic clock
    live_edges: float
    memory_bytes: int
    snapshot_seconds: float
    algo_seconds: dict = field(default_factory=dict)
    algo_rounds: dict = field(default_factory=dict)    # KernelResult.rounds
    algo_modes: dict = field(default_factory=dict)     # "full" | "incremental"
    probe_insert: dict = field(default_factory=dict)   # per-batch histogram delta
    probe_find: dict = field(default_factory=dict)
    hash_bytes: int = 0             # part of memory_bytes held by hash tables

    @property
    def edges_per_s(self) -> float:
        return self.edges / self.seconds if self.seconds > 0 else 0.0

    @property
    def bytes_per_edge(self) -> float:
        if self.live_edges <= 0:
            return float("nan")
        return self.memory_bytes / self.live_edges

    @property
    def analytics_seconds(self) -> float:
        return self.snapshot_seconds + sum(self.algo_seconds.values())

    @property
    def analytics_eps(self) -> float:
        t = self.analytics_seconds
        return self.edges / t if t > 0 else 0.0


@dataclass
class ExperimentSummary:
    format: str
    num_vertices: int
    num_edges: int
    batch_size: int
    num_threads: int
    th1: int
    algorithms: tuple
    insert_geomean_eps: float
    delete_geomean_eps: float
    analytics_geomean_eps: float
    mean_bytes_per_edge: float
    total_seconds: float


def summarize(reports, *, fmt: str, el: EdgeList, batch_size: int,
              num_threads: int, th1: int, algorithms,
              total_seconds: float) -> ExperimentSummary:
    ins = [r.edges_per_s for r in reports if r.phase == "insert"]
    del_ = [r.edges_per_s for r in reports if r.phase == "delete"]
    ana = [r.analytics_eps for r in reports if r.analytics_seconds > 0]
    bpe = [r.bytes_per_edge for r in reports if not math.isnan(r.bytes_per_edge)]
    return ExperimentSummary(
        format=fmt,
        num_vertices=el.num_vertices,
        num_edges=el.num_edges,
        batch_size=batch_size,
        num_threads=num_threads,
        th1=th1,
        algorithms=tuple(algorithms),
        insert_geomean_eps=geomean(ins),
        delete_geomean_eps=geomean(del_),
        analytics_geomean_eps=geomean(ana),
        mean_bytes_per_edge=sum(bpe) / len(bpe) if bpe else 0.0,
        total_seconds=total_seconds,
    )


def _hist_delta(new: dict, old: dict) -> dict:
    out = {}
    for k, c in new.items():
        d = c - old.get(k, 0)
        if d:
            out[k] = d
    return out


# -- the experiment ----------------------------------------------------------


def run_experiment(el: EdgeList, fmt: str = "tango", *, config: Config | None = None,
                   algorithms=("bfs", "pr"), batch_size: int = DEFAULT_BATCH_SIZE,
                   num_threads: int = 1, source: int = DEFAULT_SOURCE,
                   collect_values: bool = False):
    """Run the insert-all / delete-all batched experiment on one store format.

    Analytics run after every batch: incrementally on insert batches once a
    previous result exists (the batch's edges seed the recomputation), from
    scratch on delete batches and, for sssp, on insert batches that
    re-weighted an existing edge, with PageRank always warm-started from the
    previous ranks.  Snapshot construction is counted as analytics time.

    Returns (reports, summary); with collect_values also a per-batch list of
    {algorithm: values} arrays for differential testing.
    """
    if config is None:
        config = Config(weighted=el.weighted, directed=el.directed)
    if config.weighted != el.weighted:
        raise ValueError("config.weighted does not match the edge list")
    if config.directed != el.directed:
        raise ValueError("config.directed does not match the edge list")
    for i, name in enumerate(algorithms):
        if name not in KERNELS:
            raise ValueError(f"unknown algorithm {name!r}; expected one of {KERNELS}")
        if name in algorithms[:i]:
            raise ValueError(f"algorithm {name!r} given twice")
    if "sssp" in algorithms and not el.weighted:
        raise ValueError("sssp requires a weighted edge list")
    if "sssp" in algorithms and el.num_edges and el.weights.max() > MAX_EXACT_WEIGHT:
        raise ValueError(f"sssp needs weights <= 2^53 (float64 distances round "
                         f"larger ones); the edge list holds {el.weights.max()}")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if num_threads < 1:
        raise ValueError(f"num_threads must be >= 1, got {num_threads}")
    if num_threads > MAX_THREADS:
        raise ValueError(f"num_threads {num_threads} exceeds MAX_THREADS {MAX_THREADS}")

    store = make_store(fmt, config, el.num_vertices, num_threads)
    workers = WorkerSet(store, num_threads)
    is_tango = isinstance(store, TangoStore)
    need_in = config.directed and "cc" in algorithms

    reports: list[BatchReport] = []
    values_log: list[dict] = []
    prev: dict[str, np.ndarray] = {}
    last_probe = {"insert": {}, "find": {}}
    t_start = perf_counter()
    try:
        for phase in ("insert", "delete"):
            inserting = phase == "insert"
            for bi, lo in enumerate(range(0, el.num_edges, batch_size)):
                hi = min(lo + batch_size, el.num_edges)
                srcs, dsts, wts = el.slice(lo, hi)

                t0 = perf_counter()
                routed = route_batch(srcs, dsts, wts, directed=config.directed,
                                     num_threads=num_threads)
                overwrites = workers.apply(inserting, routed)
                seconds = perf_counter() - t0

                live = store.live_edges()
                mem = store.memory_bytes()
                hash_bytes = store.hash_bytes

                snap = None
                snapshot_seconds = 0.0
                if algorithms:
                    s0 = perf_counter()
                    snap = build_snapshot(store, need_in=need_in)
                    snapshot_seconds = perf_counter() - s0

                algo_seconds, algo_rounds, algo_modes = {}, {}, {}
                batch_values = {}
                for name in algorithms:
                    p = prev.get(name)
                    incr = inserting and p is not None
                    a0 = perf_counter()
                    if name == "bfs":
                        res = run_bfs(snap, source, prev=p,
                                      new_edges=(srcs, dsts) if incr else None)
                    elif name == "sssp":
                        # A re-weighted edge may have grown heavier, which
                        # relaxation from prev cannot see: run in full.
                        incr = incr and not overwrites
                        res = run_sssp(snap, source, prev=p if incr else None,
                                       new_edges=(srcs, dsts, wts) if incr else None)
                    elif name == "cc":
                        res = run_cc(snap, prev=p,
                                     new_edges=(srcs, dsts) if incr else None)
                    else:
                        res = run_pr(snap, prev=p)
                    algo_seconds[name] = perf_counter() - a0
                    algo_rounds[name] = res.rounds
                    algo_modes[name] = res.mode
                    prev[name] = res.values
                    if collect_values:
                        batch_values[name] = res.values

                if is_tango:
                    probe = store.probe_stats()
                    probe_insert = _hist_delta(probe["insert"], last_probe["insert"])
                    probe_find = _hist_delta(probe["find"], last_probe["find"])
                    last_probe = probe
                else:
                    probe_insert, probe_find = {}, {}

                reports.append(BatchReport(
                    index=bi, phase=phase, edges=hi - lo, seconds=seconds,
                    live_edges=live, memory_bytes=mem,
                    snapshot_seconds=snapshot_seconds, algo_seconds=algo_seconds,
                    algo_rounds=algo_rounds, algo_modes=algo_modes,
                    probe_insert=probe_insert, probe_find=probe_find,
                    hash_bytes=hash_bytes,
                ))
                if collect_values:
                    values_log.append(batch_values)
    finally:
        workers.close()
    total_seconds = perf_counter() - t_start

    if el.num_edges and store.live_edges() != 0:
        raise RuntimeError("delete phase did not drain the store")

    summary = summarize(reports, fmt=fmt, el=el, batch_size=batch_size,
                        num_threads=num_threads, th1=config.th1,
                        algorithms=algorithms, total_seconds=total_seconds)
    if collect_values:
        return reports, summary, values_log
    return reports, summary


def run_th1_sweep(el: EdgeList, *, algorithms=("bfs",),
                  batch_size: int = DEFAULT_BATCH_SIZE, num_threads: int = 1,
                  th1_values=TH1_SWEEP, source: int = DEFAULT_SOURCE):
    """Repeat the experiment on the hybrid store across hash thresholds.

    Returns one row per threshold with throughput geomeans, the insert-phase
    mean bytes per edge, and the peak memory footprint.
    """
    rows = []
    for th1 in th1_values:
        config = Config(weighted=el.weighted, directed=el.directed, th1=th1)
        reports, summary = run_experiment(
            el, "tango", config=config, algorithms=algorithms,
            batch_size=batch_size, num_threads=num_threads, source=source)
        ins = [r for r in reports if r.phase == "insert"]
        bpe = [r.bytes_per_edge for r in ins if not math.isnan(r.bytes_per_edge)]
        rows.append({
            "th1": th1,
            "insert_geomean_eps": summary.insert_geomean_eps,
            "delete_geomean_eps": summary.delete_geomean_eps,
            "analytics_geomean_eps": summary.analytics_geomean_eps,
            "insert_mean_bytes_per_edge": sum(bpe) / len(bpe) if bpe else 0.0,
            "peak_memory_bytes": max((r.memory_bytes for r in ins), default=0),
        })
    return rows


# -- report emission ---------------------------------------------------------

REPORT_COLUMNS = (
    "batch", "phase", "edges", "seconds", "edges_per_s", "live_edges",
    "memory_bytes", "bytes_per_edge", "snapshot_s", "bfs_s", "pr_s",
    "sssp_s", "cc_s", "analytics_s", "analytics_eps",
    "probe_insert_hist", "probe_find_hist",
    "insert_geomean_eps", "delete_geomean_eps", "analytics_geomean_eps",
    "mean_bytes_per_edge", "total_seconds",
    "bfs_rounds", "pr_rounds", "sssp_rounds", "cc_rounds",
    "bfs_mode", "pr_mode", "sssp_mode", "cc_mode",
    "hash_bytes",
)

SWEEP_COLUMNS = (
    "th1", "insert_geomean_eps", "delete_geomean_eps", "analytics_geomean_eps",
    "insert_mean_bytes_per_edge", "peak_memory_bytes",
)

# Stated in every report header so numbers are interpretable on their own.
PR_FORMULA_NOTE = (
    "pagerank: rank(v) = (1-d)/|V| + d*sum_{u->v} rank(u)/outdeg(u), "
    "d=0.85, L1 step tolerance 1e-07, max 100 iterations; "
    "sink rank is not redistributed"
)


def _fmt_hist(hist: dict) -> str:
    return ";".join(f"{k}:{hist[k]}" for k in sorted(hist))


def _num(x) -> str:
    # repr round-trips floats exactly; ints print plainly
    return repr(float(x)) if isinstance(x, float) else str(x)


def emit_report(reports, summary: ExperimentSummary, path, *,
                extra_meta: dict | None = None) -> None:
    """Write one CSV row per batch plus a summary row.

    Output is deterministic for a deterministic run: comment lines carry the
    experiment parameters and the PageRank formula, a header row names every
    column, and numeric fields round-trip exactly through repr.
    """
    meta = {
        "format": summary.format,
        "num_vertices": summary.num_vertices,
        "num_edges": summary.num_edges,
        "batch_size": summary.batch_size,
        "threads": summary.num_threads,
        "th1": summary.th1,
        "algorithms": ",".join(summary.algorithms),
    }
    if extra_meta:
        meta.update(extra_meta)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("# graphtango-bench report\n")
        for k, v in meta.items():
            fh.write(f"# {k}: {v}\n")
        fh.write(f"# {PR_FORMULA_NOTE}\n")
        writer = csv.DictWriter(fh, REPORT_COLUMNS, restval="")
        writer.writeheader()
        for r in reports:
            row = {
                "batch": r.index, "phase": r.phase, "edges": r.edges,
                "seconds": _num(r.seconds), "edges_per_s": _num(r.edges_per_s),
                "live_edges": _num(r.live_edges), "memory_bytes": r.memory_bytes,
                "bytes_per_edge": _num(r.bytes_per_edge),
                "snapshot_s": _num(r.snapshot_seconds),
                "analytics_s": _num(r.analytics_seconds),
                "analytics_eps": _num(r.analytics_eps),
                "probe_insert_hist": _fmt_hist(r.probe_insert),
                "probe_find_hist": _fmt_hist(r.probe_find),
                "hash_bytes": r.hash_bytes,
            }
            row.update({f"{a}_s": _num(t) for a, t in r.algo_seconds.items()})
            row.update({f"{a}_rounds": n for a, n in r.algo_rounds.items()})
            row.update({f"{a}_mode": m for a, m in r.algo_modes.items()})
            writer.writerow(row)
        writer.writerow({
            "batch": "summary", "phase": "summary", "edges": 2 * summary.num_edges,
            "insert_geomean_eps": _num(summary.insert_geomean_eps),
            "delete_geomean_eps": _num(summary.delete_geomean_eps),
            "analytics_geomean_eps": _num(summary.analytics_geomean_eps),
            "mean_bytes_per_edge": _num(summary.mean_bytes_per_edge),
            "total_seconds": _num(summary.total_seconds),
        })


def emit_sweep_report(rows, path, *, extra_meta: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("# graphtango-bench th1 sweep\n")
        for k, v in (extra_meta or {}).items():
            fh.write(f"# {k}: {v}\n")
        fh.write(f"# {PR_FORMULA_NOTE}\n")
        writer = csv.writer(fh)
        writer.writerow(SWEEP_COLUMNS)
        for row in rows:
            writer.writerow([_num(row[c]) if isinstance(row[c], float) else row[c]
                             for c in SWEEP_COLUMNS])


def parse_report(path):
    """Read back an emitted report: (comment lines, header, rows as dicts).

    Numeric fields are parsed to int/float; empty fields become None.
    """
    comments: list[str] = []
    header: list[str] = []
    rows: list[dict] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = [ln for ln in fh]
    body = []
    for ln in lines:
        if ln.startswith("#"):
            comments.append(ln.rstrip("\n"))
        else:
            body.append(ln)
    if not body:
        return comments, header, rows
    reader = csv.reader(body)
    header = next(reader)
    for rec in reader:
        row = {}
        for key, raw in zip(header, rec):
            row[key] = _parse_field(raw)
        rows.append(row)
    return comments, header, rows


def _parse_field(raw: str):
    if raw == "":
        return None
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw

"""Per-module tracing of graphtango, patched in from outside the package.

Batch-level calls (routing, each worker's apply, the accounting calls, the
snapshot and each kernel) get one span each: name, wall start and end, the
batch they belong to, and the batch's root span as parent.  Per-operation
calls (store half-ops, cursor reads, hash and pool calls: millions per run)
get no span; their call counts, True results and self time are summed per
thread and folded into a per-batch record at each batch boundary.

Self time is thread CPU time (CLOCK_THREAD_CPUTIME_ID) minus that of the
wrapped calls nested inside, so a worker waiting for the interpreter lock
while the other worker runs is not charged to whatever call it was in.
Span start and end are wall-clock (perf_counter).

After each batch the tracer also reads the store's layout through public
introspection: Type1/2/3 counts from degree_array() against th0/th1, the
vertices whose type changed, resize_copies, MemoryPool.stats() per pool,
and the probe_stats() histogram deltas.
"""

from __future__ import annotations

import functools
import threading
from time import perf_counter, thread_time

import numpy as np

from graphtango.analytics import KERNELS
from graphtango.baseline import AdListBase
from graphtango.bench import harness
from graphtango.cfhash import CfhTable
from graphtango.mempool import MemoryPool
from graphtango.store import TangoStore

# (owner, attribute, key) for calls that get one span each.
SPAN_CALLS = (
    (harness, "route_batch", "harness.route_batch"),
    (harness, "apply_ops", "harness.apply_ops"),
    (TangoStore, "live_edges", "store.live_edges"),
    (TangoStore, "memory_bytes", "store.memory_bytes"),
    (TangoStore, "probe_stats", "store.probe_stats"),
    (AdListBase, "live_edges", "baseline.live_edges"),
    (AdListBase, "memory_bytes", "baseline.memory_bytes"),
    (harness, "build_snapshot", "analytics.build_snapshot"),
) + tuple((harness, f"run_{k}", f"analytics.run_{k}") for k in KERNELS)

# Calls summed per batch and per thread.  Those whose True result is a
# metric (appended, found) count it in the third slot.
OP_CALLS = (
    (TangoStore, "insert_half", "store.insert_half"),
    (TangoStore, "delete_half", "store.delete_half"),
    (TangoStore, "neighbors", "store.neighbors"),
    (TangoStore, "neighbor_props", "store.neighbor_props"),
    (AdListBase, "insert_half", "baseline.insert_half"),
    (AdListBase, "delete_half", "baseline.delete_half"),
    (AdListBase, "neighbors", "baseline.neighbors"),
    (AdListBase, "neighbor_props", "baseline.neighbor_props"),
    (CfhTable, "find", "cfhash.find"),
    (CfhTable, "insert", "cfhash.insert"),
    (CfhTable, "remove", "cfhash.remove"),
    (CfhTable, "rebuild", "cfhash.rebuild"),
    (CfhTable, "bulk_load", "cfhash.bulk_load"),
    (MemoryPool, "allocate", "mempool.allocate"),
    (MemoryPool, "deallocate", "mempool.deallocate"),
)

ACCOUNTING = ("store.live_edges", "store.memory_bytes", "store.probe_stats",
              "baseline.live_edges", "baseline.memory_bytes")

ALL_KEYS = tuple(k for _, _, k in SPAN_CALLS + OP_CALLS)


class _ThreadAcc:
    """One thread's running sums: key -> [calls, self CPU s, True results]."""

    __slots__ = ("child", "acc")

    def __init__(self):
        self.child = 0.0  # CPU time of wrapped calls inside the current one
        self.acc = {k: [0, 0.0, 0] for k in ALL_KEYS}


def _span_extra(key: str, out):
    if key == "harness.route_batch":
        return sum(len(vs) for vs, _, _, _ in out)
    if key == "analytics.build_snapshot":
        return out.num_edges + (len(out.in_indices) if out.in_indices is not None else 0)
    if key.startswith("analytics.run_"):
        return [out.rounds, out.mode]
    return None


class Tracer:
    """Patch the calls above for the duration of a ``with`` block.

    Spans and batch records stay in memory; ``spans()`` renders them once
    the run has ended.
    """

    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadAcc] = []
        self._lock = threading.Lock()
        self._saved: list = []
        self.raw: list = []  # spans: (key, wall start, wall end, batch, thread, extra)
        self.batches: list[dict] = []
        self.batch = -1
        self.store = None
        self._prev_kinds = None
        self._prev_probe = {"insert": {}, "find": {}}
        self._prev_copies = 0

    # -- patching -----------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for owner, attr, key in SPAN_CALLS:
            self._patch(owner, attr, self._span(getattr(owner, attr), key))
        for owner, attr, key in OP_CALLS:
            self._patch(owner, attr, self._op(getattr(owner, attr), key))
        self._patch(harness, "make_store", self._capture(harness.make_store))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()
        if exc[0] is None and self.batch >= 0:
            self._end_batch()

    def _patch(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _state(self) -> _ThreadAcc:
        st = _ThreadAcc()
        self._local.st = st
        with self._lock:
            self._states.append(st)
        return st

    def _capture(self, make_store):
        @functools.wraps(make_store)
        def wrapper(*args, **kwargs):
            self.store = make_store(*args, **kwargs)
            return self.store
        return wrapper

    def _op(self, orig, key: str):
        local, new_state, clock = self._local, self._state, thread_time

        @functools.wraps(orig)
        def op(*args, **kwargs):
            st = getattr(local, "st", None) or new_state()
            saved = st.child
            st.child = 0.0
            t0 = clock()
            try:
                out = orig(*args, **kwargs)
            finally:
                d = clock() - t0
                rec = st.acc[key]
                rec[0] += 1
                rec[1] += d - st.child
                st.child = saved + d
            if out is True:
                rec[2] += 1
            return out
        return op

    def _span(self, orig, key: str):
        local, new_state, clock = self._local, self._state, thread_time
        begins_batch = key == "harness.route_batch"

        @functools.wraps(orig)
        def span(*args, **kwargs):
            if begins_batch:
                if self.batch >= 0:
                    self._end_batch()
                self.batch += 1
            st = getattr(local, "st", None) or new_state()
            saved = st.child
            st.child = 0.0
            w0 = perf_counter()
            t0 = clock()
            try:
                out = orig(*args, **kwargs)
            finally:
                d = clock() - t0
                w1 = perf_counter()
                rec = st.acc[key]
                rec[0] += 1
                rec[1] += d - st.child
                st.child = saved + d
            self.raw.append((key, w0, w1, self.batch, threading.current_thread().name,
                              _span_extra(key, out)))
            return out
        return span

    # -- batch boundaries ----------------------------------------------------

    def _end_batch(self) -> None:
        """Fold every thread's sums into the finished batch's record.

        Runs on the main thread between batches, when the workers are
        blocked on their queues, so no wrapped call is in flight.
        """
        ops = {}
        for st in self._states:
            for key, rec in st.acc.items():
                if rec[0]:
                    tot = ops.setdefault(key, [0, 0.0, 0])
                    tot[0] += rec[0]
                    tot[1] += rec[1]
                    tot[2] += rec[2]
                    rec[0], rec[1], rec[2] = 0, 0.0, 0
        record = {"batch": self.batch, "ops": ops}
        if isinstance(self.store, TangoStore):
            record.update(self._layout(self.store))
        self.batches.append(record)

    def _layout(self, store: TangoStore) -> dict:
        sides = (0, 1) if store.directed else (0,)
        kinds = np.concatenate([store.degree_array(s) for s in sides])
        kinds = np.where(kinds <= store.th0, 1, np.where(kinds <= store.th1, 2, 3))
        changes = 0 if self._prev_kinds is None else int(np.count_nonzero(kinds != self._prev_kinds))
        self._prev_kinds = kinds
        probe = store.stats.snapshot()  # what probe_stats() returns, without its span
        deltas = {kind: {d: c - self._prev_probe[kind].get(d, 0)
                         for d, c in probe[kind].items()
                         if c != self._prev_probe[kind].get(d, 0)}
                  for kind in ("insert", "find")}
        self._prev_probe = probe
        copies = store.resize_copies - self._prev_copies
        self._prev_copies = store.resize_copies
        return {
            "types": np.bincount(kinds, minlength=4)[1:].tolist(),
            "kind_changes": changes,
            "resize_copies": copies,
            "pools": [p.stats() for p in store.pools],
            "probe_insert": deltas["insert"],
            "probe_find": deltas["find"],
        }

    # -- output ---------------------------------------------------------------

    def spans(self, t_origin: float) -> list[dict]:
        """Batch root spans plus their children, times in s from t_origin."""
        roots: dict[int, list] = {}
        for key, w0, w1, b, _, _ in self.raw:
            r = roots.setdefault(b, [w0, w1])
            r[0], r[1] = min(r[0], w0), max(r[1], w1)
        out = [{"id": b, "name": "batch", "start": w0 - t_origin, "end": w1 - t_origin,
                "parent": None, "batch": b, "thread": "MainThread"}
               for b, (w0, w1) in sorted(roots.items())]
        for i, (key, w0, w1, b, thread, extra) in enumerate(self.raw):
            span = {"id": len(roots) + i, "name": key, "start": w0 - t_origin,
                    "end": w1 - t_origin, "parent": b, "batch": b, "thread": thread}
            if extra is not None:
                span["extra"] = extra
            out.append(span)
        return out

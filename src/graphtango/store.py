"""Degree-adaptive adjacency storage with three per-vertex layouts.

Every vertex owns one 64-byte metadata record (one cache line) in a flat,
page-aligned array. The record's first word is the degree; the rest depends
on how many edges the vertex currently has:

* Type1 (deg <= TH0): edges live inline in the record itself. TH0 is
  whatever fits next to the degree word: 7 unweighted or 3 weighted edges
  for 64-byte lines. Lookups scan the line already in hand; no allocation.
* Type2 (TH0 < deg <= TH1): the record holds a capacity and a handle to a
  pool chunk with a contiguous edge array. Lookups scan the array.
* Type3 (deg > TH1): same edge array plus a line-confined hash table
  mapping dst -> array index, sized at 2 x capacity slots so load never
  passes 0.5. Each slot is one 8-byte word, dst << 32 | index, so the table
  costs 16 bytes per edge-array slot. Lookups are O(1) probes instead of an
  O(deg) scan.

Transitions are exact threshold crossings with geometric capacity changes:
an append into a full line moves its edges out to an array of two lines'
worth, 2 x (TH0 + 1) edges; an append into a full array doubles it; a
delete that leaves deg == cap/4 halves it, unless the next delete will
bring the TH0 + 1 left inline; crossing TH1 builds or drops the hash table;
falling to TH0 moves the edges back into the record. _move_edges makes
every such move and _fit_table every table change. The edge array is kept
packed by moving the last edge into any deleted slot.

Every edge array is a 'Q' memoryview: for Type1 the slice of the meta line
after the degree word, for Type2/Type3 the slice of its pool block. So one
scan, property overwrite, append and move-last-into-hole serve Type1 and
Type2 alike, as memoryview slices and scalar touches; Type3 swaps the scan
for its hash lookup. A scalar touch costs about half of numpy's, and a
short slice turned into a list about a fifth less. numpy comes in only
where it vectorises: scans past SCAN_LIMIT, the read-only neighbors()
views and the csr() export.

Each worker owns the vertices partition_of maps to it and writes one record
for them: the pool all their chunks come from (so every free goes back to
the pool that allocated it), their tables' probe histograms, a running count
of the bytes those tables hold, and the edges their moves copied. The
store's hash_bytes, stats and resize_copies are sums over the records.
"""

from __future__ import annotations

import numpy as np

from . import core
from .cfhash import CfhTable, ProbeStats
from .core import IN, OUT  # re-exported: callers import the directions from here
from .core import (CACHE_LINE_BYTES, LINE_WORDS, SCAN_LIMIT, Config, GraphStore,
                   VertexRangeError, partition_of)
from .mempool import MemoryPool, map_words

TYPE1 = 1
TYPE2 = 2
TYPE3 = 3

# Meta record word offsets (Type2/Type3 layout; Type1 keeps edges at 1..).
_DEG = 0
_CAP = 1
_EDGES = 2
_HASH = 3
_HASHCAP = 4

class _Partition(MemoryPool):
    """One worker's record: its pool plus counters for the vertices it owns.
    Only the owner writes it, so no two threads update one counter or dict."""

    def __init__(self, debug: bool):
        super().__init__(debug=debug)
        self.probe = ProbeStats()  # histograms of this partition's tables
        self.hash_bytes = 0  # chunk bytes of this partition's tables
        self.copies = 0  # edges copied by grows, shrinks, type switches


class _Side:
    """Adjacency state for one direction: metadata, edge views, hash tables.

    mv aliases the meta buffer word for word, and views[v] is a 'Q'
    memoryview of v's pool chunk (None for Type1, whose edge view is the
    slice of mv after v's degree word, taken per op). Both kinds of view
    go through the same scan, append and delete code. Scalar reads, writes,
    scan slices and edge copies go through memoryviews because a memoryview
    touch costs about half a numpy one, and the hot paths are dominated by
    exactly those touches.
    """

    __slots__ = ("meta", "mv", "views", "tables")

    def __init__(self, num_vertices: int):
        self.meta, self.mv = map_words(num_vertices * CACHE_LINE_BYTES)
        self.views: list = [None] * num_vertices
        self.tables: list = [None] * num_vertices


class TangoStore(GraphStore):
    """Hybrid Type1/Type2/Type3 edge store for a fixed vertex set.

    Undirected graphs store each logical edge in both endpoints' out tables;
    directed graphs additionally maintain a mirrored in-edge side. insert_half
    and delete_half operate on a single (vertex, direction) table and exist so
    a multi-worker harness can route each vertex's updates to its owner
    thread; insert_edge and delete_edge apply both halves.
    """

    def __init__(self, config: Config, num_vertices: int, num_threads: int = 1,
                 debug: bool = False):
        super().__init__(config, num_vertices, num_threads)
        self.th0 = config.th0
        self.th1 = config.th1
        self.pools = [_Partition(debug) for _ in range(num_threads)]
        self._sides = [_Side(num_vertices) for _ in range(2 if config.directed else 1)]

    # -- helpers -------------------------------------------------------------

    def _move_edges(self, side: _Side, v: int, base: int, deg: int, src: memoryview,
                    cap: int) -> memoryview | None:
        """Move the first deg edges of src, v's current edge view, to a fresh
        chunk of cap edges and return its view, or into v's line (cap 0,
        returns None). Every grow, shrink and TH0 crossing comes here:
        allocate from the owner's pool, copy, free the chunk the edges left,
        point the meta record, count the copies, then refit v's table if any."""
        part = self.pools[partition_of(v, self.num_threads)]
        n = deg * self._ew
        mv = side.mv
        chunk = mv[base + _EDGES]  # read first: either move overwrites it
        if cap:
            new, view = part.allocate_words(cap * self._ew)
            view[:n] = src[:n]
            mv[base + _CAP] = cap
            mv[base + _EDGES] = new
        else:
            view = None
            mv[base + 1:base + 1 + n] = src[:n]
        if side.views[v] is not None:
            part.deallocate(chunk, len(src) * 8)
        elif cap:
            mv[base + _HASH] = mv[base + _HASHCAP] = 0  # held inline edges
        side.views[v] = view
        part.copies += deg
        if side.tables[v] is not None:
            self._fit_table(side, v, base, deg)
        return view

    def _fit_table(self, side: _Side, v: int, base: int, deg: int) -> None:
        """Give v, holding deg edges, the table its layout calls for: none at
        or below TH1 (the table is released), else 2 x the array's capacity
        slots, built over the array or rebuilt. The only place a table is
        sized or dropped, so the only one to move hash_bytes or to point the
        record's hash words at a table."""
        part = self.pools[partition_of(v, self.num_threads)]
        mv = side.mv
        tbl = side.tables[v]
        if tbl is not None:
            part.hash_bytes -= tbl.chunk_bytes
        if deg <= self.th1:
            tbl.release()
            side.tables[v] = None
            mv[base + _HASH] = mv[base + _HASHCAP] = 0
            return
        slots = 2 * mv[base + _CAP]
        if tbl is None:
            tbl = side.tables[v] = CfhTable(slots, pool=part, stats=part.probe)
            ew = self._ew
            tbl.bulk_load(zip(side.views[v][:deg * ew:ew].tolist(), range(deg)))
        else:
            tbl.rebuild(slots)
        part.hash_bytes += tbl.chunk_bytes
        mv[base + _HASH] = tbl._chunk
        mv[base + _HASHCAP] = tbl.capacity_slots

    # -- single-direction operations ------------------------------------------
    #
    # An edge is ew words, dst then (weighted) its property, so the dsts of
    # deg edges are the strided slice view[:deg * ew:ew] of the edge view:
    # the line after the degree word (Type1) or the pool chunk. The one
    # membership scan reads that slice: as a list up to SCAN_LIMIT, as
    # numpy beyond; Type3 looks nbr up in its hash instead.

    def insert_half(self, v: int, nbr: int, prop: int = 0, side: int = OUT) -> bool:
        """Insert nbr into v's table for one direction.

        Returns True if a new edge was appended, False if an existing edge
        had its property overwritten.
        """
        if v < 0 or v >= self.num_vertices or nbr < 0 or nbr >= self.num_vertices:
            raise VertexRangeError(f"edge ({v}, {nbr}) outside [0, {self.num_vertices})")
        st = self._sides[side]
        mv = st.mv
        base = v * LINE_WORDS
        deg = mv[base]
        ew = self._ew
        if deg <= self.th0:
            view = mv[base + 1:base + LINE_WORDS]  # Type1: the line after the degree
            cap = self.th0
        else:
            view = st.views[v]
            cap = mv[base + _CAP]
        tbl = None
        if deg <= self.th1:
            if deg <= SCAN_LIMIT:
                dsts = view[:deg * ew:ew].tolist()
                j = dsts.index(nbr) if nbr in dsts else None
            else:
                hit = (np.frombuffer(view, dtype=np.uint64)[:deg * ew:ew] == nbr).nonzero()[0]
                j = int(hit[0]) if hit.size else None
        else:
            # Type3: hash lookup. The walk ends where nbr goes, unless the
            # array is full and the table is rebuilt first.
            tbl = st.tables[v]
            slot, j, dist = tbl.locate(nbr)
        if j is not None:
            if ew == 2:
                view[2 * j + 1] = prop
            return False
        if deg == cap:
            # Full: double a chunk and its table, or move a full line out to
            # two lines' worth, 16 edges (8 weighted), which a doubling to
            # 8 (4) would have to grow again on the next append.
            view = self._move_edges(st, v, base, deg, view,
                                    2 * cap if deg > self.th0 else 2 * (cap + 1))
            if tbl is not None:
                tbl.insert(nbr, deg)
        elif tbl is not None:
            tbl.put_at(slot, nbr, deg, dist)
        at = deg * ew
        view[at] = nbr
        if ew == 2:
            view[at + 1] = prop
        mv[base] = deg + 1
        if deg == self.th1:
            # Crossed TH1: attach the hash table (array already sized).
            self._fit_table(st, v, base, deg + 1)
        return True

    def delete_half(self, v: int, nbr: int, side: int = OUT) -> bool:
        """Delete nbr from v's table for one direction; True if it was there.

        The last edge moves into the vacated slot so the array stays packed;
        for Type3 the moved edge's hash entry is updated before nbr's entry
        is removed.
        """
        if v < 0 or v >= self.num_vertices or nbr < 0 or nbr >= self.num_vertices:
            raise VertexRangeError(f"edge ({v}, {nbr}) outside [0, {self.num_vertices})")
        st = self._sides[side]
        mv = st.mv
        base = v * LINE_WORDS
        deg = mv[base]
        if deg == 0:
            return False
        th0 = self.th0
        ew = self._ew
        last = deg - 1
        view = mv[base + 1:base + LINE_WORDS] if deg <= th0 else st.views[v]
        if deg <= self.th1:
            tbl = None
            if deg <= SCAN_LIMIT:
                dsts = view[:deg * ew:ew].tolist()
                if nbr not in dsts:
                    return False
                j = dsts.index(nbr)
            else:
                hit = (np.frombuffer(view, dtype=np.uint64)[:deg * ew:ew] == nbr).nonzero()[0]
                if not hit.size:
                    return False
                j = int(hit[0])
        else:
            # Type3: the moved edge's insert only overwrites a value, so nbr's
            # slot from the lookup is still the one to tombstone.
            tbl = st.tables[v]
            slot, j, dist = tbl.locate(nbr)
            if j is None:
                return False
        # Move the last edge into the hole.
        if j != last:
            moved = view[last * ew]
            view[j * ew] = moved
            if ew == 2:
                view[j * ew + 1] = view[last * ew + 1]
            if tbl is not None:
                tbl.insert(moved, j)
        if tbl is not None:
            tbl.remove_at(slot, dist)
        mv[base] = last
        if deg <= th0:
            return True
        cap = mv[base + _CAP]
        if last == th0:
            # Type2 -> Type1: edges come back inline, chunk is freed.
            self._move_edges(st, v, base, th0, view, 0)
        elif last == self.th1 or (last == cap >> 2 and last > th0 + 1):
            # Halve the array; a table halves with it, or goes at Type3 -> Type2.
            # At th0 + 1 edges the next delete moves them inline, so keep cap.
            self._move_edges(st, v, base, last, view, cap >> 1)
        return True

    # -- cursors and introspection ----------------------------------------------

    def degree(self, v: int, side: int = OUT) -> int:
        self._check_vertex(v)
        return self._sides[side].mv[v * LINE_WORDS]

    def degree_array(self, side: int = OUT) -> np.ndarray:
        """Degrees of all vertices as one array (a copy)."""
        return self._sides[side].meta.reshape(-1, LINE_WORDS)[:, 0].copy()

    def vertex_kind(self, v: int, side: int = OUT) -> int:
        deg = self.degree(v, side)
        if deg <= self.th0:
            return TYPE1
        return TYPE2 if deg <= self.th1 else TYPE3

    def _edge_words(self, v: int, side: int, word: int) -> np.ndarray:
        """Read-only view of one word (0 dst, 1 property) of each live edge."""
        self._check_vertex(v)
        st = self._sides[side]
        base = v * LINE_WORDS
        deg = st.mv[base]
        view = st.mv[base + 1:base + LINE_WORDS] if deg <= self.th0 else st.views[v]
        out = np.frombuffer(view, dtype=np.uint64)[word:deg * self._ew:self._ew]
        out.flags.writeable = False
        return out

    def csr(self, side: int = OUT, with_weights: bool = False):
        """One side as CSR arrays: (indptr, indices, weights or None).

        Rows keep storage order, so the arrays equal a walk of neighbors()
        and neighbor_props(): int64 indices, float64 weights. A vertex's
        edge words start in its own meta line (Type1) or at the chunk handle
        held there (Type2/3). The rows are visited grouped by the buffer
        that holds them, the meta array first and then each pool block in
        ascending order, so one numpy gather per buffer reads its words and
        one more puts them back in row order. Hash tables are never touched.
        """
        V, L, step = self.num_vertices, LINE_WORDS, 8 * self._ew
        meta = self._sides[side].meta
        lines = meta.reshape(V, L)
        deg = lines[:, _DEG].astype(np.int64)
        indptr = np.zeros(V + 1, dtype=np.int64)
        np.cumsum(deg, out=indptr[1:])
        total = int(indptr[-1])
        # Byte address of each row's first edge word, and its buffer's key:
        # 0 for the meta array, else the row's pool block (addr >> 48, from 1)
        # numbered on from the blocks of earlier pools, found per partition.
        inline = deg <= self.th0
        start = np.where(inline, np.arange(8, 8 * V * L, 8 * L),
                         lines[:, _EDGES].astype(np.int64))
        off = np.cumsum([0] + [p.stats()["num_blocks"] for p in self.pools])
        owner = off[partition_of(np.arange(0, V, core.PARTITION_SIZE), self.num_threads)]
        key = np.where(inline, 0, np.repeat(owner, core.PARTITION_SIZE)[:V] + (start >> 48))
        rows = np.argsort(key.astype(np.min_scalar_type(off[-1])), kind="stable")
        cnt = deg[rows]
        ends = np.zeros(V + 1, dtype=np.int64)  # k-th visited row: ends[k]:ends[k + 1]
        np.cumsum(cnt, out=ends[1:])
        # Each buffer's edges end where the last row with its key ends.
        cuts = ends[np.searchsorted(key[rows], off, "right")].tolist()
        at = np.repeat(start[rows] - step * ends[:-1], cnt)
        at += np.arange(0, step * total, step)  # each edge's address, visit order
        first = np.empty(V, dtype=np.int64)
        first[rows] = ends[:-1]
        back = np.repeat(first - indptr[:-1], deg)
        back += np.arange(total)  # each edge's visit-order index, row order

        def read(at):  # the word at each address, in visit order
            vis = np.empty(total, dtype=np.uint64)
            vis[:cuts[0]] = meta[at[:cuts[0]] >> 3]
            for pool, lo, hi in zip(self.pools, cuts, cuts[1:]):
                pool.gather(at[lo:hi], vis[lo:hi])
            return vis
        indices = read(at).view(np.int64)[back]
        weights = None
        if with_weights:
            at += 8  # an edge's property word follows its dst
            weights = read(at)[back].astype(np.float64)
        return indptr, indices, weights

    def has_edge(self, src: int, dst: int) -> bool:
        self._check_vertex(src)
        st = self._sides[OUT]
        deg = st.mv[src * LINE_WORDS]
        if deg > self.th1:
            return st.tables[src].find(dst) is not None
        return bool(np.any(self.neighbors(src) == dst))

    def stored_edges(self, side: int = OUT) -> int:
        """Total stored (directed) edge slots on one side: sum of degrees."""
        return int(self._sides[side].meta.reshape(-1, LINE_WORDS)[:, 0].sum())

    def memory_bytes(self) -> int:
        """Bytes the native layout occupies: meta lines + pool chunks."""
        b = self.num_vertices * CACHE_LINE_BYTES * len(self._sides)
        b += sum(p.bytes_in_use for p in self.pools)
        return b

    @property
    def hash_bytes(self) -> int:
        """Pool bytes held by Type3 hash tables, part of memory_bytes()."""
        return sum(p.hash_bytes for p in self.pools)

    @property
    def resize_copies(self) -> int:
        """Edges copied by grows, shrinks and type switches."""
        return sum(p.copies for p in self.pools)

    @property
    def stats(self) -> ProbeStats:
        """Probe histograms summed over every partition (a fresh copy)."""
        return ProbeStats.merged(p.probe for p in self.pools)

    def probe_stats(self) -> dict:
        return self.stats.snapshot()

    # -- invariant checking (tests) ----------------------------------------------

    def check_invariants(self, v: int, side: int = OUT, deep: bool = False) -> None:
        """Assert the layout invariants for one vertex; deep adds the hash/array
        coherence scan and checks each record's hash_bytes against its tables."""
        st = self._sides[side]
        mf = st.meta
        base = v * LINE_WORDS
        deg = mf.item(base)
        ew = self._ew
        view, tbl = st.views[v], st.tables[v]
        assert 0 <= deg <= self.num_vertices, f"v{v}: absurd degree {deg}"
        if deep:
            for p, part in enumerate(self.pools):
                held = sum(t.chunk_bytes for s in self._sides for u, t in enumerate(s.tables)
                           if t is not None and partition_of(u, self.num_threads) == p)
                assert part.hash_bytes == held, f"p{p}: hash_bytes {part.hash_bytes} != {held}"
        if deg <= self.th0:
            assert view is None and tbl is None, f"v{v}: Type1 with external storage"
            return
        cap = mf.item(base + _CAP)
        assert view is not None, f"v{v}: missing edge array"
        assert cap > self.th0 and cap & (cap - 1) == 0, f"v{v}: bad cap {cap}"
        assert deg <= cap, f"v{v}: deg {deg} > cap {cap}"
        assert len(view) == cap * ew, f"v{v}: view length {len(view)} != cap {cap}"
        if deep:
            nbrs = view[:deg * ew:ew].tolist()
            assert len(set(nbrs)) == deg, f"v{v}: duplicate stored edges"
        if deg <= self.th1:
            assert tbl is None, f"v{v}: Type2 with hash table"
            assert mf.item(base + _HASH) == mf.item(base + _HASHCAP) == 0, \
                f"v{v}: Type2 record holds hash words"
            return
        assert tbl is not None, f"v{v}: Type3 missing hash table"
        assert tbl.capacity_slots == 2 * cap, \
            f"v{v}: hash capacity {tbl.capacity_slots} != 2*cap {2 * cap}"
        assert tbl.live_count == deg, f"v{v}: hash live {tbl.live_count} != deg {deg}"
        assert mf.item(base + _HASH) == tbl._chunk
        assert mf.item(base + _HASHCAP) == tbl.capacity_slots
        if deep:
            for j in range(deg):
                key = view[j * ew]
                assert tbl.find(key) == j, f"v{v}: hash points {key} -> {tbl.find(key)} != {j}"

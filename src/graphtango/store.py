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
an append into a full array doubles it, a delete that leaves deg == cap/4
halves it, crossing TH1 builds or drops the hash table, and crossing TH0
moves edges between the inline record and a pool chunk. The edge array is
kept packed by moving the last edge into any deleted slot.

Type2/Type3 edge arrays are held as 'Q' memoryview slices of their pool
block, like the meta lines: lookups, scans, appends and the delete's
move-last-into-hole are memoryview slices and scalar touches. A scalar
touch costs about half of numpy's, and a short slice turned into a list
about a fifth less. numpy comes in only where it vectorises: scans past
SCAN_LIMIT, the read-only neighbors() views and the csr() export.

Each worker owns the vertices partition_of maps to it and writes one record
for them: the pool all their chunks come from (so every free goes back to
the pool that allocated it), their tables' probe histograms, a running count
of the bytes those tables hold, and the edges their moves copied. The
store's hash_bytes, stats and resize_copies are sums over the records.
"""

from __future__ import annotations

import numpy as np

from .cfhash import CfhTable, ProbeStats
from .core import IN, OUT  # re-exported: callers import the directions from here
from .core import (BLOCK_BYTES, CACHE_LINE_BYTES, LINE_WORDS, MAX_VERTICES, SCAN_LIMIT,
                   Config, GraphStore, VertexRangeError, next_pow2, partition_of)
from .mempool import MemoryPool, alloc_aligned

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
        super().__init__(BLOCK_BYTES, debug=debug)
        self.probe = ProbeStats()  # histograms of this partition's tables
        self.hash_bytes = 0  # chunk bytes of this partition's tables
        self.copies = 0  # edges copied by grows, shrinks, type switches


class _Side:
    """Adjacency state for one direction: metadata, edge views, hash tables.

    mv aliases the meta buffer word for word, and views[v] is a 'Q'
    memoryview of v's pool chunk (None for Type1). Scalar reads, writes,
    scan slices and edge copies go through memoryviews because a memoryview
    touch costs about half a numpy one, and the hot paths are dominated by
    exactly those touches.
    """

    __slots__ = ("meta", "mv", "views", "tables")

    def __init__(self, num_vertices: int):
        buf = alloc_aligned(num_vertices * CACHE_LINE_BYTES)
        self.meta = buf.view(np.uint64)
        self.mv = memoryview(buf).cast("Q")
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
        if num_threads < 1:
            raise ValueError("num_threads must be >= 1")
        if num_vertices > MAX_VERTICES:
            raise ValueError(f"num_vertices {num_vertices} exceeds MAX_VERTICES "
                             f"{MAX_VERTICES}: vertex ids must fit a 32-bit hash key")
        self.config = config
        self.num_vertices = num_vertices
        self.num_threads = num_threads
        self.th0 = config.th0
        self.th1 = config.th1
        self.weighted = config.weighted
        self.directed = config.directed
        self._ew = 2 if config.weighted else 1  # words per edge
        self._min_cap = next_pow2(self.th0)
        self.pools = [_Partition(debug) for _ in range(num_threads)]
        self._sides = [_Side(num_vertices) for _ in range(2 if config.directed else 1)]

    # -- helpers -------------------------------------------------------------

    def _move_edges(self, side: _Side, v: int, base: int, deg: int,
                    cap: int) -> memoryview | None:
        """Move v's deg edges to a fresh chunk of cap edges and return its view,
        or move them inline (cap 0, returns None). Every grow, shrink and TH0
        crossing comes here: allocate from the owner's pool, copy, free the
        chunk the edges left, point the meta record, count the copies."""
        part = self.pools[partition_of(v, self.num_threads)]
        old = side.views[v]
        n = deg * self._ew
        mv = side.mv
        inline = mv[base + 1:base + 1 + n]
        chunk = mv[base + _EDGES]  # read first: moving inline overwrites it
        if cap:
            new, view = part.allocate_words(cap * self._ew)
            view[:n] = inline if old is None else old[:n]
            mv[base + _CAP] = cap
            mv[base + _EDGES] = new
        else:
            view = None
            inline[:] = old[:n]
        if old is not None:
            part.deallocate(chunk, len(old) * 8)
        side.views[v] = view
        part.copies += deg
        return view

    def _build_table(self, side: _Side, v: int, base: int, deg: int) -> None:
        """Attach a dst -> index hash at 2 x cap slots covering deg edges."""
        mv = side.mv
        part = self.pools[partition_of(v, self.num_threads)]
        tbl = CfhTable(2 * mv[base + _CAP], pool=part, slots_per_line=LINE_WORDS,
                       stats=part.probe)
        ew = self._ew
        tbl.bulk_load(zip(side.views[v][:deg * ew:ew].tolist(), range(deg)))
        side.tables[v] = tbl
        part.hash_bytes += tbl.chunk_bytes
        mv[base + _HASH] = tbl._chunk
        mv[base + _HASHCAP] = tbl.capacity_slots

    def _resize_table(self, mv, base: int, tbl: CfhTable, slots: int) -> None:
        """Rebuild a table at slots and point the meta record at it."""
        part = tbl.pool  # the owner's record: every table lives in its owner's pool
        part.hash_bytes -= tbl.chunk_bytes
        tbl.rebuild(slots)
        part.hash_bytes += tbl.chunk_bytes
        mv[base + _HASH] = tbl._chunk
        mv[base + _HASHCAP] = tbl.capacity_slots

    # -- single-direction operations ------------------------------------------
    #
    # An edge is ew words, dst then (weighted) its property, so the dsts of
    # deg edges are the strided slice words[:deg * ew:ew]. Every membership
    # scan reads that slice: as a list up to SCAN_LIMIT, as numpy beyond.

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
        th0 = self.th0
        ew = self._ew
        if deg <= th0:
            # Type1: edges inline in the meta record
            off = base + 1
            dsts = mv[off:off + deg * ew:ew].tolist()
            if nbr in dsts:
                if ew == 2:
                    mv[off + 2 * dsts.index(nbr) + 1] = prop
                return False
            if deg < th0:
                mv[off + deg * ew] = nbr
                if ew == 2:
                    mv[off + deg * ew + 1] = prop
                mv[base] = deg + 1
                return True
            # Type1 -> Type2: move the inline edges out, then append.
            view = self._move_edges(st, v, base, th0, self._min_cap)
        elif deg <= self.th1:
            # Type2: linear scan of the pool-resident array
            view = st.views[v]
            if deg <= SCAN_LIMIT:
                dsts = view[:deg * ew:ew].tolist()
                j = dsts.index(nbr) if nbr in dsts else -1
            else:
                hit = (np.frombuffer(view, dtype=np.uint64)[:deg * ew:ew] == nbr).nonzero()[0]
                j = int(hit[0]) if hit.size else -1
            if j >= 0:
                if ew == 2:
                    view[2 * j + 1] = prop
                return False
            if deg == mv[base + _CAP]:
                view = self._move_edges(st, v, base, deg, deg * 2)
        else:
            # Type3: hash lookup. The walk ends where nbr goes, unless the
            # array is full and the table is rebuilt first.
            view = st.views[v]
            tbl = st.tables[v]
            slot, j, dist = tbl.locate(nbr)
            if j is not None:
                if ew == 2:
                    view[2 * j + 1] = prop
                return False
            cap = mv[base + _CAP]
            if deg == cap:
                view = self._move_edges(st, v, base, deg, cap * 2)
                self._resize_table(mv, base, tbl, 4 * cap)
                tbl.insert(nbr, deg)
            else:
                tbl.put_at(slot, nbr, deg, dist)
        # Append at index deg of the pool-resident array.
        at = deg * ew
        view[at] = nbr
        if ew == 2:
            view[at + 1] = prop
        mv[base] = deg + 1
        if deg == self.th1:
            # Crossed TH1: attach the hash table (array already sized).
            self._build_table(st, v, base, deg + 1)
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
        if deg <= th0:
            # Type1: compact within the meta record
            off = base + 1
            dsts = mv[off:off + deg * ew:ew].tolist()
            if nbr not in dsts:
                return False
            j = dsts.index(nbr)
            if j != last:
                mv[off + j * ew] = dsts[last]
                if ew == 2:
                    mv[off + j * ew + 1] = mv[off + last * ew + 1]
            mv[base] = last
            return True
        view = st.views[v]
        if deg <= self.th1:
            # Type2
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
        cap = mv[base + _CAP]
        if last == self.th1:
            # Type3 -> Type2: halve the array, drop the hash table.
            self._move_edges(st, v, base, last, cap >> 1)
            tbl.pool.hash_bytes -= tbl.chunk_bytes
            tbl.release()
            st.tables[v] = None
        elif last == th0:
            # Type2 -> Type1: edges come back inline, chunk is freed.
            self._move_edges(st, v, base, th0, 0)
        elif last == cap >> 2:
            self._move_edges(st, v, base, last, cap >> 1)
            if tbl is not None:
                self._resize_table(mv, base, tbl, cap)  # 2 x the halved capacity
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
        ew = self._ew
        if deg <= self.th0:
            out = st.meta[base + 1 + word:base + 1 + deg * ew:ew]
        else:
            out = np.frombuffer(st.views[v], dtype=np.uint64)[word:deg * ew:ew]
        out.flags.writeable = False
        return out

    def neighbors(self, v: int, side: int = OUT) -> np.ndarray:
        """Read-only view of v's live neighbor ids, in storage (index) order.

        Never touches the hash table, so traversal is safe to run while no
        update batch is in flight.
        """
        return self._edge_words(v, side, 0)

    def neighbor_props(self, v: int, side: int = OUT) -> np.ndarray | None:
        """Read-only view of edge properties aligned with neighbors(v)."""
        return self._edge_words(v, side, 1) if self.weighted else None

    def csr(self, side: int = OUT, with_weights: bool = False):
        """One side as CSR arrays: (indptr, indices, weights or None).

        Rows keep storage order, so the arrays equal a walk of neighbors()
        and neighbor_props(): int64 indices, float64 weights. A vertex's
        edge words start in its own meta line (Type1) or at the chunk handle
        held there (Type2/3); one numpy gather per meta array or pool block
        reads them all. Hash tables are never touched.
        """
        V, L, step = self.num_vertices, LINE_WORDS, 8 * self._ew
        meta = self._sides[side].meta
        lines = meta.reshape(V, L)
        deg = lines[:, _DEG].astype(np.int64)
        indptr = np.zeros(V + 1, dtype=np.int64)
        np.cumsum(deg, out=indptr[1:])
        total = int(indptr[-1])
        # Byte address of each row's first edge word, and the buffer that
        # holds it: 0 for the meta array, p + 1 for pool p.
        inline = deg <= self.th0
        start = np.where(inline, np.arange(8, 8 * V * L, 8 * L),
                         lines[:, _EDGES].astype(np.int64))
        buf = np.where(inline, 0, partition_of(np.arange(V), self.num_threads) + 1)
        # Visit rows by buffer, then by address, so each buffer reads one
        # run of ascending addresses; pos puts every edge back in row order.
        rows = np.lexsort((start, buf))
        cnt = deg[rows]
        lead = np.cumsum(cnt) - cnt  # visit-order index of each row's first edge
        # In-place steps keep the edge-sized temporaries few; each one pushes
        # the interpreter's working set out of cache before the next batch.
        j = np.arange(total, dtype=np.int64)  # each edge's index in visit order
        pos = np.repeat(indptr[rows] - lead, cnt)
        pos += j
        at = np.repeat(start[rows] - step * lead, cnt)
        j *= step
        at += j
        cuts = np.zeros(self.num_threads + 2, dtype=np.int64)
        np.cumsum(np.bincount(buf, deg, self.num_threads + 1).astype(np.int64),
                  out=cuts[1:])
        indices = np.empty(total, dtype=np.int64)
        weights = np.empty(total, dtype=np.float64) if with_weights else None
        for b, (lo, hi) in enumerate(zip(cuts[:-1].tolist(), cuts[1:].tolist())):
            if lo == hi:
                continue
            a, p = at[lo:hi], pos[lo:hi]
            if b == 0:
                indices[p] = meta[a >> 3]
                if with_weights:
                    weights[p] = meta[(a >> 3) + 1]
            else:
                indices[p] = self.pools[b - 1].gather(a)
                if with_weights:
                    weights[p] = self.pools[b - 1].gather(a + 8)
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
        assert cap >= self._min_cap and cap & (cap - 1) == 0, f"v{v}: bad cap {cap}"
        assert deg <= cap, f"v{v}: deg {deg} > cap {cap}"
        assert len(view) == cap * ew, f"v{v}: view length {len(view)} != cap {cap}"
        if deep:
            nbrs = view[:deg * ew:ew].tolist()
            assert len(set(nbrs)) == deg, f"v{v}: duplicate stored edges"
        if deg <= self.th1:
            assert tbl is None, f"v{v}: Type2 with hash table"
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

"""Reference adjacency-list formats the hybrid store is measured against.

Both keep one growable edge array per vertex (doubling from 4 slots, never
shrinking, which is the textbook dynamic-array adjacency list) and differ
only in how concurrent updates are coordinated:

* AdListShared: one structure shared by every worker; a per-vertex lock
  serializes updates that target the same vertex.
* AdListChunked: no locks at all; the harness routes each update to the
  worker that owns the vertex's partition, same as the hybrid store, so two
  workers never touch one vertex.

Lookups are linear scans whatever the degree; that, plus the never-shrinking
capacity, is exactly what the hybrid layout is trying to beat.

Each edge array is an array.array of 'Q' words, one buffer object per
allocation or growth. Its scalar reads and writes, strided scan slices and
.tolist() cost what the hybrid store's memoryview edge arrays cost (a
scalar touch about half of numpy's), so a comparison of the two measures
their layouts rather than their access primitives. numpy comes in only where it vectorises:
scans past SCAN_LIMIT, the read-only neighbors() views and the csr() export.
"""

from __future__ import annotations

import threading
from array import array

import numpy as np

from .core import OUT, SCAN_LIMIT, Config, GraphStore, VertexRangeError

_INITIAL_CAP = 4

_EMPTY = np.empty(0, dtype=np.uint64)
_EMPTY.flags.writeable = False


class _AdjSide:
    """One direction's edge arrays, degrees and array lengths in words.

    caps[v] mirrors len(arrs[v]) (0 before the first insert) so that
    memory_bytes is one numpy sum instead of a walk over every array.
    """

    __slots__ = ("arrs", "degs", "caps")

    def __init__(self, num_vertices: int):
        self.arrs: list = [None] * num_vertices
        self.degs: list = [0] * num_vertices
        self.caps = np.zeros(num_vertices, dtype=np.int64)


class AdListBase(GraphStore):
    """Per-vertex dynamic edge arrays; subclasses add their locking story."""

    def __init__(self, config: Config, num_vertices: int, num_threads: int = 1):
        self.config = config
        self.num_vertices = num_vertices
        self.num_threads = num_threads
        self.weighted = config.weighted
        self.directed = config.directed
        self._ew = 2 if config.weighted else 1
        self._first = array("Q", bytes(8 * _INITIAL_CAP * self._ew))  # copied per vertex
        self._sides = [_AdjSide(num_vertices)]
        if config.directed:
            self._sides.append(_AdjSide(num_vertices))

    # -- single-direction operations ---------------------------------------

    # An edge is ew words, dst then (weighted) its property; every membership
    # scan reads the dsts as the strided slice arr[:deg * ew:ew], the same
    # idiom the hybrid store uses.

    def insert_half(self, v: int, nbr: int, prop: int = 0, side: int = OUT) -> bool:
        if v < 0 or v >= self.num_vertices or nbr < 0 or nbr >= self.num_vertices:
            raise VertexRangeError(f"edge ({v}, {nbr}) outside [0, {self.num_vertices})")
        st = self._sides[side]
        deg = st.degs[v]
        arr = st.arrs[v]
        ew = self._ew
        if deg:
            if deg <= SCAN_LIMIT:
                dsts = arr[:deg * ew:ew].tolist()
                j = dsts.index(nbr) if nbr in dsts else -1
            else:
                hit = (np.frombuffer(arr, dtype=np.uint64)[:deg * ew:ew] == nbr).nonzero()[0]
                j = int(hit[0]) if hit.size else -1
            if j >= 0:
                if ew == 2:
                    arr[2 * j + 1] = prop
                return False
        if arr is None:
            st.arrs[v] = arr = self._first[:]
            st.caps[v] = len(arr)
        elif deg * ew == len(arr):
            # One copy makes the doubled array; the repeated upper half is
            # never read before appends overwrite it.
            st.arrs[v] = arr = arr * 2
            st.caps[v] = len(arr)
        at = deg * ew
        arr[at] = nbr
        if ew == 2:
            arr[at + 1] = prop
        st.degs[v] = deg + 1
        return True

    def delete_half(self, v: int, nbr: int, side: int = OUT) -> bool:
        if v < 0 or v >= self.num_vertices or nbr < 0 or nbr >= self.num_vertices:
            raise VertexRangeError(f"edge ({v}, {nbr}) outside [0, {self.num_vertices})")
        st = self._sides[side]
        deg = st.degs[v]
        if deg == 0:
            return False
        arr = st.arrs[v]
        ew = self._ew
        if deg <= SCAN_LIMIT:
            dsts = arr[:deg * ew:ew].tolist()
            if nbr not in dsts:
                return False
            j = dsts.index(nbr)
        else:
            hit = (np.frombuffer(arr, dtype=np.uint64)[:deg * ew:ew] == nbr).nonzero()[0]
            if not hit.size:
                return False
            j = int(hit[0])
        last = deg - 1
        if j != last:
            arr[j * ew] = arr[last * ew]
            if ew == 2:
                arr[j * ew + 1] = arr[last * ew + 1]
        st.degs[v] = last
        return True

    # -- cursors and accounting ------------------------------------------------

    def degree(self, v: int, side: int = OUT) -> int:
        self._check_vertex(v)
        return self._sides[side].degs[v]

    def degree_array(self, side: int = OUT) -> np.ndarray:
        return np.asarray(self._sides[side].degs, dtype=np.uint64)

    def _edge_words(self, v: int, side: int, word: int) -> np.ndarray:
        """Read-only view of one word (0 dst, 1 property) of each live edge."""
        self._check_vertex(v)
        st = self._sides[side]
        deg = st.degs[v]
        if deg == 0:
            return _EMPTY
        out = np.frombuffer(st.arrs[v], dtype=np.uint64)[word:deg * self._ew:self._ew]
        out.flags.writeable = False
        return out

    def neighbors(self, v: int, side: int = OUT) -> np.ndarray:
        return self._edge_words(v, side, 0)

    def neighbor_props(self, v: int, side: int = OUT) -> np.ndarray | None:
        return self._edge_words(v, side, 1) if self.weighted else None

    def csr(self, side: int = OUT, with_weights: bool = False):
        """One side as CSR arrays (indptr, indices, weights or None), rows in
        storage order: the live prefix of every edge array, concatenated."""
        st = self._sides[side]
        ew = self._ew
        deg = np.asarray(st.degs, dtype=np.int64)
        indptr = np.zeros(self.num_vertices + 1, dtype=np.int64)
        np.cumsum(deg, out=indptr[1:])
        live = array("Q")
        for a, d in zip(st.arrs, st.degs):
            if d:
                live += a[:d * ew]
        words = np.frombuffer(live, dtype=np.uint64)
        weights = words[1::2].astype(np.float64) if with_weights else None
        return indptr, words[::ew].astype(np.int64), weights

    def has_edge(self, src: int, dst: int) -> bool:
        return bool(np.any(self.neighbors(src) == dst))

    def stored_edges(self, side: int = OUT) -> int:
        return sum(self._sides[side].degs)

    def _per_vertex_overhead(self) -> int:
        # array pointer + degree counter per side, modeled at 8 B each
        return 16 * len(self._sides)

    def memory_bytes(self) -> int:
        """Modeled native footprint: per-vertex fixed words + edge capacity.

        Capacity is the sum of caps, which insert_half sets wherever an
        array is allocated or doubled (arrays never shrink). Each element
        has one writer, the thread applying that vertex's update (its owner
        worker in AdListChunked, the holder of its lock in AdListShared),
        so the sum is exact without a shared counter.
        """
        cap_words = sum(int(st.caps.sum()) for st in self._sides)
        return self.num_vertices * self._per_vertex_overhead() + cap_words * 8

    def check_invariants(self, v: int, side: int = OUT, deep: bool = False) -> None:
        st = self._sides[side]
        deg = st.degs[v]
        arr = st.arrs[v]
        if arr is None:
            assert deg == 0, f"v{v}: degree {deg} with no array"
            assert st.caps[v] == 0, f"v{v}: caps {st.caps[v]} with no array"
            return
        assert st.caps[v] == len(arr), f"v{v}: caps {st.caps[v]} != {len(arr)} words"
        assert deg * self._ew <= len(arr), f"v{v}: deg {deg} over capacity"
        if deep:
            nbrs = arr[:deg * self._ew:self._ew].tolist()
            assert len(set(nbrs)) == deg, f"v{v}: duplicate stored edges"


class AdListChunked(AdListBase):
    """Lock-free variant relying on owner-thread routing for isolation."""


class AdListShared(AdListBase):
    """Shared variant: every update takes the target vertex's lock."""

    def __init__(self, config: Config, num_vertices: int, num_threads: int = 1):
        super().__init__(config, num_vertices, num_threads)
        self._locks = [threading.Lock() for _ in range(num_vertices)]

    def insert_half(self, v: int, nbr: int, prop: int = 0, side: int = OUT) -> bool:
        self._check_vertex(v)
        with self._locks[v]:
            return super().insert_half(v, nbr, prop, side)

    def delete_half(self, v: int, nbr: int, side: int = OUT) -> bool:
        self._check_vertex(v)
        with self._locks[v]:
            return super().delete_half(v, nbr, side)

    def _per_vertex_overhead(self) -> int:
        return super()._per_vertex_overhead() + 8  # one lock word per vertex

"""Shared configuration and sizing math for the hybrid graph store.

Everything here is plain integer arithmetic: the fixed store geometry
(64-byte metadata lines, 512-vertex partitions, 4 MiB pool blocks), degree
thresholds derived from the line size, the vertex -> worker partition map,
and the Config object the store, baselines, and benchmark harness all
consume. GraphStore holds the fields, argument checks and logical-edge
operations the store and the baselines share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

# Fibonacci multiplicative hash constant, floor(2^64 / golden ratio):
# the line-confined hash multiplies every key by it, modulo 2^64.
HASH_CONSTANT_64 = 0x9E3779B97F4A7C15

# Most vertices a store or dataset may hold. Ids then stay <= 2^32 - 2 and
# edge-array indices < 2^32, so a Type3 hash slot packs id << 32 | index
# into one word whose high half never equals a sentinel's (0xFFFFFFFF).
MAX_VERTICES = 2**32 - 1

# Edge directions: every store keeps an OUT side; directed stores add IN.
OUT = 0
IN = 1

# Fixed store geometry. A metadata record is one 64-byte line of 8 words:
# the Type2/3 record needs five (degree, capacity, edge array, hash, hash
# capacity). A worker owns runs of 512 consecutive ids (32 KiB of lines),
# and each worker's pool carves 4 MiB blocks.
CACHE_LINE_BYTES = 64
LINE_WORDS = CACHE_LINE_BYTES // 8
PARTITION_SIZE = 512
BLOCK_BYTES = 4 * 1024 * 1024

DEFAULT_TH1 = 32

# Per-vertex degree counter width. Edges are 8 bytes (dst) or 16 bytes
# (dst + 64-bit property).
DEG_BYTES = 8

# Crossover length for neighbor membership scans: a python-list walk beats
# the numpy ufunc by ~5x below this, loses above. Shared by the hybrid store
# and the baselines so throughput comparisons measure layout, not scan idiom.
SCAN_LIMIT = 128


class ConfigError(ValueError):
    """Invalid configuration value or combination."""


class CapacityError(RuntimeError):
    """A fixed-capacity structure was asked to exceed its contract."""


class VertexRangeError(IndexError):
    """Vertex id outside [0, num_vertices)."""


class ParseError(ValueError):
    """Malformed input line; carries the 1-based line number."""

    def __init__(self, message: str, lineno: int):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def partition_of(vertex_id, num_threads: int):
    """Owning worker index for a vertex id, or for each id in an array of
    them: (v // PARTITION_SIZE) % num_threads.

    Contiguous runs of PARTITION_SIZE ids share one owner so neighboring
    vertices' metadata lines are written by one thread only. The harness
    routes updates and the store picks pools by this one map.
    """
    return (vertex_id // PARTITION_SIZE) % num_threads


class GraphStore:
    """Fields, checks and logical-edge operations shared by the hybrid store
    and the baselines.

    Subclasses supply the single-direction operations insert_half,
    delete_half and stored_edges, and _edge_words, the read-only view of
    one word of each of a vertex's live edges.
    """

    hash_bytes = 0  # pool bytes held by hash tables; only the hybrid store has any

    def __init__(self, config: Config, num_vertices: int, num_threads: int):
        if num_threads < 1:
            raise ValueError("num_threads must be >= 1")
        if num_vertices > MAX_VERTICES:
            raise ValueError(f"num_vertices {num_vertices} exceeds MAX_VERTICES "
                             f"{MAX_VERTICES}: vertex ids must fit a 32-bit hash key")
        self.config = config
        self.num_vertices = num_vertices
        self.num_threads = num_threads
        self.weighted = config.weighted
        self.directed = config.directed
        self._ew = 2 if config.weighted else 1  # words per edge

    def _check_vertex(self, v: int) -> None:
        if v < 0 or v >= self.num_vertices:
            raise VertexRangeError(f"vertex {v} outside [0, {self.num_vertices})")

    def insert_edge(self, src: int, dst: int, prop: int | None = None) -> bool:
        """Insert or update edge (src, dst); True means a new edge.

        Undirected stores the mirror (dst, src) alongside; directed maintains
        the in-edge side. prop is required to be None on unweighted stores.
        """
        if prop is None:
            prop = 0
        elif not self.weighted:
            raise ValueError("edge property given to an unweighted store")
        inserted = self.insert_half(src, dst, prop, OUT)
        if self.directed:
            self.insert_half(dst, src, prop, IN)
        elif src != dst:
            self.insert_half(dst, src, prop, OUT)
        return inserted

    def delete_edge(self, src: int, dst: int) -> bool:
        """Delete edge (src, dst) and its mirror; True if it existed."""
        deleted = self.delete_half(src, dst, OUT)
        if self.directed:
            self.delete_half(dst, src, IN)
        elif src != dst:
            self.delete_half(dst, src, OUT)
        return deleted

    def neighbors(self, v: int, side: int = OUT):
        """Read-only view of v's live neighbor ids, in storage (index) order.

        Never touches a hash table, so traversal is safe to run while no
        update batch is in flight.
        """
        return self._edge_words(v, side, 0)

    def neighbor_props(self, v: int, side: int = OUT):
        """Read-only view of edge properties aligned with neighbors(v)."""
        return self._edge_words(v, side, 1) if self.weighted else None

    def in_neighbors(self, v: int):
        """In-edge cursor; the out cursor when the graph is undirected."""
        return self.neighbors(v, IN if self.directed else OUT)

    def get_edge_prop(self, src: int, dst: int) -> int | None:
        """Property of edge (src, dst), 0 on unweighted stores, None if absent."""
        nbrs = self.neighbors(src)
        hit = (nbrs == dst).nonzero()[0]
        if not hit.size:
            return None
        if not self.weighted:
            return 0
        return int(self.neighbor_props(src)[int(hit[0])])

    def probe_stats(self) -> dict:
        """Probe-distance histograms of the store's hash tables; empty here."""
        return {"insert": {}, "find": {}}

    def live_edges(self) -> float:
        """Logical live edge count: out-degree sum, halved when undirected."""
        total = self.stored_edges(OUT)
        return total / 2 if not self.directed else float(total)


@dataclass
class Config:
    """What a run varies: weights, direction and the hash threshold th1.

    th0, the edges that fit inline next to the degree word of a 64-byte
    line, follows from weighted. th1 must be a power of two strictly above
    th0 so that the array a Type3 -> Type2 delete halves still holds th1
    edges: a power-of-two capacity above th1 is at least 2 x th1. The line
    size is fixed; cache_line_bytes reads it for callers that size lines.
    """

    cache_line_bytes: ClassVar[int] = CACHE_LINE_BYTES
    weighted: bool = False
    directed: bool = False
    th1: int = DEFAULT_TH1
    th0: int = field(init=False)

    def __post_init__(self):
        self.th0 = (CACHE_LINE_BYTES - DEG_BYTES) // self.edge_bytes
        if self.th1 < 1 or self.th1 & (self.th1 - 1):
            raise ConfigError("th1 must be a power of two")
        if self.th1 <= self.th0:
            raise ConfigError(f"th1 ({self.th1}) must exceed th0 ({self.th0})")

    @property
    def edge_bytes(self) -> int:
        return 16 if self.weighted else 8

"""Shared configuration and sizing math for the hybrid graph store.

Everything here is plain integer arithmetic: degree thresholds derived from
cache line geometry, the vertex -> worker partition map, and the Config
object the store, baselines, and benchmark harness all consume. GraphStore
holds the logical-edge operations the store and the baselines share.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

DEFAULT_CACHE_LINE_BYTES = 64
DEFAULT_TH1 = 32
DEFAULT_PARTITION_SIZE = 512
DEFAULT_BLOCK_BYTES = 4 * 1024 * 1024

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


def next_pow2(n: int) -> int:
    """Smallest power of two >= n (n >= 1).

    >>> next_pow2(7)
    8
    >>> next_pow2(8)
    8
    """
    if n < 1:
        raise ValueError("next_pow2 needs n >= 1")
    return 1 << (n - 1).bit_length()


def compute_th0(cache_line_bytes: int, edge_bytes: int, deg_bytes: int = DEG_BYTES) -> int:
    """Number of edges that fit inline in a cache-line record next to the
    degree counter: floor((cache_line_bytes - deg_bytes) / edge_bytes).

    64-byte lines hold 7 unweighted (8-byte) or 3 weighted (16-byte) edges.
    """
    if cache_line_bytes < deg_bytes + edge_bytes:
        raise ConfigError(
            f"cache line of {cache_line_bytes} B cannot hold a {deg_bytes} B "
            f"degree counter plus one {edge_bytes} B edge"
        )
    return (cache_line_bytes - deg_bytes) // edge_bytes


def partition_of(vertex_id: int, num_threads: int, partition_size: int = DEFAULT_PARTITION_SIZE) -> int:
    """Owning worker index for a vertex: (v // partition_size) % num_threads.

    Contiguous runs of partition_size ids share one owner so neighboring
    vertices' metadata lines are written by one thread only.
    """
    return (vertex_id // partition_size) % num_threads


class GraphStore:
    """Logical-edge operations shared by the hybrid store and the baselines.

    Subclasses set num_vertices, weighted and directed, and supply the
    single-direction operations: insert_half, delete_half, neighbors,
    neighbor_props and stored_edges.
    """

    hash_bytes = 0  # pool bytes held by hash tables; only the hybrid store has any

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

    def live_edges(self) -> float:
        """Logical live edge count: out-degree sum, halved when undirected."""
        total = self.stored_edges(OUT)
        return total / 2 if not self.directed else float(total)


_CONFIG_FILE_KEYS = {
    "cache_line_bytes": int,
    "weighted": None,  # bool, parsed specially
    "directed": None,
    "th1": int,
    "partition_size": int,
    "block_bytes": int,
}

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


@dataclass
class Config:
    """Store-wide knobs shared by every format and the harness.

    th1 must be a power of two strictly above th0 so that capacity doubling
    crosses it exactly at deg == cap. partition_size must be a positive
    multiple of the degree-counter slots per cache line (cache_line/8) so a
    partition boundary is also a cache line boundary.
    """

    cache_line_bytes: int = DEFAULT_CACHE_LINE_BYTES
    weighted: bool = False
    directed: bool = False
    th1: int = DEFAULT_TH1
    partition_size: int = DEFAULT_PARTITION_SIZE
    block_bytes: int = DEFAULT_BLOCK_BYTES
    th0: int = field(init=False)

    def __post_init__(self):
        if self.cache_line_bytes < 16 or self.cache_line_bytes & (self.cache_line_bytes - 1):
            raise ConfigError("cache_line_bytes must be a power of two >= 16")
        self.th0 = compute_th0(self.cache_line_bytes, self.edge_bytes)
        if self.th1 < 1 or self.th1 & (self.th1 - 1):
            raise ConfigError("th1 must be a power of two")
        if self.th1 <= self.th0:
            raise ConfigError(f"th1 ({self.th1}) must exceed th0 ({self.th0})")
        deg_slots = self.cache_line_bytes // DEG_BYTES
        if self.partition_size <= 0 or self.partition_size % deg_slots:
            raise ConfigError(f"partition_size must be a positive multiple of {deg_slots}")
        if self.block_bytes < 4096 or self.block_bytes & (self.block_bytes - 1):
            raise ConfigError("block_bytes must be a power of two >= 4096")

    @property
    def edge_bytes(self) -> int:
        return 16 if self.weighted else 8

    @classmethod
    def from_file(cls, path, **overrides) -> "Config":
        """Build a Config from a key=value text file ('#' starts a comment).

        Keyword overrides (typically CLI flags) win over file values.
        """
        values = {}
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ParseError(f"expected key=value, got {line!r}", lineno)
                key, _, val = line.partition("=")
                key, val = key.strip(), val.strip()
                if key not in _CONFIG_FILE_KEYS:
                    raise ParseError(f"unknown config key {key!r}", lineno)
                if key in ("weighted", "directed"):
                    low = val.lower()
                    if low in _TRUE:
                        values[key] = True
                    elif low in _FALSE:
                        values[key] = False
                    else:
                        raise ParseError(f"expected boolean for {key}, got {val!r}", lineno)
                else:
                    try:
                        values[key] = int(val, 0)
                    except ValueError:
                        raise ParseError(f"expected integer for {key}, got {val!r}", lineno) from None
        values.update(overrides)
        return cls(**values)

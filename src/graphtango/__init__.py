"""Degree-adaptive streaming graph storage.

Vertices move between three representations as their degree changes: a few
edges live inline in the vertex's metadata cache line, mid-degree vertices
keep a pooled edge array, and high-degree vertices add a cache-line-confined
hash index over that array. AdListShared and AdListChunked are the
conventional adjacency-list baselines, and the analytics kernels run on
read-only snapshots of any of the three stores.
"""

from .analytics import (
    KERNELS,
    UNREACHABLE,
    Snapshot,
    build_snapshot,
    run_bfs,
    run_cc,
    run_pr,
    run_sssp,
)
from .baseline import AdListChunked, AdListShared
from .cfhash import CfhTable, ProbeStats
from .core import (
    CapacityError,
    Config,
    ConfigError,
    ParseError,
    VertexRangeError,
    partition_of,
)
from .mempool import MemoryPool, PoolError
from .store import IN, OUT, TYPE1, TYPE2, TYPE3, TangoStore

__version__ = "0.1.0"

__all__ = [
    "AdListChunked",
    "AdListShared",
    "CapacityError",
    "CfhTable",
    "Config",
    "ConfigError",
    "IN",
    "KERNELS",
    "MemoryPool",
    "OUT",
    "ParseError",
    "PoolError",
    "ProbeStats",
    "Snapshot",
    "TYPE1",
    "TYPE2",
    "TYPE3",
    "TangoStore",
    "UNREACHABLE",
    "VertexRangeError",
    "build_snapshot",
    "partition_of",
    "run_bfs",
    "run_cc",
    "run_pr",
    "run_sssp",
    "__version__",
]

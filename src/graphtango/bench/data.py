"""Edge-list datasets: SNAP-style text loading and synthetic generators.

Everything downstream (the harness, the CLI) consumes :class:`EdgeList`,
which keeps endpoints as dense vertex ids in ``[0, num_vertices)``.  Files
with sparse or non-contiguous ids are remapped on load, first-seen order,
and the reverse table is kept in ``EdgeList.remap`` alone: no report field
carries the original ids.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..core import MAX_VERTICES, ParseError

# Original ids may use all 64 bits: load_snap densifies them to [0, V) and
# keeps them only in the uint64 remap table. Only the dense ids, at most
# MAX_VERTICES of them, reach a store's 32-bit hash keys.
MAX_VERTEX_ID = 2**64 - 1

_SYNTH_KINDS = ("short_tailed", "heavy_tailed")
_KIND_ALIASES = {"short": "short_tailed", "heavy": "heavy_tailed"}

# Weights are stored as int64.
_MAX_INT64 = 2**63 - 1

# Synthetic edge weights are drawn uniformly from [1, _MAX_WEIGHT].
_MAX_WEIGHT = 16


@dataclass
class EdgeList:
    """A batch-able list of edges with dense endpoints.

    ``weights`` is None for unweighted data.  ``remap[i]`` is the original
    id of dense vertex ``i``; it is None when the data was born dense
    (synthetic generators).
    """

    srcs: np.ndarray
    dsts: np.ndarray
    weights: np.ndarray | None
    num_vertices: int
    directed: bool
    remap: np.ndarray | None = None
    source_name: str = ""

    def __post_init__(self):
        self.srcs = np.ascontiguousarray(self.srcs, dtype=np.int64)
        self.dsts = np.ascontiguousarray(self.dsts, dtype=np.int64)
        if self.weights is not None:
            self.weights = np.ascontiguousarray(self.weights, dtype=np.int64)
            if len(self.weights) != len(self.srcs):
                raise ValueError("weights length mismatch")
        if len(self.dsts) != len(self.srcs):
            raise ValueError("srcs/dsts length mismatch")

    @property
    def num_edges(self) -> int:
        return len(self.srcs)

    @property
    def weighted(self) -> bool:
        return self.weights is not None

    def slice(self, lo: int, hi: int) -> tuple:
        """(srcs, dsts, weights|None) views for edges [lo, hi)."""
        w = self.weights[lo:hi] if self.weights is not None else None
        return self.srcs[lo:hi], self.dsts[lo:hi], w


def load_snap(path, *, weighted: bool = False, directed: bool = False) -> EdgeList:
    """Parse a SNAP-style edge list.

    Lines are ``src dst [weight]``, whitespace separated; ``#`` starts a
    comment line.  Ids are remapped to dense [0, V) in first-seen order.
    Duplicate edges are kept; dedup is the store's job, and feeding the
    duplicates through exercises exactly that path.

    Raises ParseError (with the 1-based line number) on malformed lines,
    ids outside [0, 2^64 - 1], more than MAX_VERTICES distinct ids, or
    weights outside [0, 2^63 - 1].
    """
    srcs: list[int] = []
    dsts: list[int] = []
    wts: list[int] = []
    id_of: dict[int, int] = {}

    def dense(orig: int, lineno: int) -> int:
        if orig < 0 or orig > MAX_VERTEX_ID:
            raise ParseError(f"vertex id {orig} out of range", lineno)
        idx = id_of.get(orig)
        if idx is None:
            idx = len(id_of)
            if idx >= MAX_VERTICES:
                raise ParseError(f"more than {MAX_VERTICES} distinct vertex ids", lineno)
            id_of[orig] = idx
        return idx

    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) < 2 or len(parts) > 3:
                raise ParseError(
                    f"expected 'src dst [weight]', got {len(parts)} fields", lineno
                )
            try:
                s = int(parts[0])
                d = int(parts[1])
            except ValueError:
                raise ParseError(f"non-integer vertex id in {parts[:2]}", lineno) from None
            srcs.append(dense(s, lineno))
            dsts.append(dense(d, lineno))
            if weighted:
                if len(parts) < 3:
                    raise ParseError("weighted load but line has no weight", lineno)
                try:
                    w = int(parts[2])
                except ValueError:
                    raise ParseError(f"non-integer weight {parts[2]!r}", lineno) from None
                if w < 0:
                    raise ParseError(f"negative weight {w}", lineno)
                if w > _MAX_INT64:
                    raise ParseError(f"weight {w} exceeds the int64 range", lineno)
                wts.append(w)
            # Unweighted load tolerates (and drops) a third column.

    remap = np.fromiter(id_of.keys(), dtype=np.uint64, count=len(id_of))
    return EdgeList(
        srcs=np.asarray(srcs, dtype=np.int64),
        dsts=np.asarray(dsts, dtype=np.int64),
        weights=np.asarray(wts, dtype=np.int64) if weighted else None,
        num_vertices=len(id_of),
        directed=directed,
        remap=remap,
        source_name=str(path),
    )


def shuffle(el: EdgeList, seed: int) -> EdgeList:
    """Uniformly permute the edge order. Same seed, same order."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(el.num_edges)
    return replace(el, srcs=el.srcs[perm], dsts=el.dsts[perm],
                   weights=el.weights[perm] if el.weights is not None else None)


def check_synthetic(kind: str, num_vertices: int, num_edges: int) -> str:
    """Validate a synthetic request without allocating; returns the kind's
    full name."""
    kind = _KIND_ALIASES.get(kind, kind)
    if kind not in _SYNTH_KINDS:
        raise ValueError(f"unknown synthetic kind {kind!r}")
    if num_vertices < 1 or num_edges < num_vertices:
        raise ValueError("need num_edges >= num_vertices >= 1")
    if num_vertices > MAX_VERTICES:
        raise ValueError(f"num_vertices {num_vertices} exceeds MAX_VERTICES {MAX_VERTICES}")
    return kind


def gen_synthetic(
    kind: str,
    num_vertices: int,
    num_edges: int,
    seed: int,
    *,
    weighted: bool = False,
    directed: bool = False,
) -> EdgeList:
    """Generate a synthetic edge list, deterministic per seed.

    short_tailed: both endpoints uniform over [0, V); degrees concentrate
    near E/V.  heavy_tailed: sources uniform, destinations follow a
    power law with exponent 2.0 mapped onto a seeded permutation of the
    vertex ids, so the hot vertices are not simply the low ids.
    """
    kind = check_synthetic(kind, num_vertices, num_edges)
    rng = np.random.default_rng(seed)
    srcs = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    if kind == "short_tailed":
        dsts = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    else:
        # Zipf ranks are unbounded; fold onto [0, V) and scatter through a
        # permutation so hub ids land anywhere in the id space.
        ranks = rng.zipf(2.0, size=num_edges).astype(np.int64) - 1
        perm = rng.permutation(num_vertices).astype(np.int64)
        dsts = perm[ranks % num_vertices]
    weights = (
        rng.integers(1, _MAX_WEIGHT + 1, size=num_edges, dtype=np.int64)
        if weighted
        else None
    )
    return EdgeList(
        srcs=srcs,
        dsts=dsts,
        weights=weights,
        num_vertices=num_vertices,
        directed=directed,
        remap=None,
        source_name=f"{kind}(V={num_vertices},E={num_edges},seed={seed})",
    )

"""Batch analytics over a CSR snapshot of any of the edge stores.

After each update batch the harness freezes the store into a compressed
sparse row snapshot (the store's own csr() export, no hash probes) and
runs the requested kernels on plain numpy arrays.

BFS, SSSP, and connected components share one engine: iterative
minimum-relaxation over a frontier. Each round gathers every out-edge of
the frontier, forms candidate values (parent value + edge cost: the weight
for SSSP, 1 for BFS, 0 for component labels), min-reduces them into the
value array with np.minimum.at (no sort), and the vertices whose value
dropped become the next frontier. With non-negative costs the fixed point
is exact regardless of evaluation order, so results are deterministic and
independent of thread count.

The same monotonicity gives incremental recomputation after insert-only
batches: previous values are a valid upper bound, so relaxation seeded
from just the inserted edges' endpoints converges to exactly the
from-scratch answer. Any batch containing a delete falls back to a full
run. PageRank always iterates until one step changes the ranks by less
than the tolerance; after the first batch it warm starts from the previous
ranks, which converge to the same fixed point. Directed snapshots run
plain power iteration; undirected ones, whose step matrix has a real
spectrum in [-d, d], switch to Chebyshev semi-iteration once the power
steps stall.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import VertexRangeError
from .store import IN, OUT

UNREACHABLE = np.inf

_PR_DAMPING = 0.85
_PR_TOL = 1e-7
_PR_MAX_ITERS = 100


@dataclass
class Snapshot:
    """CSR image of a store: out-edges always, in-edges when requested."""

    num_vertices: int
    directed: bool
    indptr: np.ndarray            # int64, len V+1
    indices: np.ndarray           # int64, len E
    weights: np.ndarray | None    # float64, len E, None when unweighted
    in_indptr: np.ndarray | None = None
    in_indices: np.ndarray | None = None

    @property
    def num_edges(self) -> int:
        return len(self.indices)

    def out_degrees(self) -> np.ndarray:
        return np.diff(self.indptr)


def build_snapshot(store, need_in: bool = False) -> Snapshot:
    """Freeze a store into CSR form through its csr() export.

    need_in additionally materializes the in-edge CSR of a directed store
    (components need both directions); undirected stores already hold each
    edge under both endpoints.
    """
    indptr, indices, weights = store.csr(OUT, store.weighted)
    snap = Snapshot(store.num_vertices, store.directed, indptr, indices, weights)
    if need_in and store.directed:
        snap.in_indptr, snap.in_indices, _ = store.csr(IN, False)
    return snap


# -- shared relaxation engine ---------------------------------------------------


def _gather(indptr, frontier):
    """Edge positions of the frontier rows, row after row, and each row's
    edge count."""
    starts = indptr[frontier]
    cnts = indptr[frontier + 1] - starts
    flat = np.repeat(starts - (np.cumsum(cnts) - cnts), cnts)
    flat += np.arange(len(flat), dtype=np.int64)
    return flat, cnts


def _relax_round(csrs, values, frontier, before):
    """One round: min-reduce every frontier edge's candidate into values and
    return the vertices whose value dropped, sorted and unique.

    Candidates all read the values of round start (snapshotted into the
    V-sized buffer before); np.minimum.at applies them part by part, since
    a minimum does not depend on order.
    """
    np.copyto(before, values)
    base = values[frontier]
    for indptr, indices, cost in csrs:
        flat, cnts = _gather(indptr, frontier)
        cand = np.repeat(base, cnts)
        cand += cost[flat] if isinstance(cost, np.ndarray) else cost
        np.minimum.at(values, indices[flat], cand)
    return np.flatnonzero(values < before)


def _min_relax(csrs, values, frontier) -> int:
    """Relax to the fixed point; csrs is a list of (indptr, indices, cost)
    where cost is an edge-aligned array or a scalar. Returns rounds run."""
    rounds = 0
    limit = len(values) + 1
    before = np.empty_like(values)
    frontier = np.unique(np.asarray(frontier, dtype=np.int64))
    while frontier.size:
        rounds += 1
        if rounds > limit:
            raise RuntimeError("relaxation failed to converge; negative cost?")
        frontier = _relax_round(csrs, values, frontier, before)
    return rounds


def _seed_from_edges(values, srcs, dsts, costs, symmetric: bool):
    """Directly relax a set of edges; the improved heads seed the frontier.

    symmetric relaxes each edge in both directions, for snapshots that store
    an undirected graph (or label propagation, which ignores direction).
    Every candidate is read before any is applied.
    """
    srcs = np.asarray(srcs, dtype=np.int64)
    dsts = np.asarray(dsts, dtype=np.int64)
    before = values.copy()
    fwd = values[srcs] + costs
    rev = values[dsts] + costs if symmetric else None
    np.minimum.at(values, dsts, fwd)
    if symmetric:
        np.minimum.at(values, srcs, rev)
    return np.flatnonzero(values < before)


# -- kernels ---------------------------------------------------------------------


@dataclass
class KernelResult:
    name: str
    values: np.ndarray
    rounds: int
    mode: str  # "full" or "incremental"


def _check_source(snap: Snapshot, source: int) -> None:
    if source < 0 or source >= snap.num_vertices:
        raise VertexRangeError(f"source {source} outside [0, {snap.num_vertices})")


def _distances(name: str, snap: Snapshot, source: int, costs, prev, new_edges) -> KernelResult:
    """Distances from source over edges of the given costs, a scalar or one
    per CSR entry; new_edges is (srcs, dsts, their costs) or None."""
    csr = (snap.indptr, snap.indices, costs)
    if prev is not None and new_edges is not None:
        values = prev.copy()
        frontier = _seed_from_edges(values, *new_edges, symmetric=not snap.directed)
        rounds = _min_relax([csr], values, frontier)
        return KernelResult(name, values, rounds, "incremental")
    values = np.full(snap.num_vertices, np.inf)
    values[source] = 0.0
    rounds = _min_relax([csr], values, np.array([source]))
    return KernelResult(name, values, rounds, "full")


def run_bfs(snap: Snapshot, source: int, prev: np.ndarray | None = None,
            new_edges=None) -> KernelResult:
    """Hop distances from source; unreachable vertices hold inf.

    prev plus new_edges (srcs, dsts arrays of the batch's inserted edges,
    both orientations for undirected graphs) runs the incremental form.
    Valid only for edges being added: deletions need a full run (prev=None).
    """
    _check_source(snap, source)
    return _distances("bfs", snap, source, 1.0, prev,
                      None if new_edges is None else (*new_edges, 1.0))


def run_sssp(snap: Snapshot, source: int, prev: np.ndarray | None = None,
             new_edges=None) -> KernelResult:
    """Shortest-path distances by edge weight (non-negative integers).

    The incremental path (prev + new_edges) is valid only when new_edges are
    genuinely new: min-relaxation seeded from prev can never raise a distance,
    so weight updates to existing edges and deletions both require a full run.
    """
    _check_source(snap, source)
    if snap.weights is None:
        raise ValueError("sssp needs a weighted snapshot")
    return _distances("sssp", snap, source, snap.weights, prev, new_edges)


def run_cc(snap: Snapshot, prev: np.ndarray | None = None,
           new_edges=None) -> KernelResult:
    """Connected components as min-vertex-id labels (weak components when
    directed: edges propagate labels both ways).

    Incremental form (prev + new_edges) merges labels across added edges;
    deletions can split components, so they need a full run.
    """
    csrs = [(snap.indptr, snap.indices, 0.0)]
    if snap.directed:
        if snap.in_indptr is None:
            raise ValueError("cc on a directed snapshot needs need_in=True")
        csrs.append((snap.in_indptr, snap.in_indices, 0.0))
    if prev is not None and new_edges is not None:
        values = prev.astype(np.float64, copy=True)
        frontier = _seed_from_edges(values, new_edges[0], new_edges[1], 0.0,
                                    symmetric=True)
        rounds = _min_relax(csrs, values, frontier)
        return KernelResult("cc", values.astype(np.int64), rounds, "incremental")
    values = np.arange(snap.num_vertices, dtype=np.float64)
    frontier = np.arange(snap.num_vertices, dtype=np.int64)
    rounds = _min_relax(csrs, values, frontier)
    return KernelResult("cc", values.astype(np.int64), rounds, "full")


def run_pr(snap: Snapshot, prev: np.ndarray | None = None) -> KernelResult:
    """PageRank: rank(v) = (1-d)/V + d * sum over in-edges of rank(u)/outdeg(u),
    with d = _PR_DAMPING, tol = _PR_TOL and at most _PR_MAX_ITERS steps.

    Each iteration applies the step T(x) = (1-d)/V + d*A*D^-1*x once, and
    the loop stops when the step's L1 change |T(x) - x| is below tol,
    returning T(x), which is then within tol*d/(1-d) of the fixed point.
    Directed snapshots run plain power iteration, x = T(x). On an
    undirected snapshot d*A*D^-1 is similar to a symmetric matrix, so its
    spectrum is real and inside [-d, d]: the first step that shrinks the L1
    change by less than Chebyshev's rate over that interval,
    d/(1+sqrt(1-d^2)), switches the rest of the call to Chebyshev
    semi-iteration, x+ = x- + w*(T(x) - x-). rounds counts step
    applications. No special treatment of sink vertices: their rank simply
    is not redistributed, so ranks sum to less than one when sinks exist.
    A vertex with no edges at all scores (1-d)/V. Warm starting from prev
    converges to the same fixed point.
    """
    V = snap.num_vertices
    if V == 0:
        return KernelResult("pr", np.empty(0), 0, "full")
    outdeg = snap.out_degrees()
    mode = "full" if prev is None else "incremental"
    rank = np.full(V, 1.0 / V) if prev is None else prev.copy()
    base = (1.0 - _PR_DAMPING) / V
    # A vertex without out-edges is repeated 0 times, so dividing its rank
    # by 1 in place of 0 changes no bit of the result.
    div = np.maximum(outdeg, 1).astype(np.float64)
    contrib = np.empty(V)
    diff = np.empty(V)  # T(x) - x, then Chebyshev's T(x) - x-
    d2 = _PR_DAMPING * _PR_DAMPING
    switch = np.inf if snap.directed else _PR_DAMPING / (1.0 + np.sqrt(1.0 - d2))
    last = np.inf
    older = None  # x- once the loop runs Chebyshev
    omega = 1.0
    for it in range(1, _PR_MAX_ITERS + 1):
        np.divide(rank, div, out=contrib)
        # bincount of no edges returns int64 even with float weights
        new = np.bincount(snap.indices, weights=np.repeat(contrib, outdeg),
                          minlength=V).astype(np.float64, copy=False)
        new *= _PR_DAMPING
        new += base
        np.subtract(new, rank, out=diff)
        np.abs(diff, out=diff)
        delta = float(diff.sum())
        if delta < _PR_TOL:
            break
        if older is not None:
            omega = 2.0 / (2.0 - d2) if omega == 1.0 else 1.0 / (1.0 - d2 * omega / 4.0)
            np.subtract(new, older, out=diff)
            diff *= omega
            older += diff  # x- + w*(T(x) - x-), in x-'s buffer
            rank, older = older, rank
        else:
            if delta > switch * last:
                older = rank  # this plain step is Chebyshev's first
            last = delta
            rank = new
    return KernelResult("pr", new, it, mode)


KERNELS = ("bfs", "pr", "sssp", "cc")

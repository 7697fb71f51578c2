"""Independent output check for one run_experiment call.

The reference replays the same batches into a plain dict of distinct live
edges (last writer wins on the weight) and recomputes every kernel from
scratch on it with scipy, or, for PageRank, with a cold power iteration of
the formula the harness states in its report header.  Nothing here runs
inside a timed region.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra, shortest_path

from graphtango.bench.harness import DEFAULT_SOURCE

# PageRank as the harness runs it: damping 0.85, L1 step tolerance 1e-7.
# Two runs that each stop below the tolerance lie within tol*d/(1-d) of the
# fixed point, so they may differ by twice that.
PR_DAMPING = 0.85
PR_TOL = 1e-7
PR_GAP = 2 * PR_TOL * PR_DAMPING / (1 - PR_DAMPING)


class Reference:
    """Distinct live edges of a stream, keyed the way the stores key them."""

    def __init__(self, el):
        self.el = el
        self.V = el.num_vertices
        self.edges: dict[int, int] = {}  # key -> weight
        self.loops = 0                   # live self loops (undirected count)

    def _key(self, u: int, v: int) -> int:
        if not self.el.directed and u > v:
            u, v = v, u
        return u * self.V + v

    def apply(self, lo: int, hi: int, insert: bool) -> None:
        srcs, dsts, wts = self.el.slice(lo, hi)
        wts = wts.tolist() if wts is not None else [0] * (hi - lo)
        edges = self.edges
        for u, v, w in zip(srcs.tolist(), dsts.tolist(), wts):
            k = self._key(u, v)
            if insert:
                if k not in edges and u == v:
                    self.loops += 1
                edges[k] = w
            elif edges.pop(k, None) is not None and u == v:
                self.loops -= 1

    def live_edges(self) -> float:
        # live_edges() is documented as the stored out-degree sum, halved when
        # undirected, so an undirected self loop (stored once) counts 1/2.
        if self.el.directed:
            return float(len(self.edges))
        return (2 * len(self.edges) - self.loops) / 2

    def matrix(self) -> csr_matrix:
        """Stored half-edges as a V x V matrix: row u holds u's out-list."""
        n = len(self.edges)
        keys = np.fromiter(self.edges.keys(), dtype=np.int64, count=n)
        if self.el.weighted:
            w = np.fromiter(self.edges.values(), dtype=np.float64, count=n)
        else:  # csgraph may read an explicit zero as "no edge"
            w = np.ones(n)
        u, v = keys // self.V, keys % self.V
        if not self.el.directed:
            back = u != v
            u, v, w = (np.concatenate([u, v[back]]), np.concatenate([v, u[back]]),
                       np.concatenate([w, w[back]]))
        return csr_matrix((w, (u, v)), shape=(self.V, self.V))


def _pagerank(A: csr_matrix) -> np.ndarray:
    V = A.shape[0]
    outdeg = np.diff(A.indptr)
    has_out = outdeg > 0
    pattern_t = csr_matrix((np.ones(A.nnz), A.indices, A.indptr), shape=A.shape).T.tocsr()
    rank = np.full(V, 1.0 / V)
    contrib = np.zeros(V)
    base = (1.0 - PR_DAMPING) / V
    for _ in range(10_000):
        np.divide(rank, outdeg, out=contrib, where=has_out)
        new = base + PR_DAMPING * (pattern_t @ contrib)
        step = float(np.abs(new - rank).sum())
        rank = new
        if step < PR_TOL:
            break
    return rank


def _expected(A: csr_matrix, name: str) -> np.ndarray:
    if name == "bfs":
        return shortest_path(A, directed=True, unweighted=True, indices=DEFAULT_SOURCE)
    if name == "sssp":
        return dijkstra(A, directed=True, indices=DEFAULT_SOURCE)
    if name == "cc":
        _, labels = connected_components(A, directed=True, connection="weak")
        mins = np.full(labels.max() + 1, A.shape[0], dtype=np.int64)
        np.minimum.at(mins, labels, np.arange(A.shape[0]))
        return mins[labels]
    return _pagerank(A)


def check_experiment(el, batch_size: int, kernels, reports, values_log) -> list:
    """Replay the stream; return one (batch, reason) per failing batch."""
    ref = Reference(el)
    failures = []
    bounds = [(lo, min(lo + batch_size, el.num_edges))
              for lo in range(0, el.num_edges, batch_size)]
    phases = [(True, lo, hi) for lo, hi in bounds] + [(False, lo, hi) for lo, hi in bounds]
    if len(phases) != len(reports):
        return [(-1, f"{len(reports)} batch reports for {len(phases)} batches")]
    for i, ((insert, lo, hi), rep) in enumerate(zip(phases, reports)):
        ref.apply(lo, hi, insert)
        reasons = []
        if rep.live_edges != ref.live_edges():
            reasons.append(f"live_edges {rep.live_edges} != {ref.live_edges()}")
        if kernels:
            A = ref.matrix()
            for name in kernels:
                got, want = values_log[i][name], _expected(A, name)
                if name == "pr":
                    gap = float(np.abs(got - want).sum())
                    if not gap <= PR_GAP:
                        reasons.append(f"pr L1 gap {gap:.3g} > {PR_GAP:.3g}")
                elif not np.array_equal(got, want):
                    bad = int(np.count_nonzero(got != want))
                    reasons.append(f"{name} differs at {bad} vertices")
        if reasons:
            failures.append((i, "; ".join(reasons)))
    return failures

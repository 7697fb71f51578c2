"""The benchmark's workloads: synthetic streams fed to run_experiment.

Every workload is generated by ``bench.data.gen_synthetic`` and shuffled
with the run's seed, so the same seed gives the same stream.  The sizes are
design sizes scaled down with V, E and batch together, which keeps the mean
degree and at least 100 batches per experiment, so ``fresh_p90_ms`` has ten
batches beyond it and a run holds many experiments.  README.md gives the
design sizes and says why each workload is there.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # gen_synthetic kind: "short" or "heavy"
    vertices: int
    edges: int
    directed: bool
    weighted: bool
    fmt: str             # store format passed to run_experiment
    kernels: tuple       # analytics run after every batch
    batch: int
    threads: int         # harness worker threads

    def scaled(self, factor: float) -> "Workload":
        """Same stream shape with V, E and batch scaled together."""
        return replace(self,
                       vertices=max(1, round(self.vertices * factor)),
                       edges=max(1, round(self.edges * factor)),
                       batch=max(1, round(self.batch * factor)))


WORKLOADS = {w.name: w for w in (
    Workload("short-fresh", "short", 2_500, 25_000, False, False, "tango",
             ("bfs", "pr"), 250, 1),
    Workload("heavy-ingest", "heavy", 12_500, 125_000, False, False, "tango",
             (), 1_250, 2),
    Workload("heavy-ingest-1t", "heavy", 12_500, 125_000, False, False, "tango",
             (), 1_250, 1),
    Workload("weighted-directed", "short", 2_500, 25_000, True, True, "tango",
             ("sssp", "cc"), 500, 1),
    Workload("short-ingest-chunked", "short", 12_500, 125_000, False, False,
             "adlist-chunked", (), 1_250, 1),
)}

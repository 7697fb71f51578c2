"""Batch-by-batch store images replayed against a recorded golden.

Each stream is generated, shuffled, routed and applied one batch at a time
in both phases, as the harness does. After every batch the store's
accounting and a digest of each side's CSR export are compared with
tests/data/store_image_golden.json. CSR rows keep storage order, and
storage order depends on where each insert appends and which edge each
delete moves into the hole, so the digests pin both.

Regenerate the golden (only when a change is meant to move storage order
or accounting) with:

    PYTHONPATH=src python tests/test_store_image.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from graphtango.bench.data import gen_synthetic, shuffle
from graphtango.bench.harness import apply_ops, make_store, route_batch
from graphtango.core import Config
from graphtango.store import TangoStore

GOLDEN = Path(__file__).parent / "data" / "store_image_golden.json"

# name -> (format, synthetic kind, V, E, batch, threads, Config kwargs).
# Heavy hubs re-weight edges on Type3 (th1 8) and, with th1 256, scan Type2
# arrays past SCAN_LIMIT, the numpy side of the scan; so do the adlists.
STREAMS = {
    "tango-heavy-th1_8-2t": ("tango", "heavy", 400, 6000, 600, 2, dict(th1=8)),
    "tango-short-weighted-directed-th1_16": (
        "tango", "short", 300, 6000, 600, 1, dict(th1=16, weighted=True, directed=True)),
    "tango-heavy-weighted-th1_8": ("tango", "heavy", 300, 6000, 600, 1,
                                   dict(th1=8, weighted=True)),
    "tango-heavy-weighted-th1_256": ("tango", "heavy", 200, 6000, 600, 1,
                                     dict(th1=256, weighted=True)),
    "adlist-chunked-heavy-weighted-directed": (
        "adlist-chunked", "heavy", 300, 6000, 600, 1, dict(weighted=True, directed=True)),
    "adlist-shared-heavy": ("adlist-shared", "heavy", 300, 6000, 600, 2, dict()),
}


def _digest(store, side: int) -> str:
    h = hashlib.sha256()
    for arr in store.csr(side, with_weights=store.weighted):
        if arr is not None:
            h.update(arr.tobytes())
    return h.hexdigest()


def replay(name: str) -> list:
    """One record per batch: accounting plus a CSR digest per side."""
    fmt, kind, V, E, batch, threads, kw = STREAMS[name]
    cfg = Config(**kw)
    el = shuffle(gen_synthetic(kind, V, E, seed=11, weighted=cfg.weighted,
                               directed=cfg.directed), 11)
    store = make_store(fmt, cfg, V, threads)
    sides = 2 if cfg.directed else 1
    out = []
    for phase in ("insert", "delete"):
        for lo in range(0, E, batch):
            srcs, dsts, wts = el.slice(lo, min(lo + batch, E))
            # Workers own disjoint vertices and pools, so applying their
            # slices one after another builds the threaded run's store.
            for vs, ns, ps, sd in route_batch(srcs, dsts, wts, directed=cfg.directed,
                                              num_threads=threads):
                apply_ops(store, phase == "insert", vs, ns, ps, sd)
            rec = {"phase": phase, "live_edges": store.live_edges(),
                   "memory_bytes": store.memory_bytes(), "hash_bytes": store.hash_bytes,
                   "csr": [_digest(store, s) for s in range(sides)]}
            if isinstance(store, TangoStore):
                rec["resize_copies"] = store.resize_copies
            out.append(rec)
    return out


@pytest.mark.parametrize("name", list(STREAMS))
def test_store_image_matches_golden(name):
    golden = json.loads(GOLDEN.read_text())[name]
    got = replay(name)
    assert len(got) == len(golden) == 20
    for i, (g, want) in enumerate(zip(got, golden)):
        assert g == want, f"{name} batch {i}"


if __name__ == "__main__":
    # One batch record a line keeps a regenerated golden's diff readable.
    GOLDEN.write_text("{\n" + ",\n".join(
        json.dumps(n) + ":[\n" + ",\n".join(json.dumps(r, separators=(",", ":"))
                                             for r in replay(n)) + "]"
        for n in STREAMS) + "\n}\n")

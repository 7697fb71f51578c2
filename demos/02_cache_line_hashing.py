"""Probe sequences that stay inside one cache line at a time.

The table hashes a key to a line and a starting slot, walks every slot of
that line, then double-hashes to the next line. Two properties fall out:
the first M*N probes visit every slot exactly once, and probes only cross
a line boundary once per N steps. At load 0.5 nearly every insert finishes
inside its first line. Each slot is one 8-byte word, key << 32 | value, so
keys are below 2^32 - 1 and values below 2^32.
"""

import numpy as np

from graphtango import CfhTable, ProbeStats
from graphtango.cfhash import KEY_LIMIT, probe_sequence


def main():
    m_lines, n_slots = 4, 8
    key = 0xCAFEF00D
    probes = probe_sequence(key, m_lines, n_slots).tolist()
    print(f"key {key:#x}, {m_lines} lines x {n_slots} slots")
    for line_start in range(0, len(probes), n_slots):
        group = probes[line_start:line_start + n_slots]
        lines = {slot // n_slots for slot in group}
        print(f"  probes {line_start:2d}..{line_start + n_slots - 1:2d}: "
              f"slots {group}  (line {lines.pop()})")
    assert sorted(probes) == list(range(m_lines * n_slots)), "not a permutation"
    print("all 32 slots visited exactly once\n")

    # fill a real table to its load cap and look at the probe histogram
    rng = np.random.default_rng(7)
    stats = ProbeStats()
    tbl = CfhTable(2**16, stats=stats)
    keys = np.unique(rng.integers(0, KEY_LIMIT, size=40_000, dtype=np.uint64))[:2**15]
    for i, k in enumerate(keys.tolist()):
        tbl.insert(k, i)

    print(f"{tbl.live_count} keys at load {tbl.live_count / tbl.capacity_slots:.2f}, "
          f"{tbl.chunk_bytes // tbl.capacity_slots} bytes per slot "
          f"({tbl.chunk_bytes} bytes for {tbl.capacity_slots} slots)")
    hist = stats.insert
    total = sum(hist.values())
    for dist in sorted(hist)[:10]:
        bar = "#" * max(1, round(60 * hist[dist] / total))
        print(f"  distance {dist:2d}: {hist[dist]:6d} {bar}")
    print(f"mean insert distance {stats.mean_insert_distance():.3f}, "
          f"{stats.fraction_within('insert', 8):.1%} within one line")

    hit = tbl.find(int(keys[123]))
    absent = int(np.setdiff1d(np.arange(100, dtype=np.uint64), keys)[0])
    miss = tbl.find(absent)
    print(f"find(existing) -> {hit}, find(absent) -> {miss}")


if __name__ == "__main__":
    main()

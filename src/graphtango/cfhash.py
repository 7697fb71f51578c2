"""Open-addressing hash table whose probe sequence is confined to cache lines.

Slots are grouped into lines of N (8 for 64-byte lines); the probe sequence
visits all N slots of a line before moving to another line, so a lookup that
terminates within N probes touches exactly one line of the key array. Probe
i for a key lands at

    slot(key, i) = h1(key, i // N) * N + h2(key, i mod N)
    h1(key, x)   = (h3(key) + x * h4(key)) mod M      line selector
    h2(key, x)   = (key + x) mod N                    offset inside the line
    h3(key)      = (key * A mod 2^64) >> (64 - m)     Fibonacci hash, m = log2(M)
    h4(key)      = ((key * A mod 2^64) >> (64 - 2m)) | 1

A is the 64-bit Fibonacci constant HASH_CONSTANT_64, floor(2^64 / golden
ratio), which is odd. h4 is forced odd, so for a power-of-two line count M the
line walk is a full cycle and the whole sequence is a permutation of all
M*N slots. Everything is shifts, masks, and two multiplies; no division
anywhere. Every table operation goes through one walk of that sequence.

Each slot is one uint64 word, key << 32 | value, in a single pool chunk of
8 bytes per slot, so a 64-byte line holds 8 whole (key, value) pairs and a
hit reads its value from the line the walk already touched. Keys are below
2^32 - 1 and values below 2^32. The word 2^64-1 marks an empty slot, 2^64-2
a tombstone; their high half is 0xFFFFFFFF, which no legal key equals. The
caller keeps load (live keys / slots) at or below 0.5; the table itself
rebuilds in place when live + tombstone slots pass that bound.
"""

from __future__ import annotations

import numpy as np

from .core import HASH_CONSTANT_64, CapacityError
from .mempool import MemoryPool

EMPTY_KEY = 2**64 - 1
TOMBSTONE_KEY = 2**64 - 2
_MASK64 = 2**64 - 1
# A slot packs key << 32 | value: keys in [0, KEY_LIMIT), values in
# [0, VALUE_LIMIT). KEY_LIMIT itself is the sentinels' high half.
KEY_LIMIT = 2**32 - 1
VALUE_LIMIT = 2**32
_MASK32 = 2**32 - 1
SLOT_BYTES = 8


def _check_pow2(name: str, value: int) -> int:
    if value < 1 or value & (value - 1):
        raise ValueError(f"{name} must be a power of two, got {value}")
    return value.bit_length() - 1


def _h34(key: int, log_m: int) -> tuple[int, int]:
    """Line start h3 and odd line stride h4 of key, for 2**log_m lines."""
    if 2 * log_m > 64:
        raise ValueError(f"2*log2(m_lines) = {2 * log_m} exceeds the 64-bit key width")
    y = (key * HASH_CONSTANT_64) & _MASK64
    return y >> (64 - log_m), (y >> (64 - (log_m << 1))) | 1


def hash_probe(key: int, i: int, m_lines: int, n_slots: int) -> int:
    """Slot index of probe i for key, in a table of m_lines lines of n_slots.

    Pure function of its arguments and the scalar reference for the probe
    recurrence; the table's walk computes the same values incrementally.
    Requires 2 * log2(m_lines) <= 64.
    """
    log_m = _check_pow2("m_lines", m_lines)
    log_n = _check_pow2("n_slots", n_slots)
    h3, h4 = _h34(key, log_m)
    h1 = (h3 + (i >> log_n) * h4) & (m_lines - 1)
    h2 = (key + i) & (n_slots - 1)
    return (h1 << log_n) | h2


def probe_sequence(key: int, m_lines: int, n_slots: int) -> np.ndarray:
    """All m_lines * n_slots probe slots for key, as one uint64 array.

    Same math as hash_probe; h3/h4 are computed once in exact integer
    arithmetic, the i-dependent part is vectorized.
    """
    log_m = _check_pow2("m_lines", m_lines)
    log_n = _check_pow2("n_slots", n_slots)
    h3, h4 = _h34(key, log_m)
    i = np.arange(m_lines * n_slots, dtype=np.uint64)
    h1 = (np.uint64(h3) + (i >> np.uint64(log_n)) * np.uint64(h4)) & np.uint64(m_lines - 1)
    h2 = (np.uint64(key & _MASK64) + i) & np.uint64(n_slots - 1)
    return (h1 << np.uint64(log_n)) | h2


class ProbeStats:
    """Histograms of probe distances (1-based slot counts) per operation kind."""

    __slots__ = ("insert", "find")

    def __init__(self):
        self.insert: dict[int, int] = {}
        self.find: dict[int, int] = {}

    def snapshot(self) -> dict:
        return {"insert": dict(self.insert), "find": dict(self.find)}

    @classmethod
    def merged(cls, parts) -> "ProbeStats":
        """A new ProbeStats holding the summed histograms of parts."""
        out = cls()
        for part in parts:
            for mine, theirs in ((out.insert, part.insert), (out.find, part.find)):
                for d, c in theirs.items():
                    mine[d] = mine.get(d, 0) + c
        return out

    def reset(self) -> None:
        self.insert.clear()
        self.find.clear()

    @staticmethod
    def _mean(hist: dict) -> float:
        total = sum(hist.values())
        return sum(d * c for d, c in hist.items()) / total if total else float("nan")

    def mean_insert_distance(self) -> float:
        return self._mean(self.insert)

    def mean_find_distance(self) -> float:
        return self._mean(self.find)

    def fraction_within(self, kind: str, dist: int) -> float:
        hist = getattr(self, kind)
        total = sum(hist.values())
        if not total:
            return float("nan")
        return sum(c for d, c in hist.items() if d <= dist) / total


def _check_pair(key: int, value: int) -> None:
    if not 0 <= key < KEY_LIMIT:
        raise ValueError(f"key {key} outside [0, 2^32 - 1)")
    if not 0 <= value < VALUE_LIMIT:
        raise ValueError(f"value {value} outside [0, 2^32)")


class CfhTable:
    """Line-confined double-hashing table mapping 32-bit keys to 32-bit values.

    The slots live in a single pool chunk, one packed key << 32 | value word
    each. capacity_slots must be a power of two and a multiple of
    slots_per_line; the caller's load contract is live_count <= capacity/2.
    """

    __slots__ = ("pool", "capacity_slots", "m_lines", "n_slots", "live_count",
                 "tombstone_count", "stats", "_own_pool", "_log_n", "_chunk",
                 "_words", "_wmv", "_shift3", "_shift4")

    def __init__(self, capacity_slots: int, *, pool: MemoryPool | None = None,
                 slots_per_line: int = 8, stats: ProbeStats | None = None):
        _check_pow2("capacity_slots", capacity_slots)
        self._log_n = _check_pow2("slots_per_line", slots_per_line)
        if capacity_slots < slots_per_line:
            raise ValueError("capacity_slots must hold at least one line")
        self._own_pool = pool is None
        self.pool = MemoryPool() if pool is None else pool
        self.n_slots = slots_per_line
        self.stats = ProbeStats() if stats is None else stats
        self.live_count = 0
        self.tombstone_count = 0
        self._set_capacity(capacity_slots)

    def _set_capacity(self, capacity_slots: int) -> None:
        m_lines = capacity_slots >> self._log_n
        log_m = _check_pow2("line count", m_lines)
        if 2 * log_m > 64:
            raise ValueError(f"capacity {capacity_slots} needs 2*log2(M) <= 64")
        self.capacity_slots = capacity_slots
        self.m_lines = m_lines
        self._shift3 = 64 - log_m
        self._shift4 = 64 - (log_m << 1)
        self._chunk = self.pool.allocate(capacity_slots * SLOT_BYTES)
        self._words = self.pool.u64_view(self._chunk, capacity_slots)
        self._words.fill(EMPTY_KEY)
        # Single words are read and written through a memoryview: about half
        # the cost of a numpy scalar access, on every probe of every walk.
        self._wmv = memoryview(self._words)

    def _walk(self, key: int, hist: dict | None) -> tuple[int, bool, int]:
        """Walk key's probe sequence to the key or to the first empty slot.

        Returns (slot, True, dist) when key is stored in slot. Otherwise
        returns (slot, False, dist) with the slot a new key would take: the
        first tombstone on the path, else the empty slot that ended it, or
        -1 when the walk ran through every slot. dist is the probe distance
        (slots read); it is added to hist unless hist is None. A key outside
        [0, KEY_LIMIT) is never stored, so its walk is a miss.
        """
        y = (key * HASH_CONSTANT_64) & _MASK64
        h3 = y >> self._shift3
        h4 = (y >> self._shift4) | 1
        words = self._wmv
        n = self.n_slots
        mask_n = n - 1
        mask_m = self.m_lines - 1
        log_n = self._log_n
        free = -1
        for line in range(self.m_lines):
            base = ((h3 + line * h4) & mask_m) << log_n
            for x in range(n):
                slot = base | ((key + x) & mask_n)
                w = words[slot]
                # Only key KEY_LIMIT shares the sentinels' high half; the
                # second test, reached on a hit alone, keeps it a miss.
                hit = w >> 32 == key and w < TOMBSTONE_KEY
                if hit or w == EMPTY_KEY:
                    dist = (line << log_n) + x + 1
                    if hist is not None:
                        hist[dist] = hist.get(dist, 0) + 1
                    if hit:
                        return slot, True, dist
                    return (slot if free < 0 else free), False, dist
                if free < 0 and w == TOMBSTONE_KEY:
                    free = slot
        dist = self.capacity_slots
        if hist is not None:
            hist[dist] = hist.get(dist, 0) + 1
        return free, False, dist

    # -- operations ---------------------------------------------------------

    def find(self, key: int) -> int | None:
        """Value stored for key, or None. Skips tombstones, stops at empty."""
        slot, hit, _ = self._walk(key, self.stats.find)
        return self._wmv[slot] & _MASK32 if hit else None

    def locate(self, key: int) -> tuple[int, int | None, int]:
        """find() that also returns where its walk ended: (slot, value, dist).

        On a hit value is key's value and slot holds key, ready for
        remove_at; on a miss value is None and slot is where put_at places
        key (-1 when the walk found no free slot). dist is the probe
        distance, logged under 'find' like find(). The slot stays valid for
        put_at or remove_at until a key is placed or removed; overwriting a
        value keeps it.
        """
        slot, hit, dist = self._walk(key, self.stats.find)
        return slot, (self._wmv[slot] & _MASK32 if hit else None), dist

    def insert(self, key: int, value: int) -> bool:
        """Insert key -> value (True) or overwrite an existing key (False).

        A new key lands in the first tombstone seen on its probe path if the
        path ends at an empty slot, per standard open-addressing reuse.
        Raises ValueError for a key outside [0, 2^32 - 1) or a value outside
        [0, 2^32), CapacityError if a new key would push live count past
        capacity/2.
        """
        _check_pair(key, value)
        return self._put(key, value, self.stats.insert)

    def put_at(self, slot: int, key: int, value: int, dist: int) -> None:
        """Place key, which a locate() missed, at the slot it returned.

        The same placement as insert() without a second walk: dist goes
        under 'insert' as that walk's would, then the same capacity checks,
        tombstone accounting and tombstone-pressure purge. Unlike insert(),
        it leaves the key and value ranges to the caller.
        """
        hist = self.stats.insert
        hist[dist] = hist.get(dist, 0) + 1
        self._place(slot, key, value)

    def _put(self, key: int, value: int, hist: dict | None) -> bool:
        """insert(), adding the probe distance to hist unless it is None."""
        slot, hit, _ = self._walk(key, hist)
        if hit:
            self._wmv[slot] = key << 32 | value
            return False
        self._place(slot, key, value)
        return True

    def _place(self, slot: int, key: int, value: int) -> None:
        """Store a new key at slot, the free slot its walk ended at."""
        half = self.capacity_slots >> 1
        live = self.live_count + 1
        if slot < 0:
            raise CapacityError("hash table has no free slot")
        if live > half:
            raise CapacityError(
                f"insert would push live count past capacity/2 ({live} > {half})")
        words = self._wmv
        reused_tomb = words[slot] == TOMBSTONE_KEY
        words[slot] = key << 32 | value
        self.live_count = live
        if reused_tomb:
            self.tombstone_count -= 1
        elif live + self.tombstone_count > half:
            # Tombstone pressure: every probe path must keep an empty slot
            # reachable, so purge in place once half the slots are non-empty.
            self.rebuild(self.capacity_slots)

    def remove(self, key: int) -> bool:
        """Mark key's slot as a tombstone. Probe distance logs under 'find'."""
        slot, hit, _ = self._walk(key, self.stats.find)
        if hit:
            self._tombstone(slot)
        return hit

    def remove_at(self, slot: int, dist: int) -> None:
        """Tombstone the slot a locate() hit returned, without a second
        walk: dist goes under 'find' as remove()'s walk would."""
        hist = self.stats.find
        hist[dist] = hist.get(dist, 0) + 1
        self._tombstone(slot)

    def _tombstone(self, slot: int) -> None:
        self._wmv[slot] = TOMBSTONE_KEY
        self.live_count -= 1
        self.tombstone_count += 1

    def rebuild(self, new_capacity_slots: int | None = None) -> None:
        """Re-place all live pairs, dropping tombstones.

        With the current capacity (the default) the slot chunk is reused in
        place, so the chunk handle stays valid; a different capacity
        allocates a new chunk and frees the old one. new_capacity_slots must
        be a power of two >= 2 * live_count and at least one line.
        """
        if new_capacity_slots is None:
            new_capacity_slots = self.capacity_slots
        if new_capacity_slots < 2 * self.live_count:
            raise CapacityError(
                f"rebuild to {new_capacity_slots} slots would exceed load 0.5 "
                f"with {self.live_count} live keys"
            )
        live = self.items()
        if new_capacity_slots == self.capacity_slots:
            self._words.fill(EMPTY_KEY)
        else:
            old_chunk, old_bytes = self._chunk, self.chunk_bytes
            self._set_capacity(new_capacity_slots)
            self.pool.deallocate(old_chunk, old_bytes)
        self.tombstone_count = 0
        # The cleared table holds no tombstones and the keys are distinct,
        # so each key takes the empty slot its walk ends at.
        words, walk = self._wmv, self._walk
        for key, value in live:
            words[walk(key, None)[0]] = key << 32 | value

    def bulk_load(self, pairs) -> None:
        """Insert each (key, value) pair as insert() would, without probe
        statistics: how the store indexes an existing edge array."""
        for key, value in pairs:
            _check_pair(key, value)
            self._put(key, value, None)

    def release(self) -> None:
        """Free the slot chunk. The table is unusable afterwards."""
        if self._chunk:
            self.pool.deallocate(self._chunk, self.chunk_bytes)
            self._chunk = 0
            self._words = self._wmv = None
            if self._own_pool:
                self.pool.close()

    # -- introspection ------------------------------------------------------

    def items(self) -> list[tuple[int, int]]:
        """Live (key, value) pairs in slot order."""
        live = self._words[self._words < np.uint64(TOMBSTONE_KEY)]
        return list(zip((live >> np.uint64(32)).tolist(),
                        (live & np.uint64(_MASK32)).tolist()))

    @property
    def chunk_bytes(self) -> int:
        return self.capacity_slots * SLOT_BYTES

    def key_array_pointer(self) -> int:
        """Machine address of the slot array, for alignment checks."""
        return self.pool.real_pointer(self._chunk)

    def probe_stats(self) -> dict:
        """Plain-number snapshot of the probe-distance histograms."""
        return self.stats.snapshot()

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from graphtango.cfhash import (
    EMPTY_KEY,
    KEY_LIMIT,
    TOMBSTONE_KEY,
    VALUE_LIMIT,
    CfhTable,
    ProbeStats,
    probe_sequence,
)
from graphtango.core import HASH_CONSTANT_64, LINE_WORDS, CapacityError
from graphtango.mempool import MemoryPool


def slot_oracle(key, i, log_m, log_n, mult, width):
    """Independent straight-line transcription of the probe recurrence.

    Written against the definition, not the implementation: fixed-width
    multiply, two shifts, forced-odd line stride, offset rotation.
    """
    mask = (1 << width) - 1
    y = (key * mult) & mask
    h3 = y >> (width - log_m) if log_m else 0
    h4 = ((y >> (width - 2 * log_m)) | 1) if log_m else 1
    h1 = (h3 + (i >> log_n) * h4) & ((1 << log_m) - 1)
    h2 = (key + i) & ((1 << log_n) - 1)
    return (h1 << log_n) | h2


def test_known_64bit_probe_slots():
    # key=1, M=4 lines (m=2), N=8 slots: key * A mod 2^64 is A itself,
    # 0x9E3779B97F4A7C15, whose top bits are 1001 1110...
    #   h3 = top 2 bits           = 0b10           = 2
    #   h4 = top 4 bits, made odd = 0b1001 | 1     = 9
    # probe i visits line (2 + (i // 8) * 9) mod 4, offset (1 + i) mod 8:
    # lines 2, 3, 0, 1 in turn, each entered at offset 1.
    assert HASH_CONSTANT_64 >> 60 == 0b1001
    expected = {0: 17, 7: 16, 8: 25, 15: 24, 16: 1, 24: 9, 31: 8}
    for i, slot in expected.items():
        assert slot_oracle(1, i, 2, 3, HASH_CONSTANT_64, 64) == slot
        assert int(probe_sequence(1, 4, 8)[i]) == slot


def test_probe_matches_oracle():
    rng = random.Random(42)
    for _ in range(300):
        log_m = rng.randrange(0, 11)
        log_n = rng.choice((0, 1, 2, 3, 4))
        m, n = 1 << log_m, 1 << log_n
        key = rng.randrange(1 << 64)
        i = rng.randrange(m * n)
        assert int(probe_sequence(key, m, n)[i]) == \
            slot_oracle(key, i, log_m, log_n, HASH_CONSTANT_64, 64)


def test_sequence_is_permutation():
    rng = random.Random(7)
    for m, n in ((2, 8), (8, 8), (64, 8), (1024, 8), (4, 4), (16, 16), (1, 8)):
        for _ in range(5):
            key = rng.randrange(1 << 64)
            seq = probe_sequence(key, m, n)
            assert sorted(seq.tolist()) == list(range(m * n))


def test_sequence_matches_scalar():
    rng = random.Random(3)
    for m, n in ((4, 8), (32, 8), (8, 4)):
        key = rng.randrange(1 << 64)
        seq = probe_sequence(key, m, n)
        for i in range(0, m * n, max(1, m * n // 10)):
            assert int(seq[i]) == slot_oracle(key, i, m.bit_length() - 1, n.bit_length() - 1,
                                              HASH_CONSTANT_64, 64)


def test_line_confinement():
    # probes k*N .. k*N+N-1 all land inside one line of N slots
    rng = random.Random(9)
    for _ in range(20):
        key = rng.randrange(1 << 64)
        seq = probe_sequence(key, 64, 8)
        lines = seq >> np.uint64(3)
        for k in range(64):
            block = lines[k * 8:(k + 1) * 8]
            assert (block == block[0]).all()
    # and each of those blocks covers all 8 offsets of the line
    seq = probe_sequence(12345, 16, 8)
    for k in range(16):
        assert sorted((seq[k * 8:(k + 1) * 8] & np.uint64(7)).tolist()) == list(range(8))


def test_probe_validation():
    with pytest.raises(ValueError):
        probe_sequence(1, 3, 8)  # m not a power of two
    with pytest.raises(ValueError):
        probe_sequence(1, 4, 6)  # n not a power of two
    with pytest.raises(ValueError):
        probe_sequence(1, 1 << 33, 8)  # 2*log2(m) = 66 > 64


def test_table_basic_roundtrip():
    t = CfhTable(64)
    assert t.find(5) is None
    assert t.insert(5, 11) is True
    assert t.insert(5, 12) is False  # overwrite
    assert t.find(5) == 12
    assert t.remove(5) is True
    assert t.find(5) is None
    assert t.remove(5) is False
    assert t.insert(5, 13) is True  # reusable after a tombstone
    assert t.find(5) == 13
    assert t.live_count == 1
    t.release()


def test_probe_stats_recording():
    t = CfhTable(64)
    t.find(5)            # miss, distance 1
    t.insert(5, 11)      # distance 1
    t.insert(5, 12)      # overwrite, distance 1
    t.find(5)            # hit, distance 1
    t.remove(5)          # logs under find, distance 1
    t.find(5)            # tombstone then empty: distance 2
    assert t.stats.snapshot() == {"insert": {1: 2}, "find": {1: 3, 2: 1}}
    t.release()


def test_remove_records_exhausted_walk_like_find():
    t = CfhTable(16)
    # No empty slot: every walk runs out.
    np.frombuffer(t._words, dtype=np.uint64).fill(TOMBSTONE_KEY)
    assert t.find(5) is None
    assert t.remove(5) is False
    assert t.stats.snapshot()["find"] == {16: 2}
    t.release()


def test_dict_oracle_equivalence():
    rng = random.Random(1234)
    t = CfhTable(256)
    oracle = {}
    # Mostly small keys, plus the top of the key domain; values reach 2^32 - 1.
    keys = list(range(190)) + [KEY_LIMIT - 1 - i for i in range(10)]
    for step in range(6000):
        key = rng.choice(keys)
        if rng.random() < 0.6 and len(oracle) < 128:
            val = VALUE_LIMIT - 1 if rng.random() < 0.1 else rng.randrange(VALUE_LIMIT)
            assert t.insert(key, val) == (key not in oracle)
            oracle[key] = val
        else:
            assert t.remove(key) == (key in oracle)
            oracle.pop(key, None)
        assert t.live_count == len(oracle)
        # the load contract holds: live + tombstones never exceed half
        assert t.live_count + t.tombstone_count <= 128
        if step % 500 == 499:
            for k, v in oracle.items():
                assert t.find(k) == v
            assert dict(t.items()) == oracle
    t.release()


def test_capacity_enforced():
    t = CfhTable(16)
    for k in range(8):
        t.insert(k, k)
    with pytest.raises(CapacityError):
        t.insert(99, 99)
    assert t.insert(3, 33) is False  # overwriting stays legal at full load
    t.release()


def test_same_line_collisions_probe_onward():
    # find keys whose first probe hits the same slot, then make them fight
    t = CfhTable(64)
    target = probe_sequence(1, 8, 8)[0]
    rivals = [k for k in range(1, 4000)
              if probe_sequence(k, 8, 8)[0] == target][:4]
    assert len(rivals) == 4
    for j, k in enumerate(rivals):
        t.insert(k, j)
    for j, k in enumerate(rivals):
        assert t.find(k) == j
    dists = sorted(t.stats.insert)
    assert dists[0] == 1 and len(t.stats.insert) > 1  # later rivals probed further
    t.release()


def test_tombstone_pressure_rebuild():
    t = CfhTable(32, stats=ProbeStats())
    chunk_before = t._chunk
    rng = random.Random(5)
    live = {}
    for i in range(4000):
        k = rng.randrange(10000)
        if len(live) < 16 and rng.random() < 0.55:
            t.insert(k, i)
            live[k] = i
        elif live:
            victim = next(iter(live))
            t.remove(victim)
            del live[victim]
        assert t.live_count + t.tombstone_count <= 16
    assert t._chunk == chunk_before  # same-capacity purges reuse the chunk
    assert dict(t.items()) == live
    t.release()


def test_rebuild_resizes():
    pool = MemoryPool(debug=True)
    t = CfhTable(32, pool=pool)
    for k in range(10):
        t.insert(k, k * 7)
    with pytest.raises(CapacityError):
        t.rebuild(16)  # 10 live keys need at least 32 slots
    t.rebuild(128)
    assert t.capacity_slots == 128
    assert pool.stats()["bytes_in_use"] == 128 * 8
    for k in range(10):
        assert t.find(k) == k * 7
    t.rebuild(32)
    assert t.capacity_slots == 32
    for k in range(10):
        assert t.find(k) == k * 7
    t.release()
    assert pool.stats()["bytes_in_use"] == 0


def test_rebuild_refuses_a_bad_capacity_and_changes_nothing():
    # The constructor's checks hold for rebuild too: 12 slots is not a power
    # of two and 4 is under one line, so both raise before the table changes.
    # With 4 live keys, 4 slots would also pass load 0.5: that check comes
    # first. With 2 keys only the line check refuses it.
    for n_keys, bad, err in ((4, 12, ValueError), (4, 4, CapacityError), (2, 4, ValueError)):
        pool = MemoryPool(debug=True)
        t = CfhTable(16, pool=pool)
        for k in range(n_keys):
            t.insert(k, k + 100)
        words = t._words.tolist()
        with pytest.raises(err):
            t.rebuild(bad)
        assert (t.capacity_slots, t.m_lines, t.live_count) == (16, 16 // LINE_WORDS, n_keys)
        assert t._words.tolist() == words
        assert all(t.find(k) == k + 100 for k in range(n_keys))
        assert pool.stats()["bytes_in_use"] == 16 * 8
        t.release()
    for bad in (12, 4, 0):
        with pytest.raises(ValueError):
            CfhTable(bad)
    # 2^33 lines would need 66 hash bits: refused before any chunk is carved
    pool = MemoryPool()
    with pytest.raises(ValueError, match=r"2\*log2"):
        CfhTable(1 << 36, pool=pool)
    assert pool.stats()["bytes_reserved"] == 0


def test_bulk_load_matches_inserts():
    a = CfhTable(128)
    b = CfhTable(128)
    pairs = [(k * 31 + 5, k) for k in range(50)]
    for k, v in pairs:
        a.insert(k, v)
    b.bulk_load(iter(pairs))
    assert sorted(a.items()) == sorted(b.items())
    assert b.live_count == 50
    assert b.stats.snapshot() == {"insert": {}, "find": {}}  # no stats pollution
    with pytest.raises(CapacityError):
        b.bulk_load((x, x) for x in range(1000, 1100))
    a.release()
    b.release()


def test_keys_and_values_share_one_chunk():
    pool = MemoryPool(debug=True)
    t = CfhTable(64, pool=pool)
    assert pool.stats()["bytes_in_use"] == 64 * 8  # one 8-byte word per slot
    assert t.chunk_bytes == 64 * 8
    assert t.pool.real_pointer(t._chunk) % 64 == 0  # line-aligned slot array
    t.insert(7, 70)
    slot, value, _ = t.locate(7)
    assert value == 70
    assert t._words[slot] == 7 << 32 | 70  # key and value in one word
    t.release()
    assert pool.stats()["bytes_in_use"] == 0


def test_empty_and_tombstone_are_reserved():
    t = CfhTable(64)
    assert EMPTY_KEY == 2**64 - 1
    assert TOMBSTONE_KEY == 2**64 - 2
    assert KEY_LIMIT == 2**32 - 1 == EMPTY_KEY >> 32 == TOMBSTONE_KEY >> 32
    t.insert(2**32 - 2, 2**32 - 1)  # largest legal key and value work
    assert t.find(2**32 - 2) == 2**32 - 1
    t.insert(0, 0)
    assert t.find(0) == 0
    assert sorted(t.items()) == [(0, 0), (2**32 - 2, 2**32 - 1)]
    # Key 2^32 - 1 shares the sentinels' high half: lookups of it and of
    # larger keys miss, past empty slots and tombstones alike.
    assert t.remove(0)
    for key in (2**32 - 1, 2**32, 2**64 - 3, 2**64 - 1):
        assert t.find(key) is None
        assert t.remove(key) is False
        assert t.locate(key)[1] is None
    np.frombuffer(t._words, dtype=np.uint64).fill(TOMBSTONE_KEY)
    assert t.find(2**32 - 1) is None
    t.release()


@pytest.mark.parametrize("key,value", [
    (2**32 - 1, 0), (2**32, 0), (2**64 - 3, 0), (-1, 0),
    (0, 2**32), (0, 2**64 - 1), (0, -1),
])
def test_out_of_domain_pairs_are_refused(key, value):
    t = CfhTable(64)
    t.insert(1, 1)
    with pytest.raises(ValueError):
        t.insert(key, value)
    with pytest.raises(ValueError):
        t.bulk_load([(key, value)])
    assert t.items() == [(1, 1)]
    assert (t.live_count, t.tombstone_count) == (1, 0)
    t.release()


@given(key=hs.integers(0, KEY_LIMIT - 1), value=hs.integers(0, VALUE_LIMIT - 1))
@example(key=KEY_LIMIT - 1, value=VALUE_LIMIT - 1)
@example(key=0, value=0)
def test_no_legal_packed_word_is_a_sentinel(key, value):
    word = key << 32 | value
    assert word < TOMBSTONE_KEY < EMPTY_KEY
    assert (word >> 32, word & (VALUE_LIMIT - 1)) == (key, value)


def test_probe_stats_helpers():
    s = ProbeStats()
    s.insert.update({1: 98, 2: 2})
    s.find.update({1: 3, 3: 1})
    assert s.mean_insert_distance() == pytest.approx(1.02)
    assert s.mean_find_distance() == pytest.approx(1.5)
    assert s.fraction_within("insert", 1) == pytest.approx(0.98)
    assert s.fraction_within("insert", 8) == 1.0
    assert s.fraction_within("find", 1) == pytest.approx(0.75)
    assert math.isnan(ProbeStats().fraction_within("find", 1))


class OracleTable:
    """Straight-line model of CfhTable written from probe_sequence.

    Plain lists for the slots; each operation walks the key's full probe
    sequence, stops at the key or at the first empty slot, and places a new
    key in the first tombstone on that path, else in the empty slot. A
    placement that fills a fresh slot and leaves more than half the slots
    non-empty purges tombstones in place. rebuild and bulk_load place keys
    the same way without probe statistics.
    """

    def __init__(self, cap, n):
        self.n = n
        self._reset(cap)
        self.hist = {"insert": {}, "find": {}}

    def _reset(self, cap):
        self.cap = cap
        self.keys = [EMPTY_KEY] * cap
        self.vals = [None] * cap
        self.live = self.tomb = 0

    def _path(self, key, kind):
        """(slot holding key or None, slot a new key takes or None)."""
        seq = probe_sequence(key, self.cap // self.n, self.n).tolist()
        at, free, dist = None, None, len(seq)
        for d, slot in enumerate(seq, 1):
            k = self.keys[slot]
            if k == key:
                at, dist = slot, d
                break
            if k == EMPTY_KEY:
                free, dist = (slot if free is None else free), d
                break
            if k == TOMBSTONE_KEY and free is None:
                free = slot
        if kind is not None:
            self.hist[kind][dist] = self.hist[kind].get(dist, 0) + 1
        return at, free

    def find(self, key):
        at, _ = self._path(key, "find")
        return None if at is None else self.vals[at]

    def insert(self, key, value, kind="insert"):
        at, free = self._path(key, kind)
        if at is not None:
            self.vals[at] = value
            return False
        if free is None or self.live + 1 > self.cap // 2:
            raise CapacityError("full")
        reused = self.keys[free] == TOMBSTONE_KEY
        self.keys[free], self.vals[free] = key, value
        self.live += 1
        if reused:
            self.tomb -= 1
        elif self.live + self.tomb > self.cap // 2:
            self.rebuild(self.cap)
        return True

    def remove(self, key):
        at, _ = self._path(key, "find")
        if at is None:
            return False
        self.keys[at] = TOMBSTONE_KEY
        self.live -= 1
        self.tomb += 1
        return True

    def rebuild(self, cap):
        if cap < 2 * self.live:
            raise CapacityError("too small")
        pairs = [(k, v) for k, v in zip(self.keys, self.vals)
                 if k not in (EMPTY_KEY, TOMBSTONE_KEY)]
        self._reset(cap)
        self.bulk_load(pairs)

    def bulk_load(self, pairs):
        for key, value in pairs:
            self.insert(key, value, kind=None)

    # The store's Type3 append and delete as the parent wrote them: a find,
    # then on a miss an insert (on a hit a remove), each a walk of its own.
    def append(self, key, value):
        got = self.find(key)
        if got is None:
            self.insert(key, value)
        return got

    def delete(self, key):
        got = self.find(key)
        if got is not None:
            self.remove(key)
        return got


def table_call(t, op, args):
    """Run op on CfhTable t; append and delete use one walk via the
    slot-level calls, as the store does."""
    if op == "append":
        key, value = args
        slot, got, dist = t.locate(key)
        if got is None:
            t.put_at(slot, key, value, dist)
        return got
    if op == "delete":
        slot, got, dist = t.locate(args[0])
        if got is not None:
            t.remove_at(slot, dist)
        return got
    return getattr(t, op)(*args)


# Few distinct keys, so probe paths cross and tombstones pile up on them;
# the largest legal keys and values are among them.
_KEYS = hs.one_of(hs.integers(0, 15), hs.integers(KEY_LIMIT - 2, KEY_LIMIT - 1))
_VALUES = hs.one_of(hs.integers(0, VALUE_LIMIT - 1), hs.just(VALUE_LIMIT - 1))
_OPS = hs.lists(hs.one_of(
    hs.tuples(hs.just("insert"), _KEYS, _VALUES),
    hs.tuples(hs.just("find"), _KEYS),
    hs.tuples(hs.just("remove"), _KEYS),
    hs.tuples(hs.just("append"), _KEYS, _VALUES),
    hs.tuples(hs.just("delete"), _KEYS),
    hs.tuples(hs.just("rebuild"), hs.sampled_from([0.5, 1, 2])),
    hs.tuples(hs.just("bulk_load"), hs.lists(hs.tuples(_KEYS, hs.integers(0, 99)),
                                             max_size=6)),
), min_size=20, max_size=80)


def _assert_same(t, o):
    words = t._words.tolist()
    assert t.capacity_slots == o.cap
    # Every slot word is the sentinel or the packed (key, value) the oracle holds.
    assert words == [k if k in (EMPTY_KEY, TOMBSTONE_KEY) else k << 32 | v
                     for k, v in zip(o.keys, o.vals)]
    assert (t.live_count, t.tombstone_count) == (o.live, o.tomb)
    assert t.tombstone_count == words.count(TOMBSTONE_KEY)
    assert t.live_count + t.tombstone_count <= t.capacity_slots // 2
    assert t.stats.snapshot() == o.hist


@settings(max_examples=300, deadline=None)
# cap=8 is a one-line table: every key's walk starts on line 0.
@given(cap=hs.sampled_from([8, 16, 32, 64]), ops=_OPS)
# Key 12's path starts at the slots of 4 then 5: it must take 4's tombstone.
@example(cap=16, ops=[("insert", 4, 1), ("insert", 5, 2), ("remove", 4),
                      ("remove", 5), ("insert", 12, 3)])
# The same through the slot-level calls, and an append onto a full table.
@example(cap=16, ops=[("append", 4, 1), ("append", 5, 2), ("delete", 4),
                      ("delete", 5), ("append", 12, 3), ("append", 12, 4)]
         + [("append", k, k) for k in range(6, 16)])
# Key 12's first probe is 4's tombstone, so its walk runs past probe 1 and
# hits 12 at probe 2: locate(12) is (5, 2, 2).
@example(cap=16, ops=[("insert", 4, 1), ("insert", 12, 2), ("remove", 4),
                      ("find", 12), ("append", 12, 3), ("delete", 12)])
def test_table_matches_straight_line_oracle(cap, ops):
    t = CfhTable(cap)
    o = OracleTable(cap, LINE_WORDS)
    for op, *args in ops:
        if op == "rebuild":
            args = [max(LINE_WORDS, int(t.capacity_slots * args[0]))]
        outcomes = []
        for call in (lambda: table_call(t, op, args), lambda: getattr(o, op)(*args)):
            try:
                outcomes.append(("ok", call()))
            except CapacityError:
                outcomes.append(("raised", None))
        assert outcomes[0] == outcomes[1], (op, args)
        _assert_same(t, o)
    t.release()


def test_bulk_load_onto_tombstones_keeps_accounting_exact():
    # 4 live keys and 6 tombstones in 32 slots; loading 8 more keys must
    # reuse tombstones on their paths or purge, never leave more than half
    # the slots non-empty.
    t = CfhTable(32)
    o = OracleTable(32, 8)
    for target in (t, o):
        for k in range(10):
            target.insert(k, k)
        for k in range(6):
            target.remove(k)
        target.bulk_load((100 + k, k) for k in range(8))
    _assert_same(t, o)
    assert t.live_count == 12
    for k in list(range(6, 10)) + list(range(100, 108)):
        assert t.find(k) is not None
    t.release()

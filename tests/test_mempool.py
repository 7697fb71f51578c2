import os
import threading
from array import array

import numpy as np
import pytest

from graphtango import Config, TangoStore, core
from graphtango.mempool import (
    NULL,
    PAGE_BYTES,
    MemoryPool,
    PoolError,
    size_class,
)


def test_size_class():
    assert size_class(1) == 3
    assert size_class(8) == 3
    assert size_class(9) == 4
    assert size_class(16) == 4
    assert size_class(20) == 5
    assert size_class(4096) == 12
    assert size_class(1 << 48) == 48
    with pytest.raises(ValueError):
        size_class(0)
    with pytest.raises(ValueError):
        size_class((1 << 48) + 1)


def test_rounding_and_accounting(monkeypatch):
    monkeypatch.setattr(core, "BLOCK_BYTES", 1 << 20)
    pool = MemoryPool(debug=True)
    a = pool.allocate(20)
    s = pool.stats()
    assert s["bytes_in_use"] == 32
    assert s["bytes_reserved"] == 1 << 20
    assert s["num_blocks"] == 1
    b = pool.allocate(1)
    c = pool.allocate(9)
    assert pool.stats()["bytes_in_use"] == 32 + 8 + 16
    # blocks are carved per size class, so three classes hold three blocks
    assert pool.stats()["num_blocks"] == 3
    pool.deallocate(a, 20)
    pool.deallocate(b, 1)
    pool.deallocate(c, 9)
    assert pool.stats()["bytes_in_use"] == 0
    assert pool.stats()["bytes_reserved"] == 3 << 20


def test_never_returns_null(monkeypatch):
    monkeypatch.setattr(core, "BLOCK_BYTES", 1 << 16)
    pool = MemoryPool()
    addrs = [pool.allocate(8) for _ in range(5000)]
    assert NULL not in addrs
    assert len(set(addrs)) == len(addrs)


def test_lifo_reuse():
    pool = MemoryPool(debug=True)
    a = pool.allocate(64)
    pool.deallocate(a, 64)
    assert pool.allocate(64) == a
    b = pool.allocate(64)
    pool.deallocate(a, 64)
    pool.deallocate(b, 64)
    # freed last, handed out first
    assert pool.allocate(64) == b
    assert pool.allocate(64) == a


def test_classes_are_independent():
    pool = MemoryPool(debug=True)
    a = pool.allocate(64)
    b = pool.allocate(128)
    pool.deallocate(a, 64)
    c = pool.allocate(128)
    assert c != a
    pool.deallocate(b, 128)
    pool.deallocate(c, 128)


def test_oversized_chunk_gets_dedicated_block(monkeypatch):
    monkeypatch.setattr(core, "BLOCK_BYTES", 4 << 20)
    pool = MemoryPool(debug=True)
    small = pool.allocate(100)
    big = pool.allocate(5 << 20)  # rounds to 8 MiB, above the block size
    s = pool.stats()
    assert s["bytes_in_use"] == 128 + (8 << 20)
    assert s["bytes_reserved"] == (4 << 20) + (8 << 20)
    assert s["num_blocks"] == 2
    pool.deallocate(big, 5 << 20)
    assert pool.allocate(5 << 20) == big
    pool.deallocate(small, 100)


def test_views_share_memory():
    # A view is the chunk's memory, not a copy: the view of a chunk handed
    # out again reads what the earlier view wrote, bar word 0, which held
    # the free-list link in between.
    pool = MemoryPool()
    a, v1 = pool.allocate_words(32)
    v1[:] = array("Q", range(100, 132))
    pool.deallocate(a, 256)
    b, v2 = pool.allocate_words(32)
    assert b == a and v2[1:].tolist() == list(range(101, 132))
    assert len(pool.allocate_words(4)[1]) == 4


def _gather(pool, addrs):
    out = np.empty(len(addrs), dtype=np.uint64)
    pool.gather(addrs, out)
    return out


def test_gather_reads_words_across_blocks(monkeypatch):
    monkeypatch.setattr(core, "BLOCK_BYTES", PAGE_BYTES)
    pool = MemoryPool()
    chunks = [pool.allocate_words(8) for _ in range(3 * PAGE_BYTES // 64)]
    chunks.append(pool.allocate_words(16))  # a block of another class
    assert pool.stats()["num_blocks"] == 4
    words = {}
    for i, (c, view) in enumerate(chunks):
        view[:8] = array("Q", range(100 * i, 100 * i + 8))
        words.update({c + 8 * j: 100 * i + j for j in (0, 3, 7)})
    addrs = sorted(words)
    got = _gather(pool, np.array(addrs, dtype=np.int64))
    assert got.tolist() == [words[a] for a in addrs]
    # Blocks ascending, addresses in any order within a block.
    rng = np.random.default_rng(3)
    mixed = np.array(addrs, dtype=np.int64)
    for b in np.unique(mixed >> 48).tolist():
        run = mixed[mixed >> 48 == b]
        mixed[mixed >> 48 == b] = rng.permutation(run)
    assert not np.array_equal(mixed, addrs)
    assert _gather(pool, mixed).tolist() == [words[a] for a in mixed.tolist()]
    assert _gather(pool, np.empty(0, dtype=np.int64)).tolist() == []


def test_gather_writes_only_its_slice_and_checks_bounds(monkeypatch):
    monkeypatch.setattr(core, "BLOCK_BYTES", PAGE_BYTES)
    pool = MemoryPool()
    a, view = pool.allocate_words(4)
    b, _ = pool.allocate_words(512)  # a block of its own, one page long
    view[:] = array("Q", (2, 3, 5, 7))
    big = np.full(10, 99, dtype=np.uint64)
    pool.gather(np.arange(a, a + 32, 8), big[3:7])
    assert big.tolist() == [99, 99, 99, 2, 3, 5, 7, 99, 99, 99]
    with pytest.raises(IndexError):  # one word past the end of b's block
        pool.gather(np.array([b + PAGE_BYTES], dtype=np.int64), big[:1])
    with pytest.raises(IndexError):  # ... and of a's
        pool.gather(np.array([a + PAGE_BYTES], dtype=np.int64), big[:1])


def test_chunk_alignment():
    pool = MemoryPool(debug=True)
    for size in (8, 64, 128, 4096, 1 << 16):
        addr = pool.allocate(size)
        assert pool.real_pointer(addr) % min(size, PAGE_BYTES) == 0


def _vm_flags(ptr: int) -> list:
    """VmFlags of the mapping that holds machine address ptr (Linux)."""
    inside = False
    with open("/proc/self/smaps") as fh:
        for line in fh:
            head = line.split(maxsplit=1)[0]
            if "-" in head and not head.endswith(":"):
                lo, hi = (int(x, 16) for x in head.split("-"))
                inside = lo <= ptr < hi
            elif inside and head == "VmFlags:":
                return line.split()[1:]
    raise AssertionError(f"no mapping holds {ptr:#x}")


@pytest.mark.skipif(not os.path.exists("/proc/self/smaps"), reason="needs Linux smaps")
def test_blocks_are_not_marked_for_huge_pages():
    # A block marked for transparent huge pages (numpy marks every buffer
    # of 4 MiB or more) could make 2 MiB resident for its first chunk, or
    # 4 KiB, as the host has a free huge page or not.
    pool = MemoryPool()
    addr = pool.allocate(64)
    assert pool.stats()["bytes_reserved"] == 4 << 20
    assert "hg" not in _vm_flags(pool.real_pointer(addr))
    # A store's metadata lines: 4 MiB at this vertex count.
    meta = TangoStore(Config(), 65_536)._sides[0].meta
    assert meta.ctypes.data % PAGE_BYTES == 0 and meta.nbytes == 4 << 20
    assert "hg" not in _vm_flags(meta.ctypes.data)


def test_fresh_chunks_are_distinct_until_freed(monkeypatch):
    monkeypatch.setattr(core, "BLOCK_BYTES", 1 << 16)
    pool = MemoryPool(debug=True)
    seen = set()
    live = []
    for i in range(3000):
        a = pool.allocate(48)
        assert a not in seen
        seen.add(a)
        live.append(a)
        if i % 3 == 2:
            pool.deallocate(live.pop(), 48)
            seen.discard(a)


def test_address_sequence_across_two_blocks(monkeypatch):
    # Freed chunks come back first (LIFO), then never-used ones in ascending
    # order, and a second block is carved only when both run out. Carving
    # writes nothing, so a fresh block's pages stay untouched.
    monkeypatch.setattr(core, "BLOCK_BYTES", PAGE_BYTES)
    pool = MemoryPool(debug=True)
    per_block = PAGE_BYTES // 64
    b1, b2 = 1 << 48, 2 << 48
    got = [pool.allocate(64) for _ in range(10)]
    assert got == [b1 + 64 * i for i in range(10)]
    assert not pool._blocks[0].u64[80:].any()
    for a in (got[3], got[7], got[5]):
        pool.deallocate(a, 64)
    got = [pool.allocate(64) for _ in range(per_block - 7 + 2)]
    assert got[:3] == [b1 + 64 * 5, b1 + 64 * 7, b1 + 64 * 3]
    assert got[3:-2] == [b1 + 64 * i for i in range(10, per_block)]
    assert got[-2:] == [b2, b2 + 64]
    assert pool.stats()["num_blocks"] == 2
    assert not pool._blocks[1].u64.any()
    pool.deallocate(got[-1], 64)
    pool.deallocate(b1 + 64 * 20, 64)
    assert [pool.allocate(64) for _ in range(3)] == [b1 + 64 * 20, b2 + 64, b2 + 128]


def test_double_free_caught():
    pool = MemoryPool(debug=True)
    a = pool.allocate(64)
    pool.deallocate(a, 64)
    with pytest.raises(PoolError):
        pool.deallocate(a, 64)


def test_wild_free_caught():
    pool = MemoryPool(debug=True)
    a = pool.allocate(64)
    with pytest.raises(PoolError):
        pool.deallocate(a + 8, 8)


def test_size_mismatch_caught():
    pool = MemoryPool(debug=True)
    a = pool.allocate(64)
    with pytest.raises(PoolError):
        pool.deallocate(a, 128)


def test_foreign_thread_rejected():
    pool = MemoryPool(debug=True)
    pool.allocate(64)  # binds the pool to this thread
    err = []

    def use():
        try:
            pool.allocate(8)
        except PoolError as e:
            err.append(e)

    t = threading.Thread(target=use)
    t.start()
    t.join()
    assert len(err) == 1


def test_free_list_survives_heavy_churn(monkeypatch):
    monkeypatch.setattr(core, "BLOCK_BYTES", 1 << 16)
    pool = MemoryPool(debug=True)
    import random

    rng = random.Random(11)
    live = {}
    for _ in range(20000):
        if live and rng.random() < 0.45:
            addr, size = live.popitem()
            pool.deallocate(addr, size)
        else:
            size = rng.choice((8, 24, 64, 100, 512))
            live[pool.allocate(size)] = size
    expect = sum(1 << size_class(s) for s in live.values())
    assert pool.stats()["bytes_in_use"] == expect
    for addr, size in live.items():
        pool.deallocate(addr, size)
    assert pool.stats()["bytes_in_use"] == 0

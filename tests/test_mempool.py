import threading

import numpy as np
import pytest

from graphtango.mempool import (
    NULL,
    PAGE_BYTES,
    MemoryPool,
    PoolError,
    alloc_aligned,
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


def test_alloc_aligned():
    for size in (64, 100, 4096, 1 << 20):
        a = alloc_aligned(size)
        assert a.ctypes.data % PAGE_BYTES == 0
        assert len(a) == size
        a = alloc_aligned(size, alignment=64)
        assert a.ctypes.data % 64 == 0


def test_rounding_and_accounting():
    pool = MemoryPool(block_bytes=1 << 20, debug=True)
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
    pool.close()


def test_never_returns_null():
    pool = MemoryPool(block_bytes=1 << 16)
    addrs = [pool.allocate(8) for _ in range(5000)]
    assert NULL not in addrs
    assert len(set(addrs)) == len(addrs)
    pool.close()


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
    pool.close()


def test_classes_are_independent():
    pool = MemoryPool(debug=True)
    a = pool.allocate(64)
    b = pool.allocate(128)
    pool.deallocate(a, 64)
    c = pool.allocate(128)
    assert c != a
    pool.deallocate(b, 128)
    pool.deallocate(c, 128)
    pool.close()


def test_oversized_chunk_gets_dedicated_block():
    pool = MemoryPool(block_bytes=4 << 20, debug=True)
    small = pool.allocate(100)
    big = pool.allocate(5 << 20)  # rounds to 8 MiB, above block_bytes
    s = pool.stats()
    assert s["bytes_in_use"] == 128 + (8 << 20)
    assert s["bytes_reserved"] == (4 << 20) + (8 << 20)
    assert s["num_blocks"] == 2
    pool.deallocate(big, 5 << 20)
    assert pool.allocate(5 << 20) == big
    pool.deallocate(small, 100)
    pool.close()


def test_views_share_memory():
    pool = MemoryPool()
    a = pool.allocate(256)
    v1 = pool.u64_view(a, 32)
    v2 = pool.u64_view(a, 32)
    v1[:] = np.arange(32, dtype=np.uint64)
    assert np.array_equal(v2, np.arange(32, dtype=np.uint64))
    assert len(pool.u64_view(a, 4)) == 4
    pool.close()


def test_gather_reads_words_across_blocks():
    pool = MemoryPool(block_bytes=PAGE_BYTES)
    chunks = [pool.allocate(64) for _ in range(3 * PAGE_BYTES // 64)]
    chunks.append(pool.allocate(128))  # a block of another class
    assert pool.stats()["num_blocks"] == 4
    words = {}
    for i, c in enumerate(chunks):
        pool.u64_view(c, 8)[:] = np.arange(8, dtype=np.uint64) + 100 * i
        words.update({c + 8 * j: 100 * i + j for j in (0, 3, 7)})
    addrs = sorted(words)
    got = pool.gather(np.array(addrs, dtype=np.int64))
    assert got.dtype == np.uint64 and got.tolist() == [words[a] for a in addrs]
    assert pool.gather(np.empty(0, dtype=np.int64)).tolist() == []
    pool.close()


def test_chunk_alignment():
    pool = MemoryPool(debug=True)
    for size in (8, 64, 128, 4096, 1 << 16):
        addr = pool.allocate(size)
        assert pool.real_pointer(addr) % min(size, PAGE_BYTES) == 0
    pool.close()


def test_fresh_chunks_are_distinct_until_freed():
    pool = MemoryPool(block_bytes=1 << 16, debug=True)
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
    pool.close()


def test_address_sequence_across_two_blocks():
    # Freed chunks come back first (LIFO), then never-used ones in ascending
    # order, and a second block is carved only when both run out. Carving
    # writes nothing, so a fresh block's pages stay untouched.
    pool = MemoryPool(block_bytes=PAGE_BYTES, debug=True)
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
    pool.close()


def test_double_free_caught():
    pool = MemoryPool(debug=True)
    a = pool.allocate(64)
    pool.deallocate(a, 64)
    with pytest.raises(PoolError):
        pool.deallocate(a, 64)
    pool.close()


def test_wild_free_caught():
    pool = MemoryPool(debug=True)
    a = pool.allocate(64)
    with pytest.raises(PoolError):
        pool.deallocate(a + 8, 8)
    pool.close()


def test_size_mismatch_caught():
    pool = MemoryPool(debug=True)
    a = pool.allocate(64)
    with pytest.raises(PoolError):
        pool.deallocate(a, 128)
    pool.close()


def test_use_after_close():
    pool = MemoryPool()
    a = pool.allocate(64)
    pool.close()
    with pytest.raises(PoolError):
        pool.allocate(8)
    with pytest.raises(PoolError):
        pool.deallocate(a, 64)


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
    pool.close()


def test_free_list_survives_heavy_churn():
    pool = MemoryPool(block_bytes=1 << 16, debug=True)
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
    pool.close()

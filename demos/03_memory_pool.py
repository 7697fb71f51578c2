"""Free-list pool: size-class rounding, LIFO reuse, and live accounting."""

from array import array

from graphtango import MemoryPool
from graphtango.mempool import ADDR_SHIFT, OFF_MASK, size_class


def main():
    pool = MemoryPool()

    print("request -> chunk size")
    for sz in (1, 8, 9, 24, 32, 100, 4096):
        k = size_class(sz)
        print(f"  {sz:5d} -> {1 << k:5d} bytes (class {k})")
    print()

    # freed chunks come back most-recently-freed first, per class
    a = pool.allocate(32)
    b = pool.allocate(32)
    pool.deallocate(a, 32)
    pool.deallocate(b, 32)
    c = pool.allocate(32)
    d = pool.allocate(32)
    print(f"alloc a={a:#x} b={b:#x}, free a then b, "
          f"alloc again -> {c:#x} (b), {d:#x} (a)")
    assert (c, d) == (b, a)

    e = pool.allocate(64)
    print(f"a different class allocates fresh: {e:#x}")
    assert e not in (a, b)

    # a handle is block << ADDR_SHIFT | byte offset into one of the pool's
    # blocks; a chunk's view writes straight into that block's words
    f, view = pool.allocate_words(4)
    view[:] = array("Q", (2, 3, 5, 7))
    block = pool.blocks[(f >> ADDR_SHIFT) - 1]
    word = (f & OFF_MASK) >> 3
    words = block.u64[word:word + 4].tolist()
    print(f"allocate_words(4) -> {f:#x}, block words after write: {words}")
    assert words == [2, 3, 5, 7]

    s = pool.stats()
    print(f"bytes_in_use={s['bytes_in_use']}, reserved={s['bytes_reserved']}, "
          f"backing blocks={s['num_blocks']}")
    for addr, sz in ((c, 32), (d, 32), (e, 64), (f, 32)):
        pool.deallocate(addr, sz)
    print(f"after freeing everything: bytes_in_use={pool.stats()['bytes_in_use']}")


if __name__ == "__main__":
    main()

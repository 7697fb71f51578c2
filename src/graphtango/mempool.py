"""Power-of-two free-list memory pool over page-aligned blocks.

The pool hands out chunks of 2**k bytes (k in [3, 48]) carved from large
page-aligned blocks, each a private anonymous memory mapping. Freed chunks
of each class form an intrusive LIFO list: the first 8 bytes of a free
chunk hold the virtual address of the next free chunk, so the pool itself
keeps no per-chunk headers and both allocate and free are a couple of loads
and stores. When that list is empty, a bump pointer hands out the class's
never-used chunks from the front of its newest block in ascending order, so
a fresh block's pages stay untouched (and unfaulted) until its chunks are
first used.

Chunk handles are integers in a per-pool virtual address space: block b
(1-based) covers [b << 48, b << 48 | block_size). Address 0 is the null
handle. Because blocks are page-aligned and chunks are naturally aligned
within their block, a chunk handle of class k is aligned to min(2**k, page)
bytes in real memory as well.

Intended use is one pool per worker thread. The pool binds to the first
thread that allocates from it and, in debug mode, asserts that every later
call comes from that thread.
"""

from __future__ import annotations

import mmap
import threading

import numpy as np

from . import core

MIN_CLASS = 3
MAX_CLASS = 48
NULL = 0

_ADDR_SHIFT = 48
_OFF_MASK = (1 << _ADDR_SHIFT) - 1

PAGE_BYTES = 4096


class PoolError(RuntimeError):
    """Misuse of the pool caught by the debug shadow allocator."""


def size_class(size: int) -> int:
    """Size class k for a request: smallest k with 2**k >= max(size, 8).

    Computed from the bit length of size-1, the shift-only equivalent of
    count-leading-zeros.

    >>> size_class(20)
    5
    >>> size_class(8)
    3
    """
    if size <= 0:
        raise ValueError("allocation size must be positive")
    if size > 1 << MAX_CLASS:
        raise ValueError(f"allocation of {size} B exceeds max chunk 2**{MAX_CLASS}")
    k = (size - 1).bit_length()
    return MIN_CLASS if k < MIN_CLASS else k


def map_words(nbytes: int) -> tuple[np.ndarray, memoryview]:
    """nbytes of zeroed, page-aligned memory as a uint64 array and a 'Q'
    memoryview of the same words.

    The memory is a private anonymous mapping, resident only in the pages
    that have been touched. A numpy buffer would not do: numpy marks buffers
    of 4 MiB or more for transparent huge pages, so one touched word could
    make 2 MiB resident or 4 KiB, as the host has a free huge page or not.
    mmap refuses length 0, so at least one page is mapped. The array and
    the view keep the mapping alive; it is unmapped when both are gone.
    """
    buf = mmap.mmap(-1, max(nbytes, PAGE_BYTES), flags=mmap.MAP_PRIVATE)
    n = nbytes >> 3
    return np.frombuffer(buf, dtype=np.uint64, count=n), memoryview(buf).cast("Q")[:n]


class _Block:
    # mv aliases the same words as u64; free-list link words and the views
    # allocate_words hands out go through it because a memoryview scalar is
    # about half the cost of a numpy one.
    __slots__ = ("u64", "mv", "shadow", "klass")

    def __init__(self, size: int, klass: int, debug: bool):
        self.u64, self.mv = map_words(size)
        self.klass = klass
        self.shadow = np.zeros(size >> 3, dtype=bool) if debug else None


class MemoryPool:
    """Free-list allocator for one worker thread.

    allocate() rounds the request up to a power of two and pops the head of
    that class's free list. When the list is empty it takes the next
    never-used chunk of the class's newest block, and carves a fresh block
    of max(core.BLOCK_BYTES, chunk_size) when there is none: the block size
    is fixed geometry, read at each carve, not a pool option. deallocate()
    takes the original request size back and pushes the chunk, so a
    matching size on free is part of the contract (debug mode verifies it).
    Blocks are only released when the pool is garbage collected.
    """

    def __init__(self, debug: bool = False):
        self.debug = debug
        self.bytes_in_use = 0
        self.bytes_reserved = 0
        self._free_heads = [NULL] * (MAX_CLASS + 1)
        # Per class: the next never-used chunk of its newest block, and that
        # block's end. Equal (NULL at first) when the class has none left.
        self._fresh = [NULL] * (MAX_CLASS + 1)
        self._fresh_end = [NULL] * (MAX_CLASS + 1)
        self._blocks: list[_Block] = []
        self._live: dict[int, int] = {}  # addr -> class, debug only
        self._owner: int | None = None

    # -- internals ---------------------------------------------------------

    def _block_of(self, addr: int) -> _Block:
        return self._blocks[(addr >> _ADDR_SHIFT) - 1]

    def _carve(self, k: int) -> int:
        """Add a block for class k and return its first chunk's address.

        Nothing is written to the block: its chunks are handed out by the
        bump pointer, so its pages are first touched by their first user.
        """
        bsize = max(1 << k, core.BLOCK_BYTES)
        self._blocks.append(_Block(bsize, k, self.debug))
        base = len(self._blocks) << _ADDR_SHIFT
        self._fresh_end[k] = base + bsize
        self.bytes_reserved += bsize
        return base

    def _check_thread(self) -> None:
        ident = threading.get_ident()
        if self._owner is None:
            self._owner = ident
        elif self._owner != ident:
            raise PoolError("pool used from a thread other than its owner")

    # -- public API --------------------------------------------------------

    def allocate(self, size: int) -> int:
        """Return the virtual address of a chunk of 2**size_class(size) bytes."""
        k = size_class(size)
        heads = self._free_heads
        addr = heads[k]
        if addr:
            block = self._blocks[(addr >> _ADDR_SHIFT) - 1]
            heads[k] = block.mv[(addr & _OFF_MASK) >> 3]
        else:
            fresh = self._fresh
            addr = fresh[k]
            if addr == self._fresh_end[k]:
                addr = self._carve(k)
            fresh[k] = addr + (1 << k)
        self.bytes_in_use += 1 << k
        if self.debug:
            self._check_thread()
            self._debug_alloc(addr, k)
        return addr

    def allocate_words(self, nwords: int) -> tuple[int, memoryview]:
        """allocate(8 * nwords), returned with a 'Q' memoryview of the chunk's
        first nwords words: the handle for the owner's records, the view for
        every later read and write of the words."""
        addr = self.allocate(nwords << 3)
        word = (addr & _OFF_MASK) >> 3
        return addr, self._blocks[(addr >> _ADDR_SHIFT) - 1].mv[word:word + nwords]

    def deallocate(self, addr: int, size: int) -> None:
        """Return a chunk to its free list; size must match the allocation."""
        k = size_class(size)
        block = self._blocks[(addr >> _ADDR_SHIFT) - 1]
        word = (addr & _OFF_MASK) >> 3
        if self.debug:
            self._check_thread()
            self._debug_free(addr, k, block, word)
        block.mv[word] = self._free_heads[k]
        self._free_heads[k] = addr
        self.bytes_in_use -= 1 << k

    def gather(self, addrs: np.ndarray, out: np.ndarray) -> None:
        """Write the uint64 word at each byte address in addrs into out, a
        uint64 array (or slice) of the same length. addrs is an int64 array
        whose addresses come grouped by block in ascending block order, in
        any order within a block.

        The vectorized read of words that allocate_words views one chunk at a
        time. Every address of block b - 1 lies below b << 48, so a binary
        search for those bounds splits addrs into one run per block, and one
        bounds-checked np.take reads each run; an address past its block's
        end raises IndexError.
        """
        ends = np.searchsorted(addrs, np.arange(2, len(self._blocks) + 2) << _ADDR_SHIFT)
        lo = 0
        for block, hi in zip(self._blocks, ends.tolist()):
            if hi > lo:
                words = addrs[lo:hi] & _OFF_MASK
                words >>= 3
                out[lo:hi] = np.take(block.u64, words)
            lo = hi

    def real_pointer(self, addr: int) -> int:
        """Machine address of a chunk, for alignment checks."""
        block = self._block_of(addr)
        return block.u64.ctypes.data + (addr & _OFF_MASK)

    def stats(self) -> dict:
        return {
            "bytes_in_use": self.bytes_in_use,
            "bytes_reserved": self.bytes_reserved,
            "num_blocks": len(self._blocks),
        }

    # -- debug shadow allocator ---------------------------------------------

    def _debug_alloc(self, addr: int, k: int) -> None:
        block, word = self._block_of(addr), (addr & _OFF_MASK) >> 3
        if block.klass != k:
            raise PoolError(f"chunk of class {k} handed out from a class-{block.klass} block")
        if addr & ((1 << k) - 1) & _OFF_MASK:
            raise PoolError(f"chunk {addr:#x} not aligned to its 2**{k} B class")
        span = block.shadow[word:word + (1 << max(k - 3, 0))]
        if span.any():
            raise PoolError(f"overlap: chunk {addr:#x} intersects live memory")
        span[:] = True
        self._live[addr] = k

    def _debug_free(self, addr: int, k: int, block: _Block, word: int) -> None:
        got = self._live.pop(addr, None)
        if got is None:
            raise PoolError(f"double free or wild free of {addr:#x}")
        if got != k:
            raise PoolError(f"size mismatch on free of {addr:#x}: class {got} freed as {k}")
        span = block.shadow[word:word + (1 << max(k - 3, 0))]
        if not span.all():
            raise PoolError(f"shadow corruption at {addr:#x}")
        span[:] = False

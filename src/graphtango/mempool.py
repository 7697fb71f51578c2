"""Power-of-two free-list memory pool over page-aligned blocks.

The pool hands out chunks of 2**k bytes (k in [3, 48]) carved from large
page-aligned blocks. Freed chunks of each class form an intrusive LIFO list:
the first 8 bytes of a free chunk hold the virtual address of the next free
chunk, so the pool itself keeps no per-chunk headers and both allocate and
free are a couple of loads and stores. When that list is empty, a bump
pointer hands out the class's never-used chunks from the front of its newest
block in ascending order, so a fresh block's pages stay untouched (and
unfaulted) until its chunks are first used.

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

import threading

import numpy as np

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


def alloc_aligned(size: int, alignment: int = PAGE_BYTES) -> np.ndarray:
    """Zeroed uint8 array of `size` bytes whose data pointer is aligned.

    numpy gives no alignment promises, so over-allocate and slice; the view
    keeps the backing buffer alive.
    """
    raw = np.zeros(size + alignment, dtype=np.uint8)
    shift = (-raw.ctypes.data) % alignment
    return raw[shift:shift + size]


class _Block:
    # mv aliases the same buffer as u64; free-list link words and the views
    # allocate_words hands out go through it because a memoryview scalar is
    # about half the cost of a numpy one.
    __slots__ = ("bytes8", "u64", "mv", "shadow", "klass")

    def __init__(self, size: int, klass: int, debug: bool):
        self.bytes8 = alloc_aligned(size)
        self.u64 = self.bytes8.view(np.uint64)
        self.mv = memoryview(self.bytes8).cast("Q")
        self.klass = klass
        self.shadow = np.zeros(size >> 3, dtype=bool) if debug else None


class MemoryPool:
    """Free-list allocator for one worker thread.

    allocate() rounds the request up to a power of two and pops the head of
    that class's free list. When the list is empty it takes the next
    never-used chunk of the class's newest block, and carves a fresh block
    of max(block_bytes, chunk_size) when there is none. deallocate() takes
    the original request size back and pushes the chunk, so a matching size
    on free is part of the contract (debug mode verifies it). Blocks are
    only released when the pool is closed or garbage collected.
    """

    def __init__(self, block_bytes: int = 4 * 1024 * 1024, debug: bool = False):
        if block_bytes < PAGE_BYTES or block_bytes & (block_bytes - 1):
            raise ValueError("block_bytes must be a power of two >= 4096")
        self.block_bytes = block_bytes
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
        self._closed = False

    # -- internals ---------------------------------------------------------

    def _block_of(self, addr: int) -> _Block:
        return self._blocks[(addr >> _ADDR_SHIFT) - 1]

    def _carve(self, k: int) -> int:
        """Add a block for class k and return its first chunk's address.

        Nothing is written to the block: its chunks are handed out by the
        bump pointer, so its pages are first touched by their first user.
        """
        csize = 1 << k
        bsize = csize if csize > self.block_bytes else self.block_bytes
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
        if self._closed:
            raise PoolError("pool is closed")
        # size_class(), unrolled: this is the hottest call in the store.
        if size <= 0:
            raise ValueError("allocation size must be positive")
        k = (size - 1).bit_length()
        if k < MIN_CLASS:
            k = MIN_CLASS
        elif k > MAX_CLASS:
            raise ValueError(f"allocation of {size} B exceeds max chunk 2**{MAX_CLASS}")
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
        if self._closed:
            raise PoolError("pool is closed")
        if size <= 0:
            raise ValueError("allocation size must be positive")
        k = (size - 1).bit_length()
        if k < MIN_CLASS:
            k = MIN_CLASS
        elif k > MAX_CLASS:
            raise ValueError(f"allocation of {size} B exceeds max chunk 2**{MAX_CLASS}")
        block = self._blocks[(addr >> _ADDR_SHIFT) - 1]
        word = (addr & _OFF_MASK) >> 3
        if self.debug:
            self._check_thread()
            self._debug_free(addr, k, block, word)
        block.mv[word] = self._free_heads[k]
        self._free_heads[k] = addr
        self.bytes_in_use -= 1 << k

    def u64_view(self, addr: int, nwords: int) -> np.ndarray:
        """uint64 view of nwords words starting at a chunk address."""
        block = self._blocks[(addr >> _ADDR_SHIFT) - 1]
        word = (addr & _OFF_MASK) >> 3
        return block.u64[word:word + nwords]

    def gather(self, addrs: np.ndarray) -> np.ndarray:
        """uint64 word at each byte address in addrs, an ascending int64 array.

        The vectorized counterpart of u64_view. Ascending addresses come
        grouped by block, so each block serves one run with one numpy gather.
        """
        ends = np.searchsorted(addrs, np.arange(2, len(self._blocks) + 2) << _ADDR_SHIFT)
        out = np.empty(len(addrs), dtype=np.uint64)
        lo = 0
        for block, hi in zip(self._blocks, ends.tolist()):
            if hi > lo:
                words = addrs[lo:hi] & _OFF_MASK
                words >>= 3
                np.take(block.u64, words, out=out[lo:hi])
            lo = hi
        return out

    def real_pointer(self, addr: int) -> int:
        """Machine address of a chunk, for alignment checks."""
        block = self._block_of(addr)
        return block.bytes8.ctypes.data + (addr & _OFF_MASK)

    def stats(self) -> dict:
        return {
            "bytes_in_use": self.bytes_in_use,
            "bytes_reserved": self.bytes_reserved,
            "num_blocks": len(self._blocks),
        }

    def close(self) -> None:
        """Drop every block. A chunk view still held keeps its block's memory
        alive, but the pool no longer hands that memory out."""
        self._blocks.clear()
        self._free_heads = [NULL] * (MAX_CLASS + 1)
        self._fresh = [NULL] * (MAX_CLASS + 1)
        self._fresh_end = [NULL] * (MAX_CLASS + 1)
        self.bytes_in_use = 0
        self.bytes_reserved = 0
        self._live.clear()
        self._closed = True

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

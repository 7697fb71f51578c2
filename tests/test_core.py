import doctest

import numpy as np
import pytest

import graphtango
from graphtango import mempool
from graphtango.core import (
    CACHE_LINE_BYTES,
    Config,
    ConfigError,
    partition_of,
)


def test_module_doctests_pass():
    # pytest collects only tests/ and perfbench/, so the examples in
    # mempool.size_class run here.
    result = doctest.testmod(mempool)
    assert (result.failed, result.attempted) == (0, 2)


def test_partition_of():
    assert partition_of(0, 4) == 0
    assert partition_of(511, 4) == 0
    assert partition_of(512, 4) == 1
    assert partition_of(2047, 4) == 3
    assert partition_of(2048, 4) == 0
    assert partition_of(123456, 1) == 0
    # contiguous runs of PARTITION_SIZE ids share an owner
    assert len({partition_of(v, 8) for v in range(512)}) == 1
    assert partition_of(np.array([0, 511, 512, 1536]), 2).tolist() == [0, 0, 1, 1]


def test_config_defaults():
    # 64-byte line, 8-byte degree word: 7 unweighted or 3 weighted edges inline
    cfg = Config()
    assert cfg.th0 == 7
    assert cfg.th1 == 32
    assert cfg.edge_bytes == 8
    w = Config(weighted=True)
    assert w.th0 == 3
    assert w.edge_bytes == 16


def test_config_validation():
    with pytest.raises(ConfigError):
        Config(th1=7)  # not a power of two
    with pytest.raises(ConfigError):
        Config(th1=4)  # not above th0=7
    Config(th1=8)  # smallest legal unweighted th1
    Config(weighted=True, th1=4)  # smallest legal weighted th1
    with pytest.raises(ConfigError):
        Config(weighted=True, th1=2)


def test_config_fixes_the_geometry():
    # Only weights, direction and th1 are settable; the line is 64 bytes.
    for knob in (dict(cache_line_bytes=32), dict(partition_size=8), dict(block_bytes=4096)):
        with pytest.raises(TypeError):
            Config(**knob)
    with pytest.raises(TypeError):  # the pool's block size is core.BLOCK_BYTES alone
        mempool.MemoryPool(block_bytes=4096)
    assert Config.cache_line_bytes == CACHE_LINE_BYTES == 64
    assert Config(weighted=True).cache_line_bytes == 64



def test_star_import_resolves_every_export():
    # A name deleted from its module but left in __all__ breaks this import.
    names = {}
    exec("from graphtango import *", names)
    assert all(name in names for name in graphtango.__all__)

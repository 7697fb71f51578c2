import doctest

import numpy as np
import pytest

from graphtango import core, mempool
from graphtango.core import (
    CACHE_LINE_BYTES,
    Config,
    ConfigError,
    compute_th0,
    next_pow2,
    partition_of,
)


def test_next_pow2():
    assert next_pow2(1) == 1
    assert next_pow2(2) == 2
    assert next_pow2(3) == 4
    assert next_pow2(7) == 8
    assert next_pow2(8) == 8
    assert next_pow2(9) == 16
    assert next_pow2(1 << 20) == 1 << 20
    with pytest.raises(ValueError):
        next_pow2(0)


def test_module_doctests_pass():
    # pytest collects only tests/ and perfbench/, so the examples in
    # core.next_pow2 and mempool.size_class run here.
    for module in (core, mempool):
        result = doctest.testmod(module)
        assert (result.failed, result.attempted) == (0, 2), module.__name__


def test_th0_values():
    # 64-byte line, 8-byte degree word: 7 unweighted or 3 weighted edges inline
    assert compute_th0(64, 8) == 7
    assert compute_th0(64, 16) == 3
    assert compute_th0(128, 8) == 15
    assert compute_th0(128, 16) == 7
    assert compute_th0(32, 8) == 3
    with pytest.raises(ConfigError):
        compute_th0(16, 16)  # degree word leaves no room for an edge


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
    assert Config.cache_line_bytes == CACHE_LINE_BYTES == 64
    assert Config(weighted=True).cache_line_bytes == 64


def test_config_th0_follows_line_size():
    assert compute_th0(128, 8) == 15
    assert compute_th0(128, 16) == 7

"""Shared infrastructure: address arithmetic, configuration, statistics.

:mod:`repro.common.httpd`, the HTTP listener behind ``repro serve`` and
``--metrics-port``, is not imported here: only its servers load it.
"""

from repro.common.address import (
    ASID_BITS,
    ASID_MAX,
    BLOCK_SIZE,
    PAGE_SHIFT,
    PAGE_SIZE,
    PA_BITS,
    PA_MASK,
    VA_BITS,
    VA_MASK,
    align_down,
    align_up,
    block_number,
    is_physical_key,
    key_asid,
    key_block_address,
    page_base,
    page_number,
    page_offset,
    physical_block_key,
    virtual_block_key,
    virtual_page_key,
)
from repro.common.params import (
    CacheConfig,
    CoreConfig,
    DramConfig,
    SegmentTranslationConfig,
    SynonymFilterConfig,
    SystemConfig,
    TlbConfig,
    WalkerConfig,
)
from repro.common.rng import make_rng, zipf_sampler
from repro.common.stats import StatGroup, StatRegistry, format_table, mpki

__all__ = [
    "ASID_BITS",
    "ASID_MAX",
    "BLOCK_SIZE",
    "PAGE_SHIFT",
    "PAGE_SIZE",
    "PA_BITS",
    "PA_MASK",
    "VA_BITS",
    "VA_MASK",
    "align_down",
    "align_up",
    "block_number",
    "is_physical_key",
    "key_asid",
    "key_block_address",
    "page_base",
    "page_number",
    "page_offset",
    "physical_block_key",
    "virtual_block_key",
    "virtual_page_key",
    "CacheConfig",
    "CoreConfig",
    "DramConfig",
    "SegmentTranslationConfig",
    "SynonymFilterConfig",
    "SystemConfig",
    "TlbConfig",
    "WalkerConfig",
    "make_rng",
    "zipf_sampler",
    "StatGroup",
    "StatRegistry",
    "format_table",
    "mpki",
]

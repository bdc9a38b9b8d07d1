"""Hardware structures for scalable delayed segment translation.

The prior schemes' range structures (:mod:`repro.segtrans.rmm`) are
imported by module path.
"""

from repro.segtrans.index_cache import IndexCache
from repro.segtrans.many_segment import ManySegmentTranslator
from repro.segtrans.segment_cache import SegmentCache, SegmentCacheEntry
from repro.segtrans.segment_table import HwSegmentTable

__all__ = [
    "IndexCache",
    "ManySegmentTranslator",
    "SegmentCache",
    "SegmentCacheEntry",
    "HwSegmentTable",
]

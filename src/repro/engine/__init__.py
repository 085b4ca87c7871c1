"""Unified filtering engine: registry, vectorized execution, cascades.

This package is the single entry point for running *any* of the six
pre-alignment filters (GateKeeper, GateKeeper-GPU, SHD, MAGNET, Shouji,
SneakySnake) through the batched, device-split, timing-modelled pipeline.
``filter_encoded`` on an encoded pair batch is the one filtering method of
both classes, and a :class:`FilterEngine` is a one-stage cascade: both run
one stage walk and return one :class:`~repro.core.results.FilterRunResult`
with one :class:`CascadeStageAccount` per stage reached:

>>> from repro.engine import FilterEngine, FilterCascade, available_filters
>>> from repro.genomics.encoding import EncodedPairBatch
>>> available_filters()
['gatekeeper-gpu', 'gatekeeper', 'shd', 'magnet', 'shouji', 'sneakysnake']
>>> engine = FilterEngine("shouji", read_length=100, error_threshold=5)
>>> pairs = EncodedPairBatch.from_lists(reads, segments)   # doctest: +SKIP
>>> result = engine.filter_encoded(pairs)                  # doctest: +SKIP
>>> cascade = FilterCascade.from_names(
...     ["gatekeeper-gpu", "sneakysnake"], read_length=100, error_threshold=5
... )
"""

from ..core.results import CascadeStageAccount
from .cascade import FilterCascade
from .engine import FilterEngine
from .registry import (
    available_filters,
    get_filter,
    get_filter_class,
    register_filter,
    resolve_filter,
)

__all__ = [
    "CascadeStageAccount",
    "FilterCascade",
    "FilterEngine",
    "available_filters",
    "get_filter",
    "get_filter_class",
    "register_filter",
    "resolve_filter",
]

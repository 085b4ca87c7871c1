"""mrFAST-like short read mapper substrate."""

from .index import KmerIndex
from .mrfast import MappingRunResult, MrFastMapper
from .sam import SamRecord, write_sam
from .seeding import Seeder
from .stats import MappingStats, MappingTimes

__all__ = [
    "KmerIndex",
    "MappingRunResult",
    "MrFastMapper",
    "SamRecord",
    "write_sam",
    "Seeder",
    "MappingStats",
    "MappingTimes",
]

"""Single source of truth for the package-wide default parameters.

Every default that used to be duplicated across ``repro.core.config``,
``repro.core.pipeline``, ``repro.simulate.datasets``, the CLI argument
parsers and the streaming runtime lives here, once.  The *public* home of
these constants is :mod:`repro.api.defaults`; this private module exists so
that low-level packages (``repro.core``, ``repro.simulate``, ...) can import
the values without importing :mod:`repro.api` (which sits above them in the
layering and would create an import cycle).

Nothing in this module may import from ``repro``.
"""

from __future__ import annotations

#: Read length of the paper's primary data sets (bp); the compile-time
#: default of the simulated CUDA kernel and of the mapping CLI.
DEFAULT_READ_LENGTH = 100

#: Edit-distance threshold ``e`` used by the paper's headline experiments.
DEFAULT_ERROR_THRESHOLD = 5

#: Upper bound on filtrations per kernel call (Table 1's best value) — the
#: ``max_reads_per_batch`` of :class:`repro.core.config.SystemConfiguration`.
DEFAULT_BATCH_SIZE = 100_000

#: Pairs per chunk of the streaming runtime (peak memory is O(chunk)).
DEFAULT_CHUNK_SIZE = 100_000

#: Default pool size for scaled-down experiments (paper: 30,000,000).
DEFAULT_N_PAIRS = 3_000

#: Calibrated cost of verifying one candidate pair with the banded DP
#: verifier on the paper's host (seconds); scales verification times to
#: data-set sizes that are not actually executed.
VERIFICATION_COST_PER_PAIR_S = 314.0e-9

#: Seed k-mer length of the mapper index used to propose candidate pairs.
DEFAULT_SEEDING_K = 12

#: Longest seed k-mer the mapper index takes: 2 bits per base fill a uint64 key.
MAX_SEEDING_K = 32

#: Cap on candidate locations per read when seeding real read files.
DEFAULT_MAX_CANDIDATES_PER_READ = 2_048

#: Calibrated per-pair filtration cost of each registered filter (seconds per
#: 100 bp pair), derived from the throughputs the encode-once benchmark
#: script (retired in 11.0.0) measured on the reference host before the
#: word-major kernels (reads/s at 20,000 pairs, e=5).  Like
#: :data:`VERIFICATION_COST_PER_PAIR_S` these are deterministic model
#: constants, not measurements taken at run time: the adaptive planner
#: (:mod:`repro.planner`) combines them with the *measured* per-filter
#: accept rates of a probe prefix, so the chosen plan is byte-identical
#: across hosts, backends and worker counts.
FILTER_COST_PER_PAIR_S: "dict[str, float]" = {
    "gatekeeper-gpu": 4.028e-6,   # 248,283 reads/s
    "gatekeeper": 3.915e-6,       # 255,416 reads/s
    "shd": 5.032e-6,              # 198,711 reads/s
    "magnet": 31.482e-6,          # 31,764 reads/s
    "shouji": 2.738e-6,           # 365,172 reads/s
    "sneakysnake": 22.658e-6,     # 44,135 reads/s
}

#: Probe prefix size of the adaptive cascade planner (``filter = "auto"``).
DEFAULT_PLANNER_SAMPLE_PAIRS = 2_048

#: Planner false-accept budget: the accept-rate excess (as a fraction of the
#: probe) a candidate cascade may show over the tightest candidate and still
#: be admissible.
DEFAULT_PLANNER_FALSE_ACCEPT_BUDGET = 0.01

#: Longest candidate cascade the planner searches by default.
DEFAULT_PLANNER_MAX_STAGES = 2

__all__ = [
    "DEFAULT_READ_LENGTH",
    "DEFAULT_ERROR_THRESHOLD",
    "DEFAULT_BATCH_SIZE",
    "DEFAULT_CHUNK_SIZE",
    "DEFAULT_N_PAIRS",
    "VERIFICATION_COST_PER_PAIR_S",
    "DEFAULT_SEEDING_K",
    "DEFAULT_MAX_CANDIDATES_PER_READ",
    "FILTER_COST_PER_PAIR_S",
    "DEFAULT_PLANNER_SAMPLE_PAIRS",
    "DEFAULT_PLANNER_FALSE_ACCEPT_BUDGET",
    "DEFAULT_PLANNER_MAX_STAGES",
]

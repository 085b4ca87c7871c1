"""Declarative workload specification: *what* to run, independent of *how*.

A :class:`Workload` is a typed, validated description of one filtering (or
mapping) job: where the candidate pairs come from, which filter or cascade
examines them at which threshold, how the run executes (in memory or
streamed, device count, chunking) and what the report should contain.  It is
the single input type of :meth:`repro.api.Session.run`, and every CLI entry
point is a thin translation from flags to a ``Workload``.

Workloads load from TOML or JSON files (``Workload.from_file``) and from
plain dictionaries; validation errors are :class:`ValueError` with messages
that name the offending field (``workload.input.kind: ...``).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Mapping, Sequence

from .. import _schema as K
from .._defaults import (
    DEFAULT_BATCH_SIZE,
    DEFAULT_CHUNK_SIZE,
    DEFAULT_ERROR_THRESHOLD,
    DEFAULT_MAX_CANDIDATES_PER_READ,
    DEFAULT_N_PAIRS,
    DEFAULT_PLANNER_FALSE_ACCEPT_BUDGET,
    DEFAULT_PLANNER_MAX_STAGES,
    DEFAULT_PLANNER_SAMPLE_PAIRS,
    DEFAULT_READ_LENGTH,
    DEFAULT_SEEDING_K,
    MAX_SEEDING_K,
)

__all__ = [
    "InputSpec",
    "FilterSpec",
    "PlannerSpec",
    "ExecutionSpec",
    "ShardSpec",
    "OutputSpec",
    "Workload",
    "INPUT_KINDS",
    "EXECUTION_MODES",
]

#: Candidate-pair sources a workload can declare.
INPUT_KINDS = ("dataset", "pairs", "tsv", "reads", "mapping")
#: How the run executes; ``auto`` picks memory for in-memory sources and
#: streaming for file-backed ones.
EXECUTION_MODES = ("auto", "memory", "streaming")
_SETUPS = ("setup1", "setup2")
_ENCODINGS = ("host", "device")


def _err(fieldpath: str, message: str) -> ValueError:
    return ValueError(f"workload.{fieldpath}: {message}")


def _require(condition: bool, fieldpath: str, message: str) -> None:
    if not condition:
        raise _err(fieldpath, message)


def _coerce(section: str, name: str, value: Any, typ: "type[Any]") -> Any:
    """Coerce a parsed TOML/JSON value to the dataclass field type, loudly."""
    if typ is bool:
        if isinstance(value, bool):
            return value
        raise _err(f"{section}.{name}", f"expected a boolean, got {value!r}")
    if typ is int:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise _err(f"{section}.{name}", f"expected an integer, got {value!r}")
        if isinstance(value, float) and not value.is_integer():
            raise _err(f"{section}.{name}", f"expected an integer, got {value!r}")
        return int(value)
    if typ is str:
        if not isinstance(value, str):
            raise _err(f"{section}.{name}", f"expected a string, got {value!r}")
        return value
    return value


#: Scalar field annotations coerced (and type-checked) from parsed TOML/JSON.
#: Annotations are strings under ``from __future__ import annotations``.
_SCALAR_TYPES = {"int": int, "bool": bool, "str": str, int: int, bool: bool, str: str}


def _build_section(
    cls: Any, section: str, data: Mapping[str, Any], aliases: Any = None
) -> Any:
    """Instantiate a spec dataclass from a mapping, rejecting unknown keys."""
    if not isinstance(data, Mapping):
        raise _err(section, f"expected a table/object, got {data!r}")
    known = {f.name: f for f in fields(cls)}
    aliases = dict(aliases or {})
    kwargs: dict[str, Any] = {}
    for key, value in data.items():
        name = aliases.get(key, key)
        if callable(name):  # alias with a transform
            name, value = name(value)
        if name not in known:
            raise _err(
                section,
                f"unknown key {key!r} (expected one of "
                f"{sorted(set(known) | set(k for k in aliases))})",
            )
        if name in kwargs:
            raise _err(section, f"{key!r} duplicates a value already given for {name!r}")
        typ = _SCALAR_TYPES.get(known[name].type)
        if typ is not None:
            value = _coerce(section, name, value, typ)
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except TypeError as exc:  # missing required field
        raise _err(section, str(exc)) from exc


def _check_pairs(pairs: "Sequence[tuple[str, str]] | None") -> None:
    """A ``pairs`` input is present, non-empty and of one read length.

    Every entry must be a ``(read, segment)`` pair of strings whose read
    matches its segment and pair 0's length.  The pairs are in memory, so a
    queued workload fails at construction, naming the first bad pair, rather
    than mid-run in the encoder.
    """
    if pairs is None:
        raise _err("input.pairs", "required for kind 'pairs' (programmatic input only)")
    _require(len(pairs) > 0, "input.pairs", "must not be empty")
    length = 0
    for i, pair in enumerate(pairs):
        # Messages are built only on failure: inputs may hold millions of pairs.
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                and all(isinstance(seq, str) for seq in pair)):
            raise _err(f"input.pairs[{i}]",
                       f"expected a (read, segment) pair of strings, got {pair!r}")
        read, segment = pair
        if i == 0:
            length = len(read)
        if len(read) != len(segment):
            raise _err(f"input.pairs[{i}]",
                       f"read is {len(read)} bp but its segment is {len(segment)} bp")
        if len(read) != length:
            raise _err(f"input.pairs[{i}]",
                       f"pair is {len(read)} bp but input.pairs[0] is {length} bp; "
                       f"all pairs of an input must have one length")


@dataclass(frozen=True)
class InputSpec:
    """Where the candidate pairs come from.

    ``kind`` selects the source and which other fields apply:

    ``dataset``
        A simulated paper data set: ``dataset`` (name), ``n_pairs``, ``seed``.
    ``pairs``
        In-memory ``(read, segment)`` tuples passed programmatically via
        ``pairs`` (not loadable from TOML/JSON); ``name`` labels the run.
    ``tsv``
        A two-column ``read<TAB>segment`` file: ``path``.
    ``reads``
        A FASTQ/FASTA read file seeded against a reference FASTA:
        ``path``, ``reference``, ``seeding_k``, ``max_candidates_per_read``.
    ``mapping``
        A simulated whole-genome mapping run: ``n_reads``,
        ``read_length``, ``genome_length``, ``seed``, and ``prefilter``
        (``false`` reports the mapper without pre-alignment filtering).
    """

    kind: str
    # dataset
    dataset: str | None = None
    n_pairs: int = DEFAULT_N_PAIRS
    seed: int = 0
    # tsv / reads
    path: str | None = None
    reference: str | None = None
    seeding_k: int = DEFAULT_SEEDING_K
    max_candidates_per_read: int = DEFAULT_MAX_CANDIDATES_PER_READ
    # pairs (programmatic only)
    pairs: Sequence[tuple[str, str]] | None = None
    name: str | None = None
    # mapping
    n_reads: int = 300
    read_length: int = DEFAULT_READ_LENGTH
    genome_length: int = 50_000
    prefilter: bool = True

    def __post_init__(self) -> None:
        _require(self.kind in INPUT_KINDS, "input.kind",
                 f"unknown input kind {self.kind!r} (expected one of {list(INPUT_KINDS)})")
        _require(self.n_pairs >= 1, "input.n_pairs", "must be at least 1")
        _require(self.seeding_k >= 1, "input.seeding_k", "must be at least 1")
        _require(self.seeding_k <= MAX_SEEDING_K, "input.seeding_k",
                 f"must be at most {MAX_SEEDING_K} (2-bit k-mer keys fill a uint64)")
        _require(self.max_candidates_per_read >= 1,
                 "input.max_candidates_per_read", "must be at least 1")
        if self.kind == "dataset":
            from ..simulate.datasets import PAPER_DATASETS

            _require(self.dataset is not None, "input.dataset",
                     "required for kind 'dataset'")
            _require(self.dataset in PAPER_DATASETS, "input.dataset",
                     f"unknown dataset {self.dataset!r} "
                     f"(available: {sorted(PAPER_DATASETS)})")
        elif self.kind == "pairs":
            _check_pairs(self.pairs)
        elif self.kind == "tsv":
            _require(bool(self.path), "input.path", "required for kind 'tsv'")
        elif self.kind == "reads":
            _require(bool(self.path), "input.path", "required for kind 'reads'")
            _require(bool(self.reference), "input.reference",
                     "required for kind 'reads' (FASTA to seed the reads against)")
        elif self.kind == "mapping":
            _require(self.n_reads >= 1, "input.n_reads", "must be at least 1")
            _require(self.read_length >= 1, "input.read_length", "must be at least 1")
            _require(self.genome_length >= self.read_length, "input.genome_length",
                     "must be at least the read length")

    def display_name(self) -> str:
        """The run label reports carry."""
        if self.name:
            return self.name
        if self.kind == "dataset":
            return str(self.dataset)
        if self.kind in ("tsv", "reads"):
            return Path(str(self.path)).name
        if self.kind == "mapping":
            return f"whole-genome({self.n_reads}x{self.read_length}bp)"
        return "pairs"


@dataclass(frozen=True)
class PlannerSpec:
    """Knobs of the adaptive cascade planner (``[filter.planner]``).

    Only meaningful together with ``filter = "auto"``: ``sample_pairs`` caps
    the probe prefix the planner measures, ``false_accept_budget`` is the
    accept-rate excess (fraction of the probe) a candidate may show over the
    tightest candidate and still be admissible, ``max_stages`` bounds the
    cascade length searched, and ``candidates`` — when given — replaces the
    generated candidate set with explicit cascades.
    """

    sample_pairs: int = DEFAULT_PLANNER_SAMPLE_PAIRS
    false_accept_budget: float = DEFAULT_PLANNER_FALSE_ACCEPT_BUDGET
    max_stages: int = DEFAULT_PLANNER_MAX_STAGES
    candidates: "tuple[tuple[str, ...], ...] | None" = None

    def __post_init__(self) -> None:
        _require(isinstance(self.sample_pairs, int) and self.sample_pairs >= 1,
                 "filter.planner.sample_pairs", "must be a positive integer")
        budget = self.false_accept_budget
        if isinstance(budget, bool) or not isinstance(budget, (int, float)):
            raise _err("filter.planner.false_accept_budget",
                       f"expected a number, got {budget!r}")
        object.__setattr__(self, "false_accept_budget", float(budget))
        _require(0.0 <= self.false_accept_budget <= 1.0,
                 "filter.planner.false_accept_budget", "must be in [0, 1]")
        _require(isinstance(self.max_stages, int) and 1 <= self.max_stages <= 3,
                 "filter.planner.max_stages", "must be between 1 and 3")
        if self.candidates is not None:
            from ..engine.registry import available_filters

            known = available_filters()
            _require(
                isinstance(self.candidates, (list, tuple)) and len(self.candidates) > 0,
                "filter.planner.candidates",
                "expected a non-empty list of cascades (lists of filter names)",
            )
            normalised = []
            for i, cand in enumerate(self.candidates):
                if isinstance(cand, str):
                    cand = (cand,)
                _require(isinstance(cand, (list, tuple)) and len(cand) > 0,
                         f"filter.planner.candidates[{i}]",
                         "expected a non-empty list of filter names")
                names = tuple(str(name) for name in cand)
                for name in names:
                    _require(name in known, f"filter.planner.candidates[{i}]",
                             f"unknown filter {name!r} (available: {known})")
                _require(len(set(names)) == len(names),
                         f"filter.planner.candidates[{i}]",
                         "a cascade may not repeat a filter")
                normalised.append(names)
            object.__setattr__(self, "candidates", tuple(normalised))


@dataclass(frozen=True)
class FilterSpec:
    """Which filter (or cascade of filters) examines the pairs.

    ``filters = ("auto",)`` defers the choice to the adaptive planner
    (:mod:`repro.planner`): :meth:`Session.run` / ``repro shard`` probe a
    prefix of the input, pick the cheapest admissible cascade, and replace
    the spec with the concrete choice plus a frozen ``plan`` record before
    anything fans out.  ``planner`` tunes that search; ``plan`` appears only
    on resolved workloads and carries the decision's provenance.
    """

    filters: tuple[str, ...] = ("gatekeeper-gpu",)
    error_threshold: int = DEFAULT_ERROR_THRESHOLD
    planner: "PlannerSpec | None" = None
    plan: "dict[str, Any] | None" = None

    def __post_init__(self) -> None:
        filters = self.filters
        if isinstance(filters, str):
            filters = (filters,)
        _require(isinstance(filters, (list, tuple)) and len(filters) > 0,
                 "filter.filters", "expected a non-empty list of filter names")
        filters = tuple(str(name) for name in filters)
        object.__setattr__(self, "filters", filters)
        if "auto" in filters:
            _require(len(filters) == 1, "filter.filters",
                     "'auto' defers the choice to the planner and cannot be "
                     "combined with other filters")
        else:
            from ..engine.registry import available_filters

            known = available_filters()
            for name in filters:
                _require(name in known, "filter.filters",
                         f"unknown filter {name!r} (available: {known})")
        _require(self.error_threshold >= 0, "filter.error_threshold",
                 "must be non-negative")
        if self.planner is not None and not isinstance(self.planner, PlannerSpec):
            object.__setattr__(
                self,
                "planner",
                _build_section(PlannerSpec, "filter.planner", self.planner),
            )
        _require(self.planner is None or self.is_auto, "filter.planner",
                 "only applies when filter = 'auto'")
        if self.plan is not None:
            _require(not self.is_auto, "filter.plan",
                     "a plan record only appears on a resolved workload "
                     "(filters must name the chosen cascade, not 'auto')")
            self._check_plan(self.plan, filters)

    def _check_plan(self, plan: Any, filters: "tuple[str, ...]") -> None:
        """Light validation of a frozen plan record (full trust stays with
        :mod:`repro.planner`, which wrote it)."""
        if not isinstance(plan, Mapping):
            raise _err("filter.plan", f"expected a table/object, got {plan!r}")
        unknown = set(plan) - set(K.PLAN_KEYS)
        if unknown:
            raise _err("filter.plan",
                       f"unknown key(s) {sorted(unknown)} "
                       f"(expected a subset of {sorted(K.PLAN_KEYS)})")
        version = plan.get(K.PLANNER_VERSION)
        _require(isinstance(version, int) and not isinstance(version, bool)
                 and version >= 1,
                 f"filter.plan.{K.PLANNER_VERSION}", "must be a positive integer")
        cascade = plan.get(K.CASCADE)
        _require(isinstance(cascade, (list, tuple))
                 and tuple(str(n) for n in cascade) == filters,
                 f"filter.plan.{K.CASCADE}",
                 f"must match filter.filters {list(filters)}; got {cascade!r}")
        probe = plan.get(K.PROBE_PAIRS)
        _require(isinstance(probe, int) and not isinstance(probe, bool)
                 and probe >= 1,
                 f"filter.plan.{K.PROBE_PAIRS}", "must be a positive integer")
        # Canonicalise to a plain JSON-shaped copy so spec equality (and the
        # shard-set identity check of ``repro merge``) never depends on how
        # the record was constructed.
        object.__setattr__(self, "plan", json.loads(json.dumps(plan, sort_keys=True)))

    @property
    def is_cascade(self) -> bool:
        return len(self.filters) > 1

    @property
    def is_auto(self) -> bool:
        """True while the filter choice is still deferred to the planner."""
        return self.filters == ("auto",)


@dataclass(frozen=True)
class ShardSpec:
    """One shard of a partitioned input range (``repro.cluster``).

    A sharded workload runs the half-open pair slice ``[start, stop)`` of an
    input that totals ``total`` pairs; ``index`` identifies the shard among
    its ``n_shards`` siblings so ``repro merge`` can check the set is
    complete, duplicate-free and contiguous before reducing.  Shard files are
    ordinarily generated by ``repro shard`` (:mod:`repro.cluster.plan`), not
    written by hand.
    """

    index: int
    n_shards: int
    start: int
    stop: int
    total: int

    def __post_init__(self) -> None:
        _require(self.n_shards >= 1, "execution.shard.n_shards",
                 "must be at least 1")
        _require(0 <= self.index < self.n_shards, "execution.shard.index",
                 f"must be in [0, n_shards); got {self.index} of {self.n_shards}")
        _require(self.total >= 1, "execution.shard.total", "must be at least 1")
        _require(0 <= self.start < self.stop, "execution.shard.start",
                 f"need 0 <= start < stop; got [{self.start}, {self.stop})")
        _require(self.stop <= self.total, "execution.shard.stop",
                 f"slice [{self.start}, {self.stop}) exceeds total {self.total}")

    @property
    def n_pairs(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class ExecutionSpec:
    """How the run executes: mode, devices, chunking, verification, backend.

    ``executor`` / ``workers`` / ``prefetch`` select the host-side execution
    backend (:mod:`repro.exec`): ``serial`` (default), ``threads`` or
    ``processes`` with ``workers`` pool slots, and — for streamed runs — a
    prefetching producer thread that parses/encodes chunk ``N + 1`` while
    chunk ``N`` filters.  ``kernel_tier`` selects the filter kernel
    implementation (:mod:`repro.filters.native`): ``auto`` (Numba-compiled
    kernels when available, the default), ``numpy`` (always the pure-NumPy
    reference) or ``native`` (prefer compiled, silently falling back when
    Numba is absent).  These knobs change *how fast* a workload runs, never
    *what* it computes: results are byte-identical across backends, worker
    counts and kernel tiers, which is why (like measured wall clock) they
    are excluded from the canonical :meth:`Workload.to_dict` record.
    """

    mode: str = "auto"
    setup: str = "setup1"
    n_devices: int = 1
    encoding: str = "device"
    chunk_size: int = DEFAULT_CHUNK_SIZE
    batch_size: int = DEFAULT_BATCH_SIZE
    verify: bool = True
    executor: str = "serial"
    workers: int = 1
    prefetch: bool = False
    kernel_tier: str = "auto"
    shard: "ShardSpec | None" = None

    def __post_init__(self) -> None:
        from ..exec.executor import EXECUTOR_KINDS
        from ..filters.native import KERNEL_TIERS

        if self.shard is not None and not isinstance(self.shard, ShardSpec):
            object.__setattr__(
                self,
                "shard",
                _build_section(ShardSpec, "execution.shard", self.shard),
            )

        _require(self.mode in EXECUTION_MODES, "execution.mode",
                 f"unknown mode {self.mode!r} (expected one of {list(EXECUTION_MODES)})")
        _require(self.setup in _SETUPS, "execution.setup",
                 f"unknown setup {self.setup!r} (expected one of {list(_SETUPS)})")
        _require(self.encoding in _ENCODINGS, "execution.encoding",
                 f"unknown encoding {self.encoding!r} (expected one of {list(_ENCODINGS)})")
        _require(self.n_devices >= 1, "execution.n_devices", "must be at least 1")
        _require(self.chunk_size >= 1, "execution.chunk_size", "must be at least 1")
        _require(self.batch_size >= 1, "execution.batch_size", "must be at least 1")
        _require(self.executor in EXECUTOR_KINDS, "execution.executor",
                 f"unknown executor {self.executor!r} "
                 f"(expected one of {list(EXECUTOR_KINDS)})")
        _require(self.workers >= 1, "execution.workers", "must be at least 1")
        _require(self.kernel_tier in KERNEL_TIERS, "execution.kernel_tier",
                 f"unknown kernel_tier {self.kernel_tier!r} "
                 f"(expected one of {list(KERNEL_TIERS)})")


@dataclass(frozen=True)
class OutputSpec:
    """What the :class:`~repro.api.result.Result` should carry.

    ``collect_decisions`` keeps the concatenated per-pair
    accept/estimate/undefined vectors on the raw streaming report
    (``result.raw.accepted`` etc.); off by default so streamed runs stay
    O(chunk) on unbounded inputs.
    """

    include_chunks: bool = True
    max_chunk_rows: int = 50
    collect_decisions: bool = False

    def __post_init__(self) -> None:
        _require(self.max_chunk_rows >= 0, "output.max_chunk_rows",
                 "must be non-negative")


@dataclass(frozen=True)
class Workload:
    """One declarative filtering/mapping job for :meth:`Session.run`."""

    input: InputSpec
    filter: FilterSpec = field(default_factory=FilterSpec)
    execution: ExecutionSpec = field(default_factory=ExecutionSpec)
    output: OutputSpec = field(default_factory=OutputSpec)

    def __post_init__(self) -> None:
        # Cross-section constraints that no single spec can check alone —
        # checked at construction so a queued workload can never be one that
        # is guaranteed to fail at run time.
        if self.input.kind == "mapping":
            _require(
                self.execution.mode != "streaming",
                "execution.mode",
                "kind 'mapping' always runs the in-memory mapper; "
                "remove mode='streaming' (or use 'auto')",
            )
            _require(
                not self.filter.is_cascade,
                "filter.filters",
                "mapping workloads take a single filter, not a cascade",
            )
        if self.filter.is_auto:
            _require(
                self.input.kind != "mapping",
                "filter.filters",
                "mapping workloads take a concrete filter; 'auto' planning "
                "applies to filtering workloads only",
            )
            _require(
                self.execution.shard is None,
                "filter.filters",
                "'auto' must be resolved to a concrete cascade before "
                "sharding (repro shard plans once and pins the choice)",
            )
        if self.input.kind in ("tsv", "reads"):
            _require(
                self.execution.mode != "memory",
                "execution.mode",
                f"'memory' does not support file-backed input kind "
                f"{self.input.kind!r}; use mode 'streaming' (or 'auto')",
            )
        shard = self.execution.shard
        if shard is not None:
            _require(
                self.input.kind != "mapping",
                "execution.shard",
                "mapping workloads cannot be sharded",
            )
            if self.input.kind == "dataset":
                _require(
                    shard.total == self.input.n_pairs,
                    "execution.shard.total",
                    f"must equal input.n_pairs ({self.input.n_pairs}) "
                    f"for kind 'dataset'; got {shard.total}",
                )
            elif self.input.kind == "pairs":
                _require(
                    shard.total == len(self.input.pairs or ()),
                    "execution.shard.total",
                    f"must equal the number of pairs "
                    f"({len(self.input.pairs or ())}); got {shard.total}",
                )
            if self.resolved_mode() == "streaming":
                # Chunk alignment keeps a sharded streaming run's chunking —
                # and with it n_chunks / n_batches / the stream-overlap model
                # — identical to the single-run chunking of the same slice,
                # which the merge identity guarantee depends on.
                _require(
                    shard.start % self.execution.chunk_size == 0,
                    "execution.shard.start",
                    f"streaming shards must start on a chunk boundary "
                    f"(chunk_size={self.execution.chunk_size}); got {shard.start}",
                )

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Workload":
        """Build and validate a workload from a plain (TOML/JSON-shaped) dict.

        The ``filter`` section accepts the conveniences the CLIs offer:
        ``filter = "name"`` (a single filter) and ``cascade = [...]`` are
        both aliases for ``filters``.
        """
        if not isinstance(data, Mapping):
            raise ValueError(f"workload: expected a table/object, got {data!r}")
        known_sections = {"input", "filter", "execution", "output"}
        unknown = set(data) - known_sections
        if unknown:
            raise ValueError(
                f"workload: unknown section(s) {sorted(unknown)} "
                f"(expected {sorted(known_sections)})"
            )
        if "input" not in data:
            raise _err("input", "section is required")
        input_spec = _build_section(InputSpec, "input", data["input"])
        filter_data = data.get("filter", {})
        filter_spec = _build_section(
            FilterSpec,
            "filter",
            filter_data,
            aliases={
                "filter": lambda v: ("filters", (v,) if isinstance(v, str) else v),
                "cascade": lambda v: ("filters", v),
            },
        )
        execution = _build_section(ExecutionSpec, "execution", data.get("execution", {}))
        output = _build_section(OutputSpec, "output", data.get("output", {}))
        return cls(input=input_spec, filter=filter_spec,
                   execution=execution, output=output)

    @classmethod
    def from_toml(cls, source: str | Path) -> "Workload":
        """Load a workload from a TOML file path (or a TOML string)."""
        import tomllib

        text, label = _read_source(source, (".toml",))
        try:
            data = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise ValueError(f"{label}: invalid TOML: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def from_json(cls, source: str | Path) -> "Workload":
        """Load a workload from a JSON file path (or a JSON string)."""
        text, label = _read_source(source, (".json",))
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{label}: invalid JSON: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def from_file(cls, path: str | Path) -> "Workload":
        """Load a workload file, dispatching on the ``.toml`` / ``.json`` suffix."""
        path = Path(path)
        suffix = path.suffix.lower()
        if suffix == ".toml":
            return cls.from_toml(path)
        if suffix == ".json":
            return cls.from_json(path)
        raise ValueError(
            f"{path}: unrecognised workload suffix {suffix!r} "
            "(expected .toml or .json)"
        )

    # ------------------------------------------------------------------ #
    # Canonicalisation
    # ------------------------------------------------------------------ #
    def resolved_mode(self) -> str:
        """The concrete execution mode after resolving ``auto``."""
        if self.execution.mode != "auto":
            return self.execution.mode
        return "streaming" if self.input.kind in ("tsv", "reads") else "memory"

    def to_dict(self) -> "dict[str, Any]":
        """Fully-resolved canonical dictionary recording exactly what runs.

        Only the fields that *apply* are emitted — kind-irrelevant input
        fields, ``chunk_size`` for in-memory runs, and for mapping workloads
        the ``batch_size`` / ``verify`` knobs, which cannot change a mapping
        Result, are all dropped — so two workloads that behave identically
        serialise identically regardless of how they were constructed (TOML
        file, JSON, or CLI flags).  The ``executor`` / ``workers`` /
        ``prefetch`` / ``kernel_tier`` backend knobs are excluded too: they
        never change a result (byte-identical across backends and kernel
        tiers), so workloads differing only in backend or tier produce
        byte-identical reports.  Canonicalisation is idempotent:
        ``from_dict(w.to_dict()).to_dict() == w.to_dict()`` for every
        serialisable kind.  The exception is ``kind="pairs"``: in-memory
        pairs are represented by their count, so the emitted dict documents
        the run but cannot be re-executed via ``from_dict``.
        """
        spec = self.input
        input_dict: dict[str, Any] = {"kind": spec.kind}
        if spec.kind == "dataset":
            input_dict.update(dataset=spec.dataset, n_pairs=spec.n_pairs, seed=spec.seed)
        elif spec.kind == "pairs":
            input_dict.update(name=spec.display_name(), n_pairs=len(spec.pairs or ()))
        elif spec.kind == "tsv":
            input_dict.update(path=str(spec.path))
        elif spec.kind == "reads":
            input_dict.update(
                path=str(spec.path),
                reference=str(spec.reference),
                seeding_k=spec.seeding_k,
                max_candidates_per_read=spec.max_candidates_per_read,
            )
        elif spec.kind == "mapping":
            input_dict.update(
                n_reads=spec.n_reads,
                read_length=spec.read_length,
                genome_length=spec.genome_length,
                seed=spec.seed,
                prefilter=spec.prefilter,
            )
        mode = self.resolved_mode()
        execution_dict: dict[str, Any] = {
            "mode": mode,
            "setup": self.execution.setup,
            "n_devices": self.execution.n_devices,
            "encoding": self.execution.encoding,
        }
        if mode == "streaming":
            execution_dict["chunk_size"] = self.execution.chunk_size
        if spec.kind != "mapping":
            # A mapping run always verifies, and its engine's kernel batch
            # size moves only modelled times, which a mapping Result does not
            # carry; so both knobs are recorded for filtering workloads only.
            execution_dict["batch_size"] = self.execution.batch_size
            execution_dict["verify"] = self.execution.verify
        if self.execution.shard is not None:
            shard = self.execution.shard
            execution_dict["shard"] = {
                "index": shard.index,
                "n_shards": shard.n_shards,
                "start": shard.start,
                "stop": shard.stop,
                "total": shard.total,
            }
        filter_dict: dict[str, Any] = {
            "filters": list(self.filter.filters),
            "error_threshold": self.filter.error_threshold,
        }
        if self.filter.planner is not None:
            planner = self.filter.planner
            planner_dict: dict[str, Any] = {
                "sample_pairs": planner.sample_pairs,
                "false_accept_budget": planner.false_accept_budget,
                "max_stages": planner.max_stages,
            }
            if planner.candidates is not None:
                planner_dict["candidates"] = [list(c) for c in planner.candidates]
            filter_dict["planner"] = planner_dict
        if self.filter.plan is not None:
            filter_dict["plan"] = json.loads(
                json.dumps(self.filter.plan, sort_keys=True)
            )
        return {
            "input": input_dict,
            "filter": filter_dict,
            "execution": execution_dict,
            "output": {
                "include_chunks": self.output.include_chunks,
                "max_chunk_rows": self.output.max_chunk_rows,
                "collect_decisions": self.output.collect_decisions,
            },
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def replace(self, **sections: Any) -> "Workload":
        """A copy with whole sections replaced (``input=``, ``filter=``, ...)."""
        return dataclasses.replace(self, **sections)


def _read_source(source: str | Path, suffixes: tuple[str, ...]) -> tuple[str, str]:
    """Read a file path, or accept inline text when it cannot be a path."""
    if isinstance(source, Path):
        if not source.exists():
            raise ValueError(f"{source}: workload file not found")
        return source.read_text(), str(source)
    if "\n" not in source:
        path = Path(source)
        if path.exists():
            return path.read_text(), str(path)
        # A newline-free string that does not look like inline TOML/JSON
        # content can only have been meant as a path — report it as such
        # rather than producing a baffling parse error on the "content".
        looks_like_content = source.lstrip()[:1] in ("{", "[") or "=" in source
        if not looks_like_content:
            raise ValueError(f"{source}: workload file not found")
    return source, "<inline workload>"

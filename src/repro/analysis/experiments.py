"""Experiment drivers: one function per table / figure of the paper's evaluation.

Every function returns a list of plain dict rows (ready for
:func:`repro.analysis.tables.format_table`), so the benchmark harness, the
examples and the CLI all share the same drivers.  Accuracy experiments run the
real filters on synthetic candidate pools; timing experiments evaluate the
calibrated analytic device models at the paper's data-set sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from ..align.edit_distance import edit_distance
from ..core.config import EncodingActor
from ..engine.registry import get_filter
from ..filters import GateKeeperGPUFilter, PreAlignmentFilter
from ..genomics.alphabet import contains_unknown
from ..genomics.encoding import words_per_read
from ..gpusim.device import SETUP_1, SETUP_2, SystemSetup
from ..gpusim.power import PowerModel
from ..gpusim.profiler import KernelProfiler
from ..gpusim.timing import CpuTimingModel, TimingModel
from .._defaults import VERIFICATION_COST_PER_PAIR_S
from ..mapper.mrfast import MrFastMapper
from ..simulate.datasets import build_dataset
from ..simulate.genome import generate_reference
from ..simulate.mutations import MutationProfile
from ..simulate.pairs import PairDataset
from ..simulate.reads import simulate_reads
from .accuracy import evaluate_decisions, labels_from_distances
from .speedup import compute_speedup
from .throughput import ThroughputEntry

__all__ = [
    "PAPER_PAIR_COUNT",
    "ground_truth_for_dataset",
    "false_accept_rows",
    "filter_comparison_rows",
    "table1_batch_size_rows",
    "table2_throughput_rows",
    "whole_genome_mapping_rows",
    "table4_speedup_rows",
    "table5_overall_rows",
    "table6_power_rows",
    "encoding_actor_rows",
    "read_length_rows",
    "multi_gpu_rows",
    "error_threshold_filter_time_rows",
    "occupancy_rows",
]

#: The paper's accuracy / throughput pools contain 30 million pairs.
PAPER_PAIR_COUNT = 30_000_000


# --------------------------------------------------------------------------- #
# Accuracy experiments (Figure 4, Figure 5, Sup. Tables S.2-S.12)
# --------------------------------------------------------------------------- #
def ground_truth_for_dataset(dataset: PairDataset) -> tuple[np.ndarray, np.ndarray]:
    """Exact edit distances (Edlib-equivalent) and undefined mask of a pool."""
    distances = np.empty(dataset.n_pairs, dtype=np.int32)
    undefined = np.zeros(dataset.n_pairs, dtype=bool)
    for i, (read, segment) in enumerate(zip(dataset.reads, dataset.segments)):
        if contains_unknown(read) or contains_unknown(segment):
            undefined[i] = True
            distances[i] = 0
        else:
            distances[i] = edit_distance(read, segment)
    return distances, undefined


def false_accept_rows(
    dataset: PairDataset,
    thresholds: Sequence[int],
    exclude_undefined: bool = True,
) -> list[dict]:
    """Figure 4 / Sup. Tables S.2-S.6: GateKeeper-GPU accuracy against Edlib.

    ``exclude_undefined=True`` reproduces the Section 5.1.1 protocol where
    undefined pairs are treated as accepted by both sides (so they do not
    count as false accepts).
    """
    encoded = dataset.encoded()  # the dataset's cached ingest-time encode
    undefined = encoded.undefined
    distances, _ = ground_truth_for_dataset(dataset)

    rows = []
    for threshold in thresholds:
        _, filter_accepts = GateKeeperGPUFilter(threshold).filter_batch(encoded)
        if exclude_undefined:
            truth_accepts = labels_from_distances(distances, threshold, undefined)
        else:
            truth_accepts = labels_from_distances(distances, threshold)
        summary = evaluate_decisions(filter_accepts, truth_accepts)
        row = {"error_threshold": int(threshold)}
        row.update(summary.as_row())
        rows.append(row)
    return rows


def filter_comparison_rows(
    dataset: PairDataset,
    thresholds: Sequence[int],
    filter_names: Sequence[str] | None = None,
    max_pairs: int | None = 400,
) -> list[dict]:
    """Figure 5 / Sup. Tables S.7-S.12: false accepts of every filter.

    Undefined pairs are *included* and count as false accepts for the filters
    that pass them, matching the Section 5.1.2 protocol.  Every filter runs
    its batch kernel over the dataset's encoded batch (decisions are
    identical to the per-pair ``filter_pair`` path, property-tested), which
    makes this comparison roughly an order of magnitude faster than the old
    one-pair-at-a-time string loops; ``max_pairs`` still bounds the pool for
    the ground-truth edit-distance computation.

    ``filter_names`` defaults to every filter in the engine registry (paper
    order), so filters added via :func:`repro.engine.register_filter` join the
    comparison automatically.
    """
    from ..engine.registry import available_filters

    if max_pairs is not None and dataset.n_pairs > max_pairs:
        dataset = dataset.subset(max_pairs)
    filter_names = list(filter_names or available_filters())
    distances, undefined = ground_truth_for_dataset(dataset)
    encoded = dataset.encoded()

    rows = []
    for threshold in thresholds:
        truth_accepts = labels_from_distances(distances, threshold)
        # Undefined pairs cannot be scored by edit distance; treat them as
        # over-threshold so filters that pass them accrue false accepts,
        # exactly as the paper accounts for them in this comparison.
        truth_accepts = truth_accepts & ~undefined
        row: dict[str, object] = {"error_threshold": int(threshold)}
        for name in filter_names:
            # The registry accepts both display names ("GateKeeper-GPU") and
            # canonical keys ("gatekeeper-gpu").
            instance: PreAlignmentFilter = get_filter(name, threshold)
            _, accepts = instance.filter_batch(encoded)
            summary = evaluate_decisions(accepts, truth_accepts)
            row[f"{instance.name}_FA"] = summary.false_accepts
            row[f"{instance.name}_FR"] = summary.false_rejects
        rows.append(row)
    return rows


# --------------------------------------------------------------------------- #
# Table 1: maximum reads per batch
# --------------------------------------------------------------------------- #
def table1_batch_size_rows(
    batch_sizes: Sequence[int] = (100, 1_000, 10_000, 100_000),
    n_reads: int = 4_081_242,
    candidates_per_read: float = 100.0,
    read_length: int = 100,
    error_threshold: int = 5,
    setup: SystemSetup = SETUP_1,
) -> list[dict]:
    """Table 1: effect of the reads-per-batch cap on mrFAST integration times.

    Small batches multiply the number of kernel calls; every call pays a
    launch/synchronisation overhead and under-utilises the device, which is
    why the paper settles on 100,000 reads per batch.
    """
    model = TimingModel(setup.device, setup.host)
    n_pairs = int(n_reads * candidates_per_read)
    per_call_overhead_s = 0.045  # launch + synchronisation + buffer turnover
    small_batch_penalty = 2.0e3  # extra kernel cycles lost per call (underfill)

    rows = []
    for batch in batch_sizes:
        n_calls = -(-n_reads // batch)
        for encoding in (EncodingActor.HOST, EncodingActor.DEVICE):
            timing = model.filter_timing(
                n_pairs,
                read_length,
                error_threshold,
                encode_on_device=encoding is EncodingActor.DEVICE,
                host_encode_threads=setup.host.cores,
            )
            kernel = timing.kernel_s + n_calls * small_batch_penalty / setup.device.compute_throughput * 1e6
            filter_total = timing.filter_s + n_calls * per_call_overhead_s * 0.15
            overall = (
                filter_total
                + n_pairs * 0.1 * VERIFICATION_COST_PER_PAIR_S  # post-filter verification
                + n_calls * per_call_overhead_s
                + 1_100.0  # threshold-independent mapping stages (seeding, IO)
            )
            encode = timing.encode_s if encoding is EncodingActor.HOST else timing.transfer_s
            rows.append(
                {
                    "max_reads_per_batch": batch,
                    "encoding": encoding.value,
                    "kernel_calls": n_calls,
                    "overall_s": round(overall, 1),
                    "encode_or_copy_s": round(encode, 1),
                    "kernel_s": round(kernel, 2),
                    "filter_s": round(filter_total, 1),
                }
            )
    return rows


# --------------------------------------------------------------------------- #
# Table 2 / Sup. Tables S.13-S.15: filtering throughput
# --------------------------------------------------------------------------- #
def table2_throughput_rows(
    read_length: int = 100,
    thresholds: Sequence[int] = (2, 5),
    n_pairs: int = PAPER_PAIR_COUNT,
    setups: Sequence[SystemSetup] = (SETUP_1, SETUP_2),
) -> list[dict]:
    """Filtering throughput of GateKeeper-CPU vs GateKeeper-GPU (Table 2)."""
    rows = []
    for setup in setups:
        gpu_model = TimingModel(setup.device, setup.host)
        cpu_model = CpuTimingModel(setup.host)
        device_counts = (1, setup.n_devices) if setup.n_devices > 1 else (1,)
        for threshold in thresholds:
            entries: dict[str, ThroughputEntry] = {}
            for cores in (1, 12):
                entries[f"CPU-{cores}core"] = ThroughputEntry(
                    label=f"CPU-{cores}core",
                    n_pairs=n_pairs,
                    kernel_time_s=cpu_model.kernel_time(n_pairs, read_length, threshold, cores),
                    filter_time_s=cpu_model.filter_time(n_pairs, read_length, threshold, cores),
                )
            for encode_on_device in (True, False):
                tag = "device-enc" if encode_on_device else "host-enc"
                for count in device_counts:
                    timing = gpu_model.filter_timing(
                        n_pairs,
                        read_length,
                        threshold,
                        encode_on_device=encode_on_device,
                        n_devices=count,
                    )
                    entries[f"GPU-{count}dev-{tag}"] = ThroughputEntry(
                        label=f"GPU-{count}dev-{tag}",
                        n_pairs=n_pairs,
                        kernel_time_s=timing.kernel_s,
                        filter_time_s=timing.filter_s,
                    )
            for label, entry in entries.items():
                rows.append(
                    {
                        "setup": setup.name,
                        "read_length": read_length,
                        "error_threshold": threshold,
                        "configuration": label,
                        "kernel_time_s": round(entry.kernel_time_s, 3),
                        "filter_time_s": round(entry.filter_time_s, 3),
                        "kernel_b40": round(entry.kernel_throughput_b40, 1),
                        "filter_b40": round(entry.filter_throughput_b40, 1),
                    }
                )
    return rows


# --------------------------------------------------------------------------- #
# Whole-genome experiments (Tables 3, 4, 5 and Sup. Tables S.24-S.26)
# --------------------------------------------------------------------------- #
@dataclass
class WholeGenomeRun:
    """Scaled-down whole-genome mapping run with and without the filter."""

    no_filter: object
    filtered: object
    read_length: int
    error_threshold: int


def run_whole_genome(
    n_reads: int = 400,
    read_length: int = 100,
    genome_length: int = 60_000,
    error_threshold: int = 5,
    substitution_rate: float = 0.01,
    indel_rate: float = 0.001,
    seed: int = 0,
    seed_length: int = 8,
    setup: SystemSetup = SETUP_1,
    encoding: EncodingActor = EncodingActor.DEVICE,
    filter_name: str = "gatekeeper-gpu",
    n_devices: int = 1,
) -> WholeGenomeRun:
    """Map a simulated read set with and without pre-alignment filtering.

    ``filter_name`` picks any registered filter (default GateKeeper-GPU, as in
    the paper's Tables 3-5).  The default seed length (8) is shorter than
    mrFAST's 12 so that, at the scaled-down genome size, seeding still
    produces the paper-like situation of many spurious candidate locations per
    read (on the real 3.1 Gbp genome a 12-mer already occurs thousands of
    times).
    """
    from ..engine.engine import FilterEngine
    from ..simulate.genome import GenomeProfile

    reference = generate_reference(
        genome_length,
        seed=seed,
        profile=GenomeProfile(duplication_fraction=0.12, duplication_length=400),
    )
    profile = MutationProfile(
        substitution_rate=substitution_rate,
        insertion_rate=indel_rate,
        deletion_rate=indel_rate,
    )
    reads = simulate_reads(reference, n_reads, read_length, profile=profile, seed=seed + 1)

    plain = MrFastMapper(reference, error_threshold, k=seed_length)
    no_filter = plain.map_reads(reads)

    engine = FilterEngine(
        filter_name,
        read_length=read_length,
        error_threshold=error_threshold,
        setup=setup,
        n_devices=n_devices,
        encoding=encoding,
    )
    filtered_mapper = MrFastMapper(
        reference, error_threshold, k=seed_length, prefilter=engine
    )
    filtered = filtered_mapper.map_reads(reads)
    return WholeGenomeRun(
        no_filter=no_filter,
        filtered=filtered,
        read_length=read_length,
        error_threshold=error_threshold,
    )


def whole_genome_mapping_rows(run: WholeGenomeRun) -> list[dict]:
    """Table 3-style rows (mapping information with and without the filter)."""
    rows = []
    for result in (run.no_filter, run.filtered):
        stats = result.stats
        rows.append(
            {
                "mrFAST with": result.filter_name,
                "error_threshold": run.error_threshold,
                "mappings": stats.mappings,
                "mapped_reads": stats.mapped_reads,
                "candidate_pairs": stats.candidate_pairs,
                "verification_pairs": stats.verification_pairs,
                "rejected_pairs": stats.rejected_pairs,
                "reduction_pct": round(100.0 * stats.reduction, 1),
            }
        )
    return rows


#: Extra kernel cost factor observed when the filter runs inside the mapper's
#: workflow (smaller effective batches, per-batch synchronisation — Table 1).
KERNEL_INTEGRATION_OVERHEAD = 2.5


def _integration_timing(
    model: TimingModel,
    setup: SystemSetup,
    n_pairs: int,
    read_length: int,
    error_threshold: int,
    encoding: EncodingActor,
) -> tuple[float, float]:
    """(kernel_s, preprocess_s) of the filter when integrated in the mapper.

    Host-side preparation/encoding uses the mapper's multithreading (partial
    multicore support, Section 3.5), so it is divided across the host cores.
    """
    timing = model.filter_timing(
        n_pairs,
        read_length,
        error_threshold,
        encode_on_device=encoding is EncodingActor.DEVICE,
        host_encode_threads=setup.host.cores,
    )
    kernel = timing.kernel_s * KERNEL_INTEGRATION_OVERHEAD
    preprocess = (timing.encode_s + timing.host_prep_s) / setup.host.cores + timing.transfer_s
    return kernel, preprocess


def table4_speedup_rows(
    reduction: float,
    no_filter_candidates: int = 45_664_847_515,
    read_length: int = 100,
    error_threshold: int = 5,
    setups: Sequence[SystemSetup] = (SETUP_1, SETUP_2),
) -> list[dict]:
    """Table 4: theoretical vs achieved verification speedup at paper scale."""
    rows = []
    surviving = int(round(no_filter_candidates * (1.0 - reduction)))
    for setup in setups:
        model = TimingModel(setup.device, setup.host)
        for encoding in (EncodingActor.DEVICE, EncodingActor.HOST):
            kernel_s, preprocess_s = _integration_timing(
                model, setup, no_filter_candidates, read_length, error_threshold, encoding
            )
            report = compute_speedup(
                n_candidate_pairs=no_filter_candidates,
                n_surviving_pairs=surviving,
                verification_cost_per_pair_s=VERIFICATION_COST_PER_PAIR_S
                * (1.17 if setup is SETUP_2 else 1.0),
                filter_kernel_s=kernel_s,
                filter_preprocess_s=preprocess_s,
                other_mapping_time_s=0.0,
            )
            rows.append(
                {
                    "setup": setup.name,
                    "encoding": encoding.value,
                    "no_filter_dp_h": report.as_row()["no_filter_dp_h"],
                    "theoretical_dp_h": report.as_row()["theoretical_dp_h"],
                    "theoretical_speedup": report.as_row()["theoretical_speedup"],
                    "achieved_dp_h": round(report.filtering_plus_dp_time_s / 3600.0, 2),
                    "achieved_speedup": report.as_row()["achieved_dp_speedup"],
                }
            )
    return rows


def table5_overall_rows(
    reduction: float,
    no_filter_candidates: int = 45_664_847_515,
    other_mapping_time_h: float = 2.86,
    read_length: int = 100,
    error_threshold: int = 5,
    setups: Sequence[SystemSetup] = (SETUP_1, SETUP_2),
) -> list[dict]:
    """Table 5: filtering+DP and overall mapping speedups at paper scale."""
    rows = []
    surviving = int(round(no_filter_candidates * (1.0 - reduction)))
    for setup in setups:
        model = TimingModel(setup.device, setup.host)
        dp_cost = VERIFICATION_COST_PER_PAIR_S * (1.17 if setup is SETUP_2 else 1.0)
        no_filter_dp_h = no_filter_candidates * dp_cost / 3600.0
        rows.append(
            {
                "setup": setup.name,
                "mrFAST with": "NoFilter",
                "filtering_plus_dp_h": round(no_filter_dp_h, 2),
                "dp_speedup": 1.0,
                "overall_h": round(no_filter_dp_h + other_mapping_time_h, 2),
                "overall_speedup": 1.0,
            }
        )
        for encoding in (EncodingActor.DEVICE, EncodingActor.HOST):
            kernel_s, preprocess_s = _integration_timing(
                model, setup, no_filter_candidates, read_length, error_threshold, encoding
            )
            report = compute_speedup(
                n_candidate_pairs=no_filter_candidates,
                n_surviving_pairs=surviving,
                verification_cost_per_pair_s=dp_cost,
                filter_kernel_s=kernel_s,
                filter_preprocess_s=preprocess_s,
                other_mapping_time_s=other_mapping_time_h * 3600.0,
            )
            label = "GateKeeper-GPU (d)" if encoding is EncodingActor.DEVICE else "GateKeeper-GPU (h)"
            rows.append(
                {
                    "setup": setup.name,
                    "mrFAST with": label,
                    "filtering_plus_dp_h": round(report.filtering_plus_dp_time_s / 3600.0, 2),
                    "dp_speedup": round(report.achieved_verification_speedup, 1),
                    "overall_h": round(report.filtered_overall_s / 3600.0, 2),
                    "overall_speedup": round(report.overall_speedup, 2),
                }
            )
    return rows


# --------------------------------------------------------------------------- #
# Table 6 / Sup. Table S.27: power consumption
# --------------------------------------------------------------------------- #
def table6_power_rows(
    read_lengths: Sequence[int] = (100, 250),
    setups: Sequence[SystemSetup] = (SETUP_1, SETUP_2),
) -> list[dict]:
    """Power consumption of a single device for 100 bp and 250 bp kernels."""
    rows = []
    for setup in setups:
        model = PowerModel(setup.device)
        for encode_on_device in (True, False):
            for length in read_lengths:
                sample = model.sample(length, encode_on_device=encode_on_device)
                rows.append(
                    {
                        "setup": setup.name,
                        "encoding": "device" if encode_on_device else "host",
                        "read_length": length,
                        "power_min_mw": round(sample.min_mw),
                        "power_max_mw": round(sample.max_mw),
                        "power_avg_mw": round(sample.average_mw),
                    }
                )
    return rows


# --------------------------------------------------------------------------- #
# Figures 6-8 and S.12-S.15: throughput trends
# --------------------------------------------------------------------------- #
def encoding_actor_rows(
    read_length: int = 100,
    thresholds: Sequence[int] = (0, 1, 2, 3, 4, 5, 6),
    n_pairs: int = PAPER_PAIR_COUNT,
    setups: Sequence[SystemSetup] = (SETUP_1, SETUP_2),
) -> list[dict]:
    """Figure 6 / Sup. Tables S.17-S.19: encoding actor vs throughput."""
    rows = []
    for setup in setups:
        model = TimingModel(setup.device, setup.host)
        for threshold in thresholds:
            row = {"setup": setup.name, "read_length": read_length, "error_threshold": threshold}
            for encode_on_device in (True, False):
                tag = "device" if encode_on_device else "host"
                timing = model.filter_timing(
                    n_pairs, read_length, threshold, encode_on_device=encode_on_device
                )
                row[f"{tag}_kernel_mps"] = round(n_pairs / timing.kernel_s / 1e6, 1)
                row[f"{tag}_filter_mps"] = round(n_pairs / timing.filter_s / 1e6, 1)
            rows.append(row)
    return rows


def read_length_rows(
    error_threshold: int = 4,
    read_lengths: Sequence[int] = (100, 150, 250),
    n_pairs: int = PAPER_PAIR_COUNT,
    setups: Sequence[SystemSetup] = (SETUP_1, SETUP_2),
) -> list[dict]:
    """Figure 7 / Sup. Table S.20: read length vs filtering throughput."""
    rows = []
    for setup in setups:
        model = TimingModel(setup.device, setup.host)
        for length in read_lengths:
            row = {"setup": setup.name, "read_length": length, "error_threshold": error_threshold}
            for encode_on_device in (True, False):
                tag = "device" if encode_on_device else "host"
                timing = model.filter_timing(
                    n_pairs, length, error_threshold, encode_on_device=encode_on_device
                )
                row[f"{tag}_filter_mps"] = round(n_pairs / timing.filter_s / 1e6, 2)
            rows.append(row)
    return rows


def multi_gpu_rows(
    read_length: int = 100,
    error_threshold: int = 2,
    device_counts: Sequence[int] = (1, 2, 3, 4, 5, 6, 7, 8),
    n_pairs: int = PAPER_PAIR_COUNT,
    setup: SystemSetup = SETUP_1,
) -> list[dict]:
    """Figure 8 / Sup. Tables S.21-S.23: scaling with the number of devices."""
    model = TimingModel(setup.device, setup.host)
    rows = []
    for count in device_counts:
        row = {"n_devices": count, "read_length": read_length, "error_threshold": error_threshold}
        for encode_on_device in (True, False):
            tag = "device" if encode_on_device else "host"
            timing = model.filter_timing(
                n_pairs,
                read_length,
                error_threshold,
                encode_on_device=encode_on_device,
                n_devices=count,
            )
            row[f"{tag}_kernel_mps"] = round(n_pairs / timing.kernel_s / 1e6)
            row[f"{tag}_filter_mps"] = round(n_pairs / timing.filter_s / 1e6)
        rows.append(row)
    return rows


def error_threshold_filter_time_rows(
    read_length: int = 250,
    thresholds: Sequence[int] = (0, 1, 2, 4, 6, 8, 10),
    n_pairs: int = PAPER_PAIR_COUNT,
    setups: Sequence[SystemSetup] = (SETUP_1, SETUP_2),
) -> list[dict]:
    """Figure S.12 / Sup. Table S.16: filter time vs error threshold, CPU vs GPU."""
    rows = []
    for threshold in thresholds:
        row = {"error_threshold": threshold, "read_length": read_length}
        for setup in setups:
            gpu = TimingModel(setup.device, setup.host)
            cpu = CpuTimingModel(setup.host)
            row[f"{setup.name} 12-core CPU_s"] = round(
                cpu.filter_time(n_pairs, read_length, threshold, threads=12), 1
            )
            row[f"{setup.name} device-enc GPU_s"] = round(
                gpu.filter_timing(n_pairs, read_length, threshold, encode_on_device=True).filter_s, 1
            )
            row[f"{setup.name} host-enc GPU_s"] = round(
                gpu.filter_timing(n_pairs, read_length, threshold, encode_on_device=False).filter_s, 1
            )
        rows.append(row)
    return rows


def occupancy_rows(
    setups: Sequence[SystemSetup] = (SETUP_1, SETUP_2),
    read_lengths: Sequence[int] = (100, 250),
) -> list[dict]:
    """Section 5.4.1: occupancy, warp execution efficiency and SM efficiency."""
    rows = []
    for setup in setups:
        profiler = KernelProfiler(setup.device)
        for encode_on_device in (True, False):
            for length in read_lengths:
                threshold = 4 if length == 100 else 10
                report = profiler.profile(length, threshold, encode_on_device=encode_on_device)
                rows.append(report.as_dict())
    return rows

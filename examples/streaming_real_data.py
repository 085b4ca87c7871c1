"""Streaming a real FASTQ read file against a FASTA reference in bounded memory.

This example builds a small "real" dataset on disk (a FASTA reference and a
FASTQ read set, exactly the files a sequencer + assembler would hand you),
then declares a ``reads`` workload over them and runs it chunk by chunk:

* reads are streamed from the FASTQ (never materialised as a list),
* the mapper index proposes candidate locations per read,
* each chunk is sharded across the simulated devices and filtered,
* survivors are verified immediately, and only counters survive the chunk.

The workload is also written next to the data, and the equivalent
``repro run`` invocation is printed at the end; drop ``--table`` for the JSON
report, or edit the file's filter section (for example
``"cascade": ["gatekeeper-gpu", "sneakysnake"]``) for variations.

Run from the repository root:

    PYTHONPATH=src python examples/streaming_real_data.py
"""

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis import format_table
from repro.api import Session, Workload
from repro.genomics import Sequence, write_fasta, write_fastq
from repro.simulate.genome import GenomeProfile, generate_reference
from repro.simulate.reads import simulate_reads


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro_stream_"))
    fasta = workdir / "reference.fasta"
    fastq = workdir / "reads.fastq"

    # 1. A repetitive 10 kbp genome and 300 simulated 100 bp reads, on disk.
    reference = generate_reference(
        10_000, profile=GenomeProfile(duplication_fraction=0.15), seed=1
    )
    write_fasta(fasta, [Sequence(reference.name, reference.bases)])
    write_fastq(fastq, simulate_reads(reference, n_reads=300, read_length=100, seed=2))

    # 2. Stream the FASTQ against the reference: chunked, 2 devices.
    workload = Workload.from_dict(
        {
            "input": {"kind": "reads", "path": str(fastq), "reference": str(fasta)},
            "filter": {"filter": "gatekeeper-gpu", "error_threshold": 5},
            "execution": {"mode": "streaming", "chunk_size": 200, "n_devices": 2},
        }
    )
    workload_file = workdir / "workload.json"
    workload_file.write_text(workload.to_json())
    result = Session().run(workload)
    streaming = result.streaming

    print(format_table([result.summary], title=f"{result.filter} (streamed)"))
    print()
    print(format_table([streaming], title="Streaming execution"))
    print()
    print(format_table(result.chunks, title="Per-chunk accounting"))
    print()
    print(
        f"Overlapped streams finish in {streaming['overlapped_time_s'] * 1e3:.3f} ms vs "
        f"{streaming['serial_time_s'] * 1e3:.3f} ms serial "
        f"({streaming['overlap_speedup']:.2f}x modelled)."
    )
    print()
    print("CLI equivalent:")
    print(f"  repro run {workload_file} --table")


if __name__ == "__main__":
    main()

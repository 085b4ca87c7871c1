"""Span recorder and the wrappers that time the program's layers from outside.

Nothing under ``src/`` is edited: :class:`Tracer` monkeypatches the public
layer functions for as long as it is installed and restores the originals on
exit.  Spans stay in memory as ``(id, name, start, end, parent, thread, run)``
tuples; ``run`` is the id of the ``api.run`` span (one ``Session.run``) the
span belongs to.  Spans on executor worker threads take the submitting
``exec.fanout`` span as their parent; spans on other threads with no parent
of their own (the streaming prefetch producer) are orphans and are assigned
to the ``api.run`` span whose interval contains their start.

Self time is a span's duration minus the part of it its children cover.
:func:`layer_metrics` turns one measured window's spans into the per-layer
metrics named in ``BENCHMARK.json``.

Times come from ``time.perf_counter`` (``CLOCK_MONOTONIC`` on Linux), so
spans written by the traced serve daemon share the harness's clock.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterator

ROOT = "api.run"
#: Filters the workloads run, by registry name (metric names use these).
FILTERS = ("gatekeeper-gpu", "sneakysnake", "shouji")
#: Spans that build a workload's input during a cold start.
INPUT_BUILD = ("simulate.build_dataset", "genomics.load_reference", "mapper.index_build")
#: Per-layer share metric -> the span name whose self time it sums.
SHARES = {
    "exec.fanout_pct": "exec.fanout",
    "genomics.select_pct": "genomics.select",
    "genomics.encode_pct": "genomics.encode",
    "genomics.parse_pct": "genomics.parse",
    "mapper.seed_pct": "mapper.seed",
    "runtime.consumer_wait_pct": "runtime.consumer_wait",
    "align.verify_pct": "align.verify",
}


class Recorder:
    """Thread-safe in-memory store of spans and per-span counts."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None, str, int | None]] = []
        self.counts: dict[int, dict[str, float]] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        #: id(batch) -> (span id, run id) of the fan-out that submitted it.
        self.fanout_parents: dict[int, tuple[int, int | None]] = {}

    def _thread(self) -> "tuple[list[tuple[int, int | None]], str]":
        local = self._local
        try:
            return local.stack, local.name
        except AttributeError:
            local.stack, local.name = [], threading.current_thread().name
            return local.stack, local.name

    def open(self, name: str, parent: "tuple[int, int | None] | None" = None) -> tuple:
        """Start a span; its parent is ``parent`` or this thread's open span."""
        stack, thread = self._thread()
        if parent is None and stack:
            parent = stack[-1]
        sid = next(self._ids)
        if parent is None:
            entry, parent_id = (sid, sid if name == ROOT else None), None
        else:
            entry, parent_id = (sid, parent[1]), parent[0]
        stack.append(entry)
        return (sid, name, parent_id, entry[1], stack, thread, time.perf_counter())

    def close(self, token: tuple, counts: "dict[str, float] | None" = None) -> None:
        end = time.perf_counter()
        sid, name, parent, run, stack, thread, start = token
        stack.pop()
        if counts is not None:
            self.counts[sid] = counts
        self.spans.append((sid, name, start, end, parent, thread, run))

    def leaf(self, name: str, start: float, counts: "dict[str, float] | None" = None) -> None:
        """Record a span that began at ``start``, ends now and has no children.

        Cheaper than :meth:`open` + :meth:`close` (nothing is pushed), which
        matters for the thousands of per-read spans of a streamed run.
        """
        end = time.perf_counter()
        stack, thread = self._thread()
        sid = next(self._ids)
        parent, run = stack[-1] if stack else (None, None)
        if counts is not None:
            self.counts[sid] = counts
        self.spans.append((sid, name, start, end, parent, thread, run))

    def dump(self, path: "str | Path") -> None:
        """Write every span and count as compact JSON."""
        payload = {
            "fields": ["id", "name", "start", "end", "parent", "thread", "run"],
            "spans": self.spans,
            "counts": {str(k): v for k, v in self.counts.items()},
        }
        Path(path).write_text(json.dumps(payload, separators=(",", ":")))

    @staticmethod
    def load(path: "str | Path") -> "Recorder":
        payload = json.loads(Path(path).read_text())
        recorder = Recorder()
        recorder.spans = [tuple(s) for s in payload["spans"]]
        recorder.counts = {int(k): v for k, v in payload["counts"].items()}
        return recorder


# --------------------------------------------------------------------------- #
# Wrappers
# --------------------------------------------------------------------------- #
def _wrap(recorder: Recorder, func: Callable, name: "str | Callable",
          parent: "Callable | None" = None, counts: "Callable | None" = None,
          on_enter: "Callable | None" = None) -> Callable:
    """``func`` timed as a span called ``name`` (or ``name(*args)``).

    ``parent(*args)`` names a parent on another thread, ``counts(result,
    *args)`` the counts stored with the span, and ``on_enter(token, *args)``
    runs at span start and returns a callable run at its end.
    """
    open_, close = recorder.open, recorder.close
    name_of = name if callable(name) else None

    @functools.wraps(func)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        token = open_(name_of(*args) if name_of else name, parent(*args) if parent else None)
        undo = on_enter(token, *args) if on_enter else None
        ok = False
        try:
            result = func(*args, **kwargs)
            ok = True
            return result
        finally:
            if undo is not None:
                undo()
            close(token, counts(result, *args) if ok and counts else None)

    return wrapper


def _leaf(recorder: Recorder, func: Callable, name: "str | Callable",
          counts: "Callable | None" = None) -> Callable:
    """Like :func:`_wrap` for a layer that opens no spans of its own.

    A call that raises records no span.
    """
    leaf = recorder.leaf
    name_of = name if callable(name) else None

    @functools.wraps(func)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        start = time.perf_counter()
        result = func(*args, **kwargs)
        leaf(name_of(*args) if name_of else name, start, counts(result, *args) if counts else None)
        return result

    return wrapper


def _traced_reads(recorder: Recorder, func: Callable) -> Callable:
    """Time every ``next()`` of the read-file generator, not its lifetime."""
    leaf = recorder.leaf

    @functools.wraps(func)
    def wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
        records = func(*args, **kwargs)
        while True:
            start = time.perf_counter()
            try:
                record = next(records)
            except StopIteration:
                return
            leaf("genomics.parse", start)
            yield record

    return wrapper


class Tracer:
    """Install the layer wrappers on enter, restore the originals on exit."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._saved: list[tuple[Any, str, Any]] = []

    def _patch(self, owner: Any, attr: str, make: Callable[[Callable], Any]) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        if isinstance(original, classmethod):
            setattr(owner, attr, classmethod(make(original.__func__)))
        else:
            setattr(owner, attr, make(original))

    def __enter__(self) -> "Tracer":
        from repro.align.verification import Verifier
        from repro.api.session import Session
        from repro.engine.engine import FilterEngine
        from repro.exec import executor
        from repro.genomics.encoding import EncodedPairBatch
        from repro.mapper.index import KmerIndex
        from repro.mapper.seeding import Seeder
        from repro.runtime import sources
        from repro.runtime.streaming import StreamingPipeline
        from repro.simulate import datasets

        rec = self.recorder
        fanouts = rec.fanout_parents

        def register_fanout(token: tuple, _self: Any, _runner: Any, _engine: Any,
                            pairs: Any, *_: Any) -> Callable[[], None]:
            fanouts[id(pairs)] = (token[0], token[3])
            return lambda: fanouts.pop(id(pairs), None)

        def engine_counts(result: Any, *_: Any) -> dict[str, float]:
            return {"pairs": len(result[1]), "accepted": int(result[1].sum())}

        patches: list[tuple[Any, str, Callable[[Callable], Any]]] = [
            (Session, "run", lambda f: _wrap(rec, f, ROOT)),
            (FilterEngine, "filter_encoded_share", lambda f: _leaf(
                rec, f, lambda engine, *_: "engine." + engine.filter.name.lower(),
                counts=engine_counts)),
            (executor.ThreadExecutor, "run_shares", lambda f: _wrap(
                rec, f, "exec.fanout", on_enter=register_fanout,
                counts=lambda _r, ex, *_: {"workers": ex.workers})),
            (executor, "run_share", lambda f: _wrap(
                rec, f, "exec.share", parent=lambda _runner, _engine, pairs, _s:
                fanouts.get(id(pairs)))),
            (EncodedPairBatch, "select", lambda f: _leaf(rec, f, "genomics.select")),
            (EncodedPairBatch, "from_lists", lambda f: _leaf(rec, f, "genomics.encode")),
            (sources, "iter_reads", lambda f: _traced_reads(rec, f)),
            (sources, "load_reference", lambda f: _leaf(rec, f, "genomics.load_reference")),
            (Seeder, "candidates", lambda f: _leaf(
                rec, f, "mapper.seed", counts=lambda r, *_: {"candidates": len(r)})),
            (KmerIndex, "__init__", lambda f: _leaf(rec, f, "mapper.index_build")),
            (StreamingPipeline, "run_pairs", lambda f: _wrap(
                rec, f, "runtime.run_pairs", counts=lambda r, *_: {"chunks": r.n_chunks})),
            (Verifier, "verify", lambda f: _leaf(
                rec, f, "align.verify", counts=lambda r, *_: {"accepted": int(r.accepted)})),
            (datasets, "build_dataset", lambda f: _leaf(rec, f, "simulate.build_dataset")),
        ]
        for owner, attr, make in patches:
            self._patch(owner, attr, make)
        return self

    def __exit__(self, *exc_info: object) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# --------------------------------------------------------------------------- #
# Analysis
# --------------------------------------------------------------------------- #
def _covered(intervals: "list[tuple[float, float]]", lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list, same_thread_only: bool = False) -> dict[int, float]:
    """Span id -> duration minus the part of it its children cover."""
    by_id = {s[0]: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        parent = by_id.get(s[4]) if s[4] is not None else None
        if parent is None or (same_thread_only and parent[5] != s[5]):
            continue
        children.setdefault(parent[0], []).append((s[2], s[3]))
    return {
        s[0]: (s[3] - s[2]) - _covered(children.get(s[0], []), s[2], s[3])
        for s in spans
    }


def _ops(spans: list, window: "tuple[float, float]") -> "dict[int, list]":
    """Root span id -> every span of that ``Session.run`` inside the window."""
    lo, hi = window
    roots = sorted(
        (s for s in spans if s[1] == ROOT and s[4] is None and lo <= s[2] and s[3] <= hi),
        key=lambda s: s[2],
    )
    ops: dict[int, list] = {root[0]: [root] for root in roots}
    starts = [root[2] for root in roots]
    for s in spans:
        if s[1] == ROOT and s[0] in ops:
            continue
        if s[6] in ops:
            ops[s[6]].append(s)
        elif s[6] is None and s[4] is None:
            # Orphan (prefetch producer thread): the op running when it began.
            i = bisect.bisect_right(starts, s[2]) - 1
            if i >= 0 and s[2] <= roots[i][3]:
                ops[roots[i][0]].append(s)
    return ops


def layer_metrics(recorder: Recorder, window: "tuple[float, float]") -> dict[str, float]:
    """Per-layer metrics of the ``Session.run`` calls inside ``window``.

    Shares (``*_pct``) are a layer's self time over the run's wall time and
    counts are per run, both averaged over runs (a mixed workload's layers
    used by one request type still show); ratios and per-pair costs pool the
    whole window.
    """
    spans, counts = recorder.spans, recorder.counts
    ops = _ops(spans, window)
    if not ops:
        raise RuntimeError("no traced Session.run inside the measured window")
    own = self_times(spans)
    own_thread = self_times(spans, same_thread_only=True)
    per_run: dict[str, list[float]] = defaultdict(list)
    pool: dict[str, float] = defaultdict(float)

    for root_id, members in ops.items():
        wall = members[0][3] - members[0][2]
        busy: dict[str, float] = defaultdict(float)
        n: dict[str, float] = defaultdict(float)
        for sid, name, start, end, *_ in members[1:]:
            c = counts.get(sid, {})
            if name == "runtime.run_pairs":
                # Consumer wait: run_pairs minus its own-thread child spans.
                busy["runtime.consumer_wait"] += own_thread[sid]
                n["runtime.chunks"] += c["chunks"]
                continue
            if name == "exec.share":
                pool["exec.busy"] += end - start
                continue
            n[name] += 1
            if name == "exec.fanout":
                busy[name] += end - start
                pool["exec.capacity"] += c["workers"] * (end - start)
                continue
            busy[name] += own[sid]
            if name.startswith("engine."):
                n[name + ".pairs"] += c["pairs"]
                n["engine.busy"] += end - start
                for key in (name, "engine"):
                    pool[key + ".pairs"] += c["pairs"]
                    pool[key + ".accepted"] += c["accepted"]
                    pool[key + ".busy"] += end - start
            elif name == "mapper.seed":
                pool["mapper.seed"] += 1
                pool["mapper.candidates"] += c["candidates"]
            elif name == "align.verify":
                pool["align.verify"] += 1
                pool["align.verify_accepted"] += c["accepted"]
        row = {
            "api.run_s": wall,
            "api.run_self_s": own[root_id],
            "trace.coverage_pct": 100.0 * (1.0 - own[root_id] / wall),
            "engine.busy_s": n["engine.busy"],
            "genomics.encode_calls": n["genomics.encode"],
            "runtime.chunks": n["runtime.chunks"],
            "align.verify_calls": n["align.verify"],
        }
        for key, layer in SHARES.items():
            row[key] = 100.0 * busy[layer] / wall
        for f in FILTERS:
            row[f"engine.{f}.busy_pct"] = 100.0 * busy[f"engine.{f}"] / wall
            row[f"engine.{f}.pairs"] = n[f"engine.{f}.pairs"]
        for key, value in row.items():
            per_run[key].append(value)

    def ratio(a: str, b: str, scale: float = 1.0) -> float:
        return scale * pool[a] / pool[b] if pool[b] else 0.0

    metrics = {key: statistics.fmean(values) for key, values in per_run.items()}
    metrics["engine.ns_per_pair"] = ratio("engine.busy", "engine.pairs", 1e9)
    metrics["engine.gatekeeper-gpu.ns_per_pair"] = ratio(
        "engine.gatekeeper-gpu.busy", "engine.gatekeeper-gpu.pairs", 1e9)
    for f in FILTERS:
        metrics[f"engine.{f}.accept_ratio"] = ratio(
            f"engine.{f}.accepted", f"engine.{f}.pairs")
    metrics["exec.parallel_efficiency"] = ratio("exec.busy", "exec.capacity")
    metrics["mapper.candidates_per_read"] = ratio("mapper.candidates", "mapper.seed")
    metrics["align.true_accept_ratio"] = ratio("align.verify_accepted", "align.verify")
    return metrics


def input_build_s(recorder: Recorder, window: "tuple[float, float]") -> float:
    """Time a cold start spent building its input (simulation, reference, index)."""
    lo, hi = window
    return sum(
        s[3] - s[2] for s in recorder.spans
        if s[1] in INPUT_BUILD and lo <= s[2] and s[3] <= hi
    )

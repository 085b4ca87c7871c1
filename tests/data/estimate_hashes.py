"""Hash every filter's estimates, to show a kernel change left them unchanged.

    PYTHONPATH=src python tests/data/estimate_hashes.py > hashes.txt

Prints one ``filter set e sha256`` line per case: every registered filter
(:func:`~repro.engine.available_filters`) plus Shouji at windows 1, 3 and 8,
through ``filter_batch(..., tier="numpy")`` (estimates and decisions) on
4,000 pairs (seed 0) of Sets 1, 3, 4, 5, 8 and 12 at e in {0, 2, 5, 10};
then each filter's uncompiled native twin (``repro.filters.native._kernels``,
plain Python whether or not Numba is installed) on the first 200 pairs of
each case.  Run it in a copy of the parent commit and of the change and diff
the two outputs: a kernel change must move speed, never an estimate.  The
twins are Python loops, so a run takes a few minutes.
"""

from __future__ import annotations

import hashlib

import numpy as np

SETS = ("Set 1", "Set 3", "Set 4", "Set 5", "Set 8", "Set 12")
THRESHOLDS = (0, 2, 5, 10)
N_PAIRS = 4_000
TWIN_PAIRS = 200
SHOUJI_WINDOWS = (1, 3, 8)


def digest(*arrays: np.ndarray) -> str:
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(np.ascontiguousarray(array).tobytes())
    return sha.hexdigest()


def twin_estimates(flt, pairs) -> np.ndarray:
    """``flt``'s uncompiled twin, called with the arguments its word path passes."""
    from repro.filters.masks import EdgePolicy
    from repro.filters.native import _kernels

    extra = ()
    if flt.native_kernel == "gatekeeper_kernel":
        extra = (flt.edge_policy == EdgePolicy.ONE, flt.count_window, flt.max_zero_run)
    twin = getattr(_kernels, flt.native_kernel)
    return twin(pairs.read_words, pairs.ref_words, pairs.length, flt.error_threshold, *extra)


def main() -> None:
    from repro.engine import available_filters, get_filter
    from repro.simulate import build_dataset

    filters = [(key, key, {}) for key in available_filters()]
    filters += [(f"shouji:w{w}", "shouji", {"window": w}) for w in SHOUJI_WINDOWS]
    for name in SETS:
        pairs = build_dataset(name, N_PAIRS, 0).encoded()
        head = pairs[:TWIN_PAIRS]
        label = name.replace(" ", "")
        for e in THRESHOLDS:
            for tag, key, kwargs in filters:
                flt = get_filter(key, e, **kwargs)
                estimates, accepted = flt.filter_batch(pairs, tier="numpy")
                print(tag, label, e, digest(estimates, accepted), flush=True)
            for tag, key, kwargs in filters:
                flt = get_filter(key, e, **kwargs)
                if flt.native_kernel:
                    print(f"{tag}:twin", label, e, digest(twin_estimates(flt, head)), flush=True)


if __name__ == "__main__":
    main()

"""Reproducible randomness on top of the Philox counter-based generator.

Philox is a keyed counter-mode generator: the stream for a given key is a pure
function of (key, counter), so draws are bit-identical across platforms and
independent of execution order.  Trial i of a Monte Carlo run consumes draw i
of the seed-keyed stream.  `trial_chunks` yields those draws in successive
vectorized chunks of at most TRIAL_CHUNK; concatenated, the chunks are the
exact values of a sequential loop over `master_rng(seed).random()`.
`run_trials` sorts each chunk in place and counts it against the outcome CDF
(a tally does not depend on the order of its draws), then lets it go before
the next is drawn, so a run of any length holds one chunk at a time.

Every emitted artifact records RNG_ID so outputs are reproducible from their
own header.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

RNG_ID = "philox4x64-10"
TRIAL_CHUNK = 1 << 16  # draws per chunk: 512 KiB of doubles

_KEY_MASK = (1 << 128) - 1


def master_rng(seed: int) -> np.random.Generator:
    """Generator whose draw sequence is keyed by `seed` alone."""
    return np.random.Generator(np.random.Philox(key=int(seed) & _KEY_MASK))


def trial_chunks(seed: int, n: int) -> Iterator[np.ndarray]:
    """Uniform doubles for trials 0..n-1 of the seed-keyed stream, in order,
    as chunks of TRIAL_CHUNK draws (the last one may be shorter).

    Concatenated, elementwise identical to n successive
    `master_rng(seed).random()` calls.
    """
    rng = master_rng(seed)
    n = int(n)
    for start in range(0, n, TRIAL_CHUNK):
        yield rng.random(min(TRIAL_CHUNK, n - start))

"""Reproducible randomness on top of the Philox counter-based generator.

Philox is a keyed counter-mode generator: the stream for a given key is a pure
function of (key, counter), so draws are bit-identical across platforms and
independent of execution order.  `master_rng` keys it through a seed sequence
whose one answer is the key, so no OS entropy is read.  Trial i of a Monte
Carlo run consumes draw i of the stream, which `trial_chunks` yields in chunks
of at most TRIAL_CHUNK; `run_trials` sorts and counts each chunk and lets it
go before the next is drawn, so a run of any length holds one chunk at a time.

Every emitted artifact records RNG_ID so outputs are reproducible from their
own header.
"""

from __future__ import annotations

import functools
import numbers
from collections.abc import Iterator

import numpy as np

from .core import require_positive_int
from .errors import InvalidArgumentError

RNG_ID = "philox4x64-10"
TRIAL_CHUNK = 1 << 16  # draws per chunk: 512 KiB of doubles

_KEY_MASK = (1 << 128) - 1


@functools.cache
def _key_sequence() -> type:
    """Philox's seed sequence for a 128-bit key, answering only with its two
    64-bit words; made on first use, so `import shellqm` skips numpy.random."""
    class KeySequence(int, np.random.bit_generator.ISeedSequence):
        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 2 or np.dtype(dtype) != np.uint64:
                raise ValueError("a Philox key is two 64-bit words")
            return np.array([self & (2**64 - 1), self >> 64], dtype=np.uint64)

    return KeySequence


def master_rng(seed: int) -> np.random.Generator:
    """Generator whose draw sequence is keyed by `seed` alone, an integer
    (not a bool) taken mod 2^128."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
        raise InvalidArgumentError(f"seed must be an integer, got {seed!r}")
    return np.random.Generator(np.random.Philox(_key_sequence()(int(seed) & _KEY_MASK)))


def trial_chunks(seed: int, n: int) -> Iterator[np.ndarray]:
    """Uniform doubles for trials 0..n-1 of the seed-keyed stream, in order,
    as chunks of TRIAL_CHUNK draws (the last one may be shorter).

    Concatenated, elementwise identical to n successive
    `master_rng(seed).random()` calls; `n` must be a positive integer.
    """
    require_positive_int(n, "n")
    rng = master_rng(seed)
    return (rng.random(min(TRIAL_CHUNK, n - start)) for start in range(0, n, TRIAL_CHUNK))

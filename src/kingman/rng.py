"""Deterministic random streams for reproducible parallel Monte Carlo.

Each replicate owns an independent counter-based Philox stream whose
128-bit key encodes (master seed, stream id, replicate index), so results
never depend on how replicates are scheduled across threads.
The batch engine draws the same bits: stream heads from one vectorized
Philox over a chunk's keys, longer draws by re-keying one Philox per row.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_MAX_REPLICATE = 1 << 48
_MAX_STREAM = 1 << 16


def replicate_key(seed: int, replicate: int, stream_id: int) -> list[int]:
    """The Philox key of one replicate, as two 64-bit words."""
    if not 0 <= replicate < _MAX_REPLICATE:
        raise ValueError("replicate index out of range")
    if not 0 <= stream_id < _MAX_STREAM:
        raise ValueError("stream id out of range")
    return [seed & _MASK64, (stream_id << 48) | replicate]


def replicate_stream(seed: int, replicate: int, stream_id: int = 0) -> np.random.Generator:
    """Return the Generator owned by one replicate.

    The same (seed, replicate, stream_id) triple always yields the same
    stream, on any platform and under any thread count.
    """
    key = np.array(replicate_key(seed, replicate, stream_id), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def master_stream(seed: int) -> np.random.Generator:
    """A single stream for non-replicated use (interactive sampling)."""
    key = np.array([seed & _MASK64, _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))

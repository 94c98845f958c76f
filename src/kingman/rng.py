"""Deterministic random streams for reproducible parallel Monte Carlo.

Each replicate owns an independent counter-based Philox stream whose
128-bit key encodes (master seed, stream id, replicate index), so results
never depend on how replicates are scheduled across threads.
The batch engine draws the same bits: stream heads from one vectorized
Philox over a chunk's keys, longer draws from one pooled Philox per row,
keyed when a chunk starts and drawn on from block to block.
"""

from __future__ import annotations

import numpy as np

from .indexing import check_count

_MASK64 = (1 << 64) - 1
_MAX_REPLICATE = 1 << 48
_MAX_STREAM = 1 << 16
DEFAULT_SEED = 7  # kingman verify's master seed


def replicate_key(seed: int, replicate: int, stream_id: int) -> list[int]:
    """The Philox key of one replicate, as two 64-bit words."""
    check_count("replicate index", replicate, 0, _MAX_REPLICATE - 1)
    check_count("stream id", stream_id, 0, _MAX_STREAM - 1)
    return [seed & _MASK64, (stream_id << 48) | replicate]


def replicate_stream(seed: int, replicate: int, stream_id: int = 0) -> np.random.Generator:
    """Return the Generator owned by one replicate.

    The same (seed, replicate, stream_id) triple always yields the same
    stream, on any platform and under any thread count.
    """
    key = np.array(replicate_key(seed, replicate, stream_id), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))

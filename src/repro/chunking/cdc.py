"""Content-defined chunking (CDC) — the §5.2 counterfactual.

The paper deliberately dedups with head-aligned fixed blocks and notes it is
"not dividing files to blocks in the best possible manner [19, 39] which is
much more complicated and computation intensive".  This module implements
that best-possible manner — gear-hash CDC à la EndRE/LBFS — so the ablation
benches can quantify exactly what the paper left on the table: fixed blocks
lose all alignment after an insertion, while content-defined boundaries
survive it.

The modelled chunker rolls one table lookup + shift per byte,
``fp = (fp << 1) + gear[b]``, restarting at ``fp = 0`` after every cut.  A
boundary is cut where ``fp & mask == 0`` (``mask`` keeps the low
``bits = avg_size.bit_length() - 1`` bits, so the expected chunk length is
``avg_size``), clamped to [min_size, max_size].

The code computes exactly those boundaries without the per-byte loop.
Carries in ``(fp << 1) + gear[b]`` only move upward, and a byte's gear value
is shifted one place further left per later byte, so after ``bits`` more
bytes it no longer reaches the masked bits.  The test at end position ``p``
therefore depends only on the last ``bits`` bytes:

    h[p] = Σ_{i<bits} (gear[data[p-1-i]] & mask) << i   (mod 2^bits)

Arithmetic modulo 2^bits is what a wrapping unsigned dtype of at least
``bits`` bits gives for free, so one numpy pass builds ``h`` for every
position (uint16 at the default ``bits`` of 13) by doubling the summed
window: 1 → 2 → 4 → … → ≥ bits bytes.  Terms past ``bits`` bytes carry only
bits the mask drops.  The positions with ``h == 0`` are the boundary
candidates, and a sequential walk over them applies min_size and max_size.

The loop's restart at each cut means a test fewer than ``bits`` bytes into
a chunk sees a window truncated at the chunk start.  That window's hash is
``h[p] - (h[start] << (p - start))``, the global hash minus what the bytes
before ``start`` carried in.  The walk evaluates it for those few positions
when ``min_size < bits``, so every parameter triple gives the loop's cuts.
"""

from __future__ import annotations

import random
from typing import List, Tuple

import numpy as np

from .fixed import Chunk, fingerprint

#: Gear table: 256 pseudo-random 64-bit constants (fixed seed → stable
#: boundaries across runs and machines).
_GEAR_RNG = random.Random("repro-gear-table")
_GEAR = np.array([_GEAR_RNG.getrandbits(64) for _ in range(256)],
                 dtype=np.uint64)
#: The table in each width the candidate pass may run in; the cast keeps
#: the low bits, which are the only ones a boundary test reads.
_GEAR_BY_DTYPE = {dtype: _GEAR.astype(dtype)
                  for dtype in (np.uint16, np.uint32, np.uint64)}

DEFAULT_MIN = 2 * 1024
DEFAULT_AVG = 8 * 1024
DEFAULT_MAX = 64 * 1024


def _boundary_bits(avg_size: int) -> int:
    """Number of low hash bits that must be zero at a boundary.

    Expected chunk length is ``avg_size``.  The ``fp = (fp << 1) + gear[b]``
    accumulator concentrates its *high* bits around twice the gear table's
    mean, so the uniformly distributed low bits must carry the boundary test
    (the classic gear-hash pitfall).  The accumulator holds 64 bits, so a
    wider mask tests the same bits as a 64-bit one.
    """
    return min(max(avg_size.bit_length() - 1, 1), 64)


def _boundary_hashes(data: bytes, bits: int) -> np.ndarray:
    """``h[p] & mask`` for every end position ``p`` in ``0..len(data)``.

    ``h[0]`` is the empty window's hash, 0.  Windows near the start of the
    data are truncated there, as the loop's first chunk is.
    """
    dtype = np.uint16 if bits <= 16 else np.uint32 if bits <= 32 else np.uint64
    hashes = np.zeros(len(data) + 1, dtype=dtype)
    # Byte indices are always in range; "clip" skips the buffered check.
    np.take(_GEAR_BY_DTYPE[dtype], np.frombuffer(data, dtype=np.uint8),
            out=hashes[1:], mode="clip")
    width = 1
    while width < bits:
        hashes[width:] += hashes[:-width] << width
        width *= 2
    hashes &= (1 << bits) - 1
    return hashes


def cdc_spans(data: bytes,
              min_size: int = DEFAULT_MIN,
              avg_size: int = DEFAULT_AVG,
              max_size: int = DEFAULT_MAX) -> List[Tuple[int, int]]:
    """(offset, length) spans with content-defined boundaries.

    Boundaries depend only on a sliding window of content, so inserting or
    deleting bytes shifts at most the chunks covering the edit — the
    property fixed-size chunking lacks.
    """
    if not 0 < min_size <= avg_size <= max_size:
        raise ValueError("need 0 < min_size <= avg_size <= max_size")
    n = len(data)
    if n == 0:
        return [(0, 0)]
    bits = _boundary_bits(avg_size)
    mask = (1 << bits) - 1
    hashes = _boundary_hashes(data, bits)
    candidates = np.flatnonzero(hashes == 0)
    spans = []
    start = 0
    while start < n:
        cut = min(start + max_size, n)
        # Ends fewer than ``bits`` bytes into the chunk test a window
        # truncated at ``start``: remove what earlier bytes carried in.
        # The range is empty unless min_size < bits.
        carry = int(hashes[start])
        for end in range(start + min_size, min(start + bits, cut)):
            if (int(hashes[end]) - (carry << (end - start))) & mask == 0:
                cut = end
                break
        index = int(np.searchsorted(candidates, start + max(min_size, bits)))
        if index < len(candidates):
            cut = min(cut, int(candidates[index]))
        spans.append((start, cut - start))
        start = cut
    return spans


def cdc_chunks(data: bytes,
               min_size: int = DEFAULT_MIN,
               avg_size: int = DEFAULT_AVG,
               max_size: int = DEFAULT_MAX,
               keep_data: bool = True) -> List[Chunk]:
    """Fingerprinted content-defined chunks."""
    chunks = []
    for index, (offset, length) in enumerate(
            cdc_spans(data, min_size, avg_size, max_size)):
        piece = data[offset:offset + length]
        chunks.append(Chunk(index=index, offset=offset, length=length,
                            digest=fingerprint(piece),
                            data=piece if keep_data else b""))
    return chunks


def shared_bytes(old: bytes, new: bytes, chunker) -> int:
    """Bytes of ``new`` whose chunks already exist in ``old``'s chunk set.

    ``chunker`` maps bytes → list of Chunk; works for both fixed and CDC
    chunkers, which is what the dedup-resilience ablation compares.
    """
    old_digests = {chunk.digest for chunk in chunker(old)}
    return sum(chunk.length for chunk in chunker(new)
               if chunk.digest in old_digests)

"""Tests for content-defined chunking (the §5.2 footnote counterfactual)."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.chunking import cdc_chunks, cdc_spans, chunk_data, shared_bytes
from repro.chunking.cdc import DEFAULT_AVG, DEFAULT_MAX, DEFAULT_MIN
from repro.content import random_content


def test_spans_partition_exactly():
    data = random_content(300_000, seed=1).data
    spans = cdc_spans(data)
    assert spans[0][0] == 0
    total = 0
    for offset, length in spans:
        assert offset == total
        total += length
    assert total == len(data)


def test_span_length_bounds():
    data = random_content(500_000, seed=2).data
    for offset, length in cdc_spans(data)[:-1]:   # final chunk may be short
        assert DEFAULT_MIN <= length <= DEFAULT_MAX


def test_mean_chunk_near_average():
    data = random_content(1_000_000, seed=3).data
    spans = cdc_spans(data)
    mean = len(data) / len(spans)
    assert DEFAULT_AVG / 2 < mean < DEFAULT_AVG * 2


def test_empty_data():
    assert cdc_spans(b"") == [(0, 0)]


def test_parameter_validation():
    with pytest.raises(ValueError):
        cdc_spans(b"x", min_size=0)
    with pytest.raises(ValueError):
        cdc_spans(b"x", min_size=100, avg_size=50, max_size=200)


def test_deterministic():
    data = random_content(100_000, seed=4).data
    assert cdc_spans(data) == cdc_spans(data)


def test_insert_resilience_beats_fixed():
    """The whole point: a front insert destroys fixed-block alignment but
    leaves content-defined boundaries nearly intact."""
    old = random_content(400_000, seed=5).data
    new = b"PREFIX" + old
    fixed = lambda d: chunk_data(d, 8192)
    cdc = lambda d: cdc_chunks(d)
    assert shared_bytes(old, new, fixed) == 0
    assert shared_bytes(old, new, cdc) > 0.9 * len(old)


def test_identical_data_fully_shared():
    data = random_content(200_000, seed=6).data
    assert shared_bytes(data, data, cdc_chunks) == len(data)


def test_chunks_reassemble():
    data = random_content(150_000, seed=7).data
    chunks = cdc_chunks(data)
    assert b"".join(chunk.data for chunk in chunks) == data


@given(st.binary(min_size=1, max_size=60_000),
       st.integers(min_value=0, max_value=59_999),
       st.binary(min_size=1, max_size=200))
@settings(max_examples=25, deadline=None)
def test_insert_property(data, offset, patch):
    """For any insert, CDC shares at least as many bytes as fixed blocks."""
    offset = offset % (len(data) + 1)
    new = data[:offset] + patch + data[offset:]
    fixed = lambda d: chunk_data(d, 4096)
    cdc = lambda d: cdc_chunks(d, min_size=512, avg_size=2048, max_size=8192)
    assert shared_bytes(data, new, cdc) >= 0
    spans_ok = cdc_spans(new, min_size=512, avg_size=2048, max_size=8192)
    assert sum(length for _, length in spans_ok) == len(new)


# --- differential battery: the vectorised pass against the per-byte loop ---

_REFERENCE_RNG = random.Random("repro-gear-table")
_REFERENCE_GEAR = tuple(_REFERENCE_RNG.getrandbits(64) for _ in range(256))


def reference_spans(data, min_size=DEFAULT_MIN, avg_size=DEFAULT_AVG,
                    max_size=DEFAULT_MAX):
    """The per-byte gear-hash loop that ``cdc_spans`` must reproduce."""
    n = len(data)
    if n == 0:
        return [(0, 0)]
    mask = (1 << max(avg_size.bit_length() - 1, 1)) - 1
    spans = []
    start = 0
    fp = 0
    position = 0
    while position < n:
        fp = ((fp << 1) + _REFERENCE_GEAR[data[position]]) & ((1 << 64) - 1)
        position += 1
        length = position - start
        if length >= max_size or (length >= min_size and (fp & mask) == 0):
            spans.append((start, length))
            start = position
            fp = 0
    if start < n:
        spans.append((start, n - start))
    return spans


#: (min, avg, max) triples.  Boundary bits = avg.bit_length() - 1: 13 at the
#: defaults, 11, 16 (the widest uint16 pass), 17 (uint32), and 1, 3, 4 and 6,
#: where candidates are dense.  Triples with min < bits need the
#: chunk-start truncated window; min == avg == max cuts every chunk at max.
PARAM_GRID = [
    (DEFAULT_MIN, DEFAULT_AVG, DEFAULT_MAX),
    (512, 2048, 8192),
    (1, DEFAULT_AVG, 4 * DEFAULT_AVG),
    (5, 65536, 70_000),
    (16, 65536, 65536),
    (3, 131_072, 200_000),
    (1, 2, 4),
    (1, 3, 3),
    (1, 1, 1),
    (64, 64, 64),
    (2, 4, 8),
    (1, 8, 32),
    (2, 64, 256),
    (3, 16, 16),
]
#: Masks wider than 32 bits (uint64 pass) and than the 64-bit accumulator.
WIDE_PARAMS = [(7, 2 ** 35, 2 ** 35), (1, 2 ** 70, 2 ** 70)]


def _ids(params):
    return "-".join(map(str, params))


@pytest.mark.parametrize("params", PARAM_GRID, ids=_ids)
def test_matches_reference_at_size_edges(params):
    min_size, _, max_size = params
    data = random_content(max_size + 1, seed=21).data
    for size in sorted({0, 1, min_size - 1, min_size, min_size + 1,
                        max_size, max_size + 1}):
        assert cdc_spans(data[:size], *params) == \
            reference_spans(data[:size], *params), size


@pytest.mark.parametrize("params", PARAM_GRID + WIDE_PARAMS, ids=_ids)
def test_matches_reference_on_random_bytes(params):
    data = random_content(100_000, seed=24).data
    assert cdc_spans(data, *params) == reference_spans(data, *params)


@pytest.mark.parametrize("params", PARAM_GRID + WIDE_PARAMS, ids=_ids)
@pytest.mark.parametrize("fill", [0x00, 0x03, 0xFF])
def test_matches_reference_on_constant_bytes(params, fill):
    data = bytes([fill]) * min(3 * params[2] + 1, 300_000)
    assert cdc_spans(data, *params) == reference_spans(data, *params)


def test_constant_input_never_or_always_hits():
    """All-zero input never hits a 13-bit boundary, so only max_size cuts;
    gear[0] is even, so at 1 bit every position is a candidate and only
    min_size holds the cut back."""
    zeros = bytes(5 * DEFAULT_MAX + 7)
    assert {length for _, length in cdc_spans(zeros)[:-1]} == {DEFAULT_MAX}
    assert cdc_spans(zeros)[-1] == (5 * DEFAULT_MAX, 7)
    assert {length for _, length in cdc_spans(zeros[:1000], 1, 2, 4)} == {1}


def test_matches_reference_on_4_mib():
    data = random_content(4 * 1024 * 1024, seed=22).data
    assert cdc_spans(data) == reference_spans(data)


@pytest.mark.parametrize("params", [(DEFAULT_MIN, DEFAULT_AVG, DEFAULT_MAX),
                                    (1, DEFAULT_AVG, 4 * DEFAULT_AVG)],
                         ids=_ids)
@pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
def test_matches_reference_on_buffer_types(params, wrap):
    data = random_content(200_000, seed=23).data
    assert cdc_spans(wrap(data), *params) == reference_spans(data, *params)


_SMALL_PARAMS = st.tuples(st.integers(1, 300), st.integers(1, 300),
                          st.integers(1, 300)).map(lambda t: tuple(sorted(t)))


@given(st.binary(max_size=20_000),
       st.one_of(st.sampled_from(PARAM_GRID + WIDE_PARAMS), _SMALL_PARAMS))
@example(b"", (1, 1, 1))
@example(bytes(20), (1, 2, 4))
@settings(max_examples=300, deadline=None)
def test_matches_reference_on_any_bytes(data, params):
    assert cdc_spans(data, *params) == reference_spans(data, *params)

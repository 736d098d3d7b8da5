"""Differential battery for the replay estimator's one-pass record loop.

``reference_replay_records`` below is the per-modification loop the
estimator used before its hot path was rewritten: a fresh
``random.Random`` per modified record, ``lognormvariate`` per
modification, the full-file wire recomputed for every modification, and
every counter and per-user dict updated in place.  It lives on only here,
as the oracle the production loop must match byte for byte — same
``repr`` (which pins the per-user dict insertion order), same phase-1
dedup candidates — sequentially and through :class:`ReplayPool` at 1 and
2 workers.  Its only change is the candidate rule for zero-length units,
marked where it sits.
"""

import random
from dataclasses import replace
from typing import Dict, List, Optional, Set, Tuple

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.client import SERVICES, AccessMethod, service_profile
from repro.client.profiles import BdsMode, BdsSupport
from repro.cloud.dedup import DedupConfig, DedupGranularity, DedupScope
from repro.trace import (
    SMALL_FILE_THRESHOLD,
    FileRecord,
    ReplayPool,
    ReplayReport,
    Trace,
    generate_trace,
    replay_trace,
)
from repro.trace.replay import (
    _LEVEL_SAVING_FRACTION,
    _MOD_FRACTION_LOG_MU,
    _MOD_FRACTION_LOG_SIGMA,
    _ShardCandidates,
    _fixed_overhead,
    _in_creation_batch,
    _replay_records,
    _unit_digest,
)
from repro.trace.schema import UNIT_SIZE
from repro.units import KB


# ---------------------------------------------------------------------------
# the pre-rewrite loop, kept as the oracle
# ---------------------------------------------------------------------------

def reference_wire_payload(profile, size, compressed):
    saving_fraction = _LEVEL_SAVING_FRACTION[profile.upload_compression.level]
    achievable = max(size - compressed, 0)
    wire = size - int(achievable * saving_fraction)
    return wire + int(profile.overhead.per_byte_factor * wire)


def reference_mod_fractions(seed, profile_name, index, count):
    rng = random.Random(f"replay:{seed}:{profile_name}:{index}")
    return [min(1.0, rng.lognormvariate(_MOD_FRACTION_LOG_MU,
                                        _MOD_FRACTION_LOG_SIGMA))
            for _ in range(count)]


def reference_replay_records(shard, profile, seed, collect_candidates
                             ) -> Tuple[ReplayReport,
                                        Optional[_ShardCandidates]]:
    report = ReplayReport(service=profile.service,
                          access=profile.access.value)
    fixed = _fixed_overhead(profile)
    bds = profile.bds
    small_times: Dict[Tuple[str, str], List[float]] = {}
    for _, record in shard:
        if record.size < SMALL_FILE_THRESHOLD:
            small_times.setdefault((record.service, record.user), []).append(
                record.created_at)
    for times in small_times.values():
        times.sort()

    dedup = profile.dedup
    seen_units: Set = set()
    candidates = _ShardCandidates() if collect_candidates else None

    for index, record in shard:
        report.file_count += 1
        report.data_update_bytes += record.size
        raw_wire = record.size + int(profile.overhead.per_byte_factor
                                     * record.size)
        wire = reference_wire_payload(profile, record.size,
                                      record.compressed_size)
        report.saved_by_compression += max(raw_wire - wire, 0)

        if dedup.enabled:
            shipped = 0
            fresh_units = []
            if dedup.granularity is DedupGranularity.FULL_FILE:
                keys = [(record.full_file_key(), record.size)]
            else:
                keys = list(record.block_keys(dedup.block_size))
            total_len = sum(length for _, length in keys)
            for key, length in keys:
                digest = _unit_digest(key)
                scope_key = digest if dedup.scope is DedupScope.CROSS_USER \
                    else (record.user, digest)
                if scope_key in seen_units:
                    continue
                seen_units.add(scope_key)
                shipped += length
                if collect_candidates:
                    fresh_units.append((digest, length))
            if total_len == 0:
                deduped_wire = wire
            else:
                deduped_wire = wire * shipped // total_len
            report.saved_by_dedup += wire - deduped_wire
            # The one departure from the pre-rewrite loop, which also
            # required total_len > 0 here and so let a pool disagree with
            # sequential replay when a size-0 record's segments claimed a
            # unit first (see _zero_size_claims_block).
            if collect_candidates and fresh_units:
                candidates.add(index, record.user, wire, total_len,
                               fresh_units)
            wire = deduped_wire

        overhead = fixed
        if (record.size < SMALL_FILE_THRESHOLD and bds.mode is not BdsMode.NONE
                and _in_creation_batch(record, small_times)):
            batched = bds.per_file_bytes if bds.mode is BdsMode.FULL \
                else max(bds.per_file_bytes, fixed // 8)
            report.saved_by_bds += max(fixed - batched, 0)
            overhead = batched
        report.traffic_bytes += wire + overhead
        report.overhead_bytes += overhead
        report.upload_events += 1
        report.per_user_traffic[record.user] = \
            report.per_user_traffic.get(record.user, 0) + wire + overhead

        if record.modify_count:
            fractions = reference_mod_fractions(seed, profile.name, index,
                                                record.modify_count)
        else:
            fractions = []
        for fraction in fractions:
            altered = max(1, int(record.size * fraction))
            report.data_update_bytes += altered
            full_wire = reference_wire_payload(profile, record.size,
                                               record.compressed_size)
            if profile.uses_ids:
                blocks = -(-altered // profile.delta_block) + 1
                delta_wire = min(blocks * profile.delta_block, record.size)
                ratio = (record.compressed_size / record.size
                         if record.size else 0.0)
                delta_wire = reference_wire_payload(
                    profile, delta_wire, int(delta_wire * ratio))
                report.saved_by_ids += max(full_wire - delta_wire, 0)
                wire = delta_wire
            else:
                wire = full_wire
            report.traffic_bytes += wire + fixed
            report.overhead_bytes += fixed
            report.upload_events += 1
            report.per_user_traffic[record.user] = \
                report.per_user_traffic.get(record.user, 0) + wire + fixed
            report.per_user_modification_traffic[record.user] = \
                report.per_user_modification_traffic.get(record.user, 0) \
                + wire + fixed
            report.per_user_modification_update[record.user] = \
                report.per_user_modification_update.get(record.user, 0) \
                + altered

    return report, candidates


def reference_replay(records, profile, seed):
    report, _ = reference_replay_records(list(enumerate(records)), profile,
                                         seed, collect_candidates=False)
    return report


# ---------------------------------------------------------------------------
# profiles and records under test
# ---------------------------------------------------------------------------

SEEDS = (0, 1, 42)


def _profiles():
    """Every registry profile, plus variants that combine the mechanisms
    no registry profile combines: IDS with cross-user block dedup and BDS,
    same-user full-file dedup with partial BDS and IDS."""
    profiles = [service_profile(service, access)
                for access in AccessMethod for service in SERVICES]
    dropbox = service_profile("Dropbox", AccessMethod.PC)
    ubuntu = service_profile("UbuntuOne", AccessMethod.PC)
    profiles.append(replace(dropbox, dedup=DedupConfig(
        granularity=DedupGranularity.BLOCK, scope=DedupScope.CROSS_USER,
        block_size=UNIT_SIZE)))
    profiles.append(replace(
        ubuntu, delta_block=4 * KB,
        bds=BdsSupport(mode=BdsMode.PARTIAL, per_file_bytes=40),
        dedup=DedupConfig(granularity=DedupGranularity.FULL_FILE,
                          scope=DedupScope.SAME_USER)))
    return profiles


PROFILES = _profiles()

_SIZES = st.one_of(
    st.sampled_from([0, 1]),
    st.integers(2, 3 * UNIT_SIZE),
    st.integers(2 ** 53 + 1, 2 ** 62),
)


@st.composite
def _record(draw, index):
    size = draw(_SIZES)
    created_at = draw(st.integers(0, 40)) * 1.5    # BDS window is 5 s
    return FileRecord(
        user=draw(st.sampled_from(["u0", "u1", "u2", "u3"])),
        service=draw(st.sampled_from(["S", "T"])),
        path=f"f{index}",
        size=size,
        compressed_size=draw(st.integers(0, size)),
        created_at=created_at,
        modified_at=created_at,
        modify_count=draw(st.integers(0, 40)),
        # A tiny id alphabet, so full-file and block duplicates occur.
        segments=np.asarray(draw(st.lists(st.integers(0, 3), max_size=4)),
                            dtype=np.int64),
    )


@st.composite
def _records(draw, max_size=12):
    count = draw(st.integers(0, max_size))
    return [draw(_record(index)) for index in range(count)]


# ---------------------------------------------------------------------------
# the battery
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(records=_records())
def test_sequential_matches_reference(records):
    trace = Trace(records=records)
    for profile in PROFILES:
        for seed in SEEDS:
            assert repr(replay_trace(trace, profile, seed=seed)) \
                == repr(reference_replay(records, profile, seed)), \
                (profile.name, seed)


@settings(max_examples=60, deadline=None)
@given(records=_records())
def test_candidates_match_reference(records):
    """Phase-1 CROSS_USER candidates are the same columns, so phase 2
    settles the same credits."""
    shard = list(enumerate(records))
    for profile in PROFILES:
        if not (profile.dedup.enabled
                and profile.dedup.scope is DedupScope.CROSS_USER):
            continue
        report, ours = _replay_records(shard, profile, 0, True)
        expected, theirs = reference_replay_records(shard, profile, 0, True)
        assert repr(report) == repr(expected)
        for column in _ShardCandidates.__slots__:
            assert getattr(ours, column) == getattr(theirs, column), column
        assert ours.summary() == theirs.summary()


def _zero_size_claims_block():
    """u0's size-0 record claims block identity [0] (a zero-length unit)
    before u1's 1-byte block with that identity, so sequential replay
    dedups u1's block.  A pool that did not register zero-length units
    as phase-1 candidates shipped it from u1's shard instead."""
    def make(index, user, size):
        return FileRecord(user=user, service="S", path=f"f{index}",
                          size=size, compressed_size=0, created_at=0.0,
                          modified_at=0.0, modify_count=0,
                          segments=np.asarray([0], dtype=np.int64))
    return [make(0, "u0", 0), make(1, "u1", 1)]


@settings(max_examples=12, deadline=None)
@given(records=_records(max_size=16))
@example(records=_zero_size_claims_block())
def test_pool_matches_reference(records):
    trace = Trace(records=records)
    expected = {(index, seed): repr(reference_replay(records, profile, seed))
                for index, profile in enumerate(PROFILES) for seed in SEEDS}
    for workers in (1, 2):
        with ReplayPool(trace, workers=workers) as pool:
            for index, profile in enumerate(PROFILES):
                for seed in SEEDS:
                    assert repr(pool.replay(profile, seed=seed)) \
                        == expected[(index, seed)], \
                        (workers, profile.name, seed)


@pytest.fixture(scope="module")
def small_trace():
    return generate_trace(scale=0.002, seed=5)


@pytest.mark.parametrize("seed", SEEDS)
def test_generated_trace_matches_reference(small_trace, seed):
    """A generator-built trace (heavy-tailed sizes, real modify counts,
    cross-user duplicates), sequentially and at 1 and 2 workers."""
    expected = [repr(reference_replay(small_trace.records, profile, seed))
                for profile in PROFILES]
    assert [repr(replay_trace(small_trace, profile, seed=seed))
            for profile in PROFILES] == expected
    for workers in (1, 2):
        with ReplayPool(small_trace, workers=workers) as pool:
            assert [repr(pool.replay(profile, seed=seed))
                    for profile in PROFILES] == expected

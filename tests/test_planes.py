"""Tests for the plane-packed batch sweep (``repro.summary.planes``).

The load-bearing property: the sweep must reproduce
``pair_edges_reference`` edge for edge for every ordered program pair,
across all four Section 7.2 settings.  On top of that the dense bitset
planes that ``benchmarks/bench_kernel.py`` measures must decode to the
same coordinates ``sweep_blocks`` installs.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings as hyp_settings, strategies as st

from repro.btp.unfold import unfold
from repro.errors import ProgramError
from repro.summary.pairwise import (
    EdgeBlockStore,
    compile_profile,
    pair_edges_reference,
)
from repro.summary.planes import (
    PlaneArena,
    arena_view,
    dense_rows,
    plan_sweeps,
    sweep_blocks,
    words_for_bits,
)
from repro.summary.settings import ALL_SETTINGS, ATTR_DEP_FK
from repro.workloads import auction_n, smallbank

WORKLOADS = {
    "smallbank": smallbank,
    "auction8": lambda: auction_n(8),
}


def _ltps(workload):
    return unfold(workload.programs, 2)


def _reference_blocks(ltps, schema, settings):
    return {
        (ltp_i.name, ltp_j.name): tuple(
            pair_edges_reference(ltp_i, ltp_j, schema, settings)
        )
        for ltp_i in ltps
        for ltp_j in ltps
    }


def _packed_arena(ltps, schema, settings):
    """An arena holding every LTP's compiled profile (post-intern width)."""
    profiles = [compile_profile(ltp, schema, settings) for ltp in ltps]
    interner = schema.interner
    words = words_for_bits(
        max(interner.attr_bit_count, interner.fk_bit_count, 1)
    )
    arena = PlaneArena(words)
    for profile in profiles:
        arena.add(profile)
    return arena


class TestBatchKernelParity:
    """Batch kernel == executable-spec reference, block for block."""

    @pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
    @pytest.mark.parametrize("settings", ALL_SETTINGS, ids=lambda s: s.label)
    def test_store_blocks_match_reference(self, workload_name, settings):
        workload = WORKLOADS[workload_name]()
        ltps = _ltps(workload)
        store = EdgeBlockStore(workload.schema, settings)
        store.register(ltps)
        store.ensure_blocks()
        reference = _reference_blocks(ltps, workload.schema, settings)
        for pair, expected in reference.items():
            assert store.block(*pair) == expected

    @hyp_settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_random_workload_subsets_match_reference(self, data):
        """Property: random SmallBank/Auction(<=8) slices x all four
        Section 7.2 settings agree with ``pair_edges_reference``."""
        source = data.draw(st.sampled_from(sorted(WORKLOADS)))
        workload = WORKLOADS[source]()
        subset = data.draw(
            st.lists(
                st.sampled_from(list(workload.programs)),
                min_size=1,
                max_size=4,
                unique_by=lambda p: p.name,
            )
        )
        settings = data.draw(st.sampled_from(ALL_SETTINGS))
        ltps = unfold(subset, 2)
        store = EdgeBlockStore(workload.schema, settings)
        store.register(ltps)
        store.ensure_blocks()
        for pair, expected in _reference_blocks(
            ltps, workload.schema, settings
        ).items():
            assert store.block(*pair) == expected


def _coords_from_dense(nc_plane, cf_plane, row_count, col_count):
    """Sweep coordinates read back out of ``dense_rows``' bitset planes."""
    stride = (col_count + 7) // 8
    coords = []
    for s in range(row_count):
        nc = int.from_bytes(nc_plane[s * stride : (s + 1) * stride], "little")
        cf = int.from_bytes(cf_plane[s * stride : (s + 1) * stride], "little")
        for t in range(col_count):
            bit = 1 << t
            if (nc | cf) & bit:
                coords.append((s, t, bool(nc & bit), bool(cf & bit)))
    return coords


class TestDenseRoundTrip:
    def test_coords_survive_dense_encoding(self):
        """``dense_rows`` decodes to the coordinates ``sweep_blocks``
        groups into blocks, program pair by program pair."""
        workload = smallbank()
        ltps = _ltps(workload)
        arena = _packed_arena(ltps, workload.schema, ATTR_DEP_FK)
        names = [ltp.name for ltp in ltps]
        rows = list(range(arena.capacity))
        nc_plane, cf_plane = dense_rows(arena_view(arena), rows, rows, True)
        decoded = _coords_from_dense(nc_plane, cf_plane, len(rows), len(rows))
        offset = {name: arena.rows_of(name)[0] for name in names}
        from_blocks = sorted(
            (offset[source] + s, offset[target] + t, nc, cf)
            for (source, target), block in sweep_blocks(
                arena, names, names, True
            ).items()
            for s, t, nc, cf in block
        )
        assert decoded == from_blocks


class TestPlaneArena:
    def test_words_always_leave_top_slot_bit_free(self):
        # Slots round up past the mask's top bit, so every mask fits.
        for bits in range(0, 200):
            assert words_for_bits(bits) * 64 > bits

    def test_remove_reuses_hole(self, smallbank_workload):
        schema = smallbank_workload.schema
        ltps = _ltps(smallbank_workload)
        profiles = [
            compile_profile(ltp, schema, ATTR_DEP_FK) for ltp in ltps[:3]
        ]
        arena = PlaneArena(words_for_bits(schema.interner.attr_bit_count))
        for profile in profiles:
            arena.add(profile)
        capacity = arena.capacity
        first = profiles[0]
        start, count = arena.rows_of(first.name)
        arena.remove(first.name)
        assert first.name not in arena
        arena.add(first)  # same row count: must land back in the hole
        assert arena.rows_of(first.name) == (start, count)
        assert arena.capacity == capacity

    def test_add_is_idempotent(self, smallbank_workload):
        schema = smallbank_workload.schema
        ltp = _ltps(smallbank_workload)[0]
        profile = compile_profile(ltp, schema, ATTR_DEP_FK)
        arena = PlaneArena(words_for_bits(schema.interner.attr_bit_count))
        arena.add(profile)
        packed = arena.rows_packed
        arena.add(profile)
        assert arena.rows_packed == packed

    def test_mask_wider_than_slot_raises(self):
        arena = PlaneArena(1)
        arena._grow(1)
        with pytest.raises(ProgramError):
            arena._put_mask(arena._writes, 0, 1 << 64)

    def test_store_reports_plane_occupancy(self, smallbank_workload):
        store = EdgeBlockStore(smallbank_workload.schema, ATTR_DEP_FK)
        ltps = _ltps(smallbank_workload)
        store.register(ltps)
        assert store.plane_info()["rows"] == 0  # planes pack lazily
        store.ensure_blocks()
        info = store.plane_info()
        assert info["programs"] == len(ltps)
        assert info["rows"] == sum(len(ltp.occurrences) for ltp in ltps)
        assert info["rows"] == info["rows_packed"]
        assert info["words"] >= 1


class TestSweepPlanning:
    def test_full_build_is_one_sweep(self):
        names = ["a", "b", "c"]
        missing = [(i, j) for i in names for j in names]
        plans = plan_sweeps(missing)
        assert len(plans) == 1
        assert sorted(plans[0].sources) == names
        assert sorted(plans[0].targets) == names

    def test_incremental_replace_is_two_sweeps(self):
        # Replacing "b" in {a, b, c} invalidates b's row and b's column.
        names = ["a", "b", "c"]
        missing = [("b", j) for j in names]
        missing += [(i, "b") for i in names if i != "b"]
        plans = plan_sweeps(missing)
        assert len(plans) == 2
        covered = {
            (s, t) for plan in plans for s in plan.sources for t in plan.targets
        }
        assert covered == set(missing)

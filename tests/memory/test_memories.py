"""Unit tests for private and public memory segments."""

import pytest

from repro.memory.address import GlobalAddress
from repro.memory.private import PrivateMemory
from repro.memory.public import MemoryCell, PublicMemory
from repro.core.clocks import VectorClock


class TestPrivateMemory:
    def test_read_write_roundtrip(self):
        memory = PrivateMemory(rank=0)
        memory.write("x", 42)
        assert memory.read("x") == 42
        assert "x" in memory and len(memory) == 1

    def test_read_missing_returns_default(self):
        memory = PrivateMemory(0)
        assert memory.read("missing") is None
        assert memory.read("missing", default=7) == 7

    def test_read_required_raises_for_missing(self):
        with pytest.raises(KeyError):
            PrivateMemory(0).read_required("missing")

    def test_counters_track_accesses(self):
        memory = PrivateMemory(0)
        memory.write("a", 1)
        memory.write("b", 2)
        memory.read("a")
        assert memory.write_count == 2 and memory.read_count == 1

    def test_delete_and_snapshot(self):
        memory = PrivateMemory(0)
        memory.write("a", 1)
        snapshot = memory.snapshot()
        memory.delete("a")
        assert "a" not in memory
        assert snapshot == {"a": 1}

    def test_negative_rank_rejected(self):
        with pytest.raises(ValueError):
            PrivateMemory(-1)

    def test_bool_rank_rejected(self):
        with pytest.raises(TypeError, match="rank must be an int, got bool"):
            PrivateMemory(True)


class TestPublicMemory:
    def test_register_region_and_resolve_cells(self):
        memory = PublicMemory(rank=1, size=16)
        region = memory.register_region("x", 4)
        assert region.owner == 1 and region.base == 0 and len(region) == 4
        assert memory.allocated == 4
        second = memory.register_region("y", 2)
        assert second.base == 4

    def test_duplicate_region_name_rejected(self):
        memory = PublicMemory(0, 8)
        memory.register_region("x", 1)
        with pytest.raises(ValueError):
            memory.register_region("x", 1)

    def test_exhaustion_raises_memory_error(self):
        memory = PublicMemory(0, 4)
        memory.register_region("x", 3)
        with pytest.raises(MemoryError):
            memory.register_region("y", 2)

    def test_read_write_and_counters(self):
        memory = PublicMemory(0, 8)
        address = GlobalAddress(0, 3)
        memory.write(address, "v", writer=2)
        assert memory.read(address) == "v"
        cell = memory.cell(address)
        assert cell.write_count == 1 and cell.read_count == 1
        assert cell.last_writer == 2
        assert memory.total_reads() == 1 and memory.total_writes() == 1

    def test_peek_does_not_count(self):
        memory = PublicMemory(0, 8)
        address = GlobalAddress(0, 0)
        memory.write(address, 1)
        memory.peek(address)
        assert memory.cell(address).read_count == 0

    def test_foreign_address_rejected(self):
        memory = PublicMemory(0, 8)
        with pytest.raises(ValueError):
            memory.read(GlobalAddress(1, 0))

    def test_out_of_bounds_offset_rejected(self):
        memory = PublicMemory(0, 8)
        with pytest.raises(IndexError):
            memory.read(GlobalAddress(0, 8))

    def test_region_containing(self):
        memory = PublicMemory(0, 16)
        memory.register_region("x", 4)
        region = memory.region_containing(GlobalAddress(0, 2))
        assert region is not None and region.name == "x"
        assert memory.region_containing(GlobalAddress(0, 10)) is None

    def test_clock_storage_entries_counts_both_clocks(self):
        memory = PublicMemory(0, 4)
        address = GlobalAddress(0, 0)
        cell = memory.cell(address)
        assert memory.clock_storage_entries() == 0
        cell.access_clock = VectorClock.zeros(3)
        cell.write_clock = VectorClock.zeros(3)
        assert memory.clock_storage_entries() == 6

    def test_snapshot_values(self):
        memory = PublicMemory(0, 3)
        memory.write(GlobalAddress(0, 1), "b")
        assert memory.snapshot_values() == [None, "b", None]

    def test_bool_rank_rejected(self):
        with pytest.raises(TypeError, match="rank must be an int, got bool"):
            PublicMemory(True, 4)

    def test_negative_rank_rejected(self):
        with pytest.raises(ValueError, match="rank must be non-negative"):
            PublicMemory(-1, 4)


class TestSparsePublicMemory:
    """Cells are materialized on first touch; untouched ones read as fresh."""

    def test_cell_is_created_once(self):
        memory = PublicMemory(0, 8)
        address = GlobalAddress(0, 5)
        assert memory.cell(address) is memory.cell(address)
        memory.write(address, "v")
        assert memory.cell(address).value == "v"

    def test_untouched_offsets_read_as_none_without_clocks(self):
        memory = PublicMemory(0, 8)
        assert memory.peek(GlobalAddress(0, 3)) is None
        assert memory.snapshot_values() == [None] * 8
        assert memory.clock_storage_entries() == 0
        assert memory.total_reads() == 0 and memory.total_writes() == 0

    def test_peek_does_not_materialize_a_cell(self):
        memory = PublicMemory(0, 8)
        address = GlobalAddress(0, 3)
        memory.peek(address)
        memory.snapshot_values()
        assert not memory._cells

    def test_snapshot_has_one_value_per_offset(self):
        memory = PublicMemory(0, 256)
        memory.write(GlobalAddress(0, 255), "last")
        values = memory.snapshot_values()
        assert len(values) == 256
        assert values[255] == "last" and values[:255] == [None] * 255

    def test_untouched_out_of_range_offset_raises(self):
        memory = PublicMemory(0, 8)
        for access in (memory.peek, memory.cell, memory.read):
            with pytest.raises(IndexError, match="offset 8 out of bounds"):
                access(GlobalAddress(0, 8))

    def test_totals_sum_only_touched_cells(self):
        memory = PublicMemory(0, 64)
        memory.write(GlobalAddress(0, 1), 1)
        memory.read(GlobalAddress(0, 1))
        memory.read(GlobalAddress(0, 40))
        memory.cell(GlobalAddress(0, 2)).access_clock = VectorClock.zeros(5)
        assert memory.total_reads() == 2 and memory.total_writes() == 1
        assert memory.clock_storage_entries() == 5


class TestMemoryCell:
    def test_defaults(self):
        cell = MemoryCell()
        assert cell.value is None
        assert cell.clock_storage_entries() == 0

    def test_clock_storage_with_one_clock(self):
        cell = MemoryCell(access_clock=VectorClock.zeros(4))
        assert cell.clock_storage_entries() == 4

"""Tests for the SPSC ring: capacity, ordering, ownership discipline."""

import gc
import weakref

import pytest

from repro.errors import ResourceError, RingEmptyError, RingFullError
from repro.mem.ring import SpscRing


class TestBasics:
    def test_fifo_order(self):
        ring = SpscRing(8)
        for i in range(5):
            ring.push(i)
        assert [ring.pop() for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_capacity_enforced(self):
        ring = SpscRing(2)
        ring.push("a")
        ring.push("b")
        assert ring.full
        with pytest.raises(RingFullError):
            ring.push("c")
        assert ring.full_rejections == 1

    def test_pop_empty_raises(self):
        ring = SpscRing(2)
        with pytest.raises(RingEmptyError):
            ring.pop()

    def test_try_variants(self):
        ring = SpscRing(1)
        assert ring.try_pop() is None
        assert ring.try_push("x") is True
        assert ring.try_push("y") is False
        assert ring.try_pop() == "x"

    def test_wraparound(self):
        ring = SpscRing(3)
        for i in range(10):
            ring.push(i)
            assert ring.pop() == i
        assert ring.empty
        assert ring.produced == 10
        assert ring.consumed == 10

    def test_peek_does_not_consume(self):
        ring = SpscRing(4)
        ring.push("a")
        assert ring.peek() == "a"
        assert len(ring) == 1

    def test_invalid_capacity(self):
        with pytest.raises(ResourceError):
            SpscRing(0)


class _Item:
    """A weakref-able ring payload (ints and ``object()`` are not)."""

    def __init__(self, value):
        self.value = value


class TestBatching:
    def test_pop_batch_limits(self):
        ring = SpscRing(16)
        for i in range(10):
            ring.push(i)
        batch = ring.pop_batch(4)
        assert batch == [0, 1, 2, 3]
        assert len(ring) == 6

    def test_pop_batch_drains_partial(self):
        ring = SpscRing(16)
        ring.push(1)
        assert ring.pop_batch(10) == [1]

    def test_push_batch_stops_at_capacity(self):
        ring = SpscRing(3)
        pushed = ring.push_batch([1, 2, 3, 4, 5])
        assert pushed == 3
        assert ring.full

    def test_negative_batch_rejected(self):
        ring = SpscRing(4)
        with pytest.raises(ResourceError):
            ring.pop_batch(-1)


class TestBatchWraparound:
    """Batch ops straddling the capacity boundary (slab index math)."""

    def _offset_ring(self, capacity, offset):
        """A ring whose head/tail sit ``offset`` slots in (forces wraps)."""
        ring = SpscRing(capacity)
        for i in range(offset):
            ring.push(("pre", i))
            ring.pop()
        return ring

    def test_push_batch_straddles_capacity(self):
        ring = self._offset_ring(8, 6)  # tail at 6: batch wraps after 2
        assert ring.push_batch(list(range(5))) == 5
        assert [ring.pop() for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_pop_batch_straddles_capacity(self):
        ring = self._offset_ring(8, 7)  # head at 7: batch wraps after 1
        for i in range(6):
            ring.push(i)
        assert ring.pop_batch(6) == [0, 1, 2, 3, 4, 5]
        assert ring.empty

    def test_drain_into_straddles_capacity(self):
        ring = self._offset_ring(8, 5)
        items = [_Item(i) for i in range(7)]
        refs = [weakref.ref(item) for item in items]
        for item in items:
            ring.push(item)
        del items, item
        buf = []
        n = ring.drain_into(buf, 7)
        assert n == 7
        assert [x.value for x in buf[:n]] == [0, 1, 2, 3, 4, 5, 6]
        assert ring.empty and len(ring) == 0
        # The ring keeps no reference to drained items: once the scratch
        # list lets go, every item is freed.
        del buf
        gc.collect()
        assert all(ref() is None for ref in refs)

    def test_push_batch_count_beyond_items_rejected(self):
        # count > len(items) is a caller bug: nothing is pushed or counted.
        ring = SpscRing(8)
        with pytest.raises(ResourceError):
            ring.push_batch([1, 2], count=3)
        assert ring.empty
        assert ring.produced == 0 and ring.full_rejections == 0
        # The same holds when the ring could not take them all anyway.
        ring = SpscRing(1)
        with pytest.raises(ResourceError):
            ring.push_batch([1], count=2)
        assert ring.produced == 0 and ring.full_rejections == 0

    def test_push_batch_count_prefix(self):
        # count=N pushes only the valid prefix of a reused scratch list.
        ring = SpscRing(8)
        scratch = [10, 11, 12, "stale", "stale"]
        assert ring.push_batch(scratch, count=3) == 3
        assert ring.pop_batch(8) == [10, 11, 12]

    def test_drain_into_start_appends_after_prefix(self):
        a, b = SpscRing(4), SpscRing(4)
        a.push("a0"), a.push("a1")
        b.push("b0")
        buf = []
        n = a.drain_into(buf, 4)
        n += b.drain_into(buf, 4 - n, start=n)
        assert n == 3
        assert buf[:n] == ["a0", "a1", "b0"]

    def test_drain_into_reuses_buffer(self):
        ring = SpscRing(8)
        buf = [None] * 8
        for round_ in range(5):
            offset = round_ % 3
            for i in range(offset):  # shift cursors to vary wrap points
                ring.push(i)
                ring.pop()
            for i in range(6):
                ring.push(i)
            before = id(buf)
            assert ring.drain_into(buf, 6) == 6
            assert id(buf) == before and len(buf) == 8

    def test_wraparound_accounting(self):
        ring = self._offset_ring(4, 3)
        assert ring.push_batch([1, 2, 3, 4, 5, 6]) == 4
        # One rejection per overflowing batch (first refused element).
        assert ring.full_rejections == 1
        assert ring.peak_depth == 4
        assert ring.drain_into([], 2) == 2
        ring.push_batch([7])
        assert ring.peak_depth == 4  # depth 3 now; peak unchanged
        assert ring.produced == 3 + 4 + 1
        assert ring.consumed == 3 + 2

    def test_empty_drain_is_allocation_free(self):
        ring = SpscRing(4)
        buf = []
        assert ring.drain_into(buf, 4) == 0
        assert buf == []
        assert ring.list_allocs == 0

    def test_pop_batch_counts_list_allocs(self):
        ring = SpscRing(4)
        ring.push(1)
        ring.pop_batch(4)
        buf = []
        ring.push(2)
        ring.drain_into(buf, 4)
        assert ring.list_allocs == 1  # pop_batch only; drain_into reuses


class TestOwnership:
    def test_single_producer_enforced(self):
        ring = SpscRing(4)
        producer_a, producer_b = object(), object()
        ring.push(1, owner=producer_a)
        with pytest.raises(ResourceError, match="SPSC"):
            ring.push(2, owner=producer_b)

    def test_single_consumer_enforced(self):
        ring = SpscRing(4)
        ring.push(1)
        consumer_a, consumer_b = object(), object()
        ring.try_pop(owner=consumer_a)
        with pytest.raises(ResourceError, match="SPSC"):
            ring.try_pop(owner=consumer_b)

    def test_same_owner_may_repeat(self):
        ring = SpscRing(4)
        owner = object()
        ring.push(1, owner=owner)
        ring.push(2, owner=owner)
        assert ring.pop(owner=object()) == 1  # first consumer claims

    def test_producer_and_consumer_may_differ(self):
        ring = SpscRing(4)
        ring.claim_producer("p")
        ring.claim_consumer("c")
        ring.push(1, owner="p")
        assert ring.pop(owner="c") == 1

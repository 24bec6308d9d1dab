"""Property tests: the datapath's storage against plain reference models.

``SpscRing`` keeps its items in a deque sized by occupancy, the
``SendBuffer`` allocates its slab on first write and grows it once to
full capacity, and the ``ReceiveBuffer`` keeps ready data as a deque of
chunks with a bisect-sorted reassembly stash.  Random workloads drive
each against a model built from a plain ``list``, ``bytearray`` or
``dict``; after every step the two must agree on every observable.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ResourceError
from repro.mem.ring import SpscRing
from repro.stack.tcp.buffers import MIN_SEND_SLAB, ReceiveBuffer, SendBuffer
from tests.reference_models import ReceiveBufferModel

SEEDS = [0, 1, 2, 3, 17]


class RingModel:
    """The reference semantics of a bounded FIFO with counters."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.items = []
        self.produced = self.consumed = self.full_rejections = 0
        self.peak_depth = self.hwm_depth = 0

    def _pushed(self, n):
        self.produced += n
        depth = len(self.items)
        self.peak_depth = max(self.peak_depth, depth)
        self.hwm_depth = max(self.hwm_depth, depth)

    def try_push(self, item):
        if len(self.items) == self.capacity:
            self.full_rejections += 1
            return False
        self.items.append(item)
        self._pushed(1)
        return True

    def push_batch(self, items, count):
        n = len(items) if count is None else count
        if n > len(items):
            raise ResourceError("count beyond items")
        free = self.capacity - len(self.items)
        if n > free:
            self.full_rejections += 1
            n = free
        if n <= 0:
            return 0
        self.items.extend(items[:n])
        self._pushed(n)
        return n

    def pop(self, max_items):
        taken = self.items[:max_items]
        del self.items[:max_items]
        self.consumed += len(taken)
        return taken

    def take_hwm(self):
        hwm, self.hwm_depth = self.hwm_depth, len(self.items)
        return hwm


def _observe_ring(ring):
    return (ring.snapshot(), len(ring), ring.empty, ring.full,
            ring.free_slots, ring.produced, ring.consumed,
            ring.full_rejections, ring.peak_depth, ring.hwm_depth)


def _observe_model(model):
    depth = len(model.items)
    return (list(model.items), depth, depth == 0, depth == model.capacity,
            model.capacity - depth, model.produced, model.consumed,
            model.full_rejections, model.peak_depth, model.hwm_depth)


@pytest.mark.parametrize("seed", SEEDS)
def test_ring_matches_list_model(seed):
    rng = random.Random(seed)
    capacity = rng.randint(1, 8)
    ring, model = SpscRing(capacity), RingModel(capacity)
    owner = object()
    scratch = []
    next_item = 0
    raised = 0
    for step in range(1500):
        roll = rng.random()
        where = (seed, step)
        if roll < 0.30:
            got = ring.try_push(next_item, owner=owner)
            assert got == model.try_push(next_item), where
            next_item += 1
        elif roll < 0.50:
            # A reused scratch list with a valid prefix, as producers
            # pass it; count may overrun the list on purpose.
            scratch[:] = range(next_item, next_item + rng.randint(0, 6))
            next_item += len(scratch)
            count = (None if rng.random() < 0.2
                     else rng.randint(-1, len(scratch) + 1))
            try:
                expected = model.push_batch(scratch, count)
            except ResourceError:
                with pytest.raises(ResourceError):
                    ring.push_batch(scratch, owner=owner, count=count)
                raised += 1
            else:
                got = ring.push_batch(scratch, owner=owner, count=count)
                assert got == expected, where
        elif roll < 0.60:
            got = ring.try_pop(owner=owner)
            expected = model.pop(1)
            assert got == (expected[0] if expected else None), where
        elif roll < 0.70:
            max_items = rng.randint(0, capacity + 1)
            got = ring.pop_batch(max_items, owner=owner)
            assert got == model.pop(max_items), where
        elif roll < 0.90:
            # A scratch list holding a valid prefix of ``start`` items
            # from an earlier drain, sometimes too short for this one.
            start = rng.randint(0, 3)
            buf = ["keep"] * rng.randint(start, 6)
            max_items = rng.randint(0, capacity + 1)
            n = ring.drain_into(buf, max_items, owner=owner, start=start)
            assert buf[start:start + n] == model.pop(max_items), where
            assert buf[:start] == ["keep"] * start, where
        elif roll < 0.95:
            expected = model.items[0] if model.items else None
            assert ring.peek(owner=owner) == expected, where
        else:
            assert ring.take_hwm() == model.take_hwm(), where
        assert _observe_ring(ring) == _observe_model(model), where
    # The workload must reach the interesting edges.
    assert raised > 0
    assert ring.full_rejections > 0
    assert ring.peak_depth == capacity


def _write_len(rng, capacity):
    roll = rng.random()
    if roll < 0.6:
        return rng.randint(0, 200)
    if roll < 0.9:
        return rng.randint(200, MIN_SEND_SLAB + 500)
    return rng.randint(0, capacity)


@pytest.mark.parametrize("seed,capacity", list(zip(
    SEEDS, [3000, MIN_SEND_SLAB, 9000, 20000, 65536])))
def test_send_buffer_matches_bytearray_model(seed, capacity):
    rng = random.Random(seed)
    buf = SendBuffer(capacity)
    model = bytearray()
    acked = 0           # stream offset of model[0]
    written = 0         # stream offset one past the last byte written
    views = []          # (view, stream offset of its first byte, bytes)
    sizes = {0}
    grew_under_view = False
    # The slab is empty until the first write.
    assert len(buf._slab) == 0 and len(buf) == 0
    for step in range(800):
        where = (seed, step)
        roll = rng.random()
        slab_before = len(buf._slab)
        if roll < 0.45:
            if model:
                # Transmit-then-write, as the engine does: hold a view
                # of the unacked head across the write (and any growth).
                expected = bytes(model[:rng.randint(1, len(model))])
                view = buf.peek(0, len(expected))
                assert bytes(view) == expected, where
                if isinstance(view, memoryview):
                    views.append((view, acked, expected))
            data = bytes(rng.getrandbits(8)
                         for _ in range(_write_len(rng, capacity)))
            took = buf.write(data)
            assert took == min(len(data), capacity - len(model)), where
            model.extend(data[:took])
            written += took
        elif roll < 0.75:
            offset = rng.randint(0, len(model) + 2)
            length = rng.randint(0, 3000)
            view = buf.peek(offset, length)
            expected = bytes(model[offset:offset + length])
            assert bytes(view) == expected, where
            if expected and isinstance(view, memoryview):
                views.append((view, acked + offset, expected))
        else:
            n = rng.randint(0, len(model))
            buf.advance(n)
            del model[:n]
            acked += n
        if len(buf._slab) != slab_before and slab_before and views:
            grew_under_view = True
        sizes.add(len(buf._slab))
        # A view reads the same bytes until ``advance`` passes it.
        views = [v for v in views if v[1] >= acked]
        for view, _, expected in views:
            assert bytes(view) == expected, where
        assert len(buf) == len(model), where
        assert buf.free_space == capacity - len(model), where
        assert len(buf._slab) <= capacity, where
        assert bytes(buf.peek(0, len(model))) == bytes(model), where
        with pytest.raises(ResourceError):
            buf.advance(len(model) + 1)
    # Two slab sizes at most: the first slab, then full capacity.
    assert len(sizes - {0}) <= 2
    assert max(sizes) <= capacity
    assert written > capacity  # the ring wrapped
    if capacity > MIN_SEND_SLAB:
        assert capacity in sizes
        assert grew_under_view


def test_send_buffer_grows_under_a_live_view():
    # Deterministic companion to the random walk: a view taken from the
    # first slab survives the re-linearizing growth byte for byte.
    buf = SendBuffer(64 * 1024)
    buf.write(b"a" * 3000)
    buf.advance(2000)
    buf.write(b"b" * 2000)   # wraps the 4 KiB first slab
    head = buf.peek(0, 1000)
    first_slab = buf._slab
    before = bytes(first_slab)
    assert len(first_slab) == MIN_SEND_SLAB
    buf.write(b"c" * 5000)   # overflow: one slab of full capacity
    assert len(buf._slab) == 64 * 1024 and buf._slab is not first_slab
    assert bytes(head) == b"a" * 1000
    assert bytes(buf.peek(0, 8000)) == b"a" * 1000 + b"b" * 2000 + b"c" * 5000
    assert bytes(first_slab) == before  # growth never writes the old slab


#: The byte stream every receive-buffer case reassembles.
STREAM = bytes((i * 7 + 3) % 251 for i in range(300))

#: (stream offset, length, deliver as memoryview) — offsets near each
#: other so segments overlap, duplicate and arrive out of order.
_SEGMENT = st.tuples(st.integers(0, len(STREAM) - 1), st.integers(1, 48),
                     st.booleans())

_OPS = st.lists(st.one_of(
    st.tuples(st.just("deliver"), _SEGMENT),
    st.tuples(st.just("batch"), st.lists(_SEGMENT, max_size=6)),
    st.tuples(st.just("read"), st.integers(0, 80)),
), max_size=60)


def _segment(base, segment):
    offset, length, as_view = segment
    data = STREAM[offset:offset + length]
    return base + offset, memoryview(bytearray(data)) if as_view else data


@given(capacity=st.integers(1, 96), base=st.integers(0, 10_000), ops=_OPS)
@settings(max_examples=300, deadline=None)
def test_receive_buffer_matches_reference_model(capacity, base, ops):
    """Random segment streams — overlap, duplicates, out-of-order
    arrivals, and a window small enough to close — give the same bytes
    made ready, cursor, window and reads as the reference model."""
    buf = ReceiveBuffer(capacity, initial_seq=base)
    model = ReceiveBufferModel(capacity, base)
    received = bytearray()
    for op, arg in ops:
        if op == "deliver":
            seq, data = _segment(base, arg)
            assert buf.deliver(seq, data) == model.deliver(seq, data)
        elif op == "batch":
            segments = [_segment(base, segment) for segment in arg]
            expected = sum(model.deliver(seq, data)
                           for seq, data in segments)
            assert buf.deliver_batch(segments) == expected
        else:
            data = buf.read(arg)
            assert data == model.read(arg)
            received += data
        assert buf.rcv_nxt == model.rcv_nxt
        assert buf.window == model.window
        assert len(buf) == len(model.ready)
    data = buf.read(capacity)
    assert data == model.read(capacity)
    # Whatever was made ready is the stream's prefix, in order.
    assert bytes(received + data) == STREAM[:buf.rcv_nxt - base]

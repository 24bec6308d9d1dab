"""Tests (including property-based) for TCP stream buffers."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ResourceError
from repro.stack.tcp.buffers import ReceiveBuffer, SendBuffer


class TestSendBuffer:
    def test_write_peek_advance(self):
        buf = SendBuffer(100)
        assert buf.write(b"hello world") == 11
        assert buf.peek(0, 5) == b"hello"
        assert buf.peek(6, 5) == b"world"
        buf.advance(6)
        assert buf.peek(0, 5) == b"world"

    def test_write_respects_capacity(self):
        buf = SendBuffer(4)
        assert buf.write(b"abcdef") == 4
        assert buf.free_space == 0
        assert buf.write(b"x") == 0

    def test_advance_past_data_rejected(self):
        buf = SendBuffer(100)
        buf.write(b"abc")
        with pytest.raises(ResourceError):
            buf.advance(4)

    def test_negative_args_rejected(self):
        buf = SendBuffer(100)
        with pytest.raises(ResourceError):
            buf.peek(-1, 5)
        with pytest.raises(ResourceError):
            buf.advance(-1)

    @given(st.lists(st.binary(min_size=1, max_size=50), max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_stream_integrity_property(self, chunks):
        """Bytes come out in exactly the order and content written."""
        buf = SendBuffer(10_000)
        joined = b"".join(chunks)
        for chunk in chunks:
            assert buf.write(chunk) == len(chunk)
        out = buf.peek(0, len(joined))
        assert out == joined


class TestReceiveBuffer:
    def test_in_order_delivery(self):
        buf = ReceiveBuffer(1000, initial_seq=0)
        assert buf.deliver(0, b"abc") == 3
        assert buf.deliver(3, b"def") == 3
        assert buf.read(100) == b"abcdef"
        assert buf.rcv_nxt == 6

    def test_out_of_order_reassembly(self):
        buf = ReceiveBuffer(1000, initial_seq=0)
        assert buf.deliver(3, b"def") == 0  # stashed
        assert buf.deliver(0, b"abc") == 6  # drains the stash
        assert buf.read(100) == b"abcdef"

    def test_duplicate_segments_ignored(self):
        buf = ReceiveBuffer(1000, initial_seq=0)
        buf.deliver(0, b"abc")
        assert buf.deliver(0, b"abc") == 0
        assert buf.read(100) == b"abc"

    def test_overlapping_prefix_trimmed(self):
        buf = ReceiveBuffer(1000, initial_seq=0)
        buf.deliver(0, b"abc")
        assert buf.deliver(1, b"bcde") == 2  # only "de" is new
        assert buf.read(100) == b"abcde"

    def test_window_shrinks_with_backlog(self):
        buf = ReceiveBuffer(10, initial_seq=0)
        assert buf.window == 10
        buf.deliver(0, b"abcde")
        assert buf.window == 5

    def test_window_closed_drops_excess(self):
        buf = ReceiveBuffer(4, initial_seq=0)
        buf.deliver(0, b"abcd")
        assert buf.window == 0
        assert buf.deliver(4, b"e") == 0
        assert buf.read(100) == b"abcd"

    def test_read_partial(self):
        buf = ReceiveBuffer(100, initial_seq=0)
        buf.deliver(0, b"abcdef")
        assert buf.read(2) == b"ab"
        assert buf.read(100) == b"cdef"

    def test_nonzero_initial_seq(self):
        buf = ReceiveBuffer(100, initial_seq=5000)
        assert buf.deliver(5000, b"xy") == 2
        assert buf.rcv_nxt == 5002

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_reassembly_property(self, data):
        """Delivering segments of a stream in any order yields the
        original bytes, in order, exactly once."""
        payload = data.draw(st.binary(min_size=1, max_size=200))
        # Cut into segments.
        cuts = sorted(data.draw(st.sets(
            st.integers(min_value=1, max_value=max(1, len(payload) - 1)),
            max_size=8)))
        bounds = [0] + cuts + [len(payload)]
        segments = [
            (bounds[i], payload[bounds[i]:bounds[i + 1]])
            for i in range(len(bounds) - 1)
            if bounds[i] < bounds[i + 1]
        ]
        order = data.draw(st.permutations(segments))
        buf = ReceiveBuffer(10_000, initial_seq=0)
        for seq, chunk in order:
            buf.deliver(seq, chunk)
        # Retransmit everything once more (idempotence under duplicates).
        for seq, chunk in order:
            buf.deliver(seq, chunk)
        assert buf.read(100_000) == payload


class TestDeliverBatchEquivalence:
    """``deliver_batch(segs)`` must equal N single ``deliver`` calls —
    same bytes made ready, same cursor, same window.  The batch fast path
    differs only for consecutive in-order segments with an empty stash,
    and adopts ``bytes`` payloads but copies views, so every case runs
    with both payload types (``as_view``: memoryview slices, as the TCP
    zero-copy hand-off delivers them, or plain bytes)."""

    @staticmethod
    def _payloads(segments, as_view):
        if not as_view:
            return list(segments)
        return [(seq, memoryview(bytearray(data))) for seq, data in segments]

    def _check(self, segments, as_view, capacity=1000):
        segments = self._payloads(segments, as_view)
        batched = ReceiveBuffer(capacity, initial_seq=0)
        single = ReceiveBuffer(capacity, initial_seq=0)
        made_b = batched.deliver_batch(segments)
        made_s = sum(single.deliver(seq, data) for seq, data in segments)
        assert made_b == made_s
        assert batched.rcv_nxt == single.rcv_nxt
        assert batched.window == single.window
        assert batched.read(10 * capacity) == single.read(10 * capacity)

    @pytest.mark.parametrize("as_view", [True, False])
    def test_in_order_run(self, as_view):
        self._check([(0, b"abc"), (3, b"def"), (6, b"ghi")], as_view)

    @pytest.mark.parametrize("as_view", [True, False])
    def test_out_of_order_then_fill(self, as_view):
        self._check([(6, b"ghi"), (3, b"def"), (0, b"abc")], as_view)

    @pytest.mark.parametrize("as_view", [True, False])
    def test_overlap_and_duplicates(self, as_view):
        self._check(
            [(0, b"abcd"), (2, b"cdef"), (0, b"abcd"), (4, b"efgh")],
            as_view)

    @pytest.mark.parametrize("as_view", [True, False])
    def test_stash_mid_batch_disables_fast_path(self, as_view):
        # Segment 2 stashes; segments 3-4 must go through full deliver()
        # even though they are in-order, or the stash would never drain.
        self._check(
            [(0, b"aa"), (4, b"cc"), (2, b"bb"), (6, b"dd")], as_view)

    @pytest.mark.parametrize("as_view", [True, False])
    def test_window_closes_mid_batch(self, as_view):
        self._check([(0, b"abcd"), (4, b"efgh"), (8, b"ijkl")],
                    as_view, capacity=6)

    @pytest.mark.parametrize("as_view", [True, False])
    def test_memoryview_segments(self, as_view):
        # The zero-copy hand-off delivers memoryviews over the sender
        # slab; batch delivery must materialize them exactly like
        # deliver, and must not adopt a mutable payload either way.
        slab = bytearray(b"abcdefgh")
        if as_view:
            segs = [(0, memoryview(slab)[0:4]), (4, memoryview(slab)[4:8])]
        else:
            segs = [(0, slab[0:4]), (4, slab[4:8])]
        buf = ReceiveBuffer(100, initial_seq=0)
        assert buf.deliver_batch(segs) == 8
        slab[:] = b"XXXXXXXX"  # mutating the slab must not alias ready data
        for _seq, data in segs:
            data[:] = b"YYYY"  # nor mutating the delivered payload itself
        assert buf.read(100) == b"abcdefgh"

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_batch_equivalence_property(self, data):
        payload = data.draw(st.binary(min_size=1, max_size=200))
        cuts = sorted(data.draw(st.sets(
            st.integers(min_value=1, max_value=max(1, len(payload) - 1)),
            max_size=8)))
        bounds = [0] + cuts + [len(payload)]
        segments = [
            (bounds[i], payload[bounds[i]:bounds[i + 1]])
            for i in range(len(bounds) - 1)
            if bounds[i] < bounds[i + 1]
        ]
        order = data.draw(st.permutations(segments + segments))
        as_view = data.draw(st.booleans())
        self._check(order, as_view, capacity=10_000)


class TestStaleOutOfOrderPurge:
    """Regression: retransmissions at shifted offsets must not leave
    stale stashed chunks that permanently shrink the window."""

    def test_overlapping_retransmit_does_not_leak_window(self):
        buf = ReceiveBuffer(100, initial_seq=0)
        buf.deliver(20, b"c" * 10)   # out of order, stashed
        buf.deliver(25, b"d" * 10)   # overlapping retransmit, stashed too
        assert buf.window == 80
        buf.deliver(0, b"a" * 20)    # fills the hole; drains 20..35
        assert buf.read(100) == b"a" * 20 + b"c" * 10 + b"d" * 5
        # Every stashed byte must be reclaimed: full window restored.
        assert buf.window == 100
        assert not buf._out_of_order

    def test_fully_stale_chunk_purged(self):
        buf = ReceiveBuffer(100, initial_seq=0)
        buf.deliver(10, b"x" * 5)    # stashed
        buf.deliver(0, b"y" * 30)    # covers and passes the stash entirely
        buf.read(100)
        assert buf.window == 100
        assert not buf._out_of_order

    def test_long_lossy_stream_never_wedges_window(self):
        """Simulates heavy retransmission overlap patterns."""
        import random

        rng = random.Random(5)
        payload = bytes(rng.randrange(256) for _ in range(4000))
        buf = ReceiveBuffer(1000, initial_seq=0)
        out = bytearray()
        cursor_stall = 0
        while len(out) < len(payload) and cursor_stall < 10_000:
            # Random (possibly overlapping, possibly stale) segment near
            # the cursor, like a retransmitting sender would produce.
            base = max(0, buf.rcv_nxt - 30)
            seq = rng.randrange(base, min(len(payload), base + 200))
            end = min(len(payload), seq + rng.randrange(1, 120))
            buf.deliver(seq, payload[seq:end])
            out.extend(buf.read(1000))
            cursor_stall += 1
        assert bytes(out) == payload
        assert buf.window == 1000
